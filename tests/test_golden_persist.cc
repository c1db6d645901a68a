/**
 * @file
 * Golden persistence images: small IPv4 and IPv6 engine snapshots and
 * journals checked in under tests/data/.  A snapshot stores the raw
 * Index Table slots, whose meaning depends on the H3 hash and the slot
 * layout, so these files fail to load correctly — or re-save to
 * different bytes — the moment a hot-path rewrite changes either one
 * without versioning the format.
 *
 * Each golden_v<4|6> set was written once, by a build whose H3 walked
 * the XOR tree one set bit at a time, as:
 *
 *     config    keyWidth 32 | 128, minCellCapacity 8, other defaults
 *     .table    generateScaledTable(200, keyWidth, 0x601D + keyWidth)
 *     .journal  UpdateTraceGenerator(table, standardTraceProfiles()[0],
 *               keyWidth, 0x7A11 + keyWidth): 20 updates, a snapshot
 *               mark, then a 30-update tail (each logged, applied,
 *               then committed with its outcome)
 *     .snapshot            encodeSnapshotImage after the first 20
 *     .replayed.snapshot   encodeSnapshotImage after all 50
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/engine.hh"
#include "persist/journal.hh"
#include "persist/recovery.hh"
#include "persist/snapshot.hh"
#include "route/reader.hh"
#include "trie/binary_trie.hh"

namespace chisel {
namespace {

using u128 = unsigned __int128;

std::string
dataPath(const std::string &name)
{
    return std::string(CHISEL_SOURCE_DIR) + "/tests/data/" + name;
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

u128
toInt(const Key128 &k)
{
    return (u128(k.hi()) << 64) | k.lo();
}

Key128
fromInt(u128 v)
{
    return Key128(static_cast<uint64_t>(v >> 64),
                  static_cast<uint64_t>(v));
}

/** The low @p n bits set (n <= 128). */
u128
lowOnes(unsigned n)
{
    return n >= 128 ? ~u128(0) : (u128(1) << n) - 1;
}

/**
 * Keys on and just outside both ends of every prefix, in a keyspace
 * of @p width bits (keys are left-aligned; the bits below the
 * keyspace stay zero).
 */
std::vector<Key128>
boundaryKeys(const std::vector<Prefix> &prefixes, unsigned width)
{
    const u128 below = lowOnes(128 - width);
    const u128 unit = below + 1;
    std::vector<Key128> keys;
    for (const Prefix &p : prefixes) {
        u128 first = toInt(p.bits());
        u128 last = first | (lowOnes(128 - p.length()) & ~below);
        for (u128 v : {first, last, first - unit, last + unit})
            keys.push_back(fromInt(v & ~below));
    }
    return keys;
}

void
expectMatchesOracle(const ChiselEngine &engine, const BinaryTrie &trie,
                    const std::vector<Key128> &keys, unsigned width)
{
    for (const Key128 &key : keys) {
        LookupResult got = engine.lookup(key);
        std::optional<Route> want = trie.lookup(key);
        ASSERT_EQ(got.found, want.has_value()) << key.toBitString(width);
        if (!want)
            continue;
        EXPECT_EQ(got.nextHop, want->nextHop) << key.toBitString(width);
        EXPECT_EQ(got.matchedLength, want->prefix.length())
            << key.toBitString(width);
    }
}

void
checkGoldenSet(const std::string &name, unsigned width)
{
    const std::string table_path = dataPath(name + ".table");
    const std::string journal_path = dataPath(name + ".journal");
    const std::string snapshot_path = dataPath(name + ".snapshot");
    const std::vector<uint8_t> snapshot_bytes = readFile(snapshot_path);
    const std::vector<uint8_t> replayed_bytes =
        readFile(dataPath(name + ".replayed.snapshot"));
    ASSERT_FALSE(snapshot_bytes.empty());
    ASSERT_FALSE(replayed_bytes.empty());

    // The snapshot alone: it loads under its own embedded config and
    // re-saves to the same bytes.
    persist::SnapshotLoadResult snap =
        persist::loadSnapshot(snapshot_path, nullptr);
    ASSERT_EQ(snap.status, persist::SnapshotLoadStatus::Ok) << snap.error;
    const ChiselConfig config = snap.engine->config();
    EXPECT_EQ(config.keyWidth, width);
    EXPECT_EQ(persist::encodeSnapshotImage(*snap.engine, snap.lastSeq),
              snapshot_bytes);

    // Warm restart: snapshot plus the journal tail, audited against
    // the table and the journal.
    persist::RecoveryOptions opts;
    opts.journalPath = journal_path;
    opts.snapshotPath = snapshot_path;
    opts.config = config;
    opts.initialTable = readTableFile(table_path);
    persist::RecoveryReport report = persist::recoverEngine(opts);
    EXPECT_EQ(report.source, persist::RecoverySource::Snapshot)
        << report.snapshotError;
    EXPECT_EQ(report.fallbacks, 0u);
    EXPECT_TRUE(report.journalHeaderOk) << report.journalError;
    EXPECT_EQ(report.recordsReplayed, 30u);
    EXPECT_EQ(report.lastSeq, 50u);
    EXPECT_TRUE(report.auditPassed)
        << "missing=" << report.auditMissing
        << " mismatched=" << report.auditMismatched
        << " phantom=" << report.auditPhantom;
    // No Bloomier setup ran: the count is the one the snapshot holds
    // (the tail's updates were all incremental in the original run).
    EXPECT_EQ(report.engine->bloomierSetups(),
              snap.engine->bloomierSetups());

    // The recovered engine is the one that wrote the replayed image,
    // byte for byte: every journaled insert landed in the same slots.
    EXPECT_EQ(persist::encodeSnapshotImage(*report.engine,
                                           report.lastSeq),
              replayed_bytes);

    // Lookups agree with a trie oracle built independently from the
    // table and the journal's update records.
    BinaryTrie trie(opts.initialTable);
    std::vector<Prefix> prefixes;
    for (const Route &r : opts.initialTable.routes())
        prefixes.push_back(r.prefix);
    persist::JournalScan scan = persist::scanJournal(journal_path, 0);
    ASSERT_TRUE(scan.headerOk) << scan.error;
    for (const persist::JournalRecord &rec : scan.records) {
        if (rec.type != persist::JournalRecord::Type::Update)
            continue;
        prefixes.push_back(rec.update.prefix);
        if (rec.update.kind == UpdateKind::Announce)
            trie.insert(rec.update.prefix, rec.update.nextHop);
        else
            trie.erase(rec.update.prefix);
    }
    expectMatchesOracle(*report.engine, trie,
                        boundaryKeys(prefixes, width), width);

    // Random keys: uniform ones (mostly misses at IPv6 width) and
    // ones drawn inside a random prefix (hits at every depth).
    Rng rng(width);
    std::vector<Key128> random_keys;
    for (int i = 0; i < 20000; ++i) {
        u128 v = (u128(rng.next64()) << 64) | rng.next64();
        if (i % 2) {
            const Prefix &p = prefixes[rng.nextBelow(prefixes.size())];
            v = toInt(p.bits()) | (v & lowOnes(128 - p.length()));
        }
        random_keys.push_back(fromInt(v & ~lowOnes(128 - width)));
    }
    expectMatchesOracle(*report.engine, trie, random_keys, width);
}

TEST(GoldenPersist, Ipv4SnapshotAndJournalStillLoad)
{
    checkGoldenSet("golden_v4", 32);
}

TEST(GoldenPersist, Ipv6SnapshotAndJournalStillLoad)
{
    checkGoldenSet("golden_v6", 128);
}

} // namespace
} // namespace chisel
