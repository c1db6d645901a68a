/**
 * @file
 * Persistence tests (docs/persistence.md): the binary codec, the
 * write-ahead journal's torn-tail discipline, CRC-checked snapshot
 * save/restore, and the full recovery ladder — including a
 * crash-at-every-record sweep that proves any prefix of the journal
 * recovers to exactly the state the durable history describes, and a
 * warm-restart check that the restored engine is bit-identical to the
 * one that wrote the snapshot with zero new Bloomier setups.
 *
 * Every test uses fixed seeds and private files under the gtest temp
 * directory; a failure replays exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/engine.hh"
#include "core/resize.hh"
#include "fault/fault.hh"
#include "persist/codec.hh"
#include "persist/journal.hh"
#include "persist/recovery.hh"
#include "persist/snapshot.hh"
#include "route/synth.hh"
#include "route/updates.hh"
#include "telemetry/engine_telemetry.hh"
#include "telemetry/metrics.hh"
#include "trie/binary_trie.hh"

namespace chisel {
namespace {

using fault::FaultInjector;
using fault::FaultPoint;
using fault::ScopedInjector;
using persist::Decoder;
using persist::DecodeError;
using persist::Encoder;
using persist::JournalRecord;
using persist::JournalScan;
using persist::RecoveryOptions;
using persist::RecoveryReport;
using persist::RecoverySource;
using persist::SnapshotLoadResult;
using persist::SnapshotLoadStatus;
using persist::UpdateJournal;

/** Unique path under the gtest temp dir. */
std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "chisel_persist_" +
           std::to_string(::getpid()) + "_" + name;
}

void
removeFile(const std::string &path)
{
    std::remove(path.c_str());
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** Engine state as raw bytes — the strongest equality there is. */
std::vector<uint8_t>
stateBytes(const ChiselEngine &engine)
{
    Encoder enc;
    engine.saveState(enc);
    return enc.buffer();
}

// ---- codec -----------------------------------------------------------------

TEST(PersistCodec, Crc32KnownAnswer)
{
    // The CRC-32 "check" value: crc of the ASCII digits 1-9.
    EXPECT_EQ(persist::crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(persist::crc32("", 0), 0u);
}

/** The bytewise reflected CRC-32 the sliced one must reproduce. */
uint32_t
bytewiseCrc32(const uint8_t *data, size_t len, uint32_t seed)
{
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (size_t i = 0; i < len; ++i) {
        c ^= data[i];
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    return c ^ 0xFFFFFFFFu;
}

TEST(PersistCodec, Crc32MatchesBytewiseReference)
{
    // Every length 0-64 from every start offset 0-7 (the word loop's
    // alignment and tail cases), plain and chained from a seed.
    std::vector<uint8_t> buf(64 + 8);
    Rng rng(0xC3C);
    for (uint8_t &b : buf)
        b = static_cast<uint8_t>(rng.next64());
    for (size_t start = 0; start < 8; ++start) {
        for (size_t len = 0; len <= 64; ++len) {
            const uint8_t *p = buf.data() + start;
            ASSERT_EQ(persist::crc32(p, len), bytewiseCrc32(p, len, 0))
                << "start " << start << " len " << len;
            ASSERT_EQ(persist::crc32(p, len, 0x9E3779B9u),
                      bytewiseCrc32(p, len, 0x9E3779B9u))
                << "start " << start << " len " << len;
        }
    }
    // Chaining splits a buffer anywhere.
    for (size_t cut = 0; cut <= 64; ++cut) {
        uint32_t head = persist::crc32(buf.data(), cut);
        EXPECT_EQ(persist::crc32(buf.data() + cut, 64 - cut, head),
                  persist::crc32(buf.data(), 64));
    }
}

TEST(PersistCodec, RoundtripAndBoundsChecks)
{
    Encoder enc;
    enc.u8(7);
    enc.u32(0xDEADBEEF);
    enc.u64(0x0123456789ABCDEFull);
    enc.boolean(true);
    enc.f64(3.5);
    enc.key(Key128(0x1111, 0x2222));
    enc.prefix(Prefix(Key128::fromIpv4(0x0A000000), 8));

    Decoder dec(enc.buffer());
    EXPECT_EQ(dec.u8(), 7u);
    EXPECT_EQ(dec.u32(), 0xDEADBEEFu);
    EXPECT_EQ(dec.u64(), 0x0123456789ABCDEFull);
    EXPECT_TRUE(dec.boolean());
    EXPECT_EQ(dec.f64(), 3.5);
    EXPECT_EQ(dec.key(), Key128(0x1111, 0x2222));
    EXPECT_EQ(dec.prefix(), Prefix(Key128::fromIpv4(0x0A000000), 8));
    EXPECT_TRUE(dec.atEnd());

    // Reads past the end throw, never scan garbage.
    EXPECT_THROW(dec.u8(), DecodeError);

    // A count that promises more elements than bytes remain is
    // refused before any allocation happens.
    Encoder bad;
    bad.u64(1u << 30);
    Decoder bad_dec(bad.buffer());
    EXPECT_THROW(bad_dec.count(8), DecodeError);

    // A boolean byte that is neither 0 nor 1 is corruption.
    Encoder not_bool;
    not_bool.u8(2);
    Decoder nb(not_bool.buffer());
    EXPECT_THROW(nb.boolean(), DecodeError);

    // A prefix with set bits beyond its length is corruption.
    Encoder bad_prefix;
    bad_prefix.key(Key128::fromIpv4(0x0A0000FF));
    bad_prefix.u8(8);
    Decoder bp(bad_prefix.buffer());
    EXPECT_THROW(bp.prefix(), DecodeError);
}

// ---- engine state roundtrip ------------------------------------------------

TEST(PersistEngine, StateRoundtripIsBitExactWithZeroSetups)
{
    RoutingTable table = generateScaledTable(1500, 32, 0x51AB);
    ChiselEngine engine(table);

    // Push the engine through real churn so the image carries dirty
    // bits, flap history, allocator free lists and counters.
    UpdateTraceGenerator gen(table, standardTraceProfiles()[0], 32,
                             0x51AC);
    for (const Update &u : gen.generate(300))
        engine.apply(u);
    ASSERT_TRUE(engine.selfCheck());

    std::vector<uint8_t> image = stateBytes(engine);
    uint64_t setups_before = engine.bloomierSetups();

    Decoder dec(image.data(), image.size());
    std::unique_ptr<ChiselEngine> restored =
        ChiselEngine::restoreState(engine.config(), dec);
    EXPECT_TRUE(dec.atEnd());

    // Bit-exact: re-serializing the restored engine reproduces the
    // original image, so every table, counter and free list survived.
    EXPECT_EQ(stateBytes(*restored), image);
    EXPECT_TRUE(restored->selfCheck());

    // The whole point of a warm restart: no Bloomier setup ran.
    EXPECT_EQ(restored->bloomierSetups(), setups_before);

    // And it behaves identically.
    std::vector<Key128> keys =
        generateLookupKeys(engine.exportTable(), 2000, 32, 0.8, 0x51AD);
    for (const Key128 &k : keys) {
        LookupResult a = engine.lookup(k);
        LookupResult b = restored->lookup(k);
        ASSERT_EQ(a.found, b.found);
        if (a.found) {
            ASSERT_EQ(a.nextHop, b.nextHop);
            ASSERT_EQ(a.matchedLength, b.matchedLength);
        }
    }
}

TEST(PersistEngine, StateIgnoresLookupsAndReservedWords)
{
    RoutingTable table = generateScaledTable(400, 32, 0x53AB);
    ChiselEngine engine(table);
    std::vector<uint8_t> image = stateBytes(engine);

    // Lookups write nothing the state carries.
    for (const Key128 &k : generateLookupKeys(table, 500, 32, 0.8, 0x53AC))
        engine.lookup(k);
    ASSERT_EQ(stateBytes(engine), image);

    // Five reserved u64 words precede the TTL clock and deadlines.
    // Older snapshots hold lookup access tallies there: those still
    // load, and re-save as zero.
    Encoder tail;
    tail.u64(engine.ttlClock());
    engine.ttlIndex().saveState(tail);
    constexpr size_t kReservedBytes = 5 * 8;
    ASSERT_GE(image.size(), tail.size() + kReservedBytes);
    size_t at = image.size() - tail.size() - kReservedBytes;
    std::vector<uint8_t> tallied = image;
    for (size_t i = 0; i < kReservedBytes; ++i) {
        ASSERT_EQ(image[at + i], 0u) << "reserved byte " << i;
        tallied[at + i] = static_cast<uint8_t>(0x11 + i);
    }

    Decoder dec(tallied.data(), tallied.size());
    std::unique_ptr<ChiselEngine> restored =
        ChiselEngine::restoreState(engine.config(), dec);
    EXPECT_TRUE(dec.atEnd());
    EXPECT_EQ(stateBytes(*restored), image);
    EXPECT_TRUE(restored->selfCheck());
}

TEST(PersistEngine, RestoreRefusesTruncatedOrBitFlippedImages)
{
    RoutingTable table = generateScaledTable(400, 32, 0x52AB);
    ChiselEngine engine(table);
    std::vector<uint8_t> image = stateBytes(engine);

    // Every truncation point of the first kilobyte (and a coarse
    // sweep beyond) must throw DecodeError — never crash, never
    // return a half-restored engine.
    for (size_t cut = 0; cut < image.size();
         cut += (cut < 1024 ? 17 : 4099)) {
        Decoder dec(image.data(), cut);
        EXPECT_THROW(ChiselEngine::restoreState(engine.config(), dec),
                     DecodeError)
            << "truncation at " << cut << " was accepted";
    }
}

TEST(PersistEngine, RestoreRejectsIndexWordOverParityBit)
{
    // Bit 31 of an Index slot word is its parity bit, so a snapshot
    // slot value at or above the cell's slot width is corruption.
    RoutingTable table = generateScaledTable(400, 32, 0x55AB);
    ChiselEngine engine(table);
    std::vector<uint8_t> image = stateBytes(engine);

    // The first cell's state appears verbatim in the engine image and
    // starts with its Index: seed, slot count, then the slot words.
    Encoder cell;
    engine.cell(0).saveState(cell);
    auto at = std::search(image.begin(), image.end(),
                          cell.buffer().begin(), cell.buffer().end());
    ASSERT_NE(at, image.end());
    size_t first_slot = static_cast<size_t>(at - image.begin()) + 16;

    std::vector<uint8_t> bad = image;
    bad[first_slot + 3] |= 0x80;   // Bit 31 of slot 0 (little-endian).
    Decoder dec(bad.data(), bad.size());
    EXPECT_THROW(ChiselEngine::restoreState(engine.config(), dec),
                 DecodeError);

    Decoder good(image.data(), image.size());
    EXPECT_NE(ChiselEngine::restoreState(engine.config(), good), nullptr);
}

TEST(PersistEngine, RebuiltImagesKeepServingOracleAnswers)
{
    // Each engine image owns the arena its lookup tables live in, and
    // drops it when destroyed.  Images rebuilt after one is destroyed
    // — by restore, and by a resize re-plan — serve exactly the
    // oracle's answers.
    RoutingTable truth = generateScaledTable(3000, 32, 0x56AB);
    UpdateTraceGenerator gen(truth, standardTraceProfiles()[0], 32,
                             0x56AC);
    auto engine = std::make_unique<ChiselEngine>(truth);

    auto check = [&](const char *stage, int round) {
        ASSERT_TRUE(engine->selfCheck()) << stage << " " << round;
        BinaryTrie oracle(truth);
        for (const Key128 &k :
             generateLookupKeys(truth, 3000, 32, 0.8, 0x56AD + round)) {
            auto want = oracle.lookup(k, 32);
            LookupResult got = engine->lookup(k);
            ASSERT_EQ(want.has_value(), got.found) << stage << " " << round;
            if (want) {
                ASSERT_EQ(want->nextHop, got.nextHop) << stage;
                ASSERT_EQ(want->prefix.length(), got.matchedLength)
                    << stage;
            }
        }
    };

    for (int round = 0; round < 3; ++round) {
        for (const Update &u : gen.generate(400)) {
            engine->apply(u);
            if (u.kind == UpdateKind::Announce)
                truth.add(u.prefix, u.nextHop);
            else
                truth.remove(u.prefix);
        }
        check("updated", round);

        std::vector<uint8_t> image = stateBytes(*engine);
        ChiselConfig config = engine->config();
        engine.reset();
        Decoder dec(image.data(), image.size());
        engine = ChiselEngine::restoreState(config, dec);
        check("restored", round);

        ChiselConfig grown = planResize(
            engine->config(),
            ResizeLoad{engine->routeCount(), engine->spillCount(),
                       engine->slowPathCount()});
        engine = engine->rebuilt(grown);
        check("resized", round);
    }
}

// ---- journal ---------------------------------------------------------------

TEST(PersistJournal, AppendScanRoundtrip)
{
    std::string path = tempPath("journal_roundtrip");
    removeFile(path);
    ChiselConfig config;
    uint64_t fp = configFingerprint(config);

    {
        UpdateJournal journal(path, fp);
        Update u1{UpdateKind::Announce,
                  Prefix(Key128::fromIpv4(0x0A000000), 8), 42};
        Update u2{UpdateKind::Withdraw,
                  Prefix(Key128::fromIpv4(0x0A000000), 8), kNoRoute};
        EXPECT_EQ(journal.append(u1), 1u);
        UpdateOutcome out;
        out.status = UpdateStatus::Applied;
        journal.appendOutcome(1, out);
        EXPECT_EQ(journal.append(u2), 2u);
        journal.appendOutcome(2, out);
        journal.appendSnapshotMark(2);
        journal.sync();
    }

    JournalScan scan = persist::scanJournal(path, fp);
    ASSERT_TRUE(scan.headerOk) << scan.error;
    EXPECT_FALSE(scan.truncatedTail);
    ASSERT_EQ(scan.records.size(), 5u);
    EXPECT_EQ(scan.lastSeq, 2u);
    EXPECT_EQ(scan.lastCommittedSeq, 2u);
    EXPECT_EQ(scan.lastSnapshotSeq, 2u);
    EXPECT_EQ(scan.records[0].type, JournalRecord::Type::Update);
    EXPECT_EQ(scan.records[0].update.kind, UpdateKind::Announce);
    EXPECT_EQ(scan.records[0].update.nextHop, 42u);
    EXPECT_EQ(scan.records[2].update.kind, UpdateKind::Withdraw);

    // Reopening continues the sequence after the existing records.
    {
        UpdateJournal journal(path, fp);
        EXPECT_EQ(journal.lastSeq(), 2u);
        Update u3{UpdateKind::Announce,
                  Prefix(Key128::fromIpv4(0x0B000000), 8), 7};
        EXPECT_EQ(journal.append(u3), 3u);
    }
    scan = persist::scanJournal(path, fp);
    EXPECT_EQ(scan.lastSeq, 3u);
    removeFile(path);
}

// An Update record is flushed before the engine touches an image; its
// Outcome waits in the stdio buffer for the next record's flush, a
// sync() or the close, so an update costs one write syscall.
TEST(PersistJournal, OutcomeRidesWithTheNextWrite)
{
    std::string path = tempPath("journal_outcome");
    removeFile(path);
    ChiselConfig config;
    uint64_t fp = configFingerprint(config);
    auto types = [&] {
        std::vector<JournalRecord::Type> out;
        for (const JournalRecord &rec : persist::scanJournal(path, fp).records)
            out.push_back(rec.type);
        return out;
    };
    using T = JournalRecord::Type;
    Update u{UpdateKind::Announce, Prefix(Key128::fromIpv4(0x0A000000), 8),
             42};
    UpdateOutcome out;
    {
        // No batch fsync falls due, so nothing but the flushes moves
        // bytes to the kernel.
        UpdateJournal journal(path, fp, /*fsync_every=*/0);
        EXPECT_EQ(journal.append(u), 1u);
        EXPECT_EQ(types(), (std::vector<T>{T::Update}));
        journal.appendOutcome(1, out);
        EXPECT_EQ(types(), (std::vector<T>{T::Update}));
        EXPECT_EQ(journal.append(u), 2u);
        EXPECT_EQ(types(),
                  (std::vector<T>{T::Update, T::Outcome, T::Update}));
        journal.appendOutcome(2, out);
        journal.sync();
        EXPECT_EQ(types(), (std::vector<T>{T::Update, T::Outcome,
                                           T::Update, T::Outcome}));
        EXPECT_EQ(journal.append(u), 3u);
        journal.appendOutcome(3, out);
        journal.flush();
        EXPECT_EQ(types().size(), 6u);
        EXPECT_EQ(journal.append(u), 4u);
        journal.appendOutcome(4, out);
        EXPECT_EQ(types().size(), 7u);
    }
    // Closing the journal writes the last Outcome.
    EXPECT_EQ(types().size(), 8u);
    EXPECT_EQ(persist::scanJournal(path, fp).lastCommittedSeq, 4u);
    removeFile(path);

    {
        // Under fsync_every = 1 an Outcome makes no fsync fall due: it
        // waits for the next record, and the Update stays its batch.
        UpdateJournal journal(path, fp, /*fsync_every=*/1);
        EXPECT_EQ(journal.append(u), 1u);
        EXPECT_EQ(journal.lastDurableSeq(), 1u);
        journal.appendOutcome(1, out);
        EXPECT_EQ(types(), (std::vector<T>{T::Update}));
        EXPECT_EQ(journal.append(u), 2u);
        EXPECT_EQ(types(),
                  (std::vector<T>{T::Update, T::Outcome, T::Update}));
        EXPECT_EQ(journal.lastDurableSeq(), 2u);
    }
    removeFile(path);
}

TEST(PersistJournal, EmptyAndHeaderOnlyJournals)
{
    std::string path = tempPath("journal_empty");
    removeFile(path);
    ChiselConfig config;
    uint64_t fp = configFingerprint(config);

    // Absent file: not scannable.
    JournalScan scan = persist::scanJournal(path, fp);
    EXPECT_FALSE(scan.headerOk);

    // A zero-byte file is re-initialized, not appended to.
    writeFile(path, {});
    {
        UpdateJournal journal(path, fp);
        EXPECT_EQ(journal.lastSeq(), 0u);
    }

    // Header-only journal: valid, zero records — the empty-journal
    // recovery case.
    scan = persist::scanJournal(path, fp);
    ASSERT_TRUE(scan.headerOk) << scan.error;
    EXPECT_TRUE(scan.records.empty());
    EXPECT_FALSE(scan.truncatedTail);
    EXPECT_EQ(scan.lastSeq, 0u);
    removeFile(path);
}

TEST(PersistJournal, TornFinalRecordIsDiscardedExactly)
{
    std::string path = tempPath("journal_torn");
    removeFile(path);
    ChiselConfig config;
    uint64_t fp = configFingerprint(config);

    {
        UpdateJournal journal(path, fp);
        for (uint32_t i = 0; i < 10; ++i) {
            Update u{UpdateKind::Announce,
                     Prefix(Key128::fromIpv4(0x0A000000 + (i << 8)),
                            24),
                     NextHop(i)};
            journal.append(u);
        }
    }
    std::vector<uint8_t> full = readFile(path);
    JournalScan intact = persist::scanJournal(path, fp);
    ASSERT_EQ(intact.records.size(), 10u);

    // Chop the file mid-final-record: exactly one record is lost.
    writeFile(path, std::vector<uint8_t>(full.begin(),
                                         full.end() - 5));
    JournalScan torn = persist::scanJournal(path, fp);
    ASSERT_TRUE(torn.headerOk);
    EXPECT_TRUE(torn.truncatedTail);
    EXPECT_EQ(torn.records.size(), 9u);
    EXPECT_EQ(torn.lastSeq, 9u);

    // A bit flip inside the final record's payload: same outcome via
    // the CRC instead of the length check.
    std::vector<uint8_t> flipped = full;
    flipped[flipped.size() - 3] ^= 0x10;
    writeFile(path, flipped);
    JournalScan bitrot = persist::scanJournal(path, fp);
    EXPECT_TRUE(bitrot.truncatedTail);
    EXPECT_EQ(bitrot.records.size(), 9u);

    // Reopening for append truncates the torn tail and continues
    // from the last valid record.
    {
        UpdateJournal journal(path, fp);
        EXPECT_EQ(journal.lastSeq(), 9u);
    }
    JournalScan healed = persist::scanJournal(path, fp);
    EXPECT_FALSE(healed.truncatedTail);
    EXPECT_EQ(healed.records.size(), 9u);
    removeFile(path);
}

TEST(PersistJournal, RefusesForeignFingerprintAndBadHeader)
{
    std::string path = tempPath("journal_foreign");
    removeFile(path);
    ChiselConfig config;
    ChiselConfig other;
    other.stride = config.stride + 1;
    ASSERT_NE(configFingerprint(config), configFingerprint(other));

    {
        UpdateJournal journal(path, configFingerprint(config));
    }
    JournalScan scan =
        persist::scanJournal(path, configFingerprint(other));
    EXPECT_FALSE(scan.headerOk);
    EXPECT_NE(scan.error.find("different config"), std::string::npos);

    // Appending under the wrong config must refuse, not corrupt.
    EXPECT_THROW(UpdateJournal(path, configFingerprint(other)),
                 ChiselError);

    // A corrupted header is unusable regardless of fingerprint.
    std::vector<uint8_t> bytes = readFile(path);
    bytes[1] ^= 0xFF;
    writeFile(path, bytes);
    scan = persist::scanJournal(path, 0);
    EXPECT_FALSE(scan.headerOk);
    removeFile(path);
}

#if CHISEL_FAULT_INJECTION_ENABLED
TEST(PersistJournal, InjectedTornWriteLeavesRecoverablePrefix)
{
    std::string path = tempPath("journal_fault_torn");
    removeFile(path);
    ChiselConfig config;
    uint64_t fp = configFingerprint(config);

    FaultInjector inj(91);
    // Fire on the 6th append: 5 records land, the 6th tears, later
    // appends vanish (the "process" is dead).
    {
        UpdateJournal journal(path, fp);
        for (uint32_t i = 0; i < 5; ++i)
            journal.append({UpdateKind::Announce,
                            Prefix(Key128::fromIpv4(0x0A000000 +
                                                    (i << 8)),
                                   24),
                            NextHop(i)});
        inj.arm(FaultPoint::JournalTornWrite, 1.0, 1);
        ScopedInjector scope(&inj);
        for (uint32_t i = 5; i < 10; ++i)
            journal.append({UpdateKind::Announce,
                            Prefix(Key128::fromIpv4(0x0A000000 +
                                                    (i << 8)),
                                   24),
                            NextHop(i)});
    }
    EXPECT_EQ(inj.fires(FaultPoint::JournalTornWrite), 1u);

    JournalScan scan = persist::scanJournal(path, fp);
    ASSERT_TRUE(scan.headerOk);
    EXPECT_TRUE(scan.truncatedTail);
    EXPECT_EQ(scan.records.size(), 5u);
    EXPECT_EQ(scan.lastSeq, 5u);
    removeFile(path);
}
#endif // CHISEL_FAULT_INJECTION_ENABLED

// ---- snapshots -------------------------------------------------------------

TEST(PersistSnapshot, FileRoundtripAndRotation)
{
    std::string path = tempPath("snapshot_roundtrip");
    removeFile(path);
    removeFile(persist::previousSnapshotPath(path));

    RoutingTable table = generateScaledTable(800, 32, 0x53AB);
    ChiselEngine engine(table);
    ChiselConfig config = engine.config();

    ASSERT_GT(persist::saveSnapshot(path, engine, 17), 0u);
    SnapshotLoadResult load = persist::loadSnapshot(path, &config);
    ASSERT_EQ(load.status, SnapshotLoadStatus::Ok) << load.error;
    EXPECT_EQ(load.lastSeq, 17u);
    EXPECT_EQ(stateBytes(*load.engine), stateBytes(engine));

    // A second save rotates the first image to .prev.
    engine.announce(Prefix(Key128::fromIpv4(0xC0A80000), 16), 9);
    persist::saveSnapshot(path, engine, 18);
    SnapshotLoadResult prev = persist::loadSnapshot(
        persist::previousSnapshotPath(path), &config);
    ASSERT_EQ(prev.status, SnapshotLoadStatus::Ok);
    EXPECT_EQ(prev.lastSeq, 17u);
    SnapshotLoadResult fresh = persist::loadSnapshot(path, &config);
    ASSERT_EQ(fresh.status, SnapshotLoadStatus::Ok);
    EXPECT_EQ(fresh.lastSeq, 18u);

    removeFile(path);
    removeFile(persist::previousSnapshotPath(path));
}

TEST(PersistSnapshot, RejectsVersionConfigAndCorruption)
{
    std::string path = tempPath("snapshot_reject");
    removeFile(path);
    removeFile(persist::previousSnapshotPath(path));

    RoutingTable table = generateScaledTable(300, 32, 0x54AB);
    ChiselEngine engine(table);
    ChiselConfig config = engine.config();
    persist::saveSnapshot(path, engine, 1);
    std::vector<uint8_t> good = readFile(path);

    // Missing file.
    SnapshotLoadResult r =
        persist::loadSnapshot(path + ".nope", &config);
    EXPECT_EQ(r.status, SnapshotLoadStatus::Missing);

    // Version mismatch (bytes 4..7 hold the format version).
    std::vector<uint8_t> versioned = good;
    versioned[4] ^= 0x01;
    writeFile(path, versioned);
    r = persist::loadSnapshot(path, &config);
    EXPECT_EQ(r.status, SnapshotLoadStatus::VersionMismatch);

    // Config mismatch: a snapshot from a different geometry must be
    // refused before any deep decode.
    writeFile(path, good);
    ChiselConfig other = config;
    other.stride = config.stride + 1;
    r = persist::loadSnapshot(path, &other);
    EXPECT_EQ(r.status, SnapshotLoadStatus::ConfigMismatch);

    // Payload bit flip: the CRC gate catches it.
    std::vector<uint8_t> corrupt = good;
    corrupt[good.size() / 2] ^= 0x40;
    writeFile(path, corrupt);
    r = persist::loadSnapshot(path, &config);
    EXPECT_EQ(r.status, SnapshotLoadStatus::Corrupt);

    // Truncation mid-payload.
    writeFile(path, std::vector<uint8_t>(good.begin(),
                                         good.begin() +
                                             good.size() / 2));
    r = persist::loadSnapshot(path, &config);
    EXPECT_EQ(r.status, SnapshotLoadStatus::Corrupt);

    removeFile(path);
    removeFile(persist::previousSnapshotPath(path));
}

// ---- recovery ladder -------------------------------------------------------

/** A journaling "process": engine + WAL, updates logged before apply. */
struct Process
{
    ChiselConfig config;
    RoutingTable initial;
    std::unique_ptr<ChiselEngine> engine;
    std::unique_ptr<UpdateJournal> journal;

    Process(const RoutingTable &table, const std::string &journal_path,
            const ChiselConfig &cfg = {})
        : config(cfg), initial(table)
    {
        engine = std::make_unique<ChiselEngine>(table, config);
        journal = std::make_unique<UpdateJournal>(
            journal_path, configFingerprint(config));
    }

    void
    apply(const Update &u)
    {
        uint64_t seq = journal->append(u);   // WAL: log, then mutate.
        UpdateOutcome out = engine->apply(u);
        journal->appendOutcome(seq, out);
    }

    void
    snapshot(const std::string &path)
    {
        persist::saveSnapshot(path, *engine, journal->lastSeq());
        journal->appendSnapshotMark(journal->lastSeq());
    }
};

TEST(PersistRecovery, WarmRestartIsExactWithZeroSetups)
{
    std::string jpath = tempPath("recover_warm.journal");
    std::string spath = tempPath("recover_warm.snapshot");
    removeFile(jpath);
    removeFile(spath);
    removeFile(persist::previousSnapshotPath(spath));

    RoutingTable table = generateScaledTable(1000, 32, 0x61AB);
    Process proc(table, jpath);
    UpdateTraceGenerator gen(table, standardTraceProfiles()[0], 32,
                             0x61AC);
    for (const Update &u : gen.generate(100))
        proc.apply(u);
    proc.snapshot(spath);
    for (const Update &u : gen.generate(100))
        proc.apply(u);
    // "Crash": the Process object simply stops here.

    RecoveryOptions opts;
    opts.journalPath = jpath;
    opts.snapshotPath = spath;
    opts.config = proc.config;
    opts.initialTable = table;
    RecoveryReport report = persist::recoverEngine(opts);

    EXPECT_EQ(report.source, RecoverySource::Snapshot);
    EXPECT_EQ(report.fallbacks, 0u);
    EXPECT_EQ(report.snapshotLoads, 1u);
    EXPECT_EQ(report.recordsReplayed, 100u);
    EXPECT_EQ(report.lastSeq, 200u);
    EXPECT_TRUE(report.auditRan);
    EXPECT_TRUE(report.auditPassed)
        << "missing=" << report.auditMissing
        << " mismatched=" << report.auditMismatched
        << " phantom=" << report.auditPhantom;

    // The recovered engine is bit-identical to the pre-crash one —
    // same tables, same counters, same free lists.
    EXPECT_EQ(stateBytes(*report.engine), stateBytes(*proc.engine));

    // Warm restart paid zero Bloomier setups beyond what the replayed
    // updates themselves performed in the original run (the setup
    // counters match exactly because the state is bit-identical).
    EXPECT_EQ(report.engine->bloomierSetups(),
              proc.engine->bloomierSetups());

    removeFile(jpath);
    removeFile(spath);
    removeFile(persist::previousSnapshotPath(spath));
}

TEST(PersistRecovery, PurgeBetweenSnapshotAndCrashIsReplayed)
{
    // Regression: purgeDirty() is state the journal used to miss.  A
    // purge after the snapshot left the snapshot holding dirty groups
    // the process had dismantled; warm restart then resurrected them,
    // and the restored engine diverged from the pre-crash one.  The
    // Housekeeping journal record closes the gap — the tail replay
    // re-runs the purge at the same point in the stream.
    std::string jpath = tempPath("recover_purge.journal");
    std::string spath = tempPath("recover_purge.snapshot");
    removeFile(jpath);
    removeFile(spath);
    removeFile(persist::previousSnapshotPath(spath));

    RoutingTable table = generateScaledTable(1000, 32, 0x61B0);
    Process proc(table, jpath);
    std::vector<Route> routes = table.routes();

    // Build up dirty groups, snapshot them in place.
    for (size_t i = 0; i < 60; ++i)
        proc.apply(Update{UpdateKind::Withdraw, routes[i].prefix, 0});
    proc.snapshot(spath);
    ASSERT_GT(proc.engine->dirtyCount(), 0u);

    // Purge AFTER the snapshot, journaled as housekeeping.
    proc.engine->purgeDirty();
    proc.journal->appendHousekeeping(
        JournalRecord::HousekeepingKind::PurgeDirty);
    ASSERT_EQ(proc.engine->dirtyCount(), 0u);

    // More updates past the purge, some re-dirtying the cells.
    for (size_t i = 60; i < 90; ++i)
        proc.apply(Update{UpdateKind::Withdraw, routes[i].prefix, 0});
    for (size_t i = 0; i < 20; ++i)
        proc.apply(Update{UpdateKind::Announce, routes[i].prefix,
                          routes[i].nextHop});
    // "Crash".

    RecoveryOptions opts;
    opts.journalPath = jpath;
    opts.snapshotPath = spath;
    opts.config = proc.config;
    opts.initialTable = table;
    RecoveryReport report = persist::recoverEngine(opts);

    EXPECT_EQ(report.source, RecoverySource::Snapshot);
    EXPECT_TRUE(report.auditPassed)
        << "missing=" << report.auditMissing
        << " mismatched=" << report.auditMismatched
        << " phantom=" << report.auditPhantom;

    // Without the housekeeping replay these diverge: the restored
    // engine keeps the 60 pre-snapshot dirty groups alive.
    EXPECT_EQ(report.engine->dirtyCount(), proc.engine->dirtyCount());
    EXPECT_EQ(stateBytes(*report.engine), stateBytes(*proc.engine));

    removeFile(jpath);
    removeFile(spath);
    removeFile(persist::previousSnapshotPath(spath));
}

TEST(PersistRecovery, LadderFallsBackToPreviousThenCold)
{
    std::string jpath = tempPath("recover_ladder.journal");
    std::string spath = tempPath("recover_ladder.snapshot");
    removeFile(jpath);
    removeFile(spath);
    removeFile(persist::previousSnapshotPath(spath));

    RoutingTable table = generateScaledTable(600, 32, 0x62AB);
    Process proc(table, jpath);
    UpdateTraceGenerator gen(table, standardTraceProfiles()[0], 32,
                             0x62AC);
    for (const Update &u : gen.generate(40))
        proc.apply(u);
    proc.snapshot(spath);                      // Good image -> .prev.
    for (const Update &u : gen.generate(40))
        proc.apply(u);
    proc.snapshot(spath);                      // Will be corrupted.

    // Corrupt the primary snapshot on disk.
    std::vector<uint8_t> bytes = readFile(spath);
    bytes[bytes.size() / 3] ^= 0x08;
    writeFile(spath, bytes);

    RecoveryOptions opts;
    opts.journalPath = jpath;
    opts.snapshotPath = spath;
    opts.config = proc.config;
    opts.initialTable = table;
    RecoveryReport report = persist::recoverEngine(opts);

    // Rung 2: the rotated previous snapshot, with a longer replay.
    EXPECT_EQ(report.source, RecoverySource::PreviousSnapshot);
    EXPECT_EQ(report.fallbacks, 1u);
    EXPECT_EQ(report.recordsReplayed, 40u);
    EXPECT_TRUE(report.auditPassed);
    EXPECT_EQ(stateBytes(*report.engine), stateBytes(*proc.engine));

    // Now corrupt the previous snapshot too: cold setup, full replay.
    std::vector<uint8_t> prev_bytes =
        readFile(persist::previousSnapshotPath(spath));
    prev_bytes[prev_bytes.size() / 2] ^= 0x80;
    writeFile(persist::previousSnapshotPath(spath), prev_bytes);

    RecoveryReport cold = persist::recoverEngine(opts);
    EXPECT_EQ(cold.source, RecoverySource::ColdSetup);
    EXPECT_EQ(cold.fallbacks, 2u);
    EXPECT_EQ(cold.recordsReplayed, 80u);
    EXPECT_TRUE(cold.auditPassed)
        << "missing=" << cold.auditMissing
        << " mismatched=" << cold.auditMismatched
        << " phantom=" << cold.auditPhantom;
    // Cold recovery rebuilds the same *routes* even though internal
    // layout (slot assignments) may differ from the crashed engine.
    RoutingTable a = cold.engine->exportTable();
    RoutingTable b = proc.engine->exportTable();
    ASSERT_EQ(a.size(), b.size());
    for (const Route &r : b.routes())
        EXPECT_EQ(a.find(r.prefix), b.find(r.prefix));

    removeFile(jpath);
    removeFile(spath);
    removeFile(persist::previousSnapshotPath(spath));
}

#if CHISEL_FAULT_INJECTION_ENABLED
TEST(PersistRecovery, InjectedSnapshotCorruptionTriggersFallback)
{
    std::string jpath = tempPath("recover_inj.journal");
    std::string spath = tempPath("recover_inj.snapshot");
    removeFile(jpath);
    removeFile(spath);
    removeFile(persist::previousSnapshotPath(spath));

    RoutingTable table = generateScaledTable(500, 32, 0x63AB);
    Process proc(table, jpath);
    UpdateTraceGenerator gen(table, standardTraceProfiles()[0], 32,
                             0x63AC);
    for (const Update &u : gen.generate(30))
        proc.apply(u);
    proc.snapshot(spath);   // Good image.
    for (const Update &u : gen.generate(30))
        proc.apply(u);

    // The second snapshot is written with a post-CRC bit flip: the
    // image on disk fails its own checksum.
    FaultInjector inj(92);
    inj.arm(FaultPoint::SnapshotCorrupt, 1.0, 1);
    {
        ScopedInjector scope(&inj);
        proc.snapshot(spath);
    }
    ASSERT_EQ(inj.fires(FaultPoint::SnapshotCorrupt), 1u);

    RecoveryOptions opts;
    opts.journalPath = jpath;
    opts.snapshotPath = spath;
    opts.config = proc.config;
    opts.initialTable = table;
    RecoveryReport report = persist::recoverEngine(opts);

    EXPECT_EQ(report.source, RecoverySource::PreviousSnapshot);
    EXPECT_EQ(report.fallbacks, 1u);
    EXPECT_NE(report.snapshotError.find("CRC"), std::string::npos);
    EXPECT_TRUE(report.auditPassed);
    EXPECT_EQ(stateBytes(*report.engine), stateBytes(*proc.engine));

    removeFile(jpath);
    removeFile(spath);
    removeFile(persist::previousSnapshotPath(spath));
}

TEST(PersistRecovery, InjectedSnapshotCorruptionFlipsTheDrawnBit)
{
    // The flip lands on the payload bit the injector draws over the
    // payload's size, after the CRC: a seed replays the same image.
    RoutingTable table = generateScaledTable(300, 32, 0x63AD);
    ChiselEngine engine(table);
    const std::vector<uint8_t> clean =
        persist::encodeSnapshotImage(engine, 7);
    const size_t header = 4 + 4 + 8 + 4;

    FaultInjector inj(93);
    inj.arm(FaultPoint::SnapshotCorrupt, 1.0, 1);
    std::vector<uint8_t> corrupt;
    {
        ScopedInjector scope(&inj);
        corrupt = persist::encodeSnapshotImage(engine, 7);
    }
    FaultInjector replay(93);
    replay.arm(FaultPoint::SnapshotCorrupt, 1.0, 1);
    ASSERT_TRUE(replay.shouldFire(FaultPoint::SnapshotCorrupt));
    uint64_t bit = replay.draw((clean.size() - header) * 8);

    ASSERT_EQ(corrupt.size(), clean.size());
    std::vector<uint8_t> want = clean;
    want[header + bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_EQ(corrupt, want);
}
#endif // CHISEL_FAULT_INJECTION_ENABLED

TEST(PersistRecovery, CrashAtEveryRecordSweep)
{
    std::string jpath = tempPath("recover_sweep.journal");
    std::string live = jpath + ".live";
    removeFile(jpath);
    removeFile(live);

    // A 200-update trace; after every single journaled update the
    // journal is copied aside and recovered from scratch, so every
    // possible crash instant (at record granularity) is exercised.
    RoutingTable table = generateScaledTable(300, 32, 0x64AB);
    ChiselConfig config;
    Process proc(table, live, config);
    UpdateTraceGenerator gen(table, standardTraceProfiles()[1], 32,
                             0x64AC);
    std::vector<Update> trace = gen.generate(200);

    RecoveryOptions opts;
    opts.journalPath = jpath;
    opts.config = config;
    opts.initialTable = table;
    opts.audit = true;

    // The reference evolves alongside; the oracle trie double-checks
    // LPM behaviour (not just exact-match membership) at intervals.
    RoutingTable reference = table;
    for (size_t i = 0; i < trace.size(); ++i) {
        proc.apply(trace[i]);
        if (trace[i].kind == UpdateKind::Announce)
            reference.add(trace[i].prefix, trace[i].nextHop);
        else
            reference.remove(trace[i].prefix);

        // "Crash now": recover from a copy of the journal as it is
        // at this instant.
        writeFile(jpath, readFile(live));
        RecoveryReport report = persist::recoverEngine(opts);
        ASSERT_EQ(report.source, RecoverySource::ColdSetup);
        ASSERT_EQ(report.recordsReplayed, i + 1) << "at update " << i;
        ASSERT_TRUE(report.auditPassed)
            << "at update " << i << ": missing=" << report.auditMissing
            << " mismatched=" << report.auditMismatched
            << " phantom=" << report.auditPhantom;

        if (i % 50 == 49) {
            BinaryTrie oracle(reference);
            std::vector<Key128> keys = generateLookupKeys(
                reference, 500, 32, 0.9, 0x64AD + i);
            for (const Key128 &k : keys) {
                auto want = oracle.lookup(k);
                LookupResult got = report.engine->lookup(k);
                ASSERT_EQ(got.found, want.has_value());
                if (want)
                    ASSERT_EQ(got.nextHop, want->nextHop);
            }
        }
    }

    removeFile(jpath);
    removeFile(live);
}

TEST(PersistRecovery, CrashAtEveryRecordSweepWithHousekeeping)
{
    std::string jpath = tempPath("recover_sweep_hk.journal");
    std::string live = jpath + ".live";
    removeFile(jpath);
    removeFile(live);

    // The v2 stream interleaves Housekeeping (PurgeDirty) records
    // with updates; every crash instant — including immediately after
    // each housekeeping record — must recover to a state whose purge
    // history matches the writer's.
    RoutingTable table = generateScaledTable(300, 32, 0x65AB);
    ChiselConfig config;
    Process proc(table, live, config);
    UpdateTraceGenerator gen(table, standardTraceProfiles()[1], 32,
                             0x65AC);
    std::vector<Update> trace = gen.generate(120);

    RecoveryOptions opts;
    opts.journalPath = jpath;
    opts.config = config;
    opts.initialTable = table;
    opts.audit = true;

    size_t purges = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
        proc.apply(trace[i]);
        if (i % 20 == 19) {
            proc.engine->purgeDirty();
            proc.journal->appendHousekeeping(
                JournalRecord::HousekeepingKind::PurgeDirty);
            ++purges;
        }

        writeFile(jpath, readFile(live));
        RecoveryReport report = persist::recoverEngine(opts);
        ASSERT_EQ(report.source, RecoverySource::ColdSetup);
        ASSERT_TRUE(report.auditPassed)
            << "at update " << i << ": missing=" << report.auditMissing
            << " mismatched=" << report.auditMismatched
            << " phantom=" << report.auditPhantom;
        if (i % 20 == 19) {
            // The crash landed right after a housekeeping record: the
            // replayed purge must leave the same dirty population.
            ASSERT_EQ(report.engine->dirtyCount(),
                      proc.engine->dirtyCount())
                << "after purge " << purges;
        }
    }
    ASSERT_GE(purges, 6u);

    removeFile(jpath);
    removeFile(live);
}

TEST(PersistJournal, BatchedFsyncTracksLastDurableSeq)
{
    std::string jpath = tempPath("journal_durable.journal");
    removeFile(jpath);
    uint64_t fp = configFingerprint(ChiselConfig{});
    Update u{UpdateKind::Announce,
             Prefix(Key128::fromIpv4(0x0A000000), 8), 42};

    {
        // A batch policy that never auto-syncs: the durable head
        // trails the acknowledged head until an explicit sync().
        UpdateJournal journal(jpath, fp, /*fsync_every=*/100);
        EXPECT_EQ(journal.lastDurableSeq(), 0u);
        for (int i = 0; i < 3; ++i)
            ASSERT_NE(journal.append(u), 0u);
        EXPECT_EQ(journal.lastSeq(), 3u);
        EXPECT_EQ(journal.lastDurableSeq(), 0u);
        journal.sync();
        EXPECT_EQ(journal.lastDurableSeq(), 3u);
        ASSERT_NE(journal.append(u), 0u);
        EXPECT_EQ(journal.lastDurableSeq(), 3u);
    }

    // Reopening seeds the durable head from the scanned prefix: the
    // recovered history is on disk by definition.
    UpdateJournal reopened(jpath, fp, /*fsync_every=*/100);
    EXPECT_EQ(reopened.lastSeq(), 4u);
    EXPECT_EQ(reopened.lastDurableSeq(), 4u);
    removeFile(jpath);
}

#if CHISEL_FAULT_INJECTION_ENABLED
TEST(PersistJournal, FailedBatchSyncReportsExposureWindow)
{
    std::string jpath = tempPath("journal_exposure.journal");
    removeFile(jpath);
    uint64_t fp = configFingerprint(ChiselConfig{});
    Update u{UpdateKind::Announce,
             Prefix(Key128::fromIpv4(0x0A000000), 8), 42};

    UpdateJournal journal(jpath, fp, /*fsync_every=*/100);
    for (int i = 0; i < 3; ++i)
        ASSERT_NE(journal.append(u), 0u);
    journal.sync();
    for (int i = 0; i < 2; ++i)
        ASSERT_NE(journal.append(u), 0u);

    // The batch fsync fails: seqs 4..5 were acknowledged after their
    // per-record flush but never reached a successful sync — the
    // latched error must name exactly that window.
    FaultInjector inj(43);
    inj.arm(FaultPoint::JournalIoError, 1.0, 1);
    {
        ScopedInjector scope(&inj);
        journal.sync();
    }
    EXPECT_FALSE(journal.ioHealthy());
    EXPECT_EQ(journal.lastDurableSeq(), 3u);
    EXPECT_NE(journal.ioError().find("seqs 4..5"), std::string::npos)
        << journal.ioError();
    removeFile(jpath);
}

TEST(PersistJournal, InjectedIoErrorLatchesAndKeepsValidPrefix)
{
    std::string jpath = tempPath("journal_ioerr.journal");
    removeFile(jpath);

    RoutingTable table = generateScaledTable(100, 32, 0x66AB);
    std::vector<Route> routes = table.routes();
    Update u{UpdateKind::Announce, routes[0].prefix,
             routes[0].nextHop};

    uint64_t fp = configFingerprint(ChiselConfig{});
    {
        UpdateJournal journal(jpath, fp);
        ASSERT_TRUE(journal.ioHealthy());
        ASSERT_EQ(journal.append(u), 1u);

        // One injected ENOSPC-style failure: the append reports 0 and
        // the journal latches unhealthy.
        FaultInjector inj(41);
        inj.arm(FaultPoint::JournalIoError, 1.0, 1);
        {
            ScopedInjector scope(&inj);
            EXPECT_EQ(journal.append(u), 0u);
        }
        ASSERT_EQ(inj.fires(FaultPoint::JournalIoError), 1u);
        EXPECT_FALSE(journal.ioHealthy());
        EXPECT_GE(journal.ioErrors(), 1u);
        EXPECT_FALSE(journal.ioError().empty());

        // Latched even with the fault gone: a journal that lost a
        // write refuses every later append so the owner stops acking.
        EXPECT_EQ(journal.append(u), 0u);
        EXPECT_EQ(journal.lastSeq(), 1u);
    }

    // The durable prefix from before the failure is intact.
    JournalScan scan = persist::scanJournal(jpath, fp);
    EXPECT_TRUE(scan.headerOk);
    EXPECT_EQ(scan.lastSeq, 1u);

    removeFile(jpath);
}
#endif // CHISEL_FAULT_INJECTION_ENABLED

// ---- lifecycle records (TTL, Expire, ResizeMark) ---------------------------

TEST(PersistJournal, ExpireTtlAndResizeMarkRoundtrip)
{
    std::string path = tempPath("journal_lifecycle");
    removeFile(path);

    ChiselConfig config;
    uint64_t fp = elasticFingerprint(config);
    ChiselConfig grown = config;
    grown.spillCapacity *= 4;
    grown.minCellCapacity *= 2;
    grown.defaultTtlMs = 900;

    {
        UpdateJournal journal(path, fp);
        Update a;
        a.kind = UpdateKind::Announce;
        a.prefix = Prefix(Key128::fromIpv4(0x0A000000), 24);
        a.nextHop = 7;
        a.ttlMs = 1234;
        EXPECT_EQ(journal.append(a), 1u);

        // A ResizeMark stamps the current position without consuming
        // a sequence number — it is an annotation, not an update.
        journal.appendResizeMark(grown);

        Update e;
        e.kind = UpdateKind::Expire;
        e.prefix = a.prefix;
        e.nextHop = kNoRoute;
        EXPECT_EQ(journal.append(e), 2u);
        journal.sync();
    }

    JournalScan scan = persist::scanJournal(path, fp);
    ASSERT_TRUE(scan.headerOk) << scan.error;
    ASSERT_EQ(scan.records.size(), 3u);
    EXPECT_EQ(scan.lastSeq, 2u);

    EXPECT_EQ(scan.records[0].type, JournalRecord::Type::Update);
    EXPECT_EQ(scan.records[0].update.kind, UpdateKind::Announce);
    EXPECT_EQ(scan.records[0].update.ttlMs, 1234u);

    EXPECT_EQ(scan.records[1].type, JournalRecord::Type::ResizeMark);
    EXPECT_EQ(scan.records[1].seq, 1u);
    EXPECT_TRUE(scan.records[1].resizeConfig == grown);

    EXPECT_EQ(scan.records[2].type, JournalRecord::Type::Update);
    EXPECT_EQ(scan.records[2].update.kind, UpdateKind::Expire);
    EXPECT_EQ(scan.records[2].update.prefix,
              Prefix(Key128::fromIpv4(0x0A000000), 24));

    removeFile(path);
}

TEST(PersistRecovery, VersionMismatchFallsThroughPrevToCold)
{
    // A node upgraded across a snapshot format bump must reject the
    // old image *cleanly* — flagged as a version mismatch, never
    // decoded as garbage — and walk the ladder: .prev next, cold
    // setup plus full replay last.
    std::string jpath = tempPath("recover_version.journal");
    std::string spath = tempPath("recover_version.snapshot");
    removeFile(jpath);
    removeFile(spath);
    removeFile(persist::previousSnapshotPath(spath));

    RoutingTable table = generateScaledTable(400, 32, 0x71AB);
    Process proc(table, jpath);
    UpdateTraceGenerator gen(table, standardTraceProfiles()[0], 32,
                             0x71AC);
    for (const Update &u : gen.generate(30))
        proc.apply(u);
    proc.snapshot(spath);                      // Rotates to .prev later.
    for (const Update &u : gen.generate(30))
        proc.apply(u);
    proc.snapshot(spath);

    // Stamp a foreign format version into the primary image (bytes
    // 4..7; the version predates the CRC so this is not corruption —
    // it must be identified as a version mismatch).
    std::vector<uint8_t> bytes = readFile(spath);
    bytes[4] ^= 0x01;
    writeFile(spath, bytes);

    RecoveryOptions opts;
    opts.journalPath = jpath;
    opts.snapshotPath = spath;
    opts.config = proc.config;
    opts.initialTable = table;
    RecoveryReport report = persist::recoverEngine(opts);

    EXPECT_EQ(report.source, RecoverySource::PreviousSnapshot);
    EXPECT_EQ(report.fallbacks, 1u);
    EXPECT_NE(report.snapshotError.find("version"), std::string::npos)
        << report.snapshotError;
    EXPECT_TRUE(report.auditPassed);
    EXPECT_EQ(stateBytes(*report.engine), stateBytes(*proc.engine));

    // Old-version .prev too: the ladder bottoms out at cold setup
    // and the journal alone rebuilds the full route set.
    std::vector<uint8_t> prev_bytes =
        readFile(persist::previousSnapshotPath(spath));
    prev_bytes[4] ^= 0x01;
    writeFile(persist::previousSnapshotPath(spath), prev_bytes);

    RecoveryReport cold = persist::recoverEngine(opts);
    EXPECT_EQ(cold.source, RecoverySource::ColdSetup);
    EXPECT_EQ(cold.fallbacks, 2u);
    EXPECT_EQ(cold.recordsReplayed, 60u);
    EXPECT_TRUE(cold.auditPassed)
        << "missing=" << cold.auditMissing
        << " mismatched=" << cold.auditMismatched
        << " phantom=" << cold.auditPhantom;

    removeFile(jpath);
    removeFile(spath);
    removeFile(persist::previousSnapshotPath(spath));
}

TEST(PersistRecovery, ReplayCrossesExpireAndResizeMark)
{
    // Warm restart across the full lifecycle: announces arming TTLs,
    // journal-visible Expires, and a mid-stream live resize.  The
    // journal is stamped with the elastic fingerprint, so it remains
    // this engine's history on both sides of the mark, and replay
    // must re-plan its engine at the mark to end under the grown
    // config.
    std::string jpath = tempPath("recover_lifecycle.journal");
    removeFile(jpath);

    RoutingTable table = generateScaledTable(300, 32, 0x72AB);
    ChiselConfig config;
    config.minCellCapacity = 64;
    config.spillCapacity = 8;
    config.defaultTtlMs = 500;

    auto engine = std::make_unique<ChiselEngine>(table, config);
    UpdateJournal journal(jpath, elasticFingerprint(config));

    auto apply = [&](const Update &u) {
        uint64_t seq = journal.append(u);
        UpdateOutcome out = engine->apply(u);
        journal.appendOutcome(seq, out);
    };

    UpdateTraceGenerator gen(table, standardTraceProfiles()[0], 32,
                             0x72AC);
    for (const Update &u : gen.generate(40))
        apply(u);

    // GC retires everything already due at t=600.
    engine->setTtlClock(600);
    std::vector<Prefix> due;
    engine->collectExpired(1u << 20, due);
    ASSERT_GT(due.size(), 0u);
    for (const Prefix &p : due) {
        Update e;
        e.kind = UpdateKind::Expire;
        e.prefix = p;
        e.nextHop = kNoRoute;
        apply(e);
    }

    // Live resize: re-plan under a grown config, mark the journal.
    ResizeLoad load;
    load.routeCount = engine->routeCount();
    load.spillCount = engine->spillCount();
    load.slowPathCount = engine->slowPathCount();
    ChiselConfig grown = planResize(config, load);
    ASSERT_TRUE(elasticCompatible(config, grown));
    engine = engine->rebuilt(grown);
    journal.appendResizeMark(grown);

    for (const Update &u : gen.generate(40))
        apply(u);
    journal.sync();

    RecoveryOptions opts;
    opts.journalPath = jpath;
    opts.config = config;   // Pre-resize: the mark carries the rest.
    opts.initialTable = table;
    RecoveryReport report = persist::recoverEngine(opts);

    EXPECT_EQ(report.source, RecoverySource::ColdSetup);
    EXPECT_TRUE(report.journalHeaderOk) << report.journalError;
    EXPECT_TRUE(report.auditRan);
    EXPECT_TRUE(report.auditPassed)
        << "missing=" << report.auditMissing
        << " mismatched=" << report.auditMismatched
        << " phantom=" << report.auditPhantom;
    EXPECT_TRUE(report.engine->config() == grown);

    // Every expired route is gone, every survivor serves.
    RoutingTable a = report.engine->exportTable();
    RoutingTable b = engine->exportTable();
    ASSERT_EQ(a.size(), b.size());
    for (const Route &r : b.routes())
        EXPECT_EQ(a.find(r.prefix), b.find(r.prefix));
    for (const Prefix &p : due)
        if (!b.contains(p))
            EXPECT_FALSE(report.engine->find(p).has_value());

    removeFile(jpath);
}

TEST(PersistRecovery, TelemetryCountersRecordRecovery)
{
    telemetry::MetricRegistry registry;
    telemetry::EngineTelemetry telemetry(registry);
    telemetry.recordRecovery(/*journal_records_replayed=*/120,
                             /*snapshot_loads=*/1, /*fallbacks=*/2);
    EXPECT_EQ(registry
                  .counter("engine.recovery.journal_records_replayed")
                  .value(),
              120u);
    EXPECT_EQ(registry.counter("engine.recovery.snapshot_loads")
                  .value(),
              1u);
    EXPECT_EQ(registry.counter("engine.recovery.fallbacks").value(),
              2u);
}

} // namespace
} // namespace chisel
