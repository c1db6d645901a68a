/**
 * @file
 * Tests for the fault-isolated sharded dataplane (docs/sharding.md):
 * EpochManager slot lifecycle under many engine instances, front-end
 * partition determinism and Zipf-trace balance, routing correctness
 * against the trie oracle (including broadcast prefixes), per-shard
 * persistence with warm restart, geometry pinning, seeding from a
 * bare engine's journal + snapshot pair and the `.prev` rung's replay
 * cut, the shard-aware RPC shedding matrix, and the /healthz +
 * Prometheus shard surfaces.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "concurrent/concurrent_engine.hh"
#include "concurrent/epoch.hh"
#include "core/engine.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "obs/introspect.hh"
#include "persist/snapshot.hh"
#include "route/synth.hh"
#include "route/table.hh"
#include "route/updates.hh"
#include "shard/partition.hh"
#include "shard/sharded.hh"
#include "telemetry/metrics.hh"
#include "telemetry/prometheus.hh"
#include "trie/binary_trie.hh"
#include "differential.hh"

namespace chisel {
namespace {

using concurrent::ConcurrentChisel;
using concurrent::ConcurrentOptions;
using concurrent::EpochManager;
using differential::readBytes;
using net::CallStatus;
using net::ChiselService;
using net::ClientOptions;
using net::ServiceClient;
using net::ServiceOptions;
using shard::ShardedChisel;
using shard::ShardedOptions;
using shard::ShardSelector;

Prefix
v4Prefix(uint32_t addr, unsigned len)
{
    return Prefix(Key128::fromIpv4(addr), len);
}

Update
announceOf(uint32_t addr, unsigned len, NextHop hop)
{
    Update u;
    u.kind = UpdateKind::Announce;
    u.prefix = v4Prefix(addr, len);
    u.nextHop = hop;
    return u;
}

std::string
tempDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "chisel_shard_" +
                      std::to_string(::getpid()) + "_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

ShardedOptions
smallOptions(size_t shards, unsigned bits)
{
    ShardedOptions o;
    o.shards = shards;
    o.partitionBits = bits;
    o.engine.controlThread = false;
    return o;
}

// ---- EpochManager slot lifecycle -------------------------------------

// One thread touching many managers used to overflow the fixed
// 8-entry thread-local cache: every enter() past the cache claimed a
// FRESH slot and the 256-slot table ran out after a few hundred
// sections.  The growable cache keeps one slot per (thread, manager).
TEST(ShardEpoch, OneThreadManyManagers)
{
    constexpr size_t kManagers = 20;
    std::vector<std::unique_ptr<EpochManager>> managers;
    for (size_t i = 0; i < kManagers; ++i)
        managers.push_back(std::make_unique<EpochManager>());

    for (int round = 0; round < 1000; ++round) {
        for (auto &mgr : managers) {
            size_t slot = mgr->enter();
            mgr->exit(slot);
        }
    }
    for (auto &mgr : managers)
        EXPECT_LE(mgr->slotHighWater(), 2u);
}

// Sequential short-lived threads must recycle one slot, not burn a
// fresh one each: the thread-exit hook returns slots to the
// free-list, and the high-water mark tracks peak CONCURRENT readers.
TEST(ShardEpoch, SlotsRecycleAcrossThreadExit)
{
    EpochManager mgr;
    for (int i = 0; i < 300; ++i) {
        std::thread([&mgr] {
            size_t slot = mgr.enter();
            mgr.exit(slot);
        }).join();
    }
    EXPECT_LE(mgr.slotHighWater(), 4u);
    EXPECT_GE(mgr.freeSlotCount(), 1u);
}

// Managers dying while threads still hold cached slots (the shard
// teardown path): destroying 16 engines and rebuilding them must not
// leak slots or touch freed managers.  ASan watches this test.
TEST(ShardEpoch, ShardSpinUpDown)
{
    RoutingTable table = generateScaledTable(300, 32, /*seed=*/5);
    for (int round = 0; round < 3; ++round) {
        ShardedChisel plane(table, smallOptions(16, 8));
        std::vector<std::thread> readers;
        for (int t = 0; t < 4; ++t) {
            readers.emplace_back([&plane, t] {
                for (uint32_t i = 0; i < 300; ++i)
                    plane.lookup(Key128::fromIpv4(
                        0x0A000000u + uint32_t(t) * 77777u + i * 131u));
            });
        }
        for (std::thread &r : readers)
            r.join();
        EXPECT_TRUE(plane.selfCheck());
    }
}

// ---- Front-end partition ---------------------------------------------

TEST(ShardSelector, DeterministicAcrossInstances)
{
    ShardSelector a(4, 16, ShardSelector::kDefaultSeed);
    ShardSelector b(4, 16, ShardSelector::kDefaultSeed);
    ShardSelector other(4, 16, 0xFEEDFACEULL);
    bool seedMatters = false;
    for (uint32_t i = 0; i < 10000; ++i) {
        Key128 key = Key128::fromIpv4(0x01000000u + i * 2654435761u);
        ASSERT_EQ(a.shardOf(key), b.shardOf(key));
        ASSERT_LT(a.shardOf(key), 4u);
        if (a.shardOf(key) != other.shardOf(key))
            seedMatters = true;
    }
    EXPECT_TRUE(seedMatters);
}

TEST(ShardSelector, PrefixAgreesWithItsKeys)
{
    ShardSelector sel(8, 12, ShardSelector::kDefaultSeed);
    for (uint32_t i = 0; i < 2000; ++i) {
        uint32_t addr = (0x0A000000u + i * 65537u) & 0xFFFFFF00u;
        Prefix p = v4Prefix(addr, 24);
        // Every key under a prefix at least partitionBits long lands
        // on the prefix's shard -- that is what makes single-shard
        // lookups complete.
        ASSERT_EQ(sel.shardOf(p),
                  sel.shardOf(Key128::fromIpv4(addr | 0x37u)));
    }
}

TEST(ShardSelector, ShortPrefixBroadcasts)
{
    ShardSelector sel(4, 8, ShardSelector::kDefaultSeed);
    EXPECT_EQ(sel.shardOf(v4Prefix(0x10000000u, 4)),
              ShardSelector::kBroadcast);
    EXPECT_EQ(sel.shardOf(v4Prefix(0, 0)), ShardSelector::kBroadcast);
    EXPECT_NE(sel.shardOf(v4Prefix(0x10000000u, 8)),
              ShardSelector::kBroadcast);
    EXPECT_TRUE(sel.broadcasts(v4Prefix(0x10000000u, 4)));
}

// A Zipf-weighted lookup trace over a synthetic BGP table must split
// within +/-10% of even -- the containment story collapses if one
// shard silently owns half the traffic.
TEST(ShardSelector, ZipfTraceBalance)
{
    RoutingTable table = generateScaledTable(32768, 32, /*seed=*/7);
    const std::vector<Route> &routes = table.routes();
    ShardSelector sel(4, 16, ShardSelector::kDefaultSeed);

    // Deterministic Zipf(0.6) sampling by rank over the route list.
    std::vector<double> cdf(routes.size());
    double total = 0;
    for (size_t r = 0; r < routes.size(); ++r) {
        total += 1.0 / std::pow(double(r + 1), 0.6);
        cdf[r] = total;
    }
    uint64_t rng = 0x9E3779B97F4A7C15ULL;
    auto nextU01 = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return double(rng >> 11) / double(1ULL << 53);
    };
    std::vector<uint64_t> hits(4, 0);
    size_t broadcast = 0;
    constexpr size_t kDraws = 200000;
    for (size_t i = 0; i < kDraws; ++i) {
        double u = nextU01() * total;
        size_t lo = 0, hi = routes.size() - 1;
        while (lo < hi) {
            size_t mid = (lo + hi) / 2;
            if (cdf[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        size_t s = sel.shardOf(routes[lo].prefix);
        if (s == ShardSelector::kBroadcast)
            ++broadcast;
        else
            ++hits[s];
    }
    double routed = double(kDraws - broadcast);
    ASSERT_GT(routed, double(kDraws) * 0.8);
    for (size_t s = 0; s < 4; ++s) {
        double share = double(hits[s]) / routed;
        EXPECT_GT(share, 0.25 * 0.9)
            << "shard " << s << " share " << share;
        EXPECT_LT(share, 0.25 * 1.1)
            << "shard " << s << " share " << share;
    }
}

// ---- Sharded routing vs the trie oracle ------------------------------

TEST(ShardedBasics, MatchesTrieOracle)
{
    RoutingTable table = generateScaledTable(2000, 32, /*seed=*/3);
    table.add(v4Prefix(0x40000000u, 4), 901);  // broadcast routes
    table.add(v4Prefix(0, 0), 902);

    ShardedChisel plane(table, smallOptions(4, 8));
    BinaryTrie oracle(table);

    for (uint32_t i = 0; i < 4096; ++i) {
        Key128 key =
            Key128::fromIpv4(0x01000000u + i * 2654435761u);
        LookupResult got = plane.lookup(key);
        std::optional<Route> want = oracle.lookup(key, 32);
        ASSERT_EQ(got.found, want.has_value()) << "key " << i;
        if (want) {
            ASSERT_EQ(got.nextHop, want->nextHop) << "key " << i;
            ASSERT_EQ(got.matchedLength, want->prefix.length())
                << "key " << i;
        }
    }
}

TEST(ShardedBasics, UpdatesRouteToOwningShard)
{
    RoutingTable table = generateScaledTable(500, 32, /*seed=*/9);
    ShardedChisel plane(table, smallOptions(4, 8));
    BinaryTrie oracle(table);

    UpdateTraceGenerator gen(table, TraceProfile{}, 32, /*seed=*/21);
    for (int i = 0; i < 400; ++i) {
        Update u = gen.next();
        ShardedChisel::ApplyResult r = plane.apply(u);
        if (r.outcome.status == UpdateStatus::Rejected)
            continue;
        if (u.kind == UpdateKind::Announce)
            oracle.insert(u.prefix, u.nextHop);
        else
            oracle.erase(u.prefix);
        if (!plane.selector().broadcasts(u.prefix))
            ASSERT_EQ(r.shard, plane.shardOf(u.prefix));
    }
    for (uint32_t i = 0; i < 2048; ++i) {
        Key128 key = Key128::fromIpv4(0x0A000000u + i * 40503u);
        LookupResult got = plane.lookup(key);
        std::optional<Route> want = oracle.lookup(key, 32);
        ASSERT_EQ(got.found, want.has_value()) << "key " << i;
        if (want)
            ASSERT_EQ(got.nextHop, want->nextHop) << "key " << i;
    }
    EXPECT_TRUE(plane.selfCheck());
}

TEST(ShardedBasics, BroadcastVisibleFromEveryShard)
{
    RoutingTable table;
    table.add(v4Prefix(0x0A000000u, 8), 100);
    ShardedChisel plane(table, smallOptions(4, 8));

    Update u = announceOf(0x40000000u, 4, 77);  // /4: broadcast
    ShardedChisel::ApplyResult r = plane.apply(u);
    EXPECT_EQ(r.shard, ShardedChisel::kBroadcast);
    EXPECT_EQ(r.parts.size(), plane.shards());

    // Probe every partition input inside 64.0.0.0/4 (the hash only
    // sees the top partitionBits=8 bits, so the /4 spans 16 inputs):
    // the broadcast route must answer from whichever shard owns the
    // key, and the 16 inputs must not all land on one shard.
    std::set<size_t> seen;
    for (uint32_t top = 0x40; top <= 0x4F; ++top) {
        Key128 key = Key128::fromIpv4((top << 24) | 0x00012345u);
        seen.insert(plane.shardOf(key));
        LookupResult got = plane.lookup(key);
        ASSERT_TRUE(got.found) << "top byte " << top;
        EXPECT_EQ(got.nextHop, 77u);
    }
    EXPECT_GE(seen.size(), 2u);

    // Withdrawal broadcasts too.
    Update w;
    w.kind = UpdateKind::Withdraw;
    w.prefix = v4Prefix(0x40000000u, 4);
    EXPECT_NE(plane.apply(w).outcome.status, UpdateStatus::Rejected);
    EXPECT_FALSE(plane.lookup(Key128::fromIpv4(0x41424344u)).found);
}

TEST(ShardedBasics, ShardsAreBuiltFromTheirSlices)
{
    // Each shard's engine is built from its slice of the seed table:
    // its own prefixes plus every broadcast one.  Slicing follows the
    // table's route order, so the same table builds the same plane.
    RoutingTable table = generateScaledTable(3000, 32, /*seed=*/17);
    table.add(v4Prefix(0x40000000u, 4), 901);  // broadcast routes
    table.add(v4Prefix(0x80000000u, 2), 902);
    table.add(v4Prefix(0, 0), 903);
    ShardedChisel plane(table, smallOptions(4, 8));
    ShardedChisel again(table, smallOptions(4, 8));

    std::vector<size_t> slice(plane.shards(), 0);
    size_t broadcasts = 0;
    for (const Route &r : table.routes()) {
        size_t s = plane.shardOf(r.prefix);
        if (s != ShardedChisel::kBroadcast) {
            ++slice[s];
            continue;
        }
        ++broadcasts;
        for (size_t &n : slice)
            ++n;
    }
    ASSERT_GE(broadcasts, 3u);
    for (size_t i = 0; i < plane.shards(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(plane.shardEngine(i).routeCount(), slice[i]);
        EXPECT_EQ(plane.shardEngine(i).snapshotImage(),
                  again.shardEngine(i).snapshotImage());
    }
}

// ---- Per-shard persistence -------------------------------------------

TEST(ShardedPersist, WarmRestartKeepsRoutingStable)
{
    std::string dir = tempDir("warm");
    RoutingTable table = generateScaledTable(500, 32, /*seed=*/11);

    std::vector<Key128> probes;
    for (uint32_t i = 0; i < 1000; ++i)
        probes.push_back(Key128::fromIpv4(0x0A000000u + i * 40503u));

    std::vector<size_t> shardBefore;
    std::vector<LookupResult> before;
    size_t routesBefore = 0;
    {
        ShardedOptions o = smallOptions(4, 8);
        o.persistDir = dir;
        ShardedChisel plane(table, o);
        UpdateTraceGenerator gen(table, TraceProfile{}, 32, 31);
        for (int i = 0; i < 200; ++i)
            plane.apply(gen.next());
        EXPECT_EQ(plane.saveSnapshots(), 4u);
        for (const Key128 &key : probes) {
            shardBefore.push_back(plane.shardOf(key));
            before.push_back(plane.lookup(key));
        }
        routesBefore = plane.routeCount();
    }

    ShardedOptions o = smallOptions(4, 8);
    o.persistDir = dir;
    o.audit = true;
    ShardedChisel plane(table, o);

    ASSERT_EQ(plane.recovery().size(), 4u);
    for (const shard::ShardRecovery &rec : plane.recovery()) {
        // The warm path: every shard restores its own snapshot image
        // -- zero Bloomier setups -- and its audit is clean.
        EXPECT_EQ(rec.source, persist::RecoverySource::Snapshot);
        EXPECT_EQ(rec.fallbacks, 0u);
        EXPECT_TRUE(rec.auditRan);
        EXPECT_TRUE(rec.auditPassed);
    }
    EXPECT_EQ(plane.routeCount(), routesBefore);
    for (size_t i = 0; i < probes.size(); ++i) {
        // No key ever changes shard across a geometry-preserving
        // restart, and no answer changes either.
        ASSERT_EQ(plane.shardOf(probes[i]), shardBefore[i]);
        LookupResult got = plane.lookup(probes[i]);
        ASSERT_EQ(got.found, before[i].found) << "probe " << i;
        if (before[i].found)
            ASSERT_EQ(got.nextHop, before[i].nextHop) << "probe " << i;
    }
    std::filesystem::remove_all(dir);
}

// A warm restart that replays nothing serves the snapshot it loaded:
// re-saving it would write the same bytes and a second mark.  Only a
// restart that replayed records checkpoints.
TEST(ShardedPersist, RestartThatReplayedNothingDoesNotResave)
{
    std::string dir = tempDir("clean");
    RoutingTable table = generateScaledTable(500, 32, /*seed=*/13);
    auto files = [&] {
        std::vector<std::vector<uint8_t>> out;
        for (int i = 0; i < 2; ++i) {
            std::string shard = dir + "/shard-" + std::to_string(i);
            out.push_back(readBytes(shard + "/snapshot.chs"));
            out.push_back(readBytes(shard + "/journal.log"));
        }
        return out;
    };
    ShardedOptions o = smallOptions(2, 8);
    o.persistDir = dir;
    {
        ShardedChisel plane(table, o);
        UpdateTraceGenerator gen(table, TraceProfile{}, 32, 41);
        for (int i = 0; i < 100; ++i)
            plane.apply(gen.next());
        EXPECT_EQ(plane.saveSnapshots(), 2u);
    }
    const std::vector<std::vector<uint8_t>> saved = files();
    {
        ShardedChisel plane(table, o);
        for (const shard::ShardRecovery &rec : plane.recovery()) {
            EXPECT_EQ(rec.source, persist::RecoverySource::Snapshot);
            EXPECT_EQ(rec.recordsReplayed, 0u);
        }
        // Booting wrote nothing: same snapshots, same journal records.
        EXPECT_EQ(files(), saved);
        UpdateTraceGenerator gen(table, TraceProfile{}, 32, 42);
        for (int i = 0; i < 10; ++i)
            plane.apply(gen.next());
    }
    const std::vector<std::vector<uint8_t>> updated = files();
    {
        // The tail is replayed, so each shard that took an update
        // checkpoints: a new snapshot and a SnapshotMark.
        ShardedChisel plane(table, o);
        uint64_t replayed = 0;
        for (const shard::ShardRecovery &rec : plane.recovery())
            replayed += rec.recordsReplayed;
        EXPECT_EQ(replayed, 10u);
        std::vector<std::vector<uint8_t>> after = files();
        for (size_t i = 0; i < after.size(); i += 2) {
            // [i] is a shard's snapshot, [i + 1] its journal.
            bool took_updates = updated[i + 1] != saved[i + 1];
            EXPECT_EQ(after[i] != saved[i], took_updates) << "shard " << i / 2;
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(ShardedPersist, GeometryChangeRefused)
{
    std::string dir = tempDir("geom");
    RoutingTable table;
    table.add(v4Prefix(0x0A000000u, 8), 100);
    {
        ShardedOptions o = smallOptions(4, 8);
        o.persistDir = dir;
        ShardedChisel plane(table, o);
        plane.apply(announceOf(0x0A010000u, 16, 7));
    }
    // Same dir, different shard count / bits / seed: the shards.meta
    // pin refuses rather than silently splitting journals wrong.
    ShardedOptions more = smallOptions(8, 8);
    more.persistDir = dir;
    EXPECT_THROW(ShardedChisel(table, more), ChiselError);

    ShardedOptions bits = smallOptions(4, 12);
    bits.persistDir = dir;
    EXPECT_THROW(ShardedChisel(table, bits), ChiselError);

    ShardedOptions seed = smallOptions(4, 8);
    seed.persistDir = dir;
    seed.hashSeed = 0x1234u;
    EXPECT_THROW(ShardedChisel(table, seed), ChiselError);
    std::filesystem::remove_all(dir);
}

TEST(ShardedPersist, FingerprintBindsShardIdentity)
{
    ChiselConfig config;
    uint64_t a = shard::shardJournalFingerprint(config, 0, 4, 8, 1);
    EXPECT_NE(a, shard::shardJournalFingerprint(config, 1, 4, 8, 1));
    EXPECT_NE(a, shard::shardJournalFingerprint(config, 0, 8, 8, 1));
    EXPECT_NE(a, shard::shardJournalFingerprint(config, 0, 4, 9, 1));
    EXPECT_NE(a, shard::shardJournalFingerprint(config, 0, 4, 8, 2));
    EXPECT_EQ(a, shard::shardJournalFingerprint(config, 0, 4, 8, 1));
    EXPECT_NE(a, 0u);

    // Literal identities: every shard journal on disk carries one of
    // these, so a change here makes existing persist directories
    // unreadable.
    struct Pinned
    {
        size_t shard, count;
        unsigned bits;
        uint64_t seed, fingerprint;
    };
    const uint64_t seed = shard::ShardSelector::kDefaultSeed;
    const Pinned pinned[] = {
        {0, 4, 8, 1, 0xDE29A1FDCB048A5Aull},
        {3, 4, 8, 1, 0xFFDC3FEB77529AFBull},
        {0, 1, 8, seed, 0x561E71EB75F28BBCull},
        {3, 4, 8, seed, 0x75C60D6724BA05A5ull},
        {2, 4, 10, 0xC0FFEE, 0x6FB0599E8E946567ull},
    };
    for (const Pinned &p : pinned)
        EXPECT_EQ(shard::shardJournalFingerprint(config, p.shard, p.count,
                                                 p.bits, p.seed),
                  p.fingerprint)
            << "shard " << p.shard << " of " << p.count;
}

// A history written by a bare engine through the persist library (one
// journal + snapshot pair, no shard lanes) moves onto a one-shard
// plane by library calls alone: recover the pair once and seed the
// plane with the recovered routes.  Later boots read only the plane's
// own directory.
TEST(ShardedPersist, FlatPairSeedsOneShardPlane)
{
    std::string root = tempDir("flat");
    std::filesystem::create_directories(root);
    std::string journalPath = root + "/flat.journal";
    std::string snapshotPath = root + "/flat.snapshot";
    RoutingTable table = generateScaledTable(500, 32, /*seed=*/23);
    ChiselConfig config;

    // The flat layout: snapshot halfway, journal tail after it.
    RoutingTable truth = table;
    {
        ChiselEngine engine(table, config);
        persist::UpdateJournal journal(journalPath,
                                       configFingerprint(config));
        UpdateTraceGenerator gen(table, TraceProfile{}, 32, 29);
        for (int i = 0; i < 300; ++i) {
            if (i == 150) {
                persist::saveSnapshot(snapshotPath, engine,
                                      journal.lastSeq());
                journal.appendSnapshotMark(journal.lastSeq());
            }
            Update u = gen.next();
            uint64_t seq = journal.append(u);
            journal.appendOutcome(seq, engine.apply(u));
            if (u.kind == UpdateKind::Announce)
                truth.add(u.prefix, u.nextHop);
            else
                truth.remove(u.prefix);
        }
        journal.sync();
    }

    persist::RecoveryOptions ro;
    ro.journalPath = journalPath;
    ro.snapshotPath = snapshotPath;
    ro.initialTable = table;
    ro.config = config;
    persist::RecoveryReport flat = persist::recoverEngine(ro);
    EXPECT_EQ(flat.source, persist::RecoverySource::Snapshot);

    ShardedOptions o = smallOptions(1, 8);
    o.persistDir = root + "/plane";
    o.config = flat.engine->config();

    BinaryTrie oracle(truth);
    std::vector<Key128> probes;
    for (const Route &r : truth.routes())
        probes.push_back(r.prefix.bits());   // Prefix boundaries.
    for (uint32_t i = 0; i < 2000; ++i)
        probes.push_back(Key128::fromIpv4(i * 2654435761u));
    auto matchesOracle = [&](const ShardedChisel &plane) {
        for (const Key128 &key : probes) {
            LookupResult got = plane.lookup(key);
            std::optional<Route> want = oracle.lookup(key, 32);
            if (got.found != want.has_value() ||
                (want && (got.nextHop != want->nextHop ||
                          got.matchedLength != want->prefix.length())))
                return false;
        }
        return true;
    };

    {
        ShardedChisel plane(flat.engine->exportTable(), o);
        EXPECT_EQ(plane.routeCount(), truth.size());
        EXPECT_TRUE(matchesOracle(plane));
    }

    // Reopen: the plane's own snapshot lane serves, warm.
    ShardedChisel plane(RoutingTable{}, o);
    ASSERT_EQ(plane.recovery().size(), 1u);
    EXPECT_EQ(plane.recovery()[0].source,
              persist::RecoverySource::Snapshot);
    EXPECT_EQ(plane.recovery()[0].fallbacks, 0u);
    EXPECT_EQ(plane.routeCount(), truth.size());
    EXPECT_TRUE(matchesOracle(plane));
    std::filesystem::remove_all(root);
}

// The dirty-group purge (§4.4.1) is part of a shard's history: the
// engine journals it before it runs, so a restart that replays the
// journal tail across it comes back with the groups purged and the
// same snapshot bytes, not with the dirty groups the purge dropped.
TEST(ShardedPersist, PurgeSurvivesJournalTailRestart)
{
    std::string dir = tempDir("purge");
    std::string state = dir + "/state.snap";
    ShardedOptions o = smallOptions(1, 8);
    o.persistDir = dir;
    o.audit = true;
    {
        ShardedChisel plane(RoutingTable{}, o);
        for (uint32_t i = 0; i < 64; ++i)
            plane.apply(announceOf(0x0A000000u + (i << 8), 24, 1 + i % 4));
        for (uint32_t i = 0; i < 64; ++i) {
            Update w;
            w.kind = UpdateKind::Withdraw;
            w.prefix = v4Prefix(0x0A000000u + (i << 8), 24);
            plane.apply(w);
        }
        ConcurrentChisel &engine = plane.shardEngine(0);
        ASSERT_GT(engine.dirtyCount(), 0u);
        EXPECT_GT(engine.purgeDirtyNow(), 0u);
        ASSERT_EQ(engine.dirtyCount(), 0u);
        // More history after the purge, so it sits mid-tail.
        plane.apply(announceOf(0x0B000000u, 16, 9));
        engine.saveSnapshot(state);
    }

    ShardedChisel plane(RoutingTable{}, o);
    const shard::ShardRecovery &rec = plane.recovery()[0];
    EXPECT_EQ(rec.source, persist::RecoverySource::Snapshot);
    EXPECT_GT(rec.recordsReplayed, 128u);
    EXPECT_TRUE(rec.auditPassed);
    EXPECT_EQ(plane.shardEngine(0).dirtyCount(), 0u);
    // The boot checkpoint re-saved the recovered state: byte for byte
    // the state the plane had before the restart.
    EXPECT_EQ(readBytes(plane.shardDir(0) + "/snapshot.chs"),
              readBytes(state));
    std::filesystem::remove_all(dir);
}

// Two checkpoints with no update between them write two SnapshotMarks
// of one seq, and a purge or a resize between them carries that seq
// too: the rotated `.prev` image lacks it, the primary holds it.
enum class SameSeqChange { Purge, Resize };

/** What a shard serves, as far as its snapshot bytes can tell. */
struct ShardState
{
    std::vector<uint8_t> image;
    size_t dirty = 0;
    ChiselConfig config;
};

ShardState
stateOf(const ConcurrentChisel &engine)
{
    return {engine.snapshotImage(), engine.dirtyCount(), engine.config()};
}

void
expectSameState(const ShardState &got, const ShardState &want)
{
    EXPECT_EQ(got.image, want.image);
    EXPECT_EQ(got.dirty, want.dirty);
    EXPECT_TRUE(got.config == want.config);
}

/**
 * Seed a persistent one-shard plane from @p table, withdraw routes
 * (leaving dirty groups), then checkpoint -> @p change -> checkpoint
 * and close it.  @return the state it served last.
 */
ShardState
checkpointAroundSameSeqChange(const RoutingTable &table,
                              const ShardedOptions &o, SameSeqChange change)
{
    ShardedChisel plane(table, o);
    ConcurrentChisel &engine = plane.shardEngine(0);
    const std::vector<Route> &routes = table.routes();
    for (size_t i = 0; i < routes.size(); i += 5) {
        Update w;
        w.kind = UpdateKind::Withdraw;
        w.prefix = routes[i].prefix;
        plane.apply(w);
    }
    EXPECT_EQ(plane.saveSnapshots(), 1u);
    uint64_t seq = engine.journalSeq();
    if (change == SameSeqChange::Purge) {
        EXPECT_GT(engine.purgeDirtyNow(), 0u);
        EXPECT_EQ(engine.dirtyCount(), 0u);
    } else {
        ChiselConfig grown = engine.config();
        grown.spillCapacity *= 2;
        EXPECT_TRUE(engine.resizeTo(grown));
    }
    EXPECT_EQ(engine.journalSeq(), seq);
    EXPECT_EQ(plane.saveSnapshots(), 1u);
    return stateOf(engine);
}

/**
 * Reopen the history twice.  With the primary intact it replays
 * nothing and re-saves nothing: the primary is the last checkpoint,
 * and its mark the last of its seq.  With the primary corrupt the
 * restart falls back to `.prev` and must replay what happened after
 * it, so the reopened shard is the one that closed; cutting the tail
 * at the last mark of the image's seq would skip the change.
 */
void
expectSameSeqChangeSurvivesRestart(const std::string &name,
                                   SameSeqChange change)
{
    std::string dir = tempDir(name);
    RoutingTable table = generateScaledTable(1000, 32, /*seed=*/37);
    ShardedOptions o = smallOptions(1, 8);
    o.persistDir = dir;
    o.audit = true;
    ShardState before = checkpointAroundSameSeqChange(table, o, change);
    std::string lane = dir + "/shard-0/";
    auto files = [&] {
        return std::vector<std::vector<uint8_t>>{
            readBytes(lane + "snapshot.chs"),
            readBytes(lane + "snapshot.chs.prev"),
            readBytes(lane + "journal.log")};
    };
    const std::vector<std::vector<uint8_t>> saved = files();
    {
        ShardedChisel plane(table, o);
        ASSERT_EQ(plane.recovery().size(), 1u);
        EXPECT_EQ(plane.recovery()[0].source,
                  persist::RecoverySource::Snapshot);
        EXPECT_EQ(plane.recovery()[0].recordsReplayed, 0u);
        EXPECT_TRUE(plane.recovery()[0].auditPassed);
        expectSameState(stateOf(plane.shardEngine(0)), before);
    }
    ASSERT_EQ(files(), saved);

    // Corrupt one payload byte of the primary: its CRC fails.
    std::vector<uint8_t> bytes = saved[0];
    ASSERT_GT(bytes.size(), 64u);
    bytes[bytes.size() / 2] ^= 0xFF;
    std::ofstream(lane + "snapshot.chs", std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char *>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));

    ShardedChisel plane(table, o);
    ASSERT_EQ(plane.recovery().size(), 1u);
    EXPECT_EQ(plane.recovery()[0].source,
              persist::RecoverySource::PreviousSnapshot);
    EXPECT_TRUE(plane.recovery()[0].auditPassed);
    expectSameState(stateOf(plane.shardEngine(0)), before);
    std::filesystem::remove_all(dir);
}

TEST(ShardedPersist, SameSeqPurgeSurvivesRestart)
{
    expectSameSeqChangeSurvivesRestart("same_seq_purge", SameSeqChange::Purge);
}

TEST(ShardedPersist, SameSeqResizeSurvivesRestart)
{
    expectSameSeqChangeSurvivesRestart("same_seq_resize",
                                       SameSeqChange::Resize);
}

// The health ladder's SnapshotRestore rung restores the shard's lane
// snapshot (restoreFromSnapshot on recoverySnapshotPath).  On a
// journaled shard that must not roll the shard back to the snapshot:
// the restore replays the journal tail past the image, so every
// acknowledged update is still served.
TEST(ShardedPersist, RestoreRungReplaysJournalTail)
{
    std::string dir = tempDir("restore");
    RoutingTable table = generateScaledTable(300, 32, /*seed=*/17);
    ShardedOptions o = smallOptions(1, 8);
    o.persistDir = dir;
    ShardedChisel plane(table, o);
    ConcurrentChisel &engine = plane.shardEngine(0);

    RoutingTable truth = table;
    UpdateTraceGenerator gen(table, TraceProfile{}, 32, 41);
    auto applyAcked = [&](int n) {
        for (int i = 0; i < n; ++i) {
            Update u = gen.next();
            ShardedChisel::ApplyResult r = plane.apply(u);
            EXPECT_TRUE(plane.ensureDurable(0, r.seq));
            if (u.kind == UpdateKind::Announce)
                truth.add(u.prefix, u.nextHop);
            else
                truth.remove(u.prefix);
        }
    };
    applyAcked(100);
    ASSERT_EQ(plane.saveSnapshots(), 1u);
    applyAcked(100);
    engine.purgeDirtyNow();
    applyAcked(50);
    engine.saveSnapshot(dir + "/before.snap");

    ASSERT_TRUE(
        engine.restoreFromSnapshot(plane.shardDir(0) + "/snapshot.chs"));
    EXPECT_EQ(engine.routeCount(), truth.size());
    for (const Route &r : truth.routes())
        ASSERT_EQ(engine.find(r.prefix), std::optional<NextHop>(r.nextHop))
            << r.prefix.str();
    engine.saveSnapshot(dir + "/after.snap");
    EXPECT_EQ(readBytes(dir + "/after.snap"), readBytes(dir + "/before.snap"));
    EXPECT_EQ(differential::imagesIdenticalConcurrent(engine), "");
    std::filesystem::remove_all(dir);
}

// saveSnapshots() racing a writer: the snapshot and the SnapshotMark
// that covers it go to disk in one hold of the shard's writer lock,
// so no update lands between them.  A mark written after the lock is
// released can follow updates the image does not hold, and replay,
// which starts past the mark, then skips them.
TEST(ShardedPersist, CheckpointRacingUpdatesRestartsClean)
{
    std::string dir = tempDir("race");
    RoutingTable table = generateScaledTable(300, 32, /*seed=*/19);
    ShardedOptions o = smallOptions(1, 8);
    o.persistDir = dir;
    o.fsyncEvery = 0;
    o.audit = true;
    for (uint64_t round = 0; round < 3; ++round) {
        {
            ShardedChisel plane(table, o);
            std::atomic<bool> done{false};
            std::atomic<size_t> started{0};
            std::atomic<uint64_t> applied{0};
            // The saver checkpoints again once the writer has applied
            // a few updates since its last one: saves taken back to
            // back would starve the writer of the lock (a mutex owes
            // it no turn), while this gap still lands checkpoints
            // between arbitrary updates.
            std::thread saver([&] {
                uint64_t due = 0;
                while (!done.load(std::memory_order_acquire)) {
                    uint64_t now = applied.load(std::memory_order_acquire);
                    if (now < due) {
                        std::this_thread::yield();
                        continue;
                    }
                    due = now + 8;
                    started.fetch_add(1, std::memory_order_release);
                    plane.saveSnapshots();
                }
            });
            // The pauses let the saver take the writer lock, and each
            // 300 updates hold at least one fresh checkpoint, so each
            // round races at least five of them in bounded time.  The
            // round ends on an apply, so its last checkpoint races it.
            UpdateTraceGenerator gen(table, TraceProfile{}, 32, 50 + round);
            size_t seen = 0;
            for (int i = 0; i < 1500; ++i) {
                if (i % 300 == 0) {
                    while (started.load(std::memory_order_acquire) == seen)
                        std::this_thread::yield();
                    seen = started.load(std::memory_order_acquire);
                }
                if (i % 50 == 49)
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(100));
                plane.apply(gen.next());
                applied.fetch_add(1, std::memory_order_release);
            }
            done.store(true, std::memory_order_release);
            saver.join();
        }
        ShardedChisel plane(table, o);
        const shard::ShardRecovery &rec = plane.recovery()[0];
        EXPECT_EQ(rec.source, persist::RecoverySource::Snapshot);
        ASSERT_TRUE(rec.auditPassed) << "restart " << round;
    }
    std::filesystem::remove_all(dir);
}

// A checkpoint whose snapshot cannot be written (here its lane
// directory is gone) must not take the plane down: saveSnapshots()
// counts that shard as not saved, and the shard keeps applying
// updates to its open journal.
TEST(ShardedPersist, FailedCheckpointKeepsServing)
{
    std::string dir = tempDir("failed_checkpoint");
    RoutingTable table = generateScaledTable(300, 32, /*seed=*/23);
    ShardedOptions o = smallOptions(2, 8);
    o.persistDir = dir;
    ShardedChisel plane(table, o);
    ASSERT_EQ(plane.saveSnapshots(), 2u);

    std::filesystem::remove_all(plane.shardDir(1));
    size_t saved = 0;
    EXPECT_NO_THROW(saved = plane.saveSnapshots());
    EXPECT_EQ(saved, 1u);

    uint64_t applied = plane.shardEngine(1).updatesApplied();
    uint64_t seq = plane.shardEngine(1).journalSeq();
    for (uint32_t top = 0; top < 256; ++top) {
        Update u = announceOf((top << 24) | 0x00CD00u, 24, 77);
        if (plane.shardOf(u.prefix) != 1)
            continue;
        EXPECT_NE(plane.apply(u).outcome.status, UpdateStatus::Rejected);
        EXPECT_EQ(plane.lookup(u.prefix.bits()).nextHop, 77u);
    }
    EXPECT_GT(plane.shardEngine(1).updatesApplied(), applied);
    EXPECT_GT(plane.shardEngine(1).journalSeq(), seq);
    std::filesystem::remove_all(dir);
}

// ---- Shard-aware service shedding ------------------------------------

struct ShardedServiceHarness
{
    ShardedServiceHarness()
        : table(generateScaledTable(400, 32, /*seed=*/13)),
          plane(table, smallOptions(4, 8)),
          service(plane, ServiceOptions{})
    {}

    ClientOptions clientOptions(int attempts = 1) const
    {
        ClientOptions c;
        c.port = service.port();
        c.maxAttempts = attempts;
        c.requestTimeoutMs = 2000;
        c.backoffBaseMs = 2;
        c.backoffMaxMs = 20;
        return c;
    }

    /** A key owned by shard @p s.  The partition hashes the top 8
     * bits, so the probe walks the top byte. */
    Key128 keyOn(size_t s) const
    {
        for (uint32_t top = 0; top < 256; ++top) {
            Key128 key = Key128::fromIpv4((top << 24) | 0x00000042u);
            if (plane.shardOf(key) == s)
                return key;
        }
        ADD_FAILURE() << "no key found for shard " << s;
        return Key128{};
    }

    /** An announce update landing on shard @p s (non-broadcast). */
    Update updateOn(size_t s) const
    {
        for (uint32_t top = 0; top < 256; ++top) {
            Update u = announceOf((top << 24) | 0x00AB00u, 24, 9);
            if (plane.shardOf(u.prefix) == s)
                return u;
        }
        ADD_FAILURE() << "no update found for shard " << s;
        return Update{};
    }

    RoutingTable table;
    ShardedChisel plane;
    ChiselService service;
};

TEST(ShardedService, QuarantineContainsToOwnSlice)
{
    ShardedServiceHarness h;
    ASSERT_TRUE(h.service.start());
    ServiceClient client(h.clientOptions());

    h.plane.induceHealth(1, health::HealthState::Quarantined);

    // The quarantined shard's slice fails fast with a retry hint...
    net::LookupCallResult sick = client.lookup({h.keyOn(1)});
    EXPECT_EQ(sick.status, CallStatus::Overloaded);

    // ...while every sibling's slice keeps serving.
    for (size_t s : {size_t(0), size_t(2), size_t(3)}) {
        net::LookupCallResult ok = client.lookup({h.keyOn(s)});
        EXPECT_EQ(ok.status, CallStatus::Ok) << "shard " << s;
    }

    // Same matrix for writes: sick shard sheds, siblings accept.
    EXPECT_EQ(client.update({h.updateOn(1)}).status,
              CallStatus::Overloaded);
    EXPECT_EQ(client.update({h.updateOn(2)}).status, CallStatus::Ok);

    // A broadcast write needs every shard writable.
    EXPECT_EQ(client.update({announceOf(0x40000000u, 4, 5)}).status,
              CallStatus::Overloaded);

    // Clearing the induced state restores the slice.
    h.plane.induceHealth(1, health::HealthState::Healthy);
    EXPECT_EQ(client.lookup({h.keyOn(1)}).status, CallStatus::Ok);
    EXPECT_EQ(h.plane.quarantineEntries(1), 1u);
}

TEST(ShardedService, MixedBatchShedsWhole)
{
    ShardedServiceHarness h;
    ASSERT_TRUE(h.service.start());
    ServiceClient client(h.clientOptions());

    h.plane.induceHealth(1, health::HealthState::Quarantined);

    // A lookup reply carries one status for the whole batch, so one
    // key on a quarantined shard sheds its healthy sibling's key too.
    EXPECT_EQ(client.lookup({h.keyOn(1), h.keyOn(2)}).status,
              CallStatus::Overloaded);
    // Asked alone, the healthy key serves.
    EXPECT_EQ(client.lookup({h.keyOn(2)}).status, CallStatus::Ok);
}

TEST(ShardedService, MajoritySickDegradesThePlane)
{
    ShardedServiceHarness h;
    ASSERT_TRUE(h.service.start());
    ServiceClient client(h.clientOptions());

    // One sick shard: the plane still reports healthy to Ping.
    h.plane.induceHealth(0, health::HealthState::Quarantined);
    net::PingCallResult one = client.ping();
    ASSERT_EQ(one.status, CallStatus::Ok);
    EXPECT_EQ(one.health,
              static_cast<uint8_t>(health::HealthState::Healthy));
    EXPECT_FALSE(h.plane.majoritySick());

    // Three of four: the aggregate goes sick and Ping says so.
    h.plane.induceHealth(1, health::HealthState::Quarantined);
    h.plane.induceHealth(2, health::HealthState::Degraded);
    EXPECT_TRUE(h.plane.majoritySick());
    net::PingCallResult most = client.ping();
    ASSERT_EQ(most.status, CallStatus::Ok);
    EXPECT_NE(most.health,
              static_cast<uint8_t>(health::HealthState::Healthy));
}

// ---- Observability: /healthz + Prometheus labels ---------------------

TEST(ShardedObs, HealthzPerShardBreakdown)
{
    RoutingTable table = generateScaledTable(200, 32, /*seed=*/17);
    ShardedChisel plane(table, smallOptions(4, 8));
    obs::IntrospectionServer server;
    server.attachShards(&plane);

    obs::IntrospectResponse res = server.handle("GET", "/healthz");
    EXPECT_EQ(res.status, 200);
    EXPECT_NE(res.body.find("\"shard_count\": 4"), std::string::npos);
    EXPECT_NE(res.body.find("\"shards\""), std::string::npos);
    EXPECT_NE(res.body.find("\"sick_shards\": 0"), std::string::npos);

    // One quarantined shard: still 200 (containment), breakdown
    // shows the sick slice.
    plane.induceHealth(2, health::HealthState::Quarantined);
    res = server.handle("GET", "/healthz");
    EXPECT_EQ(res.status, 200);
    EXPECT_NE(res.body.find("\"sick_shards\": 1"), std::string::npos);
    EXPECT_NE(res.body.find("\"quarantined\""), std::string::npos);

    // Majority sick: now the probe goes red.
    plane.induceHealth(0, health::HealthState::Degraded);
    plane.induceHealth(1, health::HealthState::Degraded);
    res = server.handle("GET", "/healthz");
    EXPECT_EQ(res.status, 503);
    EXPECT_NE(res.body.find("\"sick_shards\": 3"), std::string::npos);

    server.attachShards(nullptr);
}

TEST(ShardedObs, PrometheusShardLabels)
{
    RoutingTable table = generateScaledTable(200, 32, /*seed=*/19);
    ShardedChisel plane(table, smallOptions(4, 8));
    telemetry::MetricRegistry registry;
    plane.publish(registry);

    std::string text = telemetry::toPrometheus(registry);
    for (size_t s = 0; s < 4; ++s) {
        std::string series =
            "shard_routes{shard=\"" + std::to_string(s) + "\"} ";
        EXPECT_NE(text.find(series), std::string::npos)
            << "missing " << series << "\n" << text;
    }
    EXPECT_NE(text.find("shard_state{shard=\"0\"}"),
              std::string::npos);

    // All labeled variants share ONE family header.
    size_t first = text.find("# TYPE shard_routes gauge");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(text.find("# TYPE shard_routes gauge", first + 1),
              std::string::npos);
}

} // anonymous namespace
} // namespace chisel
