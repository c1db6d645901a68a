/**
 * @file
 * Concurrency tests (docs/concurrency.md): the synchronization
 * primitives (epoch manager, relaxed counters), the per-thread
 * fault-injector streams, the thread-safe telemetry and logging
 * layers, the scrub path, the health events the writer counts, the
 * maintenance thread's start rule, every way an image pair is
 * installed, and — the centerpiece — a
 * 4-reader / 1-writer stress run
 * in which every tagged lookup is validated against a trie oracle
 * replayed to the exact generation that served it.
 *
 * Thread count: set CHISEL_THREADS to override the default 4 reader
 * threads (the TSan CI leg runs this binary with CHISEL_THREADS=4).
 * Every test uses fixed seeds, so failures replay exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "concurrent/concurrent_engine.hh"
#include "concurrent/epoch.hh"
#include "concurrent/relaxed.hh"
#include "core/engine.hh"
#include "core/resize.hh"
#include "fault/fault.hh"
#include "persist/snapshot.hh"
#include "route/synth.hh"
#include "route/updates.hh"
#include "telemetry/metrics.hh"
#include "trie/binary_trie.hh"
#include "differential.hh"

namespace chisel {
namespace {

using concurrent::ConcurrentChisel;
using concurrent::ConcurrentOptions;
using concurrent::EpochManager;
using concurrent::RelaxedU64;
using concurrent::TaggedLookup;

unsigned
readerThreads()
{
    const char *env = std::getenv("CHISEL_THREADS");
    if (env != nullptr) {
        int n = std::atoi(env);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    return 4;
}

// ---- EpochManager ----------------------------------------------------------

TEST(Epoch, SynchronizeWaitsForActiveReader)
{
    EpochManager mgr;
    std::atomic<bool> readerIn{false};
    std::atomic<bool> readerMayLeave{false};
    std::atomic<bool> syncDone{false};

    std::thread reader([&] {
        EpochManager::ReadGuard guard(mgr);
        readerIn.store(true, std::memory_order_release);
        while (!readerMayLeave.load(std::memory_order_acquire))
            std::this_thread::yield();
    });

    while (!readerIn.load(std::memory_order_acquire))
        std::this_thread::yield();

    std::thread writer([&] {
        mgr.synchronize();
        syncDone.store(true, std::memory_order_release);
    });

    // The reader is parked inside its critical section, so the grace
    // period cannot have elapsed yet.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(syncDone.load(std::memory_order_acquire));

    readerMayLeave.store(true, std::memory_order_release);
    reader.join();
    writer.join();
    EXPECT_TRUE(syncDone.load(std::memory_order_acquire));
}

TEST(Epoch, SynchronizeIgnoresQuiescentThreads)
{
    EpochManager mgr;
    {
        EpochManager::ReadGuard guard(mgr);
    }
    // No reader active: synchronize must return immediately.
    mgr.synchronize();
    mgr.synchronize();
    EXPECT_GE(mgr.epoch(), 3u);
}

// ---- Relaxed counters ------------------------------------------------------

TEST(RelaxedCounters, ConcurrentIncrementsAllLand)
{
    RelaxedU64 counter;
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kPer = 50000;

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (uint64_t i = 0; i < kPer; ++i)
                ++counter;
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(counter.load(), kThreads * kPer);
}

// ---- Telemetry under threads -----------------------------------------------

TEST(TelemetryConcurrency, CountersAndHistogramsSumExactly)
{
    telemetry::MetricRegistry reg;
    telemetry::Counter &c = reg.counter("stress.count");
    telemetry::Pow2Histogram &h = reg.histogram("stress.hist");

    constexpr unsigned kThreads = 6;
    constexpr uint64_t kPer = 20000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (uint64_t i = 0; i < kPer; ++i) {
                c.inc();
                h.sample(t * kPer + i);
            }
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(c.value(), kThreads * kPer);
    EXPECT_EQ(h.count(), kThreads * kPer);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), kThreads * kPer - 1);
    // The export path reads a consistent-enough snapshot.
    EXPECT_NE(reg.toJson(false).find("stress.count"), std::string::npos);
}

// ---- Logging under threads -------------------------------------------------

TEST(LoggingConcurrency, WarnOnceAndSinkSwapAreSafe)
{
    static std::atomic<uint64_t> emitted{0};
    emitted.store(0);
    LogSink counting = [](LogLevel, const std::string &) {
        emitted.fetch_add(1, std::memory_order_relaxed);
    };
    LogSink prev = setLogSink(counting);

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 2000; ++i)
                warnOnce("concurrent warnOnce probe");
        });
    }
    // One thread races sink swaps against the warners.
    threads.emplace_back([&] {
        for (int i = 0; i < 500; ++i) {
            setLogSink(counting);
            std::this_thread::yield();
        }
    });
    for (auto &th : threads)
        th.join();

    setLogSink(prev);
    // One call site => at most one emission no matter the thread count.
    EXPECT_LE(emitted.load(), 1u);
}

// ---- FaultInjector per-thread streams --------------------------------------

#if CHISEL_FAULT_INJECTION_ENABLED

/** Poll pattern of @p polls decisions on the calling thread. */
std::vector<bool>
pollPattern(fault::FaultInjector &inj, size_t polls)
{
    std::vector<bool> out;
    out.reserve(polls);
    for (size_t i = 0; i < polls; ++i)
        out.push_back(inj.shouldFire(fault::FaultPoint::TcamOverflow));
    return out;
}

TEST(FaultInjectorThreads, PerThreadStreamsAreReproducible)
{
    constexpr uint64_t kSeed = 321;
    constexpr size_t kPolls = 2000;
    constexpr unsigned kThreads = 3;

    auto run = [&] {
        fault::FaultInjector inj(kSeed);
        inj.arm(fault::FaultPoint::TcamOverflow, 0.25);
        std::vector<std::vector<bool>> patterns(kThreads);
        // Threads start in order and run concurrently; each records
        // its own stream.  Ordinal assignment races, so compare the
        // *set* of streams, which is determined by seed alone.
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                patterns[t] = pollPattern(inj, kPolls);
            });
        }
        for (auto &th : threads)
            th.join();
        std::sort(patterns.begin(), patterns.end());
        return patterns;
    };

    EXPECT_EQ(run(), run());
}

TEST(FaultInjectorThreads, FirstStreamMatchesLegacySingleThread)
{
    constexpr uint64_t kSeed = 99;
    constexpr size_t kPolls = 1000;

    fault::FaultInjector solo(kSeed);
    solo.arm(fault::FaultPoint::TcamOverflow, 0.5);
    std::vector<bool> reference = pollPattern(solo, kPolls);

    // The first thread to touch a shared injector draws ordinal 0 and
    // must reproduce the legacy single-threaded stream exactly.
    fault::FaultInjector shared(kSeed);
    shared.arm(fault::FaultPoint::TcamOverflow, 0.5);
    EXPECT_EQ(shared.threadOrdinal(), 0u);
    EXPECT_EQ(pollPattern(shared, kPolls), reference);

    std::thread other([&] {
        EXPECT_EQ(shared.threadOrdinal(), 1u);
    });
    other.join();
}

TEST(FaultInjectorThreads, CountersTallyAcrossThreads)
{
    fault::FaultInjector inj(5);
    inj.arm(fault::FaultPoint::TcamOverflow, 1.0);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t) {
        threads.emplace_back(
            [&] { pollPattern(inj, 1000); });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(inj.polls(fault::FaultPoint::TcamOverflow), 4000u);
    EXPECT_EQ(inj.fires(fault::FaultPoint::TcamOverflow), 4000u);
}

#endif // CHISEL_FAULT_INJECTION_ENABLED

// ---- Scrub path ------------------------------------------------------------

TEST(Scrub, CleanEngineScrubsClean)
{
    RoutingTable table = generateScaledTable(2000, 32, 11);
    ChiselEngine e(table);
    ScrubReport r = e.scrub();
    EXPECT_GT(r.wordsChecked, 0u);
    EXPECT_EQ(r.errorsFound, 0u);
    EXPECT_EQ(r.cellsRecovered, 0u);
    EXPECT_TRUE(e.selfCheck());
}

#if CHISEL_FAULT_INJECTION_ENABLED

TEST(Scrub, DetectsAndRecoversInjectedBitFlips)
{
    RoutingTable table = generateScaledTable(2000, 32, 12);
    ChiselEngine e(table);
    BinaryTrie oracle(table);

    // Flip bits in all three on-chip tables via the injector, firing
    // on the next update poll.
    // Each point is polled once per update, so two faulty updates
    // fire each armed point twice — six corrupted bits in total.
    fault::FaultInjector inj(77);
    inj.arm(fault::FaultPoint::BitFlipIndex, 1.0, 2);
    inj.arm(fault::FaultPoint::BitFlipFilter, 1.0, 2);
    inj.arm(fault::FaultPoint::BitFlipBitVector, 1.0, 2);
    {
        fault::ScopedInjector scope(&inj);
        e.announce(table.routes()[0].prefix, 4242);
        e.announce(table.routes()[1].prefix, 4243);
    }
    EXPECT_EQ(inj.totalFires(), 6u);

    ScrubReport r = e.scrub();
    // A flip can land on a word whose parity a lookup never checks
    // (an unused slot), but six independent flips essentially always
    // leave at least one detectable error; recovery rewrites all.
    EXPECT_GT(r.errorsFound, 0u);
    EXPECT_GT(r.cellsRecovered, 0u);

    // After the scrub the engine serves exact oracle answers again.
    oracle.insert(table.routes()[0].prefix, 4242);
    oracle.insert(table.routes()[1].prefix, 4243);
    auto keys = generateLookupKeys(table, 3000, 32, 0.7, 13);
    for (const auto &key : keys) {
        auto a = oracle.lookup(key, 32);
        auto b = e.lookup(key);
        ASSERT_EQ(a.has_value(), b.found);
        if (a)
            EXPECT_EQ(a->nextHop, b.nextHop);
    }

    // And a second pass finds nothing left to fix.
    ScrubReport clean = e.scrub();
    EXPECT_EQ(clean.errorsFound, 0u);
}

#endif // CHISEL_FAULT_INJECTION_ENABLED

// ---- ConcurrentChisel basics -----------------------------------------------

ConcurrentOptions
noThreadsOptions()
{
    ConcurrentOptions o;
    o.controlThread = false;
    return o;
}

TEST(ConcurrentChisel, MatchesOracleSingleThreaded)
{
    RoutingTable table = generateScaledTable(3000, 32, 21);
    ConcurrentChisel c(table, {}, noThreadsOptions());
    BinaryTrie oracle(table);

    EXPECT_EQ(c.routeCount(), table.size());
    EXPECT_EQ(c.generation(), 0u);

    auto keys = generateLookupKeys(table, 5000, 32, 0.7, 22);
    for (const auto &key : keys) {
        auto a = oracle.lookup(key, 32);
        TaggedLookup b = c.lookupTagged(key);
        EXPECT_EQ(b.generation, 0u);
        ASSERT_EQ(a.has_value(), b.result.found);
        if (a)
            EXPECT_EQ(a->nextHop, b.result.nextHop);
    }

    // Updates bump the generation and land in both images.
    UpdateTraceGenerator gen(table, TraceProfile{}, 32, 23);
    for (int i = 0; i < 200; ++i)
        c.apply(gen.next());
    EXPECT_EQ(c.generation(), 200u);
    EXPECT_EQ(c.updatesApplied(), 200u);
    EXPECT_TRUE(c.selfCheck());
}

TEST(ConcurrentChisel, SnapshotRoundTripAndResetup)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
                   ("chisel_concurrent_snap_test_" +
                    std::to_string(::getpid()));
    fs::create_directories(dir);
    std::string path = (dir / "engine.snap").string();

    RoutingTable table = generateScaledTable(1500, 32, 41);
    ConcurrentChisel c(table, {}, noThreadsOptions());
    UpdateTraceGenerator gen(table, TraceProfile{}, 32, 42);
    for (int i = 0; i < 100; ++i)
        c.apply(gen.next());

    EXPECT_GT(c.saveSnapshot(path), 0u);

    // Restore into a second instance; lookups must agree everywhere.
    ConcurrentChisel restored(RoutingTable{}, {}, noThreadsOptions());
    ASSERT_TRUE(restored.restoreFromSnapshot(path));
    EXPECT_EQ(restored.routeCount(), c.routeCount());

    auto keys = generateLookupKeys(table, 2000, 32, 0.7, 43);
    for (const auto &key : keys) {
        LookupResult a = c.lookup(key);
        LookupResult b = restored.lookup(key);
        ASSERT_EQ(a.found, b.found);
        if (a.found)
            EXPECT_EQ(a.nextHop, b.nextHop);
    }

    // A resetup rebuilds both images without changing the route set.
    size_t before = c.routeCount();
    c.resetup();
    EXPECT_EQ(c.routeCount(), before);
    EXPECT_TRUE(c.selfCheck());

    // A garbage path leaves the serving state untouched.
    EXPECT_FALSE(
        restored.restoreFromSnapshot((dir / "missing.snap").string()));
    EXPECT_EQ(restored.routeCount(), before);

    fs::remove_all(dir);
}

// ---- One install path ------------------------------------------------------

void
removeSnapshot(const std::string &path)
{
    std::filesystem::remove(path);
    std::filesystem::remove(persist::previousSnapshotPath(path));
}

TEST(ConcurrentChisel, EveryWayInServesTwinImages)
{
    // Each way a ConcurrentChisel gets its images builds or decodes
    // one engine and clones the twin: afterwards both images save the
    // same bytes, and lookups answer like the trie oracle.
    RoutingTable table = generateScaledTable(1500, 32, 61);
    ChiselConfig config;
    BinaryTrie oracle(table);
    std::vector<Key128> keys =
        generateLookupKeys(table, 2000, 32, 0.7, 62);
    UpdateTraceGenerator gen(table, TraceProfile{}, 32, 63);

    auto check = [&](ConcurrentChisel &c, const char *way) {
        SCOPED_TRACE(way);
        EXPECT_EQ(differential::imagesIdenticalConcurrent(c), "");
        EXPECT_TRUE(c.selfCheck());
        for (const Key128 &key : keys) {
            std::optional<Route> want = oracle.lookup(key, 32);
            LookupResult got = c.lookup(key);
            ASSERT_EQ(want.has_value(), got.found);
            if (want) {
                EXPECT_EQ(got.nextHop, want->nextHop);
                EXPECT_EQ(got.matchedLength, want->prefix.length());
            }
        }
    };
    auto advance = [&](ConcurrentChisel &c) {
        for (int i = 0; i < 100; ++i) {
            Update u = gen.next();
            c.apply(u);
            if (u.kind == UpdateKind::Announce)
                oracle.insert(u.prefix, u.nextHop);
            else
                oracle.erase(u.prefix);
        }
    };

    ConcurrentChisel from_table(table, config, noThreadsOptions());
    check(from_table, "constructed from a table");

    ConcurrentChisel c(std::make_unique<ChiselEngine>(table, config),
                       noThreadsOptions());
    check(c, "constructed from an engine");

    advance(c);
    c.resetup();
    check(c, "resetup");

    advance(c);
    ChiselConfig grown = config;
    grown.spillCapacity *= 2;
    grown.minCellCapacity *= 2;
    ASSERT_TRUE(c.resizeTo(grown));
    EXPECT_TRUE(c.config() == grown);
    check(c, "resizeTo");

    // Restores into instances built under the pre-resize config adopt
    // the snapshot's elastic plan.  The in-memory image is the file's
    // bytes exactly.
    advance(c);
    std::string path = differential::scratchPath("every_way.snap");
    ASSERT_GT(c.saveSnapshot(path), 0u);
    std::vector<uint8_t> image = c.snapshotImage();
    EXPECT_EQ(image, differential::readBytes(path));

    ConcurrentChisel from_file(RoutingTable{}, config, noThreadsOptions());
    ASSERT_TRUE(from_file.restoreFromSnapshot(path));
    EXPECT_TRUE(from_file.config() == grown);
    check(from_file, "restoreFromSnapshot");

    ConcurrentChisel from_bytes(RoutingTable{}, config,
                                noThreadsOptions());
    ASSERT_TRUE(from_bytes.restoreFromImage(image));
    EXPECT_TRUE(from_bytes.config() == grown);
    check(from_bytes, "restoreFromImage");

    // A corrupt image is refused with the serving state untouched.
    image[image.size() / 2] ^= 0x10;
    EXPECT_FALSE(from_bytes.restoreFromImage(image));
    check(from_bytes, "refused restoreFromImage");

    removeSnapshot(path);
}

TEST(ConcurrentChisel, RestoreAndResizeShareTheConfigSafely)
{
    // A resize replaces the config under the writer lock while another
    // thread restores a snapshot (checked against that config) and
    // reads config(): under TSan the two threads must not race.
    RoutingTable table = generateScaledTable(300, 32, 71);
    ChiselConfig small;
    ChiselConfig big = small;
    big.spillCapacity *= 2;
    big.minCellCapacity *= 2;
    ConcurrentChisel c(table, small, noThreadsOptions());
    std::string path = differential::scratchPath("config_race.snap");
    ASSERT_GT(c.saveSnapshot(path), 0u);

    constexpr int kRounds = 20;
    std::thread resizer([&] {
        for (int i = 0; i < kRounds; ++i)
            EXPECT_TRUE(c.resizeTo(i % 2 == 0 ? big : small));
    });
    for (int i = 0; i < kRounds; ++i) {
        EXPECT_TRUE(c.restoreFromSnapshot(path));
        ChiselConfig now = c.config();
        EXPECT_TRUE(elasticCompatible(now, small));
    }
    resizer.join();

    EXPECT_EQ(c.routeCount(), table.size());
    EXPECT_TRUE(c.selfCheck());
    removeSnapshot(path);
}

TEST(ConcurrentChisel, BackgroundScrubberRuns)
{
    RoutingTable table = generateScaledTable(500, 32, 51);
    ConcurrentOptions opts;
    opts.scrubInterval = std::chrono::milliseconds(1);
    ConcurrentChisel c(table, {}, opts);

    auto keys = generateLookupKeys(table, 200, 32, 0.7, 52);
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (c.scrubPasses() < 3 &&
           std::chrono::steady_clock::now() < deadline) {
        for (const auto &key : keys)
            c.lookup(key);
    }
    EXPECT_GE(c.scrubPasses(), 3u);
    EXPECT_TRUE(c.selfCheck());
}

// ---- Health events ---------------------------------------------------------

/**
 * A 4,000-route engine that runs no background thread and applies
 * every update under its own fault injector.
 */
struct FlipRig
{
    explicit FlipRig(uint64_t seed)
        : table(generateScaledTable(4000, 32, seed)), inj(seed),
          gen(table, TraceProfile{}, 32, seed + 1)
    {
        ConcurrentOptions o = noThreadsOptions();
        o.faultInjector = &inj;
        engine = std::make_unique<ConcurrentChisel>(table, ChiselConfig{}, o);
    }

    /**
     * One soft error: a BitFlipIndex fires on the next apply, in the
     * image applied first, and a scrub repairs it.  @return the cells
     * the scrub recovered.
     */
    uint64_t
    flipAndScrub()
    {
        inj.arm(fault::FaultPoint::BitFlipIndex, 1.0,
                inj.fires(fault::FaultPoint::BitFlipIndex) + 1);
        engine->apply(gen.next());
        return engine->scrubNow().cellsRecovered;
    }

    RoutingTable table;
    fault::FaultInjector inj;
    UpdateTraceGenerator gen;
    std::unique_ptr<ConcurrentChisel> engine;
};

bool
sheds(health::HealthState s)
{
    return s == health::HealthState::Degraded ||
           s == health::HealthState::Quarantined;
}

// One repaired soft error is one critical sample.  A sample that read
// counters back from whichever image is idle, when each image kept its
// own, counted it again after every odd number of flips and flapped
// the shard into Degraded, where the RPC front end sheds it; the
// writer now tallies each event once.
TEST(HealthEvents, RepairedFlipDoesNotFlap)
{
    if (!CHISEL_FAULT_INJECTION_ENABLED)
        GTEST_SKIP() << "fault injection compiled out";
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        FlipRig rig(seed);
        ASSERT_GT(rig.flipAndScrub(), 0u) << "seed " << seed;
        Rng rng(seed);
        size_t sick = 0;
        for (int round = 0; round < 200; ++round) {
            for (uint64_t n = 1 + rng.nextBelow(3); n > 0; --n)
                rig.engine->apply(rig.gen.next());
            sick += sheds(rig.engine->healthTick());
        }
        EXPECT_EQ(sick, 0u) << "seed " << seed;
    }
}

// robustness() reads the one control state, so a repaired flip reads
// the same whichever image is idle.
TEST(HealthEvents, RobustnessIsStableAcrossFlips)
{
    if (!CHISEL_FAULT_INJECTION_ENABLED)
        GTEST_SKIP() << "fault injection compiled out";
    FlipRig rig(1);
    ASSERT_GT(rig.flipAndScrub(), 0u);
    uint64_t before = rig.engine->robustness().parityRecoveries;
    rig.engine->apply(rig.gen.next());
    EXPECT_GT(before, 0u);
    EXPECT_EQ(rig.engine->robustness().parityRecoveries, before);
}

// The tally must not undercount: a fresh soft error in every sample
// period is critical every time, so the monitor degrades and scrubs.
TEST(HealthEvents, FreshFlipsEscalateToDegraded)
{
    if (!CHISEL_FAULT_INJECTION_ENABLED)
        GTEST_SKIP() << "fault injection compiled out";
    FlipRig rig(2);
    for (unsigned round = 0; round < health::kDegradeAfter; ++round) {
        ASSERT_GT(rig.flipAndScrub(), 0u) << "round " << round;
        rig.engine->healthTick();
    }
    EXPECT_EQ(rig.engine->healthState(), health::HealthState::Degraded);
    EXPECT_EQ(rig.engine->monitor().actionsTaken(
                  health::RecoveryAction::Scrub),
              1u);
}

/** Threads in this process, one /proc/self/task entry each. */
size_t
processThreads()
{
    namespace fs = std::filesystem;
    return static_cast<size_t>(
        std::distance(fs::directory_iterator("/proc/self/task"),
                      fs::directory_iterator()));
}

TEST(ConcurrentChisel, OneMaintenanceThreadOnlyWhenATimerIsSet)
{
    RoutingTable table = generateScaledTable(500, 32, 53);
    // A thread an earlier test joined can linger in /proc briefly.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const size_t before = processThreads();
    {
        // Default options set no timer: nothing runs in the background.
        ConcurrentChisel idle(table);
        EXPECT_EQ(processThreads(), before);
    }

    // Health, GC and scrub together share one maintenance thread.
    ConcurrentOptions opts;
    opts.healthInterval = std::chrono::milliseconds(5);
    opts.gcInterval = std::chrono::milliseconds(5);
    opts.scrubInterval = std::chrono::milliseconds(5);
    ConcurrentChisel timed(table, {}, opts);
    EXPECT_EQ(processThreads(), before + 1);

    // The thread sleeps between deadlines but still runs them.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (timed.scrubPasses() < 2 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(timed.scrubPasses(), 2u);
}

// ---- The stress test -------------------------------------------------------

/** One recorded reader observation. */
struct Sample
{
    uint32_t keyIndex;
    uint64_t generation;
    bool found;
    NextHop nextHop;
};

/**
 * N readers stream tagged lookups while one writer replays a
 * synthetic BGP trace; every recorded sample is then checked against
 * a trie oracle replayed to exactly the generation that served it.
 * This is the "no lookup is ever inconsistent with some published
 * table version" contract — readers may trail the writer, but can
 * never see a torn or intermediate state.
 */
TEST(ConcurrentStress, ReadersAlwaysSeeSomePublishedGeneration)
{
    constexpr size_t kRoutes = 2000;
    constexpr size_t kUpdates = 800;
    constexpr size_t kSamplesPerReader = 10000;

    RoutingTable table = generateScaledTable(kRoutes, 32, 61);
    std::vector<Key128> keys =
        generateLookupKeys(table, 2048, 32, 0.7, 62);
    UpdateTraceGenerator gen(table, TraceProfile{}, 32, 63);
    std::vector<Update> updates = gen.generate(kUpdates);

    ConcurrentChisel c(table, {}, noThreadsOptions());

    const unsigned nReaders = readerThreads();
    std::atomic<bool> writerDone{false};
    std::vector<std::vector<Sample>> samples(nReaders);

    std::vector<std::thread> readers;
    for (unsigned t = 0; t < nReaders; ++t) {
        readers.emplace_back([&, t] {
            std::vector<Sample> &mine = samples[t];
            mine.reserve(kSamplesPerReader);
            uint64_t i = t;   // Stagger the key walk per reader.
            while (!writerDone.load(std::memory_order_acquire) ||
                   mine.size() < 1000) {
                uint32_t ki =
                    static_cast<uint32_t>(i++ % keys.size());
                TaggedLookup r = c.lookupTagged(keys[ki]);
                if (mine.size() < kSamplesPerReader) {
                    mine.push_back({ki, r.generation, r.result.found,
                                    r.result.nextHop});
                } else {
                    // Full: keep the read side hot but stop hogging
                    // the cores (single-core CI would otherwise
                    // starve the writer).
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
                }
                // Let the writer run between lookups when cores are
                // scarce; a no-op when there are cores to spare.
                std::this_thread::yield();
            }
        });
    }

    size_t applied = 0;
    for (const Update &u : updates) {
        c.apply(u);
        // Pace the writer so readers demonstrably overlap many table
        // versions even on a single-core CI runner; a real update
        // feed is orders of magnitude sparser than lookups anyway.
        if (++applied % 10 == 0)
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        std::this_thread::yield();
    }
    writerDone.store(true, std::memory_order_release);
    for (auto &r : readers)
        r.join();

    EXPECT_EQ(c.generation(), kUpdates);

    // Bucket every sample by the generation that served it.
    std::vector<std::vector<Sample>> byGen(kUpdates + 1);
    size_t total = 0;
    for (const auto &vec : samples) {
        for (const Sample &s : vec) {
            ASSERT_LE(s.generation, kUpdates);
            byGen[s.generation].push_back(s);
            ++total;
        }
    }
    ASSERT_GT(total, 0u);

    // Replay the oracle one generation at a time and validate the
    // samples tagged with it.  Generation g == initial table plus the
    // first g updates.
    BinaryTrie oracle(table);
    size_t checked = 0, generationsObserved = 0;
    for (uint64_t g = 0; g <= kUpdates; ++g) {
        if (g > 0) {
            const Update &u = updates[g - 1];
            if (u.kind == UpdateKind::Announce)
                oracle.insert(u.prefix, u.nextHop);
            else
                oracle.erase(u.prefix);
        }
        if (byGen[g].empty())
            continue;
        ++generationsObserved;
        for (const Sample &s : byGen[g]) {
            auto expect = oracle.lookup(keys[s.keyIndex], 32);
            ASSERT_EQ(expect.has_value(), s.found)
                << "generation " << g << " key " << s.keyIndex;
            if (expect) {
                ASSERT_EQ(expect->nextHop, s.nextHop)
                    << "generation " << g << " key " << s.keyIndex;
            }
            ++checked;
        }
    }
    EXPECT_EQ(checked, total);
    // Readers overlapped the writer across many table versions, not
    // just the endpoints — otherwise this test proved nothing.
    EXPECT_GT(generationsObserved, 2u);

    EXPECT_TRUE(c.selfCheck());
}

/**
 * Readers against soft errors: the writer's updates run with every
 * BitFlip point armed through ConcurrentOptions::faultInjector, so
 * flips land in the images readers use.  A reader whose probe fails
 * parity leaves its epoch section and answers under the writer lock
 * through the engine's shadow fallback, tagged with the update count
 * read under that lock; every tagged answer must still be the
 * oracle's for its generation.  Finishing at all shows the soft path
 * cannot deadlock against a writer waiting out a grace period.
 */
TEST(ConcurrentStress, SoftErrorReadersGetTheTaggedGenerationsAnswer)
{
    if (!CHISEL_FAULT_INJECTION_ENABLED)
        GTEST_SKIP() << "fault injection compiled out";
    constexpr size_t kRoutes = 300;
    constexpr size_t kUpdates = 600;

    RoutingTable table = generateScaledTable(kRoutes, 32, 71);
    std::vector<Key128> keys =
        generateLookupKeys(table, 2048, 32, 0.8, 72);
    std::vector<Update> updates =
        UpdateTraceGenerator(table, TraceProfile{}, 32, 73)
            .generate(kUpdates);

    fault::FaultInjector inj(74);
    for (fault::FaultPoint p :
         {fault::FaultPoint::BitFlipIndex, fault::FaultPoint::BitFlipFilter,
          fault::FaultPoint::BitFlipBitVector,
          fault::FaultPoint::BitFlipResult})
        inj.arm(p, 0.1);
    ConcurrentOptions opts = noThreadsOptions();
    opts.faultInjector = &inj;
    ConcurrentChisel c(table, {}, opts);

    const unsigned nReaders = readerThreads();
    std::atomic<bool> writerDone{false};
    std::vector<std::vector<Sample>> samples(nReaders);
    std::vector<std::thread> readers;
    for (unsigned t = 0; t < nReaders; ++t) {
        readers.emplace_back([&, t] {
            std::vector<Sample> &mine = samples[t];
            uint64_t i = t;
            while (!writerDone.load(std::memory_order_acquire)) {
                uint32_t ki = static_cast<uint32_t>(i++ % keys.size());
                TaggedLookup r = c.lookupTagged(keys[ki]);
                if (mine.size() < 20000)
                    mine.push_back({ki, r.generation, r.result.found,
                                    r.result.nextHop});
                std::this_thread::yield();
            }
        });
    }

    for (size_t n = 0; n < updates.size(); ++n) {
        c.apply(updates[n]);
        if (n % 50 == 49)
            c.scrubNow();
        if (n % 10 == 0)
            std::this_thread::sleep_for(std::chrono::microseconds(300));
        std::this_thread::yield();
    }
    writerDone.store(true, std::memory_order_release);
    for (auto &r : readers)
        r.join();

    std::vector<std::vector<Sample>> byGen(kUpdates + 1);
    for (const auto &vec : samples) {
        for (const Sample &s : vec) {
            ASSERT_LE(s.generation, kUpdates);
            byGen[s.generation].push_back(s);
        }
    }
    BinaryTrie oracle(table);
    for (uint64_t g = 0; g <= kUpdates; ++g) {
        if (g > 0) {
            const Update &u = updates[g - 1];
            if (u.kind == UpdateKind::Announce)
                oracle.insert(u.prefix, u.nextHop);
            else
                oracle.erase(u.prefix);
        }
        for (const Sample &s : byGen[g]) {
            auto expect = oracle.lookup(keys[s.keyIndex], 32);
            ASSERT_EQ(expect.has_value(), s.found)
                << "generation " << g << " key " << s.keyIndex;
            if (expect) {
                ASSERT_EQ(expect->nextHop, s.nextHop)
                    << "generation " << g << " key " << s.keyIndex;
            }
        }
    }
    EXPECT_GT(inj.totalFires(), 0u);
    // Readers did take the soft path (a soft lookup counts one).
    EXPECT_GT(c.robustness().parityDetected, 0u);
    c.scrubNow();
    EXPECT_TRUE(c.selfCheck());
}

/**
 * Same overlap, harsher churn: the writer interleaves scrubs and a
 * snapshot save while readers stream, exercising every flip path
 * (update, scrub, install) under contention.
 */
TEST(ConcurrentStress, MixedWriterOperationsKeepReadersConsistent)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
                   ("chisel_concurrent_mixed_test_" +
                    std::to_string(::getpid()));
    fs::create_directories(dir);

    RoutingTable table = generateScaledTable(1000, 32, 71);
    std::vector<Key128> keys =
        generateLookupKeys(table, 1024, 32, 0.7, 72);
    UpdateTraceGenerator gen(table, TraceProfile{}, 32, 73);

    ConcurrentChisel c(table, {}, noThreadsOptions());
    BinaryTrie oracle(table);

    const unsigned nReaders = readerThreads();
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> lookups{0};

    std::vector<std::thread> readers;
    for (unsigned t = 0; t < nReaders; ++t) {
        readers.emplace_back([&, t] {
            uint64_t i = t;
            while (!stop.load(std::memory_order_acquire)) {
                const Key128 &key = keys[i++ % keys.size()];
                LookupResult r = c.lookup(key);
                // Sanity only — full validation is the test above.
                // A hit must carry a real next hop.
                if (r.found && !r.fromDefault)
                    ASSERT_NE(r.nextHop, kNoRoute);
                lookups.fetch_add(1, std::memory_order_relaxed);
                std::this_thread::yield();
            }
        });
    }

    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 30; ++i) {
            Update u = gen.next();
            c.apply(u);
            if (u.kind == UpdateKind::Announce)
                oracle.insert(u.prefix, u.nextHop);
            else
                oracle.erase(u.prefix);
        }
        ScrubReport r = c.scrubNow();
        EXPECT_EQ(r.errorsFound, 0u);
        if (round == 5) {
            c.saveSnapshot((dir / "mid.snap").string());
        }
    }
    stop.store(true, std::memory_order_release);
    for (auto &r : readers)
        r.join();

    EXPECT_GT(lookups.load(), 0u);

    // Settled state equals the oracle.
    for (const Key128 &key : keys) {
        auto a = oracle.lookup(key, 32);
        LookupResult b = c.lookup(key);
        ASSERT_EQ(a.has_value(), b.found);
        if (a)
            EXPECT_EQ(a->nextHop, b.nextHop);
    }
    EXPECT_TRUE(c.selfCheck());
    fs::remove_all(dir);
}

} // anonymous namespace
} // namespace chisel
