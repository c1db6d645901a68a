/**
 * @file
 * Chaos soak: a flap storm applied through ConcurrentChisel::apply()
 * with EVERY registered fault point armed, while the health-state
 * machine runs recovery actions and reader threads hammer lookups
 * (docs/robustness.md).
 *
 * The run passes only if, after the storm ends and the machine is
 * driven back to Healthy:
 *
 *  - the engine holds exactly the truth table's routes (zero lost,
 *    zero phantom) and agrees with a binary-trie oracle on a random
 *    key sample;
 *  - the dirty-group retention budget was never exceeded between
 *    updates (dirtyPeak() <= budget);
 *  - the health monitor ends in Healthy.
 *
 * Exit status is nonzero on any violation, so CI can run this binary
 * directly as its chaos leg.  Flags: --updates=<n> --routes=<n>
 * --seed=<n> --metrics-json=<path>.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "concurrent/concurrent_engine.hh"
#include "fault/fault.hh"
#include "obs/introspect.hh"
#include "persist/journal.hh"
#include "persist/snapshot.hh"
#include "route/synth.hh"
#include "route/updates.hh"
#include "tcam/tcam.hh"
#include "telemetry/cli.hh"
#include "telemetry/metrics.hh"
#include "trie/binary_trie.hh"

namespace {

using namespace chisel;
using concurrent::ConcurrentChisel;
using concurrent::ConcurrentOptions;

size_t g_failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("  %-52s %s\n", what, ok ? "ok" : "FAIL");
    if (!ok)
        ++g_failures;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    auto topts = telemetry::TelemetryOptions::parse(argc, argv);
    // The chaos harness always flies with the recorder on: when a
    // soak dies, the crash dump is the whole point of the exercise.
    if (topts.flightEvents == 0)
        topts.flightEvents = 4096;
    telemetry::TelemetrySession session(topts);
    if (topts.flightDumpPrefix.empty())
        telemetry::FlightRecorder::installCrashHandler("chaos_soak");

    size_t n_updates = 10000;
    size_t n_routes = 5000;
    uint64_t seed = 0xC0A5;
    telemetry::FlagTable flags(
        "chaos_soak",
        "Flap storm through a fault-injected concurrent engine with "
        "a full recovery-ladder audit.");
    flags.sizeFlag("updates", "flap-storm length (default 10000)",
                   &n_updates)
        .sizeFlag("routes", "table size (default 5000)", &n_routes)
        .u64Flag("seed", "deterministic scenario seed", &seed);
    if (!flags.parseStrict(argc, argv))
        return flags.helpRequested() ? 0 : 2;

    std::printf("chaos soak: %zu routes, %zu-update flap storm, "
                "seed %llu, fault injection %s\n",
                n_routes, n_updates,
                static_cast<unsigned long long>(seed),
                CHISEL_FAULT_INJECTION_ENABLED ? "on" : "off");

    RoutingTable table = generateScaledTable(n_routes, 32, seed);
    std::vector<Key128> keys =
        generateLookupKeys(table, 4096, 32, 0.7, seed + 1);

    // Storm trace: Zipf hot set cycling announce/withdraw, plus a
    // background slice of the ordinary mix.
    TraceProfile prof;
    prof.flapStorm = true;
    UpdateTraceGenerator gen(table, prof, 32, seed + 2);
    std::vector<Update> storm = gen.generate(n_updates);

    // Truth: the initial table advanced through the whole storm in
    // order.
    RoutingTable truth = table;
    for (const Update &u : storm) {
        if (u.kind == UpdateKind::Announce)
            truth.add(u.prefix, u.nextHop);
        else
            truth.remove(u.prefix);
    }

    // Every registered fault point armed.  The engine-path points
    // fire inside the storm's applies and the maintenance thread's
    // recovery actions; the two persistence points fire in the
    // explicit journal/snapshot drills below.
    fault::FaultInjector inj(seed + 3);
    inj.arm(fault::FaultPoint::BloomierSetupFail, 0.2, 40);
    inj.arm(fault::FaultPoint::ForceNonSingleton, 0.3, 200);
    inj.arm(fault::FaultPoint::TcamOverflow, 0.2, 40);
    inj.arm(fault::FaultPoint::BitFlipIndex, 0.01, 10);
    inj.arm(fault::FaultPoint::BitFlipFilter, 0.01, 10);
    inj.arm(fault::FaultPoint::BitFlipBitVector, 0.01, 10);
    inj.arm(fault::FaultPoint::BitFlipResult, 0.01, 10);
    inj.arm(fault::FaultPoint::JournalTornWrite, 1.0, 1);
    inj.arm(fault::FaultPoint::SnapshotCorrupt, 1.0, 1);

    ChiselConfig config;
    config.dirtyBudgetPerCell = 512;

    ConcurrentOptions copts;
    copts.controlThread = true;
    copts.healthMonitor = true;
    copts.healthInterval = std::chrono::milliseconds(2);
    copts.faultInjector = &inj;

    ConcurrentChisel engine(table, config, copts);
    if (obs::IntrospectionServer *server = session.introspection())
        server->attachEngine(&engine);

    // Reader threads run through storm, faults and recovery actions;
    // lookups are wait-free, so they never see a table mid-rebuild.
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> lookups{0};
    std::vector<std::thread> readers;
    for (unsigned t = 0; t < 2; ++t) {
        readers.emplace_back([&, t] {
            uint64_t i = t, local = 0;
            while (!stop.load(std::memory_order_acquire)) {
                engine.lookup(keys[i++ % keys.size()]);
                ++local;
            }
            lookups.fetch_add(local, std::memory_order_relaxed);
        });
    }

    // ---- The storm: every update applied, unpaced -------------------
    for (const Update &u : storm)
        engine.apply(u);

    // ---- Side drills (driver-thread injector) ----------------------
    //
    // Three fault points live off the storm's hot path — the spill
    // TCAM insert and the journal/snapshot codecs; exercise each and
    // check the defense held.
    {
        fault::ScopedInjector scope(&inj);

        // A bounded TCAM that falsely reports "full": the caller must
        // see a clean refusal, never a corrupted entry list.
        Tcam spill(64);
        size_t refused = 0;
        for (uint32_t i = 0; i < 48; ++i) {
            Prefix p(Key128::fromIpv4(0xAC100000u + (i << 8)), 24);
            if (!spill.insert(p, NextHop(i + 1)))
                ++refused;
        }
        check(spill.size() + refused == 48,
              "tcam overflow: refusals clean, no entry lost");
        const std::string jpath = "chaos_soak.journal.tmp";
        const std::string spath = "chaos_soak.snapshot.tmp";
        std::remove(jpath.c_str());
        {
            persist::UpdateJournal journal(
                jpath, configFingerprint(config));
            for (size_t i = 0; i < 8; ++i)
                journal.append(storm[i % storm.size()]);
        }
        persist::JournalScan scan = persist::scanJournal(jpath, 0);
        check(scan.headerOk, "torn journal: valid prefix recovered");
#if CHISEL_FAULT_INJECTION_ENABLED
        check(scan.truncatedTail, "torn journal: tail discarded");
#endif
        std::remove(jpath.c_str());

        ChiselEngine sidecar(table, config);
        persist::saveSnapshot(spath, sidecar, 0);
        persist::SnapshotLoadResult load =
            persist::loadSnapshot(spath, &config);
#if CHISEL_FAULT_INJECTION_ENABLED
        check(load.status == persist::SnapshotLoadStatus::Corrupt,
              "corrupt snapshot: CRC gate refused the image");
#else
        check(load.status == persist::SnapshotLoadStatus::Ok,
              "snapshot roundtrip clean");
#endif
        std::remove(spath.c_str());
        std::remove(
            persist::previousSnapshotPath(spath).c_str());
    }

    // ---- Recover ----------------------------------------------------
    //
    // The storm ends: faults disarm and the recovery drive must
    // reconverge.
    for (size_t p = 0; p < fault::kFaultPointCount; ++p)
        inj.disarm(static_cast<fault::FaultPoint>(p));

    // One scrub reconverges any image divergence the fault streams
    // caused (docs/concurrency.md), then drive the machine until it
    // reports Healthy.  The first tick comes after the scrub, so a
    // sample has seen its repairs before any state is judged.
    engine.scrubNow();
    health::HealthState state = engine.healthTick();
    for (int i = 0; i < 200 && state != health::HealthState::Healthy;
         ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        state = engine.healthTick();
    }

    stop.store(true, std::memory_order_release);
    for (auto &t : readers)
        t.join();
    // The background monitor keeps sampling: judge the state it holds
    // now, not the one the drive loop last saw.
    state = engine.healthState();

    // ---- Audit ------------------------------------------------------
    size_t lost = 0, phantom = 0, wrong = 0;
    for (const Route &r : truth.routes()) {
        auto nh = engine.find(r.prefix);
        if (!nh || *nh != r.nextHop)
            ++lost;
    }
    // Oracle sample: random keys through the wait-free path.
    BinaryTrie oracle(truth);
    for (const Key128 &k : keys) {
        auto a = oracle.lookup(k, 32);
        auto b = engine.lookup(k);
        if (a.has_value() != b.found || (a && a->nextHop != b.nextHop))
            ++wrong;
    }
    phantom = engine.routeCount() > truth.size()
                  ? engine.routeCount() - truth.size()
                  : 0;

    const health::HealthMonitor &mon = engine.monitor();
    RobustnessCounters rc = engine.robustness();

    std::printf("storm: %llu updates applied\n",
                static_cast<unsigned long long>(engine.updatesApplied()));
    std::printf("fault points (polls/fires):\n");
    for (size_t p = 0; p < fault::kFaultPointCount; ++p) {
        auto point = static_cast<fault::FaultPoint>(p);
        std::printf("  %-20s %8llu / %llu\n", fault::faultPointName(point),
                    static_cast<unsigned long long>(inj.polls(point)),
                    static_cast<unsigned long long>(inj.fires(point)));
    }
    std::printf("faults fired: %llu; parity recoveries: %llu; "
                "dirty evictions: %llu; suppressed flaps: %llu\n",
                static_cast<unsigned long long>(inj.totalFires()),
                static_cast<unsigned long long>(rc.parityRecoveries),
                static_cast<unsigned long long>(rc.dirtyEvictions),
                static_cast<unsigned long long>(rc.suppressedFlaps));
    std::printf("health: end state %s; entered stressed %llu, "
                "degraded %llu, quarantined %llu, recovering %llu; "
                "actions purge %llu, scrub %llu, resetup %llu, "
                "restore %llu\n",
                mon.stateName(),
                static_cast<unsigned long long>(
                    mon.entered(health::HealthState::Stressed)),
                static_cast<unsigned long long>(
                    mon.entered(health::HealthState::Degraded)),
                static_cast<unsigned long long>(
                    mon.entered(health::HealthState::Quarantined)),
                static_cast<unsigned long long>(
                    mon.entered(health::HealthState::Recovering)),
                static_cast<unsigned long long>(mon.actionsTaken(
                    health::RecoveryAction::PurgeDirty)),
                static_cast<unsigned long long>(
                    mon.actionsTaken(health::RecoveryAction::Scrub)),
                static_cast<unsigned long long>(mon.actionsTaken(
                    health::RecoveryAction::Resetup)),
                static_cast<unsigned long long>(mon.actionsTaken(
                    health::RecoveryAction::SnapshotRestore)));
    std::printf("lookups served during soak: %llu\n",
                static_cast<unsigned long long>(lookups.load()));

    std::printf("verdict:\n");
    check(lost == 0, "zero lost routes");
    check(phantom == 0, "zero phantom routes");
    check(wrong == 0, "oracle agreement on key sample");
    check(state == health::HealthState::Healthy,
          "health machine returned to Healthy");
    check(engine.dirtyPeak() <= config.dirtyBudgetPerCell,
          "dirty retention budget never exceeded");
#if CHISEL_FAULT_INJECTION_ENABLED
    check(inj.totalFires() > 0, "fault points actually fired");
#endif

    if (session.enabled()) {
        telemetry::MetricRegistry &registry = session.registry();
        registry.gauge("chaos.lost").set(double(lost));
        registry.gauge("chaos.phantom").set(double(phantom));
        registry.gauge("chaos.oracle_mismatches").set(double(wrong));
        registry.gauge("chaos.fault_fires")
            .set(double(inj.totalFires()));
        registry.gauge("chaos.lookups").set(double(lookups.load()));
        registry.gauge("chaos.dirty.peak")
            .set(double(engine.dirtyPeak()));
        mon.publish(registry, "chaos.health");
    }
    // Stops the introspection server and flushes every requested
    // sink (metrics JSON, flight dump) before the verdict line.
    session.finish();

    std::printf("chaos soak: %s (%zu failure%s)\n",
                g_failures == 0 ? "PASS" : "FAIL", g_failures,
                g_failures == 1 ? "" : "s");
    return g_failures == 0 ? 0 : 1;
}
