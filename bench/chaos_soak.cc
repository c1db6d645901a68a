/**
 * @file
 * Chaos soak: a flap storm applied through ConcurrentChisel::apply()
 * with the seven engine-path fault points armed (Bloomier setup
 * failure, forced non-singleton groups, TCAM overflow, and a bit flip
 * in each of the Index, Filter, Bit-vector and Result tables), while
 * the health-state machine runs recovery actions and reader threads
 * hammer lookups (docs/robustness.md).
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
 * directly as its chaos leg.  Flags: --seed=<n> and the telemetry
 * flags; a flight recorder is always on, and a crash leaves
 * chaos_soak.crash.json behind (docs/observability.md).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "concurrent/concurrent_engine.hh"
#include "fault/fault.hh"
#include "obs/introspect.hh"
#include "route/synth.hh"
#include "route/updates.hh"
#include "soak.hh"
#include "telemetry/metrics.hh"

namespace {

using namespace chisel;
using concurrent::ConcurrentChisel;
using concurrent::ConcurrentOptions;

constexpr size_t kUpdates = 10000;  ///< Flap-storm length.
constexpr size_t kRoutes = 5000;    ///< Initial table size.

} // anonymous namespace

int
main(int argc, char **argv)
{
    soak::Soak soak({.name = "chaos_soak",
                     .summary = "Flap storm through a fault-injected "
                                "concurrent engine with a full "
                                "recovery-ladder audit.",
                     .seed = 0xC0A5,
                     .crashDump = true});
    if (int rc = soak.parse(argc, argv); rc >= 0)
        return rc;
    const uint64_t seed = soak.seed();

    std::printf("chaos soak: %zu routes, %zu-update flap storm, "
                "seed %llu, fault injection %s\n",
                kRoutes, kUpdates, static_cast<unsigned long long>(seed),
                CHISEL_FAULT_INJECTION_ENABLED ? "on" : "off");

    RoutingTable table = generateScaledTable(kRoutes, 32, seed);
    std::vector<Key128> keys =
        generateLookupKeys(table, 4096, 32, 0.7, seed + 1);

    // Storm trace: Zipf hot set cycling announce/withdraw, plus a
    // background slice of the ordinary mix.
    TraceProfile prof;
    prof.flapStorm = true;
    UpdateTraceGenerator gen(table, prof, 32, seed + 2);
    std::vector<Update> storm = gen.generate(kUpdates);

    // Truth: the initial table advanced through the whole storm in
    // order.
    RoutingTable truth = table;
    for (const Update &u : storm)
        soak::advance(truth, u);

    // Every engine-path fault point armed: they fire inside the
    // storm's applies and the maintenance thread's recovery actions.
    fault::FaultInjector inj(seed + 3);
    inj.arm(fault::FaultPoint::BloomierSetupFail, 0.2, 40);
    inj.arm(fault::FaultPoint::ForceNonSingleton, 0.3, 200);
    inj.arm(fault::FaultPoint::TcamOverflow, 0.2, 40);
    inj.arm(fault::FaultPoint::BitFlipIndex, 0.01, 10);
    inj.arm(fault::FaultPoint::BitFlipFilter, 0.01, 10);
    inj.arm(fault::FaultPoint::BitFlipBitVector, 0.01, 10);
    inj.arm(fault::FaultPoint::BitFlipResult, 0.01, 10);

    ChiselConfig config;
    config.dirtyBudgetPerCell = 512;

    ConcurrentOptions copts;
    copts.controlThread = true;
    copts.healthInterval = std::chrono::milliseconds(2);
    copts.faultInjector = &inj;

    ConcurrentChisel engine(table, config, copts);
    if (obs::IntrospectionServer *server = soak.session().introspection())
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
    soak::RouteAudit audit = soak::auditRoutes(engine, truth, keys);

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
    soak.check(audit.lost == 0, "zero lost routes");
    soak.check(audit.phantom == 0, "zero phantom routes");
    soak.check(audit.wrong == 0, "oracle agreement on key sample");
    soak.check(state == health::HealthState::Healthy,
               "health machine returned to Healthy");
    soak.check(engine.dirtyPeak() <= config.dirtyBudgetPerCell,
               "dirty retention budget never exceeded");
#if CHISEL_FAULT_INJECTION_ENABLED
    soak.check(inj.totalFires() > 0, "fault points actually fired");
#endif

    if (soak.session().enabled()) {
        telemetry::MetricRegistry &registry = soak.session().registry();
        registry.gauge("chaos.lost").set(double(audit.lost));
        registry.gauge("chaos.phantom").set(double(audit.phantom));
        registry.gauge("chaos.oracle_mismatches").set(double(audit.wrong));
        registry.gauge("chaos.fault_fires")
            .set(double(inj.totalFires()));
        registry.gauge("chaos.lookups").set(double(lookups.load()));
        registry.gauge("chaos.dirty.peak")
            .set(double(engine.dirtyPeak()));
        mon.publish(registry, "chaos.health");
    }
    return soak.finish();
}
