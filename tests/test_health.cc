/**
 * @file
 * Overload-resilience tests: flap damping (decay, hysteresis,
 * serialization), token-bucket admission, the health-state machine
 * (transitions, watchdog, quarantine ladder), the engine's
 * dirty-retention budget, and a property sweep that keeps
 * dirtyCount/groupCount/storage consistent with a reference model
 * across random flap sequences.
 *
 * Every test uses fixed seeds and logical ticks: a failure replays
 * exactly.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "core/engine.hh"
#include "health/admission.hh"
#include "health/damping.hh"
#include "health/monitor.hh"
#include "persist/codec.hh"
#include "route/synth.hh"
#include "route/updates.hh"
#include "trie/binary_trie.hh"

namespace chisel {
namespace {

using health::AdmissionController;
using health::AdmissionOptions;
using health::DampingConfig;
using health::FlapDamper;
using health::HealthMonitor;
using health::HealthSignals;
using health::HealthState;
using health::MonitorConfig;
using health::RecoveryAction;

// ---- FlapDamper ------------------------------------------------------------

TEST(FlapDamper, PenaltyDecaysWithHalfLife)
{
    DampingConfig cfg;
    cfg.penaltyPerFlap = 1000.0;
    cfg.halfLifeTicks = 10.0;
    FlapDamper damper(cfg);

    Key128 key = Key128::fromIpv4(0x0A000000u);
    EXPECT_DOUBLE_EQ(damper.penalty(key), 0.0);
    EXPECT_DOUBLE_EQ(damper.penalize(key), 1000.0);

    damper.advance(10);   // One half-life.
    EXPECT_NEAR(damper.penalty(key), 500.0, 1e-9);
    damper.advance(10);
    EXPECT_NEAR(damper.penalty(key), 250.0, 1e-9);

    // A new flap stacks on top of the decayed balance.
    EXPECT_NEAR(damper.penalize(key), 1250.0, 1e-9);
}

TEST(FlapDamper, SuppressReuseHysteresis)
{
    DampingConfig cfg;
    cfg.penaltyPerFlap = 1000.0;
    cfg.halfLifeTicks = 10.0;
    cfg.suppressThreshold = 2500.0;
    cfg.reuseThreshold = 800.0;
    FlapDamper damper(cfg);

    Key128 key = Key128::fromIpv4(0x0A000000u);

    // Two rapid flaps: 2000 < suppress threshold, still usable.
    damper.penalize(key);
    damper.penalize(key);
    EXPECT_FALSE(damper.suppressed(key));

    // Third flap crosses 2500: suppressed.
    damper.penalize(key);
    EXPECT_TRUE(damper.suppressed(key));
    EXPECT_EQ(damper.suppressedCount(), 1u);

    // Decay to ~1500: below suppress but above reuse — hysteresis
    // keeps the group suppressed.
    damper.advance(10);
    EXPECT_GT(damper.penalty(key), cfg.reuseThreshold);
    EXPECT_LT(damper.penalty(key), cfg.suppressThreshold);
    EXPECT_TRUE(damper.suppressed(key));

    // Decay below reuse: released.
    damper.advance(10);
    EXPECT_LT(damper.penalty(key), cfg.reuseThreshold);
    EXPECT_FALSE(damper.suppressed(key));
    EXPECT_EQ(damper.suppressedCount(), 0u);
}

TEST(FlapDamper, SaveLoadRoundTripIsByteExact)
{
    DampingConfig cfg;
    cfg.halfLifeTicks = 64.0;
    FlapDamper damper(cfg);
    Rng rng(0xDA);
    for (int i = 0; i < 200; ++i) {
        damper.penalize(
            Key128::fromIpv4(0x0A000000u + rng.next64() % 64 * 256));
        damper.advance(rng.next64() % 8);
    }

    persist::Encoder enc;
    damper.saveState(enc);

    FlapDamper restored(cfg);
    persist::Decoder dec(enc.buffer());
    restored.loadState(dec);

    EXPECT_EQ(restored.now(), damper.now());
    EXPECT_EQ(restored.trackedCount(), damper.trackedCount());

    // The restored damper must re-serialize byte-identically — the
    // warm-restart audit in test_persist depends on this.
    persist::Encoder enc2;
    restored.saveState(enc2);
    EXPECT_EQ(enc.buffer(), enc2.buffer());
}

TEST(FlapDamper, LoadRejectsMalformedState)
{
    FlapDamper damper;
    {
        // Stamp after the serialized clock.
        persist::Encoder enc;
        enc.u64(5);   // tick
        enc.u64(1);   // one entry
        enc.key(Key128::fromIpv4(1));
        enc.f64(10.0);
        enc.u64(9);   // stamp > tick
        enc.boolean(false);
        persist::Decoder dec(enc.buffer());
        EXPECT_THROW(damper.loadState(dec), persist::DecodeError);
    }
    {
        // Negative penalty.
        persist::Encoder enc;
        enc.u64(5);
        enc.u64(1);
        enc.key(Key128::fromIpv4(1));
        enc.f64(-1.0);
        enc.u64(0);
        enc.boolean(false);
        persist::Decoder dec(enc.buffer());
        EXPECT_THROW(damper.loadState(dec), persist::DecodeError);
    }
}

// ---- AdmissionController ---------------------------------------------------

TEST(Admission, DisabledAdmitsEverything)
{
    AdmissionOptions opts;   // enabled = false
    opts.announceTokensPerSec = 1.0;   // Ignored while disabled.
    opts.tokenBurst = 1.0;
    AdmissionController ac(opts);
    EXPECT_FALSE(ac.enabled());
    for (uint32_t i = 0; i < 100; ++i)
        EXPECT_TRUE(ac.tryAdmit(UpdateKind::Announce));
    EXPECT_EQ(ac.counters().admitted, 100u);
    EXPECT_EQ(ac.counters().deferred, 0u);
}

TEST(Admission, TokenBucketMetersPerClass)
{
    AdmissionOptions opts;
    opts.enabled = true;
    opts.withdrawTokensPerSec = 1.0;   // Refill is negligible in-test.
    opts.tokenBurst = 4.0;
    AdmissionController ac(opts);

    auto t0 = AdmissionController::Clock::now();
    // Burst of 4 withdraws passes, the 5th is refused.
    for (uint32_t i = 0; i < 4; ++i)
        EXPECT_TRUE(ac.tryAdmit(UpdateKind::Withdraw, t0));
    EXPECT_FALSE(ac.tryAdmit(UpdateKind::Withdraw, t0));
    // Announces are unmetered (rate 0).
    EXPECT_TRUE(ac.tryAdmit(UpdateKind::Announce, t0));
    EXPECT_EQ(ac.counters().admitted, 5u);
    EXPECT_EQ(ac.counters().deferred, 1u);
}

// ---- HealthMonitor ---------------------------------------------------------

HealthSignals
quiet()
{
    return HealthSignals{};
}

HealthSignals
warnLevel()
{
    HealthSignals s;
    s.dirtyOccupancy = 0.8;   // Above kDirtyWarn, below critical.
    return s;
}

HealthSignals
critLevel()
{
    HealthSignals s;
    s.dirtyOccupancy = 1.0;
    s.slowPathRejected = 3;   // Hard drops: always critical.
    return s;
}

TEST(HealthMonitor, EscalatesWithHysteresis)
{
    HealthMonitor mon;
    EXPECT_EQ(mon.state(), HealthState::Healthy);

    // One warning sample is not enough (kStressAfter = 2).
    EXPECT_EQ(mon.sample(warnLevel()), HealthState::Healthy);
    EXPECT_EQ(mon.sample(warnLevel()), HealthState::Stressed);
    EXPECT_EQ(mon.takeAction(), RecoveryAction::PurgeDirty);
    EXPECT_EQ(mon.takeAction(), RecoveryAction::None);   // Consumed.

    // Critical streak: Stressed -> Degraded (kDegradeAfter = 2).
    EXPECT_EQ(mon.sample(critLevel()), HealthState::Stressed);
    EXPECT_EQ(mon.sample(critLevel()), HealthState::Degraded);
    EXPECT_EQ(mon.takeAction(), RecoveryAction::Scrub);

    // Still critical: Degraded -> Quarantined (kQuarantineAfter = 3).
    mon.sample(critLevel());
    mon.sample(critLevel());
    EXPECT_EQ(mon.sample(critLevel()), HealthState::Quarantined);
    EXPECT_EQ(mon.takeAction(), RecoveryAction::Resetup);

    // Signals clean: probation in Recovering, then Healthy after
    // kRecoverAfter = 3 clean samples.
    EXPECT_EQ(mon.sample(quiet()), HealthState::Recovering);
    mon.sample(quiet());
    mon.sample(quiet());
    EXPECT_EQ(mon.sample(quiet()), HealthState::Healthy);
    EXPECT_GE(mon.transitions(), 5u);
    EXPECT_EQ(mon.entered(HealthState::Quarantined), 1u);
}

TEST(HealthMonitor, RelapseInRecoveringFallsBack)
{
    HealthMonitor mon;
    mon.sample(critLevel());
    mon.sample(critLevel());
    mon.sample(critLevel());
    mon.sample(critLevel());   // Healthy->..->Degraded
    (void)mon.takeAction();

    EXPECT_EQ(mon.sample(quiet()), HealthState::Recovering);
    // A critical streak during probation aborts the recovery.
    EXPECT_EQ(mon.sample(critLevel()), HealthState::Recovering);
    EXPECT_EQ(mon.sample(critLevel()), HealthState::Degraded);
}

TEST(HealthMonitor, QuarantineLadderEscalatesOnFailure)
{
    HealthMonitor mon;
    // 2 criticals reach Degraded, 3 more reach Quarantined — exactly,
    // so no in-quarantine streak has escalated the rung yet.
    for (int i = 0; i < 5; ++i)
        mon.sample(critLevel());
    ASSERT_EQ(mon.state(), HealthState::Quarantined);

    // First rung: resetup.  Report failure -> next rung arms.
    EXPECT_EQ(mon.takeAction(), RecoveryAction::Resetup);
    mon.actionCompleted(RecoveryAction::Resetup, false);
    EXPECT_EQ(mon.takeAction(), RecoveryAction::SnapshotRestore);
    mon.actionCompleted(RecoveryAction::SnapshotRestore, false);
    // Ladder wraps back rather than giving up.
    EXPECT_EQ(mon.takeAction(), RecoveryAction::Resetup);
}

TEST(HealthMonitor, WatchdogBypassesHysteresis)
{
    MonitorConfig cfg;
    cfg.updateDeadline = std::chrono::milliseconds(10);
    HealthMonitor mon(cfg);

    auto t0 = HealthMonitor::Clock::now();
    mon.beginUpdate(t0);
    EXPECT_FALSE(mon.watchdogExpired(t0));
    EXPECT_TRUE(
        mon.watchdogExpired(t0 + std::chrono::milliseconds(11)));

    // A watchdog trip in the signal sample jumps straight to
    // Quarantined, no streak required.
    HealthSignals s;
    s.watchdogExpired = true;
    EXPECT_EQ(mon.sample(s), HealthState::Quarantined);
    EXPECT_EQ(mon.watchdogExpirations(), 1u);

    mon.endUpdate();
    EXPECT_FALSE(mon.watchdogExpired(
        t0 + std::chrono::milliseconds(1000)));
}

TEST(HealthMonitor, CapacityPressureArmsResizeAfterStreak)
{
    MonitorConfig cfg;
    cfg.resizeAfter = 3;
    HealthMonitor mon(cfg);

    HealthSignals pressure;
    pressure.spillOccupancy = 0.9;   // >= kSpillWarn, < kSpillCritical.

    // Two pressure samples: the severity ladder reaches Stressed
    // (and arms PurgeDirty), but the capacity streak is still short.
    mon.sample(pressure);
    mon.sample(pressure);
    EXPECT_EQ(mon.takeAction(), RecoveryAction::PurgeDirty);

    // A quiet sample resets the capacity streak — pressure must be
    // *sustained*, not merely frequent.
    mon.sample(quiet());
    mon.sample(pressure);
    mon.sample(pressure);
    EXPECT_NE(mon.takeAction(), RecoveryAction::Resize);

    // Third consecutive pressure sample arms the Resize, overriding
    // whatever rung the severity ladder chose.
    mon.sample(pressure);
    EXPECT_EQ(mon.takeAction(), RecoveryAction::Resize);
    EXPECT_EQ(mon.takeAction(), RecoveryAction::None);   // Consumed.
}

TEST(HealthMonitor, ResizeCooldownSuppressesImmediateRearm)
{
    MonitorConfig cfg;
    cfg.resizeAfter = 3;
    cfg.resizeCooldown = 4;
    HealthMonitor mon(cfg);

    HealthSignals pressure;
    pressure.setupRetries = 1;   // Capacity pressure via retry signal.

    for (int i = 0; i < 3; ++i)
        mon.sample(pressure);
    EXPECT_EQ(mon.takeAction(), RecoveryAction::Resize);

    // The rebuild's own turbulence (setup retries, stale occupancy)
    // keeps the pressure signal hot; the cooldown keeps those samples
    // from arming a second rebuild on top of the first.
    for (int i = 0; i < 4; ++i) {
        mon.sample(pressure);
        EXPECT_NE(mon.takeAction(), RecoveryAction::Resize);
    }

    // Cooldown spent and pressure still sustained: re-arm.
    mon.sample(pressure);
    EXPECT_EQ(mon.takeAction(), RecoveryAction::Resize);
}

// ---- Engine dirty-retention budget -----------------------------------------

TEST(DirtyBudget, EvictionBoundsRetention)
{
    RoutingTable table = generateScaledTable(2000, 32, 0x51);
    ChiselConfig config;
    config.dirtyBudgetPerCell = 8;
    ChiselEngine engine(table, config);

    // Withdraw far more routes than the budget allows to stay dirty.
    std::vector<Route> routes = table.routes();
    for (size_t i = 0; i < 600; ++i)
        engine.withdraw(routes[i].prefix);

    EXPECT_LE(engine.dirtyCount(), 8u * engine.cellCount());
    EXPECT_LE(engine.dirtyPeak(), 8u);
    EXPECT_GT(engine.robustness().dirtyEvictions, 0u);

    // Evicted or not, every flap must restore correctly.
    for (size_t i = 0; i < 600; ++i)
        engine.announce(routes[i].prefix, routes[i].nextHop);
    BinaryTrie oracle(table);
    std::vector<Key128> keys =
        generateLookupKeys(table, 1024, 32, 0.5, 0x52);
    for (const Key128 &key : keys) {
        auto want = oracle.lookup(key, 32);
        LookupResult got = engine.lookup(key);
        ASSERT_EQ(want.has_value(), got.found);
        if (want)
            ASSERT_EQ(want->nextHop, got.nextHop);
    }
}

TEST(DirtyBudget, ZeroBudgetIsUnbounded)
{
    RoutingTable table = generateScaledTable(1000, 32, 0x53);
    ChiselEngine engine(table, {});   // dirtyBudgetPerCell = 0

    std::vector<Route> routes = table.routes();
    for (size_t i = 0; i < 400; ++i)
        engine.withdraw(routes[i].prefix);
    EXPECT_EQ(engine.robustness().dirtyEvictions, 0u);
    EXPECT_GT(engine.dirtyCount(), 0u);
}

// ---- Property sweep --------------------------------------------------------

/**
 * Random announce/withdraw/flap sequences with a tight dirty budget:
 * after every step the engine must agree with a RoutingTable
 * reference, and the dirty/group/storage bookkeeping must stay
 * self-consistent.
 */
TEST(HealthProperties, FlapSequencesKeepBookkeepingConsistent)
{
    RoutingTable table = generateScaledTable(800, 32, 0x61);
    ChiselConfig config;
    config.dirtyBudgetPerCell = 16;
    ChiselEngine engine(table, config);
    RoutingTable ref = table;

    std::vector<Route> routes = table.routes();
    Rng rng(0x62);

    for (int step = 0; step < 4000; ++step) {
        const Route &r = routes[rng.next64() % routes.size()];
        if (ref.contains(r.prefix)) {
            engine.withdraw(r.prefix);
            ref.remove(r.prefix);
        } else {
            engine.announce(r.prefix, r.nextHop);
            ref.add(r.prefix, r.nextHop);
        }

        if (step % 257 == 0) {
            // Periodic purge exercises the dirty teardown path too.
            engine.purgeDirty();
            ASSERT_EQ(engine.dirtyCount(), 0u);
        }

        ASSERT_EQ(engine.routeCount(), ref.size());

        size_t dirty_total = 0;
        for (size_t c = 0; c < engine.cellCount(); ++c) {
            const SubCell &cell = engine.cell(c);
            ASSERT_LE(cell.dirtyCount(), config.dirtyBudgetPerCell);
            // A dirty group still occupies its collapsed group slot.
            ASSERT_LE(cell.dirtyCount(), cell.groupCount());
            dirty_total += cell.dirtyCount();
        }
        ASSERT_EQ(engine.dirtyCount(), dirty_total);
        ASSERT_LE(engine.dirtyPeak(), config.dirtyBudgetPerCell);

        if (step % 64 == 0) {
            StorageBreakdown storage = engine.storage();
            ASSERT_GT(storage.indexBits, 0u);
            for (const Route &probe : routes) {
                auto want = ref.find(probe.prefix);
                auto got = engine.find(probe.prefix);
                ASSERT_EQ(want.has_value(), got.has_value());
                if (want)
                    ASSERT_EQ(*want, *got);
            }
        }
    }
}

} // namespace
} // namespace chisel
