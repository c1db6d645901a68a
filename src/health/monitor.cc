#include "health/monitor.hh"

#include <algorithm>

#include "core/engine.hh"
#include "telemetry/flight.hh"
#include "telemetry/metrics.hh"

namespace chisel::health {

const char *
healthStateName(HealthState s)
{
    switch (s) {
      case HealthState::Healthy: return "healthy";
      case HealthState::Stressed: return "stressed";
      case HealthState::Degraded: return "degraded";
      case HealthState::Quarantined: return "quarantined";
      case HealthState::Recovering: return "recovering";
      case HealthState::kCount: break;
    }
    return "?";
}

const char *
recoveryActionName(RecoveryAction a)
{
    switch (a) {
      case RecoveryAction::None: return "none";
      case RecoveryAction::PurgeDirty: return "purge_dirty";
      case RecoveryAction::Scrub: return "scrub";
      case RecoveryAction::Resetup: return "resetup";
      case RecoveryAction::SnapshotRestore: return "snapshot_restore";
      case RecoveryAction::Resize: return "resize";
      case RecoveryAction::FailedOver: return "failed_over";
      case RecoveryAction::kCount: break;
    }
    return "?";
}

// ---- Signals ---------------------------------------------------------------

void
addUpdateEvents(HealthSignals &signals, const UpdateOutcome &outcome)
{
    signals.tcamOverflows += outcome.tcamOverflows;
    signals.setupRetries += outcome.setupRetries;
    signals.parityRecoveries += outcome.parityRecoveries;
    signals.slowPathRejected += outcome.slowPathRejections;
}

void
setOccupancies(HealthSignals &signals, const ChiselEngine &engine)
{
    auto fraction = [](double used, double capacity) {
        return capacity > 0 ? used / capacity : 0.0;
    };
    const ChiselConfig &config = engine.config();
    signals.slowPathOccupancy =
        fraction(engine.slowPathCount(), config.slowPathCapacity);
    signals.spillOccupancy =
        fraction(engine.spillCount(), config.spillCapacity);
    signals.dirtyOccupancy =
        fraction(engine.dirtyCount(), double(config.dirtyBudgetPerCell) *
                                          double(engine.cellCount()));
}

// ---- Watchdog --------------------------------------------------------------

void
HealthMonitor::beginUpdate(Clock::time_point now)
{
    updateStartNs_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now.time_since_epoch())
            .count(),
        std::memory_order_release);
}

void
HealthMonitor::endUpdate()
{
    updateStartNs_.store(0, std::memory_order_release);
}

bool
HealthMonitor::watchdogExpired(Clock::time_point now) const
{
    int64_t start = updateStartNs_.load(std::memory_order_acquire);
    if (start == 0)
        return false;
    int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now.time_since_epoch())
            .count();
    return now_ns - start >
           std::chrono::duration_cast<std::chrono::nanoseconds>(
               config_.updateDeadline)
               .count();
}

// ---- Sampling --------------------------------------------------------------

HealthMonitor::Severity
HealthMonitor::classify(const HealthSignals &s) const
{
    // Hard losses and watchdog overruns are critical outright; the
    // occupancy signals carry warn and critical thresholds; isolated
    // fallback-tier events (overflow, retry) only warn — they
    // are the ladder working as designed.
    if (s.watchdogExpired || s.slowPathRejected > 0 ||
        s.parityRecoveries > 0 ||
        s.slowPathOccupancy >= kSlowPathCritical ||
        s.spillOccupancy >= kSpillCritical ||
        s.dirtyOccupancy >= kDirtyCritical)
        return Severity::Critical;
    if (s.tcamOverflows > 0 || s.setupRetries > 0 ||
        s.slowPathOccupancy >= kSlowPathWarn ||
        s.spillOccupancy >= kSpillWarn ||
        s.dirtyOccupancy >= kDirtyWarn)
        return Severity::Warn;
    return Severity::Ok;
}

void
HealthMonitor::transition(HealthState to)
{
    HealthState from = state();
    state_.store(static_cast<uint8_t>(to), std::memory_order_release);
    ++transitions_;
    CHISEL_FLIGHT_EVENT(HealthTransition, to,
                        static_cast<uint64_t>(from), transitions_);
    ++entered_[static_cast<size_t>(to)];
    warnStreak_ = critStreak_ = okStreak_ = stateCrit_ = 0;

    switch (to) {
      case HealthState::Stressed:
        pending_ = RecoveryAction::PurgeDirty;
        break;
      case HealthState::Degraded:
        pending_ = RecoveryAction::Scrub;
        break;
      case HealthState::Quarantined:
        pending_ = RecoveryAction::Resetup;
        quarantineRung_ = 1;
        break;
      case HealthState::Healthy:
      case HealthState::Recovering:
        pending_ = RecoveryAction::None;
        quarantineRung_ = 0;
        break;
      case HealthState::kCount:
        break;
    }
}

HealthState
HealthMonitor::sample(const HealthSignals &signals)
{
    ++samples_;
    if (signals.watchdogExpired)
        ++watchdogTrips_;

    Severity sev = classify(signals);
    warnStreak_ = sev != Severity::Ok ? warnStreak_ + 1 : 0;
    critStreak_ = sev == Severity::Critical ? critStreak_ + 1 : 0;
    okStreak_ = sev == Severity::Ok ? okStreak_ + 1 : 0;
    if (sev == Severity::Critical)
        ++stateCrit_;

    HealthState s = state();

    // A watchdog overrun is unambiguous — the update path itself is
    // wedged — so it bypasses the streak hysteresis.
    if (signals.watchdogExpired && s != HealthState::Quarantined) {
        transition(HealthState::Quarantined);
        return state();
    }

    switch (s) {
      case HealthState::Healthy:
        if (critStreak_ >= kDegradeAfter)
            transition(HealthState::Degraded);
        else if (warnStreak_ >= kStressAfter)
            transition(HealthState::Stressed);
        break;
      case HealthState::Stressed:
        if (critStreak_ >= kDegradeAfter)
            transition(HealthState::Degraded);
        else if (okStreak_ >= 1)
            transition(HealthState::Recovering);
        break;
      case HealthState::Degraded:
        if (stateCrit_ >= kQuarantineAfter)
            transition(HealthState::Quarantined);
        else if (okStreak_ >= 1)
            transition(HealthState::Recovering);
        break;
      case HealthState::Quarantined:
        if (okStreak_ >= 1) {
            transition(HealthState::Recovering);
        } else if (stateCrit_ >= kQuarantineAfter) {
            // Still critical after the last action: escalate to the
            // next rung (resetup, then snapshot restore; the ladder
            // then repeats from resetup rather than giving up).
            stateCrit_ = 0;
            pending_ = quarantineRung_ == 1
                           ? RecoveryAction::SnapshotRestore
                           : RecoveryAction::Resetup;
            quarantineRung_ = quarantineRung_ == 1 ? 0 : 1;
        }
        break;
      case HealthState::Recovering:
        if (critStreak_ >= kDegradeAfter)
            transition(HealthState::Degraded);
        else if (okStreak_ >= kRecoverAfter)
            transition(HealthState::Healthy);
        break;
      case HealthState::kCount:
        break;
    }

    // Capacity pressure runs orthogonally to the severity ladder: the
    // tables being *full* (spill/slow-path residency, setup-retry
    // exhaustion) is growth, which no scrub or purge relieves.  After
    // resizeAfter consecutive pressure samples a Resize is armed,
    // overriding whatever rung the ladder chose — growing the engine
    // also clears the symptoms the ladder was reacting to.
    bool capacity_pressure =
        signals.spillOccupancy >= kSpillWarn ||
        signals.slowPathOccupancy >= kSlowPathWarn ||
        signals.setupRetries > 0;
    capacityStreak_ = capacity_pressure ? capacityStreak_ + 1 : 0;
    if (capacityCooldown_ > 0) {
        --capacityCooldown_;
    } else if (config_.resizeAfter > 0 &&
               capacityStreak_ >= config_.resizeAfter) {
        capacityStreak_ = 0;
        capacityCooldown_ = config_.resizeCooldown;
        pending_ = RecoveryAction::Resize;
    }

    return state();
}

// ---- Recovery actions ------------------------------------------------------

RecoveryAction
HealthMonitor::takeAction()
{
    RecoveryAction a = pending_;
    pending_ = RecoveryAction::None;
    if (a != RecoveryAction::None)
        ++actions_[static_cast<size_t>(a)];
    return a;
}

void
HealthMonitor::actionCompleted(RecoveryAction action, bool success)
{
    CHISEL_FLIGHT_EVENT(RecoveryAction, action, success ? 1 : 0, 0);
    if (success || state() != HealthState::Quarantined)
        return;
    // A failed/skipped quarantine action arms the next rung at once
    // rather than waiting out another critical streak.
    if (action == RecoveryAction::Resetup && quarantineRung_ == 1) {
        pending_ = RecoveryAction::SnapshotRestore;
        quarantineRung_ = 0;
    } else if (action == RecoveryAction::SnapshotRestore) {
        pending_ = RecoveryAction::Resetup;
        quarantineRung_ = 1;
    }
}

void
HealthMonitor::recordFailover()
{
    ++actions_[static_cast<size_t>(RecoveryAction::FailedOver)];
    CHISEL_FLIGHT_EVENT(RecoveryAction, RecoveryAction::FailedOver, 1,
                        0);
    // A promoted standby serves immediately, but on probation: it
    // must produce kRecoverAfter clean samples before claiming
    // Healthy, exactly like a node leaving Quarantined.
    if (state() != HealthState::Recovering)
        transition(HealthState::Recovering);
    // transition() arms no action for Recovering; clear anything a
    // prior state left pending — the failover superseded it.
    pending_ = RecoveryAction::None;
}

// ---- Introspection ---------------------------------------------------------

uint64_t
HealthMonitor::entered(HealthState s) const
{
    return entered_[static_cast<size_t>(s)];
}

uint64_t
HealthMonitor::actionsTaken(RecoveryAction a) const
{
    return actions_[static_cast<size_t>(a)];
}

void
HealthMonitor::publish(telemetry::MetricRegistry &registry,
                       const std::string &prefix) const
{
    registry.gauge(prefix + ".state")
        .set(static_cast<double>(state_.load(std::memory_order_acquire)));
    registry.gauge(prefix + ".transitions")
        .set(static_cast<double>(transitions_));
    registry.gauge(prefix + ".samples")
        .set(static_cast<double>(samples_));
    registry.gauge(prefix + ".watchdog_trips")
        .set(static_cast<double>(watchdogTrips_));
    for (size_t i = 0; i < kHealthStateCount; ++i) {
        auto s = static_cast<HealthState>(i);
        registry.gauge(prefix + ".entered." + healthStateName(s))
            .set(static_cast<double>(entered_[i]));
    }
    for (size_t i = 1; i < kRecoveryActionCount; ++i) {
        auto a = static_cast<RecoveryAction>(i);
        registry.gauge(prefix + ".actions." + recoveryActionName(a))
            .set(static_cast<double>(actions_[i]));
    }
}

} // namespace chisel::health
