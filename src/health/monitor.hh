/**
 * @file
 * Self-healing health-state machine for the Chisel control plane.
 *
 * HealthMonitor decides when the engine's recovery mechanisms run.  It
 * folds the health signals (slow-path, spill and dirty-budget
 * occupancy, TCAM overflows, setup retries, parity recoveries, a
 * watchdog on update application) into a five-state machine
 *
 *     Healthy -> Stressed -> Degraded -> Quarantined -> Recovering
 *
 * with hysteresis on every transition, and recommends recovery
 * actions that escalate through the existing ladder:
 *
 *     state entered   action
 *     Stressed        purge dirty groups (reclaim Filter slots)
 *     Degraded        full parity scrub
 *     Quarantined     resetup; if still quarantined, snapshot restore
 *
 * The monitor only *recommends*; the owner (ConcurrentChisel, or
 * update_replay's single engine) executes actions under its own write
 * exclusion and reports completion.  Sampling is explicit — callers
 * feed a HealthSignals every tick — so tests drive the machine
 * deterministically with synthetic signals.
 *
 * See docs/robustness.md for the state diagram and the full
 * signal -> state -> action degradation matrix.
 */

#ifndef CHISEL_HEALTH_MONITOR_HH
#define CHISEL_HEALTH_MONITOR_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "core/update_outcome.hh"

namespace chisel { class ChiselEngine; }
namespace chisel::telemetry { class MetricRegistry; }

namespace chisel::health {

/** The five health states (order = severity; kCount is a sentinel). */
enum class HealthState : uint8_t
{
    Healthy,      ///< All signals nominal.
    Stressed,     ///< Sustained warnings: pressure, no degradation.
    Degraded,     ///< Critical signals: fallback tiers in active use.
    Quarantined,  ///< Recovery actions in progress; feed suspect.
    Recovering,   ///< Signals clean again; probation before Healthy.
    kCount,
};

constexpr size_t kHealthStateCount =
    static_cast<size_t>(HealthState::kCount);

const char *healthStateName(HealthState s);

/** Recovery actions, in escalation order (docs/robustness.md). */
enum class RecoveryAction : uint8_t
{
    None,
    PurgeDirty,       ///< ConcurrentChisel::purgeDirtyNow.
    Scrub,            ///< Full parity scrub (ConcurrentChisel::scrubNow).
    Resetup,          ///< Rebuild the engine from the live route set.
    SnapshotRestore,  ///< Last resort: reload a known-good snapshot.
    Resize,           ///< Capacity pressure: re-plan a grown engine
                      ///< off the serving path and pointer-flip it in
                      ///< (ConcurrentChisel::resizeNow).  Armed by the
                      ///< capacity streak, orthogonally to the state
                      ///< ladder — pressure is growth, not corruption,
                      ///< so no amount of scrubbing relieves it.
    FailedOver,       ///< The node itself was replaced: a warm standby
                      ///< promoted to leader (src/replica/).  Recorded
                      ///< by recordFailover(), never recommended by
                      ///< the sampler — losing the node is not a
                      ///< condition the local ladder can repair.
    kCount,
};

constexpr size_t kRecoveryActionCount =
    static_cast<size_t>(RecoveryAction::kCount);

const char *recoveryActionName(RecoveryAction a);

/**
 * One sampling period's worth of signals.  Occupancies are fractions
 * in [0, 1]; event counts are the events the writer published since
 * the previous sample, not deltas of absolute counters.
 */
struct HealthSignals
{
    double slowPathOccupancy = 0.0;  ///< resident / slow-path capacity.
    double spillOccupancy = 0.0;     ///< spill TCAM used / capacity.
    double dirtyOccupancy = 0.0;     ///< dirty groups / dirty budget.
    uint64_t tcamOverflows = 0;      ///< Spill-TCAM refusals.
    uint64_t setupRetries = 0;       ///< Index reseed retries.
    uint64_t parityRecoveries = 0;   ///< Cells recovered from soft errors.
    uint64_t slowPathRejected = 0;   ///< Hard route drops (always critical).
    bool watchdogExpired = false;    ///< An update overran its deadline.
};

/** Add one applied update's events to @p signals. */
void addUpdateEvents(HealthSignals &signals, const UpdateOutcome &outcome);

/** Set @p signals' occupancies from @p engine and its config. */
void setOccupancies(HealthSignals &signals, const ChiselEngine &engine);

/** Severity thresholds, as fractions of the configured capacities. */
constexpr double kSlowPathWarn = 0.05, kSlowPathCritical = 0.50;
constexpr double kSpillWarn = 0.80, kSpillCritical = 0.98;
constexpr double kDirtyWarn = 0.75, kDirtyCritical = 0.99;

/** Consecutive warn-or-worse samples before Healthy -> Stressed. */
constexpr unsigned kStressAfter = 2;
/** Consecutive critical samples before -> Degraded. */
constexpr unsigned kDegradeAfter = 2;
/** Further critical samples in Degraded before Quarantined. */
constexpr unsigned kQuarantineAfter = 3;
/** Consecutive clean samples before Recovering -> Healthy. */
constexpr unsigned kRecoverAfter = 3;

/** The monitor's settable values: capacity resizes and the watchdog. */
struct MonitorConfig
{
    /**
     * Consecutive capacity-pressure samples (spill/slow-path
     * occupancy past warn, or setup retries) before a Resize is
     * armed.  0 disables capacity-driven resizes.
     */
    unsigned resizeAfter = 3;

    /**
     * Samples after arming a Resize during which another cannot arm.
     * A resize is a full rebuild: its own setup retries (and the lag
     * before occupancy reflects the grown capacity) would otherwise
     * read as fresh pressure and thrash the engine through
     * back-to-back rebuilds.
     */
    unsigned resizeCooldown = 25;

    /** Watchdog: one update taking longer than this is critical. */
    std::chrono::milliseconds updateDeadline{2000};
};

/**
 * The state machine.  sample()/recommendedAction()/actionCompleted()
 * must be externally serialized (ConcurrentChisel uses a dedicated
 * mutex); beginUpdate()/endUpdate()/watchdogExpired() and all const
 * accessors are lock-free and safe from any thread.
 */
class HealthMonitor
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit HealthMonitor(const MonitorConfig &config = {})
        : config_(config)
    {}

    // ---- Watchdog (stamped around every update application) --------

    void beginUpdate(Clock::time_point now = Clock::now());
    void endUpdate();

    /** True if an update has been in flight past the deadline. */
    bool watchdogExpired(Clock::time_point now = Clock::now()) const;

    // ---- Sampling --------------------------------------------------

    /** Fold one signal sample in; @return the (possibly new) state. */
    HealthState sample(const HealthSignals &signals);

    HealthState
    state() const
    {
        return static_cast<HealthState>(
            state_.load(std::memory_order_acquire));
    }

    const char *stateName() const { return healthStateName(state()); }

    // ---- Recovery actions ------------------------------------------

    /**
     * The pending recovery action, consumed: a second call returns
     * None until the next transition (or escalation) arms another.
     */
    RecoveryAction takeAction();

    /**
     * Report an executed action.  A failed (or skipped) action in
     * Quarantined re-arms the next rung of the ladder.
     */
    void actionCompleted(RecoveryAction action, bool success);

    /**
     * Record a warm-standby promotion (docs/replication.md): counts a
     * FailedOver action, leaves a flight record, and moves the
     * machine to Recovering — a freshly promoted leader serves, but
     * on probation until kRecoverAfter clean samples pass.
     */
    void recordFailover();

    // ---- Introspection ---------------------------------------------

    uint64_t transitions() const { return transitions_; }
    uint64_t entered(HealthState s) const;
    uint64_t actionsTaken(RecoveryAction a) const;
    uint64_t watchdogExpirations() const { return watchdogTrips_; }
    uint64_t samples() const { return samples_; }

    /**
     * Publish state + transition counters as gauges/counters under
     * @p prefix (default "health") — the --metrics-json surface.
     */
    void publish(telemetry::MetricRegistry &registry,
                 const std::string &prefix = "health") const;

  private:
    enum class Severity { Ok, Warn, Critical };

    Severity classify(const HealthSignals &signals) const;
    void transition(HealthState to);

    MonitorConfig config_;

    std::atomic<uint8_t> state_{
        static_cast<uint8_t>(HealthState::Healthy)};

    unsigned warnStreak_ = 0;   ///< Consecutive warn-or-worse samples.
    unsigned critStreak_ = 0;   ///< Consecutive critical samples.
    unsigned okStreak_ = 0;     ///< Consecutive clean samples.
    unsigned stateCrit_ = 0;    ///< Critical samples in current state.
    /** Consecutive capacity-pressure samples (survives transitions:
     * growth pressure does not reset because the ladder moved). */
    unsigned capacityStreak_ = 0;
    /** Samples left before capacity pressure may arm again. */
    unsigned capacityCooldown_ = 0;

    RecoveryAction pending_ = RecoveryAction::None;
    /** Next Quarantined-ladder rung: 0 = Resetup, 1 = SnapshotRestore. */
    unsigned quarantineRung_ = 0;

    uint64_t samples_ = 0;
    uint64_t transitions_ = 0;
    std::array<uint64_t, kHealthStateCount> entered_{};
    std::array<uint64_t, kRecoveryActionCount> actions_{};
    uint64_t watchdogTrips_ = 0;

    /** ns-since-epoch the in-flight update started; 0 = idle. */
    std::atomic<int64_t> updateStartNs_{0};
};

} // namespace chisel::health

#endif // CHISEL_HEALTH_MONITOR_HH
