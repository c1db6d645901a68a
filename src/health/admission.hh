/**
 * @file
 * Token-bucket admission for the RPC front end's update path
 * (docs/robustness.md).
 *
 * ChiselService (src/net/server.hh) meters every update through a
 * token bucket per update class before it reaches the plane:
 * announces and withdraws refill independently at their configured
 * rates, up to a common burst depth.  An update whose class is out of
 * tokens is refused at once and answered Overloaded, which the client
 * may retry; the service never parks an update it has already
 * promised a reply for.
 *
 * Single-threaded by contract: the service's event-loop thread is the
 * only caller.
 */

#ifndef CHISEL_HEALTH_ADMISSION_HH
#define CHISEL_HEALTH_ADMISSION_HH

#include <chrono>

#include "concurrent/relaxed.hh"
#include "route/updates.hh"

namespace chisel::health {

/** Admission-control knobs (all deterministic except token refill). */
struct AdmissionOptions
{
    /** Master switch; disabled, tryAdmit() admits everything. */
    bool enabled = false;

    /**
     * Token-bucket rates per update class, in updates/second; 0
     * disables metering for that class.  Bursts up to tokenBurst are
     * admitted at line rate.
     */
    double announceTokensPerSec = 0.0;
    double withdrawTokensPerSec = 0.0;

    /** Bucket depth (maximum burst admitted without refusing). */
    double tokenBurst = 256.0;
};

/**
 * Monotonic admission statistics.  Relaxed atomics: written by the
 * caller's thread only, but readable from any thread.
 */
struct AdmissionCounters
{
    concurrent::RelaxedU64 admitted;  ///< Passed through.
    concurrent::RelaxedU64 deferred;  ///< Refused: class out of tokens.
};

/** The per-class token-bucket filter.  See file comment for policy. */
class AdmissionController
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit AdmissionController(const AdmissionOptions &options);

    bool enabled() const { return options_.enabled; }

    /**
     * Refill the buckets and take one token for @p kind; @return
     * false when the class is out of tokens (counted as a deferral).
     */
    bool tryAdmit(UpdateKind kind, Clock::time_point now = Clock::now());

    const AdmissionCounters &counters() const { return counters_; }

  private:
    /** Refill both buckets from elapsed wall time. */
    void refill(Clock::time_point now);

    /** Take one token for @p kind; true if the class is unmetered. */
    bool takeToken(UpdateKind kind);

    AdmissionOptions options_;

    double tokens_[2] = {0.0, 0.0};     ///< [Announce, Withdraw].
    Clock::time_point lastRefill_{};
    bool refilled_ = false;

    AdmissionCounters counters_;
};

} // namespace chisel::health

#endif // CHISEL_HEALTH_ADMISSION_HH
