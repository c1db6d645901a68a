/**
 * @file
 * Lightweight statistics for experiments: a running scalar (count,
 * mean, min, max) with formatted output, and a monotonic interval
 * timer.  Latency histograms live in the telemetry registry
 * (telemetry/metrics.hh).
 */

#ifndef CHISEL_SIM_STATS_HH
#define CHISEL_SIM_STATS_HH

#include <cstdint>
#include <limits>
#include <string>

namespace chisel {

/**
 * Running scalar statistic: count, sum, min, max, mean.
 */
class ScalarStat
{
  public:
    explicit ScalarStat(std::string name = "");

    void sample(double value);

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const;
    double min() const { return min_; }
    double max() const { return max_; }

    const std::string &name() const { return name_; }

    /** "name: mean=... min=... max=... n=..." */
    std::string str() const;

    void reset();

  private:
    std::string name_;
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Interval timer for throughput and latency measurements.
 *
 * Explicitly monotonic: both reset() and the readers sample
 * monotonicNowNs() (steady_clock), so wall-clock adjustments can
 * never yield negative or skewed intervals.  ns() is the full-
 * precision reading; seconds() is a convenience for rates.
 */
class StopWatch
{
  public:
    StopWatch();

    /** Restart the interval. */
    void reset();

    /** Nanoseconds since construction or the last reset(). */
    uint64_t ns() const;

    /** Seconds since construction or the last reset(). */
    double seconds() const;

  private:
    uint64_t startNs_;
};

} // namespace chisel

#endif // CHISEL_SIM_STATS_HH
