#include "sim/stats.hh"

#include <cstdio>

#include "common/clock.hh"

namespace chisel {

ScalarStat::ScalarStat(std::string name) : name_(std::move(name))
{
}

void
ScalarStat::sample(double value)
{
    ++count_;
    sum_ += value;
    if (value < min_)
        min_ = value;
    if (value > max_)
        max_ = value;
}

double
ScalarStat::mean() const
{
    if (count_ == 0)
        return 0.0;
    return sum_ / static_cast<double>(count_);
}

std::string
ScalarStat::str() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s: mean=%.4g min=%.4g max=%.4g n=%llu",
                  name_.c_str(), mean(),
                  count_ ? min_ : 0.0, count_ ? max_ : 0.0,
                  static_cast<unsigned long long>(count_));
    return buf;
}

void
ScalarStat::reset()
{
    count_ = 0;
    sum_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
}

StopWatch::StopWatch()
{
    reset();
}

void
StopWatch::reset()
{
    startNs_ = monotonicNowNs();
}

uint64_t
StopWatch::ns() const
{
    return monotonicNowNs() - startNs_;
}

double
StopWatch::seconds() const
{
    return static_cast<double>(ns()) * 1e-9;
}

} // namespace chisel
