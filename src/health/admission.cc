#include "health/admission.hh"

#include <algorithm>

namespace chisel::health {

AdmissionController::AdmissionController(const AdmissionOptions &options)
    : options_(options)
{
    tokens_[0] = options.tokenBurst;
    tokens_[1] = options.tokenBurst;
}

void
AdmissionController::refill(Clock::time_point now)
{
    if (!refilled_) {
        lastRefill_ = now;
        refilled_ = true;
        return;
    }
    double dt = std::chrono::duration<double>(now - lastRefill_).count();
    if (dt <= 0.0)
        return;
    lastRefill_ = now;
    const double rates[2] = {options_.announceTokensPerSec,
                             options_.withdrawTokensPerSec};
    for (int c = 0; c < 2; ++c) {
        if (rates[c] <= 0.0)
            continue;
        tokens_[c] =
            std::min(options_.tokenBurst, tokens_[c] + rates[c] * dt);
    }
}

bool
AdmissionController::takeToken(UpdateKind kind)
{
    double rate = kind == UpdateKind::Announce
                      ? options_.announceTokensPerSec
                      : options_.withdrawTokensPerSec;
    if (rate <= 0.0)
        return true;   // Class not metered.
    double &bucket = tokens_[kind == UpdateKind::Announce ? 0 : 1];
    if (bucket < 1.0)
        return false;
    bucket -= 1.0;
    return true;
}

bool
AdmissionController::tryAdmit(UpdateKind kind, Clock::time_point now)
{
    if (!options_.enabled) {
        ++counters_.admitted;
        return true;
    }
    refill(now);
    if (!takeToken(kind)) {
        ++counters_.deferred;
        return false;
    }
    ++counters_.admitted;
    return true;
}

} // namespace chisel::health
