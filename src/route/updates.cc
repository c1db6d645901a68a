#include "route/updates.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace chisel {

std::vector<TraceProfile>
standardTraceProfiles()
{
    // Mixes approximating the per-collector bars of Figure 14: all are
    // dominated by withdraws, flaps and next-hop changes; new-prefix
    // announces are a small slice, almost all of which collapse onto
    // existing groups.
    std::vector<TraceProfile> profiles;

    TraceProfile p;
    p.name = "rrc00";
    p.withdraws = 0.36; p.routeFlaps = 0.22; p.nextHopChanges = 0.34;
    p.newPrefixes = 0.08;
    profiles.push_back(p);

    p = TraceProfile{};
    p.name = "rrc01";
    p.withdraws = 0.33; p.routeFlaps = 0.26; p.nextHopChanges = 0.33;
    p.newPrefixes = 0.08;
    profiles.push_back(p);

    p = TraceProfile{};
    p.name = "rrc11";
    p.withdraws = 0.38; p.routeFlaps = 0.18; p.nextHopChanges = 0.36;
    p.newPrefixes = 0.08;
    profiles.push_back(p);

    p = TraceProfile{};
    p.name = "rrc08";
    p.withdraws = 0.30; p.routeFlaps = 0.28; p.nextHopChanges = 0.36;
    p.newPrefixes = 0.06;
    profiles.push_back(p);

    p = TraceProfile{};
    p.name = "rrc06";
    p.withdraws = 0.34; p.routeFlaps = 0.20; p.nextHopChanges = 0.36;
    p.newPrefixes = 0.10;
    profiles.push_back(p);

    return profiles;
}

UpdateTraceGenerator::UpdateTraceGenerator(const RoutingTable &table,
                                           const TraceProfile &profile,
                                           unsigned key_width,
                                           uint64_t seed)
    : profile_(profile), keyWidth_(key_width), rng_(seed)
{
    live_ = table.routes();
    index_.reserve(live_.size());
    for (size_t i = 0; i < live_.size(); ++i)
        index_[live_[i].prefix] = i;

    if (profile_.flapStorm && !live_.empty()) {
        // Hot set: a uniform sample without replacement (partial
        // Fisher-Yates over an index array), so storm victims spread
        // across the table's collapsed groups.
        size_t n = std::min(profile_.stormHotSet, live_.size());
        std::vector<size_t> idx(live_.size());
        for (size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        hot_.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            size_t j = i + rng_.nextBelow(idx.size() - i);
            std::swap(idx[i], idx[j]);
            hot_.push_back(live_[idx[i]]);
        }

        // Zipf CDF over ranks: rank r flaps with weight (r+1)^-s.
        hotCdf_.reserve(n);
        double total = 0.0;
        for (size_t r = 0; r < n; ++r) {
            total += std::pow(double(r + 1), -profile_.stormZipf);
            hotCdf_.push_back(total);
        }
        for (double &c : hotCdf_)
            c /= total;
    }
}

const Route &
UpdateTraceGenerator::randomRoute()
{
    assert(!live_.empty());
    return live_[rng_.nextBelow(live_.size())];
}

void
UpdateTraceGenerator::applyAnnounce(const Prefix &p, NextHop nh)
{
    auto it = index_.find(p);
    if (it != index_.end()) {
        live_[it->second].nextHop = nh;
        return;
    }
    index_[p] = live_.size();
    live_.push_back(Route{p, nh});
}

void
UpdateTraceGenerator::applyWithdraw(const Prefix &p)
{
    auto it = index_.find(p);
    if (it == index_.end())
        return;
    size_t pos = it->second;
    withdrawn_.push_back(live_[pos]);
    // Keep the flap pool bounded; forget the oldest withdrawals.
    if (withdrawn_.size() > 4096)
        withdrawn_.erase(withdrawn_.begin(), withdrawn_.begin() + 2048);
    index_.erase(it);
    if (pos != live_.size() - 1) {
        live_[pos] = live_.back();
        index_[live_[pos].prefix] = pos;
    }
    live_.pop_back();
}

Update
UpdateTraceGenerator::makeWithdraw()
{
    const Route &r = randomRoute();
    Update u{UpdateKind::Withdraw, r.prefix, kNoRoute};
    applyWithdraw(r.prefix);
    return u;
}

Update
UpdateTraceGenerator::makeFlap()
{
    assert(!withdrawn_.empty());
    size_t i = rng_.nextBelow(withdrawn_.size());
    Route r = withdrawn_[i];
    withdrawn_[i] = withdrawn_.back();
    withdrawn_.pop_back();
    applyAnnounce(r.prefix, r.nextHop);
    return Update{UpdateKind::Announce, r.prefix, r.nextHop};
}

Update
UpdateTraceGenerator::makeNextHopChange()
{
    const Route &r = randomRoute();
    NextHop nh = static_cast<NextHop>(
        rng_.nextBelow(profile_.nextHopCount));
    Update u{UpdateKind::Announce, r.prefix, nh};
    applyAnnounce(r.prefix, nh);
    return u;
}

Update
UpdateTraceGenerator::makeNewPrefix()
{
    NextHop nh = static_cast<NextHop>(
        rng_.nextBelow(profile_.nextHopCount));

    for (int attempt = 0; attempt < 64; ++attempt) {
        Prefix candidate;
        if (!live_.empty() && rng_.nextBool(profile_.newPrefixLocality)) {
            // Neighbour of an existing route: flip / append low bits so
            // the new prefix shares the parent's collapsed group.
            const Route &r = randomRoute();
            const Prefix &base = r.prefix;
            if (base.length() < keyWidth_ && rng_.nextBool(0.5)) {
                // More-specific: extend by one or two bits.
                unsigned extra = 1 + (base.length() + 2 <= keyWidth_ &&
                                      rng_.nextBool(0.5) ? 1 : 0);
                uint64_t suffix = rng_.nextBelow(uint64_t(1) << extra);
                candidate = base.extended(suffix, extra);
            } else if (base.length() >= 1) {
                // Sibling: flip the last defined bit.
                Key128 bits = base.bits();
                bits.setBit(base.length() - 1,
                            !bits.bit(base.length() - 1));
                candidate = Prefix(bits, base.length());
            }
        } else {
            // Fresh random prefix with a plausible length.
            unsigned len = static_cast<unsigned>(
                rng_.nextRange(8, std::min(keyWidth_, 32u)));
            if (keyWidth_ > 32)
                len *= 2;
            Key128 bits(rng_.next64(), rng_.next64());
            candidate = Prefix(bits, len);
        }
        if (candidate.length() == 0 || index_.contains(candidate))
            continue;
        applyAnnounce(candidate, nh);
        return Update{UpdateKind::Announce, candidate, nh};
    }
    // Could not synthesise a new prefix (tiny tables); fall back to a
    // next-hop change so the stream keeps flowing.
    return makeNextHopChange();
}

Update
UpdateTraceGenerator::makeStorm()
{
    // Zipf-ranked victim, toggled between present and withdrawn: the
    // stream is a pure announce/withdraw cycle per hot prefix, which
    // is exactly the pattern flap damping is built to absorb.
    double u = rng_.nextDouble();
    size_t i = static_cast<size_t>(
        std::lower_bound(hotCdf_.begin(), hotCdf_.end(), u) -
        hotCdf_.begin());
    if (i >= hot_.size())
        i = hot_.size() - 1;
    const Route &victim = hot_[i];
    if (index_.contains(victim.prefix)) {
        applyWithdraw(victim.prefix);
        return Update{UpdateKind::Withdraw, victim.prefix, kNoRoute};
    }
    applyAnnounce(victim.prefix, victim.nextHop);
    return Update{UpdateKind::Announce, victim.prefix, victim.nextHop};
}

Update
UpdateTraceGenerator::makeMixed()
{
    std::vector<double> weights = {
        live_.empty() ? 0.0 : profile_.withdraws,
        withdrawn_.empty() ? 0.0 : profile_.routeFlaps,
        live_.empty() ? 0.0 : profile_.nextHopChanges,
        profile_.newPrefixes,
    };
    switch (rng_.nextWeighted(weights)) {
      case 0: return makeWithdraw();
      case 1: return makeFlap();
      case 2: return makeNextHopChange();
      default: return makeNewPrefix();
    }
}

Update
UpdateTraceGenerator::next()
{
    if (profile_.flapStorm && !hot_.empty() &&
        !rng_.nextBool(profile_.stormBackground))
        return makeStorm();
    return makeMixed();
}

std::vector<Update>
UpdateTraceGenerator::generate(size_t count)
{
    std::vector<Update> out;
    out.reserve(count);
    for (size_t i = 0; i < count; ++i)
        out.push_back(next());
    return out;
}

} // namespace chisel
