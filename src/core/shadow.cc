#include "core/shadow.hh"

#include <algorithm>
#include <cassert>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace chisel {

ShadowGroup::ShadowGroup(unsigned base, unsigned stride)
    : base_(base), stride_(stride)
{
    panicIf(stride > 16, "ShadowGroup stride too large");
}

bool
ShadowGroup::announce(const Prefix &prefix, NextHop next_hop)
{
    panicIf(prefix.length() < base_ ||
            prefix.length() > base_ + stride_,
            "ShadowGroup member length outside cell range");
    auto [it, inserted] = members_.insert_or_assign(prefix, next_hop);
    (void)it;
    return inserted;
}

std::optional<NextHop>
ShadowGroup::withdraw(const Prefix &prefix)
{
    auto it = members_.find(prefix);
    if (it == members_.end())
        return std::nullopt;
    NextHop nh = it->second;
    members_.erase(it);
    return nh;
}

std::optional<NextHop>
ShadowGroup::find(const Prefix &prefix) const
{
    auto it = members_.find(prefix);
    if (it == members_.end())
        return std::nullopt;
    return it->second;
}

void
ShadowGroup::computeImage(GroupImage &out) const
{
    // Per slot first — the relative length of the longest covering
    // member (kUncovered if none) and its next hop — then compacted in
    // place to one entry per covered slot, in ascending slot order.
    constexpr uint8_t kUncovered = 0xFF;
    const uint64_t slots = uint64_t(1) << stride_;
    out.lengths.assign(slots, kUncovered);
    out.hops.assign(slots, kNoRoute);

    for (const auto &[p, nh] : members_) {
        uint8_t rel = static_cast<uint8_t>(p.length() - base_);
        uint64_t span = uint64_t(1) << (stride_ - rel);
        uint64_t start = (rel == 0) ? 0
                                    : (p.suffixBits(base_) << (stride_ - rel));
        for (uint64_t v = start; v < start + span; ++v) {
            if (out.lengths[v] == kUncovered || rel > out.lengths[v]) {
                out.lengths[v] = rel;
                out.hops[v] = nh;
            }
        }
    }

    out.bits.assign(std::max<uint64_t>(1, slots / 64), 0);
    size_t covered = 0;
    for (uint64_t v = 0; v < slots; ++v) {
        if (out.lengths[v] == kUncovered)
            continue;
        out.bits[v / 64] |= uint64_t(1) << (v % 64);
        out.hops[covered] = out.hops[v];
        out.lengths[covered] = out.lengths[v];
        ++covered;
    }
    out.hops.resize(covered);
    out.lengths.resize(covered);
}

std::optional<Route>
ShadowGroup::longestCover(uint64_t slot) const
{
    assert(slot < (uint64_t(1) << stride_));
    std::optional<Route> best;
    for (const auto &[p, nh] : members_) {
        unsigned rel = p.length() - base_;
        uint64_t suffix = (rel == 0) ? 0 : p.suffixBits(base_);
        if ((slot >> (stride_ - rel)) == suffix) {
            if (!best || p.length() > best->prefix.length())
                best = Route{p, nh};
        }
    }
    return best;
}

} // namespace chisel
