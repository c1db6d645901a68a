#include "core/shadow.hh"

#include <algorithm>
#include <cassert>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace chisel {

namespace {

constexpr uint32_t kLengthMask = (1u << ShadowGroups::kLengthBits) - 1;

/** First member of @p members at or after @p position. */
const ShadowMember *
lowerBound(std::span<const ShadowMember> members, uint32_t position)
{
    return std::lower_bound(members.data(),
                            members.data() + members.size(), position,
                            [](const ShadowMember &m, uint32_t p) {
                                return m.position < p;
                            });
}

} // anonymous namespace

ShadowGroups::ShadowGroups(unsigned base, unsigned stride, size_t slots)
    : base_(base), stride_(stride), refs_(slots)
{
    panicIf(stride > 16, "ShadowGroups stride too large");
}

uint32_t
ShadowGroups::position(const Prefix &prefix) const
{
    panicIf(prefix.length() < base_ ||
            prefix.length() > base_ + stride_,
            "ShadowGroups member length outside cell range");
    unsigned rel = prefix.length() - base_;
    uint64_t aligned =
        rel == 0 ? 0 : prefix.suffixBits(base_) << (stride_ - rel);
    return static_cast<uint32_t>(aligned << kLengthBits) | rel;
}

Prefix
ShadowGroups::prefix(const Key128 &ckey, uint32_t position) const
{
    unsigned rel = position & kLengthMask;
    Key128 bits = ckey;
    if (rel > 0)
        bits.deposit(base_, rel, (position >> kLengthBits) >> (stride_ - rel));
    return Prefix(bits, base_ + rel);
}

void
ShadowGroups::resize(uint32_t slot, uint32_t count)
{
    Ref &ref = refs_[slot];
    if (ref.count > 0 && count > 0 &&
        BlockAllocator::grantedSize(ref.count) ==
            BlockAllocator::grantedSize(count)) {
        ref.count = count;
        return;
    }
    uint32_t first = 0;
    if (count > 0) {
        first = blocks_.allocate(count);
        if (blocks_.end() > pool_.size())
            pool_.resize(blocks_.end());
        std::copy_n(pool_.begin() + ref.first, std::min(ref.count, count),
                    pool_.begin() + first);
    }
    if (ref.count > 0)
        blocks_.free(ref.first, ref.count);
    ref.first = first;
    ref.count = count;
}

bool
ShadowGroups::announce(uint32_t slot, const Prefix &prefix,
                       NextHop next_hop)
{
    uint32_t pos = position(prefix);
    std::span<const ShadowMember> m = members(slot);
    const size_t i = lowerBound(m, pos) - m.data();
    if (i < m.size() && m[i].position == pos) {
        pool_[refs_[slot].first + i].nextHop = next_hop;
        return false;
    }
    const uint32_t count = refs_[slot].count;
    resize(slot, count + 1);
    ShadowMember *data = pool_.data() + refs_[slot].first;
    std::move_backward(data + i, data + count, data + count + 1);
    data[i] = ShadowMember{pos, next_hop};
    return true;
}

std::optional<NextHop>
ShadowGroups::withdraw(uint32_t slot, const Prefix &prefix)
{
    if (prefix.length() < base_ || prefix.length() > base_ + stride_)
        return std::nullopt;
    uint32_t pos = position(prefix);
    std::span<const ShadowMember> m = members(slot);
    const size_t i = lowerBound(m, pos) - m.data();
    if (i == m.size() || m[i].position != pos)
        return std::nullopt;
    NextHop nh = m[i].nextHop;
    ShadowMember *data = pool_.data() + refs_[slot].first;
    std::move(data + i + 1, data + m.size(), data + i);
    resize(slot, static_cast<uint32_t>(m.size() - 1));
    return nh;
}

std::optional<NextHop>
ShadowGroups::find(uint32_t slot, const Prefix &prefix) const
{
    if (prefix.length() < base_ || prefix.length() > base_ + stride_)
        return std::nullopt;
    uint32_t pos = position(prefix);
    std::span<const ShadowMember> m = members(slot);
    const ShadowMember *it = lowerBound(m, pos);
    if (it == m.data() + m.size() || it->position != pos)
        return std::nullopt;
    return it->nextHop;
}

void
ShadowGroups::assign(uint32_t slot, std::span<const ShadowMember> members)
{
    panicIf(!empty(slot), "ShadowGroups::assign over a non-empty group");
    assert(std::adjacent_find(members.begin(), members.end(),
                              [](const ShadowMember &a,
                                 const ShadowMember &b) {
                                  return a.position >= b.position;
                              }) == members.end());
    resize(slot, static_cast<uint32_t>(members.size()));
    std::copy(members.begin(), members.end(),
              pool_.begin() + refs_[slot].first);
}

void
ShadowGroups::clear(uint32_t slot)
{
    resize(slot, 0);
}

void
ShadowGroups::computeImage(uint32_t slot, GroupImage &out) const
{
    // Per slot first — the relative length of the longest covering
    // member (kUncovered if none) and its next hop — then compacted in
    // place to one entry per covered slot, in ascending slot order.
    constexpr uint8_t kUncovered = 0xFF;
    const uint64_t slots = uint64_t(1) << stride_;
    out.lengths.assign(slots, kUncovered);
    out.hops.assign(slots, kNoRoute);

    for (const ShadowMember &m : members(slot)) {
        uint8_t rel = static_cast<uint8_t>(m.position & kLengthMask);
        uint64_t span = uint64_t(1) << (stride_ - rel);
        uint64_t start = m.position >> kLengthBits;
        for (uint64_t v = start; v < start + span; ++v) {
            if (out.lengths[v] == kUncovered || rel > out.lengths[v]) {
                out.lengths[v] = rel;
                out.hops[v] = m.nextHop;
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

std::optional<ShadowMember>
ShadowGroups::longestCover(uint32_t slot, uint64_t v) const
{
    assert(v < (uint64_t(1) << stride_));
    std::optional<ShadowMember> best;
    for (const ShadowMember &m : members(slot)) {
        unsigned rel = m.position & kLengthMask;
        unsigned shift = stride_ - rel;
        if ((v >> shift) == ((m.position >> kLengthBits) >> shift) &&
            (!best || rel > (best->position & kLengthMask)))
            best = m;
    }
    return best;
}

} // namespace chisel
