/**
 * @file
 * Shadow copy of the collapsed-prefix groups of one cell (Section 4.4).
 *
 * The update engine maintains, in software, the set of original
 * prefixes behind each collapsed prefix.  From that set it derives
 * the group's hardware image — the 2^stride bit-vector and the
 * packed next-hop block — applying longest-prefix-match semantics
 * within the group: each suffix slot takes the next hop of the
 * longest member covering it, exactly the arbitration the withdraw
 * pseudocode of Figure 7 performs ("find the longest prefix p'''
 * ... the next hop corresponding to b must be changed to the next
 * hop of p'''").
 *
 * The member sets are kept flat.  A member is a (position, next hop)
 * pair; a group's members sit sorted by position in one block of a
 * per-cell pool, and blocks come in power-of-two size classes with
 * free lists (BlockAllocator).  A group is addressed by its Filter
 * slot; its collapsed prefix is not stored here (the Index Table's
 * registry holds it), so turning a member back into a Prefix takes
 * the group's key.
 */

#ifndef CHISEL_CORE_SHADOW_HH
#define CHISEL_CORE_SHADOW_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/block_allocator.hh"
#include "route/table.hh"

namespace chisel {

/** The hardware image of one group, derived from its members. */
struct GroupImage
{
    /** 2^stride bits packed LSB-first into 64-bit words. */
    std::vector<uint64_t> bits;

    /** One next hop per set bit, in ascending slot order. */
    std::vector<NextHop> hops;

    /**
     * Per set bit, the length of the covering member minus the group
     * base: the matched-length offset stored beside each next hop.
     */
    std::vector<uint8_t> lengths;

    /** True if no slot is covered (group is empty). */
    bool
    empty() const
    {
        return hops.empty();
    }
};

/** One member of a group. */
struct ShadowMember
{
    /**
     * The member's suffix left-aligned to the stride, then its length
     * minus the group base in the low kLengthBits bits.  Within one
     * group the numeric order of positions is Prefix order.
     */
    uint32_t position;
    NextHop nextHop;
};

/**
 * The member sets of the groups of one cell, by Filter slot.
 */
class ShadowGroups
{
  public:
    /** Low bits of a position holding the length offset (stride <= 16). */
    static constexpr unsigned kLengthBits = 5;

    /**
     * @param base Collapsed (cell base) length.
     * @param stride Collapse stride; members have lengths in
     *        [base, base + stride].
     * @param slots Groups addressable: slots [0, slots).
     */
    ShadowGroups(unsigned base, unsigned stride, size_t slots);

    /** Position of @p prefix, a member of any group of this cell. */
    uint32_t position(const Prefix &prefix) const;

    /** The member at @p position of the group keyed @p ckey. */
    Prefix prefix(const Key128 &ckey, uint32_t position) const;

    /** Length of the member at @p position. */
    unsigned
    length(uint32_t position) const
    {
        return base_ + (position & ((1u << kLengthBits) - 1));
    }

    /** Insert or overwrite a member of @p slot.  @return true if new. */
    bool announce(uint32_t slot, const Prefix &prefix, NextHop next_hop);

    /** Remove a member.  @return its next hop if it was present. */
    std::optional<NextHop> withdraw(uint32_t slot, const Prefix &prefix);

    /** Exact member query. */
    std::optional<NextHop> find(uint32_t slot, const Prefix &prefix) const;

    /**
     * Install @p members, sorted by strictly increasing position, as
     * the members of @p slot, which must hold none.
     */
    void assign(uint32_t slot, std::span<const ShadowMember> members);

    /** Drop every member of @p slot. */
    void clear(uint32_t slot);

    bool empty(uint32_t slot) const { return refs_[slot].count == 0; }

    size_t memberCount(uint32_t slot) const { return refs_[slot].count; }

    /** The members of @p slot, sorted by position. */
    std::span<const ShadowMember>
    members(uint32_t slot) const
    {
        const Ref &ref = refs_[slot];
        return {pool_.data() + ref.first, ref.count};
    }

    /**
     * Derive the hardware image of @p slot: per suffix slot, the next
     * hop of the longest covering member.
     */
    GroupImage
    computeImage(uint32_t slot) const
    {
        GroupImage image;
        computeImage(slot, image);
        return image;
    }

    /** computeImage() into @p out, reusing its buffers. */
    void computeImage(uint32_t slot, GroupImage &out) const;

    /**
     * The longest member of @p slot covering suffix value @p v, if any
     * — the in-group LPM behind the soft (parity-error) lookup and the
     * cross-checks of the stored matched-length offsets.
     */
    std::optional<ShadowMember> longestCover(uint32_t slot,
                                             uint64_t v) const;

  private:
    /** Where a group's members sit in the pool. */
    struct Ref
    {
        uint32_t first = 0;
        uint32_t count = 0;
    };

    /** Move @p slot's members to a block for @p count, keeping them. */
    void resize(uint32_t slot, uint32_t count);

    unsigned base_;
    unsigned stride_;
    std::vector<Ref> refs_;
    std::vector<ShadowMember> pool_;
    BlockAllocator blocks_;
};

} // namespace chisel

#endif // CHISEL_CORE_SHADOW_HH
