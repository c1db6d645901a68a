/**
 * @file
 * Shadow copy of a collapsed-prefix group (Section 4.4).
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
 */

#ifndef CHISEL_CORE_SHADOW_HH
#define CHISEL_CORE_SHADOW_HH

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

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

/**
 * The member set of one collapsed group, with image derivation.
 */
class ShadowGroup
{
  public:
    /**
     * @param base Collapsed (cell base) length.
     * @param stride Collapse stride; members have lengths in
     *        [base, base + stride].
     */
    ShadowGroup(unsigned base, unsigned stride);

    /** Insert or overwrite a member.  @return true if new. */
    bool announce(const Prefix &prefix, NextHop next_hop);

    /** Remove a member.  @return its next hop if it was present. */
    std::optional<NextHop> withdraw(const Prefix &prefix);

    /** Exact member query. */
    std::optional<NextHop> find(const Prefix &prefix) const;

    bool empty() const { return members_.empty(); }
    size_t memberCount() const { return members_.size(); }

    /** All members (ordered by prefix). */
    const std::map<Prefix, NextHop> &members() const { return members_; }

    /**
     * Derive the hardware image: per suffix slot, the next hop of the
     * longest covering member.
     */
    GroupImage
    computeImage() const
    {
        GroupImage image;
        computeImage(image);
        return image;
    }

    /** computeImage() into @p out, reusing its buffers. */
    void computeImage(GroupImage &out) const;

    /**
     * The longest member covering suffix slot @p slot, if any — the
     * in-group LPM behind the soft (parity-error) lookup and the
     * cross-checks of the stored matched-length offsets.
     */
    std::optional<Route> longestCover(uint64_t slot) const;

  private:
    unsigned base_;
    unsigned stride_;
    std::map<Prefix, NextHop> members_;
};

} // namespace chisel

#endif // CHISEL_CORE_SHADOW_HH
