/**
 * @file
 * Per-prefix TTL deadlines (docs/robustness.md, "Route lifecycle").
 *
 * The TTL index is deliberately *not* part of the lookup path: it is
 * bookkeeping consulted only by the garbage-collection tick on the
 * maintenance thread.  Expiry is therefore lazy — a route past its
 * deadline keeps resolving until the GC retires it with a
 * journal-visible Expire update — which bounds staleness by the GC
 * interval while keeping lookups wait-free and every removal
 * replayable.
 *
 * Time is a logical millisecond clock owned by the engine (advanced
 * from a steady clock in production, by hand in tests), never wall
 * time: deadlines are decided once, on the writer, and shipped as
 * Expire records, so replicas and replay do not need synchronised
 * clocks.
 */

#ifndef CHISEL_CORE_TTL_HH
#define CHISEL_CORE_TTL_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "route/prefix.hh"

namespace chisel {

namespace persist { class Encoder; class Decoder; }

/**
 * Deadline table: prefix -> absolute expiry instant on the engine's
 * logical millisecond clock.  Routes without a deadline (no TTL
 * configured, or pinned with kTtlNever) are simply absent.
 */
class TtlIndex
{
  public:
    /** Arm (or re-arm) @p prefix to expire at @p deadline_ms. */
    void arm(const Prefix &prefix, uint64_t deadline_ms);

    /** Drop any deadline for @p prefix (withdraw, expiry, pinning). */
    void disarm(const Prefix &prefix);

    /** True if @p prefix currently carries a deadline. */
    bool armed(const Prefix &prefix) const;

    /** The deadline for @p prefix, or 0 if it carries none. */
    uint64_t deadline(const Prefix &prefix) const;

    /** Number of armed prefixes. */
    size_t size() const { return deadlines_.size(); }

    bool empty() const { return deadlines_.empty(); }

    void clear() { deadlines_.clear(); }

    /**
     * Append up to @p max prefixes whose deadline is <= @p now_ms to
     * @p out.  @return the number appended.  The index itself is not
     * modified: the caller retires each prefix through the normal
     * update path (ChiselEngine::expire), which disarms it.
     */
    size_t collectExpired(uint64_t now_ms, size_t max,
                          std::vector<Prefix> &out) const;

    /** Serialize into a snapshot payload. */
    void saveState(persist::Encoder &enc) const;

    /** Restore from a snapshot payload; throws DecodeError. */
    void loadState(persist::Decoder &dec);

  private:
    std::unordered_map<Prefix, uint64_t, PrefixHasher> deadlines_;
};

} // namespace chisel

#endif // CHISEL_CORE_TTL_HH
