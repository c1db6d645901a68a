/**
 * @file
 * Cell-presence summary: which sub-cells can hold a match for a key.
 *
 * The hardware probes every sub-cell in parallel, so an empty cell, or
 * one with no group near the key, costs it nothing.  Software probes
 * cells one after another, and on wide keys most cells are empty
 * fillers.  The summary is a software pre-filter in front of those
 * probes — the role per-length Bloom filters play in front of the
 * hash probes of Dharmapurikar et al. (the paper's ref [8],
 * src/lpm/bloom_lpm) — small enough (128 KiB) to stay cache-resident.
 *
 * A key's region is a mix64 hash of its top T bits (T = 16 for keys of
 * up to 32 bits, 32 above) folded to 2^14 regions.  Every group of a
 * cell whose base is at least T lies in exactly one region, so each
 * region keeps a mask of the cells with a group there; cells with a
 * shorter base sit in one mask that every key probes while the cell
 * holds any group.  The sub-cells keep the masks exact through
 * per-region group counts as they create and erase groups, so a
 * false positive costs one probe and a false negative cannot happen.
 *
 * Bit j names cell n-1-j of an n-cell plan, so the lowest set bit is
 * the cell with the longest base — the priority encoder's winner.
 * Past 64 cells (stride 1 on wide keys), bit 63 stands for cell n-64
 * and every shorter cell, and stays set.
 *
 * The summary is not part of the modeled hardware: storage(),
 * modeledAccesses(), traced accesses and snapshots never see it.
 */

#ifndef CHISEL_CORE_CELL_SUMMARY_HH
#define CHISEL_CORE_CELL_SUMMARY_HH

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <vector>

#include "common/key128.hh"
#include "hash/mix.hh"

namespace chisel {

class CellSummary
{
  public:
    static constexpr unsigned kRegionBits = 14;
    static constexpr size_t kRegions = size_t(1) << kRegionBits;

    /** Bit 63: shared by cell n-64 and shorter past 64 cells. */
    static constexpr uint64_t kSharedBit = uint64_t(1) << 63;

    /** @param memory Where the masks live (the engine image's arena). */
    CellSummary(unsigned key_width, size_t cells,
                std::pmr::memory_resource *memory =
                    std::pmr::get_default_resource())
        : prefixBits_(key_width <= 32 ? 16 : 32),
          always_(cells > 64 ? kSharedBit : 0), masks_(kRegions, 0, memory)
    {}

    /** A copy of @p other whose masks live in @p memory. */
    CellSummary(const CellSummary &other, std::pmr::memory_resource *memory)
        : prefixBits_(other.prefixBits_), always_(other.always_),
          masks_(other.masks_, memory)
    {}

    /**
     * The bit cell @p i of @p cells reports under, or 0 for a cell that
     * shares bit 63 (always probed, so it reports nothing).
     */
    static uint64_t
    bitFor(size_t i, size_t cells)
    {
        size_t j = cells - 1 - i;
        if (cells > 64 && j >= 63)
            return 0;
        return uint64_t(1) << j;
    }

    /** Leading key bits that choose a region (T). */
    unsigned regionPrefix() const { return prefixBits_; }

    /** Region of @p key, or of a group key whose base is >= T. */
    uint32_t
    region(const Key128 &key) const
    {
        return static_cast<uint32_t>(mix64(key.extract(0, prefixBits_)) &
                                     (kRegions - 1));
    }

    /** Cells that may hold a match for @p key. */
    uint64_t
    candidates(const Key128 &key) const
    {
        return always_ | masks_[region(key)];
    }

    void setRegion(uint32_t region, uint64_t bit) { masks_[region] |= bit; }
    void clearRegion(uint32_t region, uint64_t bit) { masks_[region] &= ~bit; }
    void setAlways(uint64_t bit) { always_ |= bit; }
    void clearAlways(uint64_t bit) { always_ &= ~bit; }

    /** Copy region @p region's mask from @p src (image replay). */
    void
    copyRegion(const CellSummary &src, uint32_t region)
    {
        masks_[region] = src.masks_[region];
    }

    /** Copy the always-probed mask from @p src (image replay). */
    void copyAlways(const CellSummary &src) { always_ = src.always_; }

    bool operator==(const CellSummary &other) const = default;

  private:
    unsigned prefixBits_;
    uint64_t always_;
    std::pmr::vector<uint64_t> masks_;
};

} // namespace chisel

#endif // CHISEL_CORE_CELL_SUMMARY_HH
