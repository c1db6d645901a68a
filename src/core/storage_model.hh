/**
 * @file
 * Worst-case storage models (Sections 4.2, 6.1-6.3).
 *
 * The paper's storage claims are deterministic ("worst-case design
 * paradigm"): a Chisel engine provisioned for n prefixes needs a
 * fixed number of bits regardless of the prefix distribution —
 * Index 3n x log2(n), Filter n x key width, Bit-vector n x
 * (2^stride + pointer).  These functions compute those totals, plus
 * the comparison variants: the naive no-indirection Bloomier (the
 * 20% / 49% claim of Section 4.2) and the CPE-based Chisel (the
 * Figure 9/11 comparisons).  Average-case (measured) numbers come
 * from a built ChiselEngine instead.
 */

#ifndef CHISEL_CORE_STORAGE_MODEL_HH
#define CHISEL_CORE_STORAGE_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace chisel {

/** Bits per on-chip table of a Chisel instance. */
struct StorageBreakdown
{
    uint64_t indexBits = 0;
    uint64_t filterBits = 0;
    uint64_t bitvectorBits = 0;

    /**
     * Soft-error protection overhead: one even-parity bit per
     * protected word (docs/robustness.md).  Reported separately so
     * the paper-comparable totals stay parity-free.
     */
    uint64_t parityBits = 0;

    uint64_t
    totalBits() const
    {
        return indexBits + filterBits + bitvectorBits;
    }

    double
    totalMbits() const
    {
        return static_cast<double>(totalBits()) / (1024.0 * 1024.0);
    }
};

/** Design parameters shared by the storage formulas. */
struct StorageParams
{
    unsigned keyWidth = 32;
    unsigned stride = 4;
    unsigned k = 3;
    double ratio = 3.0;
};

/**
 * Worst-case Chisel storage for @p n prefixes with prefix collapsing
 * (Index + Filter + Bit-vector; Result/next hops excluded, §5).
 */
StorageBreakdown chiselWorstCase(size_t n, const StorageParams &params);

/**
 * Worst-case Chisel storage with no wildcard support (Figure 8's
 * configuration: Index + Filter only).
 */
StorageBreakdown chiselNoWildcard(size_t n, const StorageParams &params);

/**
 * Storage of the naive false-positive fix of Section 4.2 — keys
 * stored alongside f(t) in a Result Table of m = ratio*n slots, no
 * pointer indirection.  Used to reproduce the "up to 20% (IPv4) and
 * 49% (IPv6) less storage" claim.
 */
uint64_t naiveNoIndirectionBits(size_t n, const StorageParams &params);

/**
 * Average-case ("sized to fit") Chisel storage: per-cell tables sized
 * exactly for the observed collapsed-group counts, no headroom.  This
 * is the number the paper's average-case bars report; the worst-case
 * formulas above are the deterministic provisioning.
 *
 * @param groups_per_cell Collapsed-group count of each sub-cell.
 */
StorageBreakdown chiselSizedToFit(
    const std::vector<size_t> &groups_per_cell,
    const StorageParams &params);

/**
 * Storage of a Chisel variant using CPE instead of collapsing: the
 * Index and Filter tables grow by the expansion factor and no
 * Bit-vector Table exists (Section 6.2).
 *
 * @param expanded_n Number of prefixes after expansion.
 */
StorageBreakdown chiselWithCpe(size_t expanded_n,
                               const StorageParams &params);

} // namespace chisel

#endif // CHISEL_CORE_STORAGE_MODEL_HH
