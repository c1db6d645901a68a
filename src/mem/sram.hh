/**
 * @file
 * On-chip SRAM / FPGA block-RAM model.
 *
 * Used by the FPGA resource estimator (Table 2 reproduction) and
 * available as an alternative on-chip technology in the power model.
 */

#ifndef CHISEL_MEM_SRAM_HH
#define CHISEL_MEM_SRAM_HH

#include <cstdint>

#include "mem/tech.hh"

namespace chisel {

/**
 * SRAM / block-RAM storage and power model.
 */
class SramModel
{
  public:
    explicit SramModel(const SramParams &params);

    /** Dynamic energy of one access to an array of @p bits, in nJ. */
    double accessEnergyNj(uint64_t bits) const;

    /** Static power of @p bits, in watts. */
    double staticWatts(uint64_t bits) const;

    /** Total power at @p accesses_per_sec. */
    double watts(uint64_t bits, double accesses_per_sec) const;

    /**
     * Block RAMs needed for a table of @p depth words x @p width
     * bits.  FPGA block RAMs are fixed-geometry: a table narrower
     * than a block still consumes whole blocks per width slice
     * (modelled as 18 Kb blocks with a 36-bit maximum width).
     */
    uint64_t blocksFor(uint64_t depth, unsigned width_bits) const;

    const SramParams &params() const { return params_; }

  private:
    SramParams params_;
};

} // namespace chisel

#endif // CHISEL_MEM_SRAM_HH
