/**
 * @file
 * H3 universal hash functions.
 *
 * The H3 class of hash functions computes h(x) = XOR of the rows of a
 * random bit matrix selected by the set bits of x.  H3 is the standard
 * choice for hardware lookup engines (it is a tree of XOR gates, one
 * level deep per matrix column) and is what the Chisel FPGA prototype
 * uses for its Index Table segments.  Each function is defined by a
 * seed; the k functions of an engine use k independent seeds.
 *
 * Keys here are (Key128, length) pairs: a collapsed prefix of a given
 * bit length.  The length participates in the hash through eight extra
 * matrix rows so that keys of different lengths never alias, even when
 * their defined bits agree.
 *
 * Software evaluates the XOR tree with nibble tables instead of one
 * row per set bit.  H3 is linear over GF(2), so the XOR of the rows a
 * 4-bit key slice selects can be precomputed for all 16 slice values:
 * 32 positions x 16 entries x 8 bytes = 4 KiB per function, plus a
 * 129-entry table folding in the length rows (1 KiB).  A hash is then
 * one table read per nibble of the key, and the outputs are
 * bit-identical to the row-by-row definition (tests/test_hash.cc keeps
 * that definition as the reference).  Nibble rather than byte slices
 * keep the tables cache-sized: byte tables would need 32 KiB per
 * function.  BloomierFilter goes one step further and interleaves the
 * entries of its k + 1 functions, so a single pass over the key yields
 * every segment hash and the partition checksum.
 */

#ifndef CHISEL_HASH_H3_HH
#define CHISEL_HASH_H3_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/key128.hh"

namespace chisel {

/**
 * One H3 hash function over (key, length) pairs.
 */
class H3Hash
{
  public:
    /** 4-bit key slices per key, most significant first. */
    static constexpr unsigned kNibbles = Key128::maxBits / 4;

    /**
     * @param out_bits Width of the hash output in bits (1..64).
     * @param seed Seed selecting the random matrix.
     */
    H3Hash(unsigned out_bits, uint64_t seed);

    /**
     * Hash the top @p len bits of @p key.
     * Bits at positions >= len are ignored (callers pass collapsed
     * prefixes whose trailing bits are already zero, but masking here
     * keeps the function total).
     */
    uint64_t hash(const Key128 &key, unsigned len) const;

    /** Output width in bits. */
    unsigned outBits() const { return outBits_; }

    /**
     * XOR of the matrix rows of key bits 4*pos .. 4*pos+3 selected by
     * the slice value @p value (bit 3 of @p value is key bit 4*pos).
     */
    uint64_t
    nibbleRows(unsigned pos, unsigned value) const
    {
        return nibbles_[pos][value];
    }

    /** XOR of the length rows selected by @p len (0..128). */
    uint64_t lengthRows(unsigned len) const { return lengths_[len]; }

  private:
    unsigned outBits_;
    std::array<std::array<uint64_t, 16>, kNibbles> nibbles_;
    std::array<uint64_t, Key128::maxBits + 1> lengths_;
};

/**
 * A family of k independent H3 functions, as used by Bloom, Bloomier
 * and multiple-choice hash structures.
 */
class H3Family
{
  public:
    /**
     * @param k Number of functions.
     * @param out_bits Output width of every function.
     * @param seed Family seed; function i is seeded with a value
     *             derived from (seed, i).
     */
    H3Family(unsigned k, unsigned out_bits, uint64_t seed);

    /** Number of functions in the family. */
    unsigned size() const { return static_cast<unsigned>(fns_.size()); }

    /** Function @p i. */
    const H3Hash &function(unsigned i) const { return fns_[i]; }

    /** Value of function @p i on the top @p len bits of @p key. */
    uint64_t
    hash(unsigned i, const Key128 &key, unsigned len) const
    {
        return fns_[i].hash(key, len);
    }

  private:
    std::vector<H3Hash> fns_;
};

} // namespace chisel

#endif // CHISEL_HASH_H3_HH
