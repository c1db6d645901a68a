/**
 * @file
 * Small bit-manipulation helpers shared across the library.
 */

#ifndef CHISEL_COMMON_BITOPS_HH
#define CHISEL_COMMON_BITOPS_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace chisel {

/** Number of set bits in @p v. */
inline unsigned
popcount64(uint64_t v)
{
    return static_cast<unsigned>(std::popcount(v));
}

/** ceil(log2(v)) for v >= 1; the number of bits needed to count v states. */
inline unsigned
ceilLog2(uint64_t v)
{
    assert(v >= 1);
    if (v == 1)
        return 0;
    return 64 - static_cast<unsigned>(std::countl_zero(v - 1));
}

/** The number of address bits needed to index @p entries locations. */
inline unsigned
addressBits(uint64_t entries)
{
    return entries <= 1 ? 1 : ceilLog2(entries);
}

/** Smallest power of two >= v (v >= 1). */
inline uint64_t
nextPow2(uint64_t v)
{
    assert(v >= 1);
    return uint64_t(1) << ceilLog2(v);
}

/** True if v is a power of two (v >= 1). */
inline bool
isPow2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Integer division rounding up. */
inline uint64_t
divCeil(uint64_t a, uint64_t b)
{
    assert(b != 0);
    return (a + b - 1) / b;
}

/** Mask with the low @p n bits set (n <= 64). */
inline uint64_t
lowMask(unsigned n)
{
    assert(n <= 64);
    return n == 64 ? ~uint64_t(0) : ((uint64_t(1) << n) - 1);
}

/**
 * Exact x % d for a divisor fixed in advance, with multiplies instead
 * of a divide (Lemire, Kaser and Kurz, "Faster remainder by direct
 * computation", 2019): with c = ceil(2^128 / d) precomputed,
 * x % d = floor(((c * x) mod 2^128) * d / 2^128) for every 64-bit x
 * and every d >= 1 (d = 1 wraps c to 0, giving 0).
 */
class FastRemainder
{
  public:
    explicit FastRemainder(uint64_t d = 1)
        : d_(d), c_(~static_cast<unsigned __int128>(0) / d + 1)
    {
        assert(d >= 1);
    }

    uint64_t
    operator()(uint64_t x) const
    {
        unsigned __int128 frac = c_ * x;
        // High 64 bits of the 192-bit product frac * d, which cannot
        // overflow 128 bits when summed in two halves.
        unsigned __int128 low =
            (frac & ~uint64_t(0)) * static_cast<unsigned __int128>(d_);
        unsigned __int128 high = (frac >> 64) * d_;
        return static_cast<uint64_t>((high + (low >> 64)) >> 64);
    }

    uint64_t divisor() const { return d_; }

  private:
    uint64_t d_;
    unsigned __int128 c_;
};

} // namespace chisel

#endif // CHISEL_COMMON_BITOPS_HH
