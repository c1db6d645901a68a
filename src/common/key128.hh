/**
 * @file
 * Key128: a 128-bit, left-aligned lookup key.
 *
 * LPM keys in this library are stored MSB-first in a fixed 128-bit
 * container, wide enough for IPv6.  Bit position 0 is the most
 * significant bit of the key (the first bit a router would examine),
 * matching the way prefixes are written in routing tables.  An IPv4
 * address occupies bit positions [0, 32); the remaining bits are zero.
 *
 * Keeping keys left-aligned makes prefix operations uniform across key
 * widths: collapsing a prefix, extracting the stride suffix and
 * comparing collapsed prefixes are all pure bit-range operations that
 * never need to know whether the key is IPv4 or IPv6.
 */

#ifndef CHISEL_COMMON_KEY128_HH
#define CHISEL_COMMON_KEY128_HH

#include <bit>
#include <compare>
#include <cstdint>
#include <string>

namespace chisel {

/**
 * A 128-bit key with MSB-first bit addressing.
 *
 * Invariant-free value type: all 128 bits are always meaningful;
 * users that store prefixes are responsible for keeping bits beyond
 * the prefix length zero (see Prefix, which enforces this).
 */
class Key128
{
  public:
    /** Number of bits in the container. */
    static constexpr unsigned maxBits = 128;

    constexpr Key128() = default;

    /** Construct from explicit high/low 64-bit halves. */
    constexpr Key128(uint64_t hi, uint64_t lo) : hi_(hi), lo_(lo) {}

    /** The high (most significant) 64 bits. */
    constexpr uint64_t hi() const { return hi_; }
    /** The low (least significant) 64 bits. */
    constexpr uint64_t lo() const { return lo_; }

    /**
     * Place an IPv4 address in bit positions [0, 32).
     * @param addr Address in host byte order (e.g. 0x0A000001 = 10.0.0.1).
     */
    static constexpr Key128
    fromIpv4(uint32_t addr)
    {
        return Key128(static_cast<uint64_t>(addr) << 32, 0);
    }

    /** Recover the IPv4 address stored in bit positions [0, 32). */
    constexpr uint32_t
    toIpv4() const
    {
        return static_cast<uint32_t>(hi_ >> 32);
    }

    /** Read the bit at MSB-first position @p pos (0 = leftmost). */
    constexpr bool
    bit(unsigned pos) const
    {
        if (pos < 64)
            return (hi_ >> (63 - pos)) & 1;
        return (lo_ >> (127 - pos)) & 1;
    }

    /** Set the bit at MSB-first position @p pos to @p value. */
    void setBit(unsigned pos, bool value);

    /**
     * Extract @p count bits starting at MSB-first position @p pos.
     * The extracted bits are returned right-aligned, i.e. the bit at
     * position pos becomes the MSB of the returned value.
     *
     * @pre count <= 64 and pos + count <= 128.
     */
    uint64_t extract(unsigned pos, unsigned count) const;

    /**
     * Write @p count right-aligned bits of @p value into MSB-first
     * positions [pos, pos + count).
     *
     * @pre count <= 64 and pos + count <= 128.
     */
    void deposit(unsigned pos, unsigned count, uint64_t value);

    /**
     * Keep the top @p len bits and zero the rest.  masked(0) is the
     * all-zero key; masked(128) is the identity.
     */
    Key128 masked(unsigned len) const;

    /** True if the top @p len bits of this key and @p other agree. */
    bool matchesPrefix(const Key128 &other, unsigned len) const;

    /** Lexicographic (MSB-first) ordering, which equals numeric order. */
    constexpr auto
    operator<=>(const Key128 &other) const
    {
        if (auto c = hi_ <=> other.hi_; c != 0)
            return c;
        return lo_ <=> other.lo_;
    }

    constexpr bool operator==(const Key128 &other) const = default;

    /** Bitwise XOR, used by hash post-mixing. */
    constexpr Key128
    operator^(const Key128 &other) const
    {
        return Key128(hi_ ^ other.hi_, lo_ ^ other.lo_);
    }

    /** Number of set bits — used by the parity soft-error model. */
    constexpr unsigned
    popcount() const
    {
        return static_cast<unsigned>(std::popcount(hi_) +
                                     std::popcount(lo_));
    }

    /**
     * Render the top @p len bits as a binary string, e.g. "10110".
     * Useful in tests and diagnostics.
     */
    std::string toBitString(unsigned len) const;

    /** Render bit positions [0, 32) in IPv4 dotted-quad notation. */
    std::string toIpv4String() const;

  private:
    uint64_t hi_ = 0;
    uint64_t lo_ = 0;
};

} // namespace chisel

#endif // CHISEL_COMMON_KEY128_HH
