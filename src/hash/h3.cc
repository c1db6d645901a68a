#include "hash/h3.hh"

#include <cassert>

#include "common/bitops.hh"
#include "common/random.hh"

namespace chisel {

H3Hash::H3Hash(unsigned out_bits, uint64_t seed) : outBits_(out_bits)
{
    assert(out_bits >= 1 && out_bits <= 64);
    // The matrix: 128 rows for key bits plus 8 rows for the length
    // byte, drawn in that order from the seed.
    std::array<uint64_t, Key128::maxBits + 8> rows;
    uint64_t state = seed;
    for (auto &row : rows)
        row = splitmix64(state) & lowMask(out_bits);

    for (unsigned pos = 0; pos < kNibbles; ++pos) {
        for (unsigned value = 0; value < 16; ++value) {
            uint64_t h = 0;
            for (unsigned b = 0; b < 4; ++b) {
                if ((value >> (3 - b)) & 1)
                    h ^= rows[4 * pos + b];
            }
            nibbles_[pos][value] = h;
        }
    }
    for (unsigned len = 0; len <= Key128::maxBits; ++len) {
        uint64_t h = 0;
        for (unsigned i = 0; i < 8; ++i) {
            if ((len >> i) & 1)
                h ^= rows[Key128::maxBits + i];
        }
        lengths_[len] = h;
    }
}

uint64_t
H3Hash::hash(const Key128 &key, unsigned len) const
{
    assert(len <= Key128::maxBits);

    // Keep only the top len bits.  Every shift stays below 64: len 0
    // keeps nothing, len 64 keeps all of hi and none of lo.
    uint64_t hi = key.hi();
    uint64_t lo = key.lo();
    if (len <= 64) {
        hi = len == 0 ? 0 : hi & ~uint64_t(0) << (64 - len);
        lo = 0;
    } else if (len < 128) {
        lo &= ~uint64_t(0) << (128 - len);
    }

    // One table read per nibble that holds a kept bit; the rest are 0.
    uint64_t h = lengths_[len];
    unsigned nibbles = (len + 3) / 4;
    for (unsigned pos = 0; pos < nibbles; ++pos) {
        uint64_t word = pos < 16 ? hi : lo;
        h ^= nibbles_[pos][(word >> (60 - 4 * (pos % 16))) & 0xF];
    }
    return h;
}

H3Family::H3Family(unsigned k, unsigned out_bits, uint64_t seed)
{
    fns_.reserve(k);
    uint64_t state = seed;
    for (unsigned i = 0; i < k; ++i)
        fns_.emplace_back(out_bits, splitmix64(state));
}

} // namespace chisel
