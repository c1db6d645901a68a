#include "hash/h3.hh"

#include <cassert>

#include "common/bitops.hh"
#include "common/random.hh"

namespace chisel {

H3Hash::H3Hash(unsigned out_bits, uint64_t seed)
    : outBits_(out_bits), outMask_(lowMask(out_bits))
{
    assert(out_bits >= 1 && out_bits <= 64);
    uint64_t state = seed;
    for (auto &row : rows_)
        row = splitmix64(state) & outMask_;
}

uint64_t
H3Hash::hash(const Key128 &key, unsigned len) const
{
    assert(len <= Key128::maxBits);
    uint64_t h = 0;

    // XOR the rows selected by set key bits, 64 bits at a time, after
    // keeping only the top len bits.  Every shift stays below 64: len
    // 0 keeps nothing, len 64 keeps all of hi and none of lo.
    uint64_t hi = key.hi();
    uint64_t lo = key.lo();
    if (len <= 64) {
        hi = len == 0 ? 0 : hi & ~uint64_t(0) << (64 - len);
        lo = 0;
    } else if (len < 128) {
        lo &= ~uint64_t(0) << (128 - len);
    }

    while (hi) {
        unsigned b = static_cast<unsigned>(std::countl_zero(hi));
        h ^= rows_[b];
        hi &= ~(uint64_t(1) << (63 - b));
    }
    while (lo) {
        unsigned b = static_cast<unsigned>(std::countl_zero(lo));
        h ^= rows_[64 + b];
        lo &= ~(uint64_t(1) << (63 - b));
    }

    // Fold the length byte in through its own eight rows.
    for (unsigned i = 0; i < 8; ++i) {
        if ((len >> i) & 1)
            h ^= rows_[128 + i];
    }
    return h & outMask_;
}

H3Family::H3Family(unsigned k, unsigned out_bits, uint64_t seed)
{
    fns_.reserve(k);
    uint64_t state = seed;
    for (unsigned i = 0; i < k; ++i)
        fns_.emplace_back(out_bits, splitmix64(state));
}

std::vector<uint64_t>
H3Family::hashAll(const Key128 &key, unsigned len) const
{
    std::vector<uint64_t> out(fns_.size());
    for (size_t i = 0; i < fns_.size(); ++i)
        out[i] = fns_[i].hash(key, len);
    return out;
}

} // namespace chisel
