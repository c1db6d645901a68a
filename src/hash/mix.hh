/**
 * @file
 * Software mixing hashes for in-memory containers.
 *
 * These are not part of the simulated hardware; they back the shadow
 * data structures (the Bloomier key registries, hashed containers
 * over prefixes) that the update engine maintains in software, per
 * the paper's shadow-copy design (Section 4.4).
 */

#ifndef CHISEL_HASH_MIX_HH
#define CHISEL_HASH_MIX_HH

#include <cstdint>
#include <cstddef>

#include "common/key128.hh"

namespace chisel {

/** SplitMix64 finaliser: a strong 64-bit mixing function. */
inline uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Mix a Key128 to 64 bits. */
inline uint64_t
hashKey128(const Key128 &key)
{
    return mix64(key.hi() ^ mix64(key.lo() + 0x9e3779b97f4a7c15ULL));
}

/** std::hash-compatible functor for Key128. */
struct Key128Hasher
{
    size_t
    operator()(const Key128 &key) const
    {
        return static_cast<size_t>(hashKey128(key));
    }
};

} // namespace chisel

#endif // CHISEL_HASH_MIX_HH
