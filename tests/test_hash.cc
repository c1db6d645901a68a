/**
 * @file
 * Unit tests for the H3 hash family and software mixing hashes.
 */

#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <set>
#include <vector>

#include "common/bitops.hh"
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
    for (unsigned i = 0; i < 3; ++i)
        EXPECT_EQ(fam.function(i).hash(k, 32), fam.hash(i, k, 32));
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
    // format has silently changed.  They were computed by the
    // one-set-bit-at-a-time evaluation of the XOR tree (bitSerialH3
    // below), and cover every output width class and the lengths
    // on either side of each nibble and word boundary.
    struct Golden
    {
        unsigned outBits;
        unsigned len;
        uint64_t mixed;   ///< Hash of kMixed.
        uint64_t ones;    ///< Hash of the all-ones key.
    };
    static const Golden kGolden[] = {
        { 1,   0, 0x0000000000000000ULL, 0x0000000000000000ULL},
        { 1,   1, 0x0000000000000000ULL, 0x0000000000000000ULL},
        { 1,   4, 0x0000000000000001ULL, 0x0000000000000000ULL},
        { 1,  31, 0x0000000000000000ULL, 0x0000000000000000ULL},
        { 1,  32, 0x0000000000000000ULL, 0x0000000000000000ULL},
        { 1,  33, 0x0000000000000001ULL, 0x0000000000000001ULL},
        { 1,  63, 0x0000000000000001ULL, 0x0000000000000001ULL},
        { 1,  64, 0x0000000000000001ULL, 0x0000000000000001ULL},
        { 1,  65, 0x0000000000000000ULL, 0x0000000000000000ULL},
        { 1, 127, 0x0000000000000000ULL, 0x0000000000000001ULL},
        { 1, 128, 0x0000000000000000ULL, 0x0000000000000000ULL},
        {20,   0, 0x0000000000000000ULL, 0x0000000000000000ULL},
        {20,   1, 0x000000000003d2f2ULL, 0x000000000001ea7aULL},
        {20,   4, 0x00000000000cfad3ULL, 0x000000000001fe72ULL},
        {20,  31, 0x000000000004ae5cULL, 0x000000000000205aULL},
        {20,  32, 0x00000000000a9af8ULL, 0x00000000000e14feULL},
        {20,  33, 0x00000000000f8401ULL, 0x00000000000b0a07ULL},
        {20,  63, 0x00000000000dbc07ULL, 0x00000000000e2c31ULL},
        {20,  64, 0x00000000000b77b9ULL, 0x000000000008e78fULL},
        {20,  65, 0x000000000003f0a6ULL, 0x0000000000006090ULL},
        {20, 127, 0x00000000000f7a92ULL, 0x00000000000e674fULL},
        {20, 128, 0x0000000000053d64ULL, 0x0000000000088262ULL},
        {32,   0, 0x0000000000000000ULL, 0x0000000000000000ULL},
        {32,   1, 0x000000009c23d2f2ULL, 0x0000000049c1ea7aULL},
        {32,   4, 0x000000005f6cfad3ULL, 0x000000001fe1fe72ULL},
        {32,  31, 0x000000009824ae5cULL, 0x00000000cf70205aULL},
        {32,  32, 0x000000008a8a9af8ULL, 0x00000000ddde14feULL},
        {32,  33, 0x000000001e6f8401ULL, 0x00000000493b0a07ULL},
        {32,  63, 0x00000000df5dbc07ULL, 0x00000000880e2c31ULL},
        {32,  64, 0x000000003f2b77b9ULL, 0x000000006878e78fULL},
        {32,  65, 0x000000005423f0a6ULL, 0x0000000003706090ULL},
        {32, 127, 0x000000003bdf7a92ULL, 0x00000000542e674fULL},
        {32, 128, 0x0000000090953d64ULL, 0x000000000c688262ULL},
        {64,   0, 0x0000000000000000ULL, 0x0000000000000000ULL},
        {64,   1, 0x680b16e59c23d2f2ULL, 0x376f396249c1ea7aULL},
        {64,   4, 0xac2e00a95f6cfad3ULL, 0x8e82867c1fe1fe72ULL},
        {64,  31, 0x6730cf449824ae5cULL, 0x4dd0c378cf70205aULL},
        {64,  32, 0x6f265a778a8a9af8ULL, 0x45c6564bddde14feULL},
        {64,  33, 0x3a771b211e6f8401ULL, 0x1097171d493b0a07ULL},
        {64,  63, 0x397ab0bedf5dbc07ULL, 0xc1acfa45880e2c31ULL},
        {64,  64, 0xc32c0c053f2b77b9ULL, 0x3bfa46fe6878e78fULL},
        {64,  65, 0x32b0c3065423f0a6ULL, 0xca6689fd03706090ULL},
        {64, 127, 0x0f820e1f3bdf7a92ULL, 0x25098754542e674fULL},
        {64, 128, 0x9a1fda0590953d64ULL, 0xc6ca100e0c688262ULL},
    };
    const Key128 kMixed(0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL);
    const Key128 kOnes(~uint64_t(0), ~uint64_t(0));
    for (const Golden &g : kGolden) {
        H3Hash h(g.outBits, 0x1234);
        EXPECT_EQ(h.hash(kMixed, g.len), g.mixed)
            << "out " << g.outBits << " len " << g.len;
        EXPECT_EQ(h.hash(kOnes, g.len), g.ones)
            << "out " << g.outBits << " len " << g.len;
    }
    // Different seeds give different streams.
    Key128 k1 = Key128::fromIpv4(0x0A000001);
    EXPECT_NE(H3Hash(32, 0x1235).hash(k1, 32),
              H3Hash(32, 0x1234).hash(k1, 32));
}

/**
 * The definition of H3, evaluated the slow way: build the 136-row
 * random matrix from the seed, then XOR the row of every set key bit
 * (bit 0 = MSB of the high word) and of every set bit of the length
 * byte, one bit at a time.  Every faster evaluation must match it.
 */
uint64_t
bitSerialH3(unsigned out_bits, uint64_t seed, const Key128 &key,
            unsigned len)
{
    std::array<uint64_t, 136> rows;
    uint64_t state = seed;
    for (auto &row : rows)
        row = splitmix64(state) & lowMask(out_bits);
    uint64_t h = 0;
    for (unsigned b = 0; b < len; ++b) {
        if (key.bit(b))
            h ^= rows[b];
    }
    for (unsigned i = 0; i < 8; ++i) {
        if ((len >> i) & 1)
            h ^= rows[128 + i];
    }
    return h;
}

TEST(H3Hash, MatchesBitSerialReference)
{
    // 200 seeds x 2,000 keys with random bits beyond the length, so
    // the masking is exercised too; widths cycle through the classes
    // the library uses (1-bit checksums up to full 64-bit outputs).
    const unsigned widths[] = {1, 4, 20, 31, 32, 33, 63, 64};
    Rng rng(0x5EED);
    for (unsigned i = 0; i < 200; ++i) {
        unsigned out_bits = widths[i % std::size(widths)];
        uint64_t seed = rng.next64();
        H3Hash h(out_bits, seed);
        for (int j = 0; j < 2000; ++j) {
            Key128 key(rng.next64(), rng.next64());
            unsigned len = static_cast<unsigned>(rng.nextBelow(129));
            ASSERT_EQ(h.hash(key, len),
                      bitSerialH3(out_bits, seed, key, len))
                << "seed " << seed << " out " << out_bits << " len "
                << len;
        }
    }
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
