/**
 * @file
 * Unit tests for ShadowGroups, the flat member sets of a cell's
 * groups, and their image derivation — the in-group LPM that builds
 * the bit-vectors of Figure 5.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/random.hh"
#include "core/shadow.hh"

namespace chisel {
namespace {

/** The paper's Figure 5 example: base 4, stride 3, one cell. */
class PaperExample : public ::testing::Test
{
  protected:
    static constexpr uint32_t g1001 = 0;
    static constexpr uint32_t g1010 = 1;

    void
    SetUp() override
    {
        // Group 1001: P1 = 10011*, P3 = 1001101.
        cell.announce(g1001, Prefix::fromBitString("10011"), 1);
        cell.announce(g1001, Prefix::fromBitString("1001101"), 3);

        // Group 1010: P2 = 101011*.
        cell.announce(g1010, Prefix::fromBitString("101011"), 2);
    }

    ShadowGroups cell{4, 3, 2};
};

TEST_F(PaperExample, BitVector1001Is00001111)
{
    GroupImage img = cell.computeImage(g1001);
    // Slots 4..7 covered (P1 = suffix 1xx); figure: 00001111.
    EXPECT_EQ(img.bits[0], 0b11110000u);
    ASSERT_EQ(img.hops.size(), 4u);
    // Slot order 4,5,6,7: P1, P3 (longer wins at 101), P1, P1.
    EXPECT_EQ(img.hops[0], 1u);
    EXPECT_EQ(img.hops[1], 3u);
    EXPECT_EQ(img.hops[2], 1u);
    EXPECT_EQ(img.hops[3], 1u);
}

TEST_F(PaperExample, BitVector1010Is00000011)
{
    GroupImage img = cell.computeImage(g1010);
    // P2 = 1010 11* covers suffixes 110 and 111 -> slots 6,7.
    EXPECT_EQ(img.bits[0], 0b11000000u);
    ASSERT_EQ(img.hops.size(), 2u);
    EXPECT_EQ(img.hops[0], 2u);
    EXPECT_EQ(img.hops[1], 2u);
}

TEST_F(PaperExample, LongestCoverPerSlot)
{
    auto c4 = cell.longestCover(g1001, 4);   // 100 -> P1 only.
    ASSERT_TRUE(c4.has_value());
    EXPECT_EQ(c4->nextHop, 1u);
    EXPECT_EQ(cell.length(c4->position), 5u);

    auto c5 = cell.longestCover(g1001, 5);   // 101 -> P3 over P1.
    ASSERT_TRUE(c5.has_value());
    EXPECT_EQ(c5->nextHop, 3u);
    EXPECT_EQ(cell.length(c5->position), 7u);

    EXPECT_FALSE(cell.longestCover(g1001, 0).has_value());
}

TEST_F(PaperExample, MembersSitInPrefixOrderAndRoundTrip)
{
    Key128 key1001 = Prefix::fromBitString("1001").bits();
    auto members = cell.members(g1001);
    ASSERT_EQ(members.size(), 2u);
    EXPECT_LT(members[0].position, members[1].position);
    EXPECT_EQ(cell.prefix(key1001, members[0].position),
              Prefix::fromBitString("10011"));
    EXPECT_EQ(cell.prefix(key1001, members[1].position),
              Prefix::fromBitString("1001101"));
    EXPECT_EQ(cell.memberCount(g1010), 1u);
}

TEST(ShadowGroups, BaseLengthMemberCoversAllSlots)
{
    ShadowGroups g(8, 4, 1);
    g.announce(0, Prefix::fromCidr("10.0.0.0/8"), 7);
    GroupImage img = g.computeImage(0);
    EXPECT_EQ(img.bits[0], 0xFFFFull);
    EXPECT_EQ(img.hops.size(), 16u);
    for (NextHop h : img.hops)
        EXPECT_EQ(h, 7u);
}

TEST(ShadowGroups, WithdrawRestoresShorterCover)
{
    ShadowGroups g(8, 4, 1);
    g.announce(0, Prefix::fromCidr("10.0.0.0/8"), 1);
    g.announce(0, Prefix::fromCidr("10.128.0.0/12"), 2);   // Suffix 1000.

    GroupImage img = g.computeImage(0);
    EXPECT_EQ(img.hops[0b1000], 2u);

    // Withdrawing the /12 re-exposes the /8 underneath — Figure 7's
    // p''' case.
    ASSERT_TRUE(g.withdraw(0, Prefix::fromCidr("10.128.0.0/12")));
    img = g.computeImage(0);
    EXPECT_EQ(img.bits[0], 0xFFFFull);
    EXPECT_EQ(img.hops[0b1000], 1u);
}

TEST(ShadowGroups, EmptyAfterWithdrawals)
{
    ShadowGroups g(8, 4, 1);
    g.announce(0, Prefix::fromCidr("10.64.0.0/10"), 1);
    ASSERT_TRUE(g.withdraw(0, Prefix::fromCidr("10.64.0.0/10")));
    EXPECT_TRUE(g.empty(0));
    GroupImage img = g.computeImage(0);
    EXPECT_TRUE(img.empty());
    EXPECT_EQ(img.bits[0], 0u);
}

TEST(ShadowGroups, AnnounceOverwritesNextHop)
{
    ShadowGroups g(8, 4, 1);
    EXPECT_TRUE(g.announce(0, Prefix::fromCidr("10.16.0.0/12"), 1));
    EXPECT_FALSE(g.announce(0, Prefix::fromCidr("10.16.0.0/12"), 9));
    GroupImage img = g.computeImage(0);
    EXPECT_EQ(img.hops[0], 9u);
    EXPECT_EQ(*g.find(0, Prefix::fromCidr("10.16.0.0/12")), 9u);
}

TEST(ShadowGroups, WithdrawMissingReturnsNullopt)
{
    ShadowGroups g(8, 4, 1);
    EXPECT_FALSE(g.withdraw(0, Prefix::fromCidr("10.0.0.0/9")));
}

TEST(ShadowGroups, StrideEightImageHasFourWords)
{
    ShadowGroups g(8, 8, 1);
    g.announce(0, Prefix::fromCidr("10.255.0.0/16"), 3);   // Slot 255.
    GroupImage img = g.computeImage(0);
    ASSERT_EQ(img.bits.size(), 4u);
    EXPECT_EQ(img.bits[3], 0x8000000000000000ull);
    ASSERT_EQ(img.hops.size(), 1u);
    EXPECT_EQ(img.hops[0], 3u);
}

TEST(ShadowGroups, NestedMembersLayerCorrectly)
{
    // /8 under everything, /10 over a quarter, /12 over a sliver.
    ShadowGroups g(8, 4, 1);
    g.announce(0, Prefix::fromCidr("10.0.0.0/8"), 1);
    g.announce(0, Prefix::fromCidr("10.192.0.0/10"), 2);   // Suffix 11xx.
    g.announce(0, Prefix::fromCidr("10.240.0.0/12"), 3);   // Suffix 1111.
    GroupImage img = g.computeImage(0);
    EXPECT_EQ(img.hops[0b0000], 1u);
    EXPECT_EQ(img.hops[0b1100], 2u);
    EXPECT_EQ(img.hops[0b1110], 2u);
    EXPECT_EQ(img.hops[0b1111], 3u);
}

/**
 * A seeded announce/withdraw program over four groups of one cell,
 * checked against one std::map<Prefix, NextHop> per group: find,
 * member order, computeImage and longestCover.  The groups share the
 * pool, so blocks move between size classes and are reused.
 */
class ShadowProgram : public ::testing::TestWithParam<unsigned>
{};

TEST_P(ShadowProgram, MatchesReferenceMaps)
{
    const unsigned stride = GetParam();
    const unsigned base = 12;
    const unsigned groups = 4;
    Rng rng(0x5AD0 + stride);

    ShadowGroups cell(base, stride, groups);
    std::vector<Key128> keys;
    for (unsigned g = 0; g < groups; ++g)
        keys.push_back(Prefix::ipv4(0x0A100000u + (g << 20), base).bits());
    std::vector<std::map<Prefix, NextHop>> ref(groups);

    auto check = [&](uint32_t g) {
        const std::map<Prefix, NextHop> &want = ref[g];
        auto members = cell.members(g);
        ASSERT_EQ(members.size(), want.size());
        ASSERT_EQ(cell.empty(g), want.empty());
        size_t i = 0;
        for (const auto &[p, nh] : want) {
            EXPECT_EQ(cell.prefix(keys[g], members[i].position), p);
            EXPECT_EQ(members[i].nextHop, nh);
            EXPECT_EQ(cell.find(g, p), nh);
            ++i;
        }
        GroupImage image = cell.computeImage(g);
        size_t hop = 0;
        for (uint64_t v = 0; v < (uint64_t(1) << stride); ++v) {
            const std::pair<const Prefix, NextHop> *best = nullptr;
            for (const auto &entry : want) {
                unsigned rel = entry.first.length() - base;
                uint64_t suffix = rel == 0 ? 0 : entry.first.suffixBits(base);
                if ((v >> (stride - rel)) == suffix &&
                    (!best || entry.first.length() > best->first.length()))
                    best = &entry;
            }
            bool set = (image.bits[v / 64] >> (v % 64)) & 1;
            ASSERT_EQ(set, best != nullptr) << "slot " << v;
            auto cover = cell.longestCover(g, v);
            ASSERT_EQ(cover.has_value(), best != nullptr);
            if (!best)
                continue;
            EXPECT_EQ(image.hops[hop], best->second);
            EXPECT_EQ(image.lengths[hop], best->first.length() - base);
            EXPECT_EQ(cell.length(cover->position), best->first.length());
            EXPECT_EQ(cover->nextHop, best->second);
            ++hop;
        }
        EXPECT_EQ(hop, image.hops.size());
    };

    for (int step = 0; step < 2000; ++step) {
        const auto g = static_cast<uint32_t>(rng.nextBelow(groups));
        unsigned rel = static_cast<unsigned>(rng.nextBelow(stride + 1));
        Prefix p(keys[g], base);
        if (rel > 0)
            p = p.extended(rng.nextBelow(uint64_t(1) << rel), rel);

        if (rng.nextBool(0.55)) {
            NextHop nh = static_cast<NextHop>(rng.nextBelow(64));
            bool fresh = !ref[g].contains(p);
            EXPECT_EQ(cell.announce(g, p, nh), fresh);
            ref[g][p] = nh;
        } else {
            std::optional<NextHop> want;
            if (auto it = ref[g].find(p); it != ref[g].end()) {
                want = it->second;
                ref[g].erase(it);
            }
            EXPECT_EQ(cell.withdraw(g, p), want);
        }
        if (step % 100 == 99 || step < 20) {
            for (uint32_t h = 0; h < groups; ++h)
                check(h);
        }
        if (step % 500 == 499) {
            // Drop one group whole: its block returns to the pool.
            cell.clear(g);
            ref[g].clear();
            check(g);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Strides, ShadowProgram,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

} // anonymous namespace
} // namespace chisel
