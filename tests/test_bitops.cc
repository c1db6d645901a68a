/**
 * @file
 * Unit tests for the bit-utility helpers, plus the engine's
 * exportTable and the eDRAM area model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bitops.hh"
#include "common/random.hh"
#include "core/engine.hh"
#include "mem/edram.hh"
#include "route/synth.hh"

namespace chisel {
namespace {

TEST(BitOps, Popcount)
{
    EXPECT_EQ(popcount64(0), 0u);
    EXPECT_EQ(popcount64(1), 1u);
    EXPECT_EQ(popcount64(~0ULL), 64u);
    EXPECT_EQ(popcount64(0xF0F0F0F0F0F0F0F0ULL), 32u);
}

TEST(BitOps, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(4), 2u);
    EXPECT_EQ(ceilLog2(5), 3u);
    EXPECT_EQ(ceilLog2(1ULL << 32), 32u);
    EXPECT_EQ(ceilLog2((1ULL << 32) + 1), 33u);
}

TEST(BitOps, AddressBits)
{
    EXPECT_EQ(addressBits(0), 1u);
    EXPECT_EQ(addressBits(1), 1u);
    EXPECT_EQ(addressBits(2), 1u);
    EXPECT_EQ(addressBits(256), 8u);
    EXPECT_EQ(addressBits(257), 9u);
    EXPECT_EQ(addressBits(1 << 18), 18u);
}

TEST(BitOps, NextPow2)
{
    EXPECT_EQ(nextPow2(1), 1u);
    EXPECT_EQ(nextPow2(2), 2u);
    EXPECT_EQ(nextPow2(3), 4u);
    EXPECT_EQ(nextPow2(1000), 1024u);
    EXPECT_TRUE(isPow2(nextPow2(12345)));
}

TEST(BitOps, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(64));
    EXPECT_FALSE(isPow2(63));
}

TEST(BitOps, DivCeil)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(4, 4), 1u);
    EXPECT_EQ(divCeil(5, 4), 2u);
}

TEST(BitOps, LowMask)
{
    EXPECT_EQ(lowMask(0), 0u);
    EXPECT_EQ(lowMask(1), 1u);
    EXPECT_EQ(lowMask(8), 0xFFu);
    EXPECT_EQ(lowMask(64), ~0ULL);
}

TEST(BitOps, FastRemainderMatchesModulo)
{
    const uint64_t top = ~uint64_t(0);
    std::vector<uint64_t> divisors = {1, 2, 3, 5, 7, 10, 1000003,
                                      (1ULL << 32) - 1, (1ULL << 32) + 1,
                                      top - 1, top};
    for (unsigned b = 0; b < 64; ++b)
        divisors.push_back(1ULL << b);
    Rng rng(0xD1F);
    for (int i = 0; i < 200; ++i) {
        // Random divisors of every magnitude, not just full-width ones.
        divisors.push_back(std::max<uint64_t>(
            1, rng.next64() >> rng.nextBelow(64)));
    }
    for (uint64_t d : divisors) {
        FastRemainder mod(d);
        EXPECT_EQ(mod.divisor(), d);
        for (uint64_t x : {uint64_t(0), uint64_t(1), d - 1, d, d + 1,
                           2 * d - 1, top, top - 1})
            ASSERT_EQ(mod(x), x % d) << "x " << x << " d " << d;
        for (int j = 0; j < 500; ++j) {
            uint64_t x = rng.next64() >> rng.nextBelow(64);
            ASSERT_EQ(mod(x), x % d) << "x " << x << " d " << d;
        }
    }
}

// ---- Engine exportTable ------------------------------------------------------

TEST(ExportTable, RoundTripsAllState)
{
    RoutingTable table = generateScaledTable(3000, 32, 601);
    table.add(Prefix(), 42);   // Default route too.
    ChiselEngine engine(table);

    // Churn a little so the dump reflects live, not initial, state.
    engine.withdraw(table.routes()[0].prefix);
    engine.announce(Prefix::fromCidr("9.9.9.0/24"), 7);

    RoutingTable dumped = engine.exportTable();
    RoutingTable truth = table;
    truth.remove(table.routes()[0].prefix);
    truth.add(Prefix::fromCidr("9.9.9.0/24"), 7);

    EXPECT_EQ(dumped.size(), truth.size());
    for (const auto &r : truth.routes())
        EXPECT_EQ(dumped.find(r.prefix), r.nextHop) << r.prefix.cidr();

    // A fresh engine built from the dump answers identically —
    // the user-level "resetup" path.
    ChiselEngine rebuilt(dumped);
    auto keys = generateLookupKeys(truth, 2000, 32, 0.7, 602);
    for (const auto &key : keys) {
        auto a = engine.lookup(key);
        auto b = rebuilt.lookup(key);
        ASSERT_EQ(a.found, b.found);
        if (a.found)
            EXPECT_EQ(a.nextHop, b.nextHop);
    }
}

TEST(ExportTable, ExcludesDirtyGroups)
{
    RoutingTable empty;
    ChiselEngine engine(empty);
    engine.announce(Prefix::fromCidr("10.0.0.0/8"), 1);
    engine.withdraw(Prefix::fromCidr("10.0.0.0/8"));
    // The dirty group is retained in hardware but is not a route.
    EXPECT_EQ(engine.exportTable().size(), 0u);
}

// ---- eDRAM area ---------------------------------------------------------------

TEST(EdramArea, ScalesWithBits)
{
    EdramModel m(EdramParams{});
    double a1 = m.areaMm2(8ull << 20);
    double a2 = m.areaMm2(16ull << 20);
    EXPECT_GT(a2, a1);
    EXPECT_LT(a2, 2.5 * a1);
}

TEST(EdramArea, ChiselFitsOnOneDie)
{
    // The single-chip claim: a 512K-prefix IPv4 engine's ~65 Mb of
    // tables must land well under a typical ~200 mm^2 ASIC budget.
    EdramModel m(EdramParams{});
    StorageParams p;
    auto b = chiselWorstCase(512 * 1024, p);
    double area = m.areaMm2(b.totalBits());
    EXPECT_LT(area, 100.0);
    EXPECT_GT(area, 5.0);
}

} // anonymous namespace
} // namespace chisel
