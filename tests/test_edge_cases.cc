/**
 * @file
 * Edge-case tests: extreme key positions (sub-cell bases near bit
 * 128), wide strides, allocator stress, and other corners the main
 * suites touch only incidentally.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/engine.hh"
#include "core/result_table.hh"
#include "route/synth.hh"
#include "trie/binary_trie.hh"

namespace chisel {
namespace {

TEST(EdgeCases, Ipv6PrefixesAtBit128)
{
    // Filler cells near the bottom of the key have base + stride
    // beyond 128; the suffix extraction clamps.  /125../128 prefixes
    // must round-trip through announce/lookup/withdraw.
    ChiselConfig cfg;
    cfg.keyWidth = 128;
    RoutingTable empty;
    ChiselEngine e(empty, cfg);

    Key128 host(0x0123456789ABCDEFull, 0xFEDCBA9876543210ull);
    for (unsigned len = 120; len <= 128; ++len)
        EXPECT_NE(e.announce(Prefix(host, len), len),
                  UpdateClass::Spill) << len;

    auto r = e.lookup(host);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.matchedLength, 128u);
    EXPECT_EQ(r.nextHop, 128u);

    // Flip the last bit: the /128 no longer matches, /127 does.
    Key128 other = host;
    other.setBit(127, !other.bit(127));
    r = e.lookup(other);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.matchedLength, 127u);

    for (unsigned len = 128; len >= 121; --len) {
        EXPECT_EQ(e.withdraw(Prefix(host, len)),
                  UpdateClass::Withdraw) << len;
        auto after = e.lookup(host);
        ASSERT_TRUE(after.found);
        EXPECT_EQ(after.matchedLength, len - 1);
    }
    EXPECT_TRUE(e.selfCheck());
}

TEST(EdgeCases, StrideEightEngine)
{
    // 256-bit bit-vectors (multi-word) through the whole pipeline.
    ChiselConfig cfg;
    cfg.stride = 8;
    RoutingTable table = generateScaledTable(4000, 32, 0xE1);
    ChiselEngine e(table, cfg);
    BinaryTrie oracle(table);
    EXPECT_TRUE(e.selfCheck());

    auto keys = generateLookupKeys(table, 4000, 32, 0.7, 0xE2);
    for (const auto &key : keys) {
        auto a = oracle.lookup(key, 32);
        auto b = e.lookup(key);
        ASSERT_EQ(a.has_value(), b.found);
        if (a)
            ASSERT_EQ(a->nextHop, b.nextHop);
    }
}

TEST(EdgeCases, StrideOneEngine)
{
    // Degenerate stride: every cell covers two lengths, bit-vectors
    // are two bits wide.
    ChiselConfig cfg;
    cfg.stride = 1;
    RoutingTable table = generateScaledTable(2000, 32, 0xE3);
    ChiselEngine e(table, cfg);
    BinaryTrie oracle(table);
    auto keys = generateLookupKeys(table, 2000, 32, 0.7, 0xE4);
    for (const auto &key : keys) {
        auto a = oracle.lookup(key, 32);
        auto b = e.lookup(key);
        ASSERT_EQ(a.has_value(), b.found);
        if (a)
            ASSERT_EQ(a->nextHop, b.nextHop);
    }
}

TEST(EdgeCases, StrideOneIpv6PlanPast64Cells)
{
    // Populated lengths 2, 5, 8, ... at stride 1 alternate a two-length
    // cell with a one-length filler: 85 cells, more than the 64 bits
    // of a cell-presence mask.  The shortest cells share bit 63 and
    // are probed on every lookup; the answers must not change.
    ChiselConfig cfg;
    cfg.keyWidth = 128;
    cfg.stride = 1;
    RoutingTable table;
    Rng rng(0xE7);
    for (unsigned len = 2; len <= 128; len += 3) {
        for (int i = 0; i < 4; ++i) {
            table.add(Prefix(Key128(rng.next64(), rng.next64()), len),
                      static_cast<NextHop>(len * 10 + i));
        }
    }
    ChiselEngine e(table, cfg);
    ASSERT_GT(e.cellCount(), 64u);
    EXPECT_TRUE(e.selfCheck());

    BinaryTrie oracle(table);
    auto keys = generateLookupKeys(table, 4000, 128, 0.8, 0xE8);
    for (const auto &key : keys) {
        auto a = oracle.lookup(key, 128);
        auto b = e.lookup(key);
        ASSERT_EQ(a.has_value(), b.found);
        if (a) {
            ASSERT_EQ(a->nextHop, b.nextHop);
            ASSERT_EQ(a->prefix.length(), b.matchedLength);
        }
    }
}

TEST(EdgeCases, SingleRouteEngine)
{
    RoutingTable t;
    t.add(Prefix::fromCidr("0.0.0.0/1"), 1);
    ChiselEngine e(t);
    EXPECT_TRUE(e.lookup(Key128::fromIpv4(0x12345678)).found);
    EXPECT_FALSE(e.lookup(Key128::fromIpv4(0x87654321)).found);
}

TEST(EdgeCases, EmptyEngineLooksUpNothing)
{
    RoutingTable empty;
    ChiselEngine e(empty);
    EXPECT_FALSE(e.lookup(Key128::fromIpv4(1)).found);
    EXPECT_EQ(e.routeCount(), 0u);
    EXPECT_TRUE(e.selfCheck());
    EXPECT_TRUE(e.exportTable().empty());
}

TEST(EdgeCases, ResultTableAllocatorStress)
{
    // Interleaved allocate/free against a shadow model: blocks must
    // never overlap and frees must recycle.
    ResultTable t;
    Rng rng(0xE5);
    struct Block { uint32_t base; uint32_t req; };
    std::vector<Block> live;
    std::map<uint32_t, uint32_t> occupied;   // base -> granted size.

    for (int step = 0; step < 5000; ++step) {
        if (live.empty() || rng.nextBool(0.55)) {
            uint32_t req = static_cast<uint32_t>(rng.nextRange(1, 40));
            uint32_t base = t.allocate(req);
            uint32_t granted = ResultTable::grantedSize(req);
            // Overlap check against every occupied block.
            for (const auto &[obase, osize] : occupied) {
                bool disjoint = base + granted <= obase ||
                                obase + osize <= base;
                ASSERT_TRUE(disjoint)
                    << "overlap at step " << step;
            }
            occupied[base] = granted;
            live.push_back(Block{base, req});
            // Write a signature into the block.
            for (uint32_t i = 0; i < req; ++i)
                t.write(base + i, base + i);
        } else {
            size_t idx = rng.nextBelow(live.size());
            Block b = live[idx];
            // Contents survived neighbouring churn.
            for (uint32_t i = 0; i < b.req; ++i)
                ASSERT_EQ(t.read(b.base + i), b.base + i);
            t.free(b.base, b.req);
            occupied.erase(b.base);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    EXPECT_EQ(t.frees() + live.size(), t.allocations());
}

TEST(EdgeCases, AnnounceSamePrefixManyTimes)
{
    RoutingTable empty;
    ChiselEngine e(empty);
    Prefix p = Prefix::fromCidr("10.0.0.0/8");
    e.announce(p, 0);
    for (uint32_t i = 1; i < 200; ++i) {
        EXPECT_EQ(e.announce(p, i), UpdateClass::NextHopChange);
        EXPECT_EQ(e.lookup(Key128::fromIpv4(0x0A000001)).nextHop, i);
    }
    EXPECT_EQ(e.routeCount(), 1u);
}

TEST(EdgeCases, WithdrawAnnounceAlternation)
{
    // The tightest flap loop: every other update flips the state.
    RoutingTable empty;
    ChiselEngine e(empty);
    Prefix p = Prefix::fromCidr("192.0.2.0/24");
    Key128 key = Key128::fromIpv4(0xC0000201);
    e.announce(p, 1);
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(e.withdraw(p), UpdateClass::Withdraw);
        EXPECT_FALSE(e.lookup(key).found);
        EXPECT_EQ(e.announce(p, 2), UpdateClass::RouteFlap);
        EXPECT_TRUE(e.lookup(key).found);
    }
    // All flaps were bit-vector restores: no Index traffic at all.
    uint64_t inserts = 0;
    for (size_t i = 0; i < e.cellCount(); ++i)
        inserts += e.cell(i).indexStats().singletonInserts +
                   e.cell(i).indexStats().rebuilds;
    EXPECT_EQ(inserts, 1u);   // Only the very first announce.
}

TEST(EdgeCases, NarrowKeyWidthEngine)
{
    // An 8-bit key space: exhaustive verification of every key.
    ChiselConfig cfg;
    cfg.keyWidth = 8;
    cfg.stride = 3;
    RoutingTable t;
    Rng rng(0xE6);
    for (int i = 0; i < 60; ++i) {
        unsigned len = static_cast<unsigned>(rng.nextRange(1, 8));
        t.add(Prefix(Key128(rng.next64(), 0), len),
              static_cast<NextHop>(rng.nextBelow(16)));
    }
    ChiselEngine e(t, cfg);
    BinaryTrie oracle(t);
    for (uint32_t v = 0; v < 256; ++v) {
        Key128 key;
        key.deposit(0, 8, v);
        auto a = oracle.lookup(key, 8);
        auto b = e.lookup(key);
        ASSERT_EQ(a.has_value(), b.found) << v;
        if (a)
            ASSERT_EQ(a->nextHop, b.nextHop) << v;
    }
}

} // anonymous namespace
} // namespace chisel
