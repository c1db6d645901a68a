/**
 * @file
 * Unit tests for the hardware table components: ResultTable (block
 * allocator), FilterTable and BitVectorTable.
 */

#include <gtest/gtest.h>

#include "core/bitvector_table.hh"
#include "core/filter_table.hh"
#include "core/result_table.hh"

namespace chisel {
namespace {

// ---- ResultTable ---------------------------------------------------------

TEST(ResultTable, GrantedSizeIsNextPow2)
{
    EXPECT_EQ(ResultTable::grantedSize(0), 1u);
    EXPECT_EQ(ResultTable::grantedSize(1), 1u);
    EXPECT_EQ(ResultTable::grantedSize(2), 2u);
    EXPECT_EQ(ResultTable::grantedSize(3), 4u);
    EXPECT_EQ(ResultTable::grantedSize(16), 16u);
    EXPECT_EQ(ResultTable::grantedSize(17), 32u);
}

TEST(ResultTable, AllocateWriteRead)
{
    ResultTable t;
    uint32_t base = t.allocate(5);
    for (uint32_t i = 0; i < 5; ++i)
        t.write(base + i, 100 + i);
    for (uint32_t i = 0; i < 5; ++i)
        EXPECT_EQ(t.read(base + i), 100 + i);
}

TEST(ResultTable, LengthOffsetRidesBesideParity)
{
    // The matched-length offset shares the parity byte but neither
    // moves the next hop nor breaks (or repairs) its parity.
    ResultTable t;
    uint32_t a = t.allocate(2);
    t.write(a, 7, 3);
    EXPECT_EQ(t.read(a), 7u);
    EXPECT_EQ(t.lengthOffset(a), 3u);
    EXPECT_TRUE(t.parityOk(a));
    t.setLengthOffset(a, 16);
    EXPECT_EQ(t.lengthOffset(a), 16u);
    EXPECT_EQ(t.read(a), 7u);
    EXPECT_TRUE(t.parityOk(a));
    t.flipBit(a, 0);
    t.setLengthOffset(a, 2);
    EXPECT_FALSE(t.parityOk(a));
    EXPECT_EQ(t.lengthOffset(a + 1), 0u);
}

TEST(ResultTable, FreeListReusesBlocks)
{
    ResultTable t;
    uint32_t a = t.allocate(8);
    t.free(a, 8);
    uint32_t b = t.allocate(8);
    EXPECT_EQ(a, b);   // Same size class comes back from the list.
    EXPECT_EQ(t.allocations(), 2u);
    EXPECT_EQ(t.frees(), 1u);
}

TEST(ResultTable, DistinctBlocksDontOverlap)
{
    ResultTable t;
    uint32_t a = t.allocate(4);
    uint32_t b = t.allocate(4);
    uint32_t c = t.allocate(16);
    EXPECT_GE(b, a + 4);
    EXPECT_TRUE(c >= b + 4 || c + 16 <= a);
    EXPECT_EQ(t.allocatedSlots(), 4u + 4u + 16u);
}

TEST(ResultTable, HighWaterGrowsMonotonically)
{
    ResultTable t;
    t.allocate(4);
    uint64_t hw1 = t.highWater();
    uint32_t b = t.allocate(32);
    uint64_t hw2 = t.highWater();
    EXPECT_GT(hw2, hw1);
    t.free(b, 32);
    EXPECT_EQ(t.highWater(), hw2);   // High water never shrinks.
}

// ---- FilterTable ---------------------------------------------------------

TEST(FilterTable, AllocateExhaustRelease)
{
    FilterTable f(4, 16);
    std::vector<int64_t> slots;
    for (int i = 0; i < 4; ++i) {
        int64_t s = f.allocate();
        ASSERT_GE(s, 0);
        slots.push_back(s);
    }
    EXPECT_EQ(f.allocate(), -1);
    f.release(static_cast<uint32_t>(slots[2]));
    EXPECT_GE(f.allocate(), 0);
}

TEST(FilterTable, MatchSemantics)
{
    FilterTable f(8, 16);
    int64_t s = f.allocate();
    Key128 k = Key128::fromIpv4(0x12340000);
    EXPECT_FALSE(f.matches(static_cast<uint32_t>(s), k));   // Invalid.
    f.set(static_cast<uint32_t>(s), k);
    EXPECT_TRUE(f.matches(static_cast<uint32_t>(s), k));
    EXPECT_FALSE(f.matches(static_cast<uint32_t>(s),
                           Key128::fromIpv4(0x12350000)));
    EXPECT_FALSE(f.matches(999, k));   // Out-of-range slot: no match.
}

TEST(FilterTable, DirtyBitLifecycle)
{
    FilterTable f(8, 16);
    uint32_t s = static_cast<uint32_t>(f.allocate());
    f.set(s, Key128::fromIpv4(1));
    EXPECT_FALSE(f.dirty(s));
    f.setDirty(s, true);
    EXPECT_TRUE(f.dirty(s));
    // set() clears dirty (flap restoration).
    f.set(s, Key128::fromIpv4(1));
    EXPECT_FALSE(f.dirty(s));
    // release() clears valid and dirty.
    f.setDirty(s, true);
    f.release(s);
    EXPECT_FALSE(f.valid(s));
    EXPECT_FALSE(f.dirty(s));
}

TEST(FilterTable, DirtyBitWriteKeepsAKeyErrorDetectable)
{
    // A soft error in the key must survive a later dirty-bit write:
    // recomputing parity over the whole entry would hide it from the
    // scrubber while lookups of the group miss.
    FilterTable f(8, 32);
    uint32_t s = static_cast<uint32_t>(f.allocate());
    f.set(s, Key128::fromIpv4(0x0A000000));
    f.flipKeyBit(s, 3);
    ASSERT_FALSE(f.parityOk(s));
    f.setDirty(s, true);
    EXPECT_FALSE(f.parityOk(s));
    f.setDirty(s, false);
    EXPECT_FALSE(f.parityOk(s));
    f.set(s, Key128::fromIpv4(0x0A000000));   // A full rewrite heals.
    EXPECT_TRUE(f.parityOk(s));
}

TEST(FilterTable, UsageAccounting)
{
    FilterTable f(16, 32);
    EXPECT_EQ(f.used(), 0u);
    EXPECT_EQ(f.available(), 16u);
    uint32_t s = static_cast<uint32_t>(f.allocate());
    EXPECT_EQ(f.available(), 15u);
    f.set(s, Key128::fromIpv4(7));
    EXPECT_EQ(f.used(), 1u);
    f.release(s);
    EXPECT_EQ(f.used(), 0u);
    EXPECT_EQ(f.available(), 16u);
}

TEST(FilterTable, StorageBits)
{
    FilterTable f(100, 32);
    EXPECT_EQ(f.slotWidthBits(), 34u);
    EXPECT_EQ(f.storageBits(), 3400u);
}

// ---- BitVectorTable ------------------------------------------------------

TEST(BitVectorTable, SetAndTestBits)
{
    BitVectorTable t(4, 4, 20);
    EXPECT_EQ(t.vectorBits(), 16u);
    std::vector<uint64_t> bits = {0b1010'0000'0000'0001};
    t.setVector(1, bits, 77);
    EXPECT_TRUE(t.bit(1, 0));
    EXPECT_FALSE(t.bit(1, 1));
    EXPECT_TRUE(t.bit(1, 13));
    EXPECT_TRUE(t.bit(1, 15));
    EXPECT_EQ(t.pointer(1), 77u);
    EXPECT_EQ(t.onesCount(1), 3u);
}

TEST(BitVectorTable, RankMatchesPaperExample)
{
    // Figure 5(d): vector 00001111 (slots 4..7), key suffix 100 (4):
    // ones up to and including bit 4 is 1, so address = ptr + 1 - 1.
    BitVectorTable t(2, 3, 20);
    std::vector<uint64_t> bits = {0b11110000};
    t.setVector(0, bits, 10);
    EXPECT_EQ(t.onesUpTo(0, 4), 1u);
    EXPECT_EQ(t.onesUpTo(0, 7), 4u);
}

TEST(BitVectorTable, ClearVector)
{
    BitVectorTable t(2, 4, 20);
    std::vector<uint64_t> bits = {0xFFFF};
    t.setVector(0, bits, 5);
    EXPECT_EQ(t.onesCount(0), 16u);
    t.clearVector(0);
    EXPECT_EQ(t.onesCount(0), 0u);
    EXPECT_EQ(t.pointer(0), 0u);
}

TEST(BitVectorTable, StrideEightMultiWord)
{
    BitVectorTable t(2, 8, 20);
    EXPECT_EQ(t.vectorBits(), 256u);
    std::vector<uint64_t> bits(4, 0);
    bits[2] = 1ull << 10;   // Bit 138.
    bits[3] = 1ull << 63;   // Bit 255.
    t.setVector(0, bits, 3);
    EXPECT_TRUE(t.bit(0, 138));
    EXPECT_TRUE(t.bit(0, 255));
    EXPECT_EQ(t.onesUpTo(0, 138), 1u);
    EXPECT_EQ(t.onesUpTo(0, 255), 2u);
    EXPECT_EQ(t.onesCount(0), 2u);
}

TEST(BitVectorTable, StorageBits)
{
    BitVectorTable t(100, 4, 22);
    EXPECT_EQ(t.slotWidthBits(), 16u + 22u);
    EXPECT_EQ(t.storageBits(), 100u * 38u);
}

} // anonymous namespace
} // namespace chisel
