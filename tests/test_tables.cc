/**
 * @file
 * Unit tests for the hardware table components: ResultTable (block
 * allocator), GroupTable (the Filter and Bit-vector records) and the
 * huge-page memory they live in.
 */

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <memory_resource>

#include <gtest/gtest.h>

#include "common/huge_pages.hh"
#include "core/group_table.hh"
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

// ---- GroupTable: Filter half ---------------------------------------------

TEST(GroupTable, AllocateExhaustRelease)
{
    GroupTable f(4, 16, 4, 20);
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

TEST(GroupTable, MatchSemantics)
{
    GroupTable f(8, 16, 4, 20);
    int64_t s = f.allocate();
    Key128 k = Key128::fromIpv4(0x12340000);
    EXPECT_FALSE(f.matches(static_cast<uint32_t>(s), k));   // Invalid.
    f.set(static_cast<uint32_t>(s), k);
    EXPECT_TRUE(f.matches(static_cast<uint32_t>(s), k));
    EXPECT_FALSE(f.matches(static_cast<uint32_t>(s),
                           Key128::fromIpv4(0x12350000)));
    EXPECT_FALSE(f.matches(999, k));   // Out-of-range slot: no match.
}

TEST(GroupTable, DirtyBitLifecycle)
{
    GroupTable f(8, 16, 4, 20);
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

TEST(GroupTable, DirtyBitWriteKeepsAKeyErrorDetectable)
{
    // A soft error in the key must survive a later dirty-bit write:
    // recomputing parity over the whole entry would hide it from the
    // scrubber while lookups of the group miss.
    GroupTable f(8, 32, 4, 20);
    uint32_t s = static_cast<uint32_t>(f.allocate());
    f.set(s, Key128::fromIpv4(0x0A000000));
    f.flipKeyBit(s, 3);
    ASSERT_FALSE(f.filterParityOk(s));
    f.setDirty(s, true);
    EXPECT_FALSE(f.filterParityOk(s));
    f.setDirty(s, false);
    EXPECT_FALSE(f.filterParityOk(s));
    f.set(s, Key128::fromIpv4(0x0A000000));   // A full rewrite heals.
    EXPECT_TRUE(f.filterParityOk(s));
}

TEST(GroupTable, UsageAccounting)
{
    GroupTable f(16, 32, 4, 20);
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

TEST(GroupTable, FilterStorageBits)
{
    GroupTable f(100, 32, 4, 22);
    EXPECT_EQ(f.filterWidthBits(), 34u);
    EXPECT_EQ(f.filterStorageBits(), 3400u);
}

// ---- GroupTable: Bit-vector half -----------------------------------------

TEST(GroupTable, SetAndTestBits)
{
    GroupTable t(4, 16, 4, 20);
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

TEST(GroupTable, RankMatchesPaperExample)
{
    // Figure 5(d): vector 00001111 (slots 4..7), key suffix 100 (4):
    // ones up to and including bit 4 is 1, so address = ptr + 1 - 1.
    GroupTable t(2, 16, 3, 20);
    std::vector<uint64_t> bits = {0b11110000};
    t.setVector(0, bits, 10);
    EXPECT_EQ(t.onesUpTo(0, 4), 1u);
    EXPECT_EQ(t.onesUpTo(0, 7), 4u);
}

TEST(GroupTable, ClearVector)
{
    GroupTable t(2, 16, 4, 20);
    std::vector<uint64_t> bits = {0xFFFF};
    t.setVector(0, bits, 5);
    EXPECT_EQ(t.onesCount(0), 16u);
    t.clearVector(0);
    EXPECT_EQ(t.onesCount(0), 0u);
    EXPECT_EQ(t.pointer(0), 0u);
}

TEST(GroupTable, StrideEightMultiWord)
{
    GroupTable t(2, 16, 8, 20);
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

TEST(GroupTable, VectorStorageBits)
{
    GroupTable t(100, 32, 4, 22);
    EXPECT_EQ(t.vectorWidthBits(), 16u + 22u);
    EXPECT_EQ(t.vectorStorageBits(), 100u * 38u);
}

// ---- GroupTable: the packed record ---------------------------------------

TEST(GroupTable, RecordSizeAndLineAlignment)
{
    // 32-byte records up to stride 6, whole lines above; a record
    // that fits in one 64-byte line never straddles two.
    struct Case { unsigned stride; size_t bytes; };
    for (Case c : {Case{1, 32}, Case{4, 32}, Case{6, 32}, Case{7, 64},
                   Case{8, 64}, Case{9, 128}, Case{10, 192}}) {
        GroupTable t(37, 32, c.stride, 20);
        EXPECT_EQ(t.recordBytes(), c.bytes) << "stride " << c.stride;
        for (uint32_t s = 0; s < 37; ++s) {
            auto at = reinterpret_cast<uintptr_t>(t.recordAddress(s));
            if (c.bytes <= 64)
                EXPECT_EQ(at / 64, (at + c.bytes - 1) / 64)
                    << "stride " << c.stride << " slot " << s;
            else
                EXPECT_EQ(at % 64, 0u);
        }
    }
}

/** Both halves written, both parity checks passing. */
GroupTable
filledTable(unsigned stride)
{
    GroupTable t(8, 32, stride, 20);
    const unsigned vector_bits = 1u << stride;
    std::vector<uint64_t> bits(std::max(1u, vector_bits / 64),
                               0x5A5A5A5A5A5A5A5Aull &
                                   lowMask(std::min(64u, vector_bits)));
    for (uint32_t s = 0; s < 8; ++s) {
        t.set(s, Key128::fromIpv4(0x0A000000 + (s << 8)));
        t.setVector(s, bits, 100 + s);
        if (s % 2)
            t.setDirty(s, true);
    }
    return t;
}

TEST(GroupTable, HalvesKeepSeparateParity)
{
    // A Filter-half flip fails only the Filter check, a Bit-vector
    // flip only the Bit-vector check — at the 32-byte record (stride
    // 4) and a multi-line one (stride 8) — and every bit of either
    // half is covered.
    for (unsigned stride : {4u, 8u}) {
        for (unsigned bit = 0; bit < Key128::maxBits; ++bit) {
            GroupTable t = filledTable(stride);
            t.flipKeyBit(3, bit);
            EXPECT_FALSE(t.filterParityOk(3)) << stride << "/" << bit;
            EXPECT_TRUE(t.vectorParityOk(3)) << stride << "/" << bit;
            EXPECT_TRUE(t.filterParityOk(2));
        }
        for (unsigned bit = 0; bit < (1u << stride); ++bit) {
            GroupTable t = filledTable(stride);
            t.flipVectorBit(5, bit);
            EXPECT_TRUE(t.filterParityOk(5)) << stride << "/" << bit;
            EXPECT_FALSE(t.vectorParityOk(5)) << stride << "/" << bit;
            EXPECT_TRUE(t.vectorParityOk(4));
        }
        // Writes to one half leave the other half's error standing.
        GroupTable t = filledTable(stride);
        t.flipKeyBit(1, 7);
        t.flipVectorBit(1, 3);
        t.clearVector(1);
        EXPECT_TRUE(t.vectorParityOk(1));
        EXPECT_FALSE(t.filterParityOk(1));
        t.flipVectorBit(1, 3);
        t.setDirty(1, false);
        EXPECT_FALSE(t.filterParityOk(1));
        EXPECT_FALSE(t.vectorParityOk(1));
        EXPECT_EQ(t.pointer(1), 0u);
    }
}

TEST(GroupTable, ResetSlotScrubsOnlyTheFilterHalf)
{
    GroupTable t = filledTable(4);
    t.flipKeyBit(6, 40);
    t.resetSlot(6);
    EXPECT_TRUE(t.filterParityOk(6));
    EXPECT_FALSE(t.valid(6));
    EXPECT_EQ(t.keyAt(6), Key128());
    EXPECT_EQ(t.pointer(6), 106u);
    EXPECT_TRUE(t.vectorParityOk(6));
}

// ---- ImageArena ----------------------------------------------------------

TEST(ImageArena, BlocksPackIntoCommittedHugePages)
{
    ImageArena arena;
    EXPECT_EQ(arena.committedBytes(), 0u);
    auto *first = static_cast<std::byte *>(arena.allocate(100, 8));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(first) % kHugePageBytes, 0u);
    EXPECT_EQ(arena.committedBytes(), kHugePageBytes);
    auto *second = static_cast<std::byte *>(arena.allocate(10, 4));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(second) % 64, 0u);
    EXPECT_GE(second, first + 100);
    EXPECT_LT(second, first + 256);

    // Blocks larger than a huge page pack on behind the small ones,
    // and the arena commits whole huge pages up to the last block.
    auto *big = static_cast<std::byte *>(arena.allocate(5 << 20, 8));
    EXPECT_GE(big, second + 10);
    EXPECT_LT(big, second + 256);
    EXPECT_EQ(arena.committedBytes(), 3 * kHugePageBytes);
    auto *third = static_cast<std::byte *>(arena.allocate(64, 8));
    EXPECT_GE(third, big + (5 << 20));
    EXPECT_LT(third, big + (5 << 20) + 256);
    big[(5 << 20) - 1] = std::byte{1};
    third[63] = std::byte{2};
}

TEST(ImageArena, UntouchedPagesStayNonResident)
{
    ImageArena arena;
    const size_t bytes = 3 * kHugePageBytes;
    auto *block = static_cast<std::byte *>(arena.allocate(bytes, 8));
    block[0] = std::byte{1};
    // The last huge page of the block was never written.
    unsigned char resident[kHugePageBytes / 4096];
    ASSERT_EQ(::mincore(block + 2 * kHugePageBytes, kHugePageBytes,
                        resident), 0);
    for (unsigned char page : resident)
        EXPECT_EQ(page & 1u, 0u);
}

TEST(ImageArena, PmrVectorsUseIt)
{
    ImageArena arena;
    std::pmr::vector<uint32_t> v(1000, 7, &arena);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % kHugePageBytes, 0u);
    EXPECT_EQ(arena.committedBytes(), kHugePageBytes);
}

TEST(HugePageResource, LargeBuffersAreHugePageAligned)
{
    std::pmr::vector<uint32_t> big(kHugePageBytes / 4, 1,
                                   hugePageResource());
    EXPECT_EQ(reinterpret_cast<uintptr_t>(big.data()) % kHugePageBytes, 0u);
    big.resize(big.size() + 1, 2);   // Grows into a fresh mapping.
    EXPECT_EQ(reinterpret_cast<uintptr_t>(big.data()) % kHugePageBytes, 0u);
    EXPECT_EQ(big.front(), 1u);
    EXPECT_EQ(big.back(), 2u);
    std::pmr::vector<uint32_t> small(16, 3, hugePageResource());
    EXPECT_EQ(small[15], 3u);
}

} // anonymous namespace
} // namespace chisel
