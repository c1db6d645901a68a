/**
 * @file
 * Power-of-two block allocator over one growing address range.
 *
 * Each request is granted the next power of two; freed blocks go to
 * the free list of their size class and are handed out again before
 * the range grows (Section 4.3.2's over-provisioning policy).  The
 * allocator hands out addresses only: the owner keeps the storage and
 * grows it to end() after an allocation.  The Result Table and the
 * shadow members of a cell both use it.
 */

#ifndef CHISEL_CORE_BLOCK_ALLOCATOR_HH
#define CHISEL_CORE_BLOCK_ALLOCATOR_HH

#include <cstdint>
#include <vector>

namespace chisel {

namespace persist { class Encoder; class Decoder; }

class BlockAllocator
{
  public:
    /** Granted size for a request (next power of two, min 1). */
    static uint32_t grantedSize(uint32_t entries);

    /**
     * Allocate a block of grantedSize(@p entries): a freed block of
     * that class, else a fresh one that extends end().
     * @return Base address of the block.
     */
    uint32_t allocate(uint32_t entries);

    /** Return a block obtained from allocate(). */
    void free(uint32_t base, uint32_t entries);

    /** One past the highest address ever handed out. */
    uint64_t end() const { return end_; }

    /** Entries currently inside allocated blocks. */
    uint64_t allocated() const { return allocated_; }

    /** Allocations performed. */
    uint64_t allocations() const { return allocations_; }

    /** Frees performed. */
    uint64_t frees() const { return frees_; }

    /**
     * Serialize the free lists (their order decides which base the
     * next allocate() of a class returns) and the counters; end() is
     * the owner's to save.
     */
    void saveState(persist::Encoder &enc) const;

    /** Restore from saveState() over a range of @p end entries. */
    void loadState(persist::Decoder &dec, uint64_t end);

  private:
    /** freeLists_[c] holds bases of free blocks of size 2^c. */
    std::vector<std::vector<uint32_t>> freeLists_;
    uint64_t end_ = 0;
    uint64_t allocated_ = 0;
    uint64_t allocations_ = 0;
    uint64_t frees_ = 0;
};

} // namespace chisel

#endif // CHISEL_CORE_BLOCK_ALLOCATOR_HH
