/**
 * @file
 * Huge-page-backed memory for the lookup tables.
 *
 * At DFZ scale every table read of a lookup (Index, Filter,
 * Bit-vector, Result) is a cache miss, and on 4 KiB pages each is a
 * TLB miss as well.  Two std::pmr::memory_resource implementations put
 * those tables on transparent huge pages:
 *
 *  - ImageArena: one per engine image.  A bump arena that holds every
 *    fixed-size array a lookup reads, packed back to back in a
 *    2 MiB-aligned address-space reservation advised MADV_HUGEPAGE.
 *    It commits the reservation 2 MiB at a time as it grows (nothing
 *    knows an image's size in advance: a restore decodes it cell by
 *    cell), so only its last huge page is partly empty.  Blocks are
 *    never freed one by one; the reservation goes back to the kernel
 *    when the arena (its image) is destroyed.
 *  - hugePageResource(): for buffers that grow at run time (the
 *    Result Table).  Requests of kHugePageBytes or more are mapped
 *    2 MiB-aligned and advised; smaller ones go to the heap.
 *
 * The advice is only advice: a kernel without transparent huge pages
 * backs the same mappings with 4 KiB pages.  Mapped pages that are
 * never touched stay non-resident.  Under AddressSanitizer, arena
 * bytes not yet handed out (and a red zone after each block) stay
 * poisoned, so a table overrun is still reported.
 */

#ifndef CHISEL_COMMON_HUGE_PAGES_HH
#define CHISEL_COMMON_HUGE_PAGES_HH

#include <cstddef>
#include <memory_resource>
#include <vector>

namespace chisel {

/** Bytes in one transparent huge page (the x86-64 PMD size). */
inline constexpr size_t kHugePageBytes = size_t(2) << 20;

/**
 * Heap for growable buffers: blocks of kHugePageBytes or more are
 * huge-page-advised mappings of their own (rounded to 4 KiB pages
 * only), smaller ones come from the default heap.
 */
std::pmr::memory_resource *hugePageResource();

/** A growable bump arena of huge-page-advised memory (file comment). */
class ImageArena final : public std::pmr::memory_resource
{
  public:
    /** Every block starts on its own cache line. */
    static constexpr size_t kLineBytes = 64;

    /**
     * Address space one reservation spans (not memory: uncommitted
     * pages cost nothing).  A block that does not fit in what is left
     * of the current reservation starts a new one.
     */
    static constexpr size_t kReserveBytes = size_t(1) << 30;

    ImageArena() = default;
    ~ImageArena() override;

    ImageArena(const ImageArena &) = delete;
    ImageArena &operator=(const ImageArena &) = delete;

    /** Bytes committed so far (a multiple of kHugePageBytes). */
    size_t committedBytes() const;

  private:
    void *do_allocate(size_t bytes, size_t alignment) override;

    /** A no-op: blocks live until the arena is destroyed. */
    void do_deallocate(void *, size_t, size_t) override {}

    bool
    do_is_equal(const std::pmr::memory_resource &other) const
        noexcept override
    {
        return this == &other;
    }

    /** One address-space reservation, committed from its base up. */
    struct Region
    {
        std::byte *base;
        size_t reserved;
        size_t committed;
    };

    std::vector<Region> regions_;
    /** Bump pointer inside regions_.back(). */
    std::byte *next_ = nullptr;
};

} // namespace chisel

#endif // CHISEL_COMMON_HUGE_PAGES_HH
