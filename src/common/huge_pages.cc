#include "common/huge_pages.hh"

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <new>

#include "common/logging.hh"

#if defined(__SANITIZE_ADDRESS__)
#define CHISEL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CHISEL_ASAN 1
#endif
#endif

#ifdef CHISEL_ASAN
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace chisel {

namespace {

constexpr size_t kPageBytes = 4096;

#ifdef CHISEL_ASAN
/** Poisoned gap after each arena block, so an overrun lands in it. */
constexpr size_t kRedZoneBytes = 64;
#else
constexpr size_t kRedZoneBytes = 0;
#endif

constexpr uintptr_t
roundUp(uintptr_t n, uintptr_t to)
{
    return (n + to - 1) / to * to;
}

/**
 * Map @p bytes (rounded up to whole 4 KiB pages) at a 2 MiB-aligned
 * address with protection @p prot and advise huge pages.  Over-maps
 * by one huge page and trims both ends, since mmap only promises
 * 4 KiB alignment.
 */
std::byte *
mapHuge(size_t bytes, int prot = PROT_READ | PROT_WRITE)
{
    const size_t len = roundUp(bytes, kPageBytes);
    const size_t span = len + kHugePageBytes;
    void *raw = ::mmap(nullptr, span, prot,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (raw == MAP_FAILED)
        throw std::bad_alloc();
    const auto start = reinterpret_cast<uintptr_t>(raw);
    const uintptr_t aligned = roundUp(start, kHugePageBytes);
    if (aligned > start)
        ::munmap(raw, aligned - start);
    const uintptr_t tail = aligned + len;
    if (start + span > tail)
        ::munmap(reinterpret_cast<void *>(tail), start + span - tail);
    // Advice only: without THP the mapping keeps 4 KiB pages.
    ::madvise(reinterpret_cast<void *>(aligned), len, MADV_HUGEPAGE);
    return reinterpret_cast<std::byte *>(aligned);
}

/** Unmap a mapHuge() block of @p bytes (@p poisoned: its ASan span). */
void
unmap(void *p, size_t bytes, size_t poisoned)
{
    // ASan keeps shadow state across munmap; a later mapping at this
    // address must not inherit the poison.
    ASAN_UNPOISON_MEMORY_REGION(p, poisoned);
    ::munmap(p, roundUp(bytes, kPageBytes));
}

class HugePageResource final : public std::pmr::memory_resource
{
    void *
    do_allocate(size_t bytes, size_t alignment) override
    {
        if (bytes < kHugePageBytes)
            return std::pmr::new_delete_resource()->allocate(bytes,
                                                             alignment);
        std::byte *p = mapHuge(bytes);
        ASAN_POISON_MEMORY_REGION(p + bytes,
                                  roundUp(bytes, kPageBytes) - bytes);
        return p;
    }

    void
    do_deallocate(void *p, size_t bytes, size_t alignment) override
    {
        if (bytes < kHugePageBytes)
            std::pmr::new_delete_resource()->deallocate(p, bytes,
                                                        alignment);
        else
            unmap(p, bytes, roundUp(bytes, kPageBytes));
    }

    bool
    do_is_equal(const std::pmr::memory_resource &other) const
        noexcept override
    {
        return this == &other;
    }
};

} // anonymous namespace

std::pmr::memory_resource *
hugePageResource()
{
    static HugePageResource resource;
    return &resource;
}

ImageArena::~ImageArena()
{
    for (const Region &r : regions_)
        unmap(r.base, r.reserved, r.committed);
}

size_t
ImageArena::committedBytes() const
{
    size_t total = 0;
    for (const Region &r : regions_)
        total += r.committed;
    return total;
}

void *
ImageArena::do_allocate(size_t bytes, size_t alignment)
{
    panicIf(alignment > kHugePageBytes, "ImageArena alignment too large");
    alignment = std::max(alignment, kLineBytes);
    const size_t need = bytes + kRedZoneBytes;

    std::byte *p = nullptr;
    if (!regions_.empty()) {
        const Region &r = regions_.back();
        p = reinterpret_cast<std::byte *>(
            roundUp(reinterpret_cast<uintptr_t>(next_), alignment));
        if (size_t(p - r.base) + need > r.reserved)
            p = nullptr;
    }
    if (p == nullptr) {
        // Address space only: pages are committed as blocks reach them.
        const size_t len = std::max(kReserveBytes,
                                    roundUp(need, kHugePageBytes));
        p = mapHuge(len, PROT_NONE);
        regions_.push_back(Region{p, len, 0});
    }

    Region &r = regions_.back();
    const size_t used = size_t(p - r.base) + need;
    if (used > r.committed) {
        // Commit whole huge pages, so each can be backed by one.
        const size_t grow = roundUp(used, kHugePageBytes) - r.committed;
        if (::mprotect(r.base + r.committed, grow,
                       PROT_READ | PROT_WRITE) != 0)
            throw std::bad_alloc();
        ASAN_POISON_MEMORY_REGION(r.base + r.committed, grow);
        r.committed += grow;
    }
    next_ = p + need;
    ASAN_UNPOISON_MEMORY_REGION(p, bytes);
    return p;
}

} // namespace chisel
