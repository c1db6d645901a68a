/**
 * @file
 * Result Table: off-chip next-hop storage with block allocation.
 *
 * Each collapsed-prefix group owns a contiguous region of the Result
 * Table sized for the ones in its bit-vector, slightly
 * over-provisioned to absorb future announces (Section 4.3.2).  The
 * allocator is a segregated power-of-two free-list — the same style
 * of variable-block management trie schemes use for their nodes,
 * which is the comparison the paper makes for update cost.
 *
 * The Result Table is commodity DRAM in the paper's design and is
 * excluded from every scheme's storage totals (Section 5); it is
 * fully modelled here because lookups and updates must exercise it.
 * Its two arrays grow at run time, so they live on the heap, not in
 * the engine image's arena: buffers of 2 MiB or more are huge-page
 * mappings of their own (hugePageResource()).
 */

#ifndef CHISEL_CORE_RESULT_TABLE_HH
#define CHISEL_CORE_RESULT_TABLE_HH

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitops.hh"
#include "common/huge_pages.hh"
#include "common/logging.hh"
#include "common/write_log.hh"
#include "core/block_allocator.hh"
#include "route/prefix.hh"
#include "telemetry/trace.hh"

namespace chisel {

namespace persist { class Encoder; class Decoder; }

/**
 * Next-hop array with power-of-two block allocation.
 *
 * The entries are the Image a lookup reads; the allocator is
 * writer-owned.  The table writes one image at a time — its own
 * (stand-alone) or an engine image's, rebound between updates — and
 * names every entry it writes, and every growth, in the WriteLog.
 */
class ResultTable
{
  public:
    /** What a lookup reads: the entries and their meta bytes. */
    struct Image
    {
        /** Empty; buffers of 2 MiB or more are huge-page mappings. */
        Image() : slots(hugePageResource()), meta(hugePageResource()) {}

        /**
         * A deep copy.  Its buffers are huge-page backed like the
         * original's; a defaulted copy would put them on the default
         * heap.
         */
        Image(const Image &other)
            : slots(other.slots, hugePageResource()),
              meta(other.meta, hugePageResource())
        {}

        Image &operator=(const Image &) = delete;

        /** Read the next hop at @p addr. */
        NextHop
        read(uint32_t addr) const
        {
            checkRange(addr, "ResultTable read out of range");
            CHISEL_TRACE_ACCESS(Result, addr, sizeof(NextHop));
            return slots[addr];
        }

        /** ResultTable::lengthOffset() over this image. */
        uint8_t lengthOffset(uint32_t addr) const { return meta[addr] >> 1; }

        /** True if @p addr passes its parity check. */
        bool
        parityOk(uint32_t addr) const
        {
            checkRange(addr, "ResultTable parity out of range");
            return parityOf(slots[addr]) == (meta[addr] & 1u);
        }

        void
        checkRange(uint32_t addr, const char *what) const
        {
            if (addr >= slots.size()) [[unlikely]]
                panicIf(true, what);
        }

        /** Grow to @p size entries, new ones holding kNoRoute. */
        void grow(size_t size);

        std::pmr::vector<NextHop> slots;
        /** Per slot: even-parity bit (bit 0), matched-length offset above. */
        std::pmr::vector<uint8_t> meta;
    };

    /** A stand-alone table that owns its entries. */
    ResultTable() : own_(std::make_unique<Image>()), img_(own_.get()) {}

    /** A table writing @p image (an engine image's); it must outlive it. */
    explicit ResultTable(Image &image) : img_(&image) {}

    ResultTable(const ResultTable &) = delete;
    ResultTable &operator=(const ResultTable &) = delete;

    /** Write (and read) @p image from now on; same content. */
    void bind(Image &image) { img_ = &image; }

    /** The image this table writes. */
    const Image &image() const { return *img_; }

    /** Name every later entry write in @p log. */
    void setLog(WriteLog *log) { log_ = log; }

    /**
     * Allocate a block of at least @p entries slots; the granted size
     * is the next power of two (the over-provisioning policy).
     * @return Base address of the block.
     */
    uint32_t allocate(uint32_t entries);

    /** Return a block obtained from allocate(). */
    void free(uint32_t base, uint32_t entries);

    /** Granted size for a request (next power of two, min 1). */
    static uint32_t
    grantedSize(uint32_t entries)
    {
        return BlockAllocator::grantedSize(entries);
    }

    /** Read the next hop at @p addr. */
    NextHop read(uint32_t addr) const { return img_->read(addr); }

    /**
     * Write the next hop at @p addr, with the matched-length offset a
     * hit on it reports (see lengthOffset()).
     */
    void write(uint32_t addr, NextHop next_hop, uint8_t length_offset = 0);

    /**
     * Matched length minus the owning cell's base for a hit on
     * @p addr.  Software only: the paper's Result Table holds just the
     * next hop, so the offset rides in the byte that holds the slot's
     * parity bit — no extra cache line, no modeled storage, and no
     * traced access.
     */
    uint8_t
    lengthOffset(uint32_t addr) const
    {
        return img_->lengthOffset(addr);
    }

    /**
     * Re-stamp only the offset of @p addr, which must lie inside an
     * allocated block.  Not a hardware word write: the next hop and
     * its parity are untouched.
     */
    void
    setLengthOffset(uint32_t addr, uint8_t length_offset)
    {
        std::pmr::vector<uint8_t> &meta = img_->meta;
        assert(addr < meta.size());
        meta[addr] =
            static_cast<uint8_t>((meta[addr] & 1u) | (length_offset << 1));
        if (log_ != nullptr)
            log_->add(WriteLog::Table::ResultMeta, 0, addr, 1);
    }

    /**
     * True if @p addr passes its parity check.  One even-parity bit
     * per slot, maintained by write(); a soft error is detectable
     * until the slot is rewritten.
     */
    bool parityOk(uint32_t addr) const { return img_->parityOk(addr); }

    /**
     * Soft-error model: flip bit @p bit of the next hop stored at
     * @p addr without updating parity.  Not a write: never logged.
     */
    void flipBit(uint32_t addr, unsigned bit);

    /** Slots currently inside allocated blocks. */
    uint64_t allocatedSlots() const { return blocks_.allocated(); }

    /** Highest table address ever provisioned + 1. */
    uint64_t highWater() const { return img_->slots.size(); }

    /** Allocations performed (update-cost statistic). */
    uint64_t allocations() const { return blocks_.allocations(); }

    /** Frees performed. */
    uint64_t frees() const { return blocks_.frees(); }

    /**
     * Serialize slots, free lists and allocator counters (parity is
     * recomputed on load, offsets are re-derived by the cells).
     * Free-list order matters: it decides which base the next
     * allocate() of a class returns.
     */
    void saveState(persist::Encoder &enc) const;

    /** Restore from saveState(); throws persist::DecodeError. */
    void loadState(persist::Decoder &dec);

    /** Parity bit of a slot's next hop, bit 0 of its meta byte. */
    static uint8_t
    parityOf(NextHop next_hop)
    {
        return static_cast<uint8_t>(
            popcount64(static_cast<uint64_t>(next_hop)) & 1u);
    }

  private:
    /** The image a stand-alone table owns (null when bound to one). */
    std::unique_ptr<Image> own_;
    Image *img_;
    WriteLog *log_ = nullptr;
    BlockAllocator blocks_;
};

} // namespace chisel

#endif // CHISEL_CORE_RESULT_TABLE_HH
