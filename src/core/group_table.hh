/**
 * @file
 * Filter and Bit-vector Tables of a sub-cell, one record per slot.
 *
 * Filter half: the Index Table returns *some* code for every key, so
 * the Filter stores each group's collapsed prefix and a lookup
 * compares it with the collapsed key — false positives become
 * impossible (Section 4.2).  Each entry also carries the dirty bit of
 * the route-flap optimisation (Section 4.4.1).
 *
 * Bit-vector half: one bit per collapsed-suffix value plus a pointer
 * to the group's Result Table region; the popcount of the vector up
 * to the key's bit is the offset added to the pointer (Section 4.3.2,
 * Figure 5d).
 *
 * Both tables are indexed by the same Index code and a lookup reads
 * both at it, so slot i of each lives in one record, as u64 words:
 *
 *     [0] [1]        key (high, low half)                  Filter
 *     [2] bits 0-31  Result pointer                        Bit-vector
 *         bit 32     valid                                 Filter
 *         bit 33     dirty                                 Filter
 *         bit 34     even parity over key, valid, dirty    Filter
 *         bit 35     even parity over vector, pointer      Bit-vector
 *     [3 ..]         2^stride vector bits (W words)        Bit-vector
 *
 * A record is 32 bytes up to stride 6 (W = 1) and whole 64-byte lines
 * above, and the records start on a line, so none straddles a line it
 * could fit in.  The halves keep separate parity: a key flip fails
 * only the Filter check, a vector flip only the Bit-vector check, and
 * each stays detectable until its half is legitimately rewritten.
 * The access tracer still charges one Filter and one Bit-vector read,
 * and storage counts each half at its modeled width.
 */

#ifndef CHISEL_CORE_GROUP_TABLE_HH
#define CHISEL_CORE_GROUP_TABLE_HH

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <vector>

#include "common/bitops.hh"
#include "common/key128.hh"
#include "common/logging.hh"
#include "common/write_log.hh"
#include "telemetry/trace.hh"

namespace chisel {

namespace persist { class Encoder; class Decoder; }

/**
 * Fixed-capacity Filter and Bit-vector records with a slot free-list.
 *
 * The records and their geometry are the Image a lookup reads; the
 * free list is writer-owned.  The table writes one image at a time —
 * its own (stand-alone) or an engine image's, rebound between updates
 * — and names every word it writes in the WriteLog, if one is set.
 */
class GroupTable
{
  private:
    /** Word offsets inside a record. */
    static constexpr unsigned kKeyHi = 0;
    static constexpr unsigned kKeyLo = 1;
    static constexpr unsigned kMeta = 2;
    static constexpr unsigned kVector = 3;

    /** Bits of the meta word. */
    static constexpr uint64_t kPointer = 0xFFFFFFFFull;
    static constexpr uint64_t kValid = uint64_t(1) << 32;
    static constexpr uint64_t kDirty = uint64_t(1) << 33;
    static constexpr uint64_t kFilterParity = uint64_t(1) << 34;
    static constexpr uint64_t kVectorParity = uint64_t(1) << 35;
    static constexpr uint64_t kFilterFields =
        kValid | kDirty | kFilterParity;
    static constexpr uint64_t kVectorFields = kPointer | kVectorParity;

    /** Storage unit: the records start on a cache line. */
    struct alignas(64) Line
    {
        uint64_t words[8];
    };

  public:
    /** The records and the geometry a lookup indexes them with. */
    struct Image
    {
        /** No records yet, in @p memory; the table's constructor sizes it. */
        explicit Image(std::pmr::memory_resource *memory) : lines(memory) {}

        /** A copy of @p other whose records live in @p memory. */
        Image(const Image &other, std::pmr::memory_resource *memory)
            : capacity(other.capacity), keyBits(other.keyBits),
              vectorBits(other.vectorBits),
              wordsPerVector(other.wordsPerVector),
              pointerBits(other.pointerBits),
              recordWords(other.recordWords), lines(other.lines, memory)
        {}

        Image(Image &&) = default;
        Image(const Image &) = delete;
        Image &operator=(const Image &) = delete;

        const uint64_t *
        record(uint32_t slot) const
        {
            return words() + size_t(slot) * recordWords;
        }

        uint64_t *
        record(uint32_t slot)
        {
            return words() + size_t(slot) * recordWords;
        }

        const uint64_t *
        words() const
        {
            return reinterpret_cast<const uint64_t *>(lines.data());
        }

        uint64_t *
        words()
        {
            return reinterpret_cast<uint64_t *>(lines.data());
        }

        unsigned filterWidthBits() const { return keyBits + 2; }
        unsigned vectorWidthBits() const { return vectorBits + pointerBits; }

        /** True if @p slot is valid and stores exactly @p key. */
        bool
        matches(uint32_t slot, const Key128 &key) const
        {
            if (slot >= capacity)
                return false;
            // One hardware access: the whole entry (key + flags) is one
            // word.
            CHISEL_TRACE_ACCESS(Filter, slot, (filterWidthBits() + 7) / 8);
            const uint64_t *r = record(slot);
            return (r[kMeta] & kValid) && r[kKeyHi] == key.hi() &&
                   r[kKeyLo] == key.lo();
        }

        bool
        filterParityOk(uint32_t slot) const
        {
            const uint64_t *r = record(slot);
            return ((popcount64(r[kKeyHi]) + popcount64(r[kKeyLo]) +
                     popcount64(r[kMeta] & kFilterFields)) & 1u) == 0;
        }

        bool
        bit(uint32_t slot, uint64_t index) const
        {
            checkRange(slot, index, "GroupTable bit out of range");
            // One hardware access fetches the whole entry (vector +
            // pointer); the lookup's onesUpTo()/pointer() calls reuse
            // that word, so only this read is traced.
            CHISEL_TRACE_ACCESS(BitVector, slot,
                                (vectorWidthBits() + 7) / 8);
            return (record(slot)[kVector + index / 64] >> (index % 64)) & 1;
        }

        unsigned
        onesUpTo(uint32_t slot, uint64_t index) const
        {
            checkRange(slot, index, "GroupTable rank out of range");
            const uint64_t *v = record(slot) + kVector;
            unsigned total = 0;
            uint64_t word = index / 64;
            for (uint64_t w = 0; w < word; ++w)
                total += popcount64(v[w]);
            unsigned rem = static_cast<unsigned>(index % 64) + 1;
            return total + popcount64(v[word] & lowMask(rem));
        }

        uint32_t
        pointer(uint32_t slot) const
        {
            return static_cast<uint32_t>(record(slot)[kMeta]);
        }

        bool
        vectorParityOk(uint32_t slot) const
        {
            checkRange(slot, 0, "GroupTable parity out of range");
            const uint64_t *r = record(slot);
            unsigned ones = popcount64(r[kMeta] & kVectorFields);
            for (unsigned w = 0; w < wordsPerVector; ++w)
                ones += popcount64(r[kVector + w]);
            return (ones & 1u) == 0;
        }

        void
        checkRange(uint32_t slot, uint64_t index, const char *what) const
        {
            if (slot >= capacity || index >= vectorBits) [[unlikely]]
                panicIf(true, what);
        }

        size_t capacity = 0;
        unsigned keyBits = 0;
        unsigned vectorBits = 0;
        unsigned wordsPerVector = 0;
        unsigned pointerBits = 0;
        unsigned recordWords = 0;
        std::pmr::vector<Line> lines;
    };

    /**
     * A stand-alone table that owns its records.
     *
     * @param capacity Number of slots (n in the paper's sizing).
     * @param key_bits Width of the stored collapsed prefixes.
     * @param stride Collapse stride; vectors have 2^stride bits.
     * @param pointer_bits Result pointer width (storage model).
     * @param memory Where the records live.
     */
    GroupTable(size_t capacity, unsigned key_bits, unsigned stride,
               unsigned pointer_bits,
               std::pmr::memory_resource *memory =
                   std::pmr::get_default_resource());

    /**
     * A table writing @p image (an engine image's), which this
     * constructor sizes; it must outlive the binding.
     */
    GroupTable(size_t capacity, unsigned key_bits, unsigned stride,
               unsigned pointer_bits, Image &image);

    GroupTable(const GroupTable &) = delete;
    GroupTable &operator=(const GroupTable &) = delete;
    /** A move keeps the image where it is (an owned one is on the heap). */
    GroupTable(GroupTable &&) = default;

    /** Write (and read) @p image from now on; same geometry. */
    void bind(Image &image) { img_ = &image; }

    /** The image this table writes. */
    const Image &image() const { return *img_; }

    /** Name every later record write in @p log as cell @p cell. */
    void
    setLog(WriteLog *log, uint32_t cell)
    {
        log_ = log;
        logCell_ = cell;
    }

    /** Name every record word in the write log (a whole-cell rewrite). */
    void
    logAll()
    {
        logWords(0, capacity() * img_->recordWords);
    }

    size_t capacity() const { return img_->capacity; }

    /** Bytes per record: 32, or whole 64-byte lines above stride 6. */
    size_t recordBytes() const { return img_->recordWords * 8; }

    /** Address of @p slot's record (layout tests). */
    const void *
    recordAddress(uint32_t slot) const
    {
        return img_->record(slot);
    }

    // ---- Filter half ---------------------------------------------

    /** Allocate a slot.  @return slot index, or -1 if full. */
    int64_t allocate();

    /** Release a slot back to the free list. */
    void release(uint32_t slot);

    /** Install @p key at @p slot and mark it valid and clean. */
    void set(uint32_t slot, const Key128 &key);

    /** True if @p slot is valid and stores exactly @p key. */
    bool
    matches(uint32_t slot, const Key128 &key) const
    {
        return img_->matches(slot, key);
    }

    /** True if @p slot currently holds a key. */
    bool
    valid(uint32_t slot) const
    {
        return img_->record(slot)[kMeta] & kValid;
    }

    /** The key stored at @p slot. */
    Key128
    keyAt(uint32_t slot) const
    {
        const uint64_t *r = img_->record(slot);
        return Key128(r[kKeyHi], r[kKeyLo]);
    }

    /** Dirty flag (withdrawn-but-retained group). */
    bool
    dirty(uint32_t slot) const
    {
        return img_->record(slot)[kMeta] & kDirty;
    }

    void setDirty(uint32_t slot, bool dirty);

    /** True if @p slot's Filter half passes its parity check. */
    bool
    filterParityOk(uint32_t slot) const
    {
        return img_->filterParityOk(slot);
    }

    /**
     * Soft-error model: flip bit @p bit of the key stored at @p slot
     * without updating parity (detectable until rewritten).  Not a
     * write: never logged.
     */
    void flipKeyBit(uint32_t slot, unsigned bit);

    /**
     * Restore @p slot's Filter half to the pristine empty state
     * (recovery path: scrubs any soft error in a slot no group owns).
     * Free-list membership is not affected.
     */
    void resetSlot(uint32_t slot);

    /** Slots in use (valid). */
    size_t used() const { return used_; }

    /** Free slots remaining. */
    size_t available() const { return freeList_.size(); }

    /** Filter entry width in bits: key plus valid and dirty flags. */
    unsigned filterWidthBits() const { return img_->filterWidthBits(); }

    /** Filter Table storage in bits. */
    uint64_t
    filterStorageBits() const
    {
        return static_cast<uint64_t>(capacity()) * filterWidthBits();
    }

    /**
     * Serialize Filter entries and the free list (its order
     * determines which slot the next allocate() hands out, so it must
     * survive a restart for determinism).  Parity is recomputed on
     * load.
     */
    void saveFilter(persist::Encoder &enc) const;

    /** Restore from saveFilter(); throws persist::DecodeError. */
    void loadFilter(persist::Decoder &dec);

    // ---- Bit-vector half -----------------------------------------

    /** Bits per vector (2^stride). */
    unsigned vectorBits() const { return img_->vectorBits; }

    /** Replace the vector and Result pointer at @p slot. */
    void setVector(uint32_t slot, const std::vector<uint64_t> &bits,
                   uint32_t pointer);

    /** Zero the vector and pointer at @p slot (withdrawn group). */
    void clearVector(uint32_t slot);

    /** Bit @p index of the vector at @p slot. */
    bool
    bit(uint32_t slot, uint64_t index) const
    {
        return img_->bit(slot, index);
    }

    /** Number of ones in the vector at @p slot. */
    unsigned onesCount(uint32_t slot) const;

    /**
     * Number of ones up to and including @p index — the 1-based
     * result offset of Figure 5(d).  Only meaningful when
     * bit(slot, index) is set.
     */
    unsigned
    onesUpTo(uint32_t slot, uint64_t index) const
    {
        return img_->onesUpTo(slot, index);
    }

    /** Result-region pointer of @p slot. */
    uint32_t pointer(uint32_t slot) const { return img_->pointer(slot); }

    /** True if @p slot's Bit-vector half passes its parity check. */
    bool
    vectorParityOk(uint32_t slot) const
    {
        return img_->vectorParityOk(slot);
    }

    /**
     * Soft-error model: flip bit @p bit (mod vectorBits()) of the
     * vector at @p slot without updating parity.  Not logged.
     */
    void flipVectorBit(uint32_t slot, uint64_t bit);

    /** Bit-vector entry width in bits: vector plus pointer. */
    unsigned vectorWidthBits() const { return img_->vectorWidthBits(); }

    /** Bit-vector Table storage in bits. */
    uint64_t
    vectorStorageBits() const
    {
        return static_cast<uint64_t>(capacity()) * vectorWidthBits();
    }

    /** Serialize vector words and pointers (parity is recomputed). */
    void saveVectors(persist::Encoder &enc) const;

    /** Restore from saveVectors(); throws persist::DecodeError. */
    void loadVectors(persist::Decoder &dec);

  private:
    /** Size @p image for this geometry and fill the free list. */
    void initImage(Image &image, size_t capacity, unsigned key_bits,
                   unsigned stride, unsigned pointer_bits);

    /** Name record words [first, first + count) in the write log. */
    void
    logWords(size_t first, size_t count)
    {
        if (log_ != nullptr)
            log_->add(WriteLog::Table::Records, logCell_, first, count);
    }

    /** A legal Filter write: key, flags and a recomputed parity. */
    void writeFilter(uint32_t slot, const Key128 &key, bool valid,
                     bool dirty);

    /**
     * A legal Bit-vector write, after the vector words: the pointer
     * and a recomputed parity.
     */
    void writePointer(uint32_t slot, uint32_t pointer);

    /** The image a stand-alone table owns (null when bound to one). */
    std::unique_ptr<Image> own_;
    Image *img_ = nullptr;
    WriteLog *log_ = nullptr;
    uint32_t logCell_ = 0;
    std::vector<uint32_t> freeList_;
    size_t used_ = 0;
};

} // namespace chisel

#endif // CHISEL_CORE_GROUP_TABLE_HH
