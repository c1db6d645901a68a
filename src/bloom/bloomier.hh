/**
 * @file
 * Bloomier filter (Chazelle, Kilian, Rubinfeld, Tal; SODA 2004), with
 * the Chisel extensions of Sections 4.1, 4.2 and 4.4:
 *
 *  - codes stored in the Index Table are *pointers* into an external
 *    table of n locations (Equation 4), not the k-valued hτ of the
 *    original construction;
 *  - incremental insertion through singleton slots;
 *  - d-way logical partitioning by a hash checksum, so that the rare
 *    insert with no singleton rebuilds only 1/d of the keys;
 *  - spillover handling: keys the peeling cannot place are reported
 *    so the caller can park them in a small spillover TCAM.
 *
 * The Index Table is segmented: hash function i indexes only segment
 * i of a partition, mirroring the FPGA prototype's "3-way segmented
 * memory" and guaranteeing that a key's k slots are distinct (XOR
 * recovery breaks if two of a key's slots coincide).
 *
 * Lookup evaluates Equation 2: XOR of the k slot values yields the
 * encoded code for any key that was inserted.  For absent keys the
 * XOR is arbitrary — the caller must verify against the stored key
 * (the Filter Table) to eliminate false positives, per Section 4.2.
 */

#ifndef CHISEL_BLOOM_BLOOMIER_HH
#define CHISEL_BLOOM_BLOOMIER_HH

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <optional>
#include <vector>

#include "common/bitops.hh"
#include "common/key128.hh"
#include "common/write_log.hh"
#include "hash/mix.hh"

namespace chisel {

namespace persist { class Encoder; class Decoder; }

/** Construction parameters for a Bloomier filter. */
struct BloomierConfig
{
    /**
     * Number of hash functions (paper design point: 3; at most
     * BloomierFilter::kMaxHashes).
     */
    unsigned k = 3;

    /** Index-table slots per key, m/n (paper design point: 3). */
    double ratio = 3.0;

    /** Key length in bits; all keys of one filter share it. */
    unsigned keyLen = 32;

    /** Logical partitions d (Section 4.4.2); 1 disables partitioning. */
    unsigned partitions = 1;

    /** Hash-family seed. */
    uint64_t seed = 0xC0FFEE;
};

/**
 * A dynamic Bloomier filter mapping fixed-length keys to codes.
 *
 * Codes are 31-bit values chosen by the caller (Chisel passes
 * Filter-table slot indices).  The filter maintains a software
 * registry of its keys — the "shadow copy" of Section 4.4 — so that
 * partitions can be rebuilt; the hardware image is the slot array and
 * hash lanes of its Image, which a lookup reads alone.  The registry
 * is one flat open-addressing table per partition, and it is the only
 * software copy of the keys a SubCell keeps.
 *
 * The filter writes one Image at a time: its own (a stand-alone
 * filter), or one an engine image holds, rebound between updates when
 * a ConcurrentChisel alternates images.  With a WriteLog attached,
 * every slot or lane write is also named in it.
 */
class BloomierFilter
{
  public:
    /** Largest supported number of hash functions k. */
    static constexpr unsigned kMaxHashes = 8;

    /**
     * What a lookup reads: the Index Table slots and the hash lanes,
     * with the geometry that indexes them.  The geometry is fixed at
     * construction; a reseed rewrites the lanes, every update some
     * slots.
     */
    struct Image
    {
        /** Where a key lives: its partition and its k Index slots. */
        struct Probe
        {
            unsigned partition;
            /** One slot per segment of the partition, in function order. */
            size_t slots[kMaxHashes];
        };

        /** Empty arrays in @p memory; the filter's constructor fills them. */
        explicit Image(std::pmr::memory_resource *memory)
            : lanes(memory), slots(memory)
        {}

        /** A copy of @p other whose arrays live in @p memory. */
        Image(const Image &other, std::pmr::memory_resource *memory);

        Image(Image &&) = default;
        Image(const Image &) = delete;
        Image &operator=(const Image &) = delete;

        /**
         * The fused hash pass: one walk over the key's nibbles through
         * the lanes gives the k segment hashes and the partition
         * checksum (Section 4.4.2), each reduced to a slot or
         * partition index.
         */
        Probe probe(const Key128 &key) const;

        /**
         * The partition of @p key alone: the checksum lane of probe(),
         * without the k segment lanes.
         */
        unsigned partition(const Key128 &key) const;

        /** BloomierFilter::lookupCode() over this image. */
        uint32_t lookupCode(const Key128 &key,
                            bool *parity_ok = nullptr) const;

        /** True if @p slot passes its parity check (even over the word). */
        bool
        parityOk(size_t slot) const
        {
            return (popcount64(slots[slot]) & 1u) == 0;
        }

        unsigned k = 0;
        unsigned slotWidthBits = 0;
        size_t partitionSlots = 0;   ///< Slots per partition (k segments).
        size_t segmentSlots = 0;     ///< Slots per segment.
        FastRemainder segmentMod;    ///< x % segmentSlots.
        FastRemainder partitionMod;  ///< x % partitions.

        /**
         * Nibble tables of the k segment functions (lanes 0..k-1) and
         * the partition checksum (lane k), interleaved so the k + 1
         * entries a nibble selects sit side by side: entry [(pos * 16
         * + value) * (k + 1) + lane], for the ceil(keyLen / 4) nibble
         * positions.  Bits of the last nibble beyond keyLen select no
         * rows.
         */
        std::pmr::vector<uint64_t> lanes;
        /** Per lane, the length rows of keyLen (every key shares it). */
        uint64_t laneLengthRows[kMaxHashes + 1] = {};

        /** The Index Table D[]: value bits, parity in bit 31. */
        std::pmr::vector<uint32_t> slots;
    };

    /** How an insert was accomplished (Figure 14's categories). */
    enum class InsertMethod
    {
        Singleton,   ///< Encoded directly into an empty slot, O(1).
        Rebuild,     ///< Required re-running setup on one partition.
        Failed,      ///< Could not be placed even after rebuild.
        Duplicate,   ///< Key already present; nothing done.
    };

    /** Result of an insert. */
    struct InsertResult
    {
        InsertMethod method = InsertMethod::Failed;
        /**
         * Keys (with their codes) evicted during a rebuild because
         * peeling could not place them; the caller must park them in
         * the spillover TCAM.  The inserted key itself appears here
         * when method == Failed.
         */
        std::vector<std::pair<Key128, uint32_t>> spilled;
    };

    /** Cumulative operation counters. */
    struct Stats
    {
        uint64_t singletonInserts = 0;
        uint64_t rebuilds = 0;
        uint64_t spilledKeys = 0;
        uint64_t erases = 0;
        uint64_t reseeds = 0;
        /**
         * Full setup() passes (bulk peeling over every partition) —
         * the expensive cold-start event a snapshot restore avoids;
         * warm restarts assert this stays flat (docs/persistence.md).
         */
        uint64_t setups = 0;
    };

    /**
     * A stand-alone filter that owns its image.
     *
     * @param capacity Number of keys the filter is provisioned for
     *        (n); the Index Table gets ceil(ratio*n) slots, rounded
     *        up so that every partition has k equal segments.
     * @param config Construction parameters.
     * @param memory Where the Index slots and hash lanes live.
     */
    BloomierFilter(size_t capacity, const BloomierConfig &config,
                   std::pmr::memory_resource *memory =
                       std::pmr::get_default_resource());

    /**
     * A filter writing @p image (an engine image's), which this
     * constructor sizes and fills; it must outlive the binding.
     */
    BloomierFilter(size_t capacity, const BloomierConfig &config,
                   Image &image);

    BloomierFilter(const BloomierFilter &) = delete;
    BloomierFilter &operator=(const BloomierFilter &) = delete;

    /** Write (and read) @p image from now on; same geometry. */
    void bind(Image &image) { img_ = &image; }

    /** The image this filter writes. */
    const Image &image() const { return *img_; }

    /** Name every later slot or lane write in @p log as cell @p cell. */
    void
    setLog(WriteLog *log, uint32_t cell)
    {
        log_ = log;
        logCell_ = cell;
    }

    /**
     * Bulk setup: replaces the current content with @p entries and
     * runs the peeling setup on every partition.
     *
     * @return Keys that could not be placed (for the spillover TCAM);
     *         empty on full success.
     */
    std::vector<std::pair<Key128, uint32_t>>
    setup(const std::vector<std::pair<Key128, uint32_t>> &entries);

    /**
     * Insert one key.  Tries the O(1) singleton encode first; if no
     * slot of the key is unoccupied, rebuilds the key's partition.
     */
    InsertResult insert(const Key128 &key, uint32_t code);

    /**
     * True if a singleton encode since the last call XORed a slot
     * that failed its parity check, so the word it wrote is wrong
     * though its parity holds; clears the flag.  The caller recovers
     * the cell before the word can reach another image.
     */
    bool
    takeTainted()
    {
        bool t = tainted_;
        tainted_ = false;
        return t;
    }

    /**
     * Remove a key's occupancy.  Its stale encoding remains in the
     * slot array — harmless, since lookups of other keys never XOR
     * it, and the Filter Table check rejects the removed key.
     *
     * @return true if the key was present.
     */
    bool erase(const Key128 &key);

    /**
     * Equation 2: XOR of the key's k slots.  For inserted keys this
     * is the code passed to insert(); for absent keys it is garbage
     * that the caller must filter (Section 4.2).
     *
     * @param parity_ok When non-null, set to false if any of the k
     *        slots read fails its parity check (soft-error detection;
     *        the returned code must then not be trusted).
     */
    uint32_t
    lookupCode(const Key128 &key, bool *parity_ok = nullptr) const
    {
        return img_->lookupCode(key, parity_ok);
    }

    /** Software registry membership (exact; no false positives). */
    bool contains(const Key128 &key) const;

    /**
     * Code of a key per the software registry, if present.  Hashes
     * only the partition lane, not the key's k Index slots.
     */
    std::optional<uint32_t> findCode(const Key128 &key) const;

    /**
     * Call @p fn(key, code) for every registered key, partition by
     * partition in table order (not key order).
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Registry &reg : registry_)
            reg.forEach(fn);
    }

    /**
     * True if inserting @p key now would find a singleton slot, i.e.
     * would be O(1).  Used by tests and by the update classifier.
     */
    bool hasSingletonSlot(const Key128 &key) const;

    /** Number of keys currently placed (excluding spilled). */
    size_t size() const { return size_; }

    /** Provisioned capacity n. */
    size_t capacity() const { return capacity_; }

    /** Total Index Table slots m. */
    size_t slots() const { return img_->slots.size(); }

    /** Number of logical partitions. */
    unsigned partitions() const { return partitions_; }

    /** Slots per partition (a rebuild rewrites this many). */
    size_t partitionSlots() const { return img_->partitionSlots; }

    /**
     * Width of one Index Table slot in bits (storage model); at most
     * 31, since bit 31 of the slot word holds its parity.
     */
    unsigned slotWidthBits() const { return img_->slotWidthBits; }

    /** Total Index Table storage in bits: m * slot width. */
    uint64_t storageBits() const;

    /** Operation counters. */
    const Stats &stats() const { return stats_; }

    /** Remove everything. */
    void clear();

    /**
     * Replace the hash family with one derived from @p seed and clear
     * the filter.  Used by the bounded-retry ladder when a setup
     * cannot place every key: new hash functions give the peeling an
     * independent chance.  The caller must re-setup() afterwards.
     */
    void reseed(uint64_t seed);

    /** Seed currently in use (changes on reseed). */
    uint64_t seed() const { return config_.seed; }

    /**
     * Soft-error model: flip value bit @p bit (mod slotWidthBits()) of
     * Index slot @p slot without updating its parity.  The corruption
     * is detectable by the parity check in lookupCode() until the
     * slot is legitimately rewritten.  Not a write: never logged.
     */
    void flipSlotBit(size_t slot, unsigned bit);

    /** True if @p slot passes its parity check (even over the word). */
    bool parityOk(size_t slot) const { return img_->parityOk(slot); }

    /** The raw slot word, parity bit included (tests). */
    uint32_t slotWord(size_t slot) const { return img_->slots[slot]; }

    /**
     * Consistency check (tests): every registered key's lookupCode
     * over @p image (default: the bound one) equals its registered
     * code.  O(n).
     */
    bool selfCheck(const Image *image = nullptr) const;

    /**
     * Serialize the filter: seed, the Index Table slot values without
     * their parity bits (the values encode the peeling result and
     * cannot be re-derived without re-running setup), the key
     * registry and the operation counters.  Geometry (capacity, k,
     * ratio, partitions) is not written — it is fixed by the
     * constructor arguments, and loadState() requires the running
     * instance to match.
     */
    void saveState(persist::Encoder &enc) const;

    /**
     * Restore from saveState() output: reseeds the hash family,
     * installs the slot array, re-registers every key and recomputes
     * occupancy counts and parity.  No peeling runs.  Throws
     * persist::DecodeError on malformed input (wrong slot count, a
     * slot value with a bit at or above slotWidthBits(), out-of-range
     * code, duplicate key).
     */
    void loadState(persist::Decoder &dec);

  private:
    /** Registry code of an empty table entry (never a valid code). */
    static constexpr uint32_t kNoCode = UINT32_MAX;

    /**
     * One partition's keys and codes, flat: open addressing with
     * linear probing.  An erase shifts the entries behind it back, so
     * churn leaves no tombstones.
     */
    class Registry
    {
      public:
        /** Drop every key; room for @p expected keys before growing. */
        void reset(size_t expected);

        size_t size() const { return size_; }

        /** The code of @p key, or kNoCode. */
        uint32_t find(const Key128 &key) const;

        /** Add @p key, which must be absent, with @p code. */
        void insert(const Key128 &key, uint32_t code);

        /** Remove @p key.  @return true if it was present. */
        bool erase(const Key128 &key);

        template <typename Fn>
        void
        forEach(Fn &&fn) const
        {
            for (size_t i = 0; i < codes_.size(); ++i) {
                if (codes_[i] != kNoCode)
                    fn(keys_[i], codes_[i]);
            }
        }

      private:
        /** First table index probed for @p key. */
        size_t home(const Key128 &key) const;

        /** Re-insert every key into a table of @p capacity entries. */
        void rehash(size_t capacity);

        std::vector<Key128> keys_;
        std::vector<uint32_t> codes_;   ///< kNoCode marks a free entry.
        size_t size_ = 0;
    };

    using Probe = Image::Probe;

    /** The partition of @p key (the checksum lane alone). */
    unsigned
    partitionOf(const Key128 &key) const
    {
        return partitions_ == 1 ? 0 : img_->partition(key);
    }

    /** Count @p where's k slots as occupied by one more key. */
    void occupy(const Probe &where);

    /** Undo occupy(). */
    void vacate(const Probe &where);

    /** Size and fill @p image for this filter's geometry and seed. */
    void initImage(Image &image);

    /** Fill the bound image's lanes from config_.seed's hash functions. */
    void buildLanes();

    /**
     * Write the encoding of @p code into slot @p target, one of the
     * key's k slots @p slots.  Unlogged: callers name the range.
     */
    void encodeAt(const size_t slots[], uint32_t code, size_t target);

    /** Name slots [first, first + count) in the write log, if any. */
    void
    logSlots(size_t first, size_t count)
    {
        if (log_ != nullptr)
            log_->add(WriteLog::Table::IndexSlots, logCell_, first, count);
    }

    /** Slot value bits; bit 31 is the slot's even-parity bit. */
    static constexpr uint32_t kValueMask = 0x7FFFFFFFu;

    /** Store @p value at @p slot with its parity bit in bit 31. */
    void
    writeSlot(size_t slot, uint32_t value)
    {
        img_->slots[slot] = value | (popcount64(value) & 1u) << 31;
    }

    /**
     * Re-run the peeling setup on partition @p p.  Keys that cannot
     * be placed are removed from the registry and appended to
     * @p spilled with their codes.
     */
    void rebuildPartition(unsigned p,
                          std::vector<std::pair<Key128, uint32_t>>
                              &spilled);

    size_t capacity_;
    BloomierConfig config_;
    unsigned partitions_;

    /** The image a stand-alone filter owns (null when bound to one). */
    std::unique_ptr<Image> own_;
    Image *img_ = nullptr;
    WriteLog *log_ = nullptr;
    uint32_t logCell_ = 0;
    bool tainted_ = false;

    /**
     * Keys per Index slot.  A byte: the mean is k·n/m ≤ 1 at the
     * design point, and occupy() refuses to pass 255.
     */
    std::vector<uint8_t> counts_;
    std::vector<Registry> registry_;  ///< Per-partition key registry.
    size_t size_ = 0;
    Stats stats_;
};

} // namespace chisel

#endif // CHISEL_BLOOM_BLOOMIER_HH
