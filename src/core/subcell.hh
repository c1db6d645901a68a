/**
 * @file
 * Chisel sub-cell: one collapsed-length lookup engine (Figure 6).
 *
 * A sub-cell serves the prefixes whose lengths fall in one interval
 * [base, top] of the collapse plan.  It owns:
 *
 *  - an Index Table (BloomierFilter) keyed by collapsed prefixes,
 *    whose encoded codes are Filter/Bit-vector slot indices;
 *  - a Filter Table holding the collapsed prefixes themselves, which
 *    eliminates false positives and carries the dirty bits, and a
 *    Bit-vector Table holding each group's 2^stride suffix bits and
 *    Result Table pointer — one GroupTable record per slot;
 *  - the shadow state that drives updates: the Index registry holds
 *    each group's collapsed prefix and Filter slot, and flat arrays
 *    by slot hold its Result block and its members (ShadowGroups).
 *
 * What a lookup reads of a cell — the Index slots and hash lanes and
 * the GroupTable records, with the length range and stride — is its
 * CellImage, which lives in an engine image (in that image's
 * ImageArena); the rest of the SubCell is writer-owned control state.
 * The Result Table is shared across sub-cells and passed in by the
 * engine.  A lookup makes exactly four table accesses: Index, Filter,
 * Bit-vector, Result — independent of key width.  The Result entry
 * also carries, beside its parity bit, the matched length minus the
 * cell base, so a lookup reads no shadow state; only the soft lookup
 * after a parity error does.
 *
 * The engine's CellSummary, when passed in the same way, learns which
 * regions hold this cell's groups: the cell counts its groups per
 * region and sets or clears its summary bit as a count leaves or
 * reaches zero, wherever a group is created or erased.  Neither the
 * offsets nor the summary are modeled hardware or snapshot bytes;
 * loadState() re-derives both from the shadow.
 */

#ifndef CHISEL_CORE_SUBCELL_HH
#define CHISEL_CORE_SUBCELL_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "bloom/bloomier.hh"
#include "common/write_log.hh"
#include "concurrent/relaxed.hh"
#include "core/cell_summary.hh"
#include "core/collapse.hh"
#include "core/group_table.hh"
#include "core/result_table.hh"
#include "core/shadow.hh"
#include "health/damping.hh"
#include "route/table.hh"

namespace chisel {

namespace fault { class FaultInjector; }
namespace persist { class Encoder; class Decoder; }

/**
 * How an update was applied — the categories of Figure 14.
 */
enum class UpdateClass : uint8_t
{
    Withdraw,        ///< withdraw(p, l).
    RouteFlap,       ///< Announce restoring a recently withdrawn prefix.
    NextHopChange,   ///< Announce of an already-present prefix.
    AddCollapsed,    ///< New prefix landing on an existing group
                     ///  ("Add PC": bit-vector update only).
    SingletonInsert, ///< New group encoded via a singleton slot, O(1).
    Resetup,         ///< New group forcing a partition re-setup.
    Spill,           ///< Handled by the spillover TCAM.
    NoOp,            ///< Withdraw of an absent prefix, etc.
    Expire,          ///< TTL garbage collection retired the prefix.
};

/** Number of UpdateClass values (sizes stats/telemetry arrays). */
constexpr size_t kUpdateClassCount = 9;

/** Human-readable category name. */
const char *updateClassName(UpdateClass c);

/** Result of a sub-cell probe. */
struct CellHit
{
    bool hit = false;
    NextHop nextHop = kNoRoute;
    unsigned matchedLength = 0;
};

/**
 * What a lookup reads of one sub-cell: its Index image and GroupTable
 * records, and the length range and stride that address them.  None
 * of it changes between two installs except the words an update
 * writes (and, on a reseed, the lanes).
 */
struct CellImage
{
    /** How a probe ended. */
    enum class Probe : uint8_t
    {
        Miss,
        Hit,
        Parity,   ///< A word read failed its parity check.
    };

    /** Empty tables in @p memory; the SubCell constructor sizes them. */
    explicit CellImage(std::pmr::memory_resource *memory)
        : index(memory), records(memory)
    {}

    /** A copy of @p other whose tables live in @p memory. */
    CellImage(const CellImage &other, std::pmr::memory_resource *memory)
        : base(other.base), stride(other.stride),
          index(other.index, memory), records(other.records, memory)
    {}

    CellImage(CellImage &&) = default;

    /**
     * The hardware four-access lookup sequence against this image and
     * @p results.  On Hit, @p out holds the answer; on Parity the
     * answer must come from elsewhere (the shadow).
     */
    Probe probe(const Key128 &key, const ResultTable::Image &results,
                CellHit &out) const;

    /** Suffix value (the Bit-vector index) of @p key in this cell. */
    uint64_t
    suffix(const Key128 &key) const
    {
        unsigned avail = std::min(stride, Key128::maxBits - base);
        return key.extract(base, avail) << (stride - avail);
    }

    unsigned base = 0;
    unsigned stride = 0;
    BloomierFilter::Image index;
    GroupTable::Image records;
};

/**
 * One sub-cell of the Chisel LPM engine.
 */
class SubCell
{
  public:
    /** Construction parameters. */
    struct Config
    {
        CellRange range;         ///< Lengths served: [base, top].
        unsigned stride = 4;     ///< Global collapse stride.
        size_t capacity = 1024;  ///< Groups provisioned.
        unsigned keyWidth = 32;  ///< For storage accounting.
        unsigned k = 3;
        double ratio = 3.0;
        unsigned partitions = 1;
        unsigned resultPointerBits = 22;
        uint64_t seed = 1;
        /**
         * Bounded-retry budget: when an Index setup cannot place
         * every key, retry with fresh hash seeds up to this many
         * times before evicting the stragglers to the spillover
         * path.
         */
        unsigned setupRetries = 3;
        /**
         * Retain emptied groups dirty for flap restoration
         * (Section 4.4.1).  Disabled only by the ablation that
         * quantifies what the dirty bit buys.
         */
        bool retainDirtyGroups = true;
        /**
         * Retention budget for dirty groups (0 = unbounded, the
         * paper's behaviour).  When a withdraw would push dirtyCount()
         * past the budget, the dirty group with the lowest decayed
         * flap penalty is evicted — decay-ordered, so hot flappers
         * keep their cheap-restore slots (docs/robustness.md).
         */
        size_t dirtyBudget = 0;
        /** Flap-damping parameters feeding the eviction order. */
        health::DampingConfig damping;
    };

    /** Result of a sub-cell probe. */
    using Hit = CellHit;

    /**
     * @param summary The engine's cell-presence summary, kept exact
     *        for this cell's groups under @p summary_bit; nullptr (a
     *        stand-alone cell) or bit 0 reports nothing.
     * @param image The engine image's slot for this cell, which the
     *        constructor sizes and fills; nullptr, the cell owns one
     *        on the heap.
     */
    SubCell(const Config &config, ResultTable *results,
            CellSummary *summary = nullptr, uint64_t summary_bit = 0,
            CellImage *image = nullptr);

    SubCell(const SubCell &) = delete;
    SubCell &operator=(const SubCell &) = delete;

    /**
     * Write (and read) @p image and @p summary from now on: the same
     * cell of another engine image, with the same content.
     */
    void bind(CellImage &image, CellSummary *summary);

    /** Name every later image write in @p log as cell @p cell. */
    void setLog(WriteLog *log, uint32_t cell);

    /** True if this cell serves prefixes of @p len. */
    bool
    coversLength(unsigned len) const
    {
        return config_.range.covers(len);
    }

    /**
     * Bulk-load routes (all with covered lengths).  Routes whose
     * groups could not be placed are appended to @p displaced for
     * the engine's spillover TCAM.
     */
    void buildFrom(const std::vector<Route> &routes,
                   std::vector<Route> &displaced);

    /**
     * Probe the cell: the hardware four-access lookup sequence.
     */
    Hit lookup(const Key128 &key) const
    {
        return lookup(*img_, results_->image(), key);
    }

    /**
     * Probe @p image (this cell's, in any engine image) and
     * @p results; a parity error is answered from the shadow and
     * flags the cell for recovery.  Writer side: the caller excludes
     * updates.
     */
    Hit lookup(const CellImage &image, const ResultTable::Image &results,
               const Key128 &key) const;

    /**
     * Announce a prefix with a covered length.  Groups displaced by
     * a Bloomier rebuild (or by capacity exhaustion) are dismantled
     * and their member routes appended to @p displaced.
     */
    UpdateClass announce(const Prefix &prefix, NextHop next_hop,
                         std::vector<Route> &displaced);

    /** Withdraw a prefix.  @return NoOp if it was not present. */
    UpdateClass withdraw(const Prefix &prefix);

    /** Exact-prefix membership (via shadow state). */
    std::optional<NextHop> find(const Prefix &prefix) const;

    /** Append every live route (dirty groups excluded) to @p out. */
    void exportRoutes(std::vector<Route> &out) const;

    /**
     * Purge all dirty (withdrawn-but-retained) groups, freeing their
     * Index and Filter slots.  Invoked by the engine and internally
     * when the Filter free list runs dry — the paper purges on
     * resetups (Section 4.4.1).
     */
    size_t purgeDirty();

    /** Live (non-dirty) collapsed groups. */
    size_t groupCount() const { return groups_ - dirtyCount_; }

    /** Original prefixes stored (excludes displaced ones). */
    size_t routeCount() const { return routes_; }

    /** Number of dirty groups currently retained. */
    size_t dirtyCount() const { return dirtyCount_; }

    /** High-water mark of dirtyCount() since construction/restore. */
    size_t dirtyPeak() const { return dirtyPeak_; }

    /** The flap damper driving suppress/evict decisions (tests). */
    const health::FlapDamper &damper() const { return damper_; }

    unsigned base() const { return config_.range.base; }
    unsigned top() const { return config_.range.top; }
    size_t capacity() const { return config_.capacity; }

    /** Construction parameters (snapshots re-create cells from them). */
    const Config &cellConfig() const { return config_; }

    /** Index Table storage in bits. */
    uint64_t indexBits() const { return index_.storageBits(); }

    /** Filter Table storage in bits. */
    uint64_t filterBits() const { return table_.filterStorageBits(); }

    /** Bit-vector Table storage in bits. */
    uint64_t bitvectorBits() const { return table_.vectorStorageBits(); }

    /** Parity overhead: one bit per Index/Filter/Bit-vector word. */
    uint64_t
    parityBits() const
    {
        return index_.slots() + 2ull * config_.capacity;
    }

    /** Bloomier operation counters. */
    const BloomierFilter::Stats &indexStats() const
    {
        return index_.stats();
    }

    /**
     * Hardware words written by updates — what the shadow copy
     * transfers to the engine (Section 4.4: "the changed bit-vectors
     * alone need to be written").  One bit-vector entry, one Result
     * Table slot, one Index slot and one Filter entry each count as
     * one word.
     */
    struct WriteCounters
    {
        uint64_t bitvectorWrites = 0;
        uint64_t resultWrites = 0;
        uint64_t filterWrites = 0;

        uint64_t
        total() const
        {
            return bitvectorWrites + resultWrites + filterWrites;
        }
    };

    const WriteCounters &writeCounters() const { return writes_; }
    void resetWriteCounters() { writes_ = WriteCounters{}; }

    /** Index slots one partition rebuild rewrites. */
    size_t
    indexPartitionSlots() const
    {
        return index_.partitionSlots();
    }

    /**
     * Robustness counters (soft errors, retries) since construction.
     * Relaxed atomics: concurrent lookups bump parityDetected from
     * any reader thread (docs/concurrency.md).
     */
    struct FaultCounters
    {
        concurrent::RelaxedU64 parityDetected;   ///< Lookups served soft.
        concurrent::RelaxedU64 parityRecoveries; ///< recoverParity() runs.
        concurrent::RelaxedU64 setupRetries;     ///< Reseed-retry attempts.
    };

    const FaultCounters &faultCounters() const { return faults_; }

    /** Overload-resilience counters (docs/robustness.md). */
    struct HealthCounters
    {
        concurrent::RelaxedU64 dirtyEvictions;  ///< Budget evictions.
        concurrent::RelaxedU64 suppressedFlaps; ///< Flaps of damped groups.
    };

    const HealthCounters &healthCounters() const { return health_; }

    /**
     * True if a lookup detected a parity error since the last
     * recovery; the engine runs recoverParity() at its next update.
     */
    bool parityPending() const { return parityPending_; }

    /** Flag the cell for recovery at the next update (a scrub's verdict). */
    void flagRecovery() const { parityPending_ = true; }

    /**
     * Walk every parity word of this cell's Index, Filter and
     * Bit-vector tables in @p image, flagging the cell for recovery if
     * any check fails — the read side of the background scrubber
     * (docs/concurrency.md).  Const: only counters and the pending
     * flag (both atomic) change.  @return parity words that failed.
     */
    size_t verifyParity(const CellImage &image) const;

    /** Parity words a verifyParity() pass checks. */
    size_t
    parityWordCount() const
    {
        return index_.slots() + 2 * config_.capacity;
    }

    /**
     * Recover-by-resetup: re-derive every hardware word (Index,
     * Filter, Bit-vector, Result block) of this cell from the shadow
     * copy, scrubbing any soft error.  Groups the retried Index
     * setup still cannot place are dismantled into @p displaced.
     * With a write log, the whole cell is named in it.
     */
    void recoverParity(std::vector<Route> &displaced);

    /**
     * True if the last announce's singleton encode XORed a word that
     * failed parity (BloomierFilter::takeTainted); clears the flag.
     */
    bool takeTainted() { return index_.takeTainted(); }

    /** Soft-error injection: corrupt one random Index slot bit. */
    void corruptIndexBit(fault::FaultInjector &injector);

    /** Soft-error injection: corrupt one random Filter key bit. */
    void corruptFilterBit(fault::FaultInjector &injector);

    /** Soft-error injection: corrupt one random Bit-vector bit. */
    void corruptBitVectorBit(fault::FaultInjector &injector);

    /**
     * Deep consistency check (tests): every shadow member is
     * retrievable through the hardware lookup path of @p image and
     * @p results with the matched length ShadowGroups::longestCover()
     * derives, the members of each group are sorted, and the route
     * and per-region group counts match a recount.
     */
    bool selfCheck(const CellImage &image,
                   const ResultTable::Image &results) const;

    /** selfCheck() of the bound image. */
    bool
    selfCheck() const
    {
        return selfCheck(*img_, results_->image());
    }

    /**
     * Set this cell's bit in @p summary for every group it holds — a
     * recount from the groups, for the engine's selfCheck().
     */
    void markGroups(CellSummary &summary) const;

    /**
     * Serialize the full cell state: Index/Filter/Bit-vector images,
     * group map (slot, result block, shadow members, dirty flag),
     * flap history and counters.  The shared Result Table is the
     * engine's to save.  Geometry comes from Config and is validated,
     * not duplicated.
     */
    void saveState(persist::Encoder &enc) const;

    /**
     * Restore from saveState(); throws persist::DecodeError on any
     * malformed field.  The cell must be freshly constructed with the
     * same Config used at save time.
     */
    void loadState(persist::Decoder &dec);

  private:
    /** (collapsed key, Filter slot) of each group: Index setup entries. */
    using Entries = std::vector<std::pair<Key128, uint32_t>>;

    /** Collapsed key (Key128 of the group) for a covered prefix. */
    Key128
    collapsedKey(const Prefix &prefix) const
    {
        return prefix.bits().masked(config_.range.base);
    }

    /** Granted size of @p slot's Result block (0 = none). */
    uint32_t
    resultSize(uint32_t slot) const
    {
        const uint8_t cls = resultClass_[slot];
        return cls == 0 ? 0 : uint32_t(1) << (cls - 1);
    }

    /** Give @p slot a fresh Result block for @p entries; free the old. */
    void allocateResults(uint32_t slot, uint32_t entries);

    /** Free @p slot's Result block, if any. */
    void freeResults(uint32_t slot);

    /** Every group's (key, slot), in Filter slot order. */
    Entries groupsBySlot() const;

    /** Re-derive and write a group's hardware image. */
    void refreshImage(uint32_t slot);

    /** Count a group added at @p ckey; summary bookkeeping. */
    void noteGroupAdded(const Key128 &ckey);

    /** Count a group erased at @p ckey; summary bookkeeping. */
    void noteGroupErased(const Key128 &ckey);

    /** Name summary region @p region (or the always mask) in the log. */
    void logSummary(WriteLog::Table table, uint32_t region);

    /** The matched length the shadow copy derives (for cross-checks). */
    unsigned shadowLength(const Key128 &ckey, uint64_t slot) const;

    /**
     * Shadow-copy fallback for a lookup that hit a parity error:
     * correct by construction, and flags the cell for recovery.
     */
    Hit softLookup(const Key128 &key, const Key128 &ckey) const;

    /**
     * Rebuild the Index over @p groups, every group of the cell
     * (slots preserved), retrying with fresh hash seeds up to
     * Config::setupRetries times; groups that still cannot be placed
     * are dismantled into @p displaced.  @return groups dismantled.
     */
    size_t resetupIndex(const Entries &groups,
                        std::vector<Route> *displaced);

    /** Dismantle the group at @p slot, releasing all its resources. */
    void dismantleGroup(const Key128 &ckey, uint32_t slot,
                        std::vector<Route> *displaced);

    /**
     * Evict lowest-penalty dirty groups until dirtyCount() respects
     * Config::dirtyBudget (no-op when the budget is 0).
     */
    void enforceDirtyBudget();

    /** Record a withdrawal for route-flap classification. */
    void noteRemoved(const Prefix &prefix);

    Config config_;
    /** The image a stand-alone cell owns (null when bound to one). */
    std::unique_ptr<CellImage> own_;
    CellImage *img_;
    WriteLog *log_ = nullptr;
    uint32_t logCell_ = 0;
    ResultTable *results_;
    CellSummary *summary_;
    uint64_t summaryBit_;
    /** Base >= the summary's region prefix: each group has one region. */
    bool regional_;
    /** Groups per summary region (regional cells; sized on first use). */
    std::vector<uint32_t> regionGroups_;
    /** Scratch for deriving group images: refreshes allocate nothing. */
    GroupImage image_;
    /** Index Table; its registry is the cell's one copy of group keys. */
    BloomierFilter index_;
    GroupTable table_;
    /** Members by Filter slot. */
    ShadowGroups shadow_;
    /** By Filter slot: Result block base, and log2(size) + 1 (0 = none). */
    std::vector<uint32_t> resultBase_;
    std::vector<uint8_t> resultClass_;
    /** Groups held, dirty ones included. */
    size_t groups_ = 0;
    std::unordered_set<Prefix, PrefixHasher> recentlyRemoved_;
    size_t routes_ = 0;
    size_t dirtyCount_ = 0;
    size_t dirtyPeak_ = 0;
    health::FlapDamper damper_;
    HealthCounters health_;
    WriteCounters writes_;
    /**
     * Mutable: lookups (const) detect soft errors and flag them — on
     * the writer's side only (a stand-alone engine, or a reader that
     * took the writer lock for its soft lookup).
     */
    mutable FaultCounters faults_;
    mutable concurrent::RelaxedFlag parityPending_;
};

} // namespace chisel

#endif // CHISEL_CORE_SUBCELL_HH
