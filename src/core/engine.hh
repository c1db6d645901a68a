/**
 * @file
 * ChiselEngine: the complete LPM architecture (Section 4).
 *
 * The engine composes one SubCell per collapse-plan interval, a
 * shared off-chip Result Table, a register for the default route,
 * and the small spillover TCAM of Section 4.1.  A lookup probes all
 * sub-cells (and the spillover TCAM) in parallel; a priority encoder
 * selects the hit from the sub-cell with the longest base — the
 * longest-prefix match, because the cells' length intervals are
 * disjoint and ascending.  Software probes the cells one at a time,
 * so it asks a CellSummary first which cells can hold a match, then
 * each named cell's presence bitmap whether it holds the key's
 * collapsed group, and probes only the cells both leave, longest base
 * first; the modeled access counts still charge every cell.
 *
 * An engine is two parts (docs/ARCHITECTURE.md, "Memory layout"):
 *
 *  - an EngineImage, everything a lookup reads: the summary masks and,
 *    per cell, the hash lanes, Index slots, GroupTable records and
 *    presence bitmap, in one huge-page-advised ImageArena; the Result
 *    Table entries, which grow, on hugePageResource(); the spill TCAM,
 *    the slow path and the default route;
 *  - the writer-owned control state: shadow groups, Bloomier key
 *    registries and occupancy, free lists, the Result allocator,
 *    per-region and per-bucket group counts, damper, TTL index and
 *    clock, and the counters.
 *
 * A stand-alone engine is one control state plus its own image.  A
 * ConcurrentChisel keeps one engine and a copy of its image, rebinds
 * the engine to whichever image is idle, and has every image word an
 * update writes named in a WriteLog, so the other image receives
 * exactly those words (docs/concurrency.md).
 *
 * Updates follow Section 4.4: the shadow copies inside the sub-cells
 * are modified first and the changed hardware words (bit-vectors,
 * result blocks, occasionally Index/Filter entries) re-written.  The
 * engine classifies every update into the categories of Figure 14
 * and accumulates them in UpdateStats.
 */

#ifndef CHISEL_CORE_ENGINE_HH
#define CHISEL_CORE_ENGINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/huge_pages.hh"
#include "common/write_log.hh"
#include "concurrent/relaxed.hh"
#include "core/cell_summary.hh"
#include "core/collapse.hh"
#include "core/result_table.hh"
#include "core/slowpath.hh"
#include "core/storage_model.hh"
#include "core/subcell.hh"
#include "core/ttl.hh"
#include "core/update_outcome.hh"
#include "route/table.hh"
#include "route/updates.hh"
#include "tcam/tcam.hh"

namespace chisel {

namespace telemetry { class EngineTelemetry; }
namespace persist { class Encoder; class Decoder; }

/** Engine construction parameters (paper design points as defaults). */
struct ChiselConfig
{
    /** Key width: 32 for IPv4, 128 for IPv6. */
    unsigned keyWidth = 32;

    /** Maximum collapsed bits per prefix (Section 4.3). */
    unsigned stride = 4;

    /** Bloomier hash functions (Section 4.1). */
    unsigned k = 3;

    /** Index Table slots per group, m/n (Section 4.1). */
    double ratio = 3.0;

    /** Logical Index Table partitions d (Section 4.4.2). */
    unsigned partitions = 16;

    /**
     * Spillover TCAM capacity (Section 4.1).  A hard limit: routes
     * displaced past it divert to the software slow path and drain
     * back as TCAM space frees up (docs/robustness.md).
     */
    size_t spillCapacity = 32;

    /**
     * Software slow-path map capacity (0 = unbounded).  Routes
     * arriving when the map is full are dropped with a hard-degraded
     * outcome and counted (docs/robustness.md) — bounded memory
     * beats silent unbounded growth under an update storm.
     */
    size_t slowPathCapacity = 65536;

    /** Sub-cell group capacity = observed groups x this headroom. */
    double capacityHeadroom = 2.0;

    /** Minimum sub-cell capacity (filler cells use exactly this). */
    size_t minCellCapacity = 1024;

    /** Cover all lengths in [1, keyWidth] so any update is legal. */
    bool coverAllLengths = true;

    /** Dirty-bit route-flap retention (Section 4.4.1). */
    bool retainDirtyGroups = true;

    /**
     * Per-cell retention budget for dirty groups (0 = unbounded, the
     * paper's behaviour).  With a budget set, a withdraw that would
     * exceed it evicts the dirty group with the lowest decayed flap
     * penalty, so dirtyCount() cannot grow without bound under a
     * flap storm (docs/robustness.md).
     */
    size_t dirtyBudgetPerCell = 0;

    /** Flap-damping parameters (src/health/damping.hh). */
    health::DampingConfig damping;

    /** Seed for every hash family in the engine. */
    uint64_t seed = 0xC415E1;

    /**
     * Default TTL armed on every announce, milliseconds (0 = routes
     * never expire).  Per-update overrides: Update::ttlMs replaces
     * the default; kTtlNever pins the route even when a default is
     * set.  Expiry is lazy — the GC tick retires deadline-overrun
     * routes as journal-visible Expire updates (docs/robustness.md).
     */
    uint64_t defaultTtlMs = 0;

    /**
     * Snapshots embed the full config and restore refuses a mismatch
     * (a snapshot laid out for one geometry must not be grafted onto
     * another); field-wise equality is that check.
     */
    bool operator==(const ChiselConfig &other) const = default;
};

/** Serialize a config (snapshot headers; see docs/persistence.md). */
void encodeConfig(persist::Encoder &enc, const ChiselConfig &config);

/** Inverse of encodeConfig; throws persist::DecodeError. */
ChiselConfig decodeConfig(persist::Decoder &dec);

/**
 * Stable fingerprint of a config — stamped into journal headers so a
 * journal is only ever replayed against the geometry it was written
 * under.
 */
uint64_t configFingerprint(const ChiselConfig &config);

/** Outcome of an engine lookup. */
struct LookupResult
{
    bool found = false;
    NextHop nextHop = kNoRoute;
    unsigned matchedLength = 0;

    /** True if the match came from the spillover TCAM. */
    bool fromSpill = false;

    /** True if the match came from the software slow path. */
    bool fromSlowPath = false;

    /** True if only the default route matched. */
    bool fromDefault = false;
};

/**
 * One engine image: every word a lookup reads, and nothing else.  A
 * lookup over it is the engine's lookup path without the shadow: a
 * word that fails its parity check abandons it (parity_ok false), and
 * the caller answers through the engine's control state instead.
 */
class EngineImage
{
  public:
    /** An empty image for @p cells cells; the engine fills it. */
    EngineImage(unsigned key_width, size_t cells, size_t spill_capacity,
                size_t slow_path_capacity);

    /**
     * A deep copy into its own ImageArena, laid out as a build lays
     * out its original; the Result entries stay on hugePageResource().
     */
    EngineImage(const EngineImage &other);

    EngineImage &operator=(const EngineImage &) = delete;

    /**
     * Longest-prefix match over this image alone.  @p parity_ok is
     * set false (and the result is void) if a word read failed its
     * parity check.  Writes nothing.
     */
    LookupResult lookup(const Key128 &key, bool *parity_ok) const;

    /**
     * Copy the words @p log names from @p src, an image of the same
     * engine with the same layout: the replay that brings the retired
     * image up to the one just published.
     */
    void replay(const EngineImage &src, const WriteLog &log);

    /**
     * Memory of the fixed-size lookup arrays (summary masks, cells'
     * lanes, Index slots, records and presence bitmaps); declared
     * before its users so it outlives them.  Behind a pointer so its
     * address is stable.
     */
    std::unique_ptr<ImageArena> arena;
    /** Which cells can match a key; the cells keep it exact. */
    CellSummary summary;
    /** One per cell, in plan order; reserved up front, never moved. */
    std::vector<CellImage> cells;
    ResultTable::Image results;
    Tcam spill;
    SlowPathMap slowPath;
    std::optional<NextHop> defaultRoute;
};

/**
 * Engine-wide robustness counters (docs/robustness.md): how often
 * each rung of the degradation ladder was exercised.  Relaxed atomics
 * so concurrent readers and stat exporters never race the writer.
 */
struct RobustnessCounters
{
    concurrent::RelaxedU64 rejectedUpdates;  ///< Malformed updates refused.
    concurrent::RelaxedU64 tcamOverflows;    ///< Spill TCAM inserts refused.
    concurrent::RelaxedU64 slowPathInserts;  ///< Routes diverted to software.
    concurrent::RelaxedU64 slowPathDrains;   ///< Routes drained back to TCAM.
    concurrent::RelaxedU64 slowPathRejected; ///< Routes dropped: slow path full.
    concurrent::RelaxedU64 setupRetries;     ///< Index reseed-retry attempts.
    concurrent::RelaxedU64 parityDetected;   ///< Lookups served soft.
    concurrent::RelaxedU64 parityRecoveries; ///< Cell recover-by-resetup runs.
    concurrent::RelaxedU64 dirtyEvictions;   ///< Dirty groups evicted by budget.
    concurrent::RelaxedU64 suppressedFlaps;  ///< Flaps of damped groups.
};

/**
 * The paper's hardware accesses for a batch of lookups (Sections 6.5,
 * 6.7.1), the pattern ChiselPowerModel::measured prices.  What the
 * software touches is the access tracer's count instead.
 */
struct ModeledAccesses
{
    uint64_t lookups = 0;
    uint64_t indexSegmentReads = 0; ///< k per sub-cell per lookup.
    uint64_t filterReads = 0;       ///< 1 per sub-cell per lookup.
    uint64_t bitvectorReads = 0;    ///< 1 per sub-cell per lookup.
    uint64_t resultReads = 0;       ///< 1 per hit (off-chip).
};

/** Results of one background scrub pass (docs/concurrency.md). */
struct ScrubReport
{
    uint64_t wordsChecked = 0;    ///< Parity words verified.
    uint64_t errorsFound = 0;     ///< Words failing their check.
    uint64_t cellsRecovered = 0;  ///< Cells run through resetup.
};

/** Counters over the Figure 14 update categories. */
struct UpdateStats
{
    std::array<concurrent::RelaxedU64, kUpdateClassCount> counts{};

    void
    record(UpdateClass c)
    {
        ++counts[static_cast<size_t>(c)];
    }

    uint64_t
    count(UpdateClass c) const
    {
        return counts[static_cast<size_t>(c)];
    }

    uint64_t total() const;

    /** Fraction of updates in category @p c. */
    double fraction(UpdateClass c) const;

    /**
     * Fraction of updates applied incrementally, i.e. without a
     * partition re-setup (the paper's 99.9% claim counts everything
     * except Resetups).
     */
    double incrementalFraction() const;
};

/**
 * The complete Chisel LPM engine.
 */
class ChiselEngine
{
  public:
    /** Constant lookup cost (Section 6.7.1). */
    static constexpr unsigned kLookupAccesses = 4;

    /**
     * Build an engine over an initial routing table: the engine over
     * initial.routes(), in that order.
     *
     * @param initial The initial routes (may be empty).
     * @param config Design parameters.
     */
    explicit ChiselEngine(const RoutingTable &initial,
                          const ChiselConfig &config = {});

    /**
     * Build an engine over @p routes, which must have distinct
     * prefixes (a RoutingTable's routes, or a slice of them).  The
     * collapse plan comes from the lengths present and the modeled
     * Result pointer width from the route count; the order of
     * @p routes decides the table layout, not the answers.
     */
    explicit ChiselEngine(const std::vector<Route> &routes,
                          const ChiselConfig &config = {});

    ChiselEngine(const ChiselEngine &) = delete;
    ChiselEngine &operator=(const ChiselEngine &) = delete;

    /** Longest-prefix match. */
    LookupResult lookup(const Key128 &key) const;

    /**
     * Longest-prefix match over @p image, another copy of this
     * engine's image: a word that fails parity is answered from the
     * shadow and flags its cell for recovery, as lookup() does.
     * Writer side: the caller excludes updates.
     */
    LookupResult lookupIn(const EngineImage &image,
                          const Key128 &key) const;

    /** The image this engine writes and lookup() reads. */
    EngineImage &image() { return *image_; }
    const EngineImage &image() const { return *image_; }

    /**
     * Write and read @p image from now on: a copy of this engine's
     * image with the same content (up to soft errors), which must
     * outlive the binding.
     */
    void bindImage(EngineImage &image);

    /**
     * Name every image word later updates, purges and recoveries write
     * in @p log (nullptr: none).  The log is borrowed.
     */
    void setWriteLog(WriteLog *log);

    /**
     * BGP announce(p, l, h) (Section 4.4.2).  The outcome converts
     * implicitly to its UpdateClass; status/counters report whether
     * the update was applied cleanly, degraded (slow path, parity
     * recovery) or rejected.  The update path never half-applies: a
     * route ends up in a cell, the TCAM, the slow path — or the
     * outcome says Rejected.
     *
     * @param ttl_ms TTL override, milliseconds: 0 uses the config's
     *        defaultTtlMs; kTtlNever pins the route against expiry.
     *        A deadline (if any) is armed on the engine's logical TTL
     *        clock whenever the announce is not rejected.
     */
    UpdateOutcome announce(const Prefix &prefix, NextHop next_hop,
                           uint32_t ttl_ms = 0);

    /** BGP withdraw(p, l) (Section 4.4.1). */
    UpdateOutcome withdraw(const Prefix &prefix);

    /**
     * Retire @p prefix because its TTL deadline passed: the withdraw
     * flow, classified UpdateClass::Expire instead of Withdraw so
     * stats, journal replay and replication distinguish GC from peer
     * withdraws.  Expiring an absent prefix is a NoOp.
     */
    UpdateOutcome expire(const Prefix &prefix);

    /** Apply one trace update. */
    UpdateOutcome apply(const Update &update);

    /**
     * Advance the logical TTL clock to @p now_ms (monotonic: earlier
     * values are ignored).  Owned by whoever drives expiry — the
     * concurrent wrapper's GC tick in production, tests by hand.
     */
    void setTtlClock(uint64_t now_ms);

    /** Current logical TTL clock, milliseconds. */
    uint64_t ttlClock() const { return ttlClockMs_; }

    /**
     * Append up to @p max prefixes whose deadline is at or before the
     * current TTL clock to @p out; @return the number appended.  The
     * caller retires each through expire().
     */
    size_t collectExpired(size_t max, std::vector<Prefix> &out) const;

    /** Prefixes currently carrying a TTL deadline. */
    size_t ttlArmed() const { return ttl_.size(); }

    /** The TTL deadline index. */
    const TtlIndex &ttlIndex() const { return ttl_; }

    /**
     * This engine's routes built afresh under @p config (resize,
     * resetup, a replayed ResizeMark), with the TTL deadlines and
     * clock carried over verbatim: a rebuilt route still expires on
     * the schedule its announce set.
     */
    std::unique_ptr<ChiselEngine> rebuilt(const ChiselConfig &config) const;

    /** Exact-prefix query across cells, TCAM and default register. */
    std::optional<NextHop> find(const Prefix &prefix) const;

    /** Routes currently stored (cells + spill TCAM + default). */
    size_t routeCount() const;

    /**
     * Dump the complete routing state (cells + spill TCAM + default
     * route) as a table — for inspection, persistence, or rebuilding
     * a fresh engine ("resetup") with capacities re-sized to the
     * current load.
     */
    RoutingTable exportTable() const;

    /** Entries parked in the spillover TCAM. */
    size_t spillCount() const { return image_->spill.size(); }

    /** Routes diverted past the TCAM into the software slow path. */
    size_t slowPathCount() const { return image_->slowPath.size(); }

    /**
     * True if routes overflowed the spill TCAM's design capacity
     * (they are then held by the software slow path).
     */
    bool
    spillOverCapacity() const
    {
        return !image_->slowPath.empty();
    }

    /** Robustness counters (engine-level plus all sub-cells). */
    RobustnessCounters robustness() const;

    /** The collapse plan in use. */
    const CollapsePlan &plan() const { return plan_; }

    const ChiselConfig &config() const { return config_; }

    /** Measured (average-case) on-chip storage. */
    StorageBreakdown storage() const;

    /** Figure 14 counters since construction / last reset. */
    const UpdateStats &updateStats() const { return updateStats_; }
    void resetUpdateStats() { updateStats_ = UpdateStats{}; }

    /**
     * Modeled accesses of @p lookups lookups, @p hits of them matching
     * a route other than the default: every sub-cell is probed on
     * every lookup, the Result Table read once per hit.
     */
    ModeledAccesses
    modeledAccesses(uint64_t lookups, uint64_t hits) const
    {
        const uint64_t cells = cells_.size();
        return ModeledAccesses{lookups, lookups * cells * config_.k,
                               lookups * cells, lookups * cells, hits};
    }

    /** Purge dirty groups in every cell (a "resetup" housekeeping). */
    size_t purgeDirty();

    /** Dirty groups currently retained across all cells. */
    size_t dirtyCount() const;

    /** High-water mark of per-cell dirty retention (max over cells). */
    size_t dirtyPeak() const;

    /**
     * One full scrub pass (docs/concurrency.md): verifyParity() over
     * the bound image, then recoverFlagged() — proactively, instead
     * of waiting for a lookup to trip over the corruption.  Mutates
     * on recovery, so callers must hold the same exclusion as
     * announce()/withdraw().
     */
    ScrubReport scrub();

    /**
     * The read side of a scrub: verify every parity word of @p image
     * (each sub-cell's Index/Filter/Bit-vector tables and the Result
     * Table) and flag each failing cell for recovery — every cell if
     * a Result word failed, since recovery rewrites each cell's
     * blocks.  Changes only counters and flags, so @p image may be
     * one readers are using.  cellsRecovered stays 0.
     */
    ScrubReport verifyParity(const EngineImage &image) const;

    /**
     * Recover-by-resetup every flagged cell on the bound image, as
     * the next update would.  @return cells recovered.
     */
    size_t recoverFlagged();

    size_t cellCount() const { return cells_.size(); }
    const SubCell &cell(size_t i) const { return *cells_[i]; }

    /** Deep consistency check across all sub-cells (tests). */
    bool selfCheck() const { return selfCheck(*image_); }

    /**
     * selfCheck() of @p image, another copy of this engine's image,
     * against this control state.
     */
    bool selfCheck(const EngineImage &image) const;

    /**
     * Serialize the complete engine state — collapse plan, every
     * sub-cell's Index/Filter/Bit-vector image and shadow groups, the
     * shared Result Table, spill TCAM, slow-path map, default route,
     * TTL state and counters (no lookup changes them) — so restoreState()
     * reproduces this engine bit-for-bit without re-running any
     * Bloomier setup.  The config
     * is NOT included; the snapshot container stores it separately so
     * a mismatch can be rejected before deep decoding begins
     * (docs/persistence.md).
     */
    void saveState(persist::Encoder &enc) const;

    /**
     * Rebuild an engine from saveState() output.  @p config must be
     * the config the state was saved under (the snapshot loader
     * enforces this).  Throws persist::DecodeError on any malformed
     * input; the decoder is bounds-checked throughout, so corrupt
     * bytes can never produce out-of-range table writes.
     */
    static std::unique_ptr<ChiselEngine>
    restoreState(const ChiselConfig &config, persist::Decoder &dec);

    /**
     * Full Bloomier setup passes run by this engine's cells since
     * construction or restore — the "did we pay the cold-start cost"
     * probe: a warm restart from a valid snapshot performs zero.
     */
    uint64_t bloomierSetups() const;

    /**
     * Attach a telemetry binding (see telemetry/engine_telemetry.hh):
     * every subsequent lookup and update runs under an access-tracer
     * span feeding the binding's MetricRegistry.  Pass nullptr to
     * detach.  The binding is borrowed and must outlive its
     * attachment; with none attached the engine stays on the
     * zero-overhead path.
     */
    void
    attachTelemetry(telemetry::EngineTelemetry *telemetry)
    {
        telemetry_ = telemetry;
    }

    telemetry::EngineTelemetry *telemetry() const { return telemetry_; }

  private:
    /** Tag type for the restoreState() shell constructor. */
    struct RestoreTag {};

    /** Shell engine for restoreState(): config and plan set, no cells. */
    ChiselEngine(const ChiselConfig &config, CollapsePlan plan, RestoreTag);

    /** announce()'s body; runs inside the telemetry span when attached. */
    UpdateOutcome announceImpl(const Prefix &prefix, NextHop next_hop);

    /**
     * withdraw()/expire() body.  @p expiry re-stamps a successful
     * removal as UpdateClass::Expire.
     */
    UpdateOutcome withdrawImpl(const Prefix &prefix, bool expiry);

    /** Arm/clear the TTL deadline after a non-rejected announce. */
    void armTtl(const Prefix &prefix, uint32_t ttl_ms);

    /**
     * Move displaced routes into the spillover TCAM; on overflow,
     * divert them to the software slow path (never drop a route).
     */
    void absorbDisplaced(std::vector<Route> &displaced,
                         UpdateOutcome &out);

    /** Run recover-by-resetup on cells flagged by lookups or scrubs. */
    void recoverPendingParity(UpdateOutcome &out);

    /** Recover cell @p c if its last announce XORed a bad word. */
    void recoverTainted(size_t c, UpdateOutcome &out);

    /** The spill TCAM, slow path or default route changed. */
    void
    touchSpill()
    {
        if (log_ != nullptr)
            log_->markSpill();
    }

    void
    touchSlowPath()
    {
        if (log_ != nullptr)
            log_->markSlowPath();
    }

    void
    touchDefaultRoute()
    {
        if (log_ != nullptr)
            log_->markDefaultRoute();
    }

    /** Poll the soft-error injection points (no-op when disarmed). */
    void applyInjectedFaults();

    /** Migrate slow-path routes back into freed TCAM space. */
    void drainSlowPath();

    /** Sum of per-cell setup-retry counters (for outcome deltas). */
    uint64_t cellSetupRetries() const;

    ChiselConfig config_;
    CollapsePlan plan_;
    /** The image this engine was built or decoded into. */
    std::unique_ptr<EngineImage> own_;
    /** The image it writes now: own_, or a copy it was bound to. */
    EngineImage *image_;
    /** Names each image word written, when set (setWriteLog). */
    WriteLog *log_ = nullptr;
    /** The Result allocator, writing image_->results. */
    ResultTable results_;
    std::vector<std::unique_ptr<SubCell>> cells_;
    TtlIndex ttl_;
    uint64_t ttlClockMs_ = 0;
    UpdateStats updateStats_;
    RobustnessCounters robust_;
    telemetry::EngineTelemetry *telemetry_ = nullptr;
};

} // namespace chisel

#endif // CHISEL_CORE_ENGINE_HH
