/**
 * @file
 * ShardedChisel: the keyspace partitioned across N fault-isolated
 * engine shards (docs/sharding.md).
 *
 * Each shard owns a full ConcurrentChisel — its own engine image
 * pair, maintenance thread, TTL/GC clock, and five-state
 * HealthMonitor — and, with persistence on, a write-ahead
 * journal and snapshot lane under `<persistDir>/shard-<i>/` that the
 * shard's engine alone writes.  A stable front-end hash
 * (ShardSelector) routes every key and prefix to its shard; prefixes
 * shorter than the partition width are installed in every shard so
 * single-shard lookups still return the correct longest match.
 *
 * The point of the split is *containment*: a parity storm, setup
 * failure streak, or watchdog trip quarantines one shard's keyspace
 * slice, and the recovery ladder (purge -> scrub -> resetup ->
 * snapshot-restore) runs on that shard's maintenance thread without
 * pausing siblings.  lookup()/apply() themselves route around
 * nothing — shedding is a service-layer decision (ChiselService
 * consults shardHealth() per request; /healthz turns 503 only when a
 * majority of shards are sick).
 *
 * Persistence is per shard: each journal is stamped with a
 * fingerprint binding the engine geometry AND the shard identity
 * (index, count, partition bits, hash seed), so a journal can never
 * be replayed into the wrong slice; a `shards.meta` file at the root
 * of the persist directory pins the partition geometry and a reopen
 * with different parameters is refused.  Warm restart recovers every
 * shard independently through the persist ladder, serves the
 * recovered engine itself (its twin a copy of its image) with zero
 * full Bloomier setups, and checkpoints it so the shard snapshot
 * covers the replayed tail, unless nothing was replayed onto the
 * primary snapshot its journal last marked.
 */

#ifndef CHISEL_SHARD_SHARDED_HH
#define CHISEL_SHARD_SHARDED_HH

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "concurrent/concurrent_engine.hh"
#include "persist/recovery.hh"
#include "shard/partition.hh"

namespace chisel::telemetry { class MetricRegistry; }

namespace chisel::shard {

/** Construction options for ShardedChisel. */
struct ShardedOptions
{
    /** Engine shards (>= 1). */
    size_t shards = 4;

    /** Key bits hashed by the front-end partition (docs/sharding.md). */
    unsigned partitionBits = 8;

    /** Front-end hash seed; part of the persisted geometry. */
    uint64_t hashSeed = ShardSelector::kDefaultSeed;

    /** Per-shard engine configuration (identical across shards). */
    ChiselConfig config;

    /**
     * Per-shard ConcurrentChisel template.  With persistence on,
     * recoverySnapshotPath is overwritten per shard (the shard's
     * snapshot lane); everything else applies to each shard as-is.
     */
    concurrent::ConcurrentOptions engine;

    /**
     * Per-shard fault injectors (chaos harnesses arm one shard without
     * touching siblings); each follows its shard's engine onto every
     * thread that applies to it.  Indexed by shard; missing or null
     * entries fall back to engine.faultInjector.
     */
    std::vector<fault::FaultInjector *> faultInjectors;

    /**
     * Root of the sharded persistence layout; empty disables
     * journaling and snapshots entirely.  Layout:
     *
     *     <persistDir>/shards.meta            partition geometry pin
     *     <persistDir>/shard-<i>/journal.log  per-shard WAL
     *     <persistDir>/shard-<i>/snapshot.chs per-shard snapshot
     */
    std::string persistDir;

    /** Journal fsync batching (1 = strict, every record). */
    size_t fsyncEvery = 1;

    /** Run the route-by-route recovery audit per shard on restart. */
    bool audit = false;
};

/** What one shard's warm restart did (persist mode only). */
struct ShardRecovery
{
    persist::RecoverySource source = persist::RecoverySource::ColdSetup;
    uint64_t fallbacks = 0;
    uint64_t recordsReplayed = 0;
    uint64_t lastSeq = 0;
    bool auditRan = false;
    bool auditPassed = false;
    size_t routes = 0;
};

/** Point-in-time view of one shard (healthz, soak audits). */
struct ShardStatus
{
    health::HealthState state = health::HealthState::Healthy;
    bool induced = false;   ///< state comes from induceHealth().
    bool serving = false;   ///< not Degraded/Quarantined.
    uint64_t generation = 0;
    size_t routes = 0;
    uint64_t updatesApplied = 0;
    uint64_t quarantineEntries = 0;  ///< monitor + forced.
    uint64_t lastSeq = 0;            ///< 0 without a journal.
};

class ShardedChisel
{
  public:
    static constexpr size_t kBroadcast = ShardSelector::kBroadcast;

    /**
     * Build (or warm-restart) the shard set.  With persistDir set,
     * every shard runs the recovery ladder against its own journal +
     * snapshot lane before serving; recovery() reports what each
     * found.  @p initial seeds shards on first boot (sliced by the
     * partition; broadcast prefixes go to every shard).
     */
    ShardedChisel(const RoutingTable &initial,
                  const ShardedOptions &options);

    ~ShardedChisel();

    ShardedChisel(const ShardedChisel &) = delete;
    ShardedChisel &operator=(const ShardedChisel &) = delete;

    // ---- Routing ---------------------------------------------------

    const ShardSelector &selector() const { return selector_; }
    size_t shards() const { return shards_.size(); }
    size_t shardOf(const Key128 &key) const
    {
        return selector_.shardOf(key);
    }
    /** Owning shard, or kBroadcast for short prefixes. */
    size_t shardOf(const Prefix &prefix) const
    {
        return selector_.shardOf(prefix);
    }

    // ---- Read side (any thread, wait-free) -------------------------

    LookupResult lookup(const Key128 &key) const;

    // ---- Write side ------------------------------------------------

    /** One (shard, journal seq) pair an update landed on. */
    struct ShardSeq
    {
        size_t shard = 0;
        uint64_t seq = 0;
    };

    /** What apply() did, across every shard it touched. */
    struct ApplyResult
    {
        /** Worst outcome across targeted shards. */
        UpdateOutcome outcome;
        /** Owning shard, or kBroadcast. */
        size_t shard = 0;
        /** Highest journal seq assigned (0 without a journal). */
        uint64_t seq = 0;
        /** Per-shard seq assignments (one entry, or one per shard
         * for a broadcast); the durable-ack gate for services. */
        std::vector<ShardSeq> parts;
    };

    /** Apply synchronously to the owning shard (all, if broadcast). */
    ApplyResult apply(const Update &update);

    UpdateOutcome announce(const Prefix &prefix, NextHop next_hop,
                           uint32_t ttl_ms = 0);
    UpdateOutcome withdraw(const Prefix &prefix);

    // ---- Per-shard access ------------------------------------------

    concurrent::ConcurrentChisel &shardEngine(size_t i);
    const concurrent::ConcurrentChisel &shardEngine(size_t i) const;

    /**
     * Block until @p seq is fsync-durable on shard @p i (false
     * without persistence); both go through the shard's engine.
     */
    bool ensureDurable(size_t i, uint64_t seq);
    uint64_t lastDurableSeq(size_t i) const;

    // ---- Health and containment ------------------------------------

    /**
     * Effective health of shard @p i: an active induceHealth()
     * override, else the shard monitor's state.
     */
    health::HealthState shardHealth(size_t i) const;

    /**
     * Force shard @p i to report @p state for @p ms milliseconds
     * (0 = until cleared with Healthy).  Drills, tests and operators
     * quarantine (or stress) a single slice without faulting it;
     * ChiselService sheds against this view.
     */
    void induceHealth(size_t i, health::HealthState state,
                      uint64_t ms = 0);

    /** True unless shard @p i is Degraded/Quarantined. */
    bool shardServing(size_t i) const;

    /** Shards currently Degraded or Quarantined. */
    size_t sickShards() const;

    /** True when a strict majority of shards are sick. */
    bool majoritySick() const;

    /**
     * Whole-plane health for single-value consumers (Ping, the
     * service matrix): Healthy while fewer than a majority of shards
     * are sick — one quarantined shard must not shed its siblings'
     * traffic — Degraded (or Quarantined, when a majority are that
     * far gone) past the majority threshold.
     */
    health::HealthState aggregateHealth() const;

    /** Times shard @p i entered Quarantined (monitor + forced). */
    uint64_t quarantineEntries(size_t i) const;

    ShardStatus status(size_t i) const;

    // ---- Persistence -----------------------------------------------

    /**
     * Checkpoint every shard (ConcurrentChisel::checkpoint(): the
     * snapshot, stamped with the journal seq, and its SnapshotMark in
     * one hold of the shard's writer lock).  No-op without
     * persistence.  @return shards snapshotted.
     */
    size_t saveSnapshots();

    /** Per-shard warm-restart reports (empty without persistence). */
    const std::vector<ShardRecovery> &recovery() const
    {
        return recovery_;
    }

    /** `<persistDir>/shard-<i>` (empty without persistence). */
    std::string shardDir(size_t i) const;

    // ---- Aggregates and test hooks ---------------------------------

    /** Routes summed over shards (broadcast routes count once per
     * shard that stores them). */
    size_t routeCount() const;

    /** Updates applied, summed over shards. */
    uint64_t updatesApplied() const;

    /** Sum of shard generations (a monotonic plane-wide version). */
    uint64_t generation() const;

    /** One healthTick per shard (tests; normally each shard's
     * maintenance thread runs the monitor). */
    void healthTickAll();

    /** Deep consistency check of every shard. */
    bool selfCheck() const;

    /**
     * Publish per-shard gauges into @p registry under @p prefix with
     * an embedded Prometheus label (`<prefix>.routes{shard="i"}`),
     * plus plane-wide aggregates (docs/sharding.md).
     */
    void publish(telemetry::MetricRegistry &registry,
                 const std::string &prefix = "shard") const;

  private:
    struct Shard
    {
        /** The shard's engine, and with persistence its journal. */
        std::unique_ptr<concurrent::ConcurrentChisel> engine;

        /** induceHealth() override: state and expiry (0 = none). */
        std::atomic<uint8_t> inducedState{
            static_cast<uint8_t>(health::HealthState::kCount)};
        std::atomic<uint64_t> inducedUntilNs{0};

        /** induceHealth(Quarantined) count (monitor can't see it). */
        std::atomic<uint64_t> forcedQuarantines{0};
    };

    /**
     * Build shard @p i's engine (cold or via the recovery ladder)
     * from @p slice, its routes (distinct prefixes).
     */
    void buildShard(size_t i, const std::vector<Route> &slice);

    /** Write or verify `<persistDir>/shards.meta`. */
    void pinGeometry() const;

    ShardSeq applyToShard(size_t i, const Update &update,
                          UpdateOutcome &outcome);

    ShardedOptions options_;
    ShardSelector selector_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<ShardRecovery> recovery_;
};

/**
 * The fingerprint stamped into shard @p i's journal: the engine's
 * elastic fingerprint (survives live resizes) mixed with the shard
 * identity, so a journal replays only into the exact slice that
 * wrote it.
 */
uint64_t shardJournalFingerprint(const ChiselConfig &config,
                                 size_t shard, size_t shard_count,
                                 unsigned partition_bits,
                                 uint64_t hash_seed);

} // namespace chisel::shard

#endif // CHISEL_SHARD_SHARDED_HH
