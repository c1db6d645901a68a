/**
 * @file
 * Leader-side journal shipping (docs/replication.md).
 *
 * ReplicationLog wraps an UpdateJournal with the same append surface
 * and tees every durably logged record to a warm standby: records go
 * to disk first (the journal stays the source of truth — a record
 * that was not durably logged is never shipped, so the follower can
 * never be *ahead* of the leader's durable history), then into a
 * bounded in-memory tail that a background shipper thread drains
 * over a ByteStream to the follower.
 *
 * The shipper owns every unreliable part of the path:
 *
 *  - (re)connecting through a TransportFactory with exponential
 *    backoff and jitter, resuming from the follower's
 *    last-applied sequence number after a drop;
 *  - handing the follower a full snapshot (via a caller-supplied
 *    SnapshotProvider) whenever its resume point has already been
 *    evicted from the tail — the catch-up path therefore never
 *    replays from genesis and the follower never runs Bloomier
 *    setup to catch up;
 *  - heartbeats on idle, so the follower can detect leader death;
 *  - fencing: every frame is stamped with this leader's epoch, and a
 *    Fenced reply (or a Hello advertising a higher epoch) latches
 *    fenced() — the leader stops shipping permanently, which is what
 *    keeps a revived stale leader from corrupting a promoted
 *    follower.
 *
 * Thread-safety: the append surface is mutex-serialized and safe
 * against the shipper; appends never block on the network (the tail
 * is bounded by eviction, not backpressure — a slow follower falls
 * back to snapshot catch-up instead of stalling the leader).
 */

#ifndef CHISEL_REPLICA_REPLICATION_LOG_HH
#define CHISEL_REPLICA_REPLICATION_LOG_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "persist/journal.hh"
#include "replica/transport.hh"
#include "replica/wire.hh"

namespace chisel::telemetry { class MetricRegistry; }

namespace chisel::replica {

/**
 * Produces a connected stream to the follower, or nullptr when the
 * follower is unreachable (the shipper backs off and retries).
 */
using TransportFactory =
    std::function<std::unique_ptr<ByteStream>()>;

/**
 * Produces a full snapshot image (persist snapshot format) of the
 * leader's engine, reporting the journal seq it covers.  Called from
 * the shipper thread; the implementation must do its own
 * synchronization against the update path (ConcurrentChisel's
 * saveSnapshot already does).
 */
using SnapshotProvider =
    std::function<std::vector<uint8_t>(uint64_t &covered_seq)>;

/** Tuning for the shipping side. */
struct ReplicationOptions
{
    /** This leader's fencing epoch (monotonic across promotions). */
    uint64_t epoch = 1;

    /** Retained ship-tail entries before eviction to snapshot path. */
    size_t tailCapacity = 1 << 16;

    /** Idle interval between heartbeats, ms. */
    uint64_t heartbeatMs = 50;

    /** Reconnect backoff bounds, ms (exponential, with jitter). */
    uint64_t backoffMinMs = 10;
    uint64_t backoffMaxMs = 2000;
};

/** A point-in-time copy of the shipper's counters. */
struct ReplicationStats
{
    uint64_t epoch = 0;
    uint64_t lastSeq = 0;         ///< Journal head (acknowledged).
    uint64_t lastDurableSeq = 0;  ///< Journal head covered by fsync.
    uint64_t lastAckedSeq = 0;    ///< Follower-confirmed applied seq.
    uint64_t lagRecords = 0;      ///< lastSeq - lastAckedSeq.
    uint64_t recordsShipped = 0;
    uint64_t bytesShipped = 0;
    uint64_t snapshotsShipped = 0;
    uint64_t reconnects = 0;      ///< Successful handshakes.
    uint64_t connectFailures = 0;
    uint64_t journalIoErrors = 0;
    bool connected = false;
    bool fenced = false;
};

class ReplicationLog
{
  public:
    /**
     * Open (or create) the journal at @p path exactly like
     * UpdateJournal, with shipping configured by @p options but not
     * yet started (call start()).
     */
    ReplicationLog(const std::string &path, uint64_t config_fingerprint,
                   size_t fsync_every = 1,
                   const ReplicationOptions &options = {});
    ~ReplicationLog();

    ReplicationLog(const ReplicationLog &) = delete;
    ReplicationLog &operator=(const ReplicationLog &) = delete;

    // ---- The UpdateJournal append surface (tee'd) -------------------

    /**
     * Durably log @p update and queue it for shipping.  @return the
     * assigned seq, or 0 if the journal refused the append (I/O
     * failure) — in which case nothing is shipped either: a leader
     * that cannot durably log must stop acknowledging, not keep a
     * follower more durable than itself.
     */
    uint64_t append(const Update &update);

    void appendOutcome(uint64_t seq, const UpdateOutcome &outcome);
    void appendSnapshotMark(uint64_t seq);
    void appendHousekeeping(persist::JournalRecord::HousekeepingKind kind);

    /**
     * Durably log a live-resize mark carrying the grown config, and
     * ship it so the follower re-plans its engine at the same point
     * in the update stream the leader did.
     */
    void appendResizeMark(const ChiselConfig &config);

    void sync();

    /** See UpdateJournal::ioHealthy — false means stop acking. */
    bool durable() const;
    uint64_t ioErrors() const;
    uint64_t lastSeq() const;

    /** See UpdateJournal::lastDurableSeq — the fsync-covered head. */
    uint64_t lastDurableSeq() const;

    // ---- Shipping ---------------------------------------------------

    /**
     * Start the shipper thread.  @p snapshots may be null only if
     * the tail can never be evicted ahead of the follower (tests);
     * when the snapshot path is needed and no provider exists, the
     * connection is dropped and retried.
     */
    void start(TransportFactory factory, SnapshotProvider snapshots);

    /** Stop the shipper and close the current connection. */
    void stop();

    /**
     * True once a peer rejected this leader's epoch: shipping has
     * permanently stopped and promotion has happened elsewhere.  The
     * owner should stop acknowledging writes.
     */
    bool fenced() const { return fenced_.load(std::memory_order_acquire); }

    ReplicationStats stats() const;

    /** Export stats as gauges under @p prefix (default "replication"). */
    void publish(telemetry::MetricRegistry &registry,
                 const std::string &prefix = "replication") const;

  private:
    /** One queued shipment: an encoded journal record. */
    struct ShipEntry
    {
        uint64_t seq;  ///< The record's seq stamp.
        std::vector<uint8_t> bytes;  ///< encodeJournalRecord output.
    };

    /** Queue @p rec for shipping (caller holds mutex_). */
    void enqueue(const persist::JournalRecord &rec);

    void shipperMain(TransportFactory factory,
                     SnapshotProvider snapshots);

    /** One connection's lifetime; @return false to back off. */
    bool serveConnection(ByteStream &stream,
                         SnapshotProvider &snapshots);

    /** Drain pending Ack/Fenced frames; @return false on fence/drop. */
    bool drainControl(ByteStream &stream, FrameReader &reader,
                      int timeout_ms);

    void latchFence(uint64_t peer_epoch);

    /** Interruptible sleep; @return false if stopping. */
    bool sleepMs(uint64_t ms);

    mutable std::mutex mutex_;
    persist::UpdateJournal journal_;
    ReplicationOptions options_;
    uint64_t fingerprint_;

    // Ship tail (guarded by mutex_).  Entries are addressed by a
    // monotonic index so the shipper can detect eviction races:
    // entry i lives at tail_[i - tailBase_] while i >= tailBase_.
    std::deque<ShipEntry> tail_;
    uint64_t tailBase_ = 0;       ///< Index of tail_.front().
    uint64_t tailNext_ = 0;       ///< Index one past tail_.back().
    uint64_t evictedThroughSeq_ = 0;  ///< Max seq stamp ever evicted.
    std::condition_variable tailCv_;  ///< Signalled on enqueue/stop.

    std::thread shipper_;
    bool started_ = false;
    std::atomic<bool> stopping_{false};
    std::atomic<bool> fenced_{false};
    std::atomic<bool> connected_{false};

    /** Current connection, exposed so stop() can unblock the shipper. */
    std::mutex streamMutex_;
    ByteStream *activeStream_ = nullptr;

    // Counters (relaxed atomics: written by shipper, read anywhere).
    std::atomic<uint64_t> lastAckedSeq_{0};
    std::atomic<uint64_t> recordsShipped_{0};
    std::atomic<uint64_t> bytesShipped_{0};
    std::atomic<uint64_t> snapshotsShipped_{0};
    std::atomic<uint64_t> reconnects_{0};
    std::atomic<uint64_t> connectFailures_{0};
};

} // namespace chisel::replica

#endif // CHISEL_REPLICA_REPLICATION_LOG_HH
