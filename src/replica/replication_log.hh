/**
 * @file
 * Leader-side journal shipping (docs/replication.md).
 *
 * A ReplicationLog attaches to the leader's UpdateJournal as its
 * record observer and ships what that journal writes to a warm
 * standby.  The journal keeps its one writer (on a leader, the
 * ConcurrentChisel that owns it): a record reaches the bounded
 * in-memory ship tail only once it is written, so a record that was
 * not durably logged is never shipped and the follower can never be
 * *ahead* of the leader's durable history.  A background shipper
 * thread drains the tail over a ByteStream to the follower.  Update,
 * Housekeeping and ResizeMark records ship; Outcome and SnapshotMark
 * records carry no engine state and stay on disk.
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
 * Thread-safety: records enter the tail on the journal's writing
 * thread, under a mutex the shipper shares; they never block on the
 * network (the tail is bounded by eviction, not backpressure — a
 * slow follower falls back to snapshot catch-up instead of stalling
 * the leader).
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
 * the shipper thread, outside the tail's lock; the implementation must
 * take image and seq in one step against the update path
 * (ConcurrentChisel::snapshotImage(&covered_seq) does).
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
    uint64_t lastSeq = 0;         ///< Journal head (last written seq).
    uint64_t lastAckedSeq = 0;    ///< Follower-confirmed applied seq.
    uint64_t lagRecords = 0;      ///< lastSeq - lastAckedSeq.
    uint64_t recordsShipped = 0;
    uint64_t bytesShipped = 0;
    uint64_t snapshotsShipped = 0;
    uint64_t reconnects = 0;      ///< Successful handshakes.
    uint64_t connectFailures = 0;
    bool connected = false;
    bool fenced = false;
};

class ReplicationLog
{
  public:
    /**
     * Attach to @p journal as its record observer, with shipping
     * configured by @p options but not yet started (call start()).
     * Attach before any other thread appends, and keep this log alive
     * until the journal's last write: hand the journal to its engine
     * after this constructor, and stop() before that engine goes.
     * History the journal already holds is never in the tail, so a
     * follower behind it catches up from a snapshot.
     */
    explicit ReplicationLog(persist::UpdateJournal &journal,
                            const ReplicationOptions &options = {});
    ~ReplicationLog();

    ReplicationLog(const ReplicationLog &) = delete;
    ReplicationLog &operator=(const ReplicationLog &) = delete;

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

  private:
    /** One queued shipment: a journal record's payload bytes. */
    struct ShipEntry
    {
        persist::JournalRecord::Type type;
        uint64_t seq;  ///< The record's seq stamp.
        std::vector<uint8_t> bytes;  ///< As the journal framed them.
    };

    /** The journal's observer: queue a written record for shipping. */
    void enqueue(const persist::JournalRecord &rec,
                 const uint8_t *payload, size_t size);

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
    ReplicationOptions options_;
    uint64_t fingerprint_;

    // Ship tail (guarded by mutex_).  Entries are addressed by a
    // monotonic index so the shipper can detect eviction races:
    // entry i lives at tail_[i - tailBase_] while i >= tailBase_.
    std::deque<ShipEntry> tail_;
    uint64_t tailBase_ = 0;       ///< Index of tail_.front().
    uint64_t tailNext_ = 0;       ///< Index one past tail_.back().
    uint64_t head_ = 0;           ///< Highest seq stamp written.
    /**
     * The least applied seq that covers (replica::covered) every
     * record evicted from the tail; a follower below it needs a
     * snapshot.
     */
    uint64_t resumeFloor_ = 0;
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
