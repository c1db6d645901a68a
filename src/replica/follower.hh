/**
 * @file
 * Warm-standby follower (docs/replication.md).
 *
 * A Follower keeps a second ConcurrentChisel continuously warm by
 * replaying the leader's shipped journal stream: it bootstraps from
 * the latest shipped snapshot (installed from memory through the
 * engine's pointer-flip restore, so its own readers never stall and
 * no file is written), then applies Record frames in sequence order.
 * The catch-up path is pure replay — the follower never runs a
 * Bloomier setup to catch up, which is the whole point of keeping it
 * warm.
 *
 * Robustness properties:
 *
 *  - every shipped record re-validates through the same
 *    persist::Decoder path as a disk journal (the FrameReader already
 *    CRC-checks each frame; malformed payloads drop the connection);
 *  - duplicate records (an inevitable consequence of resume and of
 *    snapshot/tail overlap) are skipped by sequence number;
 *  - a partially transferred snapshot is discarded on disconnect —
 *    the engine only ever installs images whose whole-image CRC
 *    matched;
 *  - heartbeats stamp lastFrameNs(); leaderSilent() turns true after
 *    heartbeatTimeout with no traffic, which is the promotion
 *    trigger for an external supervisor;
 *  - fencing: once promote() has stamped a new epoch, any connection
 *    offering an older (or equal) epoch is answered with Fenced and
 *    dropped, so a revived stale leader can never write to a
 *    promoted follower.
 *
 * The follower serves /healthz 503 until caughtUp() (see
 * obs::IntrospectionServer::attachFollower).
 */

#ifndef CHISEL_REPLICA_FOLLOWER_HH
#define CHISEL_REPLICA_FOLLOWER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "replica/transport.hh"
#include "replica/wire.hh"

namespace chisel::concurrent { class ConcurrentChisel; }
namespace chisel::telemetry { class MetricRegistry; }

namespace chisel::replica {

/** Follower tuning. */
struct FollowerOptions
{
    /** No leader traffic for this long means the leader is dead. */
    uint64_t heartbeatTimeoutMs = 500;
};

/** caughtUp() requires lag() <= this many records. */
constexpr uint64_t kLagBound = 64;

/** What promote() did. */
struct PromotionReport
{
    uint64_t epoch = 0;            ///< The new fencing epoch.
    uint64_t replayedRecords = 0;  ///< Journal-tail records applied.
    uint64_t lastAppliedSeq = 0;   ///< Head seq after promotion.
};

/** A point-in-time copy of the follower's state. */
struct FollowerStats
{
    uint64_t lastAppliedSeq = 0;
    uint64_t leaderLastSeq = 0;
    uint64_t lagRecords = 0;
    uint64_t recordsApplied = 0;
    uint64_t duplicatesSkipped = 0;
    uint64_t snapshotsInstalled = 0;
    uint64_t snapshotsDiscarded = 0;  ///< Partial/corrupt transfers.
    uint64_t connectionsServed = 0;
    uint64_t fenceRejects = 0;        ///< Stale-epoch leaders turned away.
    uint64_t maxEpochSeen = 0;
    uint64_t promotedEpoch = 0;       ///< 0 until promote().
    bool connected = false;
    bool caughtUp = false;
    bool promoted = false;
};

class Follower
{
  public:
    /**
     * @p engine is the warm standby (a concurrent::ConcurrentChisel);
     * it must have been built under the same ChiselConfig as the
     * leader (@p config_fingerprint).
     */
    Follower(concurrent::ConcurrentChisel &engine,
             uint64_t config_fingerprint,
             const FollowerOptions &options = {});
    ~Follower();

    Follower(const Follower &) = delete;
    Follower &operator=(const Follower &) = delete;

    // ---- Serving ----------------------------------------------------

    /**
     * Serve one leader connection to completion (drop, fence, or
     * stop()).  Blocking; tests drive PipeTransport ends through
     * this directly.
     */
    void handleConnection(ByteStream &stream);

    /**
     * Serve @p listener on a background thread: accept one leader at
     * a time and handleConnection each.  The listener must outlive
     * stop().
     */
    void start(TcpListener &listener);

    /** Stop the serve thread and drop the current connection. */
    void stop();

    // ---- Promotion --------------------------------------------------

    /**
     * Promote this follower to leader: stamps a fencing epoch one
     * past every epoch ever seen, optionally replays the tail of
     * @p journal_path (the old leader's journal — records with seq
     * beyond lastAppliedSeq(), so nothing journal-synced is lost even
     * if it was never shipped), records a FailedOver action on the
     * engine's health monitor, and starts fencing stale leaders.
     */
    PromotionReport promote(const std::string &journal_path = "");

    // ---- State ------------------------------------------------------

    uint64_t lastAppliedSeq() const
    {
        return lastApplied_.load(std::memory_order_acquire);
    }

    uint64_t leaderLastSeq() const
    {
        return leaderLastSeq_.load(std::memory_order_acquire);
    }

    /** Records the leader has durably logged but we have not applied. */
    uint64_t lag() const;

    bool connected() const
    {
        return connected_.load(std::memory_order_acquire);
    }

    bool promoted() const
    {
        return promotedEpoch_.load(std::memory_order_acquire) != 0;
    }

    /** The promotion epoch (0 before promote()). */
    uint64_t epoch() const
    {
        return promotedEpoch_.load(std::memory_order_acquire);
    }

    uint64_t maxEpochSeen() const
    {
        return maxEpochSeen_.load(std::memory_order_acquire);
    }

    /**
     * Ready to serve: promoted, or connected with replication lag
     * within kLagBound.  The /healthz gate.
     */
    bool caughtUp() const;

    /** monotonicNowNs() of the last leader frame (0 = never). */
    uint64_t lastFrameNs() const
    {
        return lastFrameNs_.load(std::memory_order_acquire);
    }

    /**
     * True when a connection was established at some point but no
     * frame has arrived within heartbeatTimeout — the promotion
     * trigger.
     */
    bool leaderSilent() const;

    FollowerStats stats() const;

    /** Export stats as gauges under @p prefix (default "replica"). */
    void publish(telemetry::MetricRegistry &registry,
                 const std::string &prefix = "replica") const;

  private:
    /** In-flight snapshot transfer state (per connection). */
    struct SnapshotTransfer
    {
        bool active = false;
        uint64_t coveredSeq = 0;
        uint64_t totalBytes = 0;
        std::vector<uint8_t> image;
    };

    /** @return false to drop the connection. */
    bool handleFrame(ByteStream &stream, const Frame &frame,
                     SnapshotTransfer &xfer, uint64_t &since_ack);

    /** Apply one live record; counts it applied or a duplicate. */
    bool applyRecord(const persist::JournalRecord &rec);

    /**
     * Apply @p rec to the engine unless it carries no engine state
     * (Outcome, SnapshotMark) or the engine already holds it
     * (replica::covered); the live stream and promotion both replay
     * through here.  Caller holds applyMutex_.  @return true iff
     * applied.
     */
    bool replayLocked(const persist::JournalRecord &rec);

    /**
     * Install a fully transferred, CRC-valid image.  @return false
     * when the engine refused it (say, another geometry) — the caller
     * must drop the connection rather than ack and apply later
     * records onto an engine missing the snapshot base.  The benign
     * already-past-this-image race reports true (state is consistent,
     * just ahead).
     */
    bool installSnapshot(SnapshotTransfer &xfer);
    void noteEpoch(uint64_t epoch);

    /** Epoch a leader must present; anything lower is fenced. */
    uint64_t requiredEpoch() const;

    concurrent::ConcurrentChisel &engine_;
    uint64_t fingerprint_;
    FollowerOptions options_;

    /** Serializes record application against promote(). */
    mutable std::mutex applyMutex_;

    std::thread serveThread_;
    bool started_ = false;
    std::atomic<bool> stopping_{false};

    std::mutex streamMutex_;
    ByteStream *activeStream_ = nullptr;

    std::atomic<uint64_t> lastApplied_{0};
    std::atomic<uint64_t> leaderLastSeq_{0};
    std::atomic<uint64_t> lastFrameNs_{0};
    std::atomic<uint64_t> maxEpochSeen_{0};
    std::atomic<uint64_t> promotedEpoch_{0};
    std::atomic<bool> connected_{false};
    std::atomic<bool> everConnected_{false};

    std::atomic<uint64_t> recordsApplied_{0};
    std::atomic<uint64_t> duplicatesSkipped_{0};
    std::atomic<uint64_t> snapshotsInstalled_{0};
    std::atomic<uint64_t> snapshotsDiscarded_{0};
    std::atomic<uint64_t> connectionsServed_{0};
    std::atomic<uint64_t> fenceRejects_{0};
};

} // namespace chisel::replica

#endif // CHISEL_REPLICA_FOLLOWER_HH
