/**
 * @file
 * ChiselService: the overload-hardened RPC front end
 * (docs/service.md; ROADMAP item 4's serving half).
 *
 * A dependency-free, nonblocking epoll server on one thread, serving
 * batched lookup and update RPCs (src/net/rpc.hh) over loopback TCP
 * in front of a ShardedChisel plane (one shard for a single-engine
 * node).  The engine stays wait-free under it — lookups run on the
 * serving thread against each shard's epoch-protected read path, so a
 * slow client can never stall a reader or the writer.
 *
 * Robustness rules, in the order they are applied:
 *
 *  - Accept gate: past maxConnections the connection is closed
 *    immediately (a refusal the client's backoff absorbs), and the
 *    NetAcceptStorm fault point can force the same refusal.
 *  - Backpressure: each connection's output queue is bounded by
 *    maxOutputBytes.  When a connection's queued replies exceed the
 *    bound the server STOPS READING from it (EPOLLIN off) until the
 *    queue drains — pipelined requests wait in the kernel socket
 *    buffer, and memory per connection stays bounded no matter how
 *    fast the client asks or how slowly it reads.
 *  - Write-stall deadline: output pending with no byte accepted for
 *    writeStallMs means the peer is stuck (zero receive window, dead
 *    host); the connection is dropped.
 *  - Idle deadline: no traffic in either direction for idleTimeoutMs
 *    drops the connection (half-open peers otherwise leak fds).
 *  - Load shedding (HealthMonitor wiring, docs/sharding.md): the
 *    health matrix is evaluated against the TARGET shard of each
 *    request.  While a shard is Stressed, updates bound for it are
 *    answered with a structured Overloaded status (lookups still
 *    serve — shed writes before reads); while Degraded or
 *    Quarantined, any request touching it fails fast with Overloaded
 *    instead of queuing behind a sick engine.  Everything sheds once
 *    a majority of shards are sick.  A token bucket
 *    (AdmissionController::tryAdmit) additionally meters update
 *    admission even while Healthy.
 *  - Durable acks: an update is acked only after its shard journal's
 *    lastDurableSeq() covers its record (every shard's, for a
 *    broadcast) — there is no window where a client saw an ack for
 *    bytes an fsync never covered.
 *  - Graceful drain (SIGTERM path): requestDrain() is async-signal
 *    safe; the serving thread then stops accepting, stops reading,
 *    finishes requests already received, flushes every queued reply
 *    under drainDeadlineMs, snapshots every shard, and exits the
 *    loop.
 *
 * Threading: one serving thread owns every connection; start() /
 * stop() / stats() may be called from any thread; requestDrain() from
 * any thread or a signal handler.  The plane must outlive the
 * service.
 */

#ifndef CHISEL_NET_SERVER_HH
#define CHISEL_NET_SERVER_HH

#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "health/admission.hh"
#include "health/monitor.hh"
#include "net/rpc.hh"

namespace chisel::fault { class FaultInjector; }
namespace chisel::shard { class ShardedChisel; }
namespace chisel::telemetry { class MetricRegistry; }

namespace chisel::net {

/** Tuning knobs (docs/service.md has the tuning table). */
struct ServiceOptions
{
    /** Loopback port to bind (0 = kernel-chosen ephemeral port). */
    uint16_t port = 0;

    /** Connections past this are refused at accept. */
    size_t maxConnections = 64;

    /** Per-connection queued-reply bound; past it, reading pauses. */
    size_t maxOutputBytes = 1 << 20;

    /** Drop a connection idle in both directions this long. */
    int idleTimeoutMs = 30000;

    /** Drop a connection whose pending writes make no progress. */
    int writeStallMs = 2000;

    /** Reply-flush budget of a graceful drain. */
    int drainDeadlineMs = 2000;

    /** Retry-after hint stamped into Overloaded/Draining replies. */
    uint64_t retryAfterMs = 50;

    /**
     * Update-admission metering for the RPC path (tryAdmit token
     * buckets).  Disabled by default: health-state shedding alone
     * governs.
     */
    health::AdmissionOptions admission;

    /**
     * Installed thread-locally on the serving thread, arming the
     * connection-level fault points (NetStalledPeer, NetPartialWrite,
     * NetMidFrameReset, NetAcceptStorm) for chaos harnesses.
     */
    fault::FaultInjector *faultInjector = nullptr;

    /** When non-null, service counters/gauges register here. */
    telemetry::MetricRegistry *metrics = nullptr;
};

/** Why a connection was closed (flight subcode, stats attribution). */
enum class DisconnectReason : uint8_t
{
    PeerClosed = 1,    ///< Orderly close or transport error.
    Protocol = 2,      ///< MessageReader poisoned.
    IdleTimeout = 3,   ///< idleTimeoutMs with no traffic.
    WriteStall = 4,    ///< writeStallMs with output stuck.
    Refused = 5,       ///< maxConnections or NetAcceptStorm.
    MidFrameReset = 6, ///< NetMidFrameReset fault fired.
    Drained = 7,       ///< Graceful drain completed.
    Stopped = 8,       ///< Hard stop().
};

/** Monotonic service counters (stats(); all since start()). */
struct ServiceStats
{
    uint64_t accepted = 0;
    uint64_t refused = 0;
    uint64_t disconnects = 0;
    uint64_t activeConnections = 0;
    uint64_t requests = 0;
    uint64_t lookupKeys = 0;
    uint64_t updatesApplied = 0;
    uint64_t acked = 0;
    uint64_t unacked = 0;       ///< No journal, refused, or unsynced.
    uint64_t overloaded = 0;    ///< Requests answered Overloaded.
    uint64_t shedUpdates = 0;   ///< Updates inside those requests.
    uint64_t badRequests = 0;
    uint64_t drainingReplies = 0;
    uint64_t idleDisconnects = 0;
    uint64_t stallDisconnects = 0;
    uint64_t backpressurePauses = 0;
    /** A graceful drain flushed every reply and checkpointed every
     * journaled shard. */
    bool drained = false;
};

class ChiselService
{
  public:
    /**
     * Serve @p plane (docs/sharding.md): lookups and updates route
     * through it, the shedding matrix consults the TARGET shard's
     * health per request (one quarantined shard fails fast for its
     * slice only; requests touching only healthy shards keep
     * serving), and the whole-plane matrix trips only past the
     * majority-sick threshold.  Durability is per shard: each shard's
     * engine appends to its journal inside its writer lock, and an
     * update is acked only once ITS shard's durable head covers it
     * (every shard, for a broadcast).  A plane without a persist
     * directory serves lookups fine but answers every update un-acked
     * (there is no durable history to promise).
     */
    ChiselService(shard::ShardedChisel &plane,
                  const ServiceOptions &options = {});

    /** stop()s if still running. */
    ~ChiselService();

    ChiselService(const ChiselService &) = delete;
    ChiselService &operator=(const ChiselService &) = delete;

    /**
     * Bind and start the serving thread.  @return false (with a
     * warn) when the socket or epoll setup fails.
     */
    bool start();

    /**
     * Hard stop: close every connection (queued replies are
     * discarded) and join the serving thread.  Idempotent.
     */
    void stop();

    /**
     * Begin a graceful drain: async-signal-safe (an atomic store and
     * a pipe write), so a SIGTERM handler may call it directly.  The
     * serving thread stops accepting, finishes requests already
     * received, flushes queued replies under drainDeadlineMs,
     * snapshots every shard (ShardedChisel::saveSnapshots), then
     * exits; running() turns false when the drain completes.  Call
     * stop() to join.
     */
    void requestDrain();

    bool running() const
    {
        return running_.load(std::memory_order_acquire);
    }

    bool draining() const
    {
        return drainRequested_.load(std::memory_order_acquire);
    }

    /** The bound port (resolves port 0); 0 when never started. */
    uint16_t port() const { return port_; }

    ServiceStats stats() const;

  private:
    struct Conn
    {
        int fd = -1;
        uint64_t id = 0;
        MessageReader reader;
        std::vector<uint8_t> out;
        size_t outPos = 0;
        uint64_t lastActivityNs = 0;
        /** First ns output sat pending with no byte accepted; 0 = no
         * output pending or progress was just made. */
        uint64_t stallSinceNs = 0;
        bool readPaused = false;
        bool wantWrite = false;
    };

    void serveLoop();
    void acceptReady(uint64_t now_ns);
    void readReady(Conn &conn, uint64_t now_ns);
    void writeReady(Conn &conn, uint64_t now_ns);
    void processBuffered(Conn &conn, uint64_t now_ns);
    void dispatch(Conn &conn, RpcMessage &msg);
    void enqueueReply(Conn &conn, const RpcMessage &msg);
    void updateInterest(Conn &conn);
    void disconnect(int fd, DisconnectReason reason);
    void sweepDeadlines(uint64_t now_ns);
    void drainLoop();
    size_t pendingOut(const Conn &conn) const
    {
        return conn.out.size() - conn.outPos;
    }

    RpcMessage serveLookup(const RpcMessage &req);
    RpcMessage serveUpdate(const RpcMessage &req);
    /** Count a shed request and answer it Overloaded. */
    RpcMessage shed(const RpcMessage &req, health::HealthState why);

    shard::ShardedChisel &plane_;
    ServiceOptions options_;

    health::AdmissionController admission_;

    int listenFd_ = -1;
    int epollFd_ = -1;
    int wakeFd_[2] = {-1, -1};  ///< Self-pipe: [0] read, [1] write.
    uint16_t port_ = 0;
    uint64_t nextConnId_ = 1;

    std::unordered_map<int, Conn> conns_;

    std::atomic<bool> running_{false};
    std::atomic<bool> stopRequested_{false};
    std::atomic<bool> drainRequested_{false};
    std::thread thread_;

    // Stats (relaxed atomics: serving thread writes, any thread reads).
    std::atomic<uint64_t> accepted_{0}, refused_{0}, disconnects_{0};
    std::atomic<uint64_t> requests_{0}, lookupKeys_{0};
    std::atomic<uint64_t> updatesApplied_{0}, acked_{0}, unacked_{0};
    std::atomic<uint64_t> overloaded_{0}, shedUpdates_{0};
    std::atomic<uint64_t> badRequests_{0}, drainingReplies_{0};
    std::atomic<uint64_t> idleDisconnects_{0}, stallDisconnects_{0};
    std::atomic<uint64_t> backpressurePauses_{0};
    std::atomic<bool> drained_{false};
};

} // namespace chisel::net

#endif // CHISEL_NET_SERVER_HH
