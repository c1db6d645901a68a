#include "net/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/clock.hh"
#include "common/logging.hh"
#include "core/update_outcome.hh"
#include "fault/fault.hh"
#include "net/socket.hh"
#include "shard/sharded.hh"
#include "telemetry/flight.hh"
#include "telemetry/metrics.hh"

namespace chisel::net {

namespace {

/** Per-event read budget: don't let one firehose starve the rest. */
constexpr size_t kReadBurstBytes = 64 * 1024;

/** Resume reading once a paused connection drains to half its bound. */
constexpr size_t kResumeDivisor = 2;

uint64_t
msToNs(int ms)
{
    return static_cast<uint64_t>(ms) * 1000000ull;
}

} // anonymous namespace

ChiselService::ChiselService(shard::ShardedChisel &plane,
                             const ServiceOptions &options)
    : plane_(plane), options_(options)
{}

ChiselService::~ChiselService()
{
    stop();
}

bool
ChiselService::start()
{
    if (thread_.joinable()) {
        warn("service already started on port " + std::to_string(port_));
        return false;
    }
    listenFd_ = listenLoopback(options_.port, 64, &port_);
    if (listenFd_ < 0) {
        warn("service: cannot listen on 127.0.0.1:" +
             std::to_string(options_.port) + ": " +
             std::string(std::strerror(errno)));
        return false;
    }
    setNonBlocking(listenFd_);

    epollFd_ = ::epoll_create1(0);
    if (epollFd_ < 0 || ::pipe(wakeFd_) != 0) {
        warn("service: epoll/pipe setup failed: " +
             std::string(std::strerror(errno)));
        closeFd(listenFd_);
        closeFd(epollFd_);
        listenFd_ = epollFd_ = -1;
        return false;
    }
    setNonBlocking(wakeFd_[0]);
    setNonBlocking(wakeFd_[1]);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev);
    ev.data.fd = wakeFd_[0];
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_[0], &ev);

    stopRequested_.store(false, std::memory_order_release);
    drainRequested_.store(false, std::memory_order_release);
    running_.store(true, std::memory_order_release);
    thread_ = std::thread([this] { serveLoop(); });
    inform("chisel service listening on 127.0.0.1:" +
           std::to_string(port_));
    return true;
}

void
ChiselService::stop()
{
    if (!thread_.joinable())
        return;
    stopRequested_.store(true, std::memory_order_release);
    [[maybe_unused]] ssize_t n = ::write(wakeFd_[1], "s", 1);
    thread_.join();
    closeFd(listenFd_);
    closeFd(epollFd_);
    closeFd(wakeFd_[0]);
    closeFd(wakeFd_[1]);
    listenFd_ = epollFd_ = wakeFd_[0] = wakeFd_[1] = -1;
    running_.store(false, std::memory_order_release);
}

void
ChiselService::requestDrain()
{
    // Async-signal-safe: one atomic store and one write(2).
    drainRequested_.store(true, std::memory_order_release);
    [[maybe_unused]] ssize_t n = ::write(wakeFd_[1], "d", 1);
}

ServiceStats
ChiselService::stats() const
{
    ServiceStats s;
    s.accepted = accepted_.load(std::memory_order_relaxed);
    s.refused = refused_.load(std::memory_order_relaxed);
    s.disconnects = disconnects_.load(std::memory_order_relaxed);
    s.activeConnections = s.accepted - s.disconnects;
    s.requests = requests_.load(std::memory_order_relaxed);
    s.lookupKeys = lookupKeys_.load(std::memory_order_relaxed);
    s.updatesApplied = updatesApplied_.load(std::memory_order_relaxed);
    s.acked = acked_.load(std::memory_order_relaxed);
    s.unacked = unacked_.load(std::memory_order_relaxed);
    s.overloaded = overloaded_.load(std::memory_order_relaxed);
    s.shedUpdates = shedUpdates_.load(std::memory_order_relaxed);
    s.badRequests = badRequests_.load(std::memory_order_relaxed);
    s.drainingReplies = drainingReplies_.load(std::memory_order_relaxed);
    s.idleDisconnects = idleDisconnects_.load(std::memory_order_relaxed);
    s.stallDisconnects =
        stallDisconnects_.load(std::memory_order_relaxed);
    s.backpressurePauses =
        backpressurePauses_.load(std::memory_order_relaxed);
    s.drained = drained_.load(std::memory_order_relaxed);
    return s;
}

// ---- Serving loop ----------------------------------------------------

void
ChiselService::serveLoop()
{
    fault::ScopedInjector faults(options_.faultInjector);

    telemetry::Gauge *connGauge = nullptr;
    telemetry::Gauge *drainGauge = nullptr;
    if (options_.metrics != nullptr) {
        connGauge = &options_.metrics->gauge("service.connections");
        drainGauge = &options_.metrics->gauge("service.draining");
    }

    epoll_event events[64];
    while (!stopRequested_.load(std::memory_order_acquire)) {
        if (drainRequested_.load(std::memory_order_acquire)) {
            drainLoop();
            break;
        }
        int n = ::epoll_wait(epollFd_, events, 64, 50);
        uint64_t now = monotonicNowNs();
        for (int i = 0; i < n; ++i) {
            int fd = events[i].data.fd;
            if (fd == wakeFd_[0]) {
                char buf[64];
                while (::read(wakeFd_[0], buf, sizeof(buf)) > 0) {}
                continue;
            }
            if (fd == listenFd_) {
                acceptReady(now);
                continue;
            }
            auto it = conns_.find(fd);
            if (it == conns_.end())
                continue;
            uint32_t ev = events[i].events;
            if (ev & (EPOLLHUP | EPOLLERR)) {
                disconnect(fd, DisconnectReason::PeerClosed);
                continue;
            }
            if (ev & EPOLLOUT)
                writeReady(it->second, now);
            // writeReady may have disconnected; re-find before reading.
            if ((ev & EPOLLIN) && conns_.count(fd) != 0)
                readReady(conns_.at(fd), now);
        }
        sweepDeadlines(now);
        if (connGauge != nullptr)
            connGauge->set(static_cast<double>(conns_.size()));
        if (drainGauge != nullptr)
            drainGauge->set(0.0);
        if (options_.metrics != nullptr) {
            telemetry::MetricRegistry &m = *options_.metrics;
            m.gauge("service.requests")
                .set(double(requests_.load(std::memory_order_relaxed)));
            m.gauge("service.overloaded")
                .set(double(overloaded_.load(std::memory_order_relaxed)));
            m.gauge("service.shed_updates")
                .set(double(shedUpdates_.load(std::memory_order_relaxed)));
            m.gauge("service.acked")
                .set(double(acked_.load(std::memory_order_relaxed)));
            m.gauge("service.unacked")
                .set(double(unacked_.load(std::memory_order_relaxed)));
            m.gauge("service.backpressure_pauses")
                .set(double(
                    backpressurePauses_.load(std::memory_order_relaxed)));
            m.gauge("service.idle_disconnects")
                .set(double(
                    idleDisconnects_.load(std::memory_order_relaxed)));
            m.gauge("service.stall_disconnects")
                .set(double(
                    stallDisconnects_.load(std::memory_order_relaxed)));
            plane_.publish(m);
        }
    }

    // Loop exit (hard stop, or drain done): release every fd still
    // open.  Queued replies a drain could not flush are discarded.
    std::vector<int> fds;
    fds.reserve(conns_.size());
    for (const auto &[fd, conn] : conns_)
        fds.push_back(fd);
    for (int fd : fds)
        disconnect(fd, DisconnectReason::Stopped);
    running_.store(false, std::memory_order_release);
}

void
ChiselService::acceptReady(uint64_t now_ns)
{
    while (true) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            return;   // EAGAIN, or a transient accept failure.
        bool storm = CHISEL_FAULT_FIRE(NetAcceptStorm);
        if (storm || conns_.size() >= options_.maxConnections) {
            // Refusal, not service: close before a single byte.  The
            // client's connect succeeded, so its next read sees EOF
            // and its backoff absorbs the storm.
            ::close(fd);
            refused_.fetch_add(1, std::memory_order_relaxed);
            CHISEL_FLIGHT_EVENT(NetConnection, DisconnectReason::Refused,
                                0, conns_.size());
            continue;
        }
        setNonBlocking(fd);
        setNoDelay(fd);
        Conn conn;
        conn.fd = fd;
        conn.id = nextConnId_++;
        conn.lastActivityNs = now_ns;
        conns_.emplace(fd, std::move(conn));
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
        accepted_.fetch_add(1, std::memory_order_relaxed);
        CHISEL_FLIGHT_EVENT(NetConnection, 0, conns_.at(fd).id,
                            conns_.size());
    }
}

void
ChiselService::readReady(Conn &conn, uint64_t now_ns)
{
    uint8_t buf[4096];
    size_t taken = 0;
    while (taken < kReadBurstBytes) {
        ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            conn.reader.feed(buf, static_cast<size_t>(n));
            taken += static_cast<size_t>(n);
            conn.lastActivityNs = now_ns;
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        disconnect(conn.fd, DisconnectReason::PeerClosed);
        return;
    }
    processBuffered(conn, now_ns);
}

void
ChiselService::processBuffered(Conn &conn, uint64_t now_ns)
{
    RpcMessage msg;
    while (pendingOut(conn) <= options_.maxOutputBytes &&
           conn.reader.next(msg))
        dispatch(conn, msg);
    if (conn.reader.bad()) {
        disconnect(conn.fd, DisconnectReason::Protocol);
        return;
    }
    if (!conn.readPaused && pendingOut(conn) > options_.maxOutputBytes) {
        // Backpressure: the peer asked faster than it reads.  Stop
        // reading (requests queue in ITS socket buffer, not our
        // memory) until the output drains.
        conn.readPaused = true;
        backpressurePauses_.fetch_add(1, std::memory_order_relaxed);
    }
    if (pendingOut(conn) > 0 && conn.stallSinceNs == 0)
        conn.stallSinceNs = now_ns;
    updateInterest(conn);
}

void
ChiselService::writeReady(Conn &conn, uint64_t now_ns)
{
    if (CHISEL_FAULT_FIRE(NetStalledPeer)) {
        // Model a zero-window peer: accept nothing this round.  The
        // stall deadline keeps running and eventually cuts the cord.
        return;
    }
    size_t pending = pendingOut(conn);
    if (pending == 0) {
        updateInterest(conn);
        return;
    }
    if (CHISEL_FAULT_FIRE(NetMidFrameReset)) {
        // Die mid-frame: push an honest prefix of the next frame out,
        // then hard-close.  The client's reader sees a truncated
        // frame at the EOF and treats the connection as poisoned.
        size_t part = std::max<size_t>(1, pending / 2);
        (void)::send(conn.fd, conn.out.data() + conn.outPos, part,
                     MSG_NOSIGNAL);
        disconnect(conn.fd, DisconnectReason::MidFrameReset);
        return;
    }
    size_t want = pending;
    if (CHISEL_FAULT_FIRE(NetPartialWrite))
        want = std::max<size_t>(1, pending / 3);
    ssize_t n = ::send(conn.fd, conn.out.data() + conn.outPos, want,
                       MSG_NOSIGNAL);
    if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK ||
            errno == EINTR) {
            if (conn.stallSinceNs == 0)
                conn.stallSinceNs = now_ns;
            return;
        }
        disconnect(conn.fd, DisconnectReason::PeerClosed);
        return;
    }
    conn.outPos += static_cast<size_t>(n);
    conn.lastActivityNs = now_ns;
    conn.stallSinceNs = pendingOut(conn) > 0 ? now_ns : 0;
    if (conn.outPos == conn.out.size()) {
        conn.out.clear();
        conn.outPos = 0;
    } else if (conn.outPos > 65536 &&
               conn.outPos > conn.out.size() / 2) {
        conn.out.erase(conn.out.begin(),
                       conn.out.begin() +
                           static_cast<long>(conn.outPos));
        conn.outPos = 0;
    }
    if (conn.readPaused &&
        pendingOut(conn) <=
            options_.maxOutputBytes / kResumeDivisor) {
        conn.readPaused = false;
        processBuffered(conn, now_ns);
        if (conns_.count(conn.fd) == 0)
            return;   // processBuffered may disconnect.
    }
    updateInterest(conn);
}

void
ChiselService::updateInterest(Conn &conn)
{
    bool draining = drainRequested_.load(std::memory_order_acquire);
    epoll_event ev{};
    ev.events = 0;
    if (!conn.readPaused && !draining)
        ev.events |= EPOLLIN;
    bool wantWrite = pendingOut(conn) > 0;
    if (wantWrite)
        ev.events |= EPOLLOUT;
    conn.wantWrite = wantWrite;
    ev.data.fd = conn.fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void
ChiselService::disconnect(int fd, DisconnectReason reason)
{
    auto it = conns_.find(fd);
    if (it == conns_.end())
        return;
    CHISEL_FLIGHT_EVENT(NetConnection, reason, it->second.id,
                        conns_.size() - 1);
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns_.erase(it);
    disconnects_.fetch_add(1, std::memory_order_relaxed);
    if (reason == DisconnectReason::IdleTimeout)
        idleDisconnects_.fetch_add(1, std::memory_order_relaxed);
    else if (reason == DisconnectReason::WriteStall)
        stallDisconnects_.fetch_add(1, std::memory_order_relaxed);
}

void
ChiselService::sweepDeadlines(uint64_t now_ns)
{
    uint64_t idleNs = msToNs(options_.idleTimeoutMs);
    uint64_t stallNs = msToNs(options_.writeStallMs);
    std::vector<std::pair<int, DisconnectReason>> doomed;
    for (const auto &[fd, conn] : conns_) {
        if (conn.stallSinceNs != 0 && pendingOut(conn) > 0 &&
            now_ns - conn.stallSinceNs > stallNs)
            doomed.emplace_back(fd, DisconnectReason::WriteStall);
        else if (now_ns - conn.lastActivityNs > idleNs)
            doomed.emplace_back(fd, DisconnectReason::IdleTimeout);
    }
    for (auto [fd, reason] : doomed)
        disconnect(fd, reason);
}

// ---- Request dispatch ------------------------------------------------

void
ChiselService::enqueueReply(Conn &conn, const RpcMessage &msg)
{
    std::vector<uint8_t> wire = encodeMessage(msg);
    conn.out.insert(conn.out.end(), wire.begin(), wire.end());
}

void
ChiselService::dispatch(Conn &conn, RpcMessage &msg)
{
    requests_.fetch_add(1, std::memory_order_relaxed);
    CHISEL_FLIGHT_EVENT(NetRequest, msg.type, conn.id,
                        std::max(msg.keys.size(), msg.updates.size()));
    switch (msg.type) {
      case MsgType::LookupRequest:
        enqueueReply(conn, serveLookup(msg));
        return;
      case MsgType::UpdateRequest:
        enqueueReply(conn, serveUpdate(msg));
        return;
      case MsgType::Ping:
        // The health byte is the majority-ruled aggregate: one sick
        // shard must not make the whole node look down.
        enqueueReply(
            conn,
            makePong(msg.id,
                     static_cast<uint8_t>(plane_.aggregateHealth()),
                     drainRequested_.load(std::memory_order_acquire),
                     plane_.generation(), plane_.routeCount()));
        return;
      default:
        // A reply type from a client is well-framed nonsense.
        badRequests_.fetch_add(1, std::memory_order_relaxed);
        enqueueReply(conn, makeStatus(msg.id, StatusCode::BadRequest, 0));
        return;
    }
}

RpcMessage
ChiselService::shed(const RpcMessage &req, health::HealthState why)
{
    overloaded_.fetch_add(1, std::memory_order_relaxed);
    shedUpdates_.fetch_add(req.updates.size(), std::memory_order_relaxed);
    CHISEL_FLIGHT_EVENT(NetShed, why, req.id, req.type);
    return makeStatus(req.id, StatusCode::Overloaded, kRetryAfterMs);
}

RpcMessage
ChiselService::serveLookup(const RpcMessage &req)
{
    // Fail fast instead of queuing behind a sick plane: the client's
    // deadline stays intact and its backoff spreads the retry load
    // (docs/service.md).  The aggregate is sick only past the
    // majority threshold.
    health::HealthState h = plane_.aggregateHealth();
    if (h != health::HealthState::Healthy)
        return shed(req, h);
    if (req.keys.empty()) {
        badRequests_.fetch_add(1, std::memory_order_relaxed);
        return makeStatus(req.id, StatusCode::BadRequest, 0);
    }
    // Per-shard containment: the whole batch sheds if any key's shard
    // is sick — a batch whose keys all land on serving shards is
    // served even while a sibling is quarantined.
    for (const Key128 &key : req.keys) {
        size_t s = plane_.shardOf(key);
        if (!plane_.shardServing(s))
            return shed(req, plane_.shardHealth(s));
    }
    std::vector<WireLookup> results;
    results.reserve(req.keys.size());
    uint64_t generation = plane_.generation();
    for (const Key128 &key : req.keys) {
        LookupResult r = plane_.lookup(key);
        WireLookup w;
        w.found = r.found;
        w.nextHop = r.nextHop;
        w.matchedLength = static_cast<uint8_t>(r.matchedLength);
        results.push_back(w);
    }
    lookupKeys_.fetch_add(req.keys.size(), std::memory_order_relaxed);
    return makeLookupReply(req.id, generation, std::move(results));
}

RpcMessage
ChiselService::serveUpdate(const RpcMessage &req)
{
    if (drainRequested_.load(std::memory_order_acquire)) {
        // Updates during drain are refused: the final snapshot must
        // cover everything this process ever acked.
        drainingReplies_.fetch_add(1, std::memory_order_relaxed);
        return makeStatus(req.id, StatusCode::Draining, kRetryAfterMs);
    }
    health::HealthState h = plane_.aggregateHealth();
    if (h != health::HealthState::Healthy)
        return shed(req, h);
    if (req.updates.empty()) {
        badRequests_.fetch_add(1, std::memory_order_relaxed);
        return makeStatus(req.id, StatusCode::BadRequest, 0);
    }
    for (const Update &u : req.updates) {
        if (u.kind == UpdateKind::Expire) {
            // Expire is the engine's own GC verdict, never a client
            // request — accepting it would let a client fake TTL
            // history.
            badRequests_.fetch_add(1, std::memory_order_relaxed);
            return makeStatus(req.id, StatusCode::BadRequest, 0);
        }
    }

    // Per-shard shedding matrix: refuse the request when ANY update
    // targets a shard that isn't accepting writes (a broadcast needs
    // every shard writable).  Updates bound only for writable shards
    // sail through a sibling's quarantine untouched.
    for (const Update &u : req.updates) {
        size_t target = plane_.shardOf(u.prefix);
        bool broadcast = target == shard::ShardedChisel::kBroadcast;
        size_t lo = broadcast ? 0 : target;
        size_t hi = broadcast ? plane_.shards() : target + 1;
        for (size_t s = lo; s < hi; ++s)
            if (!plane_.shardWritable(s))
                return shed(req, plane_.shardHealth(s));
    }

    // Apply through the plane: each shard's engine journals the
    // update under its writer lock and reports the seq, and a refused
    // append (seq 0) rejects the update unapplied.  Remember the
    // high-water seq per touched shard for one batched fsync each.
    std::vector<WireAck> acks;
    acks.reserve(req.updates.size());
    std::vector<std::vector<shard::ShardedChisel::ShardSeq>> parts;
    parts.reserve(req.updates.size());
    std::vector<uint64_t> maxSeq(plane_.shards(), 0);
    for (const Update &u : req.updates) {
        shard::ShardedChisel::ApplyResult r = plane_.apply(u);
        updatesApplied_.fetch_add(1, std::memory_order_relaxed);
        WireAck a;
        a.seq = r.seq;
        a.status = static_cast<uint8_t>(r.outcome.status);
        a.cls = static_cast<uint8_t>(r.outcome.cls);
        acks.push_back(a);
        for (const auto &p : r.parts)
            if (p.seq > maxSeq[p.shard])
                maxSeq[p.shard] = p.seq;
        parts.push_back(std::move(r.parts));
    }

    // The ack gate, per shard: one fsync per touched shard, then ack
    // exactly the updates whose every (shard, seq) part the owning
    // shard's durable head covers.  A torn write or a failed sync
    // leaves lastDurableSeq() behind, and those updates go back to
    // the client un-acked (docs/service.md).
    std::vector<uint64_t> durable(plane_.shards(), 0);
    uint64_t replyDurable = 0;
    for (size_t s = 0; s < plane_.shards(); ++s) {
        if (maxSeq[s] != 0)
            plane_.ensureDurable(s, maxSeq[s]);
        durable[s] = plane_.lastDurableSeq(s);
        if (maxSeq[s] != 0 && durable[s] > replyDurable)
            replyDurable = durable[s];
    }
    for (size_t i = 0; i < acks.size(); ++i) {
        bool covered = !parts[i].empty();
        for (const auto &p : parts[i])
            covered = covered && p.seq != 0 && p.seq <= durable[p.shard];
        acks[i].acked = covered;
        if (covered)
            acked_.fetch_add(1, std::memory_order_relaxed);
        else
            unacked_.fetch_add(1, std::memory_order_relaxed);
    }
    return makeUpdateReply(req.id, replyDurable, std::move(acks));
}

// ---- Graceful drain --------------------------------------------------

void
ChiselService::drainLoop()
{
    uint64_t now = monotonicNowNs();
    uint64_t deadline = now + msToNs(options_.drainDeadlineMs);

    // Phase 0: stop accepting, stop reading, but first serve every
    // request that already arrived in full — those clients are owed
    // replies, and the flush below delivers them.
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
    size_t queued = 0;
    for (auto &[fd, conn] : conns_) {
        RpcMessage msg;
        while (conn.reader.next(msg))
            dispatch(conn, msg);
        queued += pendingOut(conn);
    }
    CHISEL_FLIGHT_EVENT(NetDrain, 0, conns_.size(), queued);
    // Connections owing nothing close now; the rest flush below.
    std::vector<int> done;
    for (auto &[fd, conn] : conns_) {
        if (pendingOut(conn) == 0)
            done.push_back(fd);
        else
            updateInterest(conn);
    }
    for (int fd : done)
        disconnect(fd, DisconnectReason::Drained);

    // Phase 1: flush queued replies under the drain deadline.
    epoll_event events[64];
    bool flushed = true;
    while (!conns_.empty()) {
        now = monotonicNowNs();
        if (now >= deadline ||
            stopRequested_.load(std::memory_order_acquire)) {
            flushed = conns_.empty();
            break;
        }
        int timeout = static_cast<int>(
            std::min<uint64_t>((deadline - now) / 1000000ull + 1, 50));
        int n = ::epoll_wait(epollFd_, events, 64, timeout);
        now = monotonicNowNs();
        for (int i = 0; i < n; ++i) {
            int fd = events[i].data.fd;
            if (fd == wakeFd_[0]) {
                char buf[64];
                while (::read(wakeFd_[0], buf, sizeof(buf)) > 0) {}
                continue;
            }
            auto it = conns_.find(fd);
            if (it == conns_.end())
                continue;
            if (events[i].events & (EPOLLHUP | EPOLLERR)) {
                disconnect(fd, DisconnectReason::PeerClosed);
                continue;
            }
            if (events[i].events & EPOLLOUT) {
                writeReady(it->second, now);
                auto again = conns_.find(fd);
                if (again != conns_.end() &&
                    pendingOut(again->second) == 0)
                    disconnect(fd, DisconnectReason::Drained);
            }
        }
        sweepDeadlines(now);
    }
    CHISEL_FLIGHT_EVENT(NetDrain, 1, conns_.size(), 0);

    // Phase 2: the final snapshot — the durable state a warm restart
    // resumes from without replaying the whole journal.  Every shard
    // snapshots into its own lane, stamped with its journal seq and
    // marked (a no-op without a persist directory).  A journaled
    // shard whose checkpoint failed leaves the drain incomplete: its
    // warm restart replays the journal tail instead.
    bool journaled = !plane_.shardDir(0).empty();
    size_t saved = plane_.saveSnapshots();
    drained_.store(flushed && (!journaled || saved == plane_.shards()),
                   std::memory_order_relaxed);
    CHISEL_FLIGHT_EVENT(NetDrain, 2, conns_.size(), flushed);
}

} // namespace chisel::net
