#include "replica/follower.hh"

#include <algorithm>

#include "common/clock.hh"
#include "common/logging.hh"
#include "concurrent/concurrent_engine.hh"
#include "persist/codec.hh"
#include "persist/journal.hh"
#include "telemetry/flight.hh"
#include "telemetry/metrics.hh"

namespace chisel::replica {

/** Send an Ack at least every this many applied records. */
constexpr uint64_t kAckEvery = 32;

Follower::Follower(concurrent::ConcurrentChisel &engine,
                   uint64_t config_fingerprint,
                   const FollowerOptions &options)
    : engine_(engine), fingerprint_(config_fingerprint),
      options_(options)
{
}

Follower::~Follower()
{
    stop();
}

// ---- State -----------------------------------------------------------

uint64_t
Follower::lag() const
{
    uint64_t head = leaderLastSeq_.load(std::memory_order_acquire);
    uint64_t applied = lastApplied_.load(std::memory_order_acquire);
    return head > applied ? head - applied : 0;
}

bool
Follower::caughtUp() const
{
    if (promoted())
        return true;
    return connected() && lag() <= kLagBound;
}

bool
Follower::leaderSilent() const
{
    if (!everConnected_.load(std::memory_order_acquire) || promoted())
        return false;
    uint64_t last = lastFrameNs_.load(std::memory_order_acquire);
    if (last == 0)
        return false;
    return monotonicNowNs() - last >
           options_.heartbeatTimeoutMs * 1000000ull;
}

void
Follower::noteEpoch(uint64_t epoch)
{
    uint64_t prev = maxEpochSeen_.load(std::memory_order_relaxed);
    while (epoch > prev &&
           !maxEpochSeen_.compare_exchange_weak(
               prev, epoch, std::memory_order_acq_rel))
        ;
}

uint64_t
Follower::requiredEpoch() const
{
    // Before promotion: any epoch at least as new as the newest ever
    // seen is legitimate.  After promoting at epoch E, *we* are the
    // epoch-E leader — only a successor (epoch > E) may ship to us.
    uint64_t promoted_at =
        promotedEpoch_.load(std::memory_order_acquire);
    uint64_t seen = maxEpochSeen_.load(std::memory_order_acquire);
    if (promoted_at != 0)
        return promoted_at + 1;
    return seen;
}

// ---- Serving ---------------------------------------------------------

void
Follower::handleConnection(ByteStream &stream)
{
    connectionsServed_.fetch_add(1, std::memory_order_relaxed);
    FrameReader reader;

    if (!sendFrame(stream,
                   makeHello(0, fingerprint_,
                             lastApplied_.load(
                                 std::memory_order_acquire),
                             maxEpochSeen_.load(
                                 std::memory_order_acquire))))
        return;

    Frame welcome;
    if (!readFrame(stream, reader, welcome, kHandshakeTimeoutMs))
        return;
    if (welcome.type != FrameType::Welcome)
        return;
    if (welcome.fingerprint != fingerprint_) {
        warn("replica: leader config fingerprint mismatch (ours " +
             std::to_string(fingerprint_) + ", theirs " +
             std::to_string(welcome.fingerprint) + "); rejecting");
        return;
    }
    if (welcome.epoch < requiredEpoch()) {
        // A revived stale leader: fence it and drop the connection.
        fenceRejects_.fetch_add(1, std::memory_order_relaxed);
        CHISEL_FLIGHT_EVENT(ReplicaFence, 0, welcome.epoch,
                            requiredEpoch());
        sendFrame(stream,
                  makeFenced(maxEpochSeen_.load(
                                 std::memory_order_acquire),
                             requiredEpoch()));
        return;
    }
    noteEpoch(welcome.epoch);
    leaderLastSeq_.store(
        std::max(leaderLastSeq_.load(std::memory_order_relaxed),
                 welcome.lastSeq),
        std::memory_order_release);
    lastFrameNs_.store(monotonicNowNs(), std::memory_order_release);
    connected_.store(true, std::memory_order_release);
    everConnected_.store(true, std::memory_order_release);

    SnapshotTransfer xfer;
    uint64_t since_ack = 0;
    bool alive = true;
    while (alive && !stopping_.load(std::memory_order_acquire)) {
        Frame f;
        bool progressed = false;
        while (reader.next(f)) {
            progressed = true;
            lastFrameNs_.store(monotonicNowNs(),
                               std::memory_order_release);
            if (f.epoch < requiredEpoch()) {
                fenceRejects_.fetch_add(1, std::memory_order_relaxed);
                CHISEL_FLIGHT_EVENT(ReplicaFence, 0, f.epoch,
                                    requiredEpoch());
                sendFrame(stream,
                          makeFenced(maxEpochSeen_.load(
                                         std::memory_order_acquire),
                                     requiredEpoch()));
                alive = false;
                break;
            }
            noteEpoch(f.epoch);
            if (!handleFrame(stream, f, xfer, since_ack)) {
                alive = false;
                break;
            }
        }
        if (!alive || reader.bad())
            break;
        if (!progressed) {
            uint8_t buf[8192];
            int n = stream.recv(buf, sizeof(buf), 50);
            if (n < 0)
                break;
            if (n > 0)
                reader.feed(buf, static_cast<size_t>(n));
        }
    }

    if (xfer.active)
        snapshotsDiscarded_.fetch_add(1, std::memory_order_relaxed);
    connected_.store(false, std::memory_order_release);
}

bool
Follower::handleFrame(ByteStream &stream, const Frame &frame,
                      SnapshotTransfer &xfer, uint64_t &since_ack)
{
    switch (frame.type) {
      case FrameType::Record: {
        persist::JournalRecord rec;
        try {
            rec = persist::decodeJournalRecord(frame.payload.data(),
                                               frame.payload.size());
        } catch (const persist::DecodeError &) {
            return false;  // Corrupt shipment: drop and resync.
        }
        if (applyRecord(rec) &&
            ++since_ack >= kAckEvery) {
            since_ack = 0;
            sendFrame(stream,
                      makeAck(maxEpochSeen_.load(
                                  std::memory_order_acquire),
                              lastApplied_.load(
                                  std::memory_order_acquire)));
        }
        return true;
      }
      case FrameType::SnapshotBegin:
        if (frame.totalBytes > kMaxSnapshotBytes) {
            warn("replica: refusing " +
                 std::to_string(frame.totalBytes) +
                 "-byte snapshot transfer");
            return false;
        }
        xfer.active = true;
        xfer.coveredSeq = frame.coveredSeq;
        xfer.totalBytes = frame.totalBytes;
        xfer.image.clear();
        xfer.image.reserve(frame.totalBytes);
        return true;
      case FrameType::SnapshotChunk:
        if (!xfer.active || frame.offset != xfer.image.size() ||
            xfer.image.size() + frame.payload.size() >
                xfer.totalBytes)
            return false;  // Out-of-order/oversized: discard transfer.
        xfer.image.insert(xfer.image.end(), frame.payload.begin(),
                          frame.payload.end());
        return true;
      case FrameType::SnapshotEnd: {
        if (!xfer.active || xfer.image.size() != xfer.totalBytes ||
            persist::crc32(xfer.image.data(), xfer.image.size()) !=
                frame.imageCrc) {
            xfer = SnapshotTransfer{};
            snapshotsDiscarded_.fetch_add(1,
                                          std::memory_order_relaxed);
            return false;
        }
        bool installed = installSnapshot(xfer);
        xfer = SnapshotTransfer{};
        if (!installed)
            return false;  // No base installed: never ack past it.
        since_ack = 0;
        sendFrame(stream,
                  makeAck(maxEpochSeen_.load(
                              std::memory_order_acquire),
                          lastApplied_.load(
                              std::memory_order_acquire)));
        return true;
      }
      case FrameType::Heartbeat: {
        uint64_t prev =
            leaderLastSeq_.load(std::memory_order_relaxed);
        while (frame.lastSeq > prev &&
               !leaderLastSeq_.compare_exchange_weak(
                   prev, frame.lastSeq, std::memory_order_acq_rel))
            ;
        // Answer with our position so the leader's lag gauge moves
        // even when the record stream is idle.
        sendFrame(stream,
                  makeAck(maxEpochSeen_.load(
                              std::memory_order_acquire),
                          lastApplied_.load(
                              std::memory_order_acquire)));
        since_ack = 0;
        return true;
      }
      case FrameType::Fenced:
        // A leader never fences a follower; treat as protocol abuse.
        return false;
      default:
        // Hello/Welcome/Ack mid-stream: protocol violation.
        return false;
    }
}

bool
Follower::applyRecord(const persist::JournalRecord &rec)
{
    std::lock_guard<std::mutex> lock(applyMutex_);
    if (!replayLocked(rec)) {
        // Commit markers and snapshot anchors carry no engine state;
        // anything else the engine already holds is a resume
        // duplicate.
        if (rec.type != persist::JournalRecord::Type::Outcome &&
            rec.type != persist::JournalRecord::Type::SnapshotMark)
            duplicatesSkipped_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    recordsApplied_.fetch_add(1, std::memory_order_relaxed);
    CHISEL_FLIGHT_EVENT(ReplicaApply, rec.type, rec.seq, 0);
    uint64_t prev = leaderLastSeq_.load(std::memory_order_relaxed);
    while (rec.seq > prev &&
           !leaderLastSeq_.compare_exchange_weak(
               prev, rec.seq, std::memory_order_acq_rel))
        ;
    return true;
}

bool
Follower::replayLocked(const persist::JournalRecord &rec)
{
    uint64_t applied = lastApplied_.load(std::memory_order_acquire);
    if (covered(rec.type, rec.seq, applied))
        return false;
    switch (rec.type) {
      case persist::JournalRecord::Type::Update:
        engine_.apply(rec.update);
        lastApplied_.store(rec.seq, std::memory_order_release);
        return true;
      case persist::JournalRecord::Type::Housekeeping:
        engine_.purgeDirtyNow();
        return true;
      case persist::JournalRecord::Type::ResizeMark:
        // Re-plan at the same point in the stream the leader did, so
        // both sides' spill/slow-path admission decisions agree from
        // here on.  An incompatible mark (geometry change) is refused
        // by resizeTo and logged; the stream continues.
        engine_.resizeTo(rec.resizeConfig);
        return true;
      case persist::JournalRecord::Type::Outcome:
      case persist::JournalRecord::Type::SnapshotMark:
        break;
    }
    return false;
}

bool
Follower::installSnapshot(SnapshotTransfer &xfer)
{
    std::lock_guard<std::mutex> lock(applyMutex_);
    if (xfer.coveredSeq <=
        lastApplied_.load(std::memory_order_acquire)) {
        // We are already past this image (a resume raced a snapshot
        // decision); installing it would rewind the engine.  The
        // session may continue: our state covers the image.
        snapshotsDiscarded_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    // Install from memory through the engine's pointer-flip restore,
    // which re-checks the image and its config; a partial transfer
    // never got this far (whole-image CRC).
    if (!engine_.restoreFromImage(xfer.image)) {
        warn("replica: shipped snapshot failed to install");
        snapshotsDiscarded_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    lastApplied_.store(xfer.coveredSeq, std::memory_order_release);
    snapshotsInstalled_.fetch_add(1, std::memory_order_relaxed);
    CHISEL_FLIGHT_EVENT(ReplicaApply, FrameType::SnapshotEnd,
                        xfer.coveredSeq, xfer.image.size());
    return true;
}

void
Follower::start(TcpListener &listener)
{
    if (started_)
        return;
    started_ = true;
    stopping_.store(false, std::memory_order_release);
    serveThread_ = std::thread([this, &listener] {
        while (!stopping_.load(std::memory_order_acquire)) {
            std::unique_ptr<ByteStream> stream = listener.accept(100);
            if (!stream)
                continue;
            {
                std::lock_guard<std::mutex> lock(streamMutex_);
                activeStream_ = stream.get();
            }
            handleConnection(*stream);
            {
                std::lock_guard<std::mutex> lock(streamMutex_);
                activeStream_ = nullptr;
            }
            stream->shutdown();
        }
    });
}

void
Follower::stop()
{
    if (!started_)
        return;
    stopping_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(streamMutex_);
        if (activeStream_)
            activeStream_->shutdown();
    }
    if (serveThread_.joinable())
        serveThread_.join();
    started_ = false;
}

// ---- Promotion -------------------------------------------------------

PromotionReport
Follower::promote(const std::string &journal_path)
{
    std::lock_guard<std::mutex> lock(applyMutex_);
    PromotionReport report;

    if (!journal_path.empty()) {
        // Replay the old leader's durable tail: every journal-synced
        // record beyond our replicated position gets applied, through
        // the same rule as the live stream, so an acknowledged route
        // can only be lost if its journal record was lost too — which
        // the leader's durability contract (append-before-ack) rules
        // out.
        persist::JournalScan scan =
            persist::scanJournal(journal_path, fingerprint_);
        if (scan.headerOk) {
            for (const persist::JournalRecord &rec : scan.records)
                if (replayLocked(rec))
                    ++report.replayedRecords;
        } else {
            warn("replica: promotion journal '" + journal_path +
                 "' unreadable (" + scan.error +
                 "); promoting from replicated state only");
        }
    }

    uint64_t new_epoch =
        std::max(maxEpochSeen_.load(std::memory_order_acquire),
                 promotedEpoch_.load(std::memory_order_acquire)) +
        1;
    promotedEpoch_.store(new_epoch, std::memory_order_release);
    noteEpoch(new_epoch);
    engine_.monitor().recordFailover();
    CHISEL_FLIGHT_EVENT(ReplicaPromote, 0, new_epoch,
                        report.replayedRecords);
    inform("replica: promoted to leader at epoch " +
           std::to_string(new_epoch) + " (replayed " +
           std::to_string(report.replayedRecords) +
           " journal records)");

    report.epoch = new_epoch;
    report.lastAppliedSeq = lastApplied_.load(std::memory_order_acquire);
    return report;
}

// ---- Introspection ---------------------------------------------------

FollowerStats
Follower::stats() const
{
    FollowerStats s;
    s.lastAppliedSeq = lastAppliedSeq();
    s.leaderLastSeq = leaderLastSeq();
    s.lagRecords = lag();
    s.recordsApplied =
        recordsApplied_.load(std::memory_order_relaxed);
    s.duplicatesSkipped =
        duplicatesSkipped_.load(std::memory_order_relaxed);
    s.snapshotsInstalled =
        snapshotsInstalled_.load(std::memory_order_relaxed);
    s.snapshotsDiscarded =
        snapshotsDiscarded_.load(std::memory_order_relaxed);
    s.connectionsServed =
        connectionsServed_.load(std::memory_order_relaxed);
    s.fenceRejects = fenceRejects_.load(std::memory_order_relaxed);
    s.maxEpochSeen = maxEpochSeen();
    s.promotedEpoch = epoch();
    s.connected = connected();
    s.caughtUp = caughtUp();
    s.promoted = promoted();
    return s;
}

void
Follower::publish(telemetry::MetricRegistry &registry,
                  const std::string &prefix) const
{
    FollowerStats s = stats();
    auto set = [&](const char *name, uint64_t v) {
        registry.gauge(prefix + "." + name)
            .set(static_cast<double>(v));
    };
    set("last_applied_seq", s.lastAppliedSeq);
    set("leader_last_seq", s.leaderLastSeq);
    set("lag_records", s.lagRecords);
    set("records_applied", s.recordsApplied);
    set("duplicates_skipped", s.duplicatesSkipped);
    set("snapshots_installed", s.snapshotsInstalled);
    set("snapshots_discarded", s.snapshotsDiscarded);
    set("connections_served", s.connectionsServed);
    set("fence_rejects", s.fenceRejects);
    set("max_epoch_seen", s.maxEpochSeen);
    set("promoted_epoch", s.promotedEpoch);
    set("connected", s.connected ? 1 : 0);
    set("caught_up", s.caughtUp ? 1 : 0);
    set("promoted", s.promoted ? 1 : 0);
}

} // namespace chisel::replica
