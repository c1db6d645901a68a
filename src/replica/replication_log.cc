#include "replica/replication_log.hh"

#include <algorithm>
#include <chrono>

#include "common/clock.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "persist/codec.hh"
#include "replica/wire.hh"
#include "telemetry/flight.hh"

namespace chisel::replica {

/** Seed of the reconnect-backoff jitter stream. */
constexpr uint64_t kJitterSeed = 0x5ca1ab1e;

ReplicationLog::ReplicationLog(persist::UpdateJournal &journal,
                               const ReplicationOptions &options)
    : options_(options), fingerprint_(journal.fingerprint()),
      head_(journal.lastSeq()),
      // A reopened journal recovers history (lastSeq > 0) that was
      // never enqueued in the ship tail.  Treat everything up to the
      // recovered head as evicted, so a follower resuming from below
      // it takes the snapshot path instead of silently skipping
      // pre-restart records.
      resumeFloor_(head_)
{
    journal.setObserver([this](const persist::JournalRecord &rec,
                               const uint8_t *payload, size_t size) {
        enqueue(rec, payload, size);
    });
}

ReplicationLog::~ReplicationLog()
{
    stop();
}

void
ReplicationLog::enqueue(const persist::JournalRecord &rec,
                        const uint8_t *payload, size_t size)
{
    // Commit markers and snapshot anchors carry no engine state: they
    // matter to disk recovery, not to a live replica.
    if (rec.type == persist::JournalRecord::Type::Outcome ||
        rec.type == persist::JournalRecord::Type::SnapshotMark)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    tail_.push_back({rec.type, rec.seq,
                     std::vector<uint8_t>(payload, payload + size)});
    ++tailNext_;
    head_ = std::max(head_, rec.seq);
    while (tail_.size() > options_.tailCapacity) {
        // Records leave in seq order, so the last one evicted sets
        // the floor: its own seq, or one past it for a stamped record.
        const ShipEntry &gone = tail_.front();
        resumeFloor_ = covered(gone.type, gone.seq, gone.seq)
                           ? gone.seq
                           : gone.seq + 1;
        tail_.pop_front();
        ++tailBase_;
    }
    tailCv_.notify_all();
}

// ---- Shipping --------------------------------------------------------

void
ReplicationLog::start(TransportFactory factory,
                      SnapshotProvider snapshots)
{
    if (started_)
        return;
    started_ = true;
    stopping_.store(false, std::memory_order_release);
    shipper_ = std::thread([this, factory = std::move(factory),
                            snapshots = std::move(snapshots)]() mutable {
        shipperMain(std::move(factory), std::move(snapshots));
    });
}

void
ReplicationLog::stop()
{
    if (!started_)
        return;
    stopping_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tailCv_.notify_all();
    }
    {
        std::lock_guard<std::mutex> lock(streamMutex_);
        if (activeStream_)
            activeStream_->shutdown();
    }
    if (shipper_.joinable())
        shipper_.join();
    started_ = false;
}

bool
ReplicationLog::sleepMs(uint64_t ms)
{
    uint64_t deadline = monotonicNowNs() + ms * 1000000ull;
    while (monotonicNowNs() < deadline) {
        if (stopping_.load(std::memory_order_acquire))
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return !stopping_.load(std::memory_order_acquire);
}

void
ReplicationLog::latchFence(uint64_t peer_epoch)
{
    if (fenced_.exchange(true, std::memory_order_acq_rel))
        return;
    warn("replication: fenced at epoch " +
         std::to_string(options_.epoch) + " by peer epoch " +
         std::to_string(peer_epoch) + "; shipping stopped for good");
    CHISEL_FLIGHT_EVENT(ReplicaFence, 0, options_.epoch, peer_epoch);
}

void
ReplicationLog::shipperMain(TransportFactory factory,
                            SnapshotProvider snapshots)
{
    Rng jitter(kJitterSeed);
    uint64_t backoff = options_.backoffMinMs;

    while (!stopping_.load(std::memory_order_acquire) && !fenced()) {
        std::unique_ptr<ByteStream> stream =
            factory ? factory() : nullptr;
        if (!stream) {
            connectFailures_.fetch_add(1, std::memory_order_relaxed);
            uint64_t delay = backoff + jitter.nextBelow(backoff / 2 + 1);
            backoff = std::min(backoff * 2, options_.backoffMaxMs);
            if (!sleepMs(delay))
                break;
            continue;
        }

        {
            std::lock_guard<std::mutex> lock(streamMutex_);
            activeStream_ = stream.get();
        }
        bool handshook = serveConnection(*stream, snapshots);
        {
            std::lock_guard<std::mutex> lock(streamMutex_);
            activeStream_ = nullptr;
        }
        connected_.store(false, std::memory_order_release);
        stream->shutdown();

        if (handshook) {
            backoff = options_.backoffMinMs;  // The peer was alive.
        } else {
            connectFailures_.fetch_add(1, std::memory_order_relaxed);
            uint64_t delay = backoff + jitter.nextBelow(backoff / 2 + 1);
            backoff = std::min(backoff * 2, options_.backoffMaxMs);
            if (!sleepMs(delay))
                break;
        }
    }
    connected_.store(false, std::memory_order_release);
}

bool
ReplicationLog::drainControl(ByteStream &stream, FrameReader &reader,
                             int timeout_ms)
{
    uint8_t buf[4096];
    int n = stream.recv(buf, sizeof(buf), timeout_ms);
    if (n < 0)
        return false;
    if (n > 0)
        reader.feed(buf, static_cast<size_t>(n));
    Frame f;
    while (reader.next(f)) {
        switch (f.type) {
          case FrameType::Ack: {
            uint64_t prev =
                lastAckedSeq_.load(std::memory_order_relaxed);
            while (f.appliedSeq > prev &&
                   !lastAckedSeq_.compare_exchange_weak(
                       prev, f.appliedSeq, std::memory_order_relaxed))
                ;
            break;
          }
          case FrameType::Fenced:
            latchFence(f.currentEpoch);
            return false;
          default:
            break;  // Nothing else flows follower -> leader.
        }
    }
    return !reader.bad();
}

bool
ReplicationLog::serveConnection(ByteStream &stream,
                                SnapshotProvider &snapshots)
{
    FrameReader reader;
    Frame hello;
    if (!readFrame(stream, reader, hello, kHandshakeTimeoutMs))
        return false;
    if (hello.type == FrameType::Fenced) {
        latchFence(hello.currentEpoch);
        return false;
    }
    if (hello.type != FrameType::Hello)
        return false;
    if (hello.fingerprint != fingerprint_) {
        warn("replication: follower config fingerprint mismatch "
             "(ours " + std::to_string(fingerprint_) + ", theirs " +
             std::to_string(hello.fingerprint) + "); not shipping");
        return false;
    }
    if (std::max(hello.epoch, hello.maxEpochSeen) > options_.epoch) {
        // The follower has seen a newer leader: we are stale.
        latchFence(std::max(hello.epoch, hello.maxEpochSeen));
        return false;
    }

    uint64_t head;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        head = head_;
    }
    if (!sendFrame(stream,
                   makeWelcome(options_.epoch, fingerprint_, head),
                   nullptr))
        return false;
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    connected_.store(true, std::memory_order_release);

    // Decide where this session starts: resume from the follower's
    // last applied seq if every later record is still in the tail,
    // else ship a fresh snapshot and continue past its covered seq.
    uint64_t resumeSeq = hello.lastAppliedSeq;
    bool needSnapshot;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        needSnapshot = resumeSeq < resumeFloor_;
    }
    if (needSnapshot) {
        // Snapshot-unavailable is a backoff-eligible failure: the
        // session cannot proceed, and returning handshook would reset
        // the backoff into a tight reconnect/re-image loop.
        if (!snapshots) {
            warn("replication: follower needs snapshot catch-up but "
                 "no snapshot provider is configured");
            return false;
        }
        uint64_t coveredSeq = 0;
        std::vector<uint8_t> image;
        bool consistent = false;
        for (int attempt = 0; attempt < 3 && !consistent; ++attempt) {
            image = snapshots(coveredSeq);
            std::lock_guard<std::mutex> lock(mutex_);
            // The snapshot must meet the retained tail, or records
            // between its covered seq and the tail would be lost.
            consistent = !image.empty() && coveredSeq >= resumeFloor_;
        }
        if (!consistent) {
            warn("replication: snapshot provider could not produce a "
                 "consistent image for catch-up; backing off");
            return false;
        }
        if (!sendFrame(stream,
                       makeSnapshotBegin(options_.epoch, coveredSeq,
                                         image.size()),
                       nullptr))
            return true;
        constexpr size_t kChunk = 64 * 1024;
        for (size_t off = 0; off < image.size(); off += kChunk) {
            size_t n = std::min(kChunk, image.size() - off);
            if (!sendFrame(stream,
                           makeSnapshotChunk(options_.epoch, off,
                                             image.data() + off, n),
                           nullptr))
                return true;
        }
        if (!sendFrame(stream,
                       makeSnapshotEnd(
                           options_.epoch,
                           persist::crc32(image.data(), image.size())),
                       nullptr))
            return true;
        bytesShipped_.fetch_add(image.size(),
                                std::memory_order_relaxed);
        snapshotsShipped_.fetch_add(1, std::memory_order_relaxed);
        CHISEL_FLIGHT_EVENT(ReplicaShip, FrameType::SnapshotEnd,
                            coveredSeq, image.size());
        resumeSeq = coveredSeq;
    }

    // Position the cursor at the first retained entry resumeSeq does
    // not cover.
    uint64_t cursor;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (resumeSeq < resumeFloor_)
            return true;  // Evicted while the snapshot went out.
        cursor = tailBase_;
        while (cursor < tailNext_ &&
               covered(tail_[cursor - tailBase_].type,
                       tail_[cursor - tailBase_].seq, resumeSeq))
            ++cursor;
    }

    uint64_t lastSendNs = monotonicNowNs();
    uint64_t heartbeatNs = options_.heartbeatMs * 1000000ull;

    while (!stopping_.load(std::memory_order_acquire) && !fenced()) {
        // Gather the next batch (waiting briefly when idle).
        std::vector<ShipEntry> batch;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (cursor < tailBase_)
                return true;  // Evicted past us: reconnect -> snapshot.
            auto gather = [&] {
                while (cursor < tailNext_ && batch.size() < 64) {
                    batch.push_back(tail_[cursor - tailBase_]);
                    ++cursor;
                }
            };
            gather();
            if (batch.empty()) {
                tailCv_.wait_for(
                    lock, std::chrono::milliseconds(options_.heartbeatMs),
                    [&] {
                        return stopping_.load(
                                   std::memory_order_acquire) ||
                               tailNext_ > cursor;
                    });
                if (cursor < tailBase_)
                    return true;
                gather();
            }
        }

        for (const ShipEntry &entry : batch) {
            uint64_t bytes = 0;
            if (!sendFrame(stream,
                           makeRecord(options_.epoch, entry.bytes),
                           &bytes))
                return true;  // Drop: reconnect with resume.
            recordsShipped_.fetch_add(1, std::memory_order_relaxed);
            bytesShipped_.fetch_add(bytes, std::memory_order_relaxed);
            CHISEL_FLIGHT_EVENT(ReplicaShip, FrameType::Record,
                                entry.seq, bytes);
            lastSendNs = monotonicNowNs();
        }

        if (batch.empty() &&
            monotonicNowNs() - lastSendNs >= heartbeatNs) {
            uint64_t seq;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                seq = head_;
            }
            if (!sendFrame(stream,
                           makeHeartbeat(options_.epoch, seq),
                           nullptr))
                return true;
            lastSendNs = monotonicNowNs();
        }

        if (!drainControl(stream, reader, 0))
            return true;
    }
    return true;
}

// ---- Introspection ---------------------------------------------------

ReplicationStats
ReplicationLog::stats() const
{
    ReplicationStats s;
    s.epoch = options_.epoch;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        s.lastSeq = head_;
    }
    s.lastAckedSeq = lastAckedSeq_.load(std::memory_order_relaxed);
    s.lagRecords =
        s.lastSeq > s.lastAckedSeq ? s.lastSeq - s.lastAckedSeq : 0;
    s.recordsShipped = recordsShipped_.load(std::memory_order_relaxed);
    s.bytesShipped = bytesShipped_.load(std::memory_order_relaxed);
    s.snapshotsShipped =
        snapshotsShipped_.load(std::memory_order_relaxed);
    s.reconnects = reconnects_.load(std::memory_order_relaxed);
    s.connectFailures =
        connectFailures_.load(std::memory_order_relaxed);
    s.connected = connected_.load(std::memory_order_acquire);
    s.fenced = fenced();
    return s;
}

} // namespace chisel::replica
