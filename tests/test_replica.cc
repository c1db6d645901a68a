/**
 * @file
 * Tests for the warm-standby replication stack: wire-protocol framing
 * (roundtrip, incremental feed, corruption/oversize poisoning),
 * leader-to-follower shipping over pipes and loopback TCP (a shipper
 * attached to a bare journal, and to a journaled ConcurrentChisel
 * leader), snapshot bootstrap after tail eviction,
 * resume-from-sequence-number without duplicates or skipped stamped
 * records, torn mid-snapshot transfers, fencing-epoch rejection of
 * stale leaders, heartbeat silence detection, and promotion replay of
 * a journal tail.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "concurrent/concurrent_engine.hh"
#include "core/engine.hh"
#include "differential.hh"
#include "core/resize.hh"
#include "fault/fault.hh"
#include "health/monitor.hh"
#include "persist/codec.hh"
#include "persist/journal.hh"
#include "persist/snapshot.hh"
#include "replica/follower.hh"
#include "replica/replication_log.hh"
#include "replica/transport.hh"
#include "replica/wire.hh"
#include "route/synth.hh"
#include "route/updates.hh"

namespace chisel {
namespace {

using concurrent::ConcurrentChisel;
using concurrent::ConcurrentOptions;
using replica::ByteStream;
using replica::Follower;
using replica::FollowerOptions;
using replica::Frame;
using replica::FrameReader;
using replica::FrameType;
using replica::ReplicationLog;
using replica::ReplicationOptions;

// ---- Scenario helpers ------------------------------------------------

RoutingTable
smallTable(uint64_t seed = 0x9e1)
{
    return generateScaledTable(400, 32, seed);
}

std::vector<Update>
smallTrace(const RoutingTable &table, size_t n, uint64_t seed = 0x9e2)
{
    UpdateTraceGenerator gen(table, TraceProfile{}, 32, seed);
    return gen.generate(n);
}

RoutingTable
advance(RoutingTable table, const std::vector<Update> &updates,
        size_t count)
{
    for (size_t i = 0; i < count && i < updates.size(); ++i) {
        if (updates[i].kind == UpdateKind::Announce)
            table.add(updates[i].prefix, updates[i].nextHop);
        else
            table.remove(updates[i].prefix);
    }
    return table;
}

/** Every truth route served with the right hop, no extras. */
::testing::AssertionResult
matchesTruth(const ConcurrentChisel &engine, const RoutingTable &truth)
{
    for (const Route &r : truth.routes()) {
        auto nh = engine.find(r.prefix);
        if (!nh)
            return ::testing::AssertionFailure()
                   << "route lost: " << r.prefix.str();
        if (*nh != r.nextHop)
            return ::testing::AssertionFailure()
                   << "wrong next hop for " << r.prefix.str();
    }
    if (engine.routeCount() != truth.size())
        return ::testing::AssertionFailure()
               << "route count " << engine.routeCount() << " vs truth "
               << truth.size();
    return ::testing::AssertionSuccess();
}

bool
waitUntil(const std::function<bool()> &cond, int limit_ms = 5000)
{
    for (int waited = 0; waited < limit_ms; waited += 2) {
        if (cond())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return cond();
}

/** unique_ptr facade over a shared pipe end, for TransportFactory. */
class SharedEnd : public ByteStream
{
  public:
    explicit SharedEnd(std::shared_ptr<ByteStream> s)
        : s_(std::move(s))
    {}
    bool send(const uint8_t *d, size_t n) override
    {
        return s_->send(d, n);
    }
    int recv(uint8_t *d, size_t n, int t) override
    {
        return s_->recv(d, n, t);
    }
    void shutdown() override { s_->shutdown(); }

  private:
    std::shared_ptr<ByteStream> s_;
};

/** Hands out queued pipe ends, one per (re)connection attempt. */
struct EndQueue
{
    std::mutex m;
    std::deque<std::shared_ptr<ByteStream>> ends;

    void push(std::shared_ptr<ByteStream> end)
    {
        std::lock_guard<std::mutex> lk(m);
        ends.push_back(std::move(end));
    }

    std::unique_ptr<ByteStream> pop()
    {
        std::lock_guard<std::mutex> lk(m);
        if (ends.empty())
            return nullptr;
        auto end = std::move(ends.front());
        ends.pop_front();
        return std::make_unique<SharedEnd>(std::move(end));
    }
};

struct TempFile
{
    explicit TempFile(std::string p) : path(std::move(p))
    {
        std::remove(path.c_str());
    }
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

// ---- Wire protocol ---------------------------------------------------

TEST(ReplicaWire, RoundtripAllFrameTypes)
{
    persist::JournalRecord rec;
    rec.type = persist::JournalRecord::Type::Update;
    rec.seq = 42;
    rec.update.kind = UpdateKind::Announce;
    rec.update.prefix = Prefix(Key128::fromIpv4(0x0A000000u), 8);
    rec.update.nextHop = NextHop(7);

    std::vector<Frame> frames = {
        replica::makeHello(3, 0xfeed, 10, 2),
        replica::makeWelcome(4, 0xfeed, 99),
        replica::makeRecord(4, persist::encodeJournalRecord(rec)),
        replica::makeSnapshotBegin(4, 50, 1000),
        replica::makeSnapshotChunk(4, 16,
                                   persist::encodeJournalRecord(rec)
                                       .data(),
                                   8),
        replica::makeSnapshotEnd(4, 0xdeadbeef),
        replica::makeHeartbeat(4, 123),
        replica::makeAck(2, 88),
        replica::makeFenced(5, 6),
    };

    FrameReader reader;
    for (const Frame &f : frames) {
        std::vector<uint8_t> wire = replica::encodeFrame(f);
        reader.feed(wire.data(), wire.size());
    }
    Frame out;
    ASSERT_TRUE(reader.next(out));
    EXPECT_EQ(out.type, FrameType::Hello);
    EXPECT_EQ(out.epoch, 3u);
    EXPECT_EQ(out.fingerprint, 0xfeedu);
    EXPECT_EQ(out.lastAppliedSeq, 10u);
    EXPECT_EQ(out.maxEpochSeen, 2u);

    ASSERT_TRUE(reader.next(out));
    EXPECT_EQ(out.type, FrameType::Welcome);
    EXPECT_EQ(out.lastSeq, 99u);

    ASSERT_TRUE(reader.next(out));
    EXPECT_EQ(out.type, FrameType::Record);
    persist::JournalRecord back = persist::decodeJournalRecord(
        out.payload.data(), out.payload.size());
    EXPECT_EQ(back.seq, 42u);
    EXPECT_EQ(back.update.nextHop, NextHop(7));

    ASSERT_TRUE(reader.next(out));
    EXPECT_EQ(out.type, FrameType::SnapshotBegin);
    EXPECT_EQ(out.coveredSeq, 50u);
    EXPECT_EQ(out.totalBytes, 1000u);

    ASSERT_TRUE(reader.next(out));
    EXPECT_EQ(out.type, FrameType::SnapshotChunk);
    EXPECT_EQ(out.offset, 16u);
    EXPECT_EQ(out.payload.size(), 8u);

    ASSERT_TRUE(reader.next(out));
    EXPECT_EQ(out.type, FrameType::SnapshotEnd);
    EXPECT_EQ(out.imageCrc, 0xdeadbeefu);

    ASSERT_TRUE(reader.next(out));
    EXPECT_EQ(out.type, FrameType::Heartbeat);
    EXPECT_EQ(out.lastSeq, 123u);

    ASSERT_TRUE(reader.next(out));
    EXPECT_EQ(out.type, FrameType::Ack);
    EXPECT_EQ(out.appliedSeq, 88u);

    ASSERT_TRUE(reader.next(out));
    EXPECT_EQ(out.type, FrameType::Fenced);
    EXPECT_EQ(out.currentEpoch, 6u);

    EXPECT_FALSE(reader.next(out));
    EXPECT_FALSE(reader.bad());
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(ReplicaWire, IncrementalFeedByteAtATime)
{
    std::vector<uint8_t> wire =
        replica::encodeFrame(replica::makeHeartbeat(9, 77));
    FrameReader reader;
    Frame out;
    for (size_t i = 0; i + 1 < wire.size(); ++i) {
        reader.feed(&wire[i], 1);
        EXPECT_FALSE(reader.next(out));
    }
    reader.feed(&wire[wire.size() - 1], 1);
    ASSERT_TRUE(reader.next(out));
    EXPECT_EQ(out.type, FrameType::Heartbeat);
    EXPECT_EQ(out.epoch, 9u);
    EXPECT_EQ(out.lastSeq, 77u);
}

TEST(ReplicaWire, CorruptPayloadPoisonsReader)
{
    std::vector<uint8_t> wire =
        replica::encodeFrame(replica::makeAck(1, 5));
    wire[wire.size() - 1] ^= 0x40;  // Flip a payload bit: CRC fails.
    FrameReader reader;
    reader.feed(wire.data(), wire.size());
    Frame out;
    EXPECT_FALSE(reader.next(out));
    EXPECT_TRUE(reader.bad());
    EXPECT_FALSE(reader.error().empty());

    // Poisoned forever: fresh valid bytes do not resurrect it.
    std::vector<uint8_t> good =
        replica::encodeFrame(replica::makeAck(1, 6));
    reader.feed(good.data(), good.size());
    EXPECT_FALSE(reader.next(out));
}

TEST(ReplicaWire, OversizedLengthPoisonsReader)
{
    uint8_t header[8] = {0};
    uint32_t huge = replica::kMaxFramePayload + 1;
    std::memcpy(header, &huge, sizeof(huge));
    FrameReader reader;
    reader.feed(header, sizeof(header));
    Frame out;
    EXPECT_FALSE(reader.next(out));
    EXPECT_TRUE(reader.bad());
}

// ---- End-to-end shipping ---------------------------------------------

TEST(Replica, ShipsRecordsOverLoopbackTcp)
{
    TempFile journal("test_replica_tcp.journal");
    RoutingTable table = smallTable();
    std::vector<Update> updates = smallTrace(table, 200);
    ChiselConfig config;
    uint64_t fp = configFingerprint(config);

    ConcurrentOptions copts;
    copts.controlThread = false;
    ConcurrentChisel standby(table, config, copts);
    replica::TcpListener listener;
    ASSERT_TRUE(listener.listen(0));
    Follower follower(standby, fp);
    follower.start(listener);

    ReplicationOptions ropts;
    ropts.heartbeatMs = 10;
    persist::UpdateJournal j(journal.path, fp);
    ReplicationLog rlog(j, ropts);
    uint16_t port = listener.port();
    rlog.start([port] { return replica::tcpConnect(port, 500); },
               nullptr);

    uint64_t last = 0;
    for (const Update &u : updates) {
        last = j.append(u);
        ASSERT_NE(last, 0u);
    }
    EXPECT_TRUE(waitUntil(
        [&] { return follower.lastAppliedSeq() == last; }));
    EXPECT_TRUE(waitUntil([&] { return follower.caughtUp(); }));

    rlog.stop();
    follower.stop();

    EXPECT_TRUE(matchesTruth(
        standby, advance(table, updates, updates.size())));
    replica::ReplicationStats ls = rlog.stats();
    EXPECT_GE(ls.recordsShipped, updates.size());
    EXPECT_EQ(ls.lastSeq, last);
    EXPECT_FALSE(ls.fenced);
    replica::FollowerStats fs = follower.stats();
    EXPECT_EQ(fs.recordsApplied, updates.size());
    EXPECT_EQ(fs.duplicatesSkipped, 0u);
}

TEST(Replica, SnapshotBootstrapAfterTailEviction)
{
    TempFile journal("test_replica_boot.journal");
    RoutingTable table = smallTable(0xb001);
    std::vector<Update> updates = smallTrace(table, 120, 0xb002);
    ChiselConfig config;
    uint64_t fp = configFingerprint(config);

    // A tail far smaller than the backlog: by the time the follower
    // first connects, its resume point (0) has been evicted and the
    // leader must ship a snapshot.
    ReplicationOptions ropts;
    ropts.tailCapacity = 8;
    ropts.heartbeatMs = 10;
    persist::UpdateJournal j(journal.path, fp);
    ReplicationLog rlog(j, ropts);

    uint64_t last = 0;
    for (const Update &u : updates) {
        last = j.append(u);
        ASSERT_NE(last, 0u);
    }

    // The provider images a sidecar engine that has the whole history
    // applied — exactly what ConcurrentChisel::saveSnapshot would
    // produce on the leader.
    ChiselEngine sidecar(advance(table, updates, updates.size()),
                         config);
    uint64_t covered_at = last;
    auto provider = [&](uint64_t &covered) {
        covered = covered_at;
        return persist::encodeSnapshotImage(sidecar, covered_at);
    };

    ConcurrentOptions copts;
    copts.controlThread = false;
    ConcurrentChisel standby(table, config, copts);
    replica::TcpListener listener;
    ASSERT_TRUE(listener.listen(0));
    Follower follower(standby, fp);
    follower.start(listener);

    uint16_t port = listener.port();
    rlog.start([port] { return replica::tcpConnect(port, 500); },
               provider);

    EXPECT_TRUE(waitUntil(
        [&] { return follower.lastAppliedSeq() == last; }));
    rlog.stop();
    follower.stop();

    replica::FollowerStats fs = follower.stats();
    EXPECT_EQ(fs.snapshotsInstalled, 1u);
    // Catch-up was the image plus at most the retained tail — never a
    // genesis replay.
    EXPECT_LE(fs.recordsApplied, ropts.tailCapacity);
    EXPECT_TRUE(matchesTruth(
        standby, advance(table, updates, updates.size())));
    EXPECT_GE(rlog.stats().snapshotsShipped, 1u);
}

TEST(Replica, LeaderRestartForcesSnapshotCatchup)
{
    TempFile journal("test_replica_restart.journal");
    RoutingTable table = smallTable(0x5ee);
    std::vector<Update> updates = smallTrace(table, 60, 0x5ef);
    ChiselConfig config;
    uint64_t fp = configFingerprint(config);

    // First leader life: durably log history that is never shipped.
    {
        persist::UpdateJournal first(journal.path, fp);
        for (size_t i = 0; i < 40; ++i)
            ASSERT_NE(first.append(updates[i]), 0u);
    }

    // The restarted leader recovers seq 40, but none of that history
    // is in its ship tail — a follower resuming from 0 must take the
    // snapshot path, not silently skip the pre-restart records.
    ReplicationOptions ropts;
    ropts.heartbeatMs = 10;
    ropts.backoffMinMs = 5;
    persist::UpdateJournal j(journal.path, fp);
    ReplicationLog rlog(j, ropts);

    ChiselEngine sidecar(advance(table, updates, 40), config);
    auto provider = [&](uint64_t &covered) {
        covered = 40;
        return persist::encodeSnapshotImage(sidecar, 40);
    };

    ConcurrentOptions copts;
    copts.controlThread = false;
    ConcurrentChisel standby(table, config, copts);
    replica::TcpListener listener;
    ASSERT_TRUE(listener.listen(0));
    Follower follower(standby, fp);
    follower.start(listener);
    uint16_t port = listener.port();
    rlog.start([port] { return replica::tcpConnect(port, 500); },
               provider);

    uint64_t last = 0;
    for (size_t i = 40; i < updates.size(); ++i) {
        last = j.append(updates[i]);
        ASSERT_NE(last, 0u);
    }
    EXPECT_TRUE(waitUntil(
        [&] { return follower.lastAppliedSeq() == last; }));
    rlog.stop();
    follower.stop();

    EXPECT_GE(follower.stats().snapshotsInstalled, 1u);
    EXPECT_TRUE(matchesTruth(
        standby, advance(table, updates, updates.size())));
}

TEST(Replica, SnapshotUnavailableBacksOffInsteadOfTightLooping)
{
    TempFile journal("test_replica_noprov.journal");
    RoutingTable table = smallTable(0x0ff);
    std::vector<Update> updates = smallTrace(table, 30, 0x100);
    ChiselConfig config;
    uint64_t fp = configFingerprint(config);

    // Evict the whole backlog so catch-up needs a snapshot, then
    // start shipping with no provider: each handshake must count as
    // a backoff-eligible failure, not a backoff-resetting success.
    ReplicationOptions ropts;
    ropts.tailCapacity = 4;
    ropts.heartbeatMs = 10;
    ropts.backoffMinMs = 5;
    persist::UpdateJournal j(journal.path, fp);
    ReplicationLog rlog(j, ropts);
    for (const Update &u : updates)
        ASSERT_NE(j.append(u), 0u);

    ConcurrentOptions copts;
    copts.controlThread = false;
    ConcurrentChisel standby(table, config, copts);
    replica::TcpListener listener;
    ASSERT_TRUE(listener.listen(0));
    Follower follower(standby, fp);
    follower.start(listener);
    uint16_t port = listener.port();
    rlog.start([port] { return replica::tcpConnect(port, 500); },
               nullptr);

    EXPECT_TRUE(waitUntil([&] {
        replica::ReplicationStats s = rlog.stats();
        return s.reconnects >= 1 && s.connectFailures >= 2;
    }));
    rlog.stop();
    follower.stop();

    replica::ReplicationStats ls = rlog.stats();
    EXPECT_EQ(ls.snapshotsShipped, 0u);
    EXPECT_EQ(ls.recordsShipped, 0u);
    EXPECT_EQ(follower.lastAppliedSeq(), 0u);
}

TEST(Replica, ResumesFromSequenceWithoutDuplicates)
{
    TempFile journal("test_replica_resume.journal");
    RoutingTable table = smallTable(0x4e5);
    std::vector<Update> updates = smallTrace(table, 120, 0x4e6);
    ChiselConfig config;
    uint64_t fp = configFingerprint(config);

    ConcurrentOptions copts;
    copts.controlThread = false;
    ConcurrentChisel standby(table, config, copts);
    Follower follower(standby, fp);

    EndQueue ends;
    auto pair1 = replica::makePipePair();
    ends.push(pair1.first);
    std::thread serve1(
        [&follower, end = pair1.second] {
            follower.handleConnection(*end);
        });

    ReplicationOptions ropts;
    ropts.heartbeatMs = 10;
    ropts.backoffMinMs = 5;
    persist::UpdateJournal j(journal.path, fp);
    ReplicationLog rlog(j, ropts);
    rlog.start([&ends] { return ends.pop(); }, nullptr);

    uint64_t last = 0;
    for (size_t i = 0; i < 60; ++i) {
        last = j.append(updates[i]);
        ASSERT_NE(last, 0u);
    }
    ASSERT_TRUE(waitUntil(
        [&] { return follower.lastAppliedSeq() == last; }));

    // Drop the connection mid-stream; the shipper backs off, gets the
    // second pipe, and must resume at exactly seq 61.
    pair1.second->shutdown();
    serve1.join();

    auto pair2 = replica::makePipePair();
    ends.push(pair2.first);
    std::thread serve2(
        [&follower, end = pair2.second] {
            follower.handleConnection(*end);
        });

    for (size_t i = 60; i < updates.size(); ++i) {
        last = j.append(updates[i]);
        ASSERT_NE(last, 0u);
    }
    EXPECT_TRUE(waitUntil(
        [&] { return follower.lastAppliedSeq() == last; }));

    rlog.stop();
    pair2.second->shutdown();
    serve2.join();

    replica::FollowerStats fs = follower.stats();
    EXPECT_EQ(fs.recordsApplied, updates.size());
    EXPECT_EQ(fs.duplicatesSkipped, 0u);
    EXPECT_EQ(fs.snapshotsInstalled, 0u);
    EXPECT_EQ(fs.connectionsServed, 2u);
    EXPECT_TRUE(matchesTruth(
        standby, advance(table, updates, updates.size())));
    EXPECT_GE(rlog.stats().reconnects, 2u);
}

TEST(Replica, ResumeShipsAStampedRecordAtTheResumePoint)
{
    // A ResizeMark written while the link is down carries the seq of
    // the update before it, which is exactly the follower's resume
    // point: the reconnect must ship it, not skip it with the updates
    // the follower already holds.
    TempFile journal("test_replica_resume_mark.journal");
    RoutingTable table = smallTable(0x3a1);
    std::vector<Update> updates = smallTrace(table, 80, 0x3a2);
    ChiselConfig config;
    config.minCellCapacity = 64;
    uint64_t fp = elasticFingerprint(config);
    ChiselConfig grown = config;
    grown.spillCapacity *= 4;
    grown.minCellCapacity *= 2;

    ConcurrentOptions copts;
    copts.controlThread = false;
    ConcurrentChisel standby(table, config, copts);
    Follower follower(standby, fp);

    EndQueue ends;
    auto pair1 = replica::makePipePair();
    ends.push(pair1.first);
    std::thread serve1([&follower, end = pair1.second] {
        follower.handleConnection(*end);
    });

    ReplicationOptions ropts;
    ropts.heartbeatMs = 10;
    ropts.backoffMinMs = 5;
    persist::UpdateJournal j(journal.path, fp);
    ReplicationLog rlog(j, ropts);
    rlog.start([&ends] { return ends.pop(); }, nullptr);

    for (size_t i = 0; i < 60; ++i)
        ASSERT_NE(j.append(updates[i]), 0u);
    ASSERT_TRUE(waitUntil(
        [&] { return follower.lastAppliedSeq() == 60u; }));
    pair1.second->shutdown();
    serve1.join();

    j.appendResizeMark(grown);  // Stamped 60, the resume point.
    uint64_t last = 0;
    for (size_t i = 60; i < updates.size(); ++i) {
        last = j.append(updates[i]);
        ASSERT_NE(last, 0u);
    }

    auto pair2 = replica::makePipePair();
    ends.push(pair2.first);
    std::thread serve2([&follower, end = pair2.second] {
        follower.handleConnection(*end);
    });
    EXPECT_TRUE(waitUntil(
        [&] { return follower.lastAppliedSeq() == last; }));
    rlog.stop();
    pair2.second->shutdown();
    serve2.join();

    EXPECT_EQ(standby.resizes(), 1u);
    EXPECT_TRUE(standby.config() == grown);
    EXPECT_TRUE(matchesTruth(
        standby, advance(table, updates, updates.size())));
    EXPECT_EQ(follower.stats().connectionsServed, 2u);
}

TEST(Replica, EvictedStampedRecordForcesSnapshotCatchup)
{
    // The only record evicted past the follower's resume point is a
    // ResizeMark stamped with that very seq: resuming from the tail
    // would skip it, so the follower must take a snapshot instead.
    TempFile journal("test_replica_evicted_mark.journal");
    RoutingTable table = smallTable(0x3b1);
    std::vector<Update> updates = smallTrace(table, 64, 0x3b2);
    ChiselConfig config;
    config.minCellCapacity = 64;
    uint64_t fp = elasticFingerprint(config);
    ChiselConfig grown = config;
    grown.spillCapacity *= 4;
    grown.minCellCapacity *= 2;

    ConcurrentOptions copts;
    copts.controlThread = false;
    ConcurrentChisel standby(table, config, copts);
    replica::TcpListener listener;
    ASSERT_TRUE(listener.listen(0));
    Follower follower(standby, fp);
    follower.start(listener);

    auto j = std::make_unique<persist::UpdateJournal>(journal.path, fp);
    ReplicationOptions ropts;
    ropts.tailCapacity = 4;
    ropts.heartbeatMs = 10;
    ropts.backoffMinMs = 5;
    ReplicationLog rlog(*j, ropts);
    ConcurrentChisel leader(std::make_unique<ChiselEngine>(table, config),
                            copts, std::move(j));
    uint16_t port = listener.port();
    rlog.start([port] { return replica::tcpConnect(port, 500); },
               [&](uint64_t &covered) {
                   return leader.snapshotImage(&covered);
               });

    for (size_t i = 0; i < 60; ++i)
        leader.apply(updates[i]);
    ASSERT_TRUE(waitUntil(
        [&] { return follower.lastAppliedSeq() == 60u; }));
    follower.stop();

    // The mark, then exactly a tail's worth of updates: the mark is
    // the last record evicted.
    ASSERT_TRUE(leader.resizeTo(grown));
    for (size_t i = 60; i < updates.size(); ++i)
        leader.apply(updates[i]);
    uint64_t installed = follower.stats().snapshotsInstalled;
    follower.start(listener);
    EXPECT_TRUE(waitUntil(
        [&] { return follower.lastAppliedSeq() == updates.size(); }));
    rlog.stop();
    follower.stop();

    EXPECT_EQ(follower.stats().snapshotsInstalled, installed + 1);
    EXPECT_TRUE(standby.config() == grown);
    EXPECT_TRUE(matchesTruth(
        standby, advance(table, updates, updates.size())));
}

// ---- Torn snapshot transfers -----------------------------------------

/** Drive one hand-rolled leader handshake; @return the Hello. */
Frame
shakeHands(ByteStream &leader_end, FrameReader &reader,
           uint64_t leader_epoch, uint64_t fp, uint64_t last_seq)
{
    Frame hello;
    EXPECT_TRUE(replica::readFrame(leader_end, reader, hello, 2000));
    EXPECT_EQ(hello.type, FrameType::Hello);
    EXPECT_TRUE(replica::sendFrame(
        leader_end, replica::makeWelcome(leader_epoch, fp, last_seq)));
    return hello;
}

TEST(Replica, TornSnapshotDiscardedThenRecovered)
{
    RoutingTable table = smallTable(0x70a);
    std::vector<Update> updates = smallTrace(table, 40, 0x70b);
    ChiselConfig config;
    uint64_t fp = configFingerprint(config);

    ConcurrentOptions copts;
    copts.controlThread = false;
    ConcurrentChisel standby(table, config, copts);
    Follower follower(standby, fp);

    RoutingTable full = advance(table, updates, updates.size());
    ChiselEngine sidecar(full, config);
    std::vector<uint8_t> image =
        persist::encodeSnapshotImage(sidecar, 40);

    // Connection 1: die mid-chunk.  The partial transfer must be
    // discarded — nothing installed, sequence position untouched.
    {
        auto [leader_end, follower_end] = replica::makePipePair();
        std::thread serve([&follower, end = follower_end] {
            follower.handleConnection(*end);
        });
        FrameReader reader;
        shakeHands(*leader_end, reader, 1, fp, 40);
        ASSERT_TRUE(replica::sendFrame(
            *leader_end,
            replica::makeSnapshotBegin(1, 40, image.size())));
        ASSERT_TRUE(replica::sendFrame(
            *leader_end,
            replica::makeSnapshotChunk(1, 0, image.data(),
                                       image.size() / 2)));
        leader_end->shutdown();
        serve.join();
    }
    replica::FollowerStats fs = follower.stats();
    EXPECT_EQ(fs.snapshotsInstalled, 0u);
    EXPECT_GE(fs.snapshotsDiscarded, 1u);
    EXPECT_EQ(follower.lastAppliedSeq(), 0u);

    // Connection 2: the retry completes and installs.
    {
        auto [leader_end, follower_end] = replica::makePipePair();
        std::thread serve([&follower, end = follower_end] {
            follower.handleConnection(*end);
        });
        FrameReader reader;
        shakeHands(*leader_end, reader, 1, fp, 40);
        ASSERT_TRUE(replica::sendFrame(
            *leader_end,
            replica::makeSnapshotBegin(1, 40, image.size())));
        size_t half = image.size() / 2;
        ASSERT_TRUE(replica::sendFrame(
            *leader_end,
            replica::makeSnapshotChunk(1, 0, image.data(), half)));
        ASSERT_TRUE(replica::sendFrame(
            *leader_end,
            replica::makeSnapshotChunk(1, half, image.data() + half,
                                       image.size() - half)));
        ASSERT_TRUE(replica::sendFrame(
            *leader_end,
            replica::makeSnapshotEnd(
                1, persist::crc32(image.data(), image.size()))));
        Frame ack;
        ASSERT_TRUE(replica::readFrame(*leader_end, reader, ack, 2000));
        EXPECT_EQ(ack.type, FrameType::Ack);
        EXPECT_EQ(ack.appliedSeq, 40u);
        leader_end->shutdown();
        serve.join();
    }
    EXPECT_EQ(follower.stats().snapshotsInstalled, 1u);
    EXPECT_EQ(follower.lastAppliedSeq(), 40u);
    EXPECT_TRUE(matchesTruth(standby, full));
}

TEST(Replica, SnapshotInstallFailureDropsConnectionWithoutAck)
{
    RoutingTable table = smallTable(0x5b0);
    ChiselConfig config;
    uint64_t fp = configFingerprint(config);

    ConcurrentOptions copts;
    copts.controlThread = false;
    ConcurrentChisel standby(table, config, copts);
    Follower follower(standby, fp);

    // A CRC-valid image of another geometry (stride): the transfer
    // completes, the engine refuses the image, and the follower must
    // drop the connection instead of acking records onto an engine
    // missing the snapshot base.
    ChiselConfig other = config;
    other.stride = config.stride - 1;
    ChiselEngine sidecar(table, other);
    std::vector<uint8_t> image =
        persist::encodeSnapshotImage(sidecar, 25);

    auto [leader_end, follower_end] = replica::makePipePair();
    std::thread serve([&follower, end = follower_end] {
        follower.handleConnection(*end);
    });
    FrameReader reader;
    shakeHands(*leader_end, reader, 1, fp, 25);
    ASSERT_TRUE(replica::sendFrame(
        *leader_end, replica::makeSnapshotBegin(1, 25, image.size())));
    ASSERT_TRUE(replica::sendFrame(
        *leader_end,
        replica::makeSnapshotChunk(1, 0, image.data(), image.size())));
    ASSERT_TRUE(replica::sendFrame(
        *leader_end,
        replica::makeSnapshotEnd(
            1, persist::crc32(image.data(), image.size()))));
    // The follower drops the connection on its own — no Ack arrives.
    serve.join();
    Frame ack;
    EXPECT_FALSE(replica::readFrame(*leader_end, reader, ack, 100));
    leader_end->shutdown();

    replica::FollowerStats fs = follower.stats();
    EXPECT_EQ(fs.snapshotsInstalled, 0u);
    EXPECT_GE(fs.snapshotsDiscarded, 1u);
    EXPECT_EQ(follower.lastAppliedSeq(), 0u);
}

TEST(Replica, CorruptSnapshotCrcDiscarded)
{
    RoutingTable table = smallTable(0xbadc);
    ChiselConfig config;
    uint64_t fp = configFingerprint(config);

    ConcurrentOptions copts;
    copts.controlThread = false;
    ConcurrentChisel standby(table, config, copts);
    Follower follower(standby, fp);

    ChiselEngine sidecar(table, config);
    std::vector<uint8_t> image =
        persist::encodeSnapshotImage(sidecar, 10);

    auto [leader_end, follower_end] = replica::makePipePair();
    std::thread serve([&follower, end = follower_end] {
        follower.handleConnection(*end);
    });
    FrameReader reader;
    shakeHands(*leader_end, reader, 1, fp, 10);
    ASSERT_TRUE(replica::sendFrame(
        *leader_end, replica::makeSnapshotBegin(1, 10, image.size())));
    ASSERT_TRUE(replica::sendFrame(
        *leader_end,
        replica::makeSnapshotChunk(1, 0, image.data(), image.size())));
    // Whole-image CRC off by one: the follower must refuse and drop.
    ASSERT_TRUE(replica::sendFrame(
        *leader_end,
        replica::makeSnapshotEnd(
            1, persist::crc32(image.data(), image.size()) ^ 1)));
    serve.join();
    leader_end->shutdown();

    EXPECT_EQ(follower.stats().snapshotsInstalled, 0u);
    EXPECT_GE(follower.stats().snapshotsDiscarded, 1u);
    EXPECT_EQ(follower.lastAppliedSeq(), 0u);
}

// ---- Fencing ---------------------------------------------------------

TEST(Replica, PromotedFollowerFencesStaleEpoch)
{
    RoutingTable table = smallTable(0xfe0);
    std::vector<Update> updates = smallTrace(table, 4, 0xfe1);
    ChiselConfig config;
    uint64_t fp = configFingerprint(config);

    ConcurrentOptions copts;
    copts.controlThread = false;
    ConcurrentChisel standby(table, config, copts);
    Follower follower(standby, fp);

    replica::PromotionReport promo = follower.promote();
    EXPECT_EQ(promo.epoch, 1u);
    EXPECT_TRUE(follower.promoted());
    EXPECT_TRUE(follower.caughtUp());  // A leader serves by definition.

    // The old leader's epoch (1) is now stale: Welcome is answered
    // with Fenced and the connection is dropped.
    {
        auto [leader_end, follower_end] = replica::makePipePair();
        std::thread serve([&follower, end = follower_end] {
            follower.handleConnection(*end);
        });
        FrameReader reader;
        Frame hello;
        ASSERT_TRUE(
            replica::readFrame(*leader_end, reader, hello, 2000));
        EXPECT_EQ(hello.maxEpochSeen, 1u);
        ASSERT_TRUE(replica::sendFrame(
            *leader_end, replica::makeWelcome(1, fp, 50)));
        Frame fencedReply;
        ASSERT_TRUE(replica::readFrame(*leader_end, reader,
                                       fencedReply, 2000));
        EXPECT_EQ(fencedReply.type, FrameType::Fenced);
        EXPECT_EQ(fencedReply.currentEpoch, 2u);
        serve.join();
        leader_end->shutdown();
    }
    EXPECT_EQ(follower.stats().fenceRejects, 1u);
    EXPECT_EQ(follower.lastAppliedSeq(), 0u);

    // A legitimate successor (epoch 2 = promoted + 1) is accepted and
    // its records apply.
    {
        auto [leader_end, follower_end] = replica::makePipePair();
        std::thread serve([&follower, end = follower_end] {
            follower.handleConnection(*end);
        });
        FrameReader reader;
        shakeHands(*leader_end, reader, 2, fp, 1);
        persist::JournalRecord rec;
        rec.type = persist::JournalRecord::Type::Update;
        rec.seq = 1;
        rec.update = updates[0];
        ASSERT_TRUE(replica::sendFrame(
            *leader_end,
            replica::makeRecord(2,
                                persist::encodeJournalRecord(rec))));
        EXPECT_TRUE(waitUntil(
            [&] { return follower.lastAppliedSeq() == 1u; }));
        leader_end->shutdown();
        serve.join();
    }
    EXPECT_EQ(follower.stats().fenceRejects, 1u);
}

TEST(Replica, StaleLeaderLatchesFenceEndToEnd)
{
    TempFile journal("test_replica_stale.journal");
    RoutingTable table = smallTable(0x51a);
    ChiselConfig config;
    uint64_t fp = configFingerprint(config);

    ConcurrentOptions copts;
    copts.controlThread = false;
    ConcurrentChisel standby(table, config, copts);
    replica::TcpListener listener;
    ASSERT_TRUE(listener.listen(0));
    Follower follower(standby, fp);
    follower.promote();
    follower.start(listener);

    ReplicationOptions ropts;
    ropts.epoch = 1;  // The dead leader's epoch: stale by now.
    ropts.backoffMinMs = 5;
    persist::UpdateJournal j(journal.path, fp);
    ReplicationLog stale(j, ropts);
    uint16_t port = listener.port();
    stale.start([port] { return replica::tcpConnect(port, 500); },
                nullptr);

    EXPECT_TRUE(waitUntil([&] { return stale.fenced(); }));
    stale.stop();
    follower.stop();
    EXPECT_TRUE(stale.stats().fenced);
}

// ---- Heartbeats ------------------------------------------------------

TEST(Replica, HeartbeatSilenceDetection)
{
    RoutingTable table = smallTable(0x4b0);
    ChiselConfig config;
    uint64_t fp = configFingerprint(config);

    ConcurrentOptions copts;
    copts.controlThread = false;
    ConcurrentChisel standby(table, config, copts);
    FollowerOptions fo;
    fo.heartbeatTimeoutMs = 60;
    Follower follower(standby, fp, fo);

    EXPECT_FALSE(follower.leaderSilent());  // Never connected.

    auto [leader_end, follower_end] = replica::makePipePair();
    std::thread serve([&follower, end = follower_end] {
        follower.handleConnection(*end);
    });
    FrameReader reader;
    shakeHands(*leader_end, reader, 1, fp, 0);
    ASSERT_TRUE(replica::sendFrame(*leader_end,
                                   replica::makeHeartbeat(1, 0)));
    EXPECT_TRUE(waitUntil([&] { return follower.connected(); }));
    EXPECT_FALSE(follower.leaderSilent());

    // Silence (the leader is wedged, not disconnected): after the
    // timeout the follower reports it, which is the promotion trigger.
    EXPECT_TRUE(waitUntil([&] { return follower.leaderSilent(); },
                          2000));

    leader_end->shutdown();
    serve.join();
}

// ---- Promotion replay ------------------------------------------------

TEST(Replica, PromotionReplaysJournalTail)
{
    TempFile journal("test_replica_promote.journal");
    RoutingTable table = smallTable(0x9f0);
    std::vector<Update> updates = smallTrace(table, 20, 0x9f1);
    ChiselConfig config;
    uint64_t fp = configFingerprint(config);

    {
        persist::UpdateJournal j(journal.path, fp);
        for (const Update &u : updates)
            ASSERT_NE(j.append(u), 0u);
    }

    ConcurrentOptions copts;
    copts.controlThread = false;
    ConcurrentChisel standby(table, config, copts);
    Follower follower(standby, fp);

    replica::PromotionReport promo = follower.promote(journal.path);
    EXPECT_EQ(promo.epoch, 1u);
    EXPECT_EQ(promo.replayedRecords, updates.size());
    EXPECT_EQ(promo.lastAppliedSeq, uint64_t(updates.size()));
    EXPECT_EQ(follower.lastAppliedSeq(), uint64_t(updates.size()));
    EXPECT_TRUE(matchesTruth(
        standby, advance(table, updates, updates.size())));
    EXPECT_GE(standby.monitor().actionsTaken(
                  health::RecoveryAction::FailedOver),
              1u);
}

/**
 * A journaled leader's program: churn, short-TTL announces that the
 * GC retires as Expire updates, a live resize to @p grown, more churn,
 * a dirty purge, and announces past it.  Manual TTL clock, no
 * maintenance thread: two runs write the same journal.
 */
void
runLeaderProgram(ConcurrentChisel &leader,
                 const std::vector<Update> &updates,
                 const ChiselConfig &grown)
{
    size_t half = updates.size() / 2;
    for (size_t i = 0; i < half; ++i)
        leader.apply(updates[i]);
    for (uint32_t i = 0; i < 5; ++i)
        leader.announce(
            Prefix(Key128::fromIpv4(0xDE000000 + (i << 8)), 24),
            0xBB00 + i, /*ttl_ms=*/100);
    leader.advanceTtlClock(1000);
    EXPECT_EQ(leader.gcTick(), 5u);
    EXPECT_TRUE(leader.resizeTo(grown));
    for (size_t i = half; i < updates.size(); ++i)
        leader.apply(updates[i]);
    EXPECT_GT(leader.purgeDirtyNow(), 0u);
    for (uint32_t i = 0; i < 10; ++i)
        leader.announce(
            Prefix(Key128::fromIpv4(0xDF000000 + (i << 8)), 24),
            0xAA00 + i);
}

TEST(Replica, FollowerTracksExpiryAndResizeMark)
{
    // The full lifecycle over the wire, from a real journaled leader:
    // GC Expires, a live resize (ResizeMark) and a dirty purge
    // (Housekeeping) reach the follower because the engine journals
    // them and the shipper ships what the journal writes.  The
    // standby must land on the leader's routes, its grown config and
    // its dirty set — otherwise the next failover promotes a leader
    // that re-inherits the capacity pressure the old one grew out of.
    TempFile shipped("test_replica_leader_shipped.journal");
    TempFile alone("test_replica_leader_alone.journal");
    RoutingTable table = smallTable(0x77a);
    std::vector<Update> updates = smallTrace(table, 160, 0x77b);
    ChiselConfig config;
    config.minCellCapacity = 64;
    // The elastic fingerprint is the session identity: it survives
    // the resize, unlike configFingerprint.
    uint64_t fp = elasticFingerprint(config);
    ChiselConfig grown = config;
    grown.spillCapacity *= 4;
    grown.minCellCapacity *= 2;

    ConcurrentOptions copts;
    copts.controlThread = false;
    copts.ttlWallClock = false;
    ConcurrentChisel standby(table, config, copts);
    replica::TcpListener listener;
    ASSERT_TRUE(listener.listen(0));
    Follower follower(standby, fp);
    follower.start(listener);

    {
        // The shipper attaches before the leader takes the journal.
        auto journal =
            std::make_unique<persist::UpdateJournal>(shipped.path, fp);
        ReplicationOptions ropts;
        ropts.heartbeatMs = 10;
        ReplicationLog rlog(*journal, ropts);
        ConcurrentChisel leader(
            std::make_unique<ChiselEngine>(table, config), copts,
            std::move(journal));
        uint16_t port = listener.port();
        rlog.start([port] { return replica::tcpConnect(port, 500); },
                   nullptr);

        runLeaderProgram(leader, updates, grown);
        uint64_t last = leader.journalSeq();
        EXPECT_TRUE(waitUntil(
            [&] { return follower.lastAppliedSeq() == last; }));
        rlog.stop();
        follower.stop();

        EXPECT_EQ(rlog.stats().lastSeq, last);
        EXPECT_EQ(leader.expired(), 5u);
        EXPECT_EQ(standby.resizes(), 1u);
        EXPECT_TRUE(standby.config() == leader.config());
        EXPECT_TRUE(standby.config() == grown);
        EXPECT_EQ(standby.dirtyCount(), leader.dirtyCount());
        EXPECT_EQ(standby.routeCount(), leader.routeCount());
        RoutingTable truth = advance(table, updates, updates.size());
        for (uint32_t i = 0; i < 5; ++i)
            EXPECT_FALSE(standby
                             .find(Prefix(Key128::fromIpv4(
                                              0xDE000000 + (i << 8)),
                                          24))
                             .has_value());
        for (uint32_t i = 0; i < 10; ++i)
            truth.add(Prefix(Key128::fromIpv4(0xDF000000 + (i << 8)), 24),
                      0xAA00 + i);
        EXPECT_TRUE(matchesTruth(standby, truth));
        EXPECT_EQ(follower.stats().duplicatesSkipped, 0u);
    }

    // Shipping writes nothing: the same program with no shipper
    // attached leaves the same journal, byte for byte.
    {
        ConcurrentChisel leader(
            std::make_unique<ChiselEngine>(table, config), copts,
            std::make_unique<persist::UpdateJournal>(alone.path, fp));
        runLeaderProgram(leader, updates, grown);
    }
    std::vector<uint8_t> with = differential::readBytes(shipped.path);
    EXPECT_FALSE(with.empty());
    EXPECT_EQ(with, differential::readBytes(alone.path));
}

TEST(Replica, PromotionReplaysResizeMark)
{
    // A standby promoted from a cold journal (no live session) must
    // also honor a ResizeMark during replay — the journal tail is the
    // same history the wire would have shipped.
    TempFile journal("test_replica_promote_resize.journal");
    RoutingTable table = smallTable(0x88a);
    std::vector<Update> updates = smallTrace(table, 20, 0x88b);
    ChiselConfig config;
    config.minCellCapacity = 64;
    uint64_t fp = elasticFingerprint(config);

    ChiselConfig grown = config;
    grown.spillCapacity *= 2;
    {
        persist::UpdateJournal j(journal.path, fp);
        for (const Update &u : updates)
            ASSERT_NE(j.append(u), 0u);
        j.appendResizeMark(grown);
    }

    ConcurrentOptions copts;
    copts.controlThread = false;
    ConcurrentChisel standby(table, config, copts);
    Follower follower(standby, fp);

    replica::PromotionReport promo = follower.promote(journal.path);
    EXPECT_EQ(promo.lastAppliedSeq, uint64_t(updates.size()));
    EXPECT_TRUE(matchesTruth(
        standby, advance(table, updates, updates.size())));
    EXPECT_EQ(standby.resizes(), 1u);
    EXPECT_TRUE(standby.config() == grown);
}

#if CHISEL_FAULT_INJECTION_ENABLED
TEST(Replica, JournalIoErrorStopsShippingAndAcking)
{
    // A leader whose journal refuses an append rejects the update
    // inside the engine, and the refused record never reaches the
    // shipper: the follower stays at the durable head.
    TempFile journal("test_replica_ioerr.journal");
    RoutingTable table = smallTable(0x10e);
    std::vector<Update> updates = smallTrace(table, 4, 0x10f);
    ChiselConfig config;
    uint64_t fp = configFingerprint(config);

    ConcurrentOptions copts;
    copts.controlThread = false;
    ConcurrentChisel standby(table, config, copts);
    replica::TcpListener listener;
    ASSERT_TRUE(listener.listen(0));
    Follower follower(standby, fp);
    follower.start(listener);

    auto j = std::make_unique<persist::UpdateJournal>(journal.path, fp);
    ReplicationOptions ropts;
    ropts.heartbeatMs = 10;
    ReplicationLog rlog(*j, ropts);
    ConcurrentChisel leader(std::make_unique<ChiselEngine>(table, config),
                            copts, std::move(j));
    uint16_t port = listener.port();
    rlog.start([port] { return replica::tcpConnect(port, 500); },
               nullptr);

    uint64_t seq = 0;
    leader.apply(updates[0], &seq);
    ASSERT_EQ(seq, 1u);
    ASSERT_TRUE(waitUntil([&] { return follower.lastAppliedSeq() == 1; }));

    fault::FaultInjector inj(7);
    inj.arm(fault::FaultPoint::JournalIoError, 1.0, 1);
    {
        fault::ScopedInjector scope(&inj);
        EXPECT_EQ(leader.apply(updates[1], &seq).status,
                  UpdateStatus::Rejected);
        EXPECT_EQ(seq, 0u);
    }
    // Latched: even with the fault disarmed, a journal that lost a
    // write refuses every later append — the leader stops acking.
    EXPECT_EQ(leader.apply(updates[2], &seq).status,
              UpdateStatus::Rejected);
    EXPECT_EQ(seq, 0u);
    EXPECT_EQ(leader.journalSeq(), 1u);
    EXPECT_EQ(leader.updatesApplied(), 1u);

    rlog.stop();
    follower.stop();
    EXPECT_EQ(rlog.stats().lastSeq, 1u);
    EXPECT_EQ(rlog.stats().recordsShipped, 1u);
    EXPECT_EQ(follower.lastAppliedSeq(), 1u);
}
#endif

} // anonymous namespace
} // namespace chisel
