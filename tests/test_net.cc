/**
 * @file
 * Tests for the RPC front end: wire codec KATs (roundtrip, chunked
 * feed, CRC/length/trailing-byte poisoning), server robustness rules
 * (idle-timeout and write-stall disconnects, bounded output queue
 * with backpressure, shed-before-queue under induced health states,
 * ack-implies-durable under a torn or refusing journal), client
 * retry/backoff/reconnect behaviour, and the graceful-drain reply
 * flush.  The service fronts a one-shard ShardedChisel plane, except
 * where a test needs a sibling shard.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/engine.hh"
#include "fault/fault.hh"
#include "health/monitor.hh"
#include "net/client.hh"
#include "net/rpc.hh"
#include "net/server.hh"
#include "net/socket.hh"
#include "persist/codec.hh"
#include "persist/snapshot.hh"
#include "route/table.hh"
#include "route/updates.hh"
#include "shard/sharded.hh"

namespace chisel {
namespace {

// Tests that arm fault points skip themselves when the framework is
// compiled out (-DCHISEL_ENABLE_FAULT_INJECTION=OFF); the codec,
// service, and client behave identically either way.
#if CHISEL_FAULT_INJECTION_ENABLED
#define REQUIRE_INJECTION() (void)0
#else
#define REQUIRE_INJECTION() \
    GTEST_SKIP() << "fault injection compiled out"
#endif

using fault::FaultInjector;
using fault::FaultPoint;
using net::CallStatus;
using net::ChiselService;
using net::ClientOptions;
using net::MessageReader;
using net::MsgType;
using net::RpcMessage;
using net::ServiceClient;
using net::ServiceOptions;
using net::StatusCode;
using shard::ShardedChisel;
using shard::ShardedOptions;

// ---- Helpers ---------------------------------------------------------

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

struct TempDir
{
    explicit TempDir(std::string name)
        : path(::testing::TempDir() + "chisel_net_" +
               std::to_string(::getpid()) + "_" + std::move(name))
    {
        std::filesystem::remove_all(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::string path;
};

Prefix
v4Prefix(uint32_t addr, unsigned len)
{
    return Prefix(Key128::fromIpv4(addr), len);
}

Update
announceOf(uint32_t addr, unsigned len, NextHop hop)
{
    Update u;
    u.kind = UpdateKind::Announce;
    u.prefix = v4Prefix(addr, len);
    u.nextHop = hop;
    return u;
}

/**
 * A plane of @p shards shards (one by default) with two known routes
 * and no control thread; journaled under @p persist_dir when one is
 * given.
 */
struct Harness
{
    explicit Harness(const std::string &persist_dir = {},
                     ServiceOptions opts = {}, size_t shards = 1)
    {
        table.add(v4Prefix(0x0A000000u, 8), 100);    // 10.0.0.0/8
        table.add(v4Prefix(0x0A010000u, 16), 200);   // 10.1.0.0/16
        ShardedOptions popts;
        popts.shards = shards;
        popts.engine.controlThread = false;
        popts.persistDir = persist_dir;
        plane = std::make_unique<ShardedChisel>(table, popts);
        service = std::make_unique<ChiselService>(*plane, opts);
    }

    ClientOptions clientOptions(int attempts = 4,
                                int timeout_ms = 2000) const
    {
        ClientOptions c;
        c.port = service->port();
        c.maxAttempts = attempts;
        c.requestTimeoutMs = timeout_ms;
        c.backoffBaseMs = 2;
        c.backoffMaxMs = 20;
        return c;
    }

    RoutingTable table;
    std::unique_ptr<ShardedChisel> plane;
    std::unique_ptr<ChiselService> service;
};

std::vector<Key128>
someKeys(size_t n)
{
    std::vector<Key128> keys;
    keys.reserve(n);
    for (size_t i = 0; i < n; ++i)
        keys.push_back(Key128::fromIpv4(0x0A000000u +
                                        static_cast<uint32_t>(i)));
    return keys;
}

// ---- Codec KATs ------------------------------------------------------

void
roundtrip(const RpcMessage &in, RpcMessage &out, size_t chunk = 0)
{
    std::vector<uint8_t> wire = net::encodeMessage(in);
    MessageReader reader;
    if (chunk == 0)
        reader.feed(wire.data(), wire.size());
    else
        for (size_t i = 0; i < wire.size(); i += chunk)
            reader.feed(wire.data() + i,
                        std::min(chunk, wire.size() - i));
    ASSERT_TRUE(reader.next(out));
    ASSERT_FALSE(reader.bad());
    EXPECT_EQ(out.type, in.type);
    EXPECT_EQ(out.id, in.id);
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(NetWire, RoundtripLookupRequest)
{
    RpcMessage out;
    roundtrip(net::makeLookupRequest(7, someKeys(5)), out);
    ASSERT_EQ(out.keys.size(), 5u);
    EXPECT_EQ(out.keys[3], Key128::fromIpv4(0x0A000003u));
}

TEST(NetWire, RoundtripLookupReplyByteAtATime)
{
    std::vector<net::WireLookup> results(3);
    results[1].found = true;
    results[1].nextHop = 42;
    results[1].matchedLength = 24;
    RpcMessage out;
    roundtrip(net::makeLookupReply(9, 31337, std::move(results)), out,
              1);
    EXPECT_EQ(out.generation, 31337u);
    ASSERT_EQ(out.lookups.size(), 3u);
    EXPECT_TRUE(out.lookups[1].found);
    EXPECT_EQ(out.lookups[1].nextHop, 42u);
    EXPECT_EQ(out.lookups[1].matchedLength, 24u);
    EXPECT_FALSE(out.lookups[0].found);
}

TEST(NetWire, RoundtripUpdateRequestAndReply)
{
    std::vector<Update> updates;
    updates.push_back(announceOf(0xC0A80000u, 16, 9));
    Update w;
    w.kind = UpdateKind::Withdraw;
    w.prefix = v4Prefix(0x0A000000u, 8);
    updates.push_back(w);

    RpcMessage out;
    roundtrip(net::makeUpdateRequest(11, updates), out, 3);
    ASSERT_EQ(out.updates.size(), 2u);
    EXPECT_EQ(out.updates[0], updates[0]);
    EXPECT_EQ(out.updates[1].kind, UpdateKind::Withdraw);

    std::vector<net::WireAck> acks(2);
    acks[0].acked = true;
    acks[0].seq = 5;
    roundtrip(net::makeUpdateReply(11, 5, std::move(acks)), out);
    EXPECT_EQ(out.durableSeq, 5u);
    ASSERT_EQ(out.acks.size(), 2u);
    EXPECT_TRUE(out.acks[0].acked);
    EXPECT_EQ(out.acks[0].seq, 5u);
    EXPECT_FALSE(out.acks[1].acked);
}

TEST(NetWire, RoundtripPingPongStatus)
{
    RpcMessage out;
    roundtrip(net::makePing(1), out);
    roundtrip(net::makePong(1, 2, true, 77, 1234), out);
    EXPECT_EQ(out.health, 2u);
    EXPECT_TRUE(out.draining);
    EXPECT_EQ(out.generation, 77u);
    EXPECT_EQ(out.routes, 1234u);
    roundtrip(net::makeStatus(2, StatusCode::Overloaded, 50), out);
    EXPECT_EQ(out.statusCode,
              static_cast<uint8_t>(StatusCode::Overloaded));
    EXPECT_EQ(out.retryAfterMs, 50u);
}

TEST(NetWire, PipelinedMessagesDecodeInOrder)
{
    std::vector<uint8_t> wire = net::encodeMessage(net::makePing(1));
    std::vector<uint8_t> second =
        net::encodeMessage(net::makeLookupRequest(2, someKeys(2)));
    wire.insert(wire.end(), second.begin(), second.end());

    MessageReader reader;
    reader.feed(wire.data(), wire.size());
    RpcMessage a, b;
    ASSERT_TRUE(reader.next(a));
    ASSERT_TRUE(reader.next(b));
    EXPECT_EQ(a.type, MsgType::Ping);
    EXPECT_EQ(b.type, MsgType::LookupRequest);
    EXPECT_EQ(b.keys.size(), 2u);
}

TEST(NetWire, CrcCorruptionPoisons)
{
    std::vector<uint8_t> wire =
        net::encodeMessage(net::makeLookupRequest(3, someKeys(2)));
    wire.back() ^= 0x40;
    MessageReader reader;
    reader.feed(wire.data(), wire.size());
    RpcMessage out;
    EXPECT_FALSE(reader.next(out));
    EXPECT_TRUE(reader.bad());
    // Poison latches: even a good frame is refused afterwards.
    std::vector<uint8_t> good = net::encodeMessage(net::makePing(4));
    reader.feed(good.data(), good.size());
    EXPECT_FALSE(reader.next(out));
}

TEST(NetWire, OversizedLengthPoisonsImmediately)
{
    uint8_t header[8] = {0};
    uint32_t huge = net::kMaxRpcPayload + 1;
    std::memcpy(header, &huge, sizeof(huge));
    MessageReader reader;
    reader.feed(header, sizeof(header));
    RpcMessage out;
    EXPECT_FALSE(reader.next(out));
    EXPECT_TRUE(reader.bad());
}

TEST(NetWire, TrailingPayloadBytesPoison)
{
    persist::Encoder payload;
    payload.u8(static_cast<uint8_t>(MsgType::Ping));
    payload.u64(5);
    payload.u8(0xEE);   // One byte past the Ping shape.
    persist::Encoder frame;
    frame.u32(static_cast<uint32_t>(payload.size()));
    frame.u32(persist::crc32(payload.buffer().data(), payload.size()));
    frame.bytes(payload.buffer().data(), payload.size());

    MessageReader reader;
    reader.feed(frame.buffer().data(), frame.buffer().size());
    RpcMessage out;
    EXPECT_FALSE(reader.next(out));
    EXPECT_TRUE(reader.bad());
}

TEST(NetWire, TruncatedBatchPoisons)
{
    // Claims 4 keys but carries 1: the CRC is valid, so the decode
    // itself must catch the short payload.
    persist::Encoder payload;
    payload.u8(static_cast<uint8_t>(MsgType::LookupRequest));
    payload.u64(6);
    payload.u32(4);
    payload.key(Key128::fromIpv4(1));
    persist::Encoder frame;
    frame.u32(static_cast<uint32_t>(payload.size()));
    frame.u32(persist::crc32(payload.buffer().data(), payload.size()));
    frame.bytes(payload.buffer().data(), payload.size());

    MessageReader reader;
    reader.feed(frame.buffer().data(), frame.buffer().size());
    RpcMessage out;
    EXPECT_FALSE(reader.next(out));
    EXPECT_TRUE(reader.bad());
}

TEST(NetWire, BatchPastLimitPoisons)
{
    persist::Encoder payload;
    payload.u8(static_cast<uint8_t>(MsgType::LookupRequest));
    payload.u64(7);
    payload.u32(net::kMaxRpcBatch + 1);
    persist::Encoder frame;
    frame.u32(static_cast<uint32_t>(payload.size()));
    frame.u32(persist::crc32(payload.buffer().data(), payload.size()));
    frame.bytes(payload.buffer().data(), payload.size());

    MessageReader reader;
    reader.feed(frame.buffer().data(), frame.buffer().size());
    RpcMessage out;
    EXPECT_FALSE(reader.next(out));
    EXPECT_TRUE(reader.bad());
}

// ---- End-to-end serve path -------------------------------------------

TEST(NetService, ServesLookupsAndPong)
{
    Harness h;
    ASSERT_TRUE(h.service->start());
    ServiceClient client(h.clientOptions());

    std::vector<Key128> keys = {Key128::fromIpv4(0x0A010203u),
                                Key128::fromIpv4(0x0A020304u),
                                Key128::fromIpv4(0xC0000001u)};
    net::LookupCallResult r = client.lookup(keys);
    ASSERT_EQ(r.status, CallStatus::Ok);
    ASSERT_EQ(r.results.size(), 3u);
    EXPECT_TRUE(r.results[0].found);
    EXPECT_EQ(r.results[0].nextHop, 200u);   // 10.1.0.0/16 wins.
    EXPECT_EQ(r.results[0].matchedLength, 16u);
    EXPECT_TRUE(r.results[1].found);
    EXPECT_EQ(r.results[1].nextHop, 100u);   // 10.0.0.0/8.
    EXPECT_FALSE(r.results[2].found);
    EXPECT_EQ(r.generation, h.plane->generation());

    net::PingCallResult p = client.ping();
    ASSERT_EQ(p.status, CallStatus::Ok);
    EXPECT_EQ(p.routes, h.plane->routeCount());
    EXPECT_FALSE(p.draining);
}

TEST(NetService, UpdatesApplyAndAckDurably)
{
    TempDir dir("acks");
    Harness h(dir.path);
    ASSERT_TRUE(h.service->start());
    ServiceClient client(h.clientOptions());

    std::vector<Update> updates = {announceOf(0xC0A80000u, 16, 777)};
    net::UpdateCallResult r = client.update(updates);
    ASSERT_EQ(r.status, CallStatus::Ok);
    ASSERT_EQ(r.acks.size(), 1u);
    EXPECT_TRUE(r.acks[0].acked);
    EXPECT_GE(r.durableSeq, r.acks[0].seq);
    EXPECT_EQ(h.plane->lastDurableSeq(0), r.durableSeq);

    // The route serves immediately.
    net::LookupCallResult l =
        client.lookup({Key128::fromIpv4(0xC0A80001u)});
    ASSERT_EQ(l.status, CallStatus::Ok);
    EXPECT_TRUE(l.results[0].found);
    EXPECT_EQ(l.results[0].nextHop, 777u);
}

TEST(NetService, TornJournalWriteNeverAcks)
{
    REQUIRE_INJECTION();
    TempDir dir("torn");
    FaultInjector inj(41);
    inj.arm(FaultPoint::JournalTornWrite, 1.0, 1);
    ServiceOptions sopts;
    sopts.faultInjector = &inj;
    Harness h(dir.path, sopts);
    ASSERT_TRUE(h.service->start());
    ServiceClient client(h.clientOptions(/*attempts=*/1));

    // The torn write latches the journal: nothing after it is ever
    // fsync-covered, so no update in the batch may be acked.
    net::UpdateCallResult r =
        client.update({announceOf(0xC0A80000u, 16, 1),
                       announceOf(0xC0A90000u, 16, 2)});
    ASSERT_EQ(r.status, CallStatus::Ok);
    ASSERT_EQ(r.acks.size(), 2u);
    EXPECT_FALSE(r.acks[0].acked);
    EXPECT_FALSE(r.acks[1].acked);

    // Still torn on the next batch — the promise stays withdrawn.
    r = client.update({announceOf(0xC0AA0000u, 16, 3)});
    ASSERT_EQ(r.status, CallStatus::Ok);
    EXPECT_FALSE(r.acks[0].acked);
    EXPECT_GE(h.service->stats().unacked, 3u);
}

TEST(NetService, RefusedJournalAppendIsNeitherAppliedNorAcked)
{
    REQUIRE_INJECTION();
    TempDir dir("refused");
    FaultInjector inj(42);
    inj.arm(FaultPoint::JournalIoError, 1.0);
    ServiceOptions sopts;
    sopts.faultInjector = &inj;
    Harness h(dir.path, sopts);
    ASSERT_TRUE(h.service->start());
    ServiceClient client(h.clientOptions(/*attempts=*/1));

    // The append returns seq 0: state must not run ahead of the
    // durable history, so the route is refused, not applied.
    net::UpdateCallResult r =
        client.update({announceOf(0xC0A80000u, 16, 7)});
    ASSERT_EQ(r.status, CallStatus::Ok);
    ASSERT_EQ(r.acks.size(), 1u);
    EXPECT_FALSE(r.acks[0].acked);
    EXPECT_EQ(r.acks[0].seq, 0u);
    EXPECT_EQ(r.acks[0].status,
              static_cast<uint8_t>(UpdateStatus::Rejected));
    net::LookupCallResult l =
        client.lookup({Key128::fromIpv4(0xC0A80001u)});
    ASSERT_EQ(l.status, CallStatus::Ok);
    EXPECT_FALSE(l.results[0].found);
}

TEST(NetService, EmptyBatchAndExpireAreRejected)
{
    Harness h;
    ASSERT_TRUE(h.service->start());
    ServiceClient client(h.clientOptions(/*attempts=*/1));

    EXPECT_EQ(client.lookup({}).status, CallStatus::Rejected);
    EXPECT_EQ(client.update({}).status, CallStatus::Rejected);

    Update expire;
    expire.kind = UpdateKind::Expire;
    expire.prefix = v4Prefix(0x0A000000u, 8);
    EXPECT_EQ(client.update({expire}).status, CallStatus::Rejected);
    EXPECT_GE(h.service->stats().badRequests, 3u);
}

// ---- Load shedding ---------------------------------------------------

TEST(NetService, DegradedShedsEverythingWithinDeadline)
{
    Harness h;
    ASSERT_TRUE(h.service->start());
    h.plane->induceHealth(0, health::HealthState::Degraded, 60000);
    ServiceClient client(h.clientOptions(/*attempts=*/1,
                                         /*timeout_ms=*/1000));

    auto t0 = std::chrono::steady_clock::now();
    net::LookupCallResult l =
        client.lookup({Key128::fromIpv4(0x0A010203u)});
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    EXPECT_EQ(l.status, CallStatus::Overloaded);
    // Fail-fast promise: the shed answer arrives well inside the
    // request deadline instead of queuing until it.
    EXPECT_LT(elapsed.count(), 1000);

    EXPECT_EQ(client.update({announceOf(0xC0A80000u, 16, 1)}).status,
              CallStatus::Overloaded);
    EXPECT_GE(h.service->stats().overloaded, 2u);
}

TEST(NetService, StressedShedsUpdatesButServesLookups)
{
    Harness h;
    ASSERT_TRUE(h.service->start());
    h.plane->induceHealth(0, health::HealthState::Stressed, 60000);
    ServiceClient client(h.clientOptions(/*attempts=*/1));

    EXPECT_EQ(client.update({announceOf(0xC0A80000u, 16, 1)}).status,
              CallStatus::Overloaded);
    net::LookupCallResult l =
        client.lookup({Key128::fromIpv4(0x0A010203u)});
    EXPECT_EQ(l.status, CallStatus::Ok);
    ASSERT_EQ(l.results.size(), 1u);
    EXPECT_TRUE(l.results[0].found);
    EXPECT_EQ(l.results[0].nextHop, 200u);
    EXPECT_EQ(h.service->stats().shedUpdates, 1u);
}

TEST(NetService, InducedHealthExpires)
{
    Harness h;
    ASSERT_TRUE(h.service->start());
    h.plane->induceHealth(0, health::HealthState::Degraded, 50);
    ServiceClient client(h.clientOptions(/*attempts=*/1));
    EXPECT_EQ(client.lookup({Key128::fromIpv4(1u)}).status,
              CallStatus::Overloaded);
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    EXPECT_EQ(client.lookup({Key128::fromIpv4(1u)}).status,
              CallStatus::Ok);
}

TEST(NetService, RecoveringShardAcceptsUpdates)
{
    Harness h;
    ASSERT_TRUE(h.service->start());
    h.plane->induceHealth(0, health::HealthState::Recovering, 60000);
    ServiceClient client(h.clientOptions(/*attempts=*/1));

    // Probation is not a shed state: the update applies and serves.
    EXPECT_EQ(client.update({announceOf(0xC0A80000u, 16, 7)}).status,
              CallStatus::Ok);
    net::LookupCallResult l =
        client.lookup({Key128::fromIpv4(0xC0A80001u)});
    ASSERT_EQ(l.status, CallStatus::Ok);
    EXPECT_TRUE(l.results[0].found);
    EXPECT_EQ(l.results[0].nextHop, 7u);
    EXPECT_EQ(h.service->stats().overloaded, 0u);
}

TEST(NetService, StressedShardRefusesBroadcastUpdates)
{
    Harness h({}, {}, /*shards=*/4);
    ASSERT_TRUE(h.service->start());
    ServiceClient client(h.clientOptions(/*attempts=*/1));

    const size_t stressed =
        h.plane->shardOf(Key128::fromIpv4(0x0A010203u));
    h.plane->induceHealth(stressed, health::HealthState::Stressed, 60000);
    // A /24 owned by a sibling: the partition hashes the top byte.
    uint32_t addr = 0x00AB0000u;
    while (h.plane->shardOf(v4Prefix(addr, 24)) == stressed)
        addr += 1u << 24;

    // A prefix shorter than partitionBits lands on every shard, so one
    // Stressed shard refuses it...
    EXPECT_EQ(client.update({announceOf(0x40000000u, 4, 5)}).status,
              CallStatus::Overloaded);
    EXPECT_EQ(h.service->stats().shedUpdates, 1u);

    // ...while a sibling still takes the updates it owns and serves
    // lookups.
    EXPECT_EQ(client.update({announceOf(addr, 24, 9)}).status,
              CallStatus::Ok);
    net::LookupCallResult l = client.lookup({Key128::fromIpv4(addr | 1)});
    ASSERT_EQ(l.status, CallStatus::Ok);
    EXPECT_TRUE(l.results[0].found);
    EXPECT_EQ(l.results[0].nextHop, 9u);
}

// ---- Connection deadlines and backpressure ---------------------------

TEST(NetService, IdleConnectionIsDropped)
{
    ServiceOptions sopts;
    sopts.idleTimeoutMs = 60;
    Harness h({}, sopts);
    ASSERT_TRUE(h.service->start());

    int fd = net::connectLoopback(h.service->port());
    ASSERT_GE(fd, 0);
    uint8_t buf[8];
    // Silence in both directions: the server must cut the cord.
    EXPECT_TRUE(waitUntil([&] {
        return net::recvSome(fd, buf, sizeof(buf), 20) < 0;
    }));
    net::closeFd(fd);
    EXPECT_TRUE(waitUntil(
        [&] { return h.service->stats().idleDisconnects >= 1; }));
}

TEST(NetService, StalledPeerTripsBackpressureThenWriteStall)
{
    REQUIRE_INJECTION();
    ServiceOptions sopts;
    sopts.maxOutputBytes = 2048;
    sopts.writeStallMs = 100;
    sopts.idleTimeoutMs = 60000;
    FaultInjector inj(43);
    // The peer accepts nothing: replies pile up in the bounded output
    // queue, reading pauses, and the stall deadline disconnects.
    inj.arm(FaultPoint::NetStalledPeer, 1.0);
    sopts.faultInjector = &inj;
    Harness h({}, sopts);
    ASSERT_TRUE(h.service->start());

    int fd = net::connectLoopback(h.service->port());
    ASSERT_GE(fd, 0);
    std::vector<Key128> keys = someKeys(128);
    for (uint64_t i = 0; i < 8; ++i) {
        std::vector<uint8_t> wire =
            net::encodeMessage(net::makeLookupRequest(i + 1, keys));
        ASSERT_TRUE(net::sendAll(fd, wire.data(), wire.size()));
    }
    EXPECT_TRUE(waitUntil(
        [&] { return h.service->stats().stallDisconnects >= 1; }));
    EXPECT_GE(h.service->stats().backpressurePauses, 1u);
    net::closeFd(fd);
}

TEST(NetService, PartialWritesStillMakeProgress)
{
    ServiceOptions sopts;
    FaultInjector inj(44);
    inj.arm(FaultPoint::NetPartialWrite, 1.0);
    sopts.faultInjector = &inj;
    Harness h({}, sopts);
    ASSERT_TRUE(h.service->start());
    ServiceClient client(h.clientOptions());

    net::LookupCallResult r = client.lookup(someKeys(512));
    ASSERT_EQ(r.status, CallStatus::Ok);
    EXPECT_EQ(r.results.size(), 512u);
}

TEST(NetService, ClientSurvivesMidFrameReset)
{
    REQUIRE_INJECTION();
    ServiceOptions sopts;
    FaultInjector inj(45);
    inj.arm(FaultPoint::NetMidFrameReset, 1.0, 1);
    sopts.faultInjector = &inj;
    Harness h({}, sopts);
    ASSERT_TRUE(h.service->start());
    ServiceClient client(h.clientOptions());

    // First reply is torn mid-frame and the connection resets; the
    // retry reconnects on a clean stream and succeeds.
    net::LookupCallResult r =
        client.lookup({Key128::fromIpv4(0x0A010203u)});
    ASSERT_EQ(r.status, CallStatus::Ok);
    EXPECT_EQ(r.results[0].nextHop, 200u);
    EXPECT_GE(client.stats().reconnects, 2u);
}

TEST(NetService, AcceptStormRefusalsAreAbsorbedByRetry)
{
    REQUIRE_INJECTION();
    ServiceOptions sopts;
    FaultInjector inj(46);
    inj.arm(FaultPoint::NetAcceptStorm, 1.0, 2);
    sopts.faultInjector = &inj;
    Harness h({}, sopts);
    ASSERT_TRUE(h.service->start());
    ServiceClient client(h.clientOptions(/*attempts=*/8));

    net::LookupCallResult r =
        client.lookup({Key128::fromIpv4(0x0A010203u)});
    ASSERT_EQ(r.status, CallStatus::Ok);
    EXPECT_TRUE(
        waitUntil([&] { return h.service->stats().refused >= 2; }));
}

TEST(NetService, GarbageBytesDisconnectTheSender)
{
    Harness h;
    ASSERT_TRUE(h.service->start());
    int fd = net::connectLoopback(h.service->port());
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> junk(64, 0xFF);   // Oversized length field.
    ASSERT_TRUE(net::sendAll(fd, junk.data(), junk.size()));
    uint8_t buf[8];
    EXPECT_TRUE(waitUntil([&] {
        return net::recvSome(fd, buf, sizeof(buf), 20) < 0;
    }));
    net::closeFd(fd);
}

// ---- Client retry / deadline behaviour -------------------------------

TEST(NetClient, RetriesStopAtAttemptCeiling)
{
    // Bind-then-close gives a port with no listener.
    uint16_t port = 0;
    int fd = net::listenLoopback(0, 1, &port);
    ASSERT_GE(fd, 0);
    net::closeFd(fd);

    ClientOptions copts;
    copts.port = port;
    copts.maxAttempts = 3;
    copts.requestTimeoutMs = 2000;
    copts.backoffBaseMs = 1;
    copts.backoffMaxMs = 4;
    ServiceClient client(copts);
    net::LookupCallResult r = client.lookup(someKeys(1));
    EXPECT_EQ(r.status, CallStatus::Disconnected);
    EXPECT_EQ(client.stats().retries, 2u);
}

TEST(NetClient, DeadlineCapsASilentServer)
{
    // A listener that accepts and then says nothing.
    uint16_t port = 0;
    int lfd = net::listenLoopback(0, 4, &port);
    ASSERT_GE(lfd, 0);
    std::thread silent([lfd] {
        int c = net::acceptOn(lfd, 2000);
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
        net::closeFd(c);
    });

    ClientOptions copts;
    copts.port = port;
    copts.maxAttempts = 10;
    copts.requestTimeoutMs = 150;
    ServiceClient client(copts);
    auto t0 = std::chrono::steady_clock::now();
    net::LookupCallResult r = client.lookup(someKeys(1));
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    EXPECT_EQ(r.status, CallStatus::Timeout);
    EXPECT_LT(elapsed.count(), 1000);
    silent.join();
    net::closeFd(lfd);
}

// ---- Graceful drain --------------------------------------------------

TEST(NetService, DrainFlushesInFlightRepliesThenCloses)
{
    TempDir dir("drain");
    Harness h(dir.path);
    ASSERT_TRUE(h.service->start());
    // The plane snapshotted at boot; remove that image so the one
    // loaded below can only come from the drain.
    std::string snapshot = h.plane->shardDir(0) + "/snapshot.chs";
    std::filesystem::remove(snapshot);

    int fd = net::connectLoopback(h.service->port());
    ASSERT_GE(fd, 0);
    std::vector<Key128> keys = someKeys(4);
    for (uint64_t i = 1; i <= 2; ++i) {
        std::vector<uint8_t> wire =
            net::encodeMessage(net::makeLookupRequest(i, keys));
        ASSERT_TRUE(net::sendAll(fd, wire.data(), wire.size()));
    }
    // Let the serving thread buffer both requests, then drain.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    h.service->requestDrain();

    // Both replies arrive (the drain owes them), then EOF.
    MessageReader reader;
    RpcMessage msg;
    size_t replies = 0;
    uint8_t buf[4096];
    while (replies < 2) {
        int n = net::recvSome(fd, buf, sizeof(buf), 2000);
        ASSERT_GT(n, 0);
        reader.feed(buf, static_cast<size_t>(n));
        while (reader.next(msg)) {
            EXPECT_EQ(msg.type, MsgType::LookupReply);
            ++replies;
        }
    }
    EXPECT_TRUE(waitUntil([&] {
        return net::recvSome(fd, buf, sizeof(buf), 20) < 0;
    }));
    net::closeFd(fd);

    EXPECT_TRUE(waitUntil([&] { return !h.service->running(); }));
    h.service->stop();
    EXPECT_TRUE(h.service->stats().drained);

    // The final snapshot restores a working engine.
    ChiselConfig config;
    persist::SnapshotLoadResult loaded =
        persist::loadSnapshot(snapshot, &config);
    EXPECT_EQ(loaded.status, persist::SnapshotLoadStatus::Ok);
}

TEST(NetService, DrainIncompleteWhenACheckpointFails)
{
    TempDir dir("drain_failed_checkpoint");
    Harness h(dir.path);
    ASSERT_TRUE(h.service->start());
    // With its lane gone the shard's checkpoint cannot write a
    // snapshot: the service must survive the drain and report it.
    std::filesystem::remove_all(h.plane->shardDir(0));
    h.service->requestDrain();
    EXPECT_TRUE(waitUntil([&] { return !h.service->running(); }));
    h.service->stop();
    EXPECT_FALSE(h.service->stats().drained);
}

TEST(NetService, NewConnectionsRefusedWhileDraining)
{
    Harness h;
    ASSERT_TRUE(h.service->start());
    uint16_t port = h.service->port();
    h.service->requestDrain();
    EXPECT_TRUE(waitUntil([&] { return !h.service->running(); }));

    int fd = net::connectLoopback(port);
    if (fd >= 0) {
        // A racing connect may land in the backlog, but no reply ever
        // comes: the listener is gone.
        uint8_t buf[8];
        EXPECT_LE(net::recvSome(fd, buf, sizeof(buf), 100), 0);
        net::closeFd(fd);
    }
    h.service->stop();
}

TEST(NetService, StopIsIdempotentAndRestartable)
{
    Harness h;
    ASSERT_TRUE(h.service->start());
    EXPECT_FALSE(h.service->start());   // Already running.
    h.service->stop();
    h.service->stop();
    EXPECT_FALSE(h.service->running());
}

} // namespace
} // namespace chisel
