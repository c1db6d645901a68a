/**
 * @file
 * Shard soak: a kill/restart + quarantine-containment drill for the
 * fault-isolated sharded dataplane (docs/sharding.md).
 *
 * The driver re-execs itself as a --role=node child: a ShardedChisel
 * behind a ChiselService, every shard running its own maintenance
 * thread (health monitor, scrub) and journal + snapshot lane under a
 * shared persist directory, with engine-path fault points armed per
 * shard — each shard's injector follows its engine onto the service
 * thread's applies — and every connection-level fault point armed on
 * the service (stalled peers, partial writes, mid-frame resets,
 * accept storms).
 * Client threads storm announces, withdraws, and lookups across the
 * whole keyspace — deadlines, retries, reconnects — while the driver
 * SIGKILLs the node mid-storm and warm-restarts it on the same port;
 * the final cycle dies by SIGTERM so the graceful drain (per-shard
 * snapshots) is on the audited path.
 *
 * Containment is proven in-process, where the health window is
 * exact: a force-quarantined shard fails fast for its own keyspace
 * slice while a burst on the sibling slices is served with a bounded
 * p99, and a fault storm on one shard is detected and recovered by
 * that shard's monitor while its siblings never leave Healthy.
 *
 * The audit insists, per shard:
 *
 *  - zero lost acks: every acked (update, seq) is present verbatim in
 *    the owning shard's journal valid prefix;
 *  - zero phantoms: every journal record matches an update a client
 *    actually sent, and the recovered shard serves exactly its own
 *    journal-replay truth (plus a binary-trie oracle over the union);
 *  - warm restarts: after the first incarnation every shard recovers
 *    from its own snapshot lane with zero ladder fallbacks — no cold
 *    Bloomier setups.
 *
 * A chisel.shard.v1 JSON report (where --json=<path> points) carries
 * the counts; exit status is nonzero on any violation so CI runs this
 * binary directly.  Flags: --seed=<n>, --json=<path> and the
 * telemetry flags; --role, --port and --dir are the node child's.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/clock.hh"
#include "common/random.hh"
#include "concurrent/concurrent_engine.hh"
#include "fault/fault.hh"
#include "health/monitor.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "net/socket.hh"
#include "persist/journal.hh"
#include "persist/recovery.hh"
#include "route/prefix.hh"
#include "route/synth.hh"
#include "route/table.hh"
#include "route/updates.hh"
#include "shard/partition.hh"
#include "shard/sharded.hh"
#include "soak.hh"
#include "telemetry/metrics.hh"
#include "trie/binary_trie.hh"

namespace {

using namespace chisel;
using shard::ShardedChisel;
using shard::ShardedOptions;
using shard::ShardSelector;

// The drills quarantine shard 1 and storm shard 2 while a third
// stays healthy.
constexpr size_t kShards = 4;
static_assert(kShards >= 3);
constexpr unsigned kPartitionBits = 8;
constexpr size_t kClients = 3;        ///< Storm threads.
constexpr size_t kCycles = 3;         ///< kCycles-1 SIGKILLs, 1 SIGTERM.
constexpr uint64_t kKillAfter = 200;  ///< Acked updates per cycle.

/** Driver and every node incarnation must agree on the geometry. */
ShardedOptions
planeOptions(const soak::Soak &soak)
{
    ShardedOptions p;
    p.shards = kShards;
    p.partitionBits = kPartitionBits;
    p.persistDir = soak.dir() + "/plane";
    p.engine.controlThread = true;
    p.engine.healthInterval = std::chrono::milliseconds(5);
    p.engine.scrubInterval = std::chrono::milliseconds(25);
    return p;
}

// ---- Node child ------------------------------------------------------

net::ChiselService *g_soakService = nullptr;

extern "C" void
soakOnTerm(int)
{
    if (g_soakService != nullptr)
        g_soakService->requestDrain();  // Async-signal-safe.
}

/** The node's ready file: its port and whether it restarted warm. */
std::string
readyPath(const soak::Soak &soak)
{
    return soak.dir() + "/ready";
}

int
nodeMain(const soak::Soak &soak)
{
    // Per-shard fault injectors follow each shard's engine: the
    // service thread's applies and the shard's maintenance thread
    // (scrubs, recovery actions) all run on a hostile engine.
    // Probabilities are modest so the storm keeps making progress —
    // the health monitors flap shards through Stressed/Degraded and
    // the ladders pull them back while siblings serve.
    std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
    ShardedOptions popts = planeOptions(soak);
    for (size_t s = 0; s < kShards; ++s) {
        auto inj = std::make_unique<fault::FaultInjector>(
            soak.seed() + 31 * s + 7);
        inj->arm(fault::FaultPoint::BloomierSetupFail, 0.05, 50);
        inj->arm(fault::FaultPoint::ForceNonSingleton, 0.10, 400);
        inj->arm(fault::FaultPoint::TcamOverflow, 0.05, 40);
        inj->arm(fault::FaultPoint::BitFlipIndex, 0.005, 8);
        inj->arm(fault::FaultPoint::BitFlipFilter, 0.005, 8);
        popts.faultInjectors.push_back(inj.get());
        injectors.push_back(std::move(inj));
    }
    // The transport is hostile too: every connection-level fault
    // point is armed on the serving thread.
    fault::FaultInjector netInj(soak.seed() + 7);
    netInj.arm(fault::FaultPoint::NetPartialWrite, 0.25);
    netInj.arm(fault::FaultPoint::NetStalledPeer, 0.05);
    netInj.arm(fault::FaultPoint::NetMidFrameReset, 0.01);
    netInj.arm(fault::FaultPoint::NetAcceptStorm, 0.25, 8);

    // Warm restart: each shard recovers from its own journal +
    // snapshot lane; the first incarnation starts empty (the storm
    // provides all routes, so per-shard truth is pure journal
    // replay).
    ShardedChisel plane(RoutingTable{}, popts);
    bool warm = true;  // Every shard restored its snapshot, no fallback.
    for (size_t s = 0; s < plane.shards(); ++s) {
        const shard::ShardRecovery &r = plane.recovery()[s];
        warm = warm && r.source == persist::RecoverySource::Snapshot &&
               r.fallbacks == 0;
        std::printf("node: shard %zu recovered via %s "
                    "(%llu replayed, %zu routes, %llu fallbacks)\n",
                    s, persist::recoverySourceName(r.source),
                    static_cast<unsigned long long>(r.recordsReplayed),
                    r.routes,
                    static_cast<unsigned long long>(r.fallbacks));
    }

    net::ServiceOptions sopts;
    sopts.port = soak.port();
    sopts.maxOutputBytes = 64 * 1024;  // Small: backpressure is live.
    sopts.idleTimeoutMs = 5000;
    sopts.writeStallMs = 800;
    sopts.drainDeadlineMs = 2000;
    sopts.faultInjector = &netInj;

    net::ChiselService service(plane, sopts);
    g_soakService = &service;
    ::signal(SIGTERM, soakOnTerm);

    // The port may linger briefly from the SIGKILLed predecessor.
    bool up = false;
    for (int i = 0; i < 50 && !up; ++i) {
        up = service.start();
        if (!up)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
    }
    if (!up) {
        std::fprintf(stderr, "node: cannot bind port %u\n",
                     unsigned(soak.port()));
        return 3;
    }

    // Ready-file handshake: the port and whether the restart was warm,
    // written via rename so the driver never reads a torn file.
    std::string tmp = readyPath(soak) + ".tmp";
    if (std::FILE *f = std::fopen(tmp.c_str(), "w")) {
        std::fprintf(f, "port %u warm %d\n", service.port(), int(warm));
        std::fclose(f);
        std::rename(tmp.c_str(), readyPath(soak).c_str());
    }

    while (service.running())
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    service.stop();

    net::ServiceStats st = service.stats();
    std::printf("node: %llu requests, %llu acked, %llu unacked, "
                "%llu overloaded, drain %s\n",
                static_cast<unsigned long long>(st.requests),
                static_cast<unsigned long long>(st.acked),
                static_cast<unsigned long long>(st.unacked),
                static_cast<unsigned long long>(st.overloaded),
                st.drained ? "flushed" : "incomplete");

    // The engines must have been hostile: an injector nothing polled
    // would make every audit above a fault-free one.
    uint64_t fires = 0;
    for (size_t s = 0; s < injectors.size(); ++s) {
        uint64_t polls = 0;
        for (size_t p = 0; p < fault::kFaultPointCount; ++p)
            polls += injectors[s]->polls(static_cast<fault::FaultPoint>(p));
        fires += injectors[s]->totalFires();
        std::printf("node: shard %zu injector %llu polls, %llu fires\n", s,
                    static_cast<unsigned long long>(polls),
                    static_cast<unsigned long long>(
                        injectors[s]->totalFires()));
    }
    if (CHISEL_FAULT_INJECTION_ENABLED && fires == 0) {
        std::printf("node: no per-shard fault fired\n");
        return 5;
    }
    return st.drained ? 0 : 4;
}

// ---- Driver ----------------------------------------------------------

/** One parsed node ready file. */
struct NodeReady
{
    unsigned port = 0;
    int warm = 0;  ///< Every shard restored its snapshot, no fallback.
};

bool
readReadyFile(const soak::Soak &soak, NodeReady &out)
{
    std::FILE *f = std::fopen(readyPath(soak).c_str(), "r");
    if (f == nullptr)
        return false;
    bool ok =
        std::fscanf(f, "port %u warm %d", &out.port, &out.warm) == 2;
    std::fclose(f);
    return ok;
}

/** Structural identity of an update, for the phantom check. */
std::string
updateIdent(const Update &u)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%u|%016llx%016llx/%u|%u",
                  unsigned(u.kind),
                  static_cast<unsigned long long>(u.prefix.bits().hi()),
                  static_cast<unsigned long long>(u.prefix.bits().lo()),
                  u.prefix.length(), unsigned(u.nextHop));
    return buf;
}

/** An update the node acked, with the seq the ack promised. */
struct AckedRec
{
    Update update;
    uint64_t seq = 0;
};

/** Everything one client thread saw; merged by the audit. */
struct ClientLog
{
    std::vector<Update> attempted;
    std::vector<AckedRec> acked;
    uint64_t lookupsOk = 0;
    net::ClientStats stats;
};

/**
 * One storm thread.  Prefixes are /24s whose top byte walks a wide
 * range (so every shard gets traffic) and whose second byte is the
 * thread index (so thread spaces are disjoint and replay order across
 * threads cannot change any prefix's final owner).
 */
void
clientThread(uint64_t seed, uint16_t port, size_t idx,
             std::atomic<bool> &stop,
             std::atomic<uint64_t> &ackedTotal, ClientLog &log)
{
    net::ClientOptions copts;
    copts.port = port;
    copts.requestTimeoutMs = 600;
    copts.recvTimeoutMs = 100;
    copts.maxAttempts = 3;
    copts.backoffBaseMs = 5;
    copts.backoffMaxMs = 60;
    copts.seed = seed + 101 * idx;
    net::ServiceClient client(copts);

    Rng rng(seed + 977 * idx + 13);
    auto prefixAt = [&](uint64_t x) {
        uint32_t top = 16 + uint32_t((x >> 8) % 200);
        uint32_t addr = (top << 24) | (uint32_t(idx & 0xff) << 16) |
                        (uint32_t(x & 63) << 8);
        return Prefix(Key128::fromIpv4(addr), 24);
    };

    while (!stop.load(std::memory_order_acquire)) {
        uint64_t roll = rng.nextBelow(10);
        if (roll < 6) {
            size_t n = 1 + rng.nextBelow(4);
            std::vector<Update> batch;
            for (size_t i = 0; i < n; ++i) {
                Update u;
                u.prefix = prefixAt(rng.next64());
                if (rng.nextBelow(10) < 8) {
                    u.kind = UpdateKind::Announce;
                    u.nextHop = 1 + uint32_t(rng.nextBelow(1000));
                } else {
                    u.kind = UpdateKind::Withdraw;
                }
                batch.push_back(u);
                log.attempted.push_back(u);
            }
            net::UpdateCallResult res = client.update(batch);
            if (res.status == net::CallStatus::Ok) {
                for (size_t i = 0; i < batch.size(); ++i) {
                    if (!res.acks[i].acked)
                        continue;
                    log.acked.push_back({batch[i], res.acks[i].seq});
                    ackedTotal.fetch_add(1,
                                         std::memory_order_relaxed);
                }
            }
        } else if (roll < 9) {
            size_t n = 1 + rng.nextBelow(8);
            std::vector<Key128> keys;
            for (size_t i = 0; i < n; ++i) {
                uint32_t top = 16 + uint32_t(rng.nextBelow(200));
                keys.push_back(Key128::fromIpv4(
                    (top << 24) | uint32_t(rng.nextBelow(1u << 24))));
            }
            if (client.lookup(keys).status == net::CallStatus::Ok)
                ++log.lookupsOk;
        } else {
            client.ping();
        }
    }
    log.stats = client.stats();
}

/**
 * The containment half of the acceptance bar, run in-process so the
 * health window is exact: a force-quarantined shard's slice answers
 * Overloaded, and a burst on the sibling slices is all served with a
 * bounded p99 while it stays quarantined.
 */
struct ContainmentDemo
{
    bool sickSliceOverloaded = false;
    bool siblingsServed = false;
    uint64_t healthyP99Us = 0;
};

ContainmentDemo
runContainmentDemo(uint64_t seed)
{
    ContainmentDemo demo;

    ShardedOptions popts;
    popts.shards = kShards;
    popts.partitionBits = kPartitionBits;
    popts.engine.controlThread = false;
    ShardedChisel plane(generateScaledTable(2000, 32, seed), popts);

    net::ChiselService service(plane, {});
    if (!service.start())
        return demo;

    net::ClientOptions cl;
    cl.port = service.port();
    cl.requestTimeoutMs = 500;
    cl.maxAttempts = 2;
    cl.backoffBaseMs = 5;
    cl.backoffMaxMs = 20;
    cl.seed = seed;
    net::ServiceClient client(cl);

    // A probe key per shard (the partition hashes the top byte).
    std::vector<Key128> probe(kShards);
    for (uint32_t top = 0; top < 256; ++top) {
        Key128 key = Key128::fromIpv4((top << 24) | 0x00010203u);
        probe[plane.shardOf(key)] = key;
    }

    const size_t sick = 1;
    plane.induceHealth(sick, health::HealthState::Quarantined);
    demo.sickSliceOverloaded =
        client.lookup({probe[sick]}).status ==
        net::CallStatus::Overloaded;

    std::vector<uint64_t> us;
    us.reserve(3000);
    demo.siblingsServed = true;
    for (size_t i = 0; i < 3000; ++i) {
        size_t s = (sick + 1 + i % (kShards - 1)) % kShards;
        uint64_t t0 = monotonicNowNs();
        net::LookupCallResult r = client.lookup({probe[s]});
        us.push_back((monotonicNowNs() - t0) / 1000);
        if (r.status != net::CallStatus::Ok)
            demo.siblingsServed = false;
    }
    std::sort(us.begin(), us.end());
    demo.healthyP99Us = us[us.size() * 99 / 100];

    service.stop();
    return demo;
}

/**
 * Detect/recover drill: a fault storm aimed at ONE shard must trip
 * that shard's monitor (detect) and, once the faults stop, the
 * shard's own recovery ladder must drive it back to Healthy (recover)
 * — with every sibling staying Healthy and serving throughout.
 */
struct DetectRecover
{
    bool detected = false;
    bool recovered = false;
    bool siblingsHealthy = true;
    int64_t detectMs = 0;
    int64_t recoverMs = 0;
};

DetectRecover
runDetectRecover(uint64_t seed)
{
    DetectRecover dr;

    ShardedOptions popts;
    popts.shards = kShards;
    popts.partitionBits = kPartitionBits;
    popts.engine.controlThread = false;
    ShardedChisel plane(generateScaledTable(1000, 32, seed + 1), popts);

    const size_t victim = 2;
    Key128 victimKey, siblingKey;
    for (uint32_t top = 0; top < 256; ++top) {
        Key128 key = Key128::fromIpv4((top << 24) | 0x00000942u);
        if (plane.shardOf(key) == victim)
            victimKey = key;
        else
            siblingKey = key;
    }

    // Bit flips are the critical-severity signal: the victim's scrub
    // finds and repairs them, and the parity-recovery delta drives
    // Healthy -> Stressed -> Degraded.  Setup faults ride along at
    // warn severity with bounded budgets (ForceNonSingleton at p=1
    // would starve every Bloomier seed retry and the drill would
    // never finish a setup).
    fault::FaultInjector inj(seed + 97);
    inj.arm(fault::FaultPoint::BitFlipIndex, 0.5, 300);
    inj.arm(fault::FaultPoint::BitFlipFilter, 0.5, 300);
    inj.arm(fault::FaultPoint::ForceNonSingleton, 0.5, 400);
    inj.arm(fault::FaultPoint::BloomierSetupFail, 0.5, 60);
    inj.arm(fault::FaultPoint::TcamOverflow, 0.3, 40);

    auto siblingsFine = [&] {
        plane.lookup(siblingKey);  // Sibling slices must keep serving.
        for (size_t s = 0; s < kShards; ++s)
            if (s != victim &&
                plane.shardHealth(s) != health::HealthState::Healthy)
                return false;
        return true;
    };

    // Detection: hammer faulty announces into the victim's slice
    // (engine-path fault points fire on this thread's applies) and
    // tick the monitors until the victim leaves the serving states.
    uint64_t t0 = monotonicNowNs();
    {
        fault::ScopedInjector scope(&inj);
        Rng rng(seed + 5);
        uint32_t base =
            (uint32_t(victimKey.hi() >> 56) << 24);
        for (int i = 0; i < 4000 && !dr.detected; ++i) {
            Update u;
            u.kind = UpdateKind::Announce;
            u.prefix = Prefix(Key128::fromIpv4(
                                  base | uint32_t(rng.nextBelow(1u << 24)
                                                  & 0xFFFFFF00u)),
                              24);
            u.nextHop = 1 + uint32_t(rng.nextBelow(100));
            plane.apply(u);
            if (i % 8 == 0) {
                // The scrub is what surfaces flipped cells as
                // parity recoveries for the victim's next sample.
                plane.shardEngine(victim).scrubNow();
                plane.healthTickAll();
            }
            health::HealthState h = plane.shardHealth(victim);
            dr.detected = h == health::HealthState::Degraded ||
                          h == health::HealthState::Quarantined;
            if (!siblingsFine())
                dr.siblingsHealthy = false;
        }
    }
    dr.detectMs = int64_t((monotonicNowNs() - t0) / 1000000);

    // Recovery: faults stop; the victim's ladder (purge -> scrub ->
    // resetup -> restore) reconverges on ticks while siblings serve.
    for (size_t p = 0; p < fault::kFaultPointCount; ++p)
        inj.disarm(static_cast<fault::FaultPoint>(p));
    t0 = monotonicNowNs();
    for (int i = 0; i < 2000 && !dr.recovered; ++i) {
        plane.healthTickAll();
        dr.recovered = plane.shardHealth(victim) ==
                       health::HealthState::Healthy;
        if (!siblingsFine())
            dr.siblingsHealthy = false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    dr.recoverMs = int64_t((monotonicNowNs() - t0) / 1000000);
    return dr;
}

int
driverMain(soak::Soak &soak)
{
    ShardSelector selector(kShards, kPartitionBits);
    ChiselConfig config;

    std::printf("containment demo: one shard quarantined\n");
    ContainmentDemo demo = runContainmentDemo(soak.seed());
    soak.check(demo.sickSliceOverloaded,
               "quarantined shard's slice answers Overloaded");
    soak.check(demo.siblingsServed,
               "sibling slices keep serving through the quarantine");
    soak.check(demo.healthyP99Us > 0 && demo.healthyP99Us < 20000,
               "healthy-shard p99 bounded during sibling quarantine");
    std::printf("  healthy-shard p99 %llu us\n",
                static_cast<unsigned long long>(demo.healthyP99Us));

    // The storm is injected faults: with injection compiled out there
    // is nothing to detect, so the drill does not run.
    DetectRecover dr;
    if (CHISEL_FAULT_INJECTION_ENABLED) {
        std::printf("detect/recover drill: fault storm on one shard\n");
        dr = runDetectRecover(soak.seed());
        soak.check(dr.detected,
                   "victim shard's monitor detected the storm");
        soak.check(dr.recovered, "victim shard recovered to Healthy");
        soak.check(dr.siblingsHealthy,
                   "siblings never left Healthy during the drill");
        std::printf("  detect %lld ms, recover %lld ms\n",
                    static_cast<long long>(dr.detectMs),
                    static_cast<long long>(dr.recoverMs));
    } else {
        std::printf("detect/recover drill: skipped (fault injection "
                    "compiled out)\n");
    }

    // A kernel-chosen free port, reused by every node incarnation so
    // clients ride through restarts with plain reconnects.
    uint16_t port = 0;
    {
        int fd = net::listenLoopback(0, 1, &port);
        if (fd < 0)
            return soak.abandon("found a free port for the node");
        net::closeFd(fd);
    }

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> ackedTotal{0};
    std::vector<ClientLog> logs(kClients);
    std::vector<std::thread> threads;

    size_t kills = 0;
    bool spawnsOk = true;
    bool drainExitOk = false;
    bool warmSourcesOk = true;

    for (size_t cycle = 0; cycle < kCycles; ++cycle) {
        std::remove(readyPath(soak).c_str());
        pid_t node = soak.spawnSelf(port);
        NodeReady ready;
        if (node <= 0 || soak::waitFor([&] {
                return readReadyFile(soak, ready) && ready.port == port;
            }, 15000) < 0) {
            spawnsOk = false;
            std::printf("cycle %zu: node never came up\n", cycle);
            if (node > 0) {
                ::kill(node, SIGKILL);
                ::waitpid(node, nullptr, 0);
            }
            break;
        }
        std::printf("cycle %zu: node pid %d on port %u\n", cycle,
                    node, port);
        // Every restart after the first must be warm: per-shard
        // snapshot restore, zero ladder fallbacks, no cold Bloomier
        // setups (the node's lines above name any shard that was not).
        if (cycle > 0 && !ready.warm)
            warmSourcesOk = false;

        if (threads.empty())
            for (size_t i = 0; i < kClients; ++i)
                threads.emplace_back(clientThread, soak.seed(), port, i,
                                     std::ref(stop),
                                     std::ref(ackedTotal),
                                     std::ref(logs[i]));

        uint64_t target = ackedTotal.load() + kKillAfter;
        int64_t waited = soak::waitFor(
            [&] { return ackedTotal.load() >= target; }, 30000);
        if (waited < 0)
            std::printf("cycle %zu: ack storm stalled (have %llu)\n",
                        cycle,
                        static_cast<unsigned long long>(
                            ackedTotal.load()));

        if (cycle + 1 < kCycles) {
            ::kill(node, SIGKILL);
            ::waitpid(node, nullptr, 0);
            ++kills;
            std::printf("cycle %zu: SIGKILLed the node\n", cycle);
        } else {
            stop.store(true, std::memory_order_release);
            for (std::thread &t : threads)
                t.join();
            ::kill(node, SIGTERM);
            int status = 0;
            ::waitpid(node, &status, 0);
            drainExitOk =
                WIFEXITED(status) && WEXITSTATUS(status) == 0;
            std::printf("cycle %zu: SIGTERM drain exit %d\n", cycle,
                        WIFEXITED(status) ? WEXITSTATUS(status) : -1);
        }
    }
    if (!threads.empty() && !stop.load()) {
        stop.store(true, std::memory_order_release);
        for (std::thread &t : threads)
            t.join();
    }

    soak.check(spawnsOk, "every node incarnation came up");
    soak.check(kills >= 2, "at least two SIGKILL + warm-restart cycles");
    soak.check(drainExitOk, "final SIGTERM drain flushed and exited 0");
    soak.check(warmSourcesOk,
               "every restarted shard recovered from its own snapshot");

    // ---- Audit: per-shard journals vs acked promises ----------------
    std::unordered_set<std::string> sent;
    size_t attempted = 0;
    for (const ClientLog &log : logs) {
        attempted += log.attempted.size();
        for (const Update &u : log.attempted)
            sent.insert(updateIdent(u));
    }

    ShardedOptions popts = planeOptions(soak);
    size_t ackedCount = 0, ackedLost = 0, ackedMismatched = 0;
    size_t phantomRecords = 0;
    bool headersOk = true;
    std::vector<RoutingTable> shardTruth(kShards);
    std::vector<uint64_t> shardRecords(kShards, 0);
    std::vector<std::unordered_map<
        uint64_t, const persist::JournalRecord *>> bySeq(kShards);
    std::vector<persist::JournalScan> scans(kShards);

    for (size_t s = 0; s < kShards; ++s) {
        std::string path = popts.persistDir + "/shard-" +
                           std::to_string(s) + "/journal.log";
        uint64_t fp = shard::shardJournalFingerprint(
            config, s, kShards, kPartitionBits,
            ShardSelector::kDefaultSeed);
        scans[s] = persist::scanJournal(path, fp);
        if (!scans[s].headerOk) {
            headersOk = false;
            continue;
        }
        shardTruth[s] = soak::journalTruth({}, scans[s]);
        for (const persist::JournalRecord &rec : scans[s].records) {
            if (rec.type != persist::JournalRecord::Type::Update)
                continue;
            bySeq[s].emplace(rec.seq, &rec);
            ++shardRecords[s];
            if (sent.find(updateIdent(rec.update)) == sent.end())
                ++phantomRecords;
        }
    }
    soak.check(headersOk, "every shard journal survived the kill storm");

    for (const ClientLog &log : logs) {
        for (const AckedRec &ar : log.acked) {
            ++ackedCount;
            size_t s = selector.shardOf(ar.update.prefix);
            if (s == ShardSelector::kBroadcast) {
                continue;  // Storm sends /24s only; defensive.
            }
            auto it = bySeq[s].find(ar.seq);
            if (it == bySeq[s].end())
                ++ackedLost;
            else if (!(it->second->update == ar.update))
                ++ackedMismatched;
        }
    }
    soak.check(ackedCount > 0, "the storm produced acked updates");
    soak.check(ackedLost == 0, "zero acked-but-lost updates (per shard)");
    soak.check(ackedMismatched == 0,
               "every acked seq matches its update in its shard journal");
    soak.check(phantomRecords == 0, "zero phantom journal records");

    // ---- Audit: recovered shards == per-shard journal truth ---------
    popts.engine.controlThread = false;
    popts.audit = true;
    ShardedChisel recovered(RoutingTable{}, popts);

    size_t lostRoutes = 0, phantomRoutes = 0, auditFailed = 0;
    std::vector<size_t> shardRoutes(kShards, 0);
    RoutingTable unionTruth;
    for (size_t s = 0; s < kShards; ++s) {
        const shard::ShardRecovery &r = recovered.recovery()[s];
        if (!r.auditRan || !r.auditPassed)
            ++auditFailed;
        shardRoutes[s] = recovered.shardEngine(s).routeCount();
        for (const Route &route : shardTruth[s].routes()) {
            unionTruth.add(route.prefix, route.nextHop);
            LookupResult got =
                recovered.shardEngine(s).lookup(route.prefix.bits());
            if (!got.found || got.nextHop != route.nextHop ||
                got.matchedLength != route.prefix.length())
                ++lostRoutes;
        }
        if (shardRoutes[s] > shardTruth[s].size())
            phantomRoutes += shardRoutes[s] - shardTruth[s].size();
    }
    soak.check(auditFailed == 0,
               "per-shard recovery audit passed on every shard");
    soak.check(lostRoutes == 0,
               "every journal-truth route serves from its own shard");
    soak.check(phantomRoutes == 0, "zero phantom routes in any shard");

    // Oracle sample over the union truth through the sharded
    // front-end path.
    BinaryTrie oracle(unionTruth);
    Rng rng(soak.seed() + 42);
    size_t oracleWrong = 0;
    for (size_t i = 0; i < 4096; ++i) {
        uint32_t top = 16 + uint32_t(rng.nextBelow(200));
        Key128 key = Key128::fromIpv4(
            (top << 24) | uint32_t(rng.nextBelow(1u << 24)));
        auto want = oracle.lookup(key, 32);
        LookupResult got = recovered.lookup(key);
        bool same = want.has_value()
                        ? got.found && got.nextHop == want->nextHop
                        : !got.found;
        if (!same)
            ++oracleWrong;
    }
    soak.check(oracleWrong == 0, "binary-trie oracle agrees on key sample");

    net::ClientStats cs;
    uint64_t lookupsOk = 0;
    for (const ClientLog &log : logs) {
        cs.calls += log.stats.calls;
        cs.retries += log.stats.retries;
        cs.reconnects += log.stats.reconnects;
        lookupsOk += log.lookupsOk;
    }
    std::printf("storm: %llu calls, %zu updates attempted, %zu acked, "
                "%llu lookups ok, %llu retries, %llu reconnects\n",
                static_cast<unsigned long long>(cs.calls), attempted,
                ackedCount,
                static_cast<unsigned long long>(lookupsOk),
                static_cast<unsigned long long>(cs.retries),
                static_cast<unsigned long long>(cs.reconnects));
    for (size_t s = 0; s < kShards; ++s)
        std::printf("shard %zu: %llu journal records, %zu routes "
                    "(truth %zu)\n",
                    s,
                    static_cast<unsigned long long>(shardRecords[s]),
                    shardRoutes[s], shardTruth[s].size());

    if (soak.session().enabled()) {
        telemetry::MetricRegistry &reg = soak.session().registry();
        reg.gauge("shard.soak.shards").set(double(kShards));
        reg.gauge("shard.soak.kills").set(double(kills));
        reg.gauge("shard.soak.acked").set(double(ackedCount));
        reg.gauge("shard.soak.lost").set(double(ackedLost));
        reg.gauge("shard.soak.phantom").set(double(phantomRecords));
        reg.gauge("shard.soak.detect_ms").set(double(dr.detectMs));
        reg.gauge("shard.soak.recover_ms").set(double(dr.recoverMs));
        reg.gauge("shard.soak.healthy_p99_us")
            .set(double(demo.healthyP99Us));
    }

    soak.report("chisel.shard.v1", [&](telemetry::JsonWriter &w) {
        w.member("shards", uint64_t(kShards));
        w.member("partition_bits", kPartitionBits);
        w.member("cycles", uint64_t(kCycles));
        w.member("kills", uint64_t(kills));
        w.member("clients", uint64_t(kClients));
        w.member("calls", cs.calls);
        w.member("updates_attempted", uint64_t(attempted));
        w.member("acked", uint64_t(ackedCount));
        w.member("lost", uint64_t(ackedLost));
        w.member("acked_mismatched", uint64_t(ackedMismatched));
        w.member("phantom", uint64_t(phantomRecords));
        w.member("lost_routes", uint64_t(lostRoutes));
        w.member("phantom_routes", uint64_t(phantomRoutes));
        w.member("oracle_mismatches", uint64_t(oracleWrong));
        w.member("warm_sources_ok", warmSourcesOk);
        w.member("drain_exit_ok", drainExitOk);
        w.member("sick_slice_overloaded", demo.sickSliceOverloaded);
        w.member("siblings_served", demo.siblingsServed);
        w.member("healthy_p99_us", demo.healthyP99Us);
        w.member("detect_ms", uint64_t(dr.detectMs));
        w.member("recover_ms", uint64_t(dr.recoverMs));
        w.member("siblings_stayed_healthy", dr.siblingsHealthy);
        w.member("lookups_ok", lookupsOk);
        w.member("client_retries", cs.retries);
        w.member("client_reconnects", cs.reconnects);
        w.key("per_shard");
        w.beginArray();
        for (size_t s = 0; s < kShards; ++s) {
            w.beginObject();
            w.member("shard", uint64_t(s));
            w.member("journal_records", shardRecords[s]);
            w.member("routes", uint64_t(shardRoutes[s]));
            w.member("truth_routes",
                     uint64_t(shardTruth[s].size()));
            w.member("last_seq", scans[s].lastSeq);
            w.endObject();
        }
        w.endArray();
    });
    return soak.finish();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    soak::Soak soak({.name = "shard_soak",
                     .summary = "Sharded dataplane kill/quarantine drill: "
                                "per-shard fault storm, SIGKILL + warm "
                                "restart, per-shard journal audit.",
                     .seed = 0x54a2d,
                     .report = true,
                     .childRole = "node"});
    if (int rc = soak.parse(argc, argv); rc >= 0)
        return rc;
    return soak.isChild() ? nodeMain(soak) : driverMain(soak);
}
