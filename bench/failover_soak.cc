/**
 * @file
 * Failover soak: a two-process leader-kill drill for the warm-standby
 * replication stack (docs/replication.md).
 *
 * The driver re-execs itself as a --role=leader child.  The leader
 * runs a flap storm with engine fault points armed, journaling every
 * update through a ReplicationLog that ships to the driver's follower
 * over loopback TCP.  The follower joins late on purpose, so it
 * bootstraps from a shipped snapshot before tailing records.
 * Mid-storm the driver SIGKILLs the leader, detects the silence,
 * promotes the follower (replaying the valid prefix of the leader's
 * journal), and audits:
 *
 *  - every route in the journal-synced truth is served with the right
 *    next hop (zero lost) and no extras exist (zero phantom);
 *  - a binary-trie oracle agrees on a random key sample;
 *  - a revived stale leader (old fencing epoch) is fenced off.
 *
 * A chisel.failover.v1 JSON artifact reports detection and failover
 * times plus replay lag; exit status is nonzero on any violation so
 * CI runs this binary directly as its failover leg.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/clock.hh"
#include "concurrent/concurrent_engine.hh"
#include "fault/fault.hh"
#include "persist/journal.hh"
#include "replica/follower.hh"
#include "replica/replication_log.hh"
#include "route/synth.hh"
#include "route/updates.hh"
#include "telemetry/cli.hh"
#include "telemetry/json.hh"
#include "telemetry/metrics.hh"
#include "trie/binary_trie.hh"

namespace {

using namespace chisel;
using concurrent::ConcurrentChisel;
using concurrent::ConcurrentOptions;

size_t g_failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("  %-52s %s\n", what, ok ? "ok" : "FAIL");
    if (!ok)
        ++g_failures;
}

/** All knobs; the leader child re-parses the same table. */
struct SoakOptions
{
    std::string role = "driver";
    uint64_t port = 0;                 ///< Leader: follower's port.
    std::string journal = "failover_soak.journal";
    std::string json = "failover_soak.json";
    size_t routes = 4000;
    size_t updates = 8000;             ///< Storm cycle length.
    uint64_t seed = 0xFA11;
    uint64_t killAfter = 1500;         ///< Follower-applied records.
};

/** The leader and the driver must derive identical scenarios. */
ChiselConfig
soakConfig()
{
    ChiselConfig config;
    config.dirtyBudgetPerCell = 512;
    return config;
}

std::vector<Update>
soakStorm(const RoutingTable &table, const SoakOptions &o)
{
    TraceProfile prof;
    prof.flapStorm = true;
    UpdateTraceGenerator gen(table, prof, 32, o.seed + 2);
    return gen.generate(o.updates);
}

// ---- Leader child ----------------------------------------------------

int
leaderMain(const SoakOptions &o)
{
    RoutingTable table = generateScaledTable(o.routes, 32, o.seed);
    std::vector<Update> storm = soakStorm(table, o);
    ChiselConfig config = soakConfig();
    uint64_t fingerprint = configFingerprint(config);

    // The storm runs with the engine-path fault points armed; the
    // snapshot provider scrubs before imaging so a shipped image never
    // carries a fault-induced divergence forward.
    fault::FaultInjector inj(o.seed + 3);
    inj.arm(fault::FaultPoint::BloomierSetupFail, 0.1, 20);
    inj.arm(fault::FaultPoint::ForceNonSingleton, 0.2, 100);
    inj.arm(fault::FaultPoint::TcamOverflow, 0.1, 20);
    inj.arm(fault::FaultPoint::BitFlipIndex, 0.005, 5);
    inj.arm(fault::FaultPoint::BitFlipResult, 0.005, 5);

    ConcurrentOptions copts;
    copts.controlThread = true;
    copts.healthMonitor = true;
    copts.healthInterval = std::chrono::milliseconds(2);
    copts.faultInjector = &inj;
    ConcurrentChisel engine(table, config, copts);

    replica::ReplicationOptions ropts;
    ropts.epoch = 1;
    ropts.tailCapacity = 512;  // Small: a late follower needs the
                               // snapshot path, which is the point.
    ropts.heartbeatMs = 25;
    replica::ReplicationLog rlog(o.journal, fingerprint, 1, ropts);

    // The storm holds this around append + apply, and the snapshot
    // provider (on the shipper thread) around scrub + image, so an
    // image covers exactly the records appended before it.
    std::mutex stormMutex;
    uint64_t lastAppended = 0;

    rlog.start(
        [&o] { return replica::tcpConnect(uint16_t(o.port), 500); },
        [&](uint64_t &covered) -> std::vector<uint8_t> {
            std::lock_guard<std::mutex> lk(stormMutex);
            covered = lastAppended;
            engine.scrubNow();
            return engine.snapshotImage(covered);
        });

    std::printf("leader: pid %d storming %zu routes to port %llu\n",
                getpid(), o.routes,
                static_cast<unsigned long long>(o.port));

    // The storm cycles until the driver kills us.  Every update is
    // durably journaled BEFORE it is applied; an append the journal
    // refuses stops the run (a leader that cannot log must stop
    // acknowledging, and here acknowledging IS applying).
    for (size_t i = 0;; ++i) {
        const Update &u = storm[i % storm.size()];
        {
            std::lock_guard<std::mutex> lk(stormMutex);
            uint64_t seq = rlog.append(u);
            if (seq == 0) {
                std::printf("leader: journal refused append (%llu I/O "
                            "errors); stopping degraded\n",
                            static_cast<unsigned long long>(
                                rlog.ioErrors()));
                return 3;
            }
            lastAppended = seq;
            engine.apply(u);
        }
        if (i % 32 == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

// ---- Driver ----------------------------------------------------------

pid_t
spawnLeader(const SoakOptions &o, uint16_t port)
{
    char exe[4096];
    ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n <= 0)
        return -1;
    exe[n] = '\0';

    std::vector<std::string> args = {
        exe,
        "--role=leader",
        "--port=" + std::to_string(port),
        "--journal=" + o.journal,
        "--routes=" + std::to_string(o.routes),
        "--updates=" + std::to_string(o.updates),
        "--seed=" + std::to_string(o.seed),
    };
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    pid_t pid = ::fork();
    if (pid == 0) {
        ::execv(exe, argv.data());
        _exit(127);
    }
    return pid;
}

/** Poll @p cond up to @p limit_ms; @return ms waited, or -1. */
int64_t
waitFor(const std::function<bool()> &cond, int64_t limit_ms)
{
    uint64_t t0 = monotonicNowNs();
    while (!cond()) {
        if (int64_t((monotonicNowNs() - t0) / 1000000) > limit_ms)
            return -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return int64_t((monotonicNowNs() - t0) / 1000000);
}

int
driverMain(const SoakOptions &o, telemetry::TelemetrySession &session)
{
    std::remove(o.journal.c_str());
    const std::string stale_journal = o.journal + ".stale";
    std::remove(stale_journal.c_str());

    RoutingTable table = generateScaledTable(o.routes, 32, o.seed);
    std::vector<Key128> keys =
        generateLookupKeys(table, 4096, 32, 0.7, o.seed + 1);
    ChiselConfig config = soakConfig();
    uint64_t fingerprint = configFingerprint(config);

    replica::TcpListener listener;
    if (!listener.listen(0)) {
        std::printf("cannot bind a loopback listener\n");
        return 1;
    }

    ConcurrentOptions fopts;
    fopts.controlThread = false;
    ConcurrentChisel standby(table, config, fopts);

    replica::FollowerOptions fo;
    fo.heartbeatTimeoutMs = 250;
    replica::Follower follower(standby, fingerprint, fo);

    pid_t leader = spawnLeader(o, listener.port());
    if (leader <= 0) {
        std::printf("cannot spawn the leader child\n");
        return 1;
    }
    std::printf("driver: leader pid %d on port %u\n", leader,
                listener.port());

    // Join late: by now the leader's ship tail has evicted the early
    // records, so the follower must bootstrap from a shipped snapshot
    // — never from a genesis replay, never through Bloomier setup.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    follower.start(listener);

    int64_t sync_ms = waitFor(
        [&] {
            replica::FollowerStats s = follower.stats();
            return s.connected && s.recordsApplied >= o.killAfter;
        },
        15000);
    if (sync_ms < 0) {
        replica::FollowerStats s = follower.stats();
        std::printf("follower never synced: connected=%d applied=%llu "
                    "installed=%llu\n",
                    int(s.connected),
                    static_cast<unsigned long long>(s.recordsApplied),
                    static_cast<unsigned long long>(
                        s.snapshotsInstalled));
        ::kill(leader, SIGKILL);
        ::waitpid(leader, nullptr, 0);
        follower.stop();
        return 1;
    }
    replica::FollowerStats synced = follower.stats();
    std::printf("driver: follower synced in %lld ms (applied %llu, "
                "snapshots %llu); killing leader\n",
                static_cast<long long>(sync_ms),
                static_cast<unsigned long long>(synced.recordsApplied),
                static_cast<unsigned long long>(
                    synced.snapshotsInstalled));

    // ---- The kill ---------------------------------------------------
    uint64_t t_kill = monotonicNowNs();
    ::kill(leader, SIGKILL);
    ::waitpid(leader, nullptr, 0);

    int64_t detect_ms =
        waitFor([&] { return follower.leaderSilent(); }, 5000);
    if (detect_ms < 0) {
        std::printf("leader death was never detected\n");
        follower.stop();
        return 1;
    }

    replica::PromotionReport promo = follower.promote(o.journal);
    double failover_ms =
        double(monotonicNowNs() - t_kill) / 1e6;
    std::printf("driver: detected in %lld ms, promoted to epoch %llu "
                "in %.1f ms (replayed %llu journal records)\n",
                static_cast<long long>(detect_ms),
                static_cast<unsigned long long>(promo.epoch),
                failover_ms,
                static_cast<unsigned long long>(
                    promo.replayedRecords));

    // ---- Audit: journal-synced truth vs the promoted standby --------
    persist::JournalScan scan =
        persist::scanJournal(o.journal, fingerprint);
    RoutingTable truth = table;
    for (const persist::JournalRecord &rec : scan.records) {
        if (rec.type != persist::JournalRecord::Type::Update)
            continue;
        if (rec.update.kind == UpdateKind::Announce)
            truth.add(rec.update.prefix, rec.update.nextHop);
        else
            truth.remove(rec.update.prefix);
    }

    size_t lost = 0, wrong = 0;
    for (const Route &r : truth.routes()) {
        auto nh = standby.find(r.prefix);
        if (!nh || *nh != r.nextHop)
            ++lost;
    }
    BinaryTrie oracle(truth);
    for (const Key128 &k : keys) {
        auto a = oracle.lookup(k, 32);
        auto b = standby.lookup(k);
        if (a.has_value() != b.found || (a && a->nextHop != b.nextHop))
            ++wrong;
    }
    size_t phantom = standby.routeCount() > truth.size()
                         ? standby.routeCount() - truth.size()
                         : 0;

    // ---- The revived stale leader -----------------------------------
    //
    // A ReplicationLog still stamped with the dead leader's epoch
    // reconnects; the promoted follower's higher epoch must fence it
    // (the stale leader latches fenced() and stops shipping for good).
    replica::ReplicationOptions sopts;
    sopts.epoch = 1;
    sopts.backoffMinMs = 5;
    replica::ReplicationLog stale(stale_journal, fingerprint, 1, sopts);
    uint16_t port = listener.port();
    stale.start([port] { return replica::tcpConnect(port, 500); },
                nullptr);
    bool fenced =
        waitFor([&] { return stale.fenced(); }, 3000) >= 0;
    stale.stop();

    follower.stop();
    replica::FollowerStats fs = follower.stats();

    // ---- Verdict ----------------------------------------------------
    std::printf("verdict:\n");
    check(scan.headerOk, "leader journal valid prefix recovered");
    check(scan.lastSeq > 0, "journal-synced history is non-empty");
    check(fs.snapshotsInstalled > 0,
          "follower bootstrapped from a shipped snapshot");
    check(lost == 0, "zero journal-synced routes lost");
    check(phantom == 0, "zero phantom routes");
    check(wrong == 0, "oracle agreement on key sample");
    check(promo.epoch > 1, "promotion advanced the fencing epoch");
    check(follower.lastAppliedSeq() == scan.lastSeq,
          "promotion replayed the journal to its durable head");
    check(fenced, "revived stale leader was fenced off");

    if (session.enabled()) {
        telemetry::MetricRegistry &registry = session.registry();
        registry.gauge("failover.detect_ms").set(double(detect_ms));
        registry.gauge("failover.failover_ms").set(failover_ms);
        registry.gauge("failover.replayed_records")
            .set(double(promo.replayedRecords));
        registry.gauge("failover.lost").set(double(lost));
        registry.gauge("failover.phantom").set(double(phantom));
        registry.gauge("failover.oracle_mismatches")
            .set(double(wrong));
        follower.publish(registry, "replica");
    }

    // ---- chisel.failover.v1 artifact --------------------------------
    std::ostringstream os;
    {
        telemetry::JsonWriter w(os, true);
        w.beginObject();
        w.member("schema", "chisel.failover.v1");
        w.member("detect_ms", uint64_t(detect_ms));
        w.member("failover_ms", failover_ms);
        w.member("replay_lag_records", promo.replayedRecords);
        w.member("promoted_epoch", promo.epoch);
        w.member("journal_last_seq", scan.lastSeq);
        w.member("follower_applied_seq", follower.lastAppliedSeq());
        w.member("records_applied", fs.recordsApplied);
        w.member("snapshots_installed", fs.snapshotsInstalled);
        w.member("duplicates_skipped", fs.duplicatesSkipped);
        w.member("lost", uint64_t(lost));
        w.member("phantom", uint64_t(phantom));
        w.member("oracle_mismatches", uint64_t(wrong));
        w.member("fenced_stale_leader", fenced);
        w.member("fence_rejects", fs.fenceRejects);
        w.endObject();
    }
    if (std::FILE *f = std::fopen(o.json.c_str(), "w")) {
        std::fputs(os.str().c_str(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("failover report written to %s\n", o.json.c_str());
    }

    std::remove(o.journal.c_str());
    std::remove(stale_journal.c_str());

    std::printf("failover soak: %s (%zu failure%s)\n",
                g_failures == 0 ? "PASS" : "FAIL", g_failures,
                g_failures == 1 ? "" : "s");
    return g_failures == 0 ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    auto topts = telemetry::TelemetryOptions::parse(argc, argv);

    SoakOptions o;
    telemetry::FlagTable flags(
        "failover_soak",
        "Leader-kill failover drill: storm, SIGKILL, promote, audit.");
    flags.stringFlag("role", "driver (default) or leader (internal: "
                             "the re-exec'd storm child)",
                     &o.role)
        .u64Flag("port", "leader only: the follower's TCP port",
                 &o.port)
        .stringFlag("journal", "leader journal path (shared with the "
                               "driver's audit)",
                    &o.journal)
        .stringFlag("json", "chisel.failover.v1 report path", &o.json)
        .sizeFlag("routes", "table size (default 4000)", &o.routes)
        .sizeFlag("updates", "storm cycle length (default 8000)",
                  &o.updates)
        .u64Flag("seed", "deterministic scenario seed", &o.seed)
        .u64Flag("kill-after", "follower-applied records before the "
                               "kill (default 1500)",
                 &o.killAfter);
    if (!flags.parseStrict(argc, argv))
        return flags.helpRequested() ? 0 : 2;

    if (o.role == "leader")
        return leaderMain(o);
    if (o.role != "driver") {
        std::fprintf(stderr, "failover_soak: unknown --role '%s'\n",
                     o.role.c_str());
        return 2;
    }

    telemetry::TelemetrySession session(topts);
    int rc = driverMain(o, session);
    session.finish();
    return rc;
}
