/**
 * @file
 * Failover soak: a two-process leader-kill drill for the warm-standby
 * replication stack (docs/replication.md).
 *
 * The driver re-execs itself as a --role=leader child.  The leader
 * runs a flap storm with engine fault points armed through a
 * journaled ConcurrentChisel, the journal's one writer; a
 * ReplicationLog attached to that journal ships what it writes to
 * the driver's follower over loopback TCP, health-ladder purges and
 * resizes included.  The follower joins late on purpose, so it
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
 * A chisel.failover.v1 JSON report (where --json=<path> points)
 * carries detection and failover times plus replay lag; exit status
 * is nonzero on any violation so CI runs this binary directly as its
 * failover leg.  Flags: --seed=<n>, --json=<path> and the telemetry
 * flags; --role, --port and --dir are the leader child's.
 */

#include <chrono>
#include <cstdio>
#include <memory>
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
#include "soak.hh"
#include "telemetry/metrics.hh"

namespace {

using namespace chisel;
using concurrent::ConcurrentChisel;
using concurrent::ConcurrentOptions;

constexpr size_t kRoutes = 4000;
constexpr size_t kUpdates = 8000;      ///< Storm cycle length.
constexpr uint64_t kKillAfter = 1500;  ///< Follower-applied records.
/** The leader's ship tail: small, so a late follower needs a snapshot. */
constexpr size_t kShipTail = 512;
/** The follower joins once the leader journaled this many records. */
constexpr uint64_t kJoinAfter = 2 * kShipTail;
/** The leader's journal in the run directory; the driver audits it. */
constexpr char kJournal[] = "/leader.journal";

/** The leader and the driver must derive identical scenarios. */
ChiselConfig
soakConfig()
{
    ChiselConfig config;
    config.dirtyBudgetPerCell = 512;
    return config;
}

// ---- Leader child ----------------------------------------------------

int
leaderMain(const soak::Soak &soak)
{
    RoutingTable table = generateScaledTable(kRoutes, 32, soak.seed());
    TraceProfile prof;
    prof.flapStorm = true;
    std::vector<Update> storm =
        UpdateTraceGenerator(table, prof, 32, soak.seed() + 2)
            .generate(kUpdates);
    ChiselConfig config = soakConfig();
    uint64_t fingerprint = configFingerprint(config);

    // The storm runs with the engine-path fault points armed; the
    // snapshot provider scrubs right before imaging, so a shipped
    // image seldom carries a flipped bit, and one that lands between
    // the two fails parity on the follower like any soft error.
    fault::FaultInjector inj(soak.seed() + 3);
    inj.arm(fault::FaultPoint::BloomierSetupFail, 0.1, 20);
    inj.arm(fault::FaultPoint::ForceNonSingleton, 0.2, 100);
    inj.arm(fault::FaultPoint::TcamOverflow, 0.1, 20);
    inj.arm(fault::FaultPoint::BitFlipIndex, 0.005, 5);
    inj.arm(fault::FaultPoint::BitFlipResult, 0.005, 5);

    ConcurrentOptions copts;
    copts.controlThread = true;
    copts.healthInterval = std::chrono::milliseconds(2);
    copts.faultInjector = &inj;

    // The shipper attaches to the journal before the engine takes it,
    // and outlives the engine's last write.
    auto journal = std::make_unique<persist::UpdateJournal>(
        soak.dir() + kJournal, fingerprint, 1);
    replica::ReplicationOptions ropts;
    ropts.epoch = 1;
    ropts.tailCapacity = kShipTail;
    ropts.heartbeatMs = 25;
    replica::ReplicationLog rlog(*journal, ropts);
    ConcurrentChisel engine(std::make_unique<ChiselEngine>(table, config),
                            copts, std::move(journal));

    rlog.start(
        [&soak] { return replica::tcpConnect(soak.port(), 500); },
        [&](uint64_t &covered) {
            engine.scrubNow();
            return engine.snapshotImage(&covered);
        });

    std::printf("leader: pid %d storming %zu routes to port %u\n",
                getpid(), kRoutes, unsigned(soak.port()));

    // The storm cycles until the driver kills us.  The engine journals
    // every update before applying it; an append the journal refuses
    // rejects the update and stops the run (a leader that cannot log
    // must stop acknowledging, and here acknowledging IS applying).
    for (size_t i = 0;; ++i) {
        uint64_t seq = 0;
        engine.apply(storm[i % storm.size()], &seq);
        if (seq == 0) {
            std::printf("leader: journal refused an append; stopping "
                        "degraded\n");
            rlog.stop();
            return 3;
        }
        if (i % 32 == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

// ---- Driver ----------------------------------------------------------

int
driverMain(soak::Soak &soak)
{
    const std::string journal = soak.dir() + kJournal;
    RoutingTable table = generateScaledTable(kRoutes, 32, soak.seed());
    std::vector<Key128> keys =
        generateLookupKeys(table, 4096, 32, 0.7, soak.seed() + 1);
    ChiselConfig config = soakConfig();
    uint64_t fingerprint = configFingerprint(config);

    replica::TcpListener listener;
    if (!listener.listen(0))
        return soak.abandon("bound a loopback listener");

    ConcurrentOptions fopts;
    fopts.controlThread = false;
    ConcurrentChisel standby(table, config, fopts);

    replica::FollowerOptions fo;
    fo.heartbeatTimeoutMs = 250;
    replica::Follower follower(standby, fingerprint, fo);

    pid_t leader = soak.spawnSelf(listener.port());
    if (leader <= 0)
        return soak.abandon("spawned the leader child");
    std::printf("driver: leader pid %d on port %u\n", leader,
                listener.port());

    // Join late: once the leader's journal runs well past its ship
    // tail, the early records are evicted, so the follower must
    // bootstrap from a shipped snapshot — never from a genesis replay,
    // never through Bloomier setup.
    if (soak::waitFor(
            [&] {
                return persist::scanJournal(journal, fingerprint)
                           .lastSeq >= kJoinAfter;
            },
            15000) < 0) {
        ::kill(leader, SIGKILL);
        ::waitpid(leader, nullptr, 0);
        return soak.abandon("leader journaled past its ship tail");
    }
    follower.start(listener);

    int64_t sync_ms = soak::waitFor(
        [&] {
            replica::FollowerStats s = follower.stats();
            return s.connected && s.recordsApplied >= kKillAfter;
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
        return soak.abandon("follower synced before the kill");
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
        soak::waitFor([&] { return follower.leaderSilent(); }, 5000);
    if (detect_ms < 0) {
        follower.stop();
        return soak.abandon("leader death detected");
    }

    replica::PromotionReport promo = follower.promote(journal);
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
    persist::JournalScan scan = persist::scanJournal(journal, fingerprint);
    soak::RouteAudit audit =
        soak::auditRoutes(standby, soak::journalTruth(table, scan), keys);

    // ---- The revived stale leader -----------------------------------
    //
    // A ReplicationLog still stamped with the dead leader's epoch
    // reconnects; the promoted follower's higher epoch must fence it
    // (the stale leader latches fenced() and stops shipping for good).
    replica::ReplicationOptions sopts;
    sopts.epoch = 1;
    sopts.backoffMinMs = 5;
    persist::UpdateJournal staleJournal(soak.dir() + "/stale.journal",
                                        fingerprint);
    replica::ReplicationLog stale(staleJournal, sopts);
    uint16_t port = listener.port();
    stale.start([port] { return replica::tcpConnect(port, 500); },
                nullptr);
    bool fenced =
        soak::waitFor([&] { return stale.fenced(); }, 3000) >= 0;
    stale.stop();

    follower.stop();
    replica::FollowerStats fs = follower.stats();

    // ---- Verdict ----------------------------------------------------
    std::printf("verdict:\n");
    soak.check(scan.headerOk, "leader journal valid prefix recovered");
    soak.check(scan.lastSeq > 0, "journal-synced history is non-empty");
    soak.check(fs.snapshotsInstalled > 0,
               "follower bootstrapped from a shipped snapshot");
    soak.check(audit.lost == 0, "zero journal-synced routes lost");
    soak.check(audit.phantom == 0, "zero phantom routes");
    soak.check(audit.wrong == 0, "oracle agreement on key sample");
    soak.check(promo.epoch > 1, "promotion advanced the fencing epoch");
    soak.check(follower.lastAppliedSeq() == scan.lastSeq,
               "promotion replayed the journal to its durable head");
    soak.check(fenced, "revived stale leader was fenced off");

    if (soak.session().enabled()) {
        telemetry::MetricRegistry &registry = soak.session().registry();
        registry.gauge("failover.detect_ms").set(double(detect_ms));
        registry.gauge("failover.failover_ms").set(failover_ms);
        registry.gauge("failover.replayed_records")
            .set(double(promo.replayedRecords));
        registry.gauge("failover.lost").set(double(audit.lost));
        registry.gauge("failover.phantom").set(double(audit.phantom));
        registry.gauge("failover.oracle_mismatches")
            .set(double(audit.wrong));
        follower.publish(registry, "replica");
    }

    soak.report("chisel.failover.v1", [&](telemetry::JsonWriter &w) {
        w.member("detect_ms", uint64_t(detect_ms));
        w.member("failover_ms", failover_ms);
        w.member("replay_lag_records", promo.replayedRecords);
        w.member("promoted_epoch", promo.epoch);
        w.member("journal_last_seq", scan.lastSeq);
        w.member("follower_applied_seq", follower.lastAppliedSeq());
        w.member("records_applied", fs.recordsApplied);
        w.member("snapshots_installed", fs.snapshotsInstalled);
        w.member("duplicates_skipped", fs.duplicatesSkipped);
        w.member("lost", uint64_t(audit.lost));
        w.member("phantom", uint64_t(audit.phantom));
        w.member("oracle_mismatches", uint64_t(audit.wrong));
        w.member("fenced_stale_leader", fenced);
        w.member("fence_rejects", fs.fenceRejects);
    });
    return soak.finish();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    soak::Soak soak({.name = "failover_soak",
                     .summary = "Leader-kill failover drill: storm, "
                                "SIGKILL, promote, audit.",
                     .seed = 0xFA11,
                     .report = true,
                     .childRole = "leader"});
    if (int rc = soak.parse(argc, argv); rc >= 0)
        return rc;
    return soak.isChild() ? leaderMain(soak) : driverMain(soak);
}
