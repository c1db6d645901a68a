/**
 * @file
 * Churn soak: capacity elasticity under unbounded growth
 * (docs/robustness.md, "Lifecycle: TTL expiry and live resize").
 *
 * A growth-heavy Zipf churn storm (most updates announce previously
 * unseen prefixes) runs against a deliberately under-provisioned
 * engine with TTL expiry on, background GC journaling every Expire,
 * and the health monitor armed to execute capacity-driven live
 * resizes.  Engine fault points (setup failures, forced non-singleton
 * groups, TCAM overflow) stay armed throughout, so the pressure
 * signals fire the way a production incident would, not the way a
 * clean benchmark does.  Parity bit-flip faults are deliberately NOT
 * armed: they corrupt lookups by design (the scrub soak owns that
 * scenario), and this drill asserts zero serving gaps.
 *
 * A set of pinned (kTtlNever) /32 probe routes is announced before
 * the storm and checked continuously by reader threads via
 * lookupTagged: /32 is the longest possible v4 match and the storm is
 * filtered around the probe addresses, so every probe lookup must
 * return its exact next hop at every instant — across GC passes,
 * health-ladder actions and (the point of the drill) live resizes.
 * Any miss or wrong next hop is a serving gap.
 *
 * The storm runs until the engine has published at least two live
 * resizes and GC has retired entries, then audits:
 *
 *  - truth = initial table advanced through the journal (Announce
 *    adds; Withdraw AND Expire remove — GC is journal-visible), and
 *    every truth route must be served with the right next hop (zero
 *    lost), with no extras (zero phantom: expired entries must not
 *    resolve);
 *  - a binary-trie oracle agrees on a random key sample;
 *  - a warm restart (recoverEngine with audit) replays the same
 *    journal — Expires and ResizeMarks included — to the same state.
 *
 * Writes a chisel.churn.v1 JSON report where --json=<path> points;
 * nonzero exit on any violation, so CI runs this binary directly as
 * its churn leg.  Flags: --seed=<n>, --json=<path> and the telemetry
 * flags.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/clock.hh"
#include "common/random.hh"
#include "concurrent/concurrent_engine.hh"
#include "core/resize.hh"
#include "fault/fault.hh"
#include "persist/journal.hh"
#include "persist/recovery.hh"
#include "route/synth.hh"
#include "route/updates.hh"
#include "soak.hh"
#include "telemetry/metrics.hh"

namespace {

using namespace chisel;
using concurrent::ConcurrentChisel;
using concurrent::ConcurrentOptions;

constexpr size_t kRoutes = 512;       ///< Initial table: room to grow.
constexpr size_t kProbes = 64;        ///< Pinned /32 canary routes.
constexpr uint64_t kTtlMs = 1500;     ///< Default route TTL.
constexpr uint64_t kMinResizes = 2;   ///< Stop condition.
constexpr uint64_t kLimitMs = 45000;  ///< Hard wall-clock cap.

} // anonymous namespace

int
main(int argc, char **argv)
{
    soak::Soak soak({.name = "churn_soak",
                     .summary = "TTL churn + live-resize drill: storm, "
                                "GC, resize, audit.",
                     .seed = 0xC409,
                     .report = true});
    if (int rc = soak.parse(argc, argv); rc >= 0)
        return rc;
    const uint64_t seed = soak.seed();
    const std::string journal = soak.dir() + "/churn.journal";

    RoutingTable table = generateScaledTable(kRoutes, 32, seed);
    // Under-provisioned on purpose: growth must force resizes.
    ChiselConfig config;
    config.spillCapacity = 8;
    config.slowPathCapacity = 4096;
    config.minCellCapacity = 64;
    config.dirtyBudgetPerCell = 256;
    config.defaultTtlMs = kTtlMs;

    // Pinned probe routes: random /32 addresses not present in the
    // initial table.  kTtlNever exempts them from GC, so any reader
    // ever missing one is a serving gap, never an expiry.
    Rng rng(seed + 1);
    std::vector<Prefix> probes;
    std::unordered_set<Prefix, PrefixHasher> probeSet;
    while (probes.size() < kProbes) {
        Prefix p = Prefix::ipv4(
            static_cast<uint32_t>(rng.nextBelow(0xFFFFFFFFull)), 32);
        if (table.contains(p) || probeSet.count(p))
            continue;
        probes.push_back(p);
        probeSet.insert(p);
    }
    auto probeHop = [](size_t i) {
        return static_cast<NextHop>(0xBEEF00 + i);
    };

    // Setup/capacity fault points stay armed for the whole storm.
    fault::FaultInjector inj(seed + 2);
    inj.arm(fault::FaultPoint::BloomierSetupFail, 0.1, 20);
    inj.arm(fault::FaultPoint::ForceNonSingleton, 0.2, 100);
    inj.arm(fault::FaultPoint::TcamOverflow, 0.1, 20);

    ConcurrentOptions copts;
    copts.controlThread = true;
    copts.healthInterval = std::chrono::milliseconds(2);
    copts.health.resizeAfter = 2;
    copts.gcInterval = std::chrono::milliseconds(5);
    copts.gcBatch = 512;
    // Logical TTL time, advanced by the storm loop: the audit freezes
    // the clock simply by not advancing it, so nothing expires between
    // the journal scan and the engine probe — and the run is
    // compressed (each storm batch = 25 logical ms) and repeatable.
    copts.ttlWallClock = false;
    copts.faultInjector = &inj;
    // The engine writes its own journal.  The identity is the elastic
    // fingerprint: live resizes change capacities mid-stream, and the
    // journal must remain THIS engine's history across every one.
    ConcurrentChisel engine(
        std::make_unique<ChiselEngine>(table, config), copts,
        std::make_unique<persist::UpdateJournal>(
            journal, elasticFingerprint(config), /*fsync_every=*/16));

    // Announce the probes through the normal (journaled) path, then
    // verify them once before unleashing the storm.
    for (size_t i = 0; i < probes.size(); ++i)
        engine.announce(probes[i], probeHop(i), kTtlNever);
    for (size_t i = 0; i < probes.size(); ++i) {
        auto nh = engine.find(probes[i]);
        if (!nh || *nh != probeHop(i)) {
            std::printf("probe %zu unreachable before the storm\n", i);
            soak.check(false, "every probe served before the storm");
            return soak.finish();
        }
    }

    // Probe readers: hammer the canaries for the whole run.  A probe
    // is a /32, nothing can shadow it, and the storm never touches its
    // address — so found-with-right-hop is the only legal answer, in
    // every generation, mid-flip included.
    std::atomic<bool> stopReaders{false};
    std::atomic<uint64_t> probeChecks{0};
    std::atomic<uint64_t> probeGaps{0};
    // Coverage needs continuity, not throughput: on a small box,
    // spinning readers would starve the writer's grace periods (every
    // flip waits for reader epochs to turn over).
    size_t nReaders = std::thread::hardware_concurrency() >= 4 ? 3 : 1;
    std::vector<std::thread> readers;
    for (size_t t = 0; t < nReaders; ++t) {
        readers.emplace_back([&, t] {
            uint64_t checks = 0, gaps = 0;
            size_t i = t;
            while (!stopReaders.load(std::memory_order_acquire)) {
                const Prefix &p = probes[i % probes.size()];
                concurrent::TaggedLookup r =
                    engine.lookupTagged(p.bits());
                if (!r.result.found ||
                    r.result.nextHop != probeHop(i % probes.size()))
                    ++gaps;
                ++checks;
                ++i;
                // Stay continuously in the reader's hot path but let
                // the storm and the maintenance thread (and on 1-core
                // boxes, anything at all) run between bursts.
                if (checks % 64 == 0)
                    std::this_thread::yield();
                if (checks % 2048 == 0)
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
            }
            probeChecks.fetch_add(checks, std::memory_order_relaxed);
            probeGaps.fetch_add(gaps, std::memory_order_relaxed);
        });
    }

    // Growth-heavy churn: most updates announce fresh prefixes, so
    // the route set climbs toward the capacity ceiling no matter how
    // much GC reclaims.
    TraceProfile prof;
    prof.withdraws = 0.05;
    prof.routeFlaps = 0.05;
    prof.nextHopChanges = 0.20;
    prof.newPrefixes = 0.70;
    UpdateTraceGenerator gen(table, prof, 32, seed + 3);

    std::printf("churn soak: %zu routes, %zu probes, ttl %llu ms, "
                "storming until %llu resizes (cap %llu ms)\n",
                kRoutes, kProbes,
                static_cast<unsigned long long>(kTtlMs),
                static_cast<unsigned long long>(kMinResizes),
                static_cast<unsigned long long>(kLimitMs));

    uint64_t t0 = monotonicNowNs();
    uint64_t storm_updates = 0;
    for (;;) {
        uint64_t elapsed_ms = (monotonicNowNs() - t0) / 1000000;
        if ((engine.resizes() >= kMinResizes && engine.expired() > 0) ||
            elapsed_ms > kLimitMs)
            break;
        Update u = gen.next();
        if (probeSet.count(u.prefix))
            continue;   // Never let the storm touch a canary.
        engine.apply(u);
        ++storm_updates;
        if (storm_updates % 64 == 0) {
            engine.advanceTtlClock(25);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (storm_updates % 8192 == 0)
            std::printf("  ... %llu updates, %llu resizes, %llu expired, "
                        "%zu routes (%llu ms)\n",
                        static_cast<unsigned long long>(storm_updates),
                        static_cast<unsigned long long>(engine.resizes()),
                        static_cast<unsigned long long>(engine.expired()),
                        engine.routeCount(),
                        static_cast<unsigned long long>(elapsed_ms));
    }
    // Settle: with the logical clock now frozen, collect every
    // already-due entry so the journal holds the complete Expire
    // history before the audit reads it.
    while (engine.gcTick() != 0) {}
    double duration_ms = double(monotonicNowNs() - t0) / 1e6;

    stopReaders.store(true, std::memory_order_release);
    for (std::thread &r : readers)
        r.join();
    engine.ensureDurable(engine.journalSeq());

    std::printf("storm: %llu updates in %.0f ms; %llu resizes, %llu "
                "expired, %llu slow-path drained, %zu routes live\n",
                static_cast<unsigned long long>(storm_updates),
                duration_ms,
                static_cast<unsigned long long>(engine.resizes()),
                static_cast<unsigned long long>(engine.expired()),
                static_cast<unsigned long long>(
                    engine.slowPathDrained()),
                engine.routeCount());

    // ---- Audit 1: journal truth vs the live engine ------------------
    //
    // Truth removes a route only on a journaled Withdraw or Expire:
    // a not-yet-due entry is in both truth and engine, an expired one
    // is in neither, and any disagreement is lost state or a phantom.
    persist::JournalScan scan =
        persist::scanJournal(journal, elasticFingerprint(config));
    RoutingTable truth = soak::journalTruth(table, scan);
    using Type = persist::JournalRecord::Type;
    uint64_t expireRecords = 0, resizeMarks = 0;
    for (const persist::JournalRecord &r : scan.records) {
        resizeMarks += r.type == Type::ResizeMark;
        expireRecords += r.type == Type::Update &&
                         r.update.kind == UpdateKind::Expire;
    }
    soak::RouteAudit audit = soak::auditRoutes(
        engine, truth,
        generateLookupKeys(truth, 4096, 32, 0.7, seed + 4));

    // ---- Audit 2: warm restart across Expires and ResizeMarks -------
    persist::RecoveryOptions ropts;
    ropts.initialTable = table;
    ropts.config = config;   // The PRE-resize config: the elastic
                             // fingerprint must still claim the journal.
    ropts.journalPath = journal;
    ropts.audit = true;
    persist::RecoveryReport rec = persist::recoverEngine(ropts);

    // ---- Verdict ----------------------------------------------------
    std::printf("verdict:\n");
    soak.check(engine.resizes() >= kMinResizes,
               "storm forced the required live resizes");
    soak.check(engine.expired() > 0, "background GC retired entries");
    soak.check(expireRecords > 0, "Expire records are journal-visible");
    soak.check(resizeMarks >= kMinResizes,
               "every resize left a journal ResizeMark");
    soak.check(probeChecks.load() > 0 && probeGaps.load() == 0,
               "zero probe serving gaps across all flips");
    soak.check(audit.lost == 0, "zero non-expired routes lost");
    soak.check(audit.phantom == 0,
               "zero phantom routes (expired stay dead)");
    soak.check(audit.wrong == 0, "oracle agreement on key sample");
    soak.check(engine.slowPathDrained() > 0 ||
                   engine.robustness().slowPathDrains == 0,
               "slow-path residents drained back on resize");
    soak.check(rec.auditRan && rec.auditPassed,
               "warm restart replays to the identical state");
    soak.check(rec.journalHeaderOk, "journal valid across the resizes");

    if (soak.session().enabled()) {
        telemetry::MetricRegistry &registry = soak.session().registry();
        registry.gauge("churn.resizes").set(double(engine.resizes()));
        registry.gauge("churn.expired").set(double(engine.expired()));
        registry.gauge("churn.probe_gaps")
            .set(double(probeGaps.load()));
        registry.gauge("churn.lost").set(double(audit.lost));
        registry.gauge("churn.phantom").set(double(audit.phantom));
    }

    soak.report("chisel.churn.v1", [&](telemetry::JsonWriter &w) {
        w.member("duration_ms", duration_ms);
        w.member("storm_updates", storm_updates);
        w.member("updates_applied", engine.updatesApplied());
        w.member("resizes", engine.resizes());
        w.member("resize_marks", resizeMarks);
        w.member("expired", engine.expired());
        w.member("expire_records", expireRecords);
        w.member("slowpath_drained", engine.slowPathDrained());
        w.member("probe_checks", probeChecks.load());
        w.member("probe_gaps", probeGaps.load());
        w.member("lost", uint64_t(audit.lost));
        w.member("phantom", uint64_t(audit.phantom));
        w.member("oracle_mismatches", uint64_t(audit.wrong));
        w.member("journal_records", uint64_t(scan.records.size()));
        w.member("journal_last_seq", scan.lastSeq);
        w.member("route_count", uint64_t(engine.routeCount()));
        w.member("final_spill_capacity",
                 uint64_t(engine.config().spillCapacity));
        w.member("replay_audit_passed", rec.auditRan && rec.auditPassed);
    });
    return soak.finish();
}
