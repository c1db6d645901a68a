/**
 * @file
 * BGP update-daemon scenario: replay an update trace against a live
 * one-shard Chisel plane, printing the Figure-14-style classification,
 * the sustained rate, and a correctness audit afterwards.
 *
 * Usage:
 *     example_update_replay [options] [trace.txt [table.txt]]
 *
 * Without arguments a synthetic table and an rrc00-profile trace are
 * generated.  Trace format: "A prefix nexthop" / "W prefix" lines.
 * Run with --help for the full option list; unknown --options exit
 * nonzero (telemetry/cli.hh FlagTable).
 *
 * Telemetry options: --metrics-json=<path> (telemetry snapshot with
 * the plane's health and shard gauges); the flight recorder is always
 * on.
 *
 * Persistence options (docs/persistence.md):
 *     --persist-dir=<dir>   journal and checkpoint the plane in dir;
 *                           a dir that already holds a plane is
 *                           recovered, audited, and the trace resumes
 *                           at its journal head
 *     --snapshot-every=<n>  checkpoint after every n applied updates
 *     --fsync-every=<n>     fsync the journal every n records (default 1)
 *     --crash-after=<n>     raise SIGKILL after n applied updates
 *                           (crash-recovery drills; implies journaling
 *                           is the only durable record of those updates)
 *     --abort-after=<n>     raise SIGABRT after n applied updates:
 *                           unlike SIGKILL this runs the flight
 *                           recorder's crash handler, dumping the last
 *                           events to <prefix>.crash[.trace].json
 *     --routes=<n>          synthetic table size (default 80000)
 *     --updates=<n>         synthetic trace length (default 300000)
 *
 * Robustness options (docs/robustness.md):
 *     --flap-storm          synthesize a flap-storm trace: a Zipf-hot
 *                           set of prefixes cycling announce/withdraw
 *     --dirty-budget=<n>    per-cell dirty-group retention budget
 *                           (decay-ordered eviction above it; 0 = off)
 *     --purge-every=<n>     purge dirty groups every n applied updates,
 *                           journaled as a Housekeeping record
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "route/reader.hh"
#include "route/synth.hh"
#include "route/updates.hh"
#include "shard/sharded.hh"
#include "sim/report.hh"
#include "sim/stats.hh"
#include "telemetry/cli.hh"
#include "trie/binary_trie.hh"

namespace {

using namespace chisel;

struct ReplayOptions
{
    std::string persistDir;
    uint64_t snapshotEvery = 0;   // 0 = never.
    uint64_t fsyncEvery = 1;
    uint64_t crashAfter = 0;      // 0 = never.
    uint64_t abortAfter = 0;      // 0 = never.
    size_t routes = 80000;
    size_t updates = 300000;
    bool flapStorm = false;
    uint64_t dirtyBudget = 0;
    uint64_t purgeEvery = 0;      // 0 = never.

    /**
     * Register every replay flag on @p flags.  Parsing is strict
     * (telemetry/cli.hh FlagTable): an unknown --option or malformed
     * value exits nonzero with the generated --help text.
     */
    void
    registerFlags(telemetry::FlagTable &flags)
    {
        flags.stringFlag("persist-dir",
                         "journal + snapshot directory: recover the "
                         "plane it holds, resume the trace at its "
                         "journal head, journal every update",
                         &persistDir)
            .u64Flag("snapshot-every",
                     "checkpoint after every n applied updates "
                     "(0 = never)",
                     &snapshotEvery)
            .u64Flag("fsync-every",
                     "fsync the journal every n records (default 1)",
                     &fsyncEvery)
            .u64Flag("crash-after",
                     "raise SIGKILL after n applied updates",
                     &crashAfter)
            .u64Flag("abort-after",
                     "raise SIGABRT after n applied updates "
                     "(runs the flight-recorder crash handler)",
                     &abortAfter)
            .sizeFlag("routes", "synthetic table size (default 80000)",
                      &routes)
            .sizeFlag("updates",
                      "synthetic trace length (default 300000)",
                      &updates)
            .boolFlag("flap-storm",
                      "synthesize a flap-storm trace", &flapStorm)
            .u64Flag("dirty-budget",
                     "per-cell dirty-group retention budget (0 = off)",
                     &dirtyBudget)
            .u64Flag("purge-every",
                     "purge dirty groups every n applied updates, "
                     "journaled as Housekeeping (0 = never)",
                     &purgeEvery);
    }
};

/**
 * Flush every output channel.  Called on *all* exit paths — including
 * the nonzero-exit audit failures — so a scripted caller never loses
 * the metrics file or the tail of stdout to an unflushed stream.
 */
int
finishRun(telemetry::TelemetrySession &session,
          const shard::ShardedChisel *plane, int code)
{
    if (session.enabled()) {
        if (plane != nullptr) {
            plane->shardEngine(0).monitor().publish(session.registry());
            plane->publish(session.registry());
        }
        metricsReport(session.registry()).print();
        session.finish();
    }
    std::fflush(stdout);
    std::fflush(stderr);
    return code;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace chisel;

    telemetry::TelemetryOptions topts =
        telemetry::TelemetryOptions::parse(argc, argv);
    ReplayOptions popts;
    telemetry::FlagTable flags(
        "example_update_replay",
        "Replay an update trace against a journaled Chisel plane "
        "(positional: [trace.txt [table.txt]]).");
    popts.registerFlags(flags);
    if (!flags.parseStrict(argc, argv))
        return flags.helpRequested() ? 0 : 2;

    // The replay always flies with the recorder on, so the abort
    // drill (and any real crash) has history to dump.
    if (topts.flightEvents == 0)
        topts.flightEvents = 4096;
    telemetry::TelemetrySession session(topts);
    if (topts.flightDumpPrefix.empty())
        telemetry::FlightRecorder::installCrashHandler(
            "update_replay");

    RoutingTable table;
    std::vector<Update> trace;
    ReadReport report;
    if (argc > 2)
        table = readTableFile(argv[2], &report);
    else
        table = generateScaledTable(popts.routes, 32, 42);

    if (argc > 1) {
        std::ifstream in(argv[1]);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", argv[1]);
            return finishRun(session, nullptr, 1);
        }
        trace = readTrace(in, &report);
    } else {
        auto prof = standardTraceProfiles()[0];   // rrc00.
        prof.flapStorm = popts.flapStorm;
        UpdateTraceGenerator gen(table, prof, 32, 43);
        trace = gen.generate(popts.updates);
    }
    std::printf("Table: %zu routes; trace: %zu updates\n",
                table.size(), trace.size());
    if (!report.ok()) {
        // Lenient parse: the replay proceeds on what did parse, but
        // every offending line is reported.
        std::printf("Input: %zu malformed line(s) skipped of %zu\n",
                    report.skipped, report.lines);
        for (const auto &[lineno, reason] : report.errors)
            std::printf("  line %zu: %s\n", lineno, reason.c_str());
    }

    // A persist directory that already holds a plane is the whole
    // truth: the plane recovers it (the table only seeds a first
    // boot) and audits it against the table plus its journal.
    shard::ShardedOptions sopts;
    sopts.shards = 1;
    sopts.config.dirtyBudgetPerCell = popts.dirtyBudget;
    sopts.persistDir = popts.persistDir;
    sopts.fsyncEvery = popts.fsyncEvery;
    sopts.audit = true;
    shard::ShardedChisel plane(table, sopts);
    concurrent::ConcurrentChisel &engine = plane.shardEngine(0);
    const bool journaled = !popts.persistDir.empty();
    size_t start = 0;   // First trace index still to apply.

    if (journaled) {
        const shard::ShardRecovery &rec = plane.recovery()[0];
        std::printf("Recovery: source=%s fallbacks=%llu replayed=%llu "
                    "last-seq=%llu routes=%zu\n",
                    persist::recoverySourceName(rec.source),
                    static_cast<unsigned long long>(rec.fallbacks),
                    static_cast<unsigned long long>(rec.recordsReplayed),
                    static_cast<unsigned long long>(rec.lastSeq),
                    rec.routes);
        std::printf("Recovery audit: %s (%llu missing, %llu "
                    "mismatched, %llu phantom)\n",
                    rec.auditPassed ? "PASS" : "FAIL",
                    static_cast<unsigned long long>(rec.auditMissing),
                    static_cast<unsigned long long>(rec.auditMismatched),
                    static_cast<unsigned long long>(rec.auditPhantom));
        if (session.enabled())
            session.engineTelemetry()->recordRecovery(
                rec.recordsReplayed,
                rec.source == persist::RecoverySource::ColdSetup ? 0 : 1,
                rec.fallbacks);
        if (!rec.auditPassed)
            return finishRun(session, &plane, 2);
        if (rec.lastSeq > trace.size()) {
            std::fprintf(stderr,
                         "journal is ahead of the trace (seq %llu > "
                         "%zu updates)\n",
                         static_cast<unsigned long long>(rec.lastSeq),
                         trace.size());
            return finishRun(session, &plane, 1);
        }
        start = static_cast<size_t>(rec.lastSeq);
        if (start > 0)
            std::printf("Resuming trace at update %zu of %zu\n", start,
                        trace.size());
    }

    // The truth table tracks what the plane *should* hold: the
    // initial table advanced through every update that entered it —
    // including, on a recovered run, the part its journal held.
    RoutingTable truth = table;
    for (size_t i = 0; i < start; ++i) {
        const Update &u = trace[i];
        if (u.kind == UpdateKind::Announce)
            truth.add(u.prefix, u.nextHop);
        else
            truth.remove(u.prefix);
    }

    UpdateStats stats;
    size_t purged = 0;
    StopWatch watch;
    size_t rejected = 0;
    uint64_t applied = 0;
    bool degraded = false;
    for (size_t i = start; i < trace.size(); ++i) {
        const Update &u = trace[i];
        shard::ShardedChisel::ApplyResult r = plane.apply(u);
        if (journaled && r.seq == 0) {
            // The journal could not durably log this update: the
            // durability contract is void, so the replay stops
            // acknowledging — the update is neither applied nor
            // added to the truth, exactly as a daemon must stop
            // acking peers it can no longer survive a crash for.
            degraded = true;
            std::printf("DEGRADED: journal refused update %zu of %zu "
                        "after seq %llu; stopped acknowledging\n",
                        i, trace.size(),
                        static_cast<unsigned long long>(
                            engine.journalSeq()));
            break;
        }
        stats.record(r.outcome.cls);
        ++applied;
        if (r.outcome.ok()) {
            if (u.kind == UpdateKind::Announce)
                truth.add(u.prefix, u.nextHop);
            else
                truth.remove(u.prefix);
        } else {
            ++rejected;   // Refused updates don't enter the truth.
        }
        if (popts.crashAfter != 0 && applied >= popts.crashAfter) {
            // The crash drill: die the hard way, mid-stream, with no
            // destructor or flush.  The journal's synced prefix is
            // the only durable record.
            std::printf("crash drill: SIGKILL after %llu updates\n",
                        static_cast<unsigned long long>(applied));
            std::fflush(stdout);
            ::raise(SIGKILL);
        }
        if (popts.abortAfter != 0 && applied >= popts.abortAfter) {
            // The observable crash drill: SIGABRT runs the flight
            // recorder's signal handler before dying, so the dump
            // carries the updates leading up to this point.
            std::printf("abort drill: SIGABRT after %llu updates\n",
                        static_cast<unsigned long long>(applied));
            std::fflush(stdout);
            std::abort();
        }
        if (popts.snapshotEvery != 0 &&
            applied % popts.snapshotEvery == 0)
            plane.saveSnapshots();
        if (popts.purgeEvery != 0 && applied % popts.purgeEvery == 0)
            purged += engine.purgeDirtyNow();
        if (applied % 1024 == 0)
            plane.healthTickAll();
    }
    if (journaled)
        plane.ensureDurable(0, engine.journalSeq());
    double secs = watch.seconds();

    std::printf("Applied in %.2f s: %.0f updates/sec (paper: "
                "~276K/s host-class)\n",
                secs, applied / secs);
    std::printf("%-12s %10s %8s\n", "category", "count", "share");
    for (UpdateClass c : {UpdateClass::Withdraw, UpdateClass::RouteFlap,
                          UpdateClass::NextHopChange,
                          UpdateClass::AddCollapsed,
                          UpdateClass::SingletonInsert,
                          UpdateClass::Resetup, UpdateClass::Spill,
                          UpdateClass::NoOp, UpdateClass::Expire}) {
        std::printf("%-12s %10llu %7.3f%%\n", updateClassName(c),
                    static_cast<unsigned long long>(stats.count(c)),
                    100.0 * stats.fraction(c));
    }
    std::printf("Incremental fraction: %.3f%% (paper: >= 99.9%%)\n",
                100.0 * stats.incrementalFraction());

    // Audit the final state against the oracle.
    BinaryTrie oracle(truth);
    auto keys = generateLookupKeys(truth, 20000, 32, 0.8, 44);
    size_t wrong = 0;
    for (const auto &k : keys) {
        auto a = oracle.lookup(k, 32);
        LookupResult b = plane.lookup(k);
        if (a.has_value() != b.found ||
            (a && a->nextHop != b.nextHop))
            ++wrong;
    }

    // Full-state audit: every truth route must be served, and no
    // route beyond them — with none lost, a route count above the
    // truth's is exactly the phantoms.
    size_t lost = 0;
    for (const auto &r : truth.routes()) {
        auto nh = engine.find(r.prefix);
        if (!nh || *nh != r.nextHop)
            ++lost;
    }
    size_t served = plane.routeCount();
    size_t phantom = served > truth.size() ? served - truth.size() : 0;

    RobustnessCounters rc = engine.robustness();
    const health::HealthMonitor &hmon = engine.monitor();
    std::printf("Post-replay oracle audit: %zu keys, %zu mismatches; "
                "route count %zu vs truth %zu (%zu lost, %zu "
                "phantom)\n",
                keys.size(), wrong, served, truth.size(), lost,
                phantom);
    std::printf("Robustness: %llu rejected, %llu TCAM overflows, "
                "%llu slow-path diversions, %llu drains, %llu setup "
                "retries, %llu parity recoveries\n",
                static_cast<unsigned long long>(rc.rejectedUpdates),
                static_cast<unsigned long long>(rc.tcamOverflows),
                static_cast<unsigned long long>(rc.slowPathInserts),
                static_cast<unsigned long long>(rc.slowPathDrains),
                static_cast<unsigned long long>(rc.setupRetries),
                static_cast<unsigned long long>(rc.parityRecoveries));
    std::printf("Health: end state %s, %llu transitions, %llu "
                "samples; dirty %zu now / %zu peak, %zu purged, "
                "%llu budget-evicted, %llu suppressed flaps\n",
                hmon.stateName(),
                static_cast<unsigned long long>(hmon.transitions()),
                static_cast<unsigned long long>(hmon.samples()),
                engine.dirtyCount(), engine.dirtyPeak(), purged,
                static_cast<unsigned long long>(rc.dirtyEvictions),
                static_cast<unsigned long long>(rc.suppressedFlaps));
    if (rejected > 0)
        std::printf("Rejected updates during replay: %zu\n", rejected);
    if (journaled)
        std::printf("Journal: last seq %llu, durable through %llu\n",
                    static_cast<unsigned long long>(engine.journalSeq()),
                    static_cast<unsigned long long>(
                        plane.lastDurableSeq(0)));
    if (degraded)
        std::printf("Run ended Degraded: the journal refused further "
                    "appends; unacknowledged trace tail was not "
                    "applied\n");

    int code = (wrong == 0 && lost == 0 && phantom == 0) ? 0 : 1;
    return finishRun(session, &plane, code);
}
