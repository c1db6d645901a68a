/**
 * @file
 * chisel_tool: a small command-line utility around the library —
 * generate synthetic tables and traces, inspect tables, and run a
 * lookup benchmark, so downstream users can produce and exchange
 * workload files without writing code.
 *
 * Usage:
 *   example_chisel_tool gen-table  <prefixes> <out.txt> [seed] [v6]
 *   example_chisel_tool gen-trace  <table.txt> <updates> <out.txt> [seed]
 *   example_chisel_tool info       <table.txt>
 *   example_chisel_tool lookup     <table.txt> <queries>
 *   example_chisel_tool replay     <table.txt> <trace.txt> [journal]
 *   example_chisel_tool snapshot   <table.txt> <image>
 *   example_chisel_tool recover    <table.txt> <journal|-> [image]
 *   example_chisel_tool journal-dump <journal>
 *
 * RPC service subcommands (docs/service.md; strict --flag parsing):
 *   example_chisel_tool serve    --port=N [--table=f] [--persist-dir=d] ...
 *   example_chisel_tool lookup   --port=N --key=ADDR [--key=ADDR ...]
 *   example_chisel_tool announce --port=N --prefix=CIDR --next-hop=N
 *   example_chisel_tool withdraw --port=N --prefix=CIDR
 * (`lookup` with positional arguments stays the local benchmark.)
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "core/engine.hh"
#include "health/monitor.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "obs/introspect.hh"
#include "persist/journal.hh"
#include "persist/recovery.hh"
#include "persist/snapshot.hh"
#include "route/reader.hh"
#include "route/synth.hh"
#include "route/updates.hh"
#include "shard/sharded.hh"
#include "sim/stats.hh"
#include "telemetry/cli.hh"

namespace {

using namespace chisel;

int
usage()
{
    std::fprintf(stderr,
        "usage:\n"
        "  chisel_tool gen-table <prefixes> <out.txt> [seed] [v6]\n"
        "  chisel_tool gen-trace <table.txt> <updates> <out.txt> [seed]\n"
        "  chisel_tool info      <table.txt>\n"
        "  chisel_tool lookup    <table.txt> <queries>\n"
        "  chisel_tool replay    <table.txt> <trace.txt> [journal]\n"
        "  chisel_tool snapshot  <table.txt> <image>\n"
        "  chisel_tool recover   <table.txt> <journal|-> [image]\n"
        "  chisel_tool journal-dump <journal>\n"
        "service subcommands (--help on each for flags):\n"
        "  chisel_tool serve    --port=N [--table=f] [--persist-dir=d]\n"
        "  chisel_tool lookup   --port=N --key=ADDR [--key=ADDR ...]\n"
        "  chisel_tool announce --port=N --prefix=CIDR --next-hop=N\n"
        "  chisel_tool withdraw --port=N --prefix=CIDR\n");
    return 2;
}

ChiselConfig
configFor(const RoutingTable &table)
{
    ChiselConfig cfg;
    cfg.keyWidth = table.maxLength() > 32 ? 128 : 32;
    return cfg;
}

int
genTable(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    size_t n = std::strtoull(argv[2], nullptr, 10);
    uint64_t seed = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1;
    bool v6 = argc > 5 && std::strcmp(argv[5], "v6") == 0;

    RoutingTable table = generateScaledTable(n, v6 ? 128 : 32, seed);
    std::ofstream out(argv[3]);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", argv[3]);
        return 1;
    }
    writeTable(out, table);
    std::printf("wrote %zu routes to %s\n", table.size(), argv[3]);
    return 0;
}

int
genTrace(int argc, char **argv)
{
    if (argc < 5)
        return usage();
    RoutingTable table = readTableFile(argv[2]);
    size_t n = std::strtoull(argv[3], nullptr, 10);
    uint64_t seed = argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 1;

    unsigned width = table.maxLength() > 32 ? 128 : 32;
    UpdateTraceGenerator gen(table, TraceProfile{}, width, seed);
    auto trace = gen.generate(n);
    std::ofstream out(argv[4]);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", argv[4]);
        return 1;
    }
    writeTrace(out, trace);
    std::printf("wrote %zu updates to %s\n", trace.size(), argv[4]);
    return 0;
}

int
info(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    RoutingTable table = readTableFile(argv[2]);
    std::printf("%zu routes, max length %u\n", table.size(),
                table.maxLength());
    auto hist = table.lengthHistogram();
    for (unsigned l = 0; l <= table.maxLength(); ++l) {
        if (hist[l])
            std::printf("  /%-3u %zu\n", l, hist[l]);
    }
    ChiselConfig cfg;
    cfg.keyWidth = table.maxLength() > 32 ? 128 : 32;
    ChiselEngine engine(table, cfg);
    auto s = engine.storage();
    std::printf("Chisel plan %s: %.2f Mbits on-chip, %zu spilled\n",
                engine.plan().str().c_str(), s.totalMbits(),
                engine.spillCount());
    return 0;
}

int
lookupBench(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    RoutingTable table = readTableFile(argv[2]);
    size_t queries = std::strtoull(argv[3], nullptr, 10);

    unsigned width = table.maxLength() > 32 ? 128 : 32;
    ChiselConfig cfg;
    cfg.keyWidth = width;
    ChiselEngine engine(table, cfg);
    auto keys = generateLookupKeys(table, 65536, width, 0.9, 7);

    StopWatch watch;
    uint64_t hits = 0;
    for (size_t i = 0; i < queries; ++i)
        hits += engine.lookup(keys[i & 65535]).found;
    double secs = watch.seconds();
    std::printf("%zu lookups in %.2f s: %.2f Mlps, %.1f%% hits\n",
                queries, secs, queries / secs / 1e6,
                100.0 * hits / queries);
    return 0;
}

int
replay(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    // Lenient parse: malformed lines are reported and skipped so one
    // bad byte in a long feed doesn't abort the replay.
    ReadReport report;
    RoutingTable table = readTableFile(argv[2], &report);
    std::ifstream in(argv[3]);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", argv[3]);
        return 1;
    }
    auto trace = readTrace(in, &report);
    if (!report.ok())
        std::printf("input: %zu malformed line(s) skipped of %zu\n",
                    report.skipped, report.lines);

    ChiselConfig cfg = configFor(table);
    ChiselEngine engine(table, cfg);

    // Optional write-ahead journal: each update is made durable
    // before it mutates the engine, so "recover" can rebuild this
    // exact state after a crash (docs/persistence.md).
    std::unique_ptr<persist::UpdateJournal> journal;
    if (argc > 4)
        journal = std::make_unique<persist::UpdateJournal>(
            argv[4], configFingerprint(cfg));

    StopWatch watch;
    for (const auto &u : trace) {
        uint64_t seq = journal ? journal->append(u) : 0;
        UpdateOutcome out = engine.apply(u);
        if (journal)
            journal->appendOutcome(seq, out);
    }
    if (journal)
        journal->sync();
    double secs = watch.seconds();
    const auto &s = engine.updateStats();
    std::printf("%zu updates in %.2f s (%.0f/s), incremental "
                "%.3f%%\n",
                trace.size(), secs, trace.size() / secs,
                100.0 * s.incrementalFraction());
    if (journal)
        std::printf("journaled %llu records to %s\n",
                    static_cast<unsigned long long>(
                        journal->recordsWritten()),
                    argv[4]);
    return 0;
}

int
snapshotCmd(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    RoutingTable table = readTableFile(argv[2]);
    ChiselConfig cfg = configFor(table);
    ChiselEngine engine(table, cfg);
    size_t bytes = persist::saveSnapshot(argv[3], engine, 0);
    std::printf("wrote %zu-byte snapshot of %zu routes to %s "
                "(%llu Bloomier setups avoided on warm restart)\n",
                bytes, engine.routeCount(), argv[3],
                static_cast<unsigned long long>(
                    engine.bloomierSetups()));
    return 0;
}

int
recoverCmd(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    persist::RecoveryOptions opts;
    opts.initialTable = readTableFile(argv[2]);
    opts.config = configFor(opts.initialTable);
    if (std::strcmp(argv[3], "-") != 0)
        opts.journalPath = argv[3];
    if (argc > 4)
        opts.snapshotPath = argv[4];

    persist::RecoveryReport rec = persist::recoverEngine(opts);
    std::printf("source=%s fallbacks=%llu journal-records=%llu "
                "replayed=%llu last-seq=%llu torn-tail=%s\n",
                persist::recoverySourceName(rec.source),
                static_cast<unsigned long long>(rec.fallbacks),
                static_cast<unsigned long long>(rec.journalRecords),
                static_cast<unsigned long long>(rec.recordsReplayed),
                static_cast<unsigned long long>(rec.lastSeq),
                rec.journalTornTail ? "yes" : "no");
    if (!rec.snapshotError.empty())
        std::printf("snapshot unusable: %s\n",
                    rec.snapshotError.c_str());
    if (!rec.previousSnapshotError.empty())
        std::printf("previous snapshot unusable: %s\n",
                    rec.previousSnapshotError.c_str());
    std::printf("%zu routes recovered, %llu Bloomier setups paid\n",
                rec.engine->routeCount(),
                static_cast<unsigned long long>(
                    rec.engine->bloomierSetups()));
    std::printf("audit: %s (%llu missing, %llu mismatched, %llu "
                "phantom)\n",
                rec.auditPassed ? "PASS" : "FAIL",
                static_cast<unsigned long long>(rec.auditMissing),
                static_cast<unsigned long long>(rec.auditMismatched),
                static_cast<unsigned long long>(rec.auditPhantom));
    return rec.auditPassed ? 0 : 1;
}

int
journalDump(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    // Fingerprint 0 skips the identity check: a dump tool inspects
    // whatever is on disk, it does not enforce whose journal it is.
    persist::JournalScan scan = persist::scanJournal(argv[2], 0);
    if (!scan.headerOk) {
        std::fprintf(stderr, "unreadable journal: %s\n",
                     scan.error.c_str());
        return 1;
    }
    std::printf("journal %s: fingerprint=%016llx records=%zu "
                "last-seq=%llu torn-tail=%s\n",
                argv[2],
                static_cast<unsigned long long>(scan.fingerprint),
                scan.records.size(),
                static_cast<unsigned long long>(scan.lastSeq),
                scan.truncatedTail ? "yes" : "no");
    for (const persist::JournalRecord &rec : scan.records) {
        unsigned long long seq = rec.seq;
        switch (rec.type) {
          case persist::JournalRecord::Type::Update: {
            const char *kind =
                rec.update.kind == UpdateKind::Announce ? "announce"
                : rec.update.kind == UpdateKind::Expire ? "expire"
                                                        : "withdraw";
            if (rec.update.kind == UpdateKind::Announce)
                std::printf("%8llu  update     %-8s %s -> %u ttl=%u\n",
                            seq, kind, rec.update.prefix.str().c_str(),
                            rec.update.nextHop, rec.update.ttlMs);
            else
                std::printf("%8llu  update     %-8s %s\n", seq, kind,
                            rec.update.prefix.str().c_str());
            break;
          }
          case persist::JournalRecord::Type::Outcome:
            std::printf("%8llu  outcome    %s status=%u retries=%u "
                        "overflows=%u slowpath=%u/%u parity=%u\n",
                        seq,
                        updateClassName(
                            static_cast<UpdateClass>(rec.cls)),
                        rec.status, rec.setupRetries,
                        rec.tcamOverflows, rec.slowPathInserts,
                        rec.slowPathRejections, rec.parityRecoveries);
            break;
          case persist::JournalRecord::Type::SnapshotMark:
            std::printf("%8llu  snapshot-mark\n", seq);
            break;
          case persist::JournalRecord::Type::Housekeeping:
            std::printf("%8llu  housekeep  %s\n", seq,
                        rec.housekeeping ==
                                persist::JournalRecord::
                                    HousekeepingKind::PurgeDirty
                            ? "purge-dirty"
                            : "?");
            break;
          case persist::JournalRecord::Type::ResizeMark:
            std::printf("%8llu  resize-mark spill=%zu slowpath=%zu "
                        "min-cell=%zu dirty-budget=%zu ttl-default=%llu\n",
                        seq, rec.resizeConfig.spillCapacity,
                        rec.resizeConfig.slowPathCapacity,
                        rec.resizeConfig.minCellCapacity,
                        rec.resizeConfig.dirtyBudgetPerCell,
                        static_cast<unsigned long long>(
                            rec.resizeConfig.defaultTtlMs));
            break;
        }
    }
    return 0;
}

// ---- RPC service subcommands (docs/service.md) -----------------------

net::ChiselService *g_serveService = nullptr;

extern "C" void
serveSignal(int)
{
    // Async-signal-safe: requestDrain is an atomic store plus one
    // write(2) to the service's self-pipe.
    if (g_serveService != nullptr)
        g_serveService->requestDrain();
}

int
serveCmd(int argc, char **argv)
{
    std::string tablePath, persistDir, journalPath, snapshotPath;
    std::string portFile;
    uint64_t port = 0, induceDegradedMs = 0;
    net::ServiceOptions sopts;
    uint64_t maxConnections = sopts.maxConnections;
    uint64_t maxOutputBytes = sopts.maxOutputBytes;
    uint64_t idleTimeoutMs = sopts.idleTimeoutMs;
    uint64_t writeStallMs = sopts.writeStallMs;
    uint64_t drainDeadlineMs = sopts.drainDeadlineMs;

    telemetry::FlagTable flags(
        "chisel_tool serve",
        "Serve lookup/update RPCs until SIGTERM drains gracefully");
    flags.u64Flag("port", "loopback port to bind (0 = ephemeral)",
                  &port)
        .stringFlag("table", "initial routing table file", &tablePath)
        .stringFlag("persist-dir",
                    "journal + snapshot directory: recover from it, "
                    "append to it (the durable-ack gate), snapshot "
                    "into it on drain",
                    &persistDir)
        .stringFlag("journal",
                    "flat journal to import while --persist-dir holds "
                    "no plane yet (input only)",
                    &journalPath)
        .stringFlag("snapshot",
                    "flat snapshot to import with --journal (input "
                    "only)",
                    &snapshotPath)
        .stringFlag("port-file",
                    "write the bound port here once listening",
                    &portFile)
        .u64Flag("max-connections", "refuse connections past this",
                 &maxConnections)
        .u64Flag("max-output-bytes",
                 "per-connection reply-queue bound (backpressure)",
                 &maxOutputBytes)
        .u64Flag("idle-timeout-ms", "drop idle connections after this",
                 &idleTimeoutMs)
        .u64Flag("write-stall-ms",
                 "drop connections whose writes make no progress",
                 &writeStallMs)
        .u64Flag("drain-deadline-ms", "graceful-drain flush budget",
                 &drainDeadlineMs)
        .u64Flag("induce-degraded-ms",
                 "shed demo: serve this long with Degraded induced",
                 &induceDegradedMs);
    // Telemetry flags (--metrics-json, --introspect-port, ...) are
    // stripped leniently first; the rest must parse strictly.
    telemetry::TelemetryOptions topts =
        telemetry::TelemetryOptions::parse(argc, argv);
    if (!flags.parseStrict(argc, argv))
        return flags.helpRequested() ? 0 : 2;

    // Boot state: a persist directory that already holds a plane is
    // the whole truth.  Otherwise a named flat journal/snapshot pair
    // is recovered once and its routes seed the one-shard plane, else
    // the table file does, else it starts empty.
    shard::ShardedOptions popts;
    popts.shards = 1;
    popts.persistDir = persistDir;
    RoutingTable table;
    if (!tablePath.empty())
        table = readTableFile(tablePath);
    popts.config = configFor(table);
    bool flatInput = !journalPath.empty() || !snapshotPath.empty();
    if (!persistDir.empty() &&
        std::filesystem::exists(persistDir + "/shards.meta")) {
        if (flatInput)
            std::printf("%s already holds a plane; --journal and "
                        "--snapshot are ignored\n",
                        persistDir.c_str());
    } else if (flatInput) {
        persist::RecoveryOptions ropts;
        ropts.journalPath = journalPath;
        ropts.snapshotPath = snapshotPath;
        ropts.initialTable = table;
        ropts.config = popts.config;
        persist::RecoveryReport rec = persist::recoverEngine(ropts);
        std::printf("recovered %zu routes (source=%s, last-seq=%llu)\n",
                    rec.engine->routeCount(),
                    persist::recoverySourceName(rec.source),
                    static_cast<unsigned long long>(rec.lastSeq));
        table = rec.engine->exportTable();
        popts.config = rec.engine->config();
    }

    telemetry::TelemetrySession session(topts);
    shard::ShardedChisel plane(table, popts);
    if (!plane.recovery().empty())
        std::printf("%s: source=%s, %llu journal records replayed\n",
                    persistDir.c_str(),
                    persist::recoverySourceName(
                        plane.recovery()[0].source),
                    static_cast<unsigned long long>(
                        plane.recovery()[0].recordsReplayed));

    sopts.port = static_cast<uint16_t>(port);
    sopts.maxConnections = maxConnections;
    sopts.maxOutputBytes = maxOutputBytes;
    sopts.idleTimeoutMs = static_cast<int>(idleTimeoutMs);
    sopts.writeStallMs = static_cast<int>(writeStallMs);
    sopts.drainDeadlineMs = static_cast<int>(drainDeadlineMs);
    if (session.enabled())
        sopts.metrics = &session.registry();
    // /healthz reports every shard the service sheds on.
    if (obs::IntrospectionServer *server = session.introspection())
        server->attachShards(&plane);
    net::ChiselService service(plane, sopts);
    if (!service.start())
        return 1;
    if (induceDegradedMs > 0)
        plane.induceHealth(0, health::HealthState::Degraded,
                           induceDegradedMs);
    if (!portFile.empty()) {
        std::ofstream pf(portFile);
        pf << service.port() << "\n";
    }

    g_serveService = &service;
    std::signal(SIGTERM, serveSignal);
    std::signal(SIGINT, serveSignal);
    std::printf("serving %zu routes on 127.0.0.1:%u "
                "(SIGTERM drains)%s\n",
                plane.routeCount(), service.port(),
                persistDir.empty() ? "; no --persist-dir, so no update "
                                     "is acked"
                                   : "");
    std::fflush(stdout);

    while (service.running())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    g_serveService = nullptr;
    service.stop();

    net::ServiceStats s = service.stats();
    std::printf("served %llu requests (%llu lookup keys, %llu updates "
                "applied, %llu acked, %llu unacked, %llu shed, "
                "%llu bad)\n",
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.lookupKeys),
                static_cast<unsigned long long>(s.updatesApplied),
                static_cast<unsigned long long>(s.acked),
                static_cast<unsigned long long>(s.unacked),
                static_cast<unsigned long long>(s.shedUpdates),
                static_cast<unsigned long long>(s.badRequests));
    std::printf("drain %s\n", s.drained ? "flushed every reply"
                                        : "hit its deadline");
    session.finish();
    return 0;
}

/** Parse an address (or CIDR) into a lookup key. */
bool
parseKeyToken(const std::string &token, Key128 &key)
{
    try {
        std::string cidr = token;
        if (cidr.find('/') == std::string::npos)
            cidr += cidr.find(':') != std::string::npos ? "/128"
                                                        : "/32";
        Prefix p = cidr.find(':') != std::string::npos
                       ? Prefix::fromCidr6(cidr)
                       : Prefix::fromCidr(cidr);
        key = p.bits();
        return true;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bad key %s: %s\n", token.c_str(),
                     e.what());
        return false;
    }
}

bool
parsePrefixFlag(const std::string &token, Prefix &prefix)
{
    try {
        prefix = token.find(':') != std::string::npos
                     ? Prefix::fromCidr6(token)
                     : Prefix::fromCidr(token);
        return true;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bad prefix %s: %s\n", token.c_str(),
                     e.what());
        return false;
    }
}

void
registerClientFlags(telemetry::FlagTable &flags, uint64_t *port,
                    uint64_t *timeout_ms, uint64_t *attempts)
{
    flags.u64Flag("port", "loopback port of the service", port)
        .u64Flag("timeout-ms", "whole-call deadline spanning retries",
                 timeout_ms)
        .u64Flag("attempts", "attempts per call (1 = no retry)",
                 attempts);
}

net::ClientOptions
clientOptionsFrom(uint64_t port, uint64_t timeout_ms,
                  uint64_t attempts)
{
    net::ClientOptions copts;
    copts.port = static_cast<uint16_t>(port);
    copts.requestTimeoutMs = static_cast<int>(timeout_ms);
    copts.maxAttempts = static_cast<int>(attempts);
    return copts;
}

int
rpcLookup(int argc, char **argv)
{
    uint64_t port = 0, timeoutMs = 1000, attempts = 4;
    std::vector<Key128> keys;
    std::vector<std::string> tokens;
    telemetry::FlagTable flags(
        "chisel_tool lookup",
        "Batched lookup RPC against a running serve instance");
    registerClientFlags(flags, &port, &timeoutMs, &attempts);
    flags.flag("key", "ADDR",
               "address (or CIDR) to look up; repeatable",
               [&](const std::string &v) {
                   Key128 k;
                   if (!parseKeyToken(v, k))
                       return false;
                   keys.push_back(k);
                   tokens.push_back(v);
                   return true;
               });
    if (!flags.parseStrict(argc, argv))
        return flags.helpRequested() ? 0 : 2;
    if (keys.empty() || port == 0) {
        std::fprintf(stderr, "need --port and at least one --key\n");
        return 2;
    }

    net::ServiceClient client(
        clientOptionsFrom(port, timeoutMs, attempts));
    net::LookupCallResult r = client.lookup(keys);
    if (r.status != net::CallStatus::Ok) {
        std::fprintf(stderr, "lookup failed: %s\n",
                     net::callStatusName(r.status));
        return 1;
    }
    for (size_t i = 0; i < r.results.size(); ++i) {
        const net::WireLookup &w = r.results[i];
        if (w.found)
            std::printf("%s -> next-hop %u (matched /%u)\n",
                        tokens[i].c_str(), w.nextHop,
                        w.matchedLength);
        else
            std::printf("%s -> no route\n", tokens[i].c_str());
    }
    std::printf("generation %llu\n",
                static_cast<unsigned long long>(r.generation));
    return 0;
}

int
rpcUpdate(int argc, char **argv, UpdateKind kind)
{
    const bool announce = kind == UpdateKind::Announce;
    uint64_t port = 0, timeoutMs = 1000, attempts = 4;
    uint64_t nextHop = 0, ttlMs = 0;
    std::string prefixToken;
    telemetry::FlagTable flags(
        announce ? "chisel_tool announce" : "chisel_tool withdraw",
        announce ? "Announce a route through the RPC service"
                 : "Withdraw a route through the RPC service");
    registerClientFlags(flags, &port, &timeoutMs, &attempts);
    flags.stringFlag("prefix", "CIDR prefix", &prefixToken);
    if (announce)
        flags.u64Flag("next-hop", "next hop id", &nextHop)
            .u64Flag("ttl-ms", "route TTL (0 = config default)",
                     &ttlMs);
    if (!flags.parseStrict(argc, argv))
        return flags.helpRequested() ? 0 : 2;
    if (prefixToken.empty() || port == 0) {
        std::fprintf(stderr, "need --port and --prefix\n");
        return 2;
    }

    Update u;
    u.kind = kind;
    if (!parsePrefixFlag(prefixToken, u.prefix))
        return 2;
    u.nextHop = static_cast<NextHop>(nextHop);
    u.ttlMs = static_cast<uint32_t>(ttlMs);

    net::ServiceClient client(
        clientOptionsFrom(port, timeoutMs, attempts));
    net::UpdateCallResult r = client.update({u});
    if (r.status != net::CallStatus::Ok) {
        std::fprintf(stderr, "%s failed: %s\n",
                     announce ? "announce" : "withdraw",
                     net::callStatusName(r.status));
        return 1;
    }
    const net::WireAck &a = r.acks.at(0);
    std::printf("%s %s: %s (seq %llu, durable through %llu)\n",
                announce ? "announce" : "withdraw",
                prefixToken.c_str(),
                a.acked ? "acked durable" : "NOT acked",
                static_cast<unsigned long long>(a.seq),
                static_cast<unsigned long long>(r.durableSeq));
    return a.acked ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    if (std::strcmp(argv[1], "gen-table") == 0)
        return genTable(argc, argv);
    if (std::strcmp(argv[1], "gen-trace") == 0)
        return genTrace(argc, argv);
    if (std::strcmp(argv[1], "info") == 0)
        return info(argc, argv);
    if (std::strcmp(argv[1], "lookup") == 0) {
        // Flag-style arguments select the RPC client; positional
        // arguments keep the historic local benchmark.
        if (argc > 2 && std::strncmp(argv[2], "--", 2) == 0)
            return rpcLookup(argc, argv);
        return lookupBench(argc, argv);
    }
    if (std::strcmp(argv[1], "serve") == 0)
        return serveCmd(argc, argv);
    if (std::strcmp(argv[1], "announce") == 0)
        return rpcUpdate(argc, argv, UpdateKind::Announce);
    if (std::strcmp(argv[1], "withdraw") == 0)
        return rpcUpdate(argc, argv, UpdateKind::Withdraw);
    if (std::strcmp(argv[1], "replay") == 0)
        return replay(argc, argv);
    if (std::strcmp(argv[1], "snapshot") == 0)
        return snapshotCmd(argc, argv);
    if (std::strcmp(argv[1], "recover") == 0)
        return recoverCmd(argc, argv);
    if (std::strcmp(argv[1], "journal-dump") == 0)
        return journalDump(argc, argv);
    return usage();
}
