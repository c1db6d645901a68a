/**
 * @file
 * Unified perf-trajectory driver (docs/observability.md).
 *
 * Runs the canonical performance scenarios under pinned
 * configurations and emits one schema-stable JSON file each:
 *
 *     lookup      single-thread LPM throughput  -> BENCH_lookup.json
 *     lookup_dfz  the same at DFZ scale         -> BENCH_lookup_dfz.json
 *     update      trace-replay update cost      -> BENCH_update.json
 *     concurrent  readers under a live writer   -> BENCH_concurrent.json
 *     concurrent_update
 *                 the writer beside two readers
 *                                   -> BENCH_concurrent_update.json
 *
 * Every document carries the schema tag "chisel.bench.v1", the git
 * commit, a fingerprint of the scenario's pinned configuration,
 * ops/sec, p50/p95/p99 latency (ns) and memory accesses per
 * operation, so tools/bench_compare.py can diff any two runs and CI
 * can gate regressions.  The fingerprint guards the comparison: two
 * documents with different fingerprints measured different workloads
 * and must not be diffed.
 *
 *     perf_driver [--out-dir=DIR]
 *                 [--scenario=lookup|lookup_dfz|update|concurrent|
 *                             concurrent_update|all]
 *                 [--quick]
 *
 * --quick shrinks tables and op counts for CI smoke runs (the
 * fingerprint changes with it, so quick and full runs never compare
 * against each other).  lookup_dfz keeps its 262,144-route table under
 * --quick: a smaller one would fit in cache, which is what it exists
 * to avoid.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "common/clock.hh"
#include "concurrent/concurrent_engine.hh"
#include "core/engine.hh"
#include "route/synth.hh"
#include "route/updates.hh"
#include "telemetry/json.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace {

using namespace chisel;

struct DriverOptions
{
    std::string outDir = ".";
    std::string scenario = "all";
    bool quick = false;
};

struct ScenarioResult
{
    std::string scenario;
    std::string fingerprint;
    uint64_t tableSize = 0;
    uint64_t ops = 0;
    uint64_t threads = 1;
    double opsPerSec = 0.0;
    uint64_t p50Ns = 0;
    uint64_t p95Ns = 0;
    uint64_t p99Ns = 0;
    double accessesPerOp = 0.0;
    /**
     * Resident bytes the engine build added, per route; only where
     * the engine outgrows one 2 MiB arena page, so the figure reads
     * the control state and the image rather than page rounding.
     */
    std::optional<double> bytesPerRoute;
};

uint32_t
fnv1a(const std::string &s)
{
    uint32_t h = 2166136261u;
    for (unsigned char c : s) {
        h ^= c;
        h *= 16777619u;
    }
    return h;
}

std::string
hex8(uint32_t v)
{
    char buf[9];
    std::snprintf(buf, sizeof(buf), "%08x", v);
    return buf;
}

/** The checked-out commit: $GITHUB_SHA, else git itself, else "unknown". */
std::string
gitCommit()
{
    if (const char *sha = std::getenv("GITHUB_SHA");
        sha != nullptr && *sha != '\0')
        return sha;
    std::string commit;
    if (FILE *p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
        char buf[64] = {0};
        if (std::fgets(buf, sizeof(buf), p) != nullptr)
            commit.assign(buf);
        ::pclose(p);
    }
    while (!commit.empty() &&
           (commit.back() == '\n' || commit.back() == '\r'))
        commit.pop_back();
    return commit.empty() ? "unknown" : commit;
}

void
writeResult(const DriverOptions &opts, const ScenarioResult &r)
{
    std::string path = opts.outDir + "/BENCH_" + r.scenario + ".json";
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "perf_driver: cannot write %s\n",
                     path.c_str());
        std::exit(1);
    }
    telemetry::JsonWriter w(out, true);
    w.beginObject();
    w.member("schema", "chisel.bench.v1");
    w.member("scenario", r.scenario);
    w.member("commit", gitCommit());
    w.member("config_fingerprint", r.fingerprint);
    w.member("quick", opts.quick);
    w.member("table_size", r.tableSize);
    w.member("ops", r.ops);
    w.member("threads", r.threads);
    w.member("ops_per_sec", r.opsPerSec);
    w.member("p50_ns", r.p50Ns);
    w.member("p95_ns", r.p95Ns);
    w.member("p99_ns", r.p99Ns);
    w.member("accesses_per_op", r.accessesPerOp);
    if (r.bytesPerRoute)
        w.member("bytes_per_route", *r.bytesPerRoute);
    w.endObject();
    out << "\n";
    std::printf("perf_driver: %-10s %12.0f ops/s  p50 %6lu ns  "
                "p99 %6lu ns  %.2f accesses/op  -> %s\n",
                r.scenario.c_str(), r.opsPerSec,
                static_cast<unsigned long>(r.p50Ns),
                static_cast<unsigned long>(r.p99Ns), r.accessesPerOp,
                path.c_str());
}

/**
 * Resident set size after returning freed heap pages to the kernel,
 * read the way perfbench's residentBytes() reads it.
 */
uint64_t
residentBytes()
{
    malloc_trim(0);
    std::ifstream statm("/proc/self/statm");
    uint64_t size = 0, resident = 0;
    statm >> size >> resident;
    return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

void
fillQuantiles(const telemetry::Pow2Histogram &h, ScenarioResult &r)
{
    r.p50Ns = h.quantile(0.50);
    r.p95Ns = h.quantile(0.95);
    r.p99Ns = h.quantile(0.99);
}

// ---- lookup ---------------------------------------------------------

/**
 * Single-thread lookups of @p keys (a power-of-two count) in order,
 * wrapping around: throughput over r.ops, latency over @p latency_ops,
 * and traced accesses over the first 4096 keys.
 */
void
measureLookups(const ChiselEngine &engine, const std::vector<Key128> &keys,
               size_t latency_ops, ScenarioResult &r)
{
    const size_t mask = keys.size() - 1;

    // Throughput: no per-op clock reads polluting the loop.
    uint64_t begin = monotonicNowNs();
    for (size_t i = 0; i < r.ops; ++i) {
        volatile bool found = engine.lookup(keys[i & mask]).found;
        (void)found;
    }
    uint64_t elapsed = monotonicNowNs() - begin;
    r.opsPerSec = elapsed ? r.ops * 1e9 / double(elapsed) : 0.0;

    // Latency: a separate, per-op-timed pass.
    telemetry::Pow2Histogram lat;
    for (size_t i = 0; i < latency_ops; ++i) {
        uint64_t t0 = monotonicNowNs();
        volatile bool found = engine.lookup(keys[i & mask]).found;
        (void)found;
        lat.sample(monotonicNowNs() - t0);
    }
    fillQuantiles(lat, r);

    // Accesses/lookup: the paper's "4 memory accesses" budget
    // (reads 0 when CHISEL_ENABLE_TRACING=OFF).
    const size_t traced = std::min<size_t>(keys.size(), 4096);
    telemetry::AccessTracer tracer;
    {
        telemetry::ScopedTracer scope(&tracer);
        for (size_t i = 0; i < traced; ++i)
            engine.lookup(keys[i]);
    }
    r.accessesPerOp = double(tracer.totalReads()) / traced;
}

ScenarioResult
runLookup(const DriverOptions &opts)
{
    const size_t tableSize = opts.quick ? 5000 : 50000;
    const unsigned keyCount = 4096;

    ScenarioResult r;
    r.scenario = "lookup";
    r.tableSize = tableSize;
    r.ops = opts.quick ? 200000 : 2000000;
    r.fingerprint = hex8(fnv1a(
        "lookup:v1:table=" + std::to_string(tableSize) +
        ":keys=" + std::to_string(keyCount) +
        ":width=32:match=0.85:seed=be" +
        (opts.quick ? ":quick" : "")));

    RoutingTable table = generateScaledTable(tableSize, 32, 0xBE);
    ChiselEngine engine(table);
    measureLookups(engine,
                   generateLookupKeys(table, keyCount, 32, 0.85, 0xBF),
                   opts.quick ? 20000 : 100000, r);
    return r;
}

// ---- lookup_dfz -----------------------------------------------------

ScenarioResult
runLookupDfz(const DriverOptions &opts)
{
    // A quarter of a DFZ table (one shard of perfbench's v4_dfz_read),
    // read through a 16 MiB stream of keys: the tables and the keys
    // are far larger than the caches, so every table read misses.
    const size_t tableSize = 262144;
    const size_t keyCount = size_t(1) << 20;

    ScenarioResult r;
    r.scenario = "lookup_dfz";
    r.tableSize = tableSize;
    r.ops = opts.quick ? 2000000 : 8000000;
    r.fingerprint = hex8(fnv1a(
        "lookup_dfz:v1:table=" + std::to_string(tableSize) +
        ":keys=" + std::to_string(keyCount) +
        ":width=32:match=0.85:seed=df" + (opts.quick ? ":quick" : "")));

    RoutingTable table = generateScaledTable(tableSize, 32, 0xDF);
    const uint64_t rss0 = residentBytes();
    ChiselEngine engine(table);
    r.bytesPerRoute = (static_cast<double>(residentBytes()) -
                       static_cast<double>(rss0)) /
                      static_cast<double>(tableSize);
    measureLookups(engine,
                   generateLookupKeys(table, keyCount, 32, 0.85, 0xE0),
                   opts.quick ? 200000 : 800000, r);
    return r;
}

// ---- update ---------------------------------------------------------

ScenarioResult
runUpdate(const DriverOptions &opts)
{
    const size_t tableSize = opts.quick ? 8000 : 80000;
    const size_t ops = opts.quick ? 20000 : 200000;

    ScenarioResult r;
    r.scenario = "update";
    r.tableSize = tableSize;
    r.ops = ops;
    r.fingerprint = hex8(fnv1a(
        "update:v1:table=" + std::to_string(tableSize) +
        ":trace=synthetic:width=32:seed=c7" +
        (opts.quick ? ":quick" : "")));

    RoutingTable table = generateScaledTable(tableSize, 32, 0x0C7);
    ChiselEngine engine(table);
    UpdateTraceGenerator gen(table, TraceProfile{}, 32, 0x0C8);

    // One pre-generated trace serves both passes, so generator cost
    // never shows up in the measurement.
    std::vector<Update> updates;
    updates.reserve(ops);
    for (size_t i = 0; i < ops; ++i)
        updates.push_back(gen.next());

    telemetry::Pow2Histogram lat;
    uint64_t begin = monotonicNowNs();
    for (const Update &u : updates) {
        uint64_t t0 = monotonicNowNs();
        engine.apply(u);
        lat.sample(monotonicNowNs() - t0);
    }
    uint64_t elapsed = monotonicNowNs() - begin;
    r.opsPerSec = elapsed ? ops * 1e9 / double(elapsed) : 0.0;
    fillQuantiles(lat, r);

    // Accesses/update over a short traced tail of fresh updates.
    const size_t traced = opts.quick ? 512 : 4096;
    telemetry::AccessTracer tracer;
    {
        telemetry::ScopedTracer scope(&tracer);
        for (size_t i = 0; i < traced; ++i)
            engine.apply(gen.next());
    }
    r.accessesPerOp =
        double(tracer.totalReads() + tracer.totalWrites()) / traced;
    return r;
}

// ---- concurrent -----------------------------------------------------

ScenarioResult
runConcurrent(const DriverOptions &opts)
{
    const size_t tableSize = opts.quick ? 5000 : 50000;
    const size_t opsPerReader = opts.quick ? 200000 : 1000000;
    const size_t writerOps = opts.quick ? 2000 : 20000;
    const unsigned readers = 2;
    const unsigned keyCount = 4096;

    ScenarioResult r;
    r.scenario = "concurrent";
    r.tableSize = tableSize;
    r.ops = uint64_t(opsPerReader) * readers;
    r.threads = readers + 1;
    r.fingerprint = hex8(fnv1a(
        "concurrent:v1:table=" + std::to_string(tableSize) +
        ":readers=" + std::to_string(readers) +
        ":width=32:seed=d1" + (opts.quick ? ":quick" : "")));

    RoutingTable table = generateScaledTable(tableSize, 32, 0xD1);
    concurrent::ConcurrentOptions copts;
    copts.controlThread = false;
    concurrent::ConcurrentChisel engine(table, {}, copts);
    std::vector<Key128> keys =
        generateLookupKeys(table, keyCount, 32, 0.85, 0xD2);

    telemetry::Pow2Histogram lat;
    std::vector<uint64_t> elapsed(readers, 0);
    std::vector<std::thread> threads;
    threads.reserve(readers);
    for (unsigned t = 0; t < readers; ++t) {
        threads.emplace_back([&, t] {
            uint64_t begin = monotonicNowNs();
            for (size_t i = 0; i < opsPerReader; ++i) {
                // Sample 1/64 of the ops: latency without turning
                // the throughput loop into a clock benchmark.
                if ((i & 63) == 0) {
                    uint64_t t0 = monotonicNowNs();
                    volatile bool found =
                        engine.lookup(keys[i & (keyCount - 1)])
                            .found;
                    (void)found;
                    lat.sample(monotonicNowNs() - t0);
                } else {
                    volatile bool found =
                        engine.lookup(keys[i & (keyCount - 1)])
                            .found;
                    (void)found;
                }
            }
            elapsed[t] = monotonicNowNs() - begin;
        });
    }

    // The live writer the readers must never stall behind.
    UpdateTraceGenerator gen(table, TraceProfile{}, 32, 0xD3);
    for (size_t i = 0; i < writerOps; ++i)
        engine.apply(gen.next());

    for (std::thread &th : threads)
        th.join();

    uint64_t worst = 0;
    for (uint64_t e : elapsed)
        worst = e > worst ? e : worst;
    r.opsPerSec =
        worst ? double(r.ops) * 1e9 / double(worst) : 0.0;
    fillQuantiles(lat, r);
    r.accessesPerOp = 0.0;   // Readers are untraced by design here.
    return r;
}

// ---- concurrent_update ----------------------------------------------

/**
 * Updates through ConcurrentChisel while two readers stream lookups:
 * writer ops/s and per-apply latency (journal off), the path every
 * shard of a plane runs — one apply on the idle image, flip, grace
 * period, replay of the written words onto the other image.
 */
ScenarioResult
runConcurrentUpdate(const DriverOptions &opts)
{
    const size_t tableSize = opts.quick ? 5000 : 50000;
    const size_t ops = opts.quick ? 20000 : 200000;
    const unsigned readers = 2;
    const unsigned keyCount = 4096;

    ScenarioResult r;
    r.scenario = "concurrent_update";
    r.tableSize = tableSize;
    r.ops = ops;
    r.threads = readers + 1;
    r.fingerprint = hex8(fnv1a(
        "concurrent_update:v1:table=" + std::to_string(tableSize) +
        ":readers=" + std::to_string(readers) +
        ":width=32:seed=e1" + (opts.quick ? ":quick" : "")));

    RoutingTable table = generateScaledTable(tableSize, 32, 0xE1);
    concurrent::ConcurrentOptions copts;
    copts.controlThread = false;
    concurrent::ConcurrentChisel engine(table, {}, copts);
    std::vector<Key128> keys =
        generateLookupKeys(table, keyCount, 32, 0.85, 0xE2);
    UpdateTraceGenerator gen(table, TraceProfile{}, 32, 0xE3);
    std::vector<Update> updates;
    updates.reserve(ops);
    for (size_t i = 0; i < ops; ++i)
        updates.push_back(gen.next());

    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    threads.reserve(readers);
    for (unsigned t = 0; t < readers; ++t) {
        threads.emplace_back([&, t] {
            for (size_t i = t; !done.load(std::memory_order_relaxed); ++i) {
                volatile bool found =
                    engine.lookup(keys[i & (keyCount - 1)]).found;
                (void)found;
            }
        });
    }

    // ops/s is the median over ten slices of the trace: a grace period
    // that waits out a reader the scheduler parked mid-section stalls
    // one slice by milliseconds, which must not set the figure.
    constexpr size_t kSlices = 10;
    telemetry::Pow2Histogram lat;
    std::vector<double> rates;
    for (size_t slice = 0; slice < kSlices; ++slice) {
        const size_t first = ops * slice / kSlices;
        const size_t last = ops * (slice + 1) / kSlices;
        uint64_t begin = monotonicNowNs();
        for (size_t i = first; i < last; ++i) {
            uint64_t t0 = monotonicNowNs();
            engine.apply(updates[i]);
            lat.sample(monotonicNowNs() - t0);
        }
        uint64_t elapsed = monotonicNowNs() - begin;
        rates.push_back(elapsed ? (last - first) * 1e9 / double(elapsed)
                                : 0.0);
    }
    done.store(true, std::memory_order_relaxed);
    for (std::thread &th : threads)
        th.join();

    std::sort(rates.begin(), rates.end());
    r.opsPerSec = (rates[kSlices / 2 - 1] + rates[kSlices / 2]) / 2;
    fillQuantiles(lat, r);
    r.accessesPerOp = 0.0;   // Untraced, like the concurrent scenario.
    return r;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    DriverOptions opts;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--out-dir=", 10) == 0) {
            opts.outDir = arg + 10;
        } else if (std::strncmp(arg, "--scenario=", 11) == 0) {
            opts.scenario = arg + 11;
        } else if (std::strcmp(arg, "--quick") == 0) {
            opts.quick = true;
        } else {
            std::fprintf(stderr,
                         "usage: perf_driver [--out-dir=DIR] "
                         "[--scenario=lookup|lookup_dfz|update|"
                         "concurrent|concurrent_update|all] [--quick]\n");
            return 2;
        }
    }
    bool all = opts.scenario == "all";
    bool ran = false;
    if (all || opts.scenario == "lookup") {
        writeResult(opts, runLookup(opts));
        ran = true;
    }
    if (all || opts.scenario == "lookup_dfz") {
        writeResult(opts, runLookupDfz(opts));
        ran = true;
    }
    if (all || opts.scenario == "update") {
        writeResult(opts, runUpdate(opts));
        ran = true;
    }
    if (all || opts.scenario == "concurrent") {
        writeResult(opts, runConcurrent(opts));
        ran = true;
    }
    if (all || opts.scenario == "concurrent_update") {
        writeResult(opts, runConcurrentUpdate(opts));
        ran = true;
    }
    if (!ran) {
        std::fprintf(stderr, "perf_driver: unknown scenario '%s'\n",
                     opts.scenario.c_str());
        return 2;
    }
    return 0;
}
