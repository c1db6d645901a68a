#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>

#include "core/engine.hh"
#include "net/server.hh"
#include "phases.hh"

namespace perfbench {

using namespace chisel;

void
Sliced::merge(const Sliced &other)
{
    for (unsigned k = 0; k < kSlices; ++k) {
        latency[k].merge(other.latency[k]);
        ops[k] += other.ops[k];
    }
}

uint64_t
Sliced::total() const
{
    uint64_t n = 0;
    for (uint64_t o : ops)
        n += o;
    return n;
}

double
Sliced::rate() const
{
    std::vector<double> v;
    for (unsigned k = 0; k < kSlices; ++k)
        if (seconds[k] > 0.0)
            v.push_back(static_cast<double>(ops[k]) / seconds[k]);
    return median(v);
}

double
Sliced::quantileNs(double q) const
{
    std::vector<double> v;
    for (const LatencyRecorder &r : latency)
        if (r.count() > 0)
            v.push_back(r.quantileNs(q));
    return median(v);
}

double
MainPhase::cpuBusyShare(const WorkloadSpec &spec) const
{
    return usage.cpuSeconds / (wallSeconds * spec.busyThreads());
}

double
MainPhase::involuntaryPerSecond() const
{
    return static_cast<double>(usage.involuntarySwitches) / wallSeconds;
}

void
noteNoise(const WorkloadSpec &spec, const MainPhase &m, Report &report)
{
    report.note("proc.busy_threads", spec.busyThreads(), "count");
    report.note("proc.cpu_busy_share", m.cpuBusyShare(spec), "share");
    report.note("proc.invol_csw_per_s", m.involuntaryPerSecond(), "1/s");
}

CallPhase
runCalls(net::ServiceClient &client, const std::vector<Key128> &keys,
         uint64_t duration_ns, const BinaryTrie &oracle, SpanLog &log)
{
    struct Kept
    {
        size_t first;
        std::vector<net::WireLookup> results;
    };
    std::vector<Kept> kept;

    CallPhase out;
    std::array<uint64_t, kSlices> first{}, last{};
    std::vector<Key128> batch(kCallKeys);
    size_t i = 0;
    uint64_t calls = 0;
    const uint64_t begin = monotonicNowNs();
    uint64_t now = begin;
    while (now - begin < duration_ns) {
        if (i + kCallKeys > keys.size())
            i = 0;
        std::copy_n(keys.begin() + static_cast<ptrdiff_t>(i), kCallKeys,
                    batch.begin());
        const unsigned k = static_cast<unsigned>(
            (now - begin) * kSlices / duration_ns);
        uint64_t t0 = monotonicNowNs();
        net::LookupCallResult r = client.lookup(batch);
        now = monotonicNowNs();
        if (first[k] == 0)
            first[k] = t0;
        last[k] = now;
        out.calls.latency[k].add(now - t0);
        ++out.calls.ops[k];
        log.record("net.call", 0, calls, t0, now);
        if (r.status != net::CallStatus::Ok ||
            r.results.size() != kCallKeys) {
            ++out.failed;
        } else if (calls % 64 == 0) {
            kept.push_back({i, std::move(r.results)});
        }
        ++calls;
        i += kCallKeys;
    }
    for (unsigned k = 0; k < kSlices; ++k)
        out.calls.seconds[k] = 1e-9 * static_cast<double>(last[k] - first[k]);

    for (const Kept &c : kept) {
        for (size_t j = 0; j < kCallKeys; ++j) {
            const net::WireLookup &got = c.results[j];
            std::optional<Route> want = oracle.lookup(keys[c.first + j]);
            bool ok = want ? (got.found && got.nextHop == want->nextHop &&
                              got.matchedLength == want->prefix.length())
                           : !got.found;
            out.mismatched += ok ? 0 : 1;
        }
    }
    return out;
}

ApplyPhase
applyTrace(shard::ShardedChisel &plane, const std::vector<Update> &trace,
           const std::function<void()> &slice_done)
{
    ApplyPhase out;
    size_t i = 0;
    for (unsigned k = 0; k < kSlices; ++k) {
        const size_t end = trace.size() * (k + 1) / kSlices;
        const uint64_t begin = monotonicNowNs();
        for (; i < end; ++i) {
            uint64_t t0 = monotonicNowNs();
            shard::ShardedChisel::ApplyResult r = plane.apply(trace[i]);
            out.updates.latency[k].add(monotonicNowNs() - t0);
            if (r.outcome.status == UpdateStatus::Rejected)
                ++out.rejected;
            ++out.updates.ops[k];
        }
        out.updates.seconds[k] =
            1e-9 * static_cast<double>(monotonicNowNs() - begin);
        if (slice_done)
            slice_done();
    }
    return out;
}

MainPhase
runMainPhase(const WorkloadSpec &spec, shard::ShardedChisel &plane,
             const Inputs &inputs, unsigned seconds, bool traced)
{
    MainPhase out;
    Usage before = processUsage();
    uint64_t begin = monotonicNowNs();

    ReaderPool<shard::ShardedChisel> pool(plane, inputs.keys, spec.readers,
                                          traced, "shard.lookup");
    pool.start();
    if (spec.churn)
        out.updates =
            applyTrace(plane, inputs.trace, [&pool] { pool.advance(); });
    else
        pool.runFor(seconds);
    out.reads = pool.stop();
    out.logs = pool.takeLogs();

    out.wallSeconds = 1e-9 * static_cast<double>(monotonicNowNs() - begin);
    Usage after = processUsage();
    out.usage.cpuSeconds = after.cpuSeconds - before.cpuSeconds;
    out.usage.involuntarySwitches =
        after.involuntarySwitches - before.involuntarySwitches;
    return out;
}

namespace {

/** Set-ups per run; setup_s and rss_bytes_per_route take the median. */
constexpr unsigned kSetups = 3;

double
bitsPerRoute(const WorkloadSpec &spec, const RoutingTable &table)
{
    ChiselConfig config;
    config.keyWidth = spec.keyWidth;
    ChiselEngine engine(table, config);
    return static_cast<double>(engine.storage().totalBits()) /
           static_cast<double>(table.size());
}

} // anonymous namespace

void
Serving::stopService()
{
    client.reset();
    if (service)
        service->stop();
    service.reset();
    if (savedCpus) {
        pthread_setaffinity_np(pthread_self(), sizeof(cpu_set_t),
                               savedCpus.get());
        savedCpus.reset();
    }
}

void
Serving::reset()
{
    stopService();
    plane.reset();
    if (!dir.empty())
        removeDir(dir);
    dir.clear();
}

void
setUp(const WorkloadSpec &spec, const RoutingTable &table, Serving &s)
{
    s.dir = spec.churn ? scratchDir("plane") : "";
    s.plane = std::make_unique<shard::ShardedChisel>(
        table, planeOptions(spec, s.dir));
}

bool
startService(Serving &s)
{
    // The client (this thread) and the serving thread share one CPU,
    // which the serving thread inherits at start().  Across CPUs, each
    // call pays two cross-CPU wake-ups, and on a shared VM their cost
    // made call p99 vary 170-380 us between identical runs; on one CPU
    // each hand-off is a context switch.  The closed loop has one busy
    // thread at a time either way.
    cpu_set_t all;
    CPU_ZERO(&all);
    if (pthread_getaffinity_np(pthread_self(), sizeof(all), &all) != 0)
        return false;
    s.savedCpus = std::make_unique<cpu_set_t>(all);
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (CPU_ISSET(cpu, &all)) {
            CPU_SET(cpu, &one);
            break;
        }
    }
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);

    s.service = std::make_unique<net::ChiselService>(*s.plane);
    if (!s.service->start())
        return false;
    net::ClientOptions copts;
    copts.port = s.service->port();
    s.client = std::make_unique<net::ServiceClient>(copts);
    return s.client->ping().status == net::CallStatus::Ok;
}

void
runEndToEnd(const RunOptions &options, Report &report)
{
    const WorkloadSpec &spec = *options.spec;
    uint64_t t = monotonicNowNs();
    Inputs in = makeInputs(spec, options.seed, options.seconds);
    // One oracle: the initial table, replayed past the trace once the
    // plane has applied it (v6_churn applies it in the main phase).
    BinaryTrie trie(in.table);
    if (spec.churn)
        replayTrace(trie, in.trace);
    std::fprintf(stderr, "perfbench: inputs %.2f s\n",
                 1e-9 * static_cast<double>(monotonicNowNs() - t));

    // Set-up: a RoutingTable in memory to serving, timed kSetups times.
    // The plane measured below is the first one, so it is built on the
    // same heap in every run; a plane built after others were torn
    // down ran its updates up to 20% slower or faster from run to run.
    std::vector<double> setupS, rssPerRoute;
    Serving s;
    auto timedSetUp = [&] {
        s.reset();
        uint64_t rss0 = residentBytes();
        uint64_t t0 = monotonicNowNs();
        setUp(spec, in.table, s);
        setupS.push_back(1e-9 * static_cast<double>(monotonicNowNs() - t0));
        rssPerRoute.push_back(
            (static_cast<double>(residentBytes()) -
             static_cast<double>(rss0)) /
            static_cast<double>(in.table.size()));
        std::fprintf(stderr, "perfbench: set-up %.3f s\n", setupS.back());
    };
    timedSetUp();

    MainPhase m = runMainPhase(spec, *s.plane, in, options.seconds, false);
    noteNoise(spec, m, report);
    const Sliced &lookups = m.reads;
    report.attempted += lookups.total();

    // The update burst: v6_churn's ran beside the readers; on the
    // DFZ planes the same kind of trace follows the read phase, with
    // no readers.
    if (!spec.churn) {
        report.failed += oracleMismatches(*s.plane, trie, in.sample);
        report.attempted += in.sample.size();
    }
    double accesses = modelAccessesPerLookup(*s.plane, in.sample);
    ApplyPhase upd = spec.churn ? std::move(m.updates)
                                : applyTrace(*s.plane, in.trace);
    if (!spec.churn)
        replayTrace(trie, in.trace);
    report.attempted += upd.updates.total();
    report.failed += upd.rejected;
    report.failed += oracleMismatches(*s.plane, trie, in.sample);
    report.attempted += in.sample.size();
    for (unsigned i = 1; i < kSetups; ++i)
        timedSetUp();
    s.reset();

    double bits = bitsPerRoute(spec, in.table);

    const uint64_t nl = lookups.total(), nu = upd.updates.total();
    report.add("setup_s", median(setupS), "s", setupS.size());
    report.add("rss_bytes_per_route", median(rssPerRoute), "B",
               rssPerRoute.size());
    report.add("lookup_mops", 1e-6 * lookups.rate(), "M/s", nl);
    report.add("lookup_p50_us", 1e-3 * lookups.quantileNs(0.50), "us", nl);
    report.add("update_kops", 1e-3 * upd.updates.rate(), "k/s", nu);
    report.add("update_p50_us", 1e-3 * upd.updates.quantileNs(0.50), "us",
               nu);
    // The p99 tails are per-layer metrics (their spread between runs of
    // identical code exceeds any bound the benchmark may set); they are
    // printed here for reading, not judged.
    report.note("lookup_p99_us", 1e-3 * lookups.quantileNs(0.99), "us");
    report.note("update_p99_us", 1e-3 * upd.updates.quantileNs(0.99), "us");
    report.add("model_accesses_per_lookup", accesses, "count",
               in.sample.size());
    report.add("model_bits_per_route", bits, "bits", in.table.size());
}

} // namespace perfbench
