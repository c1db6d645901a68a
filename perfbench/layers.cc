/**
 * @file
 * The traced run: per-layer metrics from the outside in.
 *
 * The benchmark times its own calls into each layer's public
 * functions on the workload's inputs, one span per call or per batch
 * of identical calls (tiny calls are batched so the clock reads do
 * not dominate).  Spans stay in memory and are written out when the
 * run ends.  An AccessTracer counts per-table accesses over the fixed
 * key sample.
 *
 * Every layer gets its number on every workload.  Layers off a
 * workload's own path (net everywhere, persist on the DFZ plane) are
 * driven with that workload's inputs by a short probe of their own.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unordered_set>

#include "bloom/bloomier.hh"
#include "concurrent/epoch.hh"
#include "core/engine.hh"
#include "hash/h3.hh"
#include "net/rpc.hh"
#include "persist/journal.hh"
#include "phases.hh"
#include "telemetry/trace.hh"

namespace perfbench {

using namespace chisel;

namespace {

/** Keys per probe request (one span per layer per request). */
constexpr size_t kBatch = 64;

/** Keys each layer's probe sweep looks up. */
constexpr size_t kProbeKeys = 32768;

/** Calls per EpochManager span: enter + exit is a few ns. */
constexpr size_t kGuardCalls = 256;

/** Disjoint, equally cold key slices: one per probe sweep. */
class ProbeKeys
{
  public:
    explicit ProbeKeys(const std::vector<Key128> &keys)
        : keys_(keys), size_(std::min(kProbeKeys, keys.size() / 8))
    {}

    std::vector<Key128>
    next()
    {
        size_t first = (slice_++ % 8) * size_;
        return {keys_.begin() + static_cast<ptrdiff_t>(first),
                keys_.begin() + static_cast<ptrdiff_t>(first + size_)};
    }

  private:
    const std::vector<Key128> &keys_;
    size_t size_;
    size_t slice_ = 0;
};

/**
 * One sweep over @p keys in requests of kBatch keys: @p body(key)
 * returns how many calls it made; each request becomes one span,
 * child of a sweep span.
 */
template <class Body>
void
sweep(SpanLog &log, const char *name, const std::vector<Key128> &keys,
      Body body)
{
    uint64_t begin = monotonicNowNs();
    std::vector<std::pair<uint64_t, uint64_t>> batches;
    std::vector<uint32_t> calls;
    for (size_t r = 0; r * kBatch < keys.size(); ++r) {
        size_t end = std::min(keys.size(), (r + 1) * kBatch);
        uint32_t n = 0;
        uint64_t t0 = monotonicNowNs();
        for (size_t i = r * kBatch; i < end; ++i)
            n += body(keys[i]);
        uint64_t t1 = monotonicNowNs();
        batches.emplace_back(t0, t1);
        calls.push_back(n);
    }
    uint32_t parent =
        log.record("bench.sweep", 0, 0, begin, monotonicNowNs());
    for (size_t r = 0; r < batches.size(); ++r)
        log.record(name, parent + 1, r, batches[r].first,
                   batches[r].second, calls[r]);
}

/**
 * Update-path spans: one span per kUpdateBatch calls of one kind,
 * covering their busy time (calls of another kind may interleave).
 */
class UpdateSpans
{
  public:
    static constexpr uint32_t kUpdateBatch = 16;

    UpdateSpans(SpanLog &log, const char *name) : log_(log), name_(name) {}
    ~UpdateSpans() { flush(); }

    UpdateSpans(const UpdateSpans &) = delete;
    UpdateSpans &operator=(const UpdateSpans &) = delete;

    void
    add(uint64_t start_ns, uint64_t end_ns)
    {
        if (calls_ == 0)
            first_ = start_ns;
        busy_ += end_ns - start_ns;
        if (++calls_ == kUpdateBatch)
            flush();
    }

    void
    flush()
    {
        if (calls_ > 0)
            log_.record(name_, 0, batch_++, first_, first_ + busy_, calls_);
        calls_ = 0;
        busy_ = 0;
    }

  private:
    SpanLog &log_;
    const char *name_;
    uint64_t first_ = 0, busy_ = 0, batch_ = 0;
    uint32_t calls_ = 0;
};

/** Median ns per call of @p name in @p log. */
double
perCallNs(const SpanLog &log, const char *name)
{
    return spanMedianNs(log.spans(), name);
}

double
share(uint64_t part, uint64_t whole)
{
    return whole == 0 ? 0.0
                      : static_cast<double>(part) /
                            static_cast<double>(whole);
}

/** Collapsed keys of the routes @p cell serves, coded 0..n-1. */
std::vector<std::pair<Key128, uint32_t>>
cellEntries(const RoutingTable &table, const SubCell &cell)
{
    std::unordered_set<Key128, Key128Hasher> seen;
    std::vector<std::pair<Key128, uint32_t>> out;
    for (const Route &r : table.routes()) {
        unsigned len = r.prefix.length();
        if (len < cell.base() || len > cell.top())
            continue;
        Key128 k = r.prefix.bits().masked(cell.base());
        if (seen.insert(k).second)
            out.emplace_back(k, static_cast<uint32_t>(out.size()));
    }
    return out;
}

} // anonymous namespace

void
runTraced(const RunOptions &options, Report &report)
{
    const WorkloadSpec &spec = *options.spec;
    const ChiselConfig config = planeOptions(spec, "").config;
    const unsigned probeSeconds = std::max(1u, options.seconds / 2);
    Inputs in = makeInputs(spec, options.seed, options.seconds);
    BinaryTrie trie(in.table);
    ProbeKeys probeKeys(in.keys);
    SpanLog log(size_t(1) << 20);
    auto countRejected = [&](const UpdateOutcome &o) {
        ++report.attempted;
        report.failed += o.status == UpdateStatus::Rejected ? 1 : 0;
    };

    // ---- Main phase, untraced then traced -----------------------------
    Serving s;
    setUp(spec, in.table, s);
    MainPhase plain = runMainPhase(spec, *s.plane, in, options.seconds, false);
    if (spec.churn) {
        // The burst moved the table: trace it again on a fresh plane.
        s.reset();
        setUp(spec, in.table, s);
    }
    MainPhase traced = runMainPhase(spec, *s.plane, in, options.seconds, true);
    for (const MainPhase *m : {&plain, &traced}) {
        report.attempted += m->reads.total() + m->updates.updates.total();
        report.failed += m->updates.rejected;
    }
    if (spec.churn)
        replayTrace(trie, in.trace);

    // ---- Per-table counts and tiers over the fixed sample -------------
    telemetry::AccessTracer tracer;
    uint64_t spill = 0, slow = 0, dflt = 0, miss = 0;
    {
        telemetry::ScopedTracer scope(&tracer);
        for (const Key128 &k : in.sample) {
            LookupResult r = s.plane->lookup(k);
            spill += r.fromSpill;
            slow += r.fromSlowPath;
            dflt += r.fromDefault;
            miss += !r.found;
        }
    }
    const uint64_t n = in.sample.size();
    using telemetry::Table;
    double cells = share(tracer.counts(Table::Index).reads, n) / config.k;
    report.add("core.cells_probed_per_lookup", cells, "count", n);
    report.add("hash.calls_per_lookup", (config.k + 1) * cells, "count", n);
    report.add("core.filter_reads_per_lookup",
               share(tracer.counts(Table::Filter).reads, n), "count", n);
    report.add("core.bitvector_reads_per_lookup",
               share(tracer.counts(Table::BitVector).reads, n), "count", n);
    report.add("core.result_reads_per_lookup",
               share(tracer.counts(Table::Result).reads, n), "count", n);
    report.add("core.tier_cell_share",
               share(n - spill - slow - dflt - miss, n), "share", n);
    report.add("core.tier_spill_share", share(spill, n), "share", n);
    report.add("core.tier_slowpath_share", share(slow, n), "share", n);
    report.add("core.tier_default_share", share(dflt, n), "share", n);
    report.add("core.miss_share", share(miss, n), "share", n);
    report.failed += oracleMismatches(*s.plane, trie, in.sample);
    report.attempted += n;

    // ---- Shard and concurrent layers ----------------------------------
    const shard::ShardedChisel &plane = *s.plane;
    uint64_t sink = 0;
    sweep(log, "shard.lookup", probeKeys.next(), [&](const Key128 &k) {
        sink += plane.lookup(k).nextHop;
        return 1u;
    });
    sweep(log, "shard.select", probeKeys.next(), [&](const Key128 &k) {
        sink += plane.shardOf(k);
        return 1u;
    });
    {
        std::vector<Key128> keys = probeKeys.next();
        std::vector<size_t> owner(keys.size());
        for (size_t i = 0; i < keys.size(); ++i)
            owner[i] = plane.shardOf(keys[i]);
        size_t i = 0;
        sweep(log, "concurrent.lookup", keys, [&](const Key128 &k) {
            sink += plane.shardEngine(owner[i++]).lookup(k).nextHop;
            return 1u;
        });
    }
    {
        concurrent::EpochManager epochs;
        sweep(log, "concurrent.read_guard", probeKeys.next(),
              [&](const Key128 &) {
                  for (size_t c = 0; c < kGuardCalls; ++c)
                      epochs.exit(epochs.enter());
                  return static_cast<uint32_t>(kGuardCalls);
              });
    }
    std::vector<uint64_t> perShard(plane.shards(), 0);
    for (const Key128 &k : in.keys)
        ++perShard[plane.shardOf(k)];
    double shardMean = static_cast<double>(in.keys.size()) /
                       static_cast<double>(plane.shards());
    const double shardLookupNs = perCallNs(log, "shard.lookup");
    report.add("shard.lookup_ns", shardLookupNs, "ns");
    report.add("shard.select_ns", perCallNs(log, "shard.select"), "ns");
    report.add("shard.imbalance",
               static_cast<double>(
                   *std::max_element(perShard.begin(), perShard.end())) /
                   shardMean,
               "ratio", in.keys.size());
    report.add("concurrent.lookup_ns", perCallNs(log, "concurrent.lookup"),
               "ns");
    report.add("concurrent.read_guard_ns",
               perCallNs(log, "concurrent.read_guard"),
               "ns");

    Sliced one, three;
    {
        ReaderPool<shard::ShardedChisel> pool(plane, in.keys, 1, false);
        pool.start();
        pool.runFor(probeSeconds);
        one = pool.stop();
    }
    {
        ReaderPool<shard::ShardedChisel> pool(plane, in.keys, 3, false);
        pool.start();
        pool.runFor(probeSeconds);
        three = pool.stop();
    }
    report.add("concurrent.reader_scaling", three.rate() / (3.0 * one.rate()),
               "ratio", one.total() + three.total());
    report.attempted += one.total() + three.total();

    // ---- Net: codec, and calls over loopback --------------------------
    {
        std::vector<Key128> keys = probeKeys.next();
        const std::vector<Key128> batch(keys.begin(),
                                        keys.begin() + kCallKeys);
        uint64_t id = 0;
        net::MessageReader reader;
        net::RpcMessage msg;
        std::vector<net::WireLookup> results(kCallKeys);
        sweep(log, "net.codec", keys, [&](const Key128 &) {
            // One request and its reply, each encoded and decoded.
            std::vector<uint8_t> bytes = net::encodeMessage(
                net::makeLookupRequest(++id, batch));
            reader.feed(bytes.data(), bytes.size());
            bool ok = reader.next(msg);
            bytes = net::encodeMessage(
                net::makeLookupReply(id, 1, results));
            reader.feed(bytes.data(), bytes.size());
            ok = reader.next(msg) && ok;
            sink += ok;
            return 1u;
        });
        report.add("net.codec_ns", perCallNs(log, "net.codec"), "ns");
    }
    // One client on one connection sends 16-key calls to a service over
    // the workload's plane, on loopback.
    if (!startService(s)) {
        report.fail("service did not start");
        return;
    }
    CallPhase calls = runCalls(*s.client, in.keys,
                               uint64_t(probeSeconds) * 1'000'000'000ULL,
                               trie, log);
    net::ClientStats clientStats = s.client->stats();
    report.attempted += calls.calls.total();
    report.failed += calls.failed + calls.mismatched;
    s.stopService();
    report.add("net.call_p99_us", 1e-3 * calls.calls.quantileNs(0.99),
               "us", calls.calls.total());
    report.add("net.overhead_us",
               1e-3 * (calls.calls.quantileNs(0.50) -
                       static_cast<double>(kCallKeys) * shardLookupNs),
               "us", calls.calls.total());
    report.add("net.retries", static_cast<double>(clientStats.retries),
               "count");
    report.add("net.overloaded", static_cast<double>(clientStats.overloaded),
               "count");

    // ---- Concurrent apply, and the persist lane of a journaled plane --
    double snapshotS = 0.0, restartS = 0.0;
    // Per-update latency of the DFZ plane's update phase below; on
    // v6_churn the main phase already timed ShardedChisel::apply.
    LatencyRecorder applyLatency;
    auto reopen = [&](Serving &p) {
        // Snapshot, drop the plane, reopen it from its directory.
        uint64_t t0 = monotonicNowNs();
        p.plane->saveSnapshots();
        snapshotS = 1e-9 * static_cast<double>(monotonicNowNs() - t0);
        p.plane.reset();
        t0 = monotonicNowNs();
        p.plane = std::make_unique<shard::ShardedChisel>(
            in.table, planeOptions(spec, p.dir));
        restartS = 1e-9 * static_cast<double>(monotonicNowNs() - t0);
        for (const shard::ShardRecovery &r : p.plane->recovery()) {
            if (r.source != persist::RecoverySource::Snapshot ||
                r.fallbacks != 0)
                report.fail("warm restart did not come from the snapshot");
        }
        report.failed += oracleMismatches(*p.plane, trie, in.sample);
        report.attempted += n;
    };
    if (spec.churn) {
        reopen(s);
        s.reset();
        // A standalone ConcurrentChisel: the same trace and readers,
        // no journal.
        concurrent::ConcurrentOptions copts;
        copts.controlThread = false;
        concurrent::ConcurrentChisel cc(in.table, config, copts);
        ReaderPool<concurrent::ConcurrentChisel> pool(cc, in.keys,
                                                      spec.readers, false);
        pool.start();
        UpdateSpans spans(log, "concurrent.apply");
        for (const Update &u : in.trace) {
            uint64_t t0 = monotonicNowNs();
            UpdateOutcome o = cc.apply(u);
            spans.add(t0, monotonicNowNs());
            countRejected(o);
        }
        spans.flush();
        report.attempted += pool.stop().total();
    } else {
        // The DFZ plane has no journal: apply through its shards'
        // ConcurrentChisel directly (broadcasts through the plane).
        shard::ShardedChisel &p = *s.plane;
        UpdateSpans owned(log, "concurrent.apply"), broadcast(log,
                                                           "shard.apply");
        for (const Update &u : in.trace) {
            size_t owner = p.shardOf(u.prefix);
            bool all = owner == shard::ShardedChisel::kBroadcast;
            uint64_t t0 = monotonicNowNs();
            UpdateOutcome o = all ? p.apply(u).outcome
                                  : p.shardEngine(owner).apply(u);
            uint64_t t1 = monotonicNowNs();
            (all ? broadcast : owned).add(t0, t1);
            applyLatency.add(t1 - t0);
            countRejected(o);
        }
        owned.flush();
        broadcast.flush();
        replayTrace(trie, in.trace);
        report.failed += oracleMismatches(p, trie, in.sample);
        report.attempted += n;
        s.reset();
    }
    report.add("concurrent.apply_us",
               1e-3 * perCallNs(log, "concurrent.apply"),
               "us", in.trace.size());
    // The workload's p99 tails, reported here because their spread
    // between runs of identical code exceeds any end-to-end bound.
    report.add("lookup_p99_us", 1e-3 * plain.reads.quantileNs(0.99), "us",
               plain.reads.total());
    report.add("update_p99_us",
               1e-3 * (spec.churn
                           ? plain.updates.updates.quantileNs(0.99)
                           : applyLatency.quantileNs(0.99)),
               "us", in.trace.size());

    // ---- A standalone engine: core, bloom and hash --------------------
    std::vector<UpdateOutcome> outcomes;
    {
        uint64_t t0 = monotonicNowNs();
        ChiselEngine engine(in.table, config);
        report.add("core.engine_build_s",
                   1e-9 * static_cast<double>(monotonicNowNs() - t0), "s");
        uint64_t setups = 0, retries = 0;
        size_t largest = 0;
        for (size_t c = 0; c < engine.cellCount(); ++c) {
            setups += engine.cell(c).indexStats().setups;
            retries += engine.cell(c).faultCounters().setupRetries;
            if (engine.cell(c).routeCount() >
                engine.cell(largest).routeCount())
                largest = c;
        }
        report.add("bloom.setups", static_cast<double>(setups), "count");
        report.add("bloom.setup_retries", static_cast<double>(retries),
                   "count");

        sweep(log, "core.engine_lookup", probeKeys.next(),
              [&](const Key128 &k) {
                  sink += engine.lookup(k).nextHop;
                  return 1u;
              });
        // The engine's probe order: cells by descending base until
        // one hits.
        sweep(log, "core.subcell_probe", probeKeys.next(),
              [&](const Key128 &k) {
                  uint32_t probes = 0;
                  for (size_t c = engine.cellCount(); c-- > 0;) {
                      ++probes;
                      if (engine.cell(c).lookup(k).hit)
                          break;
                  }
                  return probes;
              });
        H3Hash h3(20, config.seed);
        sweep(log, "hash.h3", probeKeys.next(), [&](const Key128 &k) {
            for (size_t c = 0; c < engine.cellCount(); ++c) {
                unsigned base = engine.cell(c).base();
                sink += h3.hash(k.masked(base), base);
            }
            return static_cast<uint32_t>(engine.cellCount());
        });
        {
            const SubCell &cell = engine.cell(largest);
            BloomierConfig bc;
            bc.k = config.k;
            bc.ratio = config.ratio;
            bc.keyLen = cell.base();
            bc.partitions = cell.cellConfig().partitions;
            bc.seed = cell.cellConfig().seed;
            BloomierFilter filter(cell.capacity(), bc);
            filter.setup(cellEntries(in.table, cell));
            unsigned base = cell.base();
            sweep(log, "bloom.probe", probeKeys.next(), [&](const Key128 &k) {
                sink += filter.lookupCode(k.masked(base));
                return 1u;
            });
        }
        report.add("core.engine_lookup_ns",
                   perCallNs(log, "core.engine_lookup"), "ns");
        report.add("core.subcell_probe_ns",
                   perCallNs(log, "core.subcell_probe"),
                   "ns");
        report.add("hash.h3_ns", perCallNs(log, "hash.h3"), "ns");
        report.add("bloom.probe_ns", perCallNs(log, "bloom.probe"), "ns");

        uint64_t resetups = 0;
        outcomes.reserve(in.trace.size());
        UpdateSpans spans(log, "core.engine_apply");
        for (const Update &u : in.trace) {
            uint64_t t0 = monotonicNowNs();
            outcomes.push_back(engine.apply(u));
            spans.add(t0, monotonicNowNs());
            countRejected(outcomes.back());
            resetups += outcomes.back().cls == UpdateClass::Resetup;
        }
        spans.flush();
        report.add("core.engine_apply_us",
                   1e-3 * perCallNs(log, "core.engine_apply"), "us",
                   in.trace.size());
        report.add("core.resetup_share", share(resetups, in.trace.size()),
                   "share", in.trace.size());
    }

    // ---- Persist: journal appends, then snapshot and warm restart -----
    {
        std::string dir = scratchDir("journal");
        std::string path = dir + "/journal.log";
        {
            persist::UpdateJournal journal(path, configFingerprint(config),
                                           planeOptions(spec, dir).fsyncEvery);
            UpdateSpans spans(log, "persist.append");
            for (size_t i = 0; i < in.trace.size(); ++i) {
                uint64_t t0 = monotonicNowNs();
                uint64_t seq = journal.append(in.trace[i]);
                journal.appendOutcome(seq, outcomes[i]);
                spans.add(t0, monotonicNowNs());
                if (seq == 0)
                    report.fail("journal append refused");
            }
            spans.flush();
        }
        report.add("persist.append_us",
                   1e-3 * perCallNs(log, "persist.append"),
                   "us", in.trace.size());
        report.add("persist.bytes_per_update",
                   share(std::filesystem::file_size(path), in.trace.size()),
                   "B", in.trace.size());
        removeDir(dir);
    }
    if (!spec.churn) {
        // The DFZ planes serve without a journal: open a journaled one
        // over the same table and trace for the snapshot lane.
        Serving p;
        p.dir = scratchDir("persist");
        p.plane = std::make_unique<shard::ShardedChisel>(
            in.table, planeOptions(spec, p.dir));
        for (const Update &u : in.trace)
            countRejected(p.plane->apply(u).outcome);
        reopen(p);
    }
    report.add("persist.snapshot_s", snapshotS, "s");
    report.add("persist.warm_restart_s", restartS, "s");

    // ---- Process and tracing cost -------------------------------------
    report.add("proc.cpu_busy_share", plain.cpuBusyShare(spec), "share");
    report.add("proc.invol_csw_per_s", plain.involuntaryPerSecond(), "1/s");
    report.note("proc.busy_threads", spec.busyThreads(), "count");
    report.add("bench.trace_overhead_share",
               1.0 - traced.reads.rate() / plain.reads.rate(), "share");

    std::vector<const SpanLog *> logs;
    for (const auto &l : traced.logs)
        logs.push_back(l.get());
    logs.push_back(&log);
    std::string spans =
        workRoot() + "/spans-" + spec.name + ".jsonl";
    if (!writeSpans(spans, logs))
        report.fail("cannot write " + spans);
    std::fprintf(stderr, "perfbench: spans in %s (sink %llu)\n",
                 spans.c_str(), static_cast<unsigned long long>(sink));
}

} // namespace perfbench
