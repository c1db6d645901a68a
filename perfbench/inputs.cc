#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "bench.hh"
#include "hash/mix.hh"
#include "route/synth.hh"
#include "telemetry/trace.hh"

namespace perfbench {

using namespace chisel;

// ---- Latency recorder -------------------------------------------------

LatencyRecorder::LatencyRecorder()
    : buckets_((64 - kSubBits + 1) * kSub, 0)
{}

size_t
LatencyRecorder::bucketOf(uint64_t ns)
{
    if (ns < kSub)
        return static_cast<size_t>(ns);
    unsigned shift = 63 - static_cast<unsigned>(__builtin_clzll(ns)) -
                     kSubBits;
    return (shift + 1) * kSub + ((ns >> shift) - kSub);
}

void
LatencyRecorder::merge(const LatencyRecorder &other)
{
    for (size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
}

double
LatencyRecorder::quantileNs(double q) const
{
    if (count_ == 0)
        return 0.0;
    double target = q * static_cast<double>(count_);
    uint64_t before = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        uint64_t c = buckets_[i];
        if (c == 0 || static_cast<double>(before + c) < target) {
            before += c;
            continue;
        }
        double lo, width;
        if (i < kSub) {
            lo = static_cast<double>(i);
            width = 1.0;
        } else {
            unsigned shift = static_cast<unsigned>(i / kSub) - 1;
            lo = static_cast<double>((i % kSub + kSub) << shift);
            width = static_cast<double>(uint64_t(1) << shift);
        }
        double frac = (target - static_cast<double>(before)) /
                      static_cast<double>(c);
        return lo + std::clamp(frac, 0.0, 1.0) * width;
    }
    return 0.0;
}

double
median(std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Spans ------------------------------------------------------------

SpanLog::SpanLog(size_t capacity) : ring_(capacity) {}

uint32_t
SpanLog::record(const char *name, uint32_t parent, uint64_t request,
                uint64_t start_ns, uint64_t end_ns, uint32_t calls)
{
    uint64_t id = next_++;
    Span &s = ring_[id % ring_.size()];
    s.name = name;
    s.parent = parent;
    s.calls = calls;
    s.request = request;
    s.startNs = start_ns;
    s.endNs = end_ns;
    return static_cast<uint32_t>(id);
}

uint64_t
SpanLog::firstId() const
{
    return next_ - std::min<uint64_t>(next_, ring_.size());
}

std::vector<Span>
SpanLog::spans() const
{
    std::vector<Span> out;
    out.reserve(next_ - firstId());
    for (uint64_t id = firstId(); id < next_; ++id)
        out.push_back(ring_[id % ring_.size()]);
    return out;
}

double
spanMedianNs(const std::vector<Span> &spans, const char *name)
{
    std::vector<double> per;
    for (const Span &s : spans) {
        if (std::strcmp(s.name, name) == 0 && s.calls > 0)
            per.push_back(static_cast<double>(s.endNs - s.startNs) /
                          s.calls);
    }
    return median(per);
}

bool
writeSpans(const std::string &path,
           const std::vector<const SpanLog *> &logs)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    for (size_t t = 0; t < logs.size(); ++t) {
        uint64_t id = logs[t]->firstId();
        for (const Span &s : logs[t]->spans()) {
            out << "{\"thread\":" << t << ",\"id\":" << id++
                << ",\"name\":\"" << s.name << "\",\"parent\":";
            if (s.parent == 0)
                out << "null";
            else
                out << (s.parent - 1);
            out << ",\"request\":" << s.request
                << ",\"start_ns\":" << s.startNs
                << ",\"end_ns\":" << s.endNs << ",\"calls\":" << s.calls
                << "}\n";
        }
    }
    return static_cast<bool>(out);
}

// ---- Report -----------------------------------------------------------

void
Report::add(const std::string &name, double value, const std::string &unit,
            uint64_t samples)
{
    metrics.push_back({name, value, unit, samples});
}

void
Report::note(const std::string &name, double value, const std::string &unit)
{
    diagnostics.push_back({name, value, unit, 0});
}

void
Report::fail(const std::string &why)
{
    correct = false;
    notes.push_back(why);
}

// ---- Workloads and inputs ---------------------------------------------

namespace {

const WorkloadSpec kWorkloads[] = {
    // name, width, prefixes, keys, shards, readers, churn,
    // updates per second of --seconds
    {"v4_dfz_read", 32, size_t(1) << 20, size_t(1) << 22, 4, 3, false,
     40000},
    {"v6_churn", 128, 200000, 65536, 1, 2, true, 30000},
};

/** Keys checked against the oracle and traced for the model count. */
constexpr size_t kSampleKeys = 32768;

} // anonymous namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : kWorkloads)
        if (w.name == name)
            return &w;
    return nullptr;
}

Inputs
makeInputs(const WorkloadSpec &spec, uint64_t seed, unsigned seconds)
{
    Inputs in;
    if (spec.keyWidth == 32) {
        in.table = generateScaledTable(spec.prefixes, 32, seed);
    } else {
        SynthProfile p;
        p.prefixes = spec.prefixes;
        p.keyWidth = spec.keyWidth;
        p.seed = seed;
        in.table = generateTable(p);
    }
    in.keys = generateLookupKeys(in.table, spec.keys, spec.keyWidth, 0.85,
                                 mix64(seed ^ 0x6B657973ULL));
    UpdateTraceGenerator gen(in.table, TraceProfile{}, spec.keyWidth,
                             mix64(seed ^ 0x7472616365ULL));
    in.trace = gen.generate(spec.updatesPerSecond * seconds);
    in.sample.assign(in.keys.begin(),
                     in.keys.begin() + std::min(kSampleKeys,
                                                in.keys.size()));
    return in;
}

shard::ShardedOptions
planeOptions(const WorkloadSpec &spec, const std::string &dir)
{
    shard::ShardedOptions o;
    o.shards = spec.shards;
    o.config.keyWidth = spec.keyWidth;
    // Nothing calls post(): the control threads would only idle.
    o.engine.controlThread = false;
    o.persistDir = dir;
    // The journal lives in the checkout, which may sit on a disk: an
    // fsync per record would time the disk, not the code.  Records
    // still go through to the page cache one by one.
    o.fsyncEvery = 0;
    return o;
}

uint64_t
oracleMismatches(const shard::ShardedChisel &plane, const BinaryTrie &trie,
                 const std::vector<Key128> &keys)
{
    uint64_t bad = 0;
    for (const Key128 &k : keys) {
        LookupResult got = plane.lookup(k);
        std::optional<Route> want = trie.lookup(k);
        bool ok = want ? (got.found && got.nextHop == want->nextHop &&
                          got.matchedLength == want->prefix.length())
                       : !got.found;
        bad += ok ? 0 : 1;
    }
    return bad;
}

void
replayTrace(BinaryTrie &trie, const std::vector<Update> &trace)
{
    for (const Update &u : trace) {
        if (u.kind == UpdateKind::Announce)
            trie.insert(u.prefix, u.nextHop);
        else
            trie.erase(u.prefix);
    }
}

double
modelAccessesPerLookup(const shard::ShardedChisel &plane,
                       const std::vector<Key128> &keys)
{
    using telemetry::Table;
    telemetry::AccessTracer tracer;
    {
        telemetry::ScopedTracer scope(&tracer);
        for (const Key128 &k : keys)
            plane.lookup(k);
    }
    uint64_t reads = tracer.counts(Table::Index).reads +
                     tracer.counts(Table::Filter).reads +
                     tracer.counts(Table::BitVector).reads +
                     tracer.counts(Table::Result).reads;
    return keys.empty() ? 0.0
                        : static_cast<double>(reads) /
                              static_cast<double>(keys.size());
}

// ---- Process probes ---------------------------------------------------

uint64_t
residentBytes()
{
    malloc_trim(0);
    std::ifstream statm("/proc/self/statm");
    uint64_t size = 0, resident = 0;
    statm >> size >> resident;
    return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

Usage
processUsage()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpuSeconds = static_cast<double>(ru.ru_utime.tv_sec) +
                   static_cast<double>(ru.ru_stime.tv_sec) +
                   1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                              ru.ru_stime.tv_usec);
    u.involuntarySwitches = static_cast<uint64_t>(ru.ru_nivcsw);
    return u;
}

namespace {
std::string g_workRoot;
unsigned g_dirCounter = 0;
} // anonymous namespace

void
setWorkRoot(const std::string &root)
{
    g_workRoot = root;
}

const std::string &
workRoot()
{
    return g_workRoot;
}

std::string
scratchDir(const std::string &tag)
{
    std::string dir = g_workRoot + "/" + tag + "-" +
                      std::to_string(::getpid()) + "-" +
                      std::to_string(g_dirCounter++);
    removeDir(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

void
removeDir(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

} // namespace perfbench
