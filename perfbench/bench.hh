/**
 * @file
 * Shared pieces of the repository benchmark (BENCHMARK.json).
 *
 * The benchmark drives the unmodified library through its public
 * entry points.  Every input comes from the --seed argument through
 * the library's own generators; answers are checked against the
 * BinaryTrie oracle outside the timed sections.
 */

#ifndef CHISEL_PERFBENCH_BENCH_HH
#define CHISEL_PERFBENCH_BENCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hh"
#include "route/table.hh"
#include "route/updates.hh"
#include "shard/sharded.hh"
#include "trie/binary_trie.hh"

namespace perfbench {

using chisel::monotonicNowNs;

/**
 * Log-linear latency recorder: exact below 128 ns, then 128 linear
 * sub-buckets per power of two (bucket width at most 0.8% of the
 * value).  Quantiles interpolate linearly inside their bucket.  Each
 * thread owns one recorder; recorders are merged after the run.
 */
class LatencyRecorder
{
  public:
    LatencyRecorder();

    void add(uint64_t ns)
    {
        ++buckets_[bucketOf(ns)];
        ++count_;
    }

    void merge(const LatencyRecorder &other);

    uint64_t count() const { return count_; }

    /** The @p q quantile in nanoseconds (0 when empty). */
    double quantileNs(double q) const;

  private:
    static constexpr unsigned kSubBits = 7;
    static constexpr uint64_t kSub = uint64_t(1) << kSubBits;

    static size_t bucketOf(uint64_t ns);

    std::vector<uint64_t> buckets_;
    uint64_t count_ = 0;
};

/** Median of @p v (0 when empty); reorders @p v. */
double median(std::vector<double> &v);

/**
 * One span of the outside-in trace: the benchmark's own call (or
 * batch of @c calls identical calls) into one layer.
 */
struct Span
{
    const char *name = "";  ///< A string literal: "<layer>.<call>".
    uint32_t parent = 0;    ///< Span id + 1 of the parent; 0 for none.
    uint32_t calls = 1;
    uint64_t request = 0;   ///< Request the call served.
    uint64_t startNs = 0;
    uint64_t endNs = 0;
};

/**
 * Per-thread in-memory span buffer.  A bounded ring: past its
 * capacity the oldest spans are overwritten, so a long traced phase
 * pays the same recording cost throughout.
 */
class SpanLog
{
  public:
    explicit SpanLog(size_t capacity = size_t(1) << 18);

    /** Record a finished span; @return its id (for children). */
    uint32_t record(const char *name, uint32_t parent, uint64_t request,
                    uint64_t start_ns, uint64_t end_ns,
                    uint32_t calls = 1);

    /** Spans still held, oldest first. */
    std::vector<Span> spans() const;

    /** Id of the oldest span still held. */
    uint64_t firstId() const;

  private:
    std::vector<Span> ring_;
    uint64_t next_ = 0;
};

/** Median per-call nanoseconds of the spans named @p name. */
double spanMedianNs(const std::vector<Span> &spans, const char *name);

/**
 * Write every span of @p logs as one JSON object per line to
 * @p path.  @return false when the file cannot be written.
 */
bool writeSpans(const std::string &path,
                const std::vector<const SpanLog *> &logs);

/** One named metric with its unit and the samples behind it. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    uint64_t samples = 0;   ///< 0 when not a sampled quantity.
};

/** Everything a run prints. */
struct Report
{
    std::vector<Metric> metrics;
    /** Printed with the metrics but not part of the JSON result. */
    std::vector<Metric> diagnostics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> notes;   ///< Why correct is false.

    void add(const std::string &name, double value,
             const std::string &unit, uint64_t samples = 0);
    void note(const std::string &name, double value,
              const std::string &unit);
    void fail(const std::string &why);
};

/** A workload's fixed parameters. */
struct WorkloadSpec
{
    std::string name;
    unsigned keyWidth = 32;
    size_t prefixes = 0;
    size_t keys = 0;
    size_t shards = 1;
    unsigned readers = 0;    ///< In-process lookup threads.
    /** The plane journals, and the trace runs beside the readers. */
    bool churn = false;
    size_t updatesPerSecond = 0;   ///< Trace length per --seconds.

    /** Threads busy in the main phase. */
    unsigned busyThreads() const { return readers + (churn ? 1 : 0); }
};

/** nullptr for an unknown workload name. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Inputs generated from the seed before any timing starts. */
struct Inputs
{
    chisel::RoutingTable table;
    std::vector<chisel::Key128> keys;
    std::vector<chisel::Update> trace;
    /** Fixed oracle/model key sample (a prefix of @c keys). */
    std::vector<chisel::Key128> sample;
};

Inputs makeInputs(const WorkloadSpec &spec, uint64_t seed,
                  unsigned seconds);

/** Options of the workload's plane; @p dir empty for no journal. */
chisel::shard::ShardedOptions planeOptions(const WorkloadSpec &spec,
                                           const std::string &dir);

/**
 * Compare the plane's answers on @p keys with the trie: next hop and
 * matched length.  @return mismatches.
 */
uint64_t oracleMismatches(const chisel::shard::ShardedChisel &plane,
                          const chisel::BinaryTrie &trie,
                          const std::vector<chisel::Key128> &keys);

/** Replay @p trace into @p trie (announce/withdraw/expire). */
void replayTrace(chisel::BinaryTrie &trie,
                 const std::vector<chisel::Update> &trace);

/** Index + Filter + Bit-vector + Result reads per sampled lookup. */
double modelAccessesPerLookup(const chisel::shard::ShardedChisel &plane,
                              const std::vector<chisel::Key128> &keys);

/** Resident set size in bytes (after returning freed heap pages). */
uint64_t residentBytes();

/** Process CPU time and involuntary context switches. */
struct Usage
{
    double cpuSeconds = 0.0;
    uint64_t involuntarySwitches = 0;
};

Usage processUsage();

/** Directory for scratch directories and the span dump. */
void setWorkRoot(const std::string &root);
const std::string &workRoot();

/** A fresh, empty directory under the work root. */
std::string scratchDir(const std::string &tag);

/** Remove @p dir recursively (ignores errors). */
void removeDir(const std::string &dir);

/** Options of one run, from the command line. */
struct RunOptions
{
    const WorkloadSpec *spec = nullptr;
    uint64_t seed = 1;
    unsigned seconds = 10;
    bool trace = false;
};

/** The untraced run: every end-to-end metric. */
void runEndToEnd(const RunOptions &options, Report &report);

/** The traced run: every per-layer metric. */
void runTraced(const RunOptions &options, Report &report);

} // namespace perfbench

#endif // CHISEL_PERFBENCH_BENCH_HH
