/**
 * @file
 * The measured phases the workloads are built from: closed-loop
 * reader threads and the update writer, plus the RPC client loop of
 * the traced run's net probe.
 *
 * Every phase is cut into kSlices slices (equal time, or equal parts
 * of the update trace) and reports the median over its slices, so a
 * host disturbance confined to one slice does not move the result.
 */

#ifndef CHISEL_PERFBENCH_PHASES_HH
#define CHISEL_PERFBENCH_PHASES_HH

#include <sched.h>

#include <array>
#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "bench.hh"
#include "net/client.hh"
#include "net/server.hh"

namespace perfbench {

constexpr unsigned kSlices = 40;

/** Per-slice operation counts and latencies of one phase. */
struct Sliced
{
    std::array<LatencyRecorder, kSlices> latency;
    std::array<uint64_t, kSlices> ops{};
    std::array<double, kSlices> seconds{};

    /** Add @p other's latencies and counts (not its durations). */
    void merge(const Sliced &other);

    uint64_t total() const;

    /** Median over slices of operations per second. */
    double rate() const;

    /** Median over slices of the @p q latency quantile, in ns. */
    double quantileNs(double q) const;
};

/**
 * Closed-loop reader threads over @p Target (anything with a const
 * lookup(Key128)).  Each thread walks the key stream from its own
 * offset and times every call into its own per-slice recorders; a
 * traced pool also records one span per call in its own log.  The
 * caller ends each slice with advance().  Nothing a reader writes is
 * shared until stop().
 */
template <class Target>
class ReaderPool
{
  public:
    ReaderPool(const Target &target, const std::vector<chisel::Key128> &keys,
               unsigned threads, bool traced, const char *span_name = "")
        : target_(target), keys_(keys), traced_(traced), name_(span_name),
          workers_(threads)
    {}

    ~ReaderPool() { stop(); }

    ReaderPool(const ReaderPool &) = delete;
    ReaderPool &operator=(const ReaderPool &) = delete;

    /** Spawn the readers; @return once all have warmed up and the
     * first slice has begun. */
    void
    start()
    {
        for (size_t t = 0; t < workers_.size(); ++t) {
            Worker &w = workers_[t];
            if (traced_)
                w.log = std::make_unique<SpanLog>(size_t(1) << 15);
            w.thread = std::thread([this, &w, t] { loop(w, t); });
        }
        while (ready_.load(std::memory_order_acquire) < workers_.size())
            std::this_thread::yield();
        boundaryNs_[0] = monotonicNowNs();
        go_.store(true, std::memory_order_release);
    }

    /** End the current slice. */
    void
    advance()
    {
        unsigned k = slice_.load(std::memory_order_relaxed);
        if (k >= kSlices)
            return;
        boundaryNs_[k + 1] = monotonicNowNs();
        slice_.store(k + 1, std::memory_order_release);
    }

    /** Sleep through every slice of a @p seconds long phase. */
    void
    runFor(double seconds)
    {
        for (unsigned k = 0; k < kSlices; ++k) {
            std::this_thread::sleep_until(
                std::chrono::steady_clock::time_point(
                    std::chrono::nanoseconds(boundaryNs_[0])) +
                std::chrono::duration<double>(seconds * (k + 1) /
                                              kSlices));
            advance();
        }
    }

    /** End every slice, join the readers; @return their lookups. */
    Sliced
    stop()
    {
        while (slice_.load(std::memory_order_relaxed) < kSlices)
            advance();
        go_.store(true, std::memory_order_release);
        Sliced out;
        for (Worker &w : workers_) {
            if (!w.thread.joinable())
                continue;
            w.thread.join();
            out.merge(w.lookups);
        }
        for (unsigned k = 0; k < kSlices; ++k)
            out.seconds[k] =
                1e-9 * static_cast<double>(boundaryNs_[k + 1] -
                                           boundaryNs_[k]);
        return out;
    }

    /** Span logs (traced pools only), one per thread. */
    std::vector<std::unique_ptr<SpanLog>>
    takeLogs()
    {
        std::vector<std::unique_ptr<SpanLog>> out;
        for (Worker &w : workers_)
            if (w.log)
                out.push_back(std::move(w.log));
        return out;
    }

  private:
    struct alignas(64) Worker
    {
        std::thread thread;
        Sliced lookups;
        std::unique_ptr<SpanLog> log;
        uint64_t sink = 0;
    };

    /** Unrecorded lookups per thread before the measurement starts. */
    static constexpr size_t kWarmup = 20000;

    void
    loop(Worker &w, size_t t)
    {
        const size_t n = keys_.size();
        size_t i = (n / workers_.size()) * t;
        for (size_t j = 0; j < kWarmup; ++j) {
            w.sink += target_.lookup(keys_[i]).nextHop;
            i = i + 1 == n ? 0 : i + 1;
        }
        ready_.fetch_add(1, std::memory_order_acq_rel);
        while (!go_.load(std::memory_order_acquire))
            std::this_thread::yield();

        for (;;) {
            unsigned k = slice_.load(std::memory_order_acquire);
            if (k >= kSlices)
                break;
            LatencyRecorder &lat = w.lookups.latency[k];
            for (int j = 0; j < 64; ++j) {
                const chisel::Key128 &key = keys_[i];
                uint64_t t0 = monotonicNowNs();
                chisel::LookupResult r = target_.lookup(key);
                uint64_t t1 = monotonicNowNs();
                lat.add(t1 - t0);
                if (w.log)
                    w.log->record(name_, 0, i, t0, t1);
                w.sink += r.nextHop;
                i = i + 1 == n ? 0 : i + 1;
            }
            w.lookups.ops[k] += 64;
        }
    }

    const Target &target_;
    const std::vector<chisel::Key128> &keys_;
    bool traced_;
    const char *name_;
    std::vector<Worker> workers_;
    std::array<uint64_t, kSlices + 1> boundaryNs_{};
    std::atomic<size_t> ready_{0};
    std::atomic<bool> go_{false};
    std::atomic<unsigned> slice_{0};
};

/** Keys per RPC lookup call. */
constexpr size_t kCallKeys = 16;

/** What the RPC client loop measured. */
struct CallPhase
{
    Sliced calls;                 ///< Per call, in equal-time slices.
    uint64_t failed = 0;          ///< Calls that did not end Ok.
    uint64_t mismatched = 0;      ///< Sampled replies off the oracle.
};

/**
 * One client, one connection, closed loop: 16-key lookup calls for
 * @p duration_ns, one "net.call" span each in @p log.  Every 64th
 * reply is kept and compared with @p oracle after the timed loop.
 */
CallPhase runCalls(chisel::net::ServiceClient &client,
                   const std::vector<chisel::Key128> &keys,
                   uint64_t duration_ns, const chisel::BinaryTrie &oracle,
                   SpanLog &log);

/** A serving plane and, while the net probe runs, a service and client. */
struct Serving
{
    std::string dir;   ///< Persist directory; empty without a journal.
    std::unique_ptr<chisel::shard::ShardedChisel> plane;
    std::unique_ptr<chisel::net::ChiselService> service;
    std::unique_ptr<chisel::net::ServiceClient> client;
    /** This thread's CPUs before startService() narrowed them. */
    std::unique_ptr<cpu_set_t> savedCpus;

    Serving() = default;
    ~Serving() { reset(); }
    Serving(const Serving &) = delete;
    Serving &operator=(const Serving &) = delete;

    /** Stop the client and service; give this thread its CPUs back. */
    void stopService();

    /** Tear everything down and remove the persist directory. */
    void reset();
};

/**
 * Build the workload's plane from @p table (with a fresh journal
 * directory on v6_churn): what setup_s times.
 */
void setUp(const WorkloadSpec &spec, const chisel::RoutingTable &table,
           Serving &s);

/**
 * Start a service over s.plane and connect one client to it; the
 * calling thread and the serving thread share one CPU until
 * s.stopService().
 */
bool startService(Serving &s);

/** What one pass of the update writer measured. */
struct ApplyPhase
{
    Sliced updates;               ///< Per apply, in equal trace parts.
    uint64_t rejected = 0;
};

/**
 * Apply @p trace back to back through ShardedChisel::apply, calling
 * @p slice_done after each of the kSlices equal parts.
 */
ApplyPhase applyTrace(chisel::shard::ShardedChisel &plane,
                      const std::vector<chisel::Update> &trace,
                      const std::function<void()> &slice_done = {});

/** Everything the workload's main phase measured. */
struct MainPhase
{
    Sliced reads;          ///< The reader threads' lookups.
    ApplyPhase updates;    ///< The churn burst's writer.
    double wallSeconds = 0.0;
    Usage usage;           ///< CPU time and switches during the phase.
    std::vector<std::unique_ptr<SpanLog>> logs;   ///< Traced phases.

    /** Process CPU time over the time the busy threads had. */
    double cpuBusyShare(const WorkloadSpec &spec) const;

    double involuntaryPerSecond() const;
};

/** Record the main phase's noise diagnostics as report notes. */
void noteNoise(const WorkloadSpec &spec, const MainPhase &m, Report &report);

/**
 * The workload's main phase on @p plane: readers for @p seconds
 * (v4_dfz_read), or the trace burst with readers until it ends
 * (v6_churn).
 */
MainPhase runMainPhase(const WorkloadSpec &spec,
                       chisel::shard::ShardedChisel &plane,
                       const Inputs &inputs, unsigned seconds, bool traced);

} // namespace perfbench

#endif // CHISEL_PERFBENCH_PHASES_HH
