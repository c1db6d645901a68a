/**
 * @file
 * Per-lookup memory-access tracing.
 *
 * The hardware tables (Index, Filter, Bit-vector, Result, spillover
 * TCAM) are instrumented with CHISEL_TRACE_ACCESS / CHISEL_TRACE_WRITE
 * hooks at hardware-word granularity: one hook firing models one
 * memory access the real device would perform.  The hooks are
 * designed to vanish from the hot path:
 *
 *  - compiled out entirely when CHISEL_TRACING_ENABLED is 0 (CMake
 *    option CHISEL_ENABLE_TRACING=OFF), leaving zero code;
 *  - when compiled in, each hook is a single thread-local pointer
 *    load and predictable branch while no tracer is installed — the
 *    default state, so untraced workloads pay almost nothing.
 *
 * An AccessTracer is installed for the current thread with
 * ScopedTracer; while installed it accumulates per-table read/write
 * counts (and optionally forwards each access to a TraceSink for
 * Chrome trace_event export).  ChiselEngine wraps each lookup and
 * update in a span over these counters, turning the deltas into
 * per-operation access histograms — the software validation of the
 * paper's "4 memory accesses per lookup" budget (Section 6.7.1).
 */

#ifndef CHISEL_TELEMETRY_TRACE_HH
#define CHISEL_TELEMETRY_TRACE_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#ifndef CHISEL_TRACING_ENABLED
#define CHISEL_TRACING_ENABLED 1
#endif

namespace chisel::telemetry {

/** The hardware tables an access can touch. */
enum class Table : uint8_t
{
    Index,       ///< Bloomier Index Table segments.
    Filter,      ///< Filter Table (stored collapsed prefixes).
    BitVector,   ///< Bit-vector Table.
    Result,      ///< Off-chip Result Table.
    Tcam,        ///< Spillover / baseline TCAM.
    kCount,
};

constexpr size_t kTableCount = static_cast<size_t>(Table::kCount);

/** Lower-case table name used in metric names and trace events. */
const char *tableName(Table t);

/** Access direction. */
enum class Op : uint8_t { Read, Write };

/** One recorded access (only materialised when a sink is attached). */
struct TraceEvent
{
    uint64_t ns;      ///< monotonicNowNs() at record time.
    uint64_t addr;    ///< Table-local word/slot address.
    uint32_t bytes;   ///< Modeled width of the access.
    Table table;
    Op op;
};

/**
 * Bounded in-memory event recorder with Chrome trace_event export.
 *
 * The capacity bound keeps long replays from exhausting memory;
 * events past the bound are counted as dropped instead of recorded.
 */
class TraceSink
{
  public:
    explicit TraceSink(size_t maxEvents = size_t(1) << 20);

    void record(const TraceEvent &event);

    const std::vector<TraceEvent> &events() const { return events_; }
    uint64_t dropped() const { return dropped_; }

    /**
     * Write the events as a Chrome trace_event JSON document (load
     * in chrome://tracing or Perfetto).  Timestamps are microseconds
     * relative to the first event.
     */
    void writeChromeTrace(std::ostream &os) const;

    /** writeChromeTrace to @p path; warns and returns false on I/O error. */
    bool writeChromeTraceFile(const std::string &path) const;

    void clear();

  private:
    size_t maxEvents_;
    std::vector<TraceEvent> events_;
    uint64_t dropped_ = 0;
};

/**
 * Per-thread access accumulator the trace hooks feed.
 */
class AccessTracer
{
  public:
    struct TableCounts
    {
        uint64_t reads = 0;
        uint64_t writes = 0;
        uint64_t readBytes = 0;
        uint64_t writeBytes = 0;
    };

    void
    record(Table table, Op op, uint64_t addr, uint32_t bytes)
    {
        TableCounts &c = counts_[static_cast<size_t>(table)];
        if (op == Op::Read) {
            ++c.reads;
            c.readBytes += bytes;
        } else {
            ++c.writes;
            c.writeBytes += bytes;
        }
        if (sink_)
            recordEvent(table, op, addr, bytes);
    }

    const TableCounts &
    counts(Table table) const
    {
        return counts_[static_cast<size_t>(table)];
    }

    uint64_t totalReads() const;
    uint64_t totalWrites() const;

    /** Forward every access to @p sink (nullptr detaches). */
    void setSink(TraceSink *sink) { sink_ = sink; }
    TraceSink *sink() const { return sink_; }

    void reset();

  private:
    /** Out-of-line: timestamping is only paid with a sink attached. */
    void recordEvent(Table table, Op op, uint64_t addr, uint32_t bytes);

    std::array<TableCounts, kTableCount> counts_{};
    TraceSink *sink_ = nullptr;
};

namespace detail {
/**
 * The thread's installed tracer; nullptr disables the hooks.
 * constinit: with no dynamic initializer to run, every access is a
 * plain TLS load instead of a call through the thread-local wrapper,
 * which UBSan reported as a store to a null pointer.
 */
extern constinit thread_local AccessTracer *g_activeTracer;
} // namespace detail

/** Tracer currently installed on this thread, or nullptr. */
inline AccessTracer *
activeTracer()
{
    return detail::g_activeTracer;
}

/**
 * RAII install/restore of the thread's tracer (nestable).
 */
class ScopedTracer
{
  public:
    explicit ScopedTracer(AccessTracer *tracer)
        : prev_(detail::g_activeTracer)
    {
        detail::g_activeTracer = tracer;
    }

    ~ScopedTracer() { detail::g_activeTracer = prev_; }

    ScopedTracer(const ScopedTracer &) = delete;
    ScopedTracer &operator=(const ScopedTracer &) = delete;

  private:
    AccessTracer *prev_;
};

} // namespace chisel::telemetry

#if CHISEL_TRACING_ENABLED

/** Model one read of @p bytes at @p addr in hardware table @p table. */
#define CHISEL_TRACE_ACCESS(table, addr, bytes)                          \
    do {                                                                 \
        if (::chisel::telemetry::AccessTracer *chisel_tracer_ =          \
                ::chisel::telemetry::activeTracer()) {                   \
            chisel_tracer_->record(::chisel::telemetry::Table::table,    \
                                   ::chisel::telemetry::Op::Read,        \
                                   (addr), (bytes));                     \
        }                                                                \
    } while (0)

/** Model one write of @p bytes at @p addr in hardware table @p table. */
#define CHISEL_TRACE_WRITE(table, addr, bytes)                           \
    do {                                                                 \
        if (::chisel::telemetry::AccessTracer *chisel_tracer_ =          \
                ::chisel::telemetry::activeTracer()) {                   \
            chisel_tracer_->record(::chisel::telemetry::Table::table,    \
                                   ::chisel::telemetry::Op::Write,       \
                                   (addr), (bytes));                     \
        }                                                                \
    } while (0)

#else

/* Arguments evaluate to nothing but still count as used, so
 * variables computed only for tracing don't warn when compiled out. */
#define CHISEL_TRACE_ACCESS(table, addr, bytes)                          \
    do {                                                                 \
        (void)sizeof(addr);                                              \
        (void)sizeof(bytes);                                             \
    } while (0)
#define CHISEL_TRACE_WRITE(table, addr, bytes)                           \
    do {                                                                 \
        (void)sizeof(addr);                                              \
        (void)sizeof(bytes);                                             \
    } while (0)

#endif // CHISEL_TRACING_ENABLED

#endif // CHISEL_TELEMETRY_TRACE_HH
