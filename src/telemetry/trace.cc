#include "telemetry/trace.hh"

#include <fstream>
#include <ostream>

#include "common/clock.hh"
#include "common/logging.hh"
#include "telemetry/json.hh"

namespace chisel::telemetry {

namespace detail {
constinit thread_local AccessTracer *g_activeTracer = nullptr;
} // namespace detail

const char *
tableName(Table t)
{
    switch (t) {
      case Table::Index: return "index";
      case Table::Filter: return "filter";
      case Table::BitVector: return "bitvector";
      case Table::Result: return "result";
      case Table::Tcam: return "tcam";
      case Table::kCount: break;
    }
    return "?";
}

// ---- TraceSink -------------------------------------------------------------

TraceSink::TraceSink(size_t maxEvents) : maxEvents_(maxEvents)
{
}

void
TraceSink::record(const TraceEvent &event)
{
    if (events_.size() >= maxEvents_) {
        ++dropped_;
        return;
    }
    events_.push_back(event);
}

void
TraceSink::clear()
{
    events_.clear();
    dropped_ = 0;
}

void
TraceSink::writeChromeTrace(std::ostream &os) const
{
    JsonWriter w(os, false);
    w.beginObject();
    w.member("displayTimeUnit", "ns");
    w.key("traceEvents");
    w.beginArray();

    // Name the single modeled process/thread.
    w.beginObject();
    w.member("name", "process_name");
    w.member("ph", "M");
    w.member("pid", uint64_t(0));
    w.member("tid", uint64_t(0));
    w.key("args");
    w.beginObject();
    w.member("name", "chisel");
    w.endObject();
    w.endObject();

    uint64_t epoch = events_.empty() ? 0 : events_.front().ns;
    for (const TraceEvent &e : events_) {
        w.beginObject();
        w.member("name", std::string(tableName(e.table)) +
                             (e.op == Op::Read ? ".read" : ".write"));
        w.member("cat", "memaccess");
        w.member("ph", "i");   // Instant event.
        w.member("s", "t");    // Thread scope.
        w.member("ts", static_cast<double>(e.ns - epoch) / 1000.0);
        w.member("pid", uint64_t(0));
        w.member("tid", uint64_t(0));
        w.key("args");
        w.beginObject();
        w.member("addr", e.addr);
        w.member("bytes", static_cast<uint64_t>(e.bytes));
        w.endObject();
        w.endObject();
    }
    w.endArray();
    if (dropped_ > 0)
        w.member("droppedEvents", dropped_);
    w.endObject();
}

bool
TraceSink::writeChromeTraceFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        warn("cannot open trace file for writing: " + path);
        return false;
    }
    writeChromeTrace(out);
    out.flush();
    if (!out) {
        warn("write failed for trace file: " + path);
        return false;
    }
    return true;
}

// ---- AccessTracer ----------------------------------------------------------

uint64_t
AccessTracer::totalReads() const
{
    uint64_t t = 0;
    for (const TableCounts &c : counts_)
        t += c.reads;
    return t;
}

uint64_t
AccessTracer::totalWrites() const
{
    uint64_t t = 0;
    for (const TableCounts &c : counts_)
        t += c.writes;
    return t;
}

void
AccessTracer::reset()
{
    counts_.fill(TableCounts{});
    // The sink, if any, stays attached; its buffer is the caller's.
}

void
AccessTracer::recordEvent(Table table, Op op, uint64_t addr,
                          uint32_t bytes)
{
    sink_->record(TraceEvent{monotonicNowNs(), addr, bytes, table, op});
}

} // namespace chisel::telemetry
