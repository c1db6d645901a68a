/**
 * @file
 * Unit and integration tests for the telemetry subsystem: the JSON
 * writer, MetricRegistry (counters / gauges / power-of-two
 * histograms), the access tracer and its engine binding, the Chrome
 * trace sink, and the leveled logging upgrade (log sink, levels,
 * warnOnce).  The access-budget integration test checks the traced
 * per-lookup count against the paper's analytical budget.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/engine.hh"
#include "telemetry/engine_telemetry.hh"
#include "telemetry/json.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace chisel {
namespace {

using telemetry::AccessTracer;
using telemetry::Counter;
using telemetry::EngineTelemetry;
using telemetry::JsonWriter;
using telemetry::MetricRegistry;
using telemetry::Op;
using telemetry::Pow2Histogram;
using telemetry::ScopedTracer;
using telemetry::Table;
using telemetry::TraceSink;

// ---- A tiny JSON reader for round-trip checks ------------------------------
//
// Parses the exporters' output back into a tree so the tests assert
// on structure, not substrings.  Strict enough for well-formed JSON;
// any syntax error fails the parse (and the test).

struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue &
    at(const std::string &key) const
    {
        auto it = object.find(key);
        if (it == object.end())
            throw std::runtime_error("missing key: " + key);
        return it->second;
    }

    bool has(const std::string &key) const
    {
        return object.count(key) != 0;
    }
};

class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : s_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        ws();
        if (pos_ != s_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why)
    {
        throw std::runtime_error("json parse error at offset " +
                                 std::to_string(pos_) + ": " + why);
    }

    void
    ws()
    {
        while (pos_ < s_.size() && std::isspace(
                   static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= s_.size())
            fail("unexpected end");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    JsonValue
    value()
    {
        ws();
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': case 'f': return boolean();
          case 'n': return null();
          default: return number();
        }
    }

    JsonValue
    object()
    {
        JsonValue v;
        v.type = JsonValue::Type::Object;
        expect('{');
        ws();
        if (peek() == '}') { ++pos_; return v; }
        while (true) {
            ws();
            JsonValue key = string();
            ws();
            expect(':');
            v.object[key.string] = value();
            ws();
            if (peek() == ',') { ++pos_; continue; }
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        JsonValue v;
        v.type = JsonValue::Type::Array;
        expect('[');
        ws();
        if (peek() == ']') { ++pos_; return v; }
        while (true) {
            v.array.push_back(value());
            ws();
            if (peek() == ',') { ++pos_; continue; }
            expect(']');
            return v;
        }
    }

    JsonValue
    string()
    {
        JsonValue v;
        v.type = JsonValue::Type::String;
        expect('"');
        while (true) {
            char c = peek();
            ++pos_;
            if (c == '"')
                return v;
            if (c == '\\') {
                char e = peek();
                ++pos_;
                switch (e) {
                  case '"': v.string += '"'; break;
                  case '\\': v.string += '\\'; break;
                  case '/': v.string += '/'; break;
                  case 'b': v.string += '\b'; break;
                  case 'f': v.string += '\f'; break;
                  case 'n': v.string += '\n'; break;
                  case 'r': v.string += '\r'; break;
                  case 't': v.string += '\t'; break;
                  case 'u': {
                    if (pos_ + 4 > s_.size())
                        fail("short \\u escape");
                    unsigned cp = std::stoul(s_.substr(pos_, 4),
                                             nullptr, 16);
                    pos_ += 4;
                    // Tests only escape control chars (< 0x80).
                    v.string += static_cast<char>(cp);
                    break;
                  }
                  default: fail("bad escape");
                }
            } else {
                v.string += c;
            }
        }
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.type = JsonValue::Type::Bool;
        if (s_.compare(pos_, 4, "true") == 0) {
            v.boolean = true;
            pos_ += 4;
        } else if (s_.compare(pos_, 5, "false") == 0) {
            v.boolean = false;
            pos_ += 5;
        } else {
            fail("bad literal");
        }
        return v;
    }

    JsonValue
    null()
    {
        if (s_.compare(pos_, 4, "null") != 0)
            fail("bad literal");
        pos_ += 4;
        return JsonValue{};
    }

    JsonValue
    number()
    {
        size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '-' || s_[pos_] == '+' ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("bad number");
        JsonValue v;
        v.type = JsonValue::Type::Number;
        v.number = std::stod(s_.substr(start, pos_ - start));
        return v;
    }

    std::string s_;
    size_t pos_ = 0;
};

// ---- JSON writer ------------------------------------------------------------

TEST(Json, EscapesSpecials)
{
    EXPECT_EQ(telemetry::jsonEscape("plain"), "plain");
    EXPECT_EQ(telemetry::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(telemetry::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(telemetry::jsonEscape("a\nb"), "a\\nb");
    // Control characters become \u escapes.
    EXPECT_NE(telemetry::jsonEscape(std::string(1, '\x01')).find("\\u"),
              std::string::npos);
}

TEST(Json, WriterRoundTrips)
{
    std::ostringstream os;
    JsonWriter w(os, false);
    w.beginObject();
    w.member("name", "chi\"sel");
    w.member("n", uint64_t(42));
    w.member("x", 1.5);
    w.member("flag", true);
    w.key("list");
    w.beginArray();
    w.value(uint64_t(1));
    w.value(uint64_t(2));
    w.endArray();
    w.endObject();
    ASSERT_TRUE(w.complete());

    JsonValue v = JsonReader(os.str()).parse();
    EXPECT_EQ(v.at("name").string, "chi\"sel");
    EXPECT_EQ(v.at("n").number, 42.0);
    EXPECT_EQ(v.at("x").number, 1.5);
    EXPECT_TRUE(v.at("flag").boolean);
    ASSERT_EQ(v.at("list").array.size(), 2u);
    EXPECT_EQ(v.at("list").array[1].number, 2.0);
}

TEST(Json, PrettyOutputParsesToo)
{
    std::ostringstream os;
    JsonWriter w(os, true);
    w.beginObject();
    w.key("inner");
    w.beginObject();
    w.member("a", uint64_t(1));
    w.endObject();
    w.endObject();
    JsonValue v = JsonReader(os.str()).parse();
    EXPECT_EQ(v.at("inner").at("a").number, 1.0);
}

// ---- Pow2Histogram ----------------------------------------------------------

TEST(Pow2Histogram, BucketBoundaries)
{
    EXPECT_EQ(Pow2Histogram::bucketFor(0), 0u);
    EXPECT_EQ(Pow2Histogram::bucketFor(1), 1u);
    EXPECT_EQ(Pow2Histogram::bucketFor(2), 2u);
    EXPECT_EQ(Pow2Histogram::bucketFor(3), 2u);
    EXPECT_EQ(Pow2Histogram::bucketFor(4), 3u);
    EXPECT_EQ(Pow2Histogram::bucketFor(uint64_t(1) << 63), 64u);

    EXPECT_EQ(Pow2Histogram::bucketUpperBound(0), 0u);
    EXPECT_EQ(Pow2Histogram::bucketUpperBound(1), 1u);
    EXPECT_EQ(Pow2Histogram::bucketUpperBound(2), 3u);
    EXPECT_EQ(Pow2Histogram::bucketUpperBound(3), 7u);

    // Every value lands in the bucket whose range contains it.
    for (uint64_t v : {0ull, 1ull, 5ull, 1000ull, (1ull << 40) + 7}) {
        size_t b = Pow2Histogram::bucketFor(v);
        EXPECT_LE(v, Pow2Histogram::bucketUpperBound(b));
        if (b > 0)
            EXPECT_GT(v, Pow2Histogram::bucketUpperBound(b - 1));
    }
}

TEST(Pow2Histogram, TracksMomentsExactly)
{
    Pow2Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    h.sample(3);
    h.sample(9);
    h.sample(300);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 312u);
    EXPECT_EQ(h.min(), 3u);
    EXPECT_EQ(h.max(), 300u);
    EXPECT_DOUBLE_EQ(h.mean(), 104.0);
}

TEST(Pow2Histogram, QuantileEdges)
{
    Pow2Histogram h;
    for (uint64_t v = 1; v <= 1000; ++v)
        h.sample(v);
    // q=0 and q=1 are exact regardless of bucketing.
    EXPECT_EQ(h.quantile(0.0), 1u);
    EXPECT_EQ(h.quantile(1.0), 1000u);
    EXPECT_EQ(h.quantile(-0.5), 1u);
    EXPECT_EQ(h.quantile(2.0), 1000u);
    // Interior quantiles: bucket upper bound, at most 2x the true
    // value and never below it.
    uint64_t p50 = h.quantile(0.5);
    EXPECT_GE(p50, 500u);
    EXPECT_LE(p50, 1000u);
}

TEST(Pow2Histogram, ConstantDistributionIsExactEverywhere)
{
    Pow2Histogram h;
    for (int i = 0; i < 100; ++i)
        h.sample(6);
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_EQ(h.quantile(q), 6u) << "q=" << q;
}

TEST(Pow2Histogram, EmptyAndReset)
{
    Pow2Histogram h;
    EXPECT_EQ(h.quantile(0.5), 0u);
    h.sample(17);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.bucketCount(Pow2Histogram::bucketFor(17)), 0u);
}

// ---- MetricRegistry ---------------------------------------------------------

TEST(MetricRegistry, RegistersAndFindsByName)
{
    MetricRegistry r;
    Counter &c = r.counter("engine.lookup.count");
    c.inc(3);
    // Same name returns the same object.
    EXPECT_EQ(&r.counter("engine.lookup.count"), &c);
    EXPECT_EQ(r.counter("engine.lookup.count").value(), 3u);

    r.gauge("tcam.spill.occupancy").set(7.0);
    r.histogram("engine.lookup.accesses").sample(4);

    EXPECT_TRUE(r.contains("engine.lookup.count"));
    EXPECT_FALSE(r.contains("nope"));
    EXPECT_EQ(r.size(), 3u);

    ASSERT_NE(r.findCounter("engine.lookup.count"), nullptr);
    EXPECT_EQ(r.findCounter("engine.lookup.count")->value(), 3u);
    EXPECT_EQ(r.findCounter("tcam.spill.occupancy"), nullptr);
    EXPECT_EQ(r.findGauge("tcam.spill.occupancy")->value(), 7.0);
    EXPECT_EQ(r.findHistogram("engine.lookup.accesses")->count(), 1u);
    EXPECT_EQ(r.findHistogram("missing"), nullptr);
}

TEST(MetricRegistry, KindConflictIsAnError)
{
    MetricRegistry r;
    r.counter("x");
    EXPECT_THROW(r.gauge("x"), ChiselError);
    EXPECT_THROW(r.histogram("x"), ChiselError);
    EXPECT_THROW(r.counter(""), ChiselError);
}

TEST(MetricRegistry, NamesAreSorted)
{
    MetricRegistry r;
    r.counter("b");
    r.counter("a");
    r.gauge("c");
    auto names = r.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "b");
    EXPECT_EQ(names[2], "c");
}

TEST(MetricRegistry, ResetClearsValuesKeepsRegistrations)
{
    MetricRegistry r;
    r.counter("c").inc(5);
    r.gauge("g").set(2.5);
    r.histogram("h").sample(10);
    r.reset();
    EXPECT_EQ(r.size(), 3u);
    EXPECT_EQ(r.counter("c").value(), 0u);
    EXPECT_EQ(r.gauge("g").value(), 0.0);
    EXPECT_EQ(r.histogram("h").count(), 0u);
}

TEST(MetricRegistry, JsonExportRoundTrips)
{
    MetricRegistry r;
    r.counter("engine.lookup.count").inc(12);
    r.gauge("tcam.spill.occupancy").set(3.5);
    Pow2Histogram &h = r.histogram("engine.lookup.accesses");
    for (int i = 0; i < 10; ++i)
        h.sample(4);

    for (bool pretty : {false, true}) {
        JsonValue v = JsonReader(r.toJson(pretty)).parse();
        EXPECT_EQ(v.at("schema").string, "chisel.metrics.v1");
        EXPECT_EQ(v.at("counters").at("engine.lookup.count").number,
                  12.0);
        EXPECT_EQ(v.at("gauges").at("tcam.spill.occupancy").number,
                  3.5);
        const JsonValue &hist =
            v.at("histograms").at("engine.lookup.accesses");
        EXPECT_EQ(hist.at("count").number, 10.0);
        EXPECT_EQ(hist.at("sum").number, 40.0);
        EXPECT_EQ(hist.at("min").number, 4.0);
        EXPECT_EQ(hist.at("max").number, 4.0);
        EXPECT_EQ(hist.at("p50").number, 4.0);
        EXPECT_EQ(hist.at("p99").number, 4.0);
        // Non-empty buckets are exported as {le, count} pairs.
        const auto &buckets = hist.at("buckets").array;
        ASSERT_FALSE(buckets.empty());
        double total = 0;
        for (const auto &b : buckets)
            total += b.at("count").number;
        EXPECT_EQ(total, 10.0);
    }
}

TEST(MetricRegistry, WriteJsonFileFailureWarnsNotThrows)
{
    MetricRegistry r;
    r.counter("c").inc(1);
    EXPECT_FALSE(r.writeJsonFile("/nonexistent-dir/x/metrics.json"));
}

// ---- AccessTracer & trace hooks ---------------------------------------------

TEST(AccessTracer, AccumulatesPerTable)
{
    AccessTracer t;
    t.record(Table::Index, Op::Read, 10, 4);
    t.record(Table::Index, Op::Read, 11, 4);
    t.record(Table::Result, Op::Write, 3, 4);
    EXPECT_EQ(t.counts(Table::Index).reads, 2u);
    EXPECT_EQ(t.counts(Table::Index).readBytes, 8u);
    EXPECT_EQ(t.counts(Table::Result).writes, 1u);
    EXPECT_EQ(t.totalReads(), 2u);
    EXPECT_EQ(t.totalWrites(), 1u);
    t.reset();
    EXPECT_EQ(t.totalReads(), 0u);
}

TEST(AccessTracer, MacrosNoopWithoutInstalledTracer)
{
    ASSERT_EQ(telemetry::activeTracer(), nullptr);
    // Must not crash and must trace nowhere.
    CHISEL_TRACE_ACCESS(Index, 1, 4);
    CHISEL_TRACE_WRITE(Result, 2, 4);
    EXPECT_EQ(telemetry::activeTracer(), nullptr);
}

TEST(AccessTracer, ScopedInstallAndNesting)
{
    AccessTracer outer, inner;
    {
        ScopedTracer so(&outer);
        CHISEL_TRACE_ACCESS(Filter, 0, 2);
        {
            ScopedTracer si(&inner);
            EXPECT_EQ(telemetry::activeTracer(), &inner);
            CHISEL_TRACE_ACCESS(Filter, 1, 2);
        }
        // Restored to the outer tracer on scope exit.
        EXPECT_EQ(telemetry::activeTracer(), &outer);
        CHISEL_TRACE_ACCESS(Filter, 2, 2);
    }
    EXPECT_EQ(telemetry::activeTracer(), nullptr);
#if CHISEL_TRACING_ENABLED
    EXPECT_EQ(outer.counts(Table::Filter).reads, 2u);
    EXPECT_EQ(inner.counts(Table::Filter).reads, 1u);
#else
    // Hooks compiled away: installation works, nothing is recorded.
    EXPECT_EQ(outer.counts(Table::Filter).reads, 0u);
    EXPECT_EQ(inner.counts(Table::Filter).reads, 0u);
#endif
}

TEST(TraceSink, BoundsEventsAndCountsDropped)
{
    TraceSink sink(3);
    AccessTracer t;
    t.setSink(&sink);
    for (uint64_t i = 0; i < 5; ++i)
        t.record(Table::Index, Op::Read, i, 4);
    EXPECT_EQ(sink.events().size(), 3u);
    EXPECT_EQ(sink.dropped(), 2u);
    EXPECT_EQ(t.counts(Table::Index).reads, 5u);   // Counts unbounded.
    sink.clear();
    EXPECT_EQ(sink.events().size(), 0u);
    EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, ChromeTraceIsValidJson)
{
    TraceSink sink(8);
    AccessTracer t;
    t.setSink(&sink);
    t.record(Table::Index, Op::Read, 7, 4);
    t.record(Table::Result, Op::Write, 9, 4);

    std::ostringstream os;
    sink.writeChromeTrace(os);
    JsonValue v = JsonReader(os.str()).parse();
    const auto &events = v.at("traceEvents").array;
    // One metadata record plus the two accesses.
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].at("ph").string, "M");
    EXPECT_EQ(events[1].at("name").string, "index.read");
    EXPECT_EQ(events[1].at("ph").string, "i");
    EXPECT_EQ(events[1].at("args").at("addr").number, 7.0);
    EXPECT_EQ(events[2].at("name").string, "result.write");
    // Timestamps are relative microseconds, nondecreasing.
    EXPECT_LE(events[1].at("ts").number, events[2].at("ts").number);
    EXPECT_FALSE(v.has("droppedEvents"));
}

// ---- Logging ----------------------------------------------------------------

std::vector<std::pair<LogLevel, std::string>> &
capturedLog()
{
    static std::vector<std::pair<LogLevel, std::string>> log;
    return log;
}

void
captureSink(LogLevel level, const std::string &msg)
{
    capturedLog().emplace_back(level, msg);
}

class LogCapture
{
  public:
    LogCapture()
    {
        capturedLog().clear();
        prevSink_ = setLogSink(&captureSink);
        prevLevel_ = logLevel();
    }

    ~LogCapture()
    {
        setLogSink(prevSink_);
        setLogLevel(prevLevel_);
    }

  private:
    LogSink prevSink_;
    LogLevel prevLevel_;
};

TEST(Logging, LevelNamesAndThreshold)
{
    EXPECT_STREQ(logLevelName(LogLevel::Debug), "debug");
    EXPECT_STREQ(logLevelName(LogLevel::Warn), "warn");

    LogCapture cap;
    setLogLevel(LogLevel::Warn);
    debug("nope");
    inform("nope");
    warn("yes-warn");
    error("yes-error");
    ASSERT_EQ(capturedLog().size(), 2u);
    EXPECT_EQ(capturedLog()[0].first, LogLevel::Warn);
    EXPECT_EQ(capturedLog()[0].second, "yes-warn");
    EXPECT_EQ(capturedLog()[1].first, LogLevel::Error);

    setLogLevel(LogLevel::None);
    error("suppressed");
    EXPECT_EQ(capturedLog().size(), 2u);

    setLogLevel(LogLevel::Debug);
    debug("now-visible");
    EXPECT_EQ(capturedLog().back().second, "now-visible");
}

TEST(Logging, WarnOncePerCallSite)
{
    LogCapture cap;
    setLogLevel(LogLevel::Info);
    for (int i = 0; i < 5; ++i)
        warnOnce("flood");   // One call site, five calls.
    EXPECT_EQ(capturedLog().size(), 1u);
    EXPECT_EQ(capturedLog()[0].second, "flood");
    warnOnce("different site");   // New call site emits again.
    EXPECT_EQ(capturedLog().size(), 2u);
}

// ---- EngineTelemetry integration --------------------------------------------

// A single-sub-cell engine whose access counts are analytically
// known: all routes at one length, nothing spilled, no default.
RoutingTable
flatTable(unsigned length, unsigned count)
{
    RoutingTable t;
    for (unsigned i = 0; i < count; ++i) {
        Key128 key;
        key.deposit(0, length, i);
        t.add(Prefix(key, length), i + 1);
    }
    return t;
}

ChiselConfig
singleCellConfig()
{
    ChiselConfig cfg;
    cfg.keyWidth = 8;
    cfg.stride = 4;
    cfg.coverAllLengths = false;
    return cfg;
}

TEST(EngineTelemetry, LookupAccessesMatchAnalyticalBudget)
{
#if !CHISEL_TRACING_ENABLED
    GTEST_SKIP() << "access hooks compiled out";
#endif
    const unsigned kRoutes = 64;
    RoutingTable table = flatTable(8, kRoutes);
    ChiselConfig cfg = singleCellConfig();
    ChiselEngine engine(table, cfg);
    ASSERT_EQ(engine.cellCount(), 1u);
    ASSERT_EQ(engine.spillCount(), 0u);

    MetricRegistry registry;
    EngineTelemetry telemetry(registry);
    engine.attachTelemetry(&telemetry);

    for (unsigned i = 0; i < kRoutes; ++i) {
        Key128 key;
        key.deposit(0, 8, i);
        auto r = engine.lookup(key);
        ASSERT_TRUE(r.found);
        EXPECT_FALSE(r.fromSpill);
        EXPECT_FALSE(r.fromDefault);
    }
    engine.attachTelemetry(nullptr);

    // Per hit lookup in a one-cell engine with an empty spill TCAM:
    // k Index segment probes + 1 Filter read + 1 Bit-vector read +
    // 1 Result read, and nothing else.
    const uint64_t budget = cfg.k + 3;
    const auto *total = registry.findHistogram("engine.lookup.accesses");
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(total->count(), kRoutes);
    EXPECT_EQ(total->min(), budget);
    EXPECT_EQ(total->max(), budget);
    EXPECT_EQ(total->sum(), budget * kRoutes);
    EXPECT_EQ(total->quantile(0.99), budget);

    auto tableSum = [&](const char *name) {
        const auto *h = registry.findHistogram(
            std::string("engine.lookup.accesses.") + name);
        return h == nullptr ? ~uint64_t(0) : h->sum();
    };
    EXPECT_EQ(tableSum("index"), uint64_t(cfg.k) * kRoutes);
    EXPECT_EQ(tableSum("filter"), kRoutes);
    EXPECT_EQ(tableSum("bitvector"), kRoutes);
    EXPECT_EQ(tableSum("result"), kRoutes);
    EXPECT_EQ(tableSum("tcam"), 0u);

    EXPECT_EQ(registry.findCounter("engine.lookup.count")->value(),
              kRoutes);
    EXPECT_EQ(registry.findCounter("engine.lookup.hits")->value(),
              kRoutes);
    EXPECT_EQ(
        registry.findCounter("engine.lookup.spill_hits")->value(), 0u);
}

TEST(EngineTelemetry, TracedCountsBoundedByModeledAccesses)
{
    // The traced counts are the software path's actual accesses; the
    // engine's modeledAccesses are the hardware's, where every cell
    // probes on every lookup.  The software short-circuits at the
    // first (longest-base) hit, so traced on-chip reads are a lower
    // bound on the modeled ones — and the off-chip Result read only
    // ever happens on a real hit, so there they agree exactly.
#if !CHISEL_TRACING_ENABLED
    GTEST_SKIP() << "access hooks compiled out";
#endif
    RoutingTable table = flatTable(8, 32);
    ChiselConfig cfg;
    cfg.keyWidth = 8;
    ChiselEngine engine(table, cfg);
    ASSERT_GT(engine.cellCount(), 1u);

    MetricRegistry registry;
    EngineTelemetry telemetry(registry);
    engine.attachTelemetry(&telemetry);

    const unsigned kLookups = 32;
    uint64_t hits = 0;
    for (unsigned i = 0; i < kLookups; ++i) {
        Key128 key;
        key.deposit(0, 8, i);
        LookupResult r = engine.lookup(key);
        ASSERT_TRUE(r.found);
        hits += !r.fromDefault;
    }
    engine.attachTelemetry(nullptr);

    const ModeledAccesses a = engine.modeledAccesses(kLookups, hits);
    auto h = [&](const char *name) {
        return registry
            .findHistogram(std::string("engine.lookup.accesses.") +
                           name)
            ->sum();
    };
    EXPECT_GE(h("index"), uint64_t(cfg.k) * kLookups);   // >= 1 cell.
    EXPECT_LE(h("index"), a.indexSegmentReads);
    EXPECT_GE(h("filter"), kLookups);
    EXPECT_LE(h("filter"), a.filterReads);
    EXPECT_GE(h("bitvector"), kLookups);
    EXPECT_LE(h("bitvector"), a.bitvectorReads);
    EXPECT_EQ(h("result"), a.resultReads);

    // Every hit still costs at least the analytical budget.
    const auto *total = registry.findHistogram("engine.lookup.accesses");
    EXPECT_GE(total->min(), uint64_t(cfg.k) + 3);
}

TEST(EngineTelemetry, UpdateSpansCountWritesAndClasses)
{
    RoutingTable table = flatTable(8, 16);
    ChiselEngine engine(table, singleCellConfig());

    MetricRegistry registry;
    EngineTelemetry telemetry(registry);
    engine.attachTelemetry(&telemetry);

    // A fresh prefix inside the covered range: an incremental insert.
    Key128 key;
    key.deposit(0, 8, 200);
    UpdateClass cls = engine.announce(Prefix(key, 8), 99);
    engine.attachTelemetry(nullptr);

    EXPECT_EQ(registry.findCounter("engine.update.count")->value(), 1u);
    const auto *writes = registry.findHistogram("engine.update.writes");
    ASSERT_NE(writes, nullptr);
    EXPECT_EQ(writes->count(), 1u);
#if CHISEL_TRACING_ENABLED
    EXPECT_GE(writes->sum(), 1u);   // At least the bit-vector write.
#endif

    std::string cls_name = std::string("engine.update.class.") +
                           telemetry::updateClassSlug(cls);
    ASSERT_NE(registry.findCounter(cls_name), nullptr);
    EXPECT_EQ(registry.findCounter(cls_name)->value(), 1u);
}

TEST(EngineTelemetry, SnapshotPublishesGauges)
{
    RoutingTable table = flatTable(8, 16);
    ChiselEngine engine(table, singleCellConfig());

    MetricRegistry registry;
    EngineTelemetry telemetry(registry);
    telemetry.snapshot(engine);

    EXPECT_EQ(registry.findGauge("engine.routes")->value(), 16.0);
    EXPECT_EQ(registry.findGauge("engine.cells")->value(), 1.0);
    EXPECT_EQ(registry.findGauge("tcam.spill.occupancy")->value(), 0.0);
    EXPECT_EQ(registry.findGauge("tcam.spill.capacity")->value(),
              double(engine.config().spillCapacity));
    EXPECT_GT(registry.findGauge("engine.storage.index_bits")->value(),
              0.0);
    EXPECT_NE(registry.findGauge("subcell.0.routes"), nullptr);
}

TEST(EngineTelemetry, PerEventTraceThroughEngine)
{
#if !CHISEL_TRACING_ENABLED
    GTEST_SKIP() << "access hooks compiled out";
#endif
    RoutingTable table = flatTable(8, 16);
    ChiselConfig cfg = singleCellConfig();
    ChiselEngine engine(table, cfg);

    MetricRegistry registry;
    EngineTelemetry telemetry(registry);
    TraceSink sink;
    telemetry.setTraceSink(&sink);
    engine.attachTelemetry(&telemetry);

    Key128 key;
    key.deposit(0, 8, 3);
    ASSERT_TRUE(engine.lookup(key).found);
    engine.attachTelemetry(nullptr);

    // The per-event trace mirrors the span's counters: k+3 events.
    EXPECT_EQ(sink.events().size(), size_t(cfg.k) + 3);
    EXPECT_EQ(sink.dropped(), 0u);
}

// ---- Robustness counters -----------------------------------------------------

TEST(EngineTelemetry, RegistersRobustnessCounters)
{
    MetricRegistry registry;
    EngineTelemetry telemetry(registry);
    for (const char *name :
         {"engine.lookup.slowpath_hits",
          "engine.update.tcam_overflow_total",
          "engine.update.setup_retries_total",
          "engine.update.slowpath_diversions_total",
          "engine.update.rejected_total",
          "engine.fault.parity_recoveries_total"})
        EXPECT_TRUE(registry.contains(name)) << name;
}

TEST(EngineTelemetry, RejectedUpdateCountedAndSnapshotted)
{
    RoutingTable table = flatTable(8, 16);
    ChiselEngine engine(table, singleCellConfig());

    MetricRegistry registry;
    EngineTelemetry telemetry(registry);
    engine.attachTelemetry(&telemetry);

    // An announce wider than the configured key width is refused
    // with a structured outcome, and telemetry records the refusal.
    Key128 key;
    key.deposit(0, 8, 3);
    UpdateOutcome out = engine.announce(Prefix(key, 12), 5);
    engine.attachTelemetry(nullptr);
    EXPECT_EQ(out.status, UpdateStatus::Rejected);

    EXPECT_EQ(
        registry.findCounter("engine.update.rejected_total")->value(),
        1u);
    EXPECT_EQ(
        registry.findCounter("engine.update.tcam_overflow_total")
            ->value(),
        0u);

    telemetry.snapshot(engine);
    EXPECT_EQ(registry.findGauge("engine.slowpath.occupancy")->value(),
              0.0);
    EXPECT_EQ(
        registry.findGauge("engine.robustness.rejected_updates")
            ->value(),
        1.0);
    for (const char *name :
         {"engine.robustness.tcam_overflows",
          "engine.robustness.slowpath_inserts",
          "engine.robustness.slowpath_drains",
          "engine.robustness.setup_retries",
          "engine.robustness.parity_detected",
          "engine.robustness.parity_recovered"})
        ASSERT_NE(registry.findGauge(name), nullptr) << name;
}

} // anonymous namespace
} // namespace chisel
