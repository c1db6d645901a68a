/**
 * @file
 * Unit tests for the sim module (statistics and reporting) and the
 * new engine instrumentation: IPv6 text parsing, access counters,
 * measured power.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/logging.hh"
#include "core/engine.hh"
#include "core/power_model.hh"
#include "route/prefix.hh"
#include "route/synth.hh"
#include "sim/report.hh"
#include "sim/stats.hh"

namespace chisel {
namespace {

// ---- ScalarStat ----------------------------------------------------------

TEST(ScalarStat, TracksMoments)
{
    ScalarStat s("x");
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    s.sample(2);
    s.sample(4);
    s.sample(9);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(ScalarStat, StrMentionsName)
{
    ScalarStat s("latency");
    s.sample(1.5);
    EXPECT_NE(s.str().find("latency"), std::string::npos);
}

// ---- Histogram -------------------------------------------------------------

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h("h", 4);
    h.sample(0);
    h.sample(1);
    h.sample(1);
    h.sample(3);
    h.sample(9);   // Overflow.
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, Quantile)
{
    Histogram h("q", 10);
    for (uint64_t v = 0; v < 10; ++v)
        for (int i = 0; i < 10; ++i)
            h.sample(v);
    EXPECT_EQ(h.quantile(0.5), 4u);
    EXPECT_EQ(h.quantile(1.0), 9u);
}

TEST(Histogram, QuantileEdges)
{
    Histogram h("edges", 10);
    h.sample(2);
    h.sample(5);
    h.sample(7);
    // q=0 is the smallest sampled bucket, q=1 the largest; out-of-
    // range fractions clamp rather than misbehave.
    EXPECT_EQ(h.quantile(0.0), 2u);
    EXPECT_EQ(h.quantile(-1.0), 2u);
    EXPECT_EQ(h.quantile(1.0), 7u);
    EXPECT_EQ(h.quantile(1.5), 7u);

    Histogram empty("e", 4);
    EXPECT_EQ(empty.quantile(0.0), 0u);
    EXPECT_EQ(empty.quantile(0.5), 0u);
    EXPECT_EQ(empty.quantile(1.0), 0u);

    Histogram one("one", 4);
    one.sample(3);
    for (double q : {0.0, 0.5, 1.0})
        EXPECT_EQ(one.quantile(q), 3u) << q;
}

TEST(Histogram, Reset)
{
    Histogram h("r", 4);
    h.sample(2);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.bucket(2), 0u);
}

// ---- StopWatch -------------------------------------------------------------

TEST(StopWatch, MeasuresElapsed)
{
    StopWatch w;
    double t1 = w.seconds();
    EXPECT_GE(t1, 0.0);
    volatile uint64_t sink = 0;
    for (int i = 0; i < 100000; ++i)
        sink = sink + static_cast<uint64_t>(i);
    double t2 = w.seconds();
    EXPECT_GE(t2, t1);
    w.reset();
    EXPECT_LT(w.seconds(), t2 + 1.0);
}

TEST(StopWatch, NanosecondsAreMonotonic)
{
    StopWatch w;
    uint64_t a = w.ns();
    uint64_t b = w.ns();
    EXPECT_LE(a, b);   // Monotonic clock: never runs backwards.
    // ns() and seconds() are the same reading in different units.
    uint64_t n = w.ns();
    double s = w.seconds();
    EXPECT_GE(s, static_cast<double>(n) * 1e-9);
}

// ---- Report ----------------------------------------------------------------

TEST(Report, FormatsAlignedColumns)
{
    Report r("Title", {"a", "bb"});
    r.addRow({"1", "2"});
    r.addRow({"333", "4"});
    std::ostringstream os;
    r.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("== Title =="), std::string::npos);
    EXPECT_NE(s.find("333"), std::string::npos);
    // Header precedes rows.
    EXPECT_LT(s.find("bb"), s.find("333"));
}

TEST(Report, NumberFormatting)
{
    EXPECT_EQ(Report::num(3.14159, 2), "3.14");
    EXPECT_EQ(Report::count(1234567), "1,234,567");
    EXPECT_EQ(Report::count(12), "12");
    EXPECT_EQ(Report::mbits(1024 * 1024, 1), "1.0");
}

TEST(Report, ShortRowsArePadded)
{
    Report r("t", {"a", "b", "c"});
    r.addRow({"only"});
    std::ostringstream os;
    r.print(os);   // Must not crash; missing cells become empty.
    EXPECT_NE(os.str().find("only"), std::string::npos);
}

// ---- IPv6 parsing -----------------------------------------------------------

TEST(Ipv6Cidr, ParsesCanonicalForms)
{
    Prefix p = Prefix::fromCidr6("2001:db8::/32");
    EXPECT_EQ(p.length(), 32u);
    EXPECT_EQ(p.bits().extract(0, 16), 0x2001u);
    EXPECT_EQ(p.bits().extract(16, 16), 0x0db8u);
    EXPECT_EQ(p.cidr6(), "2001:db8::/32");

    Prefix q = Prefix::fromCidr6("::1/128");
    EXPECT_EQ(q.length(), 128u);
    EXPECT_EQ(q.bits().extract(112, 16), 1u);

    Prefix full = Prefix::fromCidr6(
        "fe80:1:2:3:4:5:6:7/64");
    EXPECT_EQ(full.bits().extract(0, 16), 0xfe80u);
    EXPECT_EQ(full.length(), 64u);
    // Bits beyond the length are masked.
    EXPECT_EQ(full.bits().extract(64, 16), 0u);
}

TEST(Ipv6Cidr, RoundTrips)
{
    const char *cases[] = {
        "2001:db8::/32", "::/0", "ff00::/8", "2001:db8:0:1::/64",
        "abcd:ef01:2345:6789::/56",
    };
    for (const char *c : cases) {
        Prefix p = Prefix::fromCidr6(c);
        EXPECT_EQ(Prefix::fromCidr6(p.cidr6()), p) << c;
    }
}

TEST(Ipv6Cidr, RejectsMalformed)
{
    EXPECT_THROW(Prefix::fromCidr6("2001:db8::"), ChiselError);
    EXPECT_THROW(Prefix::fromCidr6("2001::db8::1/32"), ChiselError);
    EXPECT_THROW(Prefix::fromCidr6("2001:db8::/129"), ChiselError);
    EXPECT_THROW(Prefix::fromCidr6("20011:db8::/32"), ChiselError);
    EXPECT_THROW(Prefix::fromCidr6("1:2:3:4:5:6:7:8:9/32"),
                 ChiselError);
    EXPECT_THROW(Prefix::fromCidr6("zz::/8"), ChiselError);
}

// ---- Modeled accesses & measured power --------------------------------------

TEST(ModeledAccesses, CountPerLookup)
{
    RoutingTable t;
    t.add(Prefix::fromCidr("10.0.0.0/8"), 1);
    ChiselEngine e(t);

    uint64_t hits = 0;
    for (uint32_t addr : {0x0A000001u, 0x0B000001u}) {   // Hit, miss.
        LookupResult r = e.lookup(Key128::fromIpv4(addr));
        hits += r.found && !r.fromDefault;
    }

    ModeledAccesses a = e.modeledAccesses(2, hits);
    EXPECT_EQ(a.lookups, 2u);
    EXPECT_EQ(a.indexSegmentReads,
              2 * e.cellCount() * e.config().k);
    EXPECT_EQ(a.filterReads, 2 * e.cellCount());
    EXPECT_EQ(a.bitvectorReads, 2 * e.cellCount());
    EXPECT_EQ(a.resultReads, 1u);   // Only the hit.
}

TEST(MeasuredPower, BelowWorstCaseForSizedToFit)
{
    RoutingTable table = generateScaledTable(20000, 32, 0x515);
    ChiselConfig cfg;
    cfg.capacityHeadroom = 1.0;
    ChiselEngine engine(table, cfg);

    ChiselPowerModel model;
    StorageParams p;
    double worst = model.worstCase(table.size(), p, 200.0)
                       .totalWatts();
    double meas = model.measured(engine, 200.0).totalWatts();
    EXPECT_GT(meas, 0.0);
    EXPECT_LT(meas, worst * 1.5);   // Same ballpark, usually below.
}

} // anonymous namespace
} // namespace chisel
