/**
 * @file
 * Section 6.7.1's latency comparison: sequential memory accesses per
 * lookup for Chisel versus Tree Bitmap, IPv4 and IPv6.
 *
 * Paper shape: Chisel is constant at 4 accesses regardless of key
 * width; Tree Bitmap needs ~11 for IPv4 and ~40 for IPv6 (with the
 * strides of its storage-efficient configuration), growing linearly
 * with the key.
 *
 * The "Chisel traced" columns are measured by the telemetry access
 * tracer and count every table touch of the sub-cells the software
 * probes (those the cell-presence summary names and whose presence
 * bit for the key's collapsed group is set) — work the hardware
 * performs in parallel across all cells, so the sequential depth
 * stays at the "model" constant.  Pass --metrics-json= / --trace= to
 * export the full histograms.
 */

#include <cstdio>

#include "core/engine.hh"
#include "route/synth.hh"
#include "sim/report.hh"
#include "sim/stats.hh"
#include "telemetry/cli.hh"
#include "trie/tree_bitmap.hh"

namespace {

using namespace chisel;

void
measure(unsigned key_width, Report &report,
        telemetry::TelemetrySession &session)
{
    SynthProfile prof;
    prof.prefixes = 30000;
    prof.keyWidth = key_width;
    prof.lengthWeights = defaultIpv4LengthWeights();
    prof.seed = 0x1a + key_width;
    RoutingTable table = generateTable(prof);

    ChiselConfig cfg;
    cfg.keyWidth = key_width;
    ChiselEngine engine(table, cfg);
    TreeBitmap tb(table, key_width > 32 ? treeBitmapIpv6Config()
                                        : treeBitmapIpv4Config());

    auto keys = generateLookupKeys(table, 20000, key_width, 0.85,
                                   0x1b + key_width);

    // Trace the Chisel lookups; an always-on local registry measures
    // the accesses even when no export flags were given.
    telemetry::MetricRegistry measured;
    telemetry::EngineTelemetry local(measured);
    if (session.enabled()) {
        session.attach(engine);
        for (const auto &k : keys)
            (void)engine.lookup(k);
        session.detach();   // Engine dies with this frame.
    }
    engine.attachTelemetry(&local);
    for (const auto &k : keys)
        (void)engine.lookup(k);
    engine.attachTelemetry(nullptr);
    const auto *chisel_acc =
        measured.findHistogram("engine.lookup.accesses");

    ScalarStat tb_acc("tb");
    for (const auto &k : keys) {
        auto r = tb.lookup(k);
        if (r.found)
            tb_acc.sample(r.memoryAccesses);
    }

    report.addRow({key_width > 32 ? "IPv6 (128b)" : "IPv4 (32b)",
                   std::to_string(ChiselEngine::kLookupAccesses),
                   Report::num(chisel_acc->mean(), 1),
                   Report::count(chisel_acc->max()),
                   Report::num(tb_acc.mean(), 1),
                   Report::num(tb_acc.max(), 0),
                   std::to_string(tb.maxAccesses())});
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace chisel;
    telemetry::TelemetryOptions opts =
        telemetry::TelemetryOptions::parse(argc, argv);
    telemetry::TelemetrySession session(opts);

    Report report(
        "Latency: sequential memory accesses per lookup",
        {"key", "Chisel model", "Chisel traced mean",
         "Chisel traced max", "TreeBitmap mean", "TreeBitmap max seen",
         "TreeBitmap worst"});
    measure(32, report, session);
    measure(128, report, session);
    report.print();
    session.finish();
    std::printf("Chisel is key-width independent at 4 accesses; Tree "
                "Bitmap grows with the key (paper: 11 IPv4 / ~40 "
                "IPv6 off-chip accesses).\n");
    return 0;
}
