/**
 * @file
 * Concurrent lookup throughput: ConcurrentChisel under 1/2/4/8 reader
 * threads, with and without a live writer replaying a synthetic BGP
 * update feed (docs/concurrency.md).
 *
 * The paper's pipeline serves a lookup every cycle regardless of
 * control-plane activity; the property this harness measures is the
 * software analogue — reader throughput scales with thread count and
 * is NOT knocked over by a concurrent writer, because lookups are
 * wait-free (one epoch stamp, one pointer load, four table reads, one
 * epoch clear; never a lock, never a retry).
 *
 * Scaling depends on available cores: on a single-core runner every
 * configuration time-slices one CPU and the table shows ~1x.  Run on
 * >= 4 cores to see the >= 3x at 4 readers acceptance row.
 *
 * Flags: --metrics-json=<path> exports every measured rate.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "concurrent/concurrent_engine.hh"
#include "obs/introspect.hh"
#include "route/synth.hh"
#include "route/updates.hh"
#include "sim/report.hh"
#include "telemetry/cli.hh"
#include "telemetry/metrics.hh"

namespace {

using namespace chisel;
using concurrent::ConcurrentChisel;
using concurrent::ConcurrentOptions;

struct RunResult
{
    double lookupsPerSec = 0.0;
    uint64_t updatesApplied = 0;
};

/**
 * Run @p readers lookup threads for @p duration, with a @p live_writer
 * applying @p updates in a loop at ~10k updates/s or none, and return
 * the aggregate lookup rate.
 */
RunResult
run(ConcurrentChisel &engine, const std::vector<Key128> &keys,
    unsigned readers, bool live_writer,
    const std::vector<Update> &updates,
    std::chrono::milliseconds duration)
{
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> lookups{0};
    uint64_t updatesBefore = engine.updatesApplied();

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < readers; ++t) {
        threads.emplace_back([&, t] {
            uint64_t i = t;
            uint64_t local = 0;
            while (!stop.load(std::memory_order_acquire)) {
                engine.lookup(keys[i++ % keys.size()]);
                ++local;
            }
            lookups.fetch_add(local, std::memory_order_relaxed);
        });
    }

    std::thread writer;
    if (live_writer) {
        writer = std::thread([&] {
            size_t i = 0;
            while (!stop.load(std::memory_order_acquire)) {
                engine.apply(updates[i++ % updates.size()]);
                // ~10k updates/s: an aggressive BGP storm, orders of
                // magnitude above steady-state feeds.
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
            }
        });
    }

    auto start = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(duration);
    stop.store(true, std::memory_order_release);
    for (auto &t : threads)
        t.join();
    if (writer.joinable())
        writer.join();
    auto elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();

    RunResult r;
    r.lookupsPerSec = static_cast<double>(lookups.load()) / elapsed;
    r.updatesApplied = engine.updatesApplied() - updatesBefore;
    return r;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    auto options = telemetry::TelemetryOptions::parse(argc, argv);
    telemetry::FlagTable flags(
        "bench_concurrent",
        "Wait-free lookup throughput under live updates (fixed "
        "workload; tune via the telemetry options only).");
    if (!flags.parseStrict(argc, argv))
        return flags.helpRequested() ? 0 : 2;
    // The recorder flies on every run: a wedged or crashed bench
    // leaves its last events in <prefix>.crash.json.
    if (options.flightEvents == 0)
        options.flightEvents = 4096;
    telemetry::TelemetrySession session(options);
    if (options.flightDumpPrefix.empty())
        telemetry::FlightRecorder::installCrashHandler(
            "bench_concurrent");
    telemetry::MetricRegistry &registry = session.registry();

    const size_t table_size = 20000;
    const auto duration = std::chrono::milliseconds(400);

    RoutingTable table = generateScaledTable(table_size, 32, 0x700);
    std::vector<Key128> keys =
        generateLookupKeys(table, 4096, 32, 0.7, 0x701);
    UpdateTraceGenerator gen(table, TraceProfile{}, 32, 0x702);
    std::vector<Update> updates = gen.generate(20000);

    ConcurrentOptions copts;
    copts.controlThread = false;
    ConcurrentChisel engine(table, {}, copts);
    if (obs::IntrospectionServer *server = session.introspection())
        server->attachEngine(&engine);

    Report report("Concurrent lookup throughput "
                  "(wait-free readers, one writer)",
                  {"readers", "writer", "Mlookups/s", "speedup",
                   "updates/s"});

    double baseline = 0.0;
    for (unsigned readers : {1u, 2u, 4u, 8u}) {
        for (bool live_writer : {false, true}) {
            RunResult r =
                run(engine, keys, readers, live_writer, updates, duration);
            if (readers == 1 && !live_writer)
                baseline = r.lookupsPerSec;
            double speedup =
                baseline > 0.0 ? r.lookupsPerSec / baseline : 0.0;
            double update_rate =
                static_cast<double>(r.updatesApplied) /
                std::chrono::duration<double>(duration).count();

            report.addRow({std::to_string(readers),
                           live_writer ? "live" : "idle",
                           Report::num(r.lookupsPerSec / 1e6, 3),
                           Report::num(speedup, 2) + "x",
                           Report::num(update_rate, 0)});

            std::string tag = std::to_string(readers) +
                              (live_writer ? ".live" : ".idle");
            registry.gauge("bench.concurrent.lookups_per_sec." + tag)
                .set(r.lookupsPerSec);
            registry.gauge("bench.concurrent.speedup." + tag)
                .set(speedup);
            registry.gauge("bench.concurrent.update_rate." + tag)
                .set(update_rate);
        }
    }
    report.print();

    unsigned cores = std::thread::hardware_concurrency();
    registry.gauge("bench.concurrent.hardware_threads")
        .set(static_cast<double>(cores));
    std::printf("hardware threads: %u%s\n", cores,
                cores < 4 ? "  (speedup needs >= 4 cores to show)"
                          : "");

    // Flushes the metrics JSON and flight dump, and stops the
    // introspection server before the engine leaves scope.
    session.finish();
    return 0;
}
