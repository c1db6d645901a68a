/**
 * @file
 * The repository benchmark's driver binary (see BENCHMARK.json).
 *
 *     chisel_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                      --work-dir DIR
 *
 * --trace 0 runs the workload untraced and prints every end-to-end
 * metric; --trace 1 runs it again with the outside-in trace and
 * prints every per-layer metric.  Human-readable lines (metric, unit,
 * sample count) come first; the last line of standard output is one
 * JSON object {correct, attempted, failed, metrics}.  Scratch
 * directories (the v6_churn journal, snapshots) and the span dump of
 * the traced run go under DIR.
 */

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hh"
#include "telemetry/json.hh"

namespace {

using namespace perfbench;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "chisel_perfbench: %s\nusage: chisel_perfbench --workload "
                 "NAME --seed N --seconds S --trace 0|1 --work-dir DIR\n",
                 why);
    return 2;
}

/**
 * Print every metric with its unit and sample count, the diagnostics,
 * and last the JSON result line (run.py checks it against
 * BENCHMARK.json).
 */
void
printReport(const Report &report)
{
    for (const Metric &m : report.metrics) {
        if (m.samples > 0)
            std::printf("%-32s %16.6f %-6s (n=%llu)\n", m.name.c_str(),
                        m.value, m.unit.c_str(),
                        static_cast<unsigned long long>(m.samples));
        else
            std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    }
    for (const Metric &m : report.diagnostics)
        std::printf("%-32s %16.6f %s (diagnostic)\n", m.name.c_str(),
                    m.value, m.unit.c_str());
    for (const std::string &n : report.notes)
        std::printf("check failed: %s\n", n.c_str());

    std::ostringstream os;
    chisel::telemetry::JsonWriter w(os, false);
    w.beginObject();
    w.member("correct", report.correct && report.failed == 0);
    w.member("attempted", report.attempted);
    w.member("failed", report.failed);
    w.key("metrics");
    w.beginObject();
    for (const Metric &m : report.metrics) {
        w.key(m.name);
        w.beginObject();
        w.member("value", m.value);
        w.member("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::cout << os.str() << std::endl;
}

/**
 * Keep every thread the benchmark starts off the first CPU, where the
 * kernel's interrupts and housekeeping land, when at least four CPUs
 * are available (no workload has more than three busy threads).  On
 * a 4-vCPU VM this took v6_churn's update p99 from 53-67 us to 48-58 us
 * across repeats of one seed.
 */
void
avoidFirstCpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0 || CPU_COUNT(&set) < 4)
        return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) {
            CPU_CLR(cpu, &set);
            break;
        }
    }
    sched_setaffinity(0, sizeof(set), &set);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    std::string workload, workDir;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        const char *v = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            workload = v;
        } else if (flag == "--seed") {
            opts.seed = std::strtoull(v, &end, 10);
            haveSeed = end != v && *end == '\0';
        } else if (flag == "--seconds") {
            unsigned long s = std::strtoul(v, &end, 10);
            haveSeconds = end != v && *end == '\0' && s >= 1 && s <= 60;
            opts.seconds = static_cast<unsigned>(s);
        } else if (flag == "--trace") {
            haveTrace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
            opts.trace = std::strcmp(v, "1") == 0;
        } else if (flag == "--work-dir") {
            workDir = v;
        } else {
            return usage(("unknown argument " + flag).c_str());
        }
    }
    if (argc % 2 != 1)
        return usage("every flag takes one value");
    opts.spec = findWorkload(workload);
    if (opts.spec == nullptr)
        return usage("unknown --workload");
    if (!haveSeed || !haveSeconds || !haveTrace || workDir.empty())
        return usage("--seed, --seconds (1..60), --trace and --work-dir "
                     "are required");

    std::filesystem::create_directories(workDir);
    setWorkRoot(workDir);
    avoidFirstCpu();

    Report report;
    if (opts.trace)
        runTraced(opts, report);
    else
        runEndToEnd(opts, report);
    printReport(report);
    return 0;
}
