/**
 * @file
 * What the soak drivers share: flags and the run directory, the
 * verdict, the re-exec'd child, the journal-truth fold, the route
 * audit and the JSON report.  Header-only: bench/ builds one binary
 * per source.  A driver writes everything into one mkdtemp(3)
 * directory, removed on a pass and kept (and named) on a failure; a
 * report goes only where --json points.
 */

#ifndef CHISEL_BENCH_SOAK_HH
#define CHISEL_BENCH_SOAK_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include "common/clock.hh"
#include "concurrent/concurrent_engine.hh"
#include "persist/journal.hh"
#include "route/table.hh"
#include "route/updates.hh"
#include "telemetry/cli.hh"
#include "telemetry/json.hh"
#include "trie/binary_trie.hh"

namespace chisel::soak {

/** What a scenario declares about itself. */
struct Spec
{
    const char *name;     ///< Binary name: help, verdict, crash dumps.
    const char *summary;  ///< One line atop --help.
    uint64_t seed;        ///< Default scenario seed.
    bool report = false;  ///< Takes --json=<path>.
    /** The re-exec'd child's --role value; nullptr = no child. */
    const char *childRole = nullptr;
    /** Always fly a flight recorder: a crash dump is what a dead run
     *  leaves behind to debug. */
    bool crashDump = false;
};

/** One soak process: a driver, or the child a driver re-exec'd. */
class Soak
{
  public:
    explicit Soak(const Spec &spec) : spec_(spec), seed_(spec.seed) {}

    Soak(const Soak &) = delete;
    Soak &operator=(const Soak &) = delete;

    /**
     * Parse the flags; a driver also gets its telemetry session and
     * run directory.  @return -1 to run on, else the exit status.
     */
    int
    parse(int argc, char **argv)
    {
        // Progress must show while a soak runs, even piped into a CI
        // log, and a SIGKILLed child must not take buffered lines.
        std::setvbuf(stdout, nullptr, _IONBF, 0);
        auto topts = telemetry::TelemetryOptions::parse(argc, argv);
        telemetry::FlagTable flags(spec_.name, spec_.summary);
        flags.u64Flag("seed", "deterministic scenario seed", &seed_);
        if (spec_.report)
            flags.stringFlag("json", "report path (none by default)",
                             &json_);
        if (spec_.childRole != nullptr)
            flags.stringFlag("role", std::string("internal: '") +
                                         spec_.childRole +
                                         "' for the re-exec'd child",
                             &role_)
                .u64Flag("port", "internal: the child's port", &port_)
                .stringFlag("dir", "internal: the child's run directory",
                            &dir_);
        if (!flags.parseStrict(argc, argv))
            return flags.helpRequested() ? 0 : 2;
        if (isChild() && (role_ != spec_.childRole || dir_.empty())) {
            std::fprintf(stderr, "%s: a child takes --role=%s and --dir\n",
                         spec_.name, spec_.childRole);
            return 2;
        }
        if (isChild())
            return -1;

        if (spec_.crashDump && topts.flightEvents == 0)
            topts.flightEvents = 4096;
        session_ = std::make_unique<telemetry::TelemetrySession>(topts);
        if (spec_.crashDump && topts.flightDumpPrefix.empty())
            telemetry::FlightRecorder::installCrashHandler(spec_.name);

        std::error_code ec;
        std::string tmpl =
            (std::filesystem::temp_directory_path(ec) / spec_.name)
                .string() + ".XXXXXX";
        if (::mkdtemp(tmpl.data()) == nullptr) {
            std::perror("mkdtemp");
            return 1;
        }
        dir_ = tmpl;
        return -1;
    }

    bool isChild() const { return role_ != "driver"; }

    uint64_t seed() const { return seed_; }

    /** The child's --port. */
    uint16_t port() const { return static_cast<uint16_t>(port_); }

    /** The run directory: made by the driver, passed to the child. */
    const std::string &dir() const { return dir_; }

    /** The driver's telemetry session. */
    telemetry::TelemetrySession &session() { return *session_; }

    /** One verdict line; a false @p ok fails the run. */
    void
    check(bool ok, const char *what)
    {
        std::printf("  %-56s %s\n", what, ok ? "ok" : "FAIL");
        if (!ok)
            ++failures_;
    }

    /**
     * Fork and exec this binary as the child on @p port.  Call it from
     * the driver's main thread: the child's parent-death signal
     * follows the thread that forked.  @return the child's pid, or -1.
     */
    pid_t
    spawnSelf(uint16_t port) const
    {
        char exe[4096];
        ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
        if (n <= 0)
            return -1;
        exe[n] = '\0';
        std::vector<std::string> args = {
            exe,
            std::string("--role=") + spec_.childRole,
            "--port=" + std::to_string(port),
            "--dir=" + dir_,
            "--seed=" + std::to_string(seed_),
        };
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        pid_t parent = ::getpid();
        pid_t pid = ::fork();
        if (pid == 0) {
            // Die with the driver, also one that died before the
            // prctl: then the child has been reparented already.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent)
                _exit(127);
            ::execv(exe, argv.data());
            _exit(127);
        }
        return pid;
    }

    /**
     * Write `{"schema": schema, ...members}` to the --json path; a
     * failed open, write or close is one more failed check.  Does
     * nothing without --json.
     */
    void
    report(const char *schema,
           const std::function<void(telemetry::JsonWriter &)> &members)
    {
        if (json_.empty())
            return;
        std::ostringstream os;
        telemetry::JsonWriter w(os, true);
        w.beginObject();
        w.member("schema", schema);
        members(w);
        w.endObject();
        os << '\n';
        const std::string text = os.str();
        std::FILE *f = std::fopen(json_.c_str(), "w");
        bool ok = f != nullptr &&
                  std::fwrite(text.data(), 1, text.size(), f) ==
                      text.size();
        if (f != nullptr && std::fclose(f) != 0)
            ok = false;
        check(ok, ("report written to " + json_).c_str());
    }

    /** Stop the run early: @p what fails, then finish(). */
    int
    abandon(const char *what)
    {
        check(false, what);
        return finish();
    }

    /**
     * Flush the telemetry sinks, remove the run directory on a pass
     * (keep it on a failure), and print the closing verdict line.
     * @return the exit status.
     */
    int
    finish()
    {
        // Stops the introspection server and writes every requested
        // sink (metrics JSON, flight dump) before the verdict line.
        session_->finish();
        if (failures_ == 0) {
            std::error_code ec;
            std::filesystem::remove_all(dir_, ec);
        } else {
            std::printf("run directory kept: %s\n", dir_.c_str());
        }
        std::printf("%s: %s (%zu failure%s)\n", spec_.name,
                    failures_ == 0 ? "PASS" : "FAIL", failures_,
                    failures_ == 1 ? "" : "s");
        return failures_ == 0 ? 0 : 1;
    }

  private:
    Spec spec_;
    uint64_t seed_;
    std::string json_;
    std::string role_ = "driver";
    uint64_t port_ = 0;
    std::string dir_;
    std::unique_ptr<telemetry::TelemetrySession> session_;
    size_t failures_ = 0;
};

/** Poll @p cond every 2 ms up to @p limit_ms; @return ms waited, or -1. */
inline int64_t
waitFor(const std::function<bool()> &cond, int64_t limit_ms)
{
    uint64_t t0 = monotonicNowNs();
    while (!cond()) {
        if (int64_t((monotonicNowNs() - t0) / 1000000) > limit_ms)
            return -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return int64_t((monotonicNowNs() - t0) / 1000000);
}

/** Advance @p truth by @p u: Announce adds, Withdraw and Expire remove. */
inline void
advance(RoutingTable &truth, const Update &u)
{
    if (u.kind == UpdateKind::Announce)
        truth.add(u.prefix, u.nextHop);
    else
        truth.remove(u.prefix);
}

/** @p initial advanced through @p scan's Update records, in order. */
inline RoutingTable
journalTruth(RoutingTable initial, const persist::JournalScan &scan)
{
    for (const persist::JournalRecord &rec : scan.records)
        if (rec.type == persist::JournalRecord::Type::Update)
            advance(initial, rec.update);
    return initial;
}

/** What the route audit counts. */
struct RouteAudit
{
    size_t lost = 0;     ///< Truth routes not found with their next hop.
    size_t phantom = 0;  ///< Served routes beyond truth's count.
    size_t wrong = 0;    ///< Sampled keys where engine != trie oracle.
};

/** Audit @p engine against @p truth, sampling the oracle on @p keys. */
inline RouteAudit
auditRoutes(const concurrent::ConcurrentChisel &engine,
            const RoutingTable &truth, const std::vector<Key128> &keys)
{
    RouteAudit a;
    for (const Route &r : truth.routes()) {
        auto nh = engine.find(r.prefix);
        if (!nh || *nh != r.nextHop)
            ++a.lost;
    }
    size_t served = engine.routeCount();
    a.phantom = served > truth.size() ? served - truth.size() : 0;
    BinaryTrie oracle(truth);
    for (const Key128 &k : keys) {
        auto want = oracle.lookup(k, 32);
        LookupResult got = engine.lookup(k);
        if (want.has_value() != got.found ||
            (want && want->nextHop != got.nextHop))
            ++a.wrong;
    }
    return a;
}

} // namespace chisel::soak

#endif // CHISEL_BENCH_SOAK_HH
