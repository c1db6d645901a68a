/**
 * @file
 * Command-line wiring shared by the examples and bench harnesses:
 * parse (and strip) the telemetry flags every tool supports —
 *
 *     --metrics-json=<path>    write a MetricRegistry JSON snapshot
 *     --trace=<path>           write a Chrome trace_event JSON file
 *     --flight-events=<n>      keep the last n flight events per
 *                              thread (installs a FlightRecorder)
 *     --flight-dump=<prefix>   arm the crash/exit dump machinery and
 *                              write <prefix>.flight[.trace].json on
 *                              finish (implies a default recorder)
 *     --introspect-port=<p>    serve /metrics /healthz /vars /flight
 *                              on 127.0.0.1:<p> (0 = ephemeral port)
 *
 * — so harnesses keep their own positional arguments untouched.
 * TelemetrySession bundles the registry / engine-telemetry / sink /
 * flight-recorder / introspection-server set behind those options
 * and writes the output files on finish().
 */

#ifndef CHISEL_TELEMETRY_CLI_HH
#define CHISEL_TELEMETRY_CLI_HH

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/engine_telemetry.hh"
#include "telemetry/flight.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace chisel {

class ChiselEngine;

namespace obs { class IntrospectionServer; }

namespace telemetry {

/**
 * A declarative table of `--name=<value>` / `--name` options, shared
 * by every bench/example binary so flag handling is uniform:
 *
 *  - strict mode (parseStrict): an unknown `--` option or a malformed
 *    value prints an error plus the generated help and fails, so a
 *    typo'd flag exits nonzero instead of silently running with
 *    defaults; `--help`/`-h` prints the help and succeeds;
 *  - lenient mode (stripKnown): registered flags are consumed and
 *    everything else stays in argv — the TelemetryOptions::parse
 *    behavior, for flag families layered by different owners.
 *
 * Positional (non `--`) arguments are never consumed by either mode.
 */
class FlagTable
{
  public:
    /** Handler for a valued flag; @return false on a bad value. */
    using ValueHandler = std::function<bool(const std::string &)>;

    /**
     * @param program argv[0]-style name for the usage line.
     * @param summary One-line description printed atop the help.
     */
    FlagTable(std::string program, std::string summary);

    /** Register `--name=<value_name>`; chainable. */
    FlagTable &flag(const std::string &name,
                    const std::string &value_name,
                    const std::string &help, ValueHandler handler);

    /** Register the valueless toggle `--name`; chainable. */
    FlagTable &toggle(const std::string &name, const std::string &help,
                      std::function<void()> handler);

    // Typed conveniences over flag()/toggle().
    FlagTable &u64Flag(const std::string &name, const std::string &help,
                       uint64_t *target);
    FlagTable &sizeFlag(const std::string &name,
                        const std::string &help, size_t *target);
    FlagTable &stringFlag(const std::string &name,
                          const std::string &help, std::string *target);
    FlagTable &boolFlag(const std::string &name, const std::string &help,
                        bool *target);

    /**
     * Strict parse: consume every registered flag from @p argv
     * (compacting it and updating @p argc).  @return false when the
     * caller should exit — on an unknown `--` option or bad value
     * (error + help on stderr; exit nonzero) and on `--help` (help
     * on stdout; helpRequested() distinguishes, exit zero).
     */
    bool parseStrict(int &argc, char **argv);

    /** True when parseStrict returned false because of `--help`. */
    bool helpRequested() const { return helpRequested_; }

    /**
     * Lenient parse: consume registered flags, warn on (and keep
     * previous values over) malformed ones, and leave every
     * unrecognized argument in argv for the next owner.
     */
    void stripKnown(int &argc, char **argv);

    /** Write the generated help text. */
    void printHelp(std::FILE *out) const;

  private:
    struct Entry
    {
        std::string name;       ///< Without the leading "--".
        std::string valueName;  ///< Empty for toggles.
        std::string help;
        ValueHandler handler;   ///< Toggles wrap theirs.
    };

    /** @return the entry for --name, or nullptr. */
    const Entry *find(const std::string &name) const;

    bool parse(int &argc, char **argv, bool strict);

    std::string program_;
    std::string summary_;
    std::vector<Entry> entries_;
    bool helpRequested_ = false;
};

/** Parsed telemetry flags. */
struct TelemetryOptions
{
    std::string metricsJsonPath;   ///< Empty = no metrics export.
    std::string tracePath;         ///< Empty = no event trace.

    /** Flight-ring capacity per thread; 0 = no recorder. */
    size_t flightEvents = 0;

    /** Crash/exit dump path prefix; empty = no dump files. */
    std::string flightDumpPrefix;

    /** Introspection port (0 = ephemeral); -1 = no server. */
    int introspectPort = -1;

    /** A flight recorder should be installed. */
    bool
    flightEnabled() const
    {
        return flightEvents > 0 || !flightDumpPrefix.empty();
    }

    bool
    enabled() const
    {
        return !metricsJsonPath.empty() || !tracePath.empty() ||
               flightEnabled() || introspectPort >= 0;
    }

    /**
     * Extract the telemetry flags from @p argv, compacting the
     * remaining arguments in place and updating @p argc.  A repeated
     * flag keeps its last value; a flag without '=' is not a
     * telemetry flag and stays in argv.
     */
    static TelemetryOptions parse(int &argc, char **argv);
};

/**
 * One observed run: attaches telemetry to an engine per the options
 * and writes the requested files on finish().
 */
class TelemetrySession
{
  public:
    explicit TelemetrySession(const TelemetryOptions &options);

    /** Stops the introspection server, uninstalls the recorder. */
    ~TelemetrySession();

    /** No-op when the session is disabled. */
    void attach(ChiselEngine &engine);

    bool enabled() const { return engineTelemetry_ != nullptr; }

    /** Valid only when enabled(). */
    MetricRegistry &registry() { return registry_; }
    EngineTelemetry *engineTelemetry()
    {
        return engineTelemetry_.get();
    }

    /** The installed flight recorder, or nullptr. */
    FlightRecorder *flight() { return flight_.get(); }

    /**
     * The running introspection server (--introspect-port), or
     * nullptr: attach what /healthz reports on it.  An attached
     * source must outlive the session or the server's stop().
     */
    obs::IntrospectionServer *introspection() { return server_.get(); }

    /**
     * Snapshot gauges from the attached engine now and stop observing
     * it.  Use when the engine's lifetime ends before finish() — the
     * accumulated metrics stay in the registry.
     */
    void detach();

    /**
     * Snapshot gauges from the attached engine and write whichever
     * of the metrics / trace files were requested.  Safe to call
     * when disabled (does nothing).
     */
    void finish();

  private:
    TelemetryOptions options_;
    MetricRegistry registry_;
    std::unique_ptr<EngineTelemetry> engineTelemetry_;
    std::unique_ptr<TraceSink> sink_;
    std::unique_ptr<FlightRecorder> flight_;
    /** Last member: destroyed first, before the sources it serves. */
    std::unique_ptr<obs::IntrospectionServer> server_;
    ChiselEngine *engine_ = nullptr;
};

} // namespace telemetry
} // namespace chisel

#endif // CHISEL_TELEMETRY_CLI_HH
