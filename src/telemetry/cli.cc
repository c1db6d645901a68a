#include "telemetry/cli.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "core/engine.hh"
#include "obs/introspect.hh"

namespace chisel::telemetry {

namespace {

/** Full-string unsigned parse; @return false on any junk. */
bool
parseU64(const std::string &value, uint64_t &out)
{
    if (value.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || errno == ERANGE ||
        value[0] == '-')
        return false;
    out = parsed;
    return true;
}

} // anonymous namespace

// ---- FlagTable -------------------------------------------------------

FlagTable::FlagTable(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary))
{}

FlagTable &
FlagTable::flag(const std::string &name, const std::string &value_name,
                const std::string &help, ValueHandler handler)
{
    entries_.push_back({name, value_name, help, std::move(handler)});
    return *this;
}

FlagTable &
FlagTable::toggle(const std::string &name, const std::string &help,
                  std::function<void()> handler)
{
    entries_.push_back({name, "", help,
                        [handler = std::move(handler)](
                            const std::string &) {
                            handler();
                            return true;
                        }});
    return *this;
}

FlagTable &
FlagTable::u64Flag(const std::string &name, const std::string &help,
                   uint64_t *target)
{
    return flag(name, "n", help, [target](const std::string &v) {
        return parseU64(v, *target);
    });
}

FlagTable &
FlagTable::sizeFlag(const std::string &name, const std::string &help,
                    size_t *target)
{
    return flag(name, "n", help, [target](const std::string &v) {
        uint64_t parsed = 0;
        if (!parseU64(v, parsed))
            return false;
        *target = static_cast<size_t>(parsed);
        return true;
    });
}

FlagTable &
FlagTable::stringFlag(const std::string &name, const std::string &help,
                      std::string *target)
{
    return flag(name, "path", help, [target](const std::string &v) {
        *target = v;
        return true;
    });
}

FlagTable &
FlagTable::boolFlag(const std::string &name, const std::string &help,
                    bool *target)
{
    return toggle(name, help, [target] { *target = true; });
}

const FlagTable::Entry *
FlagTable::find(const std::string &name) const
{
    for (const Entry &e : entries_)
        if (e.name == name)
            return &e;
    return nullptr;
}

void
FlagTable::printHelp(std::FILE *out) const
{
    std::fprintf(out, "usage: %s [options]\n", program_.c_str());
    if (!summary_.empty())
        std::fprintf(out, "%s\n", summary_.c_str());
    std::fprintf(out, "\noptions:\n");
    for (const Entry &e : entries_) {
        std::string lhs = "--" + e.name;
        if (!e.valueName.empty())
            lhs += "=<" + e.valueName + ">";
        std::fprintf(out, "  %-28s %s\n", lhs.c_str(),
                     e.help.c_str());
    }
    std::fprintf(out,
                 "  %-28s %s\n", "--help",
                 "print this help and exit");
    std::fprintf(
        out,
        "\ncommon telemetry options (parsed before tool options):\n"
        "  %-28s %s\n  %-28s %s\n  %-28s %s\n  %-28s %s\n  %-28s %s\n",
        "--metrics-json=<path>", "write a metrics JSON snapshot",
        "--trace=<path>", "write a Chrome trace_event file",
        "--flight-events=<n>", "flight-recorder ring size per thread",
        "--flight-dump=<prefix>", "arm crash/exit flight dumps",
        "--introspect-port=<p>",
        "serve /metrics /healthz /vars /flight on 127.0.0.1:<p>");
}

bool
FlagTable::parse(int &argc, char **argv, bool strict)
{
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--", 2) != 0) {
            argv[out++] = argv[i];  // Positional: never consumed.
            continue;
        }
        std::string body = arg + 2;
        if (strict && (body == "help" || body == "h")) {
            printHelp(stdout);
            helpRequested_ = true;
            return false;
        }
        std::string name = body;
        std::string value;
        bool has_value = false;
        size_t eq = body.find('=');
        if (eq != std::string::npos) {
            name = body.substr(0, eq);
            value = body.substr(eq + 1);
            has_value = true;
        }
        const Entry *entry = find(name);
        if (entry == nullptr) {
            if (strict) {
                std::fprintf(stderr, "%s: unknown option '%s'\n\n",
                             program_.c_str(), arg);
                printHelp(stderr);
                return false;
            }
            argv[out++] = argv[i];
            continue;
        }
        bool wants_value = !entry->valueName.empty();
        if (wants_value != has_value) {
            std::string why = wants_value
                                  ? "requires a value"
                                  : "does not take a value";
            if (strict) {
                std::fprintf(stderr, "%s: option '--%s' %s\n\n",
                             program_.c_str(), name.c_str(),
                             why.c_str());
                printHelp(stderr);
                return false;
            }
            // Lenient: a shape mismatch is some other owner's flag.
            argv[out++] = argv[i];
            continue;
        }
        if (!entry->handler(value)) {
            if (strict) {
                std::fprintf(stderr,
                             "%s: invalid value '%s' for '--%s'\n\n",
                             program_.c_str(), value.c_str(),
                             name.c_str());
                printHelp(stderr);
                return false;
            }
            warn("ignoring invalid value '" + value + "' for '--" +
                 name + "'");
        }
    }
    argc = out;
    return true;
}

bool
FlagTable::parseStrict(int &argc, char **argv)
{
    return parse(argc, argv, true);
}

void
FlagTable::stripKnown(int &argc, char **argv)
{
    parse(argc, argv, false);
}

// ---- TelemetryOptions ------------------------------------------------

TelemetryOptions
TelemetryOptions::parse(int &argc, char **argv)
{
    TelemetryOptions opts;
    FlagTable table("telemetry", "");
    table.stringFlag("metrics-json", "", &opts.metricsJsonPath)
        .stringFlag("trace", "", &opts.tracePath)
        .sizeFlag("flight-events", "", &opts.flightEvents)
        .stringFlag("flight-dump", "", &opts.flightDumpPrefix)
        .flag("introspect-port", "p", "",
              [&opts](const std::string &v) {
                  uint64_t port = 0;
                  if (!parseU64(v, port) || port > 65535)
                      return false;
                  opts.introspectPort = static_cast<int>(port);
                  return true;
              });
    table.stripKnown(argc, argv);
    return opts;
}

TelemetrySession::TelemetrySession(const TelemetryOptions &options)
    : options_(options)
{
    if (!options_.enabled())
        return;
    engineTelemetry_ = std::make_unique<EngineTelemetry>(registry_);
    if (!options_.tracePath.empty()) {
        sink_ = std::make_unique<TraceSink>();
        engineTelemetry_->setTraceSink(sink_.get());
    }
    if (options_.flightEnabled()) {
        flight_ = std::make_unique<FlightRecorder>(
            options_.flightEvents > 0 ? options_.flightEvents : 4096);
        FlightRecorder::install(flight_.get());
        if (!options_.flightDumpPrefix.empty())
            FlightRecorder::installCrashHandler(
                options_.flightDumpPrefix);
    }
    if (options_.introspectPort >= 0) {
        server_ = std::make_unique<obs::IntrospectionServer>();
        server_->attachRegistry(&registry_);
        server_->attachFlight(flight_.get());
        server_->start(static_cast<uint16_t>(options_.introspectPort));
    }
}

TelemetrySession::~TelemetrySession()
{
    if (server_)
        server_->stop();
    if (flight_ && FlightRecorder::active() == flight_.get())
        FlightRecorder::install(nullptr);
}

void
TelemetrySession::attach(ChiselEngine &engine)
{
    if (!enabled())
        return;
    engine_ = &engine;
    engine.attachTelemetry(engineTelemetry_.get());
}

void
TelemetrySession::detach()
{
    if (!enabled() || engine_ == nullptr)
        return;
    engineTelemetry_->snapshot(*engine_);
    engine_->attachTelemetry(nullptr);
    engine_ = nullptr;
}

void
TelemetrySession::finish()
{
    if (!enabled())
        return;
    if (engine_)
        engineTelemetry_->snapshot(*engine_);
    if (!options_.metricsJsonPath.empty() &&
        registry_.writeJsonFile(options_.metricsJsonPath)) {
        inform("metrics snapshot written to " +
               options_.metricsJsonPath);
    }
    if (sink_ &&
        sink_->writeChromeTraceFile(options_.tracePath)) {
        inform("access trace (" +
               std::to_string(sink_->events().size()) +
               " events) written to " + options_.tracePath);
    }
    if (server_)
        server_->stop();
    if (flight_) {
        if (!options_.flightDumpPrefix.empty() &&
            flight_->writeJsonFile(options_.flightDumpPrefix +
                                   ".flight.json") &&
            flight_->writeChromeTraceFile(options_.flightDumpPrefix +
                                          ".flight.trace.json")) {
            inform("flight dump (" +
                   std::to_string(flight_->recorded()) +
                   " events recorded) written to " +
                   options_.flightDumpPrefix + ".flight[.trace].json");
        }
        // Uninstall so the atexit safety net doesn't dump again: a
        // finished session has already flushed everything it owes.
        if (FlightRecorder::active() == flight_.get())
            FlightRecorder::install(nullptr);
    }
}

} // namespace chisel::telemetry
