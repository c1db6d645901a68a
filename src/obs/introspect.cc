#include "obs/introspect.hh"

#include <cerrno>
#include <cstring>
#include <sstream>

#include <unistd.h>

#include "common/logging.hh"
#include "net/socket.hh"
#include "concurrent/concurrent_engine.hh"
#include "health/monitor.hh"
#include "replica/follower.hh"
#include "shard/sharded.hh"
#include "telemetry/flight.hh"
#include "telemetry/json.hh"
#include "telemetry/metrics.hh"
#include "telemetry/prometheus.hh"

namespace chisel::obs {

namespace {

constexpr size_t kDefaultFlightEvents = 256;
constexpr size_t kMaxRequestBytes = 4096;

const char *
statusReason(int status)
{
    switch (status) {
      case 200: return "OK";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 503: return "Service Unavailable";
      default: return "Error";
    }
}

/** ?n=<count> from a query string; @p fallback when absent/garbled. */
size_t
parseCountParam(const std::string &query, size_t fallback)
{
    size_t pos = 0;
    while (pos < query.size()) {
        size_t amp = query.find('&', pos);
        std::string param = query.substr(
            pos, amp == std::string::npos ? std::string::npos
                                          : amp - pos);
        if (param.size() > 2 && param.compare(0, 2, "n=") == 0) {
            size_t value = 0;
            bool digits = false;
            for (size_t i = 2; i < param.size(); ++i) {
                if (param[i] < '0' || param[i] > '9')
                    return fallback;
                value = value * 10 + static_cast<size_t>(param[i] - '0');
                digits = true;
                if (value > (size_t(1) << 30))
                    break;
            }
            if (digits)
                return value;
        }
        if (amp == std::string::npos)
            break;
        pos = amp + 1;
    }
    return fallback;
}

} // anonymous namespace

IntrospectionServer::~IntrospectionServer()
{
    stop();
}

bool
IntrospectionServer::start(uint16_t port)
{
    if (running()) {
        warn("introspection server already running on port " +
             std::to_string(port_));
        return false;
    }
    int fd = net::listenLoopback(port, 16, &port_);
    if (fd < 0) {
        warn("introspection: cannot listen on 127.0.0.1:" +
             std::to_string(port) + ": " +
             std::string(std::strerror(errno)));
        return false;
    }

    stopRequested_.store(false, std::memory_order_release);
    listenFd_ = fd;
    thread_ = std::thread([this] { serveLoop(); });
    inform("introspection server listening on 127.0.0.1:" +
           std::to_string(port_));
    return true;
}

void
IntrospectionServer::stop()
{
    if (!running())
        return;
    stopRequested_.store(true, std::memory_order_release);
    if (thread_.joinable())
        thread_.join();
    ::close(listenFd_);
    listenFd_ = -1;
    port_ = 0;
}

void
IntrospectionServer::serveLoop()
{
    while (!stopRequested_.load(std::memory_order_acquire)) {
        int conn = net::acceptOn(listenFd_, 100, /*nodelay=*/false);
        if (conn < 0)
            continue;
        serveConnection(conn);
        net::closeFd(conn);
    }
}

void
IntrospectionServer::serveConnection(int fd)
{
    // One bounded read burst is enough for any GET we serve; a
    // straggling request header past the first packet just means the
    // target was already parseable or the request is oversized.
    std::string request;
    char buf[1024];
    while (request.size() < kMaxRequestBytes &&
           request.find("\r\n") == std::string::npos) {
        int r = net::recvSome(fd, buf, sizeof(buf), 500);
        if (r <= 0)
            break;
        request.append(buf, static_cast<size_t>(r));
    }
    size_t eol = request.find("\r\n");
    if (eol == std::string::npos)
        eol = request.size();
    std::istringstream line(request.substr(0, eol));
    std::string method, target;
    line >> method >> target;

    IntrospectResponse res = handle(method, target);
    std::ostringstream out;
    out << "HTTP/1.0 " << res.status << " "
        << statusReason(res.status) << "\r\n"
        << "Content-Type: " << res.contentType << "\r\n"
        << "Content-Length: " << res.body.size() << "\r\n"
        << "Connection: close\r\n\r\n"
        << res.body;
    std::string reply = out.str();
    net::sendAll(fd, reply.data(), reply.size());
}

IntrospectResponse
IntrospectionServer::handle(const std::string &method,
                            const std::string &target) const
{
    if (method != "GET")
        return {405, "text/plain; charset=utf-8",
                "only GET is supported\n"};
    std::string path = target;
    std::string query;
    if (size_t q = target.find('?'); q != std::string::npos) {
        path = target.substr(0, q);
        query = target.substr(q + 1);
    }
    if (path == "/" || path.empty())
        return index();
    if (path == "/metrics")
        return metrics();
    if (path == "/healthz")
        return healthz();
    if (path == "/vars")
        return vars();
    if (path == "/flight")
        return flight(query);
    return {404, "text/plain; charset=utf-8",
            "unknown endpoint " + path + "\n"};
}

IntrospectResponse
IntrospectionServer::index() const
{
    return {200, "text/plain; charset=utf-8",
            "chisel introspection\n"
            "  /metrics  Prometheus text exposition\n"
            "  /healthz  health state + engine gauges (JSON)\n"
            "  /vars     metrics JSON snapshot\n"
            "  /flight   recent flight events (JSON, ?n=<count>)\n"};
}

IntrospectResponse
IntrospectionServer::metrics() const
{
    const telemetry::MetricRegistry *registry =
        registry_.load(std::memory_order_acquire);
    if (registry == nullptr)
        return {404, "text/plain; charset=utf-8",
                "no metric registry attached\n"};
    std::ostringstream os;
    telemetry::writePrometheus(*registry, os);
    return {200, "text/plain; version=0.0.4; charset=utf-8",
            os.str()};
}

IntrospectResponse
IntrospectionServer::healthz() const
{
    const concurrent::ConcurrentChisel *engine =
        engine_.load(std::memory_order_acquire);
    const shard::ShardedChisel *sharded =
        sharded_.load(std::memory_order_acquire);
    std::ostringstream os;
    telemetry::JsonWriter w(os, true);
    w.beginObject();
    int status = 200;
    if (sharded != nullptr) {
        // Containment rule: a single sick shard sheds only its own
        // keyspace slice (at the RPC layer), so the node-level probe
        // goes red only when a majority of shards are sick and the
        // node as a whole can no longer do useful work.
        bool majority = sharded->majoritySick();
        status = majority ? 503 : 200;
        w.member("state",
                 health::healthStateName(sharded->aggregateHealth()));
        w.member("attached", true);
        w.member("serving", !majority);
        w.member("shard_count", uint64_t(sharded->shards()));
        w.member("sick_shards", uint64_t(sharded->sickShards()));
        w.member("routes", uint64_t(sharded->routeCount()));
        w.key("shards");
        w.beginArray();
        for (size_t i = 0; i < sharded->shards(); ++i) {
            shard::ShardStatus st = sharded->status(i);
            w.beginObject();
            w.member("shard", uint64_t(i));
            w.member("state", health::healthStateName(st.state));
            w.member("induced", st.induced);
            w.member("serving", st.serving);
            w.member("routes", uint64_t(st.routes));
            w.member("generation", st.generation);
            w.member("updates_applied", st.updatesApplied);
            w.member("quarantine_entries", st.quarantineEntries);
            w.member("last_seq", st.lastSeq);
            w.endObject();
        }
        w.endArray();
    } else if (engine == nullptr) {
        w.member("state", "unknown");
        w.member("attached", false);
    } else {
        health::HealthState state = engine->healthState();
        bool serving = state != health::HealthState::Degraded &&
                       state != health::HealthState::Quarantined;
        status = serving ? 200 : 503;
        w.member("state", health::healthStateName(state));
        w.member("attached", true);
        w.member("serving", serving);
        w.member("generation", engine->generation());
        w.member("updates_applied", engine->updatesApplied());
        w.member("scrub_passes", engine->scrubPasses());
        w.member("routes", uint64_t(engine->routeCount()));
        w.member("dirty_groups", uint64_t(engine->dirtyCount()));
        w.member("dirty_peak", uint64_t(engine->dirtyPeak()));
    }
    if (const replica::Follower *follower =
            follower_.load(std::memory_order_acquire)) {
        replica::FollowerStats rs = follower->stats();
        // A standby that has not caught up must not take traffic; a
        // promoted follower is the leader now and serves on its own
        // engine health.
        if (!rs.caughtUp)
            status = 503;
        w.key("replica");
        w.beginObject();
        w.member("caught_up", rs.caughtUp);
        w.member("connected", rs.connected);
        w.member("promoted", rs.promoted);
        w.member("last_applied_seq", rs.lastAppliedSeq);
        w.member("leader_last_seq", rs.leaderLastSeq);
        w.member("lag_records", rs.lagRecords);
        w.member("records_applied", rs.recordsApplied);
        w.member("snapshots_installed", rs.snapshotsInstalled);
        w.member("fence_rejects", rs.fenceRejects);
        w.member("max_epoch_seen", rs.maxEpochSeen);
        w.member("promoted_epoch", rs.promotedEpoch);
        w.endObject();
    }
    w.endObject();
    return {status, "application/json", os.str()};
}

IntrospectResponse
IntrospectionServer::vars() const
{
    const telemetry::MetricRegistry *registry =
        registry_.load(std::memory_order_acquire);
    if (registry == nullptr)
        return {404, "application/json",
                "{\"error\": \"no metric registry attached\"}\n"};
    return {200, "application/json", registry->toJson()};
}

IntrospectResponse
IntrospectionServer::flight(const std::string &query) const
{
    const telemetry::FlightRecorder *flight =
        flight_.load(std::memory_order_acquire);
    if (flight == nullptr)
        return {404, "application/json",
                "{\"error\": \"no flight recorder attached\"}\n"};
    size_t n = parseCountParam(query, kDefaultFlightEvents);
    std::ostringstream os;
    flight->writeJson(os, n);
    return {200, "application/json", os.str()};
}

} // namespace chisel::obs
