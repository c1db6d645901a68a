/**
 * @file
 * Tests for the live introspection endpoint: socket-free handle()
 * routing (status codes, content types, attach/detach behavior), the
 * ?n= flight bound, and the full loopback integration — the server
 * answering /metrics, /healthz, /vars and /flight over real HTTP
 * while a live writer and two reader threads hammer the engine.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "concurrent/concurrent_engine.hh"
#include "obs/introspect.hh"
#include "route/synth.hh"
#include "route/updates.hh"
#include "telemetry/flight.hh"
#include "telemetry/metrics.hh"

namespace chisel {
namespace {

using concurrent::ConcurrentChisel;
using concurrent::ConcurrentOptions;
using obs::IntrospectResponse;
using obs::IntrospectionServer;
using telemetry::FlightKind;
using telemetry::FlightRecorder;
using telemetry::MetricRegistry;

// ---- handle(): socket-free routing -----------------------------------------

TEST(Introspect, NonGetIs405)
{
    IntrospectionServer server;
    EXPECT_EQ(server.handle("POST", "/metrics").status, 405);
    EXPECT_EQ(server.handle("PUT", "/").status, 405);
}

TEST(Introspect, UnknownPathIs404)
{
    IntrospectionServer server;
    IntrospectResponse res = server.handle("GET", "/nope");
    EXPECT_EQ(res.status, 404);
    EXPECT_NE(res.body.find("/nope"), std::string::npos);
}

TEST(Introspect, IndexListsEndpoints)
{
    IntrospectionServer server;
    IntrospectResponse res = server.handle("GET", "/");
    EXPECT_EQ(res.status, 200);
    for (const char *ep : {"/metrics", "/healthz", "/vars", "/flight"})
        EXPECT_NE(res.body.find(ep), std::string::npos) << ep;
}

TEST(Introspect, UnattachedSourcesAre404)
{
    IntrospectionServer server;
    EXPECT_EQ(server.handle("GET", "/metrics").status, 404);
    EXPECT_EQ(server.handle("GET", "/vars").status, 404);
    EXPECT_EQ(server.handle("GET", "/flight").status, 404);
    // /healthz answers even unattached: "state": "unknown", 200 —
    // a probe must distinguish "no engine wired" from "engine down".
    IntrospectResponse hz = server.handle("GET", "/healthz");
    EXPECT_EQ(hz.status, 200);
    EXPECT_NE(hz.body.find("unknown"), std::string::npos);
    EXPECT_NE(hz.body.find("\"attached\": false"), std::string::npos);
}

TEST(Introspect, MetricsServesPrometheusText)
{
    MetricRegistry registry;
    registry.counter("obs.test.hits").inc(3);
    IntrospectionServer server;
    server.attachRegistry(&registry);

    IntrospectResponse res = server.handle("GET", "/metrics");
    EXPECT_EQ(res.status, 200);
    EXPECT_NE(res.contentType.find("version=0.0.4"),
              std::string::npos);
    EXPECT_NE(res.body.find("obs_test_hits 3"), std::string::npos);

    // Detach: back to 404.
    server.attachRegistry(nullptr);
    EXPECT_EQ(server.handle("GET", "/metrics").status, 404);
}

TEST(Introspect, VarsServesRegistryJson)
{
    MetricRegistry registry;
    registry.gauge("obs.test.load").set(0.5);
    IntrospectionServer server;
    server.attachRegistry(&registry);

    IntrospectResponse res = server.handle("GET", "/vars");
    EXPECT_EQ(res.status, 200);
    EXPECT_EQ(res.contentType, "application/json");
    EXPECT_NE(res.body.find("obs.test.load"), std::string::npos);
}

TEST(Introspect, FlightServesEventsAndHonorsCount)
{
    FlightRecorder rec(64);
    for (uint64_t i = 0; i < 20; ++i)
        rec.record(FlightKind::Custom, 1, i, 0);
    IntrospectionServer server;
    server.attachFlight(&rec);

    IntrospectResponse all = server.handle("GET", "/flight");
    EXPECT_EQ(all.status, 200);
    EXPECT_NE(all.body.find("chisel.flight.v1"), std::string::npos);
    // All 20 events fit the default bound.
    EXPECT_NE(all.body.find("\"seq\": 20"), std::string::npos);
    EXPECT_NE(all.body.find("\"seq\": 1,"), std::string::npos);

    // ?n=5 keeps only the newest five.
    IntrospectResponse five = server.handle("GET", "/flight?n=5");
    EXPECT_EQ(five.status, 200);
    EXPECT_NE(five.body.find("\"seq\": 16"), std::string::npos);
    EXPECT_EQ(five.body.find("\"seq\": 15"), std::string::npos);

    // Garbled counts fall back to the default.
    EXPECT_EQ(server.handle("GET", "/flight?n=abc").status, 200);
}

// ---- Socket lifecycle ------------------------------------------------------

TEST(Introspect, StartStopAndPortResolution)
{
    IntrospectionServer server;
    ASSERT_TRUE(server.start(0));
    EXPECT_TRUE(server.running());
    EXPECT_GT(server.port(), 0);

    // The port is genuinely taken: a second server cannot bind it.
    IntrospectionServer rival;
    EXPECT_FALSE(rival.start(server.port()));

    server.stop();
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.port(), 0);
    server.stop();  // Idempotent.
}

// ---- Loopback integration --------------------------------------------------

struct HttpReply
{
    int status = 0;
    std::string body;
};

/** One blocking HTTP/1.0 GET against 127.0.0.1:@p port. */
HttpReply
httpGet(uint16_t port, const std::string &target)
{
    HttpReply reply;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return reply;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return reply;
    }
    std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
    ::send(fd, request.data(), request.size(), 0);

    std::string raw;
    char buf[2048];
    ssize_t r;
    while ((r = ::read(fd, buf, sizeof(buf))) > 0)
        raw.append(buf, static_cast<size_t>(r));
    ::close(fd);

    if (raw.compare(0, 9, "HTTP/1.0 ") == 0 && raw.size() > 12)
        reply.status = std::stoi(raw.substr(9, 3));
    if (size_t hdr = raw.find("\r\n\r\n"); hdr != std::string::npos)
        reply.body = raw.substr(hdr + 4);
    return reply;
}

TEST(Introspect, ServesLiveEngineOverLoopback)
{
    RoutingTable table = generateScaledTable(2000, 32, 0x900);
    std::vector<Key128> keys =
        generateLookupKeys(table, 2048, 32, 0.7, 0x901);
    UpdateTraceGenerator gen(table, TraceProfile{}, 32, 0x902);
    std::vector<Update> updates = gen.generate(4000);

    ConcurrentOptions copts;
    copts.controlThread = false;
    ConcurrentChisel engine(table, {}, copts);

    MetricRegistry registry;
    registry.counter("obs.integration.marker").inc(7);
    FlightRecorder flightRec(256);
    FlightRecorder::install(&flightRec);

    IntrospectionServer server;
    server.attachRegistry(&registry);
    server.attachFlight(&flightRec);
    server.attachEngine(&engine);
    ASSERT_TRUE(server.start(0));
    uint16_t port = server.port();
    ASSERT_GT(port, 0);

    // Live load while scraping: one writer applying real updates,
    // two wait-free readers looking up.
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> applied{0};
    std::thread writer([&] {
        size_t i = 0;
        while (!stop.load(std::memory_order_acquire)) {
            engine.apply(updates[i++ % updates.size()]);
            applied.fetch_add(1, std::memory_order_release);
        }
    });
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
        readers.emplace_back([&, t] {
            size_t i = static_cast<size_t>(t);
            while (!stop.load(std::memory_order_acquire))
                engine.lookup(keys[i++ % keys.size()]);
        });
    }

    // Several scrape rounds against the moving engine.
    for (int round = 0; round < 3; ++round) {
        HttpReply metrics = httpGet(port, "/metrics");
        EXPECT_EQ(metrics.status, 200);
        EXPECT_NE(metrics.body.find("obs_integration_marker 7"),
                  std::string::npos);

        HttpReply healthz = httpGet(port, "/healthz");
        EXPECT_EQ(healthz.status, 200);
        EXPECT_NE(healthz.body.find("\"attached\": true"),
                  std::string::npos);
        EXPECT_NE(healthz.body.find("\"updates_applied\""),
                  std::string::npos);

        HttpReply vars = httpGet(port, "/vars");
        EXPECT_EQ(vars.status, 200);
        EXPECT_NE(vars.body.find("obs.integration.marker"),
                  std::string::npos);

        HttpReply flight = httpGet(port, "/flight?n=32");
        EXPECT_EQ(flight.status, 200);
        EXPECT_NE(flight.body.find("chisel.flight.v1"),
                  std::string::npos);
    }

    // The writer's applies flowed into the flight ring while we
    // scraped (update_apply events from the engine hook).  On a loaded
    // host the writer may not have been scheduled yet: give it a
    // bounded time for its first apply before looking.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (applied.load(std::memory_order_acquire) == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    HttpReply flight = httpGet(port, "/flight");
#if CHISEL_FLIGHT_ENABLED
    EXPECT_NE(flight.body.find("update_apply"), std::string::npos);
#endif
    EXPECT_EQ(flight.status, 200);

    stop.store(true, std::memory_order_release);
    writer.join();
    for (auto &t : readers)
        t.join();

    HttpReply bad = httpGet(port, "/nope");
    EXPECT_EQ(bad.status, 404);

    server.stop();
    FlightRecorder::install(nullptr);
    EXPECT_GT(engine.updatesApplied(), 0u);
}

} // anonymous namespace
} // namespace chisel
