/**
 * @file
 * The engine set-up path: ChiselEngine::clone(), the member-wise deep
 * copy every ConcurrentChisel image pair is made with, and the engine
 * built straight from a route vector.
 *
 * A clone must save the same bytes as its source, pass selfCheck()
 * and answer like the trie oracle, whether the source was built (with
 * routes in the spill TCAM and the slow path, dirty groups, armed
 * TTLs and a default route), decoded from a golden snapshot, or
 * driven through a seeded update trace.  It must also share nothing
 * with its source: updates and bit flips in one stay in that one.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/engine.hh"
#include "fault/fault.hh"
#include "persist/codec.hh"
#include "persist/snapshot.hh"
#include "route/synth.hh"
#include "route/updates.hh"
#include "trie/binary_trie.hh"

namespace chisel {
namespace {

std::vector<uint8_t>
stateBytes(const ChiselEngine &engine)
{
    persist::Encoder enc;
    engine.saveState(enc);
    return enc.buffer();
}

/** Keys on each prefix's first address and just past its last. */
std::vector<Key128>
probeKeys(const RoutingTable &routes, unsigned width, uint64_t seed)
{
    std::vector<Key128> keys =
        generateLookupKeys(routes, 2000, width, 0.7, seed);
    for (const Route &r : routes.routes()) {
        Key128 first = r.prefix.bits();
        keys.push_back(first);
        Key128 past = first;
        if (r.prefix.length() > 0 && r.prefix.length() <= width) {
            // Flip the prefix's last bit: a key in the sibling prefix.
            unsigned bit = r.prefix.length() - 1;
            past.deposit(bit, 1, first.extract(bit, 1) ^ 1);
        }
        keys.push_back(past);
    }
    return keys;
}

/** @p twin answers every probe like a trie over @p routes. */
void
expectMatchesOracle(const ChiselEngine &twin, const RoutingTable &routes,
                    unsigned width)
{
    BinaryTrie oracle(routes);
    for (const Key128 &key : probeKeys(routes, width, 0xC10E)) {
        LookupResult got = twin.lookup(key);
        std::optional<Route> want = oracle.lookup(key, width);
        ASSERT_EQ(got.found, want.has_value()) << key.toBitString(width);
        if (!want)
            continue;
        ASSERT_EQ(got.nextHop, want->nextHop) << key.toBitString(width);
        ASSERT_EQ(got.matchedLength, want->prefix.length())
            << key.toBitString(width);
    }
}

/** The clone of @p source is faithful: same bytes, sound, correct. */
void
expectFaithfulClone(const ChiselEngine &source)
{
    std::unique_ptr<ChiselEngine> twin = source.clone();
    EXPECT_EQ(stateBytes(*twin), stateBytes(source));
    EXPECT_TRUE(twin->selfCheck());
    EXPECT_EQ(twin->routeCount(), source.routeCount());
    EXPECT_EQ(twin->bloomierSetups(), source.bloomierSetups());
    expectMatchesOracle(*twin, source.exportTable(),
                        source.config().keyWidth);
}

/**
 * Clone @p source, then show the two share nothing: 200 updates on
 * the clone leave the source's bytes alone, and the same 200 on the
 * source make the two equal again.
 */
void
expectIndependentClone(ChiselEngine &source, uint64_t seed)
{
    std::unique_ptr<ChiselEngine> twin = source.clone();
    const std::vector<uint8_t> before = stateBytes(source);
    const unsigned width = source.config().keyWidth;
    std::vector<Update> trace =
        UpdateTraceGenerator(source.exportTable(), TraceProfile{}, width,
                             seed)
            .generate(200);

    for (const Update &u : trace)
        twin->apply(u);
    EXPECT_EQ(stateBytes(source), before);
    EXPECT_NE(stateBytes(*twin), before);
    EXPECT_TRUE(twin->selfCheck());

    for (const Update &u : trace)
        source.apply(u);
    EXPECT_EQ(stateBytes(source), stateBytes(*twin));
}

/**
 * A small IPv4 engine with every kind of state a codec clone would
 * have to carry: routes in the two-entry spill TCAM and the slow
 * path, dirty groups, armed TTLs and a default route.
 */
std::unique_ptr<ChiselEngine>
crowdedEngine()
{
    ChiselConfig config;
    config.minCellCapacity = 8;
    config.capacityHeadroom = 1.0;
    config.spillCapacity = 2;
    RoutingTable table = generateScaledTable(120, 32, 0xC1);
    auto engine = std::make_unique<ChiselEngine>(table, config);

    // New /28 groups overflow their 8-slot cell into the TCAM and,
    // past its two entries, the slow path.
    Rng rng(0xC2);
    for (int i = 0; i < 40; ++i) {
        Prefix p(Key128::fromIpv4(static_cast<uint32_t>(rng.next64())),
                 28);
        engine->announce(p, NextHop(500 + i), /*ttl_ms=*/1000 + i);
    }
    // Withdrawing whole groups leaves them dirty.
    std::vector<Route> routes = table.routes();
    for (size_t i = 0; i < routes.size(); i += 3)
        engine->withdraw(routes[i].prefix);
    engine->announce(Prefix(), 7);
    engine->setTtlClock(250);
    return engine;
}

TEST(EngineClone, CopiesSpillSlowPathDirtyTtlAndDefault)
{
    std::unique_ptr<ChiselEngine> engine = crowdedEngine();
    ASSERT_EQ(engine->spillCount(), 2u);
    ASSERT_GT(engine->slowPathCount(), 0u);
    ASSERT_GT(engine->dirtyCount(), 0u);
    ASSERT_GT(engine->ttlArmed(), 0u);
    ASSERT_TRUE(engine->find(Prefix()).has_value());

    expectFaithfulClone(*engine);
    std::unique_ptr<ChiselEngine> twin = engine->clone();
    EXPECT_EQ(twin->ttlClock(), engine->ttlClock());
    EXPECT_EQ(twin->dirtyCount(), engine->dirtyCount());
    EXPECT_EQ(twin->slowPathCount(), engine->slowPathCount());
    expectIndependentClone(*engine, 0xC3);
}

TEST(EngineClone, CopiesDecodedGoldenImages)
{
    for (const char *name : {"golden_v4", "golden_v6"}) {
        SCOPED_TRACE(name);
        std::string path =
            std::string(CHISEL_SOURCE_DIR) + "/tests/data/" + name +
            ".snapshot";
        persist::SnapshotLoadResult snap =
            persist::loadSnapshot(path, nullptr);
        ASSERT_EQ(snap.status, persist::SnapshotLoadStatus::Ok)
            << snap.error;
        expectFaithfulClone(*snap.engine);
        expectIndependentClone(*snap.engine, 0xC4);
    }
}

TEST(EngineClone, CopiesEngineAfterSeededUpdates)
{
    for (unsigned width : {32u, 128u}) {
        SCOPED_TRACE(width);
        ChiselConfig config;
        config.keyWidth = width;
        RoutingTable table = generateScaledTable(3000, width, 0xC5);
        ChiselEngine engine(table, config);
        UpdateTraceGenerator gen(table, TraceProfile{}, width, 0xC6);
        for (const Update &u : gen.generate(1000))
            engine.apply(u);
        expectFaithfulClone(engine);
        expectIndependentClone(engine, 0xC7);
    }
}

#if CHISEL_FAULT_INJECTION_ENABLED
TEST(EngineClone, BitFlipStaysInItsOwnImage)
{
    RoutingTable table = generateScaledTable(2000, 32, 0xC8);
    ChiselEngine source(table);
    std::unique_ptr<ChiselEngine> twin = source.clone();
    const Prefix absent(Key128::fromIpv4(0xDEADBE00u), 24);

    // A NoOp withdraw polls the injection points and writes nothing,
    // so the one flipped Index bit is all that changes.
    auto flipOneBit = [&](ChiselEngine &engine) {
        fault::FaultInjector inj(0xC9);
        inj.arm(fault::FaultPoint::BitFlipIndex, 1.0, 1);
        fault::ScopedInjector scope(&inj);
        engine.withdraw(absent);
    };

    flipOneBit(*twin);
    EXPECT_EQ(source.scrub().errorsFound, 0u);
    EXPECT_GT(twin->scrub().errorsFound, 0u);

    flipOneBit(source);
    EXPECT_EQ(twin->scrub().errorsFound, 0u);
    EXPECT_GT(source.scrub().errorsFound, 0u);
}
#endif // CHISEL_FAULT_INJECTION_ENABLED

TEST(EngineFromRoutes, TableConstructorIsTheRouteVectorOne)
{
    for (unsigned width : {32u, 128u}) {
        SCOPED_TRACE(width);
        ChiselConfig config;
        config.keyWidth = width;
        RoutingTable table = generateScaledTable(2500, width, 0xCA);
        table.add(Prefix(), 3);
        ChiselEngine from_table(table, config);
        ChiselEngine from_routes(table.routes(), config);
        EXPECT_EQ(stateBytes(from_routes), stateBytes(from_table));
        EXPECT_TRUE(from_routes.selfCheck());
    }
}

} // namespace
} // namespace chisel
