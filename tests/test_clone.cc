/**
 * @file
 * The engine set-up path: the EngineImage copy every ConcurrentChisel
 * twin is made with, the write-log replay that keeps it equal to the
 * image the engine writes, and the engine built straight from a route
 * vector.
 *
 * A copied image must pass selfCheck() against the engine's control
 * state, make the engine save the same bytes when bound to it, and
 * answer like the trie oracle, whether the source was built (with
 * routes in the spill TCAM and the slow path, dirty groups, armed
 * TTLs and a default route), decoded from a golden snapshot, or
 * driven through a seeded update trace.  It must also share nothing
 * with its source: updates and bit flips in one stay in that one
 * unless a write log carries them over.
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

/** @p image answers every probe like a trie over @p routes. */
void
expectImageMatchesOracle(const EngineImage &image,
                         const RoutingTable &routes, unsigned width)
{
    BinaryTrie oracle(routes);
    for (const Key128 &key : probeKeys(routes, width, 0xC10F)) {
        bool parity_ok = true;
        LookupResult got = image.lookup(key, &parity_ok);
        ASSERT_TRUE(parity_ok);
        std::optional<Route> want = oracle.lookup(key, width);
        ASSERT_EQ(got.found, want.has_value()) << key.toBitString(width);
        if (!want)
            continue;
        ASSERT_EQ(got.nextHop, want->nextHop) << key.toBitString(width);
        ASSERT_EQ(got.matchedLength, want->prefix.length())
            << key.toBitString(width);
    }
}

/**
 * A copy of @p source's image is faithful: sound against the control
 * state, the same saved bytes when the engine is bound to it, and
 * correct on its own.
 */
void
expectFaithfulCopy(ChiselEngine &source)
{
    EngineImage &own = source.image();
    const std::vector<uint8_t> bytes = stateBytes(source);
    EngineImage copy(own);
    EXPECT_TRUE(source.selfCheck(copy));
    expectImageMatchesOracle(copy, source.exportTable(),
                             source.config().keyWidth);

    source.bindImage(copy);
    EXPECT_EQ(stateBytes(source), bytes);
    expectMatchesOracle(source, source.exportTable(),
                        source.config().keyWidth);
    source.bindImage(own);
}

/**
 * 200 updates written through a copy of @p source's image with no
 * write log leave the original image answering for the old table;
 * the same protocol a ConcurrentChisel runs — write one image, replay
 * the log onto the other, write that one next — keeps the two equal.
 */
void
expectIndependentCopy(ChiselEngine &source, uint64_t seed)
{
    const unsigned width = source.config().keyWidth;
    const RoutingTable before = source.exportTable();
    std::vector<Update> trace =
        UpdateTraceGenerator(before, TraceProfile{}, width, seed)
            .generate(200);

    {
        ChiselEngine fresh(before, source.config());
        EngineImage &own = fresh.image();
        EngineImage copy(own);
        fresh.bindImage(copy);
        for (const Update &u : trace)
            fresh.apply(u);
        EXPECT_TRUE(fresh.selfCheck(copy));
        expectImageMatchesOracle(own, before, width);
        fresh.bindImage(own);
    }

    EngineImage &own = source.image();
    EngineImage copy(own);
    WriteLog log;
    source.setWriteLog(&log);
    EngineImage *images[2] = {&own, &copy};
    for (size_t i = 0; i < trace.size(); ++i) {
        EngineImage &written = *images[i % 2];
        EngineImage &other = *images[(i + 1) % 2];
        source.bindImage(written);
        source.apply(trace[i]);
        other.replay(written, log);
        log.clear();
    }
    source.setWriteLog(nullptr);
    EXPECT_TRUE(source.selfCheck(own));
    EXPECT_TRUE(source.selfCheck(copy));
    source.bindImage(copy);
    const std::vector<uint8_t> via_copy = stateBytes(source);
    source.bindImage(own);
    EXPECT_EQ(stateBytes(source), via_copy);
    expectImageMatchesOracle(copy, source.exportTable(), width);
}

/**
 * A small IPv4 engine with every kind of state an image copy must
 * carry: routes in the two-entry spill TCAM and the slow
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

TEST(EngineImageCopy, CopiesSpillSlowPathDirtyAndDefault)
{
    std::unique_ptr<ChiselEngine> engine = crowdedEngine();
    ASSERT_EQ(engine->spillCount(), 2u);
    ASSERT_GT(engine->slowPathCount(), 0u);
    ASSERT_GT(engine->dirtyCount(), 0u);
    ASSERT_GT(engine->ttlArmed(), 0u);
    ASSERT_TRUE(engine->find(Prefix()).has_value());

    expectFaithfulCopy(*engine);
    EngineImage copy(engine->image());
    EXPECT_EQ(copy.spill.entries(), engine->image().spill.entries());
    EXPECT_EQ(copy.slowPath.entries(), engine->image().slowPath.entries());
    EXPECT_EQ(copy.defaultRoute, engine->image().defaultRoute);
    expectIndependentCopy(*engine, 0xC3);
}

TEST(EngineImageCopy, CopiesDecodedGoldenImages)
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
        expectFaithfulCopy(*snap.engine);
        expectIndependentCopy(*snap.engine, 0xC4);
    }
}

TEST(EngineImageCopy, CopiesEngineAfterSeededUpdates)
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
        expectFaithfulCopy(engine);
        expectIndependentCopy(engine, 0xC7);
    }
}

#if CHISEL_FAULT_INJECTION_ENABLED
TEST(EngineImageCopy, BitFlipStaysInItsOwnImage)
{
    RoutingTable table = generateScaledTable(2000, 32, 0xC8);
    ChiselEngine source(table);
    EngineImage &own = source.image();
    EngineImage copy(own);
    WriteLog log;
    source.setWriteLog(&log);
    const Prefix absent(Key128::fromIpv4(0xDEADBE00u), 24);

    // A NoOp withdraw polls the injection points and writes nothing,
    // so the one flipped Index bit is all that changes, and a flip is
    // not a write: the log stays empty.
    auto flipOneBit = [&](EngineImage &image) {
        source.bindImage(image);
        fault::FaultInjector inj(0xC9);
        inj.arm(fault::FaultPoint::BitFlipIndex, 1.0, 1);
        fault::ScopedInjector scope(&inj);
        source.withdraw(absent);
        EXPECT_TRUE(log.ranges().empty());
    };

    flipOneBit(copy);
    EXPECT_EQ(source.verifyParity(own).errorsFound, 0u);
    EXPECT_GT(source.verifyParity(copy).errorsFound, 0u);

    // Recovering on the copy names the whole flagged cell; replaying it
    // leaves both images clean.
    EXPECT_EQ(source.recoverFlagged(), 1u);
    own.replay(copy, log);
    log.clear();
    EXPECT_EQ(source.verifyParity(own).errorsFound, 0u);
    EXPECT_EQ(source.verifyParity(copy).errorsFound, 0u);

    flipOneBit(own);
    EXPECT_EQ(source.verifyParity(copy).errorsFound, 0u);
    EXPECT_GT(source.verifyParity(own).errorsFound, 0u);
    source.setWriteLog(nullptr);
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
