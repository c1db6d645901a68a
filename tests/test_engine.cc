/**
 * @file
 * Integration-grade unit tests for the complete ChiselEngine:
 * oracle-equality lookups, update semantics, classification,
 * spillover behaviour and storage accounting.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/engine.hh"
#include "route/synth.hh"
#include "trie/binary_trie.hh"

namespace chisel {
namespace {

RoutingTable
paperExampleTable()
{
    // Figure 5's three prefixes.
    RoutingTable t;
    t.add(Prefix::fromBitString("10011"), 1);
    t.add(Prefix::fromBitString("101011"), 2);
    t.add(Prefix::fromBitString("1001101"), 3);
    return t;
}

// Sixteen bytes of plain fields come back from lookup() in two
// registers (x86-64 SysV), not through memory.
static_assert(sizeof(LookupResult) == 16);

TEST(Engine, PaperWorkedExample)
{
    ChiselConfig cfg;
    cfg.keyWidth = 8;
    cfg.stride = 3;
    ChiselEngine e(paperExampleTable(), cfg);

    // The paper walks key 1001100 -> P1 (Section 4.3.2).
    Key128 key;
    key.deposit(0, 7, 0b1001100);
    auto r = e.lookup(key);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.nextHop, 1u);
    EXPECT_EQ(r.matchedLength, 5u);

    key = Key128();
    key.deposit(0, 7, 0b1001101);
    r = e.lookup(key);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.nextHop, 3u);
    EXPECT_EQ(r.matchedLength, 7u);

    key = Key128();
    key.deposit(0, 7, 0b1010110);
    r = e.lookup(key);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.nextHop, 2u);

    key = Key128();
    key.deposit(0, 7, 0b0000000);
    EXPECT_FALSE(e.lookup(key).found);
}

TEST(Engine, MatchesOracleOnSyntheticTable)
{
    RoutingTable table = generateScaledTable(20000, 32, 101);
    ChiselEngine e(table);
    BinaryTrie oracle(table);
    EXPECT_EQ(e.routeCount(), table.size());
    EXPECT_EQ(e.spillCount(), 0u);
    EXPECT_TRUE(e.selfCheck());

    auto keys = generateLookupKeys(table, 20000, 32, 0.7, 102);
    for (const auto &key : keys) {
        auto a = oracle.lookup(key, 32);
        auto b = e.lookup(key);
        ASSERT_EQ(a.has_value(), b.found);
        if (a) {
            EXPECT_EQ(a->nextHop, b.nextHop);
            EXPECT_EQ(a->prefix.length(), b.matchedLength);
        }
    }
}

TEST(Engine, DefaultRouteFallback)
{
    RoutingTable table;
    table.add(Prefix(), 99);
    table.add(Prefix::fromCidr("10.0.0.0/8"), 1);
    ChiselEngine e(table);

    auto r = e.lookup(Key128::fromIpv4(0xDEADBEEF));
    EXPECT_TRUE(r.found);
    EXPECT_TRUE(r.fromDefault);
    EXPECT_EQ(r.nextHop, 99u);

    r = e.lookup(Key128::fromIpv4(0x0A000001));
    EXPECT_FALSE(r.fromDefault);
    EXPECT_EQ(r.nextHop, 1u);
}

TEST(Engine, AnnounceWithdrawSemantics)
{
    RoutingTable empty;
    ChiselEngine e(empty);

    Prefix p = Prefix::fromCidr("10.0.0.0/8");
    EXPECT_EQ(e.announce(p, 5), UpdateClass::SingletonInsert);
    EXPECT_EQ(*e.find(p), 5u);
    EXPECT_EQ(e.announce(p, 6), UpdateClass::NextHopChange);
    EXPECT_EQ(*e.find(p), 6u);
    EXPECT_EQ(e.withdraw(p), UpdateClass::Withdraw);
    EXPECT_FALSE(e.find(p).has_value());
    EXPECT_FALSE(e.lookup(Key128::fromIpv4(0x0A000001)).found);
    EXPECT_EQ(e.withdraw(p), UpdateClass::NoOp);
    EXPECT_EQ(e.announce(p, 7), UpdateClass::RouteFlap);
    EXPECT_EQ(*e.find(p), 7u);
}

TEST(Engine, DefaultRouteUpdates)
{
    RoutingTable empty;
    ChiselEngine e(empty);
    EXPECT_EQ(e.announce(Prefix(), 3), UpdateClass::AddCollapsed);
    EXPECT_TRUE(e.lookup(Key128::fromIpv4(1)).found);
    EXPECT_EQ(e.announce(Prefix(), 4), UpdateClass::NextHopChange);
    EXPECT_EQ(e.withdraw(Prefix()), UpdateClass::Withdraw);
    EXPECT_FALSE(e.lookup(Key128::fromIpv4(1)).found);
}

TEST(Engine, UpdateChurnMatchesOracle)
{
    RoutingTable table = generateScaledTable(5000, 32, 103);
    ChiselEngine e(table);

    // Drive a generated update stream through both the engine and a
    // reference table; they must stay equivalent.
    TraceProfile prof;
    UpdateTraceGenerator gen(table, prof, 32, 104);
    RoutingTable truth = table;
    auto updates = gen.generate(20000);
    for (const auto &u : updates) {
        e.apply(u);
        if (u.kind == UpdateKind::Announce)
            truth.add(u.prefix, u.nextHop);
        else
            truth.remove(u.prefix);
    }
    EXPECT_EQ(e.routeCount(), truth.size());
    EXPECT_TRUE(e.selfCheck());

    BinaryTrie oracle(truth);
    auto keys = generateLookupKeys(truth, 5000, 32, 0.7, 105);
    for (const auto &key : keys) {
        auto a = oracle.lookup(key, 32);
        auto b = e.lookup(key);
        ASSERT_EQ(a.has_value(), b.found);
        if (a)
            EXPECT_EQ(a->nextHop, b.nextHop);
    }

    // The paper's headline: essentially everything is incremental.
    EXPECT_GT(e.updateStats().incrementalFraction(), 0.999);
}

TEST(Engine, ExactFindAcrossAllLengths)
{
    RoutingTable empty;
    ChiselEngine e(empty);
    // One prefix of every length 1..32.
    for (unsigned len = 1; len <= 32; ++len) {
        Prefix p(Key128::fromIpv4(0xAAAAAAAA), len);
        e.announce(p, len);
    }
    for (unsigned len = 1; len <= 32; ++len) {
        Prefix p(Key128::fromIpv4(0xAAAAAAAA), len);
        ASSERT_TRUE(e.find(p).has_value()) << len;
        EXPECT_EQ(*e.find(p), len);
    }
    // LPM of the full key picks the /32.
    auto r = e.lookup(Key128::fromIpv4(0xAAAAAAAA));
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.matchedLength, 32u);
}

TEST(Engine, NestedPrefixLadder)
{
    // Withdraw top-down and confirm each shorter prefix re-exposes.
    RoutingTable empty;
    ChiselEngine e(empty);
    for (unsigned len = 8; len <= 24; ++len)
        e.announce(Prefix(Key128::fromIpv4(0x0A0A0A0A), len), len);

    Key128 key = Key128::fromIpv4(0x0A0A0A0A);
    for (unsigned len = 24; len >= 9; --len) {
        auto r = e.lookup(key);
        ASSERT_TRUE(r.found);
        EXPECT_EQ(r.matchedLength, len);
        EXPECT_EQ(r.nextHop, len);
        e.withdraw(Prefix(Key128::fromIpv4(0x0A0A0A0A), len));
    }
    auto r = e.lookup(key);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.matchedLength, 8u);
}

TEST(Engine, Ipv6EndToEnd)
{
    SynthProfile prof;
    prof.prefixes = 5000;
    prof.keyWidth = 128;
    prof.lengthWeights = defaultIpv4LengthWeights();
    prof.seed = 106;
    RoutingTable table = generateTable(prof);

    ChiselConfig cfg;
    cfg.keyWidth = 128;
    ChiselEngine e(table, cfg);
    BinaryTrie oracle(table);
    EXPECT_TRUE(e.selfCheck());

    auto keys = generateLookupKeys(table, 5000, 128, 0.7, 107);
    uint64_t hits = 0;
    for (const auto &key : keys) {
        auto a = oracle.lookup(key, 128);
        auto b = e.lookup(key);
        ASSERT_EQ(a.has_value(), b.found);
        if (a)
            EXPECT_EQ(a->nextHop, b.nextHop);
        hits += b.found && !b.fromDefault;
    }
    // Key-width independence: every cell reads its Index segments, one
    // Filter and one Bit-vector word in parallel, and a hit adds one
    // Result read, so the sequential depth stays 4 at 128 bits.
    ModeledAccesses m = e.modeledAccesses(keys.size(), hits);
    EXPECT_EQ(m.lookups, keys.size());
    EXPECT_EQ(m.indexSegmentReads,
              keys.size() * e.cellCount() * e.config().k);
    EXPECT_EQ(m.filterReads, keys.size() * e.cellCount());
    EXPECT_EQ(m.bitvectorReads, keys.size() * e.cellCount());
    EXPECT_EQ(m.resultReads, hits);
    EXPECT_GT(hits, 0u);
    EXPECT_EQ(ChiselEngine::kLookupAccesses, 4u);
}

TEST(Engine, StorageAccountingConsistent)
{
    RoutingTable table = generateScaledTable(10000, 32, 108);
    ChiselEngine e(table);
    auto s = e.storage();
    EXPECT_GT(s.indexBits, 0u);
    EXPECT_GT(s.filterBits, 0u);
    EXPECT_GT(s.bitvectorBits, 0u);
    EXPECT_EQ(s.totalBits(),
              s.indexBits + s.filterBits + s.bitvectorBits);

    uint64_t sum = 0;
    for (size_t i = 0; i < e.cellCount(); ++i) {
        sum += e.cell(i).indexBits() + e.cell(i).filterBits() +
               e.cell(i).bitvectorBits();
    }
    EXPECT_EQ(s.totalBits(), sum);
}

TEST(Engine, UpdateStatsClassification)
{
    RoutingTable empty;
    ChiselEngine e(empty);
    e.announce(Prefix::fromCidr("10.0.0.0/8"), 1);      // Singleton.
    e.announce(Prefix::fromCidr("10.128.0.0/9"), 2);    // Add PC.
    e.announce(Prefix::fromCidr("10.128.0.0/9"), 3);    // Next hop.
    e.withdraw(Prefix::fromCidr("10.128.0.0/9"));       // Withdraw.
    e.announce(Prefix::fromCidr("10.128.0.0/9"), 4);    // Flap.

    const auto &s = e.updateStats();
    EXPECT_EQ(s.count(UpdateClass::SingletonInsert), 1u);
    EXPECT_EQ(s.count(UpdateClass::AddCollapsed), 1u);
    EXPECT_EQ(s.count(UpdateClass::NextHopChange), 1u);
    EXPECT_EQ(s.count(UpdateClass::Withdraw), 1u);
    EXPECT_EQ(s.count(UpdateClass::RouteFlap), 1u);
    EXPECT_EQ(s.total(), 5u);
    e.resetUpdateStats();
    EXPECT_EQ(e.updateStats().total(), 0u);
}

TEST(Engine, PurgeDirtyHousekeeping)
{
    RoutingTable empty;
    ChiselEngine e(empty);
    for (uint32_t i = 0; i < 50; ++i)
        e.announce(Prefix::ipv4(i << 24, 8), i);
    for (uint32_t i = 0; i < 50; ++i)
        e.withdraw(Prefix::ipv4(i << 24, 8));
    EXPECT_GT(e.purgeDirty(), 0u);
    EXPECT_EQ(e.purgeDirty(), 0u);
    EXPECT_TRUE(e.selfCheck());
}

TEST(Engine, SmallCellCapacityStillCorrectViaSpill)
{
    // Force spills with a tiny minimum capacity and no headroom.
    ChiselConfig cfg;
    cfg.minCellCapacity = 16;
    cfg.capacityHeadroom = 1.0;
    RoutingTable empty;
    ChiselEngine e(empty, cfg);
    RoutingTable truth;
    Rng rng(109);
    for (int i = 0; i < 2000; ++i) {
        unsigned len = static_cast<unsigned>(rng.nextRange(8, 24));
        Prefix p(Key128(rng.next64(), 0), len);
        NextHop nh = static_cast<NextHop>(rng.nextBelow(100));
        e.announce(p, nh);
        truth.add(p, nh);
    }
    EXPECT_GT(e.spillCount(), 0u);   // Capacity pressure spilled.
    EXPECT_EQ(e.routeCount(), truth.size());

    BinaryTrie oracle(truth);
    auto keys = generateLookupKeys(truth, 3000, 32, 0.7, 110);
    for (const auto &key : keys) {
        auto a = oracle.lookup(key, 32);
        auto b = e.lookup(key);
        ASSERT_EQ(a.has_value(), b.found);
        if (a)
            EXPECT_EQ(a->nextHop, b.nextHop);
    }
}

TEST(Engine, NoDirtyRetentionStillCorrect)
{
    // The ablation configuration must stay oracle-correct: flaps
    // just cost Index inserts instead of bit-vector restores.
    ChiselConfig cfg;
    cfg.retainDirtyGroups = false;
    RoutingTable table = generateScaledTable(3000, 32, 120);
    ChiselEngine e(table, cfg);
    RoutingTable truth = table;

    TraceProfile prof;
    prof.routeFlaps = 0.4;
    UpdateTraceGenerator gen(table, prof, 32, 121);
    for (int i = 0; i < 10000; ++i) {
        Update u = gen.next();
        e.apply(u);
        if (u.kind == UpdateKind::Announce)
            truth.add(u.prefix, u.nextHop);
        else
            truth.remove(u.prefix);
    }
    EXPECT_EQ(e.routeCount(), truth.size());
    // No dirty groups can exist in this mode.
    for (size_t i = 0; i < e.cellCount(); ++i)
        EXPECT_EQ(e.cell(i).dirtyCount(), 0u);

    BinaryTrie oracle(truth);
    auto keys = generateLookupKeys(truth, 2000, 32, 0.7, 122);
    for (const auto &key : keys) {
        auto a = oracle.lookup(key, 32);
        auto b = e.lookup(key);
        ASSERT_EQ(a.has_value(), b.found);
        if (a)
            ASSERT_EQ(a->nextHop, b.nextHop);
    }
}

TEST(Engine, RejectsBadKeyWidth)
{
    RoutingTable empty;
    ChiselConfig cfg;
    cfg.keyWidth = 0;
    EXPECT_THROW(ChiselEngine(empty, cfg), ChiselError);
}

TEST(Engine, RejectsOverlongAnnounce)
{
    RoutingTable empty;
    ChiselConfig cfg;
    cfg.keyWidth = 32;
    ChiselEngine e(empty, cfg);
    Prefix p40(Key128::fromIpv4(0x0A000000), 40);
    // Malformed input is refused via the outcome, not by aborting;
    // the engine stays usable afterwards.
    UpdateOutcome out = e.announce(p40, 1);
    EXPECT_EQ(out.status, UpdateStatus::Rejected);
    EXPECT_FALSE(out.ok());
    EXPECT_STRNE(out.message, "");
    EXPECT_EQ(e.routeCount(), 0u);
    EXPECT_EQ(e.robustness().rejectedUpdates, 1u);
    EXPECT_EQ(e.announce(Prefix::fromCidr("10.0.0.0/8"), 1),
              UpdateClass::SingletonInsert);
    // Withdraw of an impossible prefix is just a no-op.
    EXPECT_EQ(e.withdraw(p40), UpdateClass::NoOp);
}

/** Parameterised sweep: stride x key width x seed, oracle equality. */
struct EngineParam
{
    unsigned stride;
    unsigned keyWidth;
    uint64_t seed;
};

class EngineProperty : public ::testing::TestWithParam<EngineParam>
{};

TEST_P(EngineProperty, OracleEquivalence)
{
    const auto &p = GetParam();
    SynthProfile prof;
    prof.prefixes = 3000;
    prof.keyWidth = p.keyWidth;
    prof.lengthWeights = defaultIpv4LengthWeights();
    prof.seed = p.seed;
    RoutingTable table = generateTable(prof);

    ChiselConfig cfg;
    cfg.stride = p.stride;
    cfg.keyWidth = p.keyWidth;
    cfg.seed = p.seed * 31 + 7;
    ChiselEngine e(table, cfg);
    BinaryTrie oracle(table);
    EXPECT_TRUE(e.selfCheck());

    auto keys = generateLookupKeys(table, 4000, p.keyWidth, 0.6,
                                   p.seed + 1);
    for (const auto &key : keys) {
        auto a = oracle.lookup(key, p.keyWidth);
        auto b = e.lookup(key);
        ASSERT_EQ(a.has_value(), b.found);
        if (a) {
            EXPECT_EQ(a->nextHop, b.nextHop);
            EXPECT_EQ(a->prefix.length(), b.matchedLength);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineProperty,
    ::testing::Values(
        EngineParam{1, 32, 1}, EngineParam{2, 32, 2},
        EngineParam{3, 32, 3}, EngineParam{4, 32, 4},
        EngineParam{5, 32, 5}, EngineParam{6, 32, 6},
        EngineParam{8, 32, 7}, EngineParam{4, 128, 8},
        EngineParam{6, 128, 9}, EngineParam{4, 24, 10}));

} // anonymous namespace
} // namespace chisel
