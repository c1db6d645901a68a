/**
 * @file
 * Differential correctness across the serving layers, plus pins of
 * the modeled hardware cost.
 *
 * The differential suites run seeded update programs (tests/
 * differential.hh, shared with fuzz/fuzz_engine.cc) against
 * ChiselEngine, ConcurrentChisel, ShardedChisel at one and four
 * shards and a journaled one-shard ShardedChisel that warm-restarts,
 * IPv4 and IPv6, and compare every lookup with BinaryTrie in
 * next hop and matched length — fault-free, and with the BitFlip*
 * soft-error points armed and a scrub before each check.
 *
 * The pins fix the paper's hardware model at literal values: the
 * on-chip storage of a fixed table and the modeled accesses of a
 * fixed lookup batch, from the engine's closed form fed with the
 * batch's own lookup and hit counts.  Software-only structures
 * (lookup pre-filters, reporting fields) must never move them.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/engine.hh"
#include "route/synth.hh"
#include "differential.hh"

namespace chisel {
namespace {

using differential::Layer;
using differential::ProgramOptions;

using Param = std::tuple<Layer, unsigned, uint64_t>;

class Differential : public ::testing::TestWithParam<Param>
{
  protected:
    ProgramOptions
    options() const
    {
        ProgramOptions o;
        o.layer = std::get<0>(GetParam());
        o.keyWidth = std::get<1>(GetParam());
        o.seed = std::get<2>(GetParam());
        return o;
    }
};

TEST_P(Differential, MatchesTrieOracle)
{
    ProgramOptions o = options();
    o.steps = 1000;
    EXPECT_EQ(differential::runProgram(o), "");
}

TEST_P(Differential, MatchesTrieOracleAfterScrubUnderBitFlips)
{
    if (!CHISEL_FAULT_INJECTION_ENABLED)
        GTEST_SKIP() << "fault injection compiled out";
    ProgramOptions o = options();
    o.steps = 400;
    o.faults = true;
    EXPECT_EQ(differential::runProgram(o), "");
}

INSTANTIATE_TEST_SUITE_P(
    Layers, Differential,
    ::testing::Combine(::testing::Values(Layer::Engine, Layer::Concurrent,
                                         Layer::Sharded1, Layer::Sharded4,
                                         Layer::Journaled1),
                       ::testing::Values(32u, 128u),
                       ::testing::Values(uint64_t(1), uint64_t(2))),
    [](const ::testing::TestParamInfo<Param> &info) {
        std::string name = differential::layerName(std::get<0>(info.param));
        for (char &c : name) {
            if (c == '/')
                c = '_';
        }
        return name + "_v" +
               (std::get<1>(info.param) == 32 ? "4" : "6") + "_s" +
               std::to_string(std::get<2>(info.param));
    });

/**
 * The engine and the journaled plane at other collapse strides: one
 * suffix bit per group (stride 1), and vectors of a whole 64-bit word
 * (6) and of four words (8).  Each gets the trie-oracle checks, the
 * save/restore/re-save byte equality and the BitFlip scrub pass.
 */
using StridedParam = std::tuple<Layer, unsigned, unsigned>;

class StridedDifferential : public ::testing::TestWithParam<StridedParam>
{
  protected:
    ProgramOptions
    options() const
    {
        ProgramOptions o;
        o.layer = std::get<0>(GetParam());
        o.keyWidth = std::get<1>(GetParam());
        o.stride = std::get<2>(GetParam());
        return o;
    }
};

TEST_P(StridedDifferential, MatchesTrieOracle)
{
    ProgramOptions o = options();
    o.steps = 600;
    EXPECT_EQ(differential::runProgram(o), "");
}

TEST_P(StridedDifferential, MatchesTrieOracleAfterScrubUnderBitFlips)
{
    if (!CHISEL_FAULT_INJECTION_ENABLED)
        GTEST_SKIP() << "fault injection compiled out";
    ProgramOptions o = options();
    o.steps = 300;
    o.faults = true;
    EXPECT_EQ(differential::runProgram(o), "");
}

INSTANTIATE_TEST_SUITE_P(
    Strides, StridedDifferential,
    ::testing::Combine(::testing::Values(Layer::Engine, Layer::Journaled1),
                       ::testing::Values(32u, 128u),
                       ::testing::Values(1u, 6u, 8u)),
    [](const ::testing::TestParamInfo<StridedParam> &info) {
        std::string name = differential::layerName(std::get<0>(info.param));
        for (char &c : name) {
            if (c == '/')
                c = '_';
        }
        return name + "_v" +
               (std::get<1>(info.param) == 32 ? "4" : "6") + "_stride" +
               std::to_string(std::get<2>(info.param));
    });

TEST(Differential, BoundaryKeysStraddleThePrefix)
{
    std::vector<Key128> keys;
    differential::boundaryKeys(Prefix::fromCidr("10.0.0.0/8"), 32, keys);
    ASSERT_EQ(keys.size(), 4u);
    EXPECT_EQ(keys[0], Key128::fromIpv4(0x0A000000));
    EXPECT_EQ(keys[1], Key128::fromIpv4(0x0AFFFFFF));
    EXPECT_EQ(keys[2], Key128::fromIpv4(0x09FFFFFF));
    EXPECT_EQ(keys[3], Key128::fromIpv4(0x0B000000));

    keys.clear();
    differential::boundaryKeys(Prefix(), 32, keys);   // Whole space.
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[1], Key128::fromIpv4(0xFFFFFFFF));
}

// ---- Hardware-model pins ---------------------------------------------------

struct ModelPin
{
    uint64_t totalBits;
    uint64_t lookups;
    uint64_t indexSegmentReads;
    uint64_t filterReads;
    uint64_t bitvectorReads;
    uint64_t resultReads;
};

ModelPin
measureModel(unsigned key_width)
{
    SynthProfile prof;
    prof.prefixes = 6000;
    prof.seed = 0x9A1D;
    if (key_width == 128)
        prof = ipv6Profile(prof);
    RoutingTable table = generateTable(prof);
    ChiselConfig cfg;
    cfg.keyWidth = key_width;
    ChiselEngine engine(table, cfg);
    uint64_t lookups = 0, hits = 0;
    for (const Key128 &key :
         generateLookupKeys(table, 3000, key_width, 0.7, 0x9A1E)) {
        LookupResult r = engine.lookup(key);
        ++lookups;
        hits += r.found && !r.fromDefault;
    }
    const ModeledAccesses a = engine.modeledAccesses(lookups, hits);
    return ModelPin{engine.storage().totalBits(), a.lookups,
                    a.indexSegmentReads, a.filterReads,
                    a.bitvectorReads, a.resultReads};
}

void
expectPin(const ModelPin &got, const ModelPin &want)
{
    EXPECT_EQ(got.totalBits, want.totalBits);
    EXPECT_EQ(got.lookups, want.lookups);
    EXPECT_EQ(got.indexSegmentReads, want.indexSegmentReads);
    EXPECT_EQ(got.filterReads, want.filterReads);
    EXPECT_EQ(got.bitvectorReads, want.bitvectorReads);
    EXPECT_EQ(got.resultReads, want.resultReads);
}

TEST(HardwareModelPin, Ipv4StorageAndModeledAccesses)
{
    // 7 cells x k = 3 segments per lookup; one Result read per hit.
    expectPin(measureModel(32),
              ModelPin{1344216, 3000, 63000, 21000, 21000, 2253});
}

TEST(HardwareModelPin, Ipv6StorageAndModeledAccesses)
{
    // 32 cells, most of them empty fillers, each charged on every lookup.
    expectPin(measureModel(128),
              ModelPin{4824080, 3000, 288000, 96000, 96000, 2138});
}

} // anonymous namespace
} // namespace chisel
