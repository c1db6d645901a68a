/**
 * @file
 * Route-lifecycle tests (docs/robustness.md, "Route lifecycle"): the
 * TTL deadline index, engine-level expiry semantics (lazy expiry,
 * pinning, per-update overrides, adoption across rebuilds), elastic
 * resize planning (geometry kernel vs elastic capacities), and the
 * concurrent engine's GC tick and live resize, checked against the
 * records it writes to its own journal.
 *
 * Time is always the manual logical clock here — every test replays
 * exactly.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "concurrent/concurrent_engine.hh"
#include "core/engine.hh"
#include "core/resize.hh"
#include "core/ttl.hh"
#include "fault/fault.hh"
#include "persist/codec.hh"
#include "persist/journal.hh"
#include "route/synth.hh"
#include "route/table.hh"
#include "route/updates.hh"

namespace chisel {
namespace {

using concurrent::ConcurrentChisel;
using concurrent::ConcurrentOptions;
using persist::JournalRecord;

Prefix
p24(uint32_t net)
{
    return Prefix(Key128::fromIpv4(net), 24);
}

// ---- TtlIndex --------------------------------------------------------------

TEST(TtlIndex, ArmDisarmDeadline)
{
    TtlIndex ttl;
    EXPECT_TRUE(ttl.empty());

    ttl.arm(p24(0x0A000000), 100);
    ttl.arm(p24(0x0B000000), 200);
    EXPECT_EQ(ttl.size(), 2u);
    EXPECT_TRUE(ttl.armed(p24(0x0A000000)));
    EXPECT_EQ(ttl.deadline(p24(0x0A000000)), 100u);
    EXPECT_FALSE(ttl.armed(p24(0x0C000000)));
    EXPECT_EQ(ttl.deadline(p24(0x0C000000)), 0u);

    // Re-arming replaces the deadline; disarming forgets it.
    ttl.arm(p24(0x0A000000), 500);
    EXPECT_EQ(ttl.deadline(p24(0x0A000000)), 500u);
    ttl.disarm(p24(0x0A000000));
    EXPECT_FALSE(ttl.armed(p24(0x0A000000)));
    EXPECT_EQ(ttl.size(), 1u);
}

TEST(TtlIndex, CollectExpiredHonorsClockAndBatch)
{
    TtlIndex ttl;
    for (uint32_t i = 0; i < 10; ++i)
        ttl.arm(p24(0x0A000000 + (i << 8)), 100 + i * 10);

    std::vector<Prefix> due;
    EXPECT_EQ(ttl.collectExpired(99, 100, due), 0u);

    // now=130 covers deadlines 100..130 = four entries; a batch cap
    // of 2 returns two of them without modifying the index.
    due.clear();
    EXPECT_EQ(ttl.collectExpired(130, 2, due), 2u);
    EXPECT_EQ(ttl.size(), 10u);

    due.clear();
    EXPECT_EQ(ttl.collectExpired(130, 100, due), 4u);
    due.clear();
    EXPECT_EQ(ttl.collectExpired(10000, 100, due), 10u);
}

TEST(TtlIndex, CodecRoundtrip)
{
    TtlIndex ttl;
    ttl.arm(p24(0x0A000000), 42);
    ttl.arm(p24(0x0B000000), 7);

    persist::Encoder enc;
    ttl.saveState(enc);

    TtlIndex back;
    persist::Decoder dec(enc.buffer());
    back.loadState(dec);
    EXPECT_EQ(back.size(), 2u);
    EXPECT_EQ(back.deadline(p24(0x0A000000)), 42u);
    EXPECT_EQ(back.deadline(p24(0x0B000000)), 7u);
}

// ---- Engine expiry semantics -----------------------------------------------

ChiselConfig
ttlConfig(uint64_t default_ttl_ms)
{
    ChiselConfig config;
    config.minCellCapacity = 64;
    config.defaultTtlMs = default_ttl_ms;
    return config;
}

TEST(EngineTtl, DefaultArmsOverridesAndPins)
{
    RoutingTable empty;
    ChiselEngine engine(empty, ttlConfig(1000));
    engine.setTtlClock(50);

    // Default TTL: deadline = clock + default.
    engine.announce(p24(0x0A000000), 1);
    EXPECT_TRUE(engine.ttlIndex().armed(p24(0x0A000000)));
    EXPECT_EQ(engine.ttlIndex().deadline(p24(0x0A000000)), 1050u);

    // Per-update override replaces the default.
    engine.announce(p24(0x0B000000), 2, 200);
    EXPECT_EQ(engine.ttlIndex().deadline(p24(0x0B000000)), 250u);

    // kTtlNever pins even with a default configured.
    engine.announce(p24(0x0C000000), 3, kTtlNever);
    EXPECT_FALSE(engine.ttlIndex().armed(p24(0x0C000000)));

    // A re-announce re-arms from the current clock.
    engine.setTtlClock(600);
    engine.announce(p24(0x0A000000), 9);
    EXPECT_EQ(engine.ttlIndex().deadline(p24(0x0A000000)), 1600u);
}

TEST(EngineTtl, NoDefaultMeansNoDeadline)
{
    RoutingTable empty;
    ChiselEngine engine(empty, ttlConfig(0));
    engine.announce(p24(0x0A000000), 1);
    EXPECT_FALSE(engine.ttlIndex().armed(p24(0x0A000000)));
    EXPECT_EQ(engine.ttlArmed(), 0u);

    // ...but an explicit per-update TTL still arms.
    engine.announce(p24(0x0B000000), 2, 300);
    EXPECT_EQ(engine.ttlIndex().deadline(p24(0x0B000000)), 300u);
}

TEST(EngineTtl, WithdrawDisarms)
{
    RoutingTable empty;
    ChiselEngine engine(empty, ttlConfig(1000));
    engine.announce(p24(0x0A000000), 1);
    EXPECT_TRUE(engine.ttlIndex().armed(p24(0x0A000000)));
    engine.withdraw(p24(0x0A000000));
    EXPECT_FALSE(engine.ttlIndex().armed(p24(0x0A000000)));
}

TEST(EngineTtl, ExpiryIsLazyAndExpireRetires)
{
    RoutingTable empty;
    ChiselEngine engine(empty, ttlConfig(100));
    engine.announce(p24(0x0A000000), 1);

    // Past the deadline the route still resolves — expiry is lazy;
    // nothing disappears except through a journal-visible update.
    engine.setTtlClock(500);
    auto nh = engine.find(p24(0x0A000000));
    ASSERT_TRUE(nh.has_value());
    EXPECT_EQ(*nh, 1u);

    std::vector<Prefix> due;
    ASSERT_EQ(engine.collectExpired(16, due), 1u);
    UpdateOutcome out = engine.expire(due[0]);
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.cls, UpdateClass::Expire);
    EXPECT_FALSE(engine.find(p24(0x0A000000)).has_value());
    EXPECT_EQ(engine.ttlArmed(), 0u);

    // Expiring an absent prefix is a NoOp, not an error.
    EXPECT_EQ(engine.expire(p24(0x0D000000)).cls, UpdateClass::NoOp);
}

TEST(EngineTtl, RebuiltCarriesIndexAndClock)
{
    RoutingTable empty;
    ChiselEngine a(empty, ttlConfig(100));
    a.setTtlClock(40);
    a.announce(p24(0x0A000000), 1);

    // A rebuilt engine (resize, resetup, recovery) must not lose
    // armed deadlines or rewind the clock.
    std::unique_ptr<ChiselEngine> b = a.rebuilt(ttlConfig(100));
    EXPECT_EQ(b->ttlClock(), 40u);
    EXPECT_EQ(b->ttlIndex().deadline(p24(0x0A000000)), 140u);
    EXPECT_EQ(b->find(p24(0x0A000000)), std::optional<NextHop>(1));
}

// ---- Elastic resize planning -----------------------------------------------

TEST(Resize, ElasticCompatibleIgnoresCapacities)
{
    ChiselConfig a;
    ChiselConfig b = a;
    b.spillCapacity *= 4;
    b.slowPathCapacity = 0;
    b.minCellCapacity *= 2;
    b.dirtyBudgetPerCell = 99;
    b.capacityHeadroom = 3.5;
    b.defaultTtlMs = 1234;
    EXPECT_TRUE(elasticCompatible(a, b));
    EXPECT_EQ(elasticFingerprint(a), elasticFingerprint(b));
    // The strict identity must still see them as different engines.
    EXPECT_NE(configFingerprint(a), configFingerprint(b));
}

TEST(Resize, GeometryChangeBreaksCompatibility)
{
    ChiselConfig a;

    ChiselConfig stride = a;
    stride.stride = 8;
    EXPECT_FALSE(elasticCompatible(a, stride));
    EXPECT_NE(elasticFingerprint(a), elasticFingerprint(stride));

    ChiselConfig seed = a;
    seed.seed ^= 1;
    EXPECT_FALSE(elasticCompatible(a, seed));
    EXPECT_NE(elasticFingerprint(a), elasticFingerprint(seed));
}

TEST(Resize, PlanCoversObservedLoad)
{
    ChiselConfig current;
    current.spillCapacity = 8;
    current.slowPathCapacity = 64;
    current.minCellCapacity = 64;

    ResizeLoad load;
    load.routeCount = 10000;
    load.spillCount = 8;
    load.slowPathCount = 60;

    ChiselConfig grown = planResize(current, load);
    EXPECT_TRUE(elasticCompatible(current, grown));
    EXPECT_FALSE(grown == current);
    // Everything the spill and slow path hold today must fit in the
    // grown spill alone, with headroom.
    EXPECT_GE(grown.spillCapacity,
              load.spillCount + load.slowPathCount);
    EXPECT_GE(grown.slowPathCapacity, current.slowPathCapacity);
    EXPECT_GE(grown.minCellCapacity, current.minCellCapacity);
}

// ---- Concurrent GC and live resize -----------------------------------------

ConcurrentOptions
manualClockOptions()
{
    ConcurrentOptions opts;
    opts.ttlWallClock = false;   // advanceTtlClock drives time.
    return opts;
}

/**
 * A manual-clock ConcurrentChisel writing its own journal in the test
 * temp directory; records() scans the journal back.
 */
struct JournaledEngine
{
    JournaledEngine(const std::string &name, const RoutingTable &table,
                    const ChiselConfig &config)
        : path(::testing::TempDir() + "chisel_ttl_" +
               std::to_string(::getpid()) + "_" + name + ".journal")
    {
        std::remove(path.c_str());
        engine = std::make_unique<ConcurrentChisel>(
            std::make_unique<ChiselEngine>(table, config),
            manualClockOptions(),
            std::make_unique<persist::UpdateJournal>(
                path, elasticFingerprint(config)));
    }

    ~JournaledEngine()
    {
        engine.reset();
        std::remove(path.c_str());
    }

    /** The journaled records of @p type, in stream order. */
    std::vector<JournalRecord>
    records(JournalRecord::Type type) const
    {
        std::vector<JournalRecord> out;
        for (const JournalRecord &r : persist::scanJournal(path, 0).records)
            if (r.type == type)
                out.push_back(r);
        return out;
    }

    std::string path;
    std::unique_ptr<ConcurrentChisel> engine;
};

TEST(ConcurrentTtl, GcTickRetiresAndJournalsExpiries)
{
    JournaledEngine j("gc", RoutingTable{}, ttlConfig(100));
    ConcurrentChisel &engine = *j.engine;
    engine.announce(p24(0x0A000000), 1);
    engine.announce(p24(0x0B000000), 2, kTtlNever);

    // Nothing due yet: the tick is a no-op.
    EXPECT_EQ(engine.gcTick(), 0u);
    EXPECT_EQ(engine.expired(), 0u);

    engine.advanceTtlClock(150);
    EXPECT_EQ(engine.gcTick(), 1u);
    EXPECT_EQ(engine.expired(), 1u);
    EXPECT_FALSE(engine.find(p24(0x0A000000)).has_value());
    // The pinned route is untouchable.
    EXPECT_TRUE(engine.find(p24(0x0B000000)).has_value());

    // The GC's removal was journaled as a first-class Expire update,
    // seq 3 after the two announces, and committed by its Outcome.
    std::vector<JournalRecord> updates =
        j.records(JournalRecord::Type::Update);
    ASSERT_EQ(updates.size(), 3u);
    EXPECT_EQ(updates[2].seq, 3u);
    EXPECT_EQ(updates[2].update.kind, UpdateKind::Expire);
    EXPECT_EQ(updates[2].update.prefix, p24(0x0A000000));
    EXPECT_EQ(engine.journalSeq(), 3u);
    // The last Outcome rides with the next record's flush; closing the
    // journal writes it.
    j.engine.reset();
    std::vector<JournalRecord> outcomes =
        j.records(JournalRecord::Type::Outcome);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_EQ(outcomes[2].seq, 3u);
    EXPECT_EQ(outcomes[2].cls, static_cast<uint8_t>(UpdateClass::Expire));
}

TEST(ConcurrentTtl, JournalRefusalRejectsUpdate)
{
    if (!CHISEL_FAULT_INJECTION_ENABLED)
        GTEST_SKIP() << "fault injection compiled out";
    JournaledEngine j("refusal", RoutingTable{}, ttlConfig(0));
    ConcurrentChisel &engine = *j.engine;
    uint64_t seq = 0;
    Update a{UpdateKind::Announce, p24(0x0A000000), 1};
    EXPECT_TRUE(engine.apply(a, &seq).ok());
    EXPECT_EQ(seq, 1u);

    // An append the journal refuses (the modelled ENOSPC) must reject
    // the update outright: state never runs ahead of its durability
    // record.
    fault::FaultInjector inj(7);
    inj.arm(fault::FaultPoint::JournalIoError, 1.0, 1);
    UpdateOutcome out;
    {
        fault::ScopedInjector scope(&inj);
        out = engine.apply(Update{UpdateKind::Announce, p24(0x0B000000), 2},
                           &seq);
    }
    EXPECT_EQ(inj.fires(fault::FaultPoint::JournalIoError), 1u);
    EXPECT_EQ(out.status, UpdateStatus::Rejected);
    EXPECT_EQ(seq, 0u);
    EXPECT_FALSE(engine.find(p24(0x0B000000)).has_value());
    EXPECT_TRUE(engine.find(p24(0x0A000000)).has_value());

    // The failure latches: later updates are refused too, and the
    // journal holds only what was applied.
    EXPECT_EQ(engine.announce(p24(0x0C000000), 3).status,
              UpdateStatus::Rejected);
    EXPECT_FALSE(engine.find(p24(0x0C000000)).has_value());
    EXPECT_EQ(j.records(JournalRecord::Type::Update).size(), 1u);
    EXPECT_EQ(engine.journalSeq(), 1u);
}

TEST(ConcurrentResize, ResizeToGrowsWithoutLosingState)
{
    RoutingTable table = generateScaledTable(256, 32, 0x5EED);
    ChiselConfig config = ttlConfig(1000);
    config.spillCapacity = 8;

    JournaledEngine j("resize", table, config);
    ConcurrentChisel &engine = *j.engine;
    engine.announce(p24(0x0A000000), 7);
    size_t before = engine.routeCount();
    uint64_t gen_before = engine.generation();

    ChiselConfig grown = config;
    grown.spillCapacity = 64;
    grown.minCellCapacity *= 2;
    ASSERT_TRUE(engine.resizeTo(grown));
    EXPECT_EQ(engine.resizes(), 1u);
    EXPECT_TRUE(engine.config() == grown);

    // One ResizeMark carrying the grown config, stamped with the
    // announce's seq so replay rebuilds right after it.
    std::vector<JournalRecord> marks =
        j.records(JournalRecord::Type::ResizeMark);
    ASSERT_EQ(marks.size(), 1u);
    EXPECT_TRUE(marks[0].resizeConfig == grown);
    EXPECT_EQ(marks[0].seq, 1u);

    // Same routes, same answers — and the same generation: the grown
    // engine serves an identical routing state, so readers tagging
    // lookups across the flip see no spurious update.
    EXPECT_EQ(engine.routeCount(), before);
    auto nh = engine.find(p24(0x0A000000));
    ASSERT_TRUE(nh.has_value());
    EXPECT_EQ(*nh, 7u);
    EXPECT_EQ(engine.generation(), gen_before);

    // Resizing to the current config is an idempotent no-op...
    EXPECT_TRUE(engine.resizeTo(grown));
    EXPECT_EQ(engine.resizes(), 1u);

    // ...and a geometry change is not a resize at all; neither
    // journals a mark.
    ChiselConfig other = grown;
    other.seed ^= 1;
    EXPECT_FALSE(engine.resizeTo(other));
    EXPECT_EQ(engine.resizes(), 1u);
    EXPECT_EQ(j.records(JournalRecord::Type::ResizeMark).size(), 1u);
}

TEST(ConcurrentResize, TtlSurvivesResize)
{
    RoutingTable empty;
    ConcurrentChisel engine(empty, ttlConfig(100),
                            manualClockOptions());
    engine.announce(p24(0x0A000000), 1);
    engine.advanceTtlClock(60);   // Not yet due.

    ASSERT_TRUE(engine.resizeNow());
    EXPECT_EQ(engine.resizes(), 1u);

    // The armed deadline crossed the rebuild: not forgotten (expires
    // on schedule), not rewound (expires at 100, not 160).
    EXPECT_EQ(engine.gcTick(), 0u);
    engine.advanceTtlClock(50);   // Logical now = 110.
    EXPECT_EQ(engine.gcTick(), 1u);
    EXPECT_FALSE(engine.find(p24(0x0A000000)).has_value());
}

} // anonymous namespace
} // namespace chisel
