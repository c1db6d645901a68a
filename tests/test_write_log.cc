/**
 * @file
 * One control state, two images: a ConcurrentChisel applies each
 * update once, to the idle image, and copies exactly the words the
 * write log names onto the other (src/common/write_log.hh).
 *
 * A seeded program drives every kind of image write — singleton
 * inserts, length-offset re-stamps, partition rebuilds, reseeds, TCAM
 * spills, slow-path
 * diversion and drain, the default route, flap restores, dirty-budget
 * evictions and purges, TTL expiry and parity recovery — and after
 * every step checks that both images pass selfCheck() against the one
 * control state, that the idle and the live image save the same
 * snapshot bytes, that no lookup met a parity error, and that lookups
 * match the trie oracle.  A step whose words the log missed leaves the
 * retired image stale, and one of those checks names it.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.hh"
#include "concurrent/concurrent_engine.hh"
#include "differential.hh"
#include "fault/fault.hh"
#include "route/synth.hh"
#include "trie/binary_trie.hh"

namespace chisel {
namespace {

using concurrent::ConcurrentChisel;
using fault::FaultPoint;

/** A ConcurrentChisel, its oracle, and the prefixes both hold. */
class Program
{
  public:
    Program(unsigned width, uint64_t seed)
        : width_(width), rng_(seed),
          table_(generateScaledTable(60, width, seed)),
          oracle_(table_), inj_(seed),
          cc_(std::make_unique<ChiselEngine>(table_, config(width, seed)),
              options(inj_))
    {
        for (const Route &r : table_.routes())
            held_.push_back(r.prefix);
    }

    UpdateOutcome
    announce(const Prefix &p, NextHop hop, uint32_t ttl_ms = 0)
    {
        UpdateOutcome out = cc_.announce(p, hop, ttl_ms);
        oracle_.insert(p, hop);
        held_.push_back(p);
        return out;
    }

    UpdateOutcome
    withdraw(const Prefix &p)
    {
        UpdateOutcome out = cc_.withdraw(p);
        oracle_.erase(p);
        return out;
    }

    /** A fresh prefix of length @p len. */
    Prefix
    randomPrefix(unsigned len)
    {
        Key128 bits(rng_.next64(), rng_.next64());
        if (width_ == 32)
            bits = Key128::fromIpv4(static_cast<uint32_t>(rng_.next64()));
        return Prefix(bits, len);
    }

    /** Fire @p point on its next @p n polls. */
    void
    armFor(FaultPoint point, uint64_t n)
    {
        inj_.arm(point, 1.0, inj_.fires(point) + n);
    }

    void disarm(FaultPoint point) { inj_.disarm(point); }

    /** Which checks hold at this point of a program. */
    enum class State
    {
        Clean,     ///< No soft error ever: all four.
        Scrubbed,  ///< Soft errors, all repaired: selfCheck and oracle.
        Flipped,   ///< A soft error may be live: the oracle only.
    };

    /**
     * The four checks: selfCheck() of both images, byte-equal images,
     * no parity error detected, lookups equal to the oracle's.
     */
    void
    check(const std::string &step, State state = State::Clean)
    {
        SCOPED_TRACE(step);
        if (state != State::Flipped)
            ASSERT_TRUE(cc_.selfCheck());
        if (state == State::Clean) {
            ASSERT_EQ(differential::imagesIdenticalConcurrent(cc_), "");
            ASSERT_EQ(cc_.robustness().parityDetected, 0u);
        }
        std::vector<Key128> keys;
        for (const Prefix &p : held_)
            differential::boundaryKeys(p, width_, keys);
        for (int i = 0; i < 64; ++i)
            keys.push_back(randomPrefix(width_).bits());
        for (const Key128 &key : keys) {
            std::optional<Route> want = oracle_.lookup(key, width_);
            LookupResult got = cc_.lookup(key);
            ASSERT_EQ(got.found, want.has_value()) << key.toBitString(width_);
            if (!want)
                continue;
            ASSERT_EQ(got.nextHop, want->nextHop) << key.toBitString(width_);
            ASSERT_EQ(got.matchedLength, want->prefix.length())
                << key.toBitString(width_);
        }
    }

    ConcurrentChisel &engine() { return cc_; }
    const std::vector<Prefix> &held() const { return held_; }
    unsigned width() const { return width_; }

  private:
    static ChiselConfig
    config(unsigned width, uint64_t seed)
    {
        ChiselConfig c = differential::tinyConfig(width, seed);
        c.spillCapacity = 2;
        return c;
    }

    static concurrent::ConcurrentOptions
    options(fault::FaultInjector &inj)
    {
        concurrent::ConcurrentOptions o = differential::syncOptions();
        o.faultInjector = &inj;
        return o;
    }

    unsigned width_;
    Rng rng_;
    RoutingTable table_;
    BinaryTrie oracle_;
    fault::FaultInjector inj_;
    ConcurrentChisel cc_;
    std::vector<Prefix> held_;
};

/** The fault-free program: every kind of image write but a recovery. */
void
runCleanProgram(unsigned width, uint64_t seed)
{
    Program prog(width, seed);
    ConcurrentChisel &cc = prog.engine();
    const unsigned deep = width == 32 ? 28 : 60;
    prog.check("build");

    bool singleton = false;
    for (int i = 0; i < 12; ++i) {
        UpdateOutcome out = prog.announce(prog.randomPrefix(16 + i), 100 + i);
        singleton |= out.cls == UpdateClass::SingletonInsert;
        prog.check("singleton insert " + std::to_string(i));
    }
    EXPECT_TRUE(singleton);

    // A more specific carrying its parent's next hop rewrites no
    // hardware word: only the matched-length offsets of the Result
    // entries it now covers.
    for (size_t i = 0; i < 8; ++i) {
        const Prefix parent = prog.held()[i];
        std::optional<NextHop> hop = cc.find(parent);
        if (!hop || parent.length() == 0 || parent.length() >= width)
            continue;
        prog.announce(Prefix(parent.bits(), parent.length() + 1), *hop);
        prog.check("length offset " + std::to_string(i));
    }

    if (CHISEL_FAULT_INJECTION_ENABLED) {
        // No singleton slot: the insert rebuilds its partition.
        prog.armFor(FaultPoint::ForceNonSingleton, 1);
        UpdateOutcome out = prog.announce(prog.randomPrefix(20), 300);
        EXPECT_EQ(out.cls, UpdateClass::Resetup);
        prog.check("partition rebuild");

        // The rebuild and the first full setup both fail to place a
        // key, so the setup retries under a reseeded hash family: new
        // lanes and every slot.
        prog.armFor(FaultPoint::ForceNonSingleton, 1);
        prog.armFor(FaultPoint::BloomierSetupFail, 2);
        out = prog.announce(prog.randomPrefix(20), 301);
        EXPECT_GT(out.setupRetries, 0u);
        prog.disarm(FaultPoint::BloomierSetupFail);
        prog.disarm(FaultPoint::ForceNonSingleton);
        prog.check("reseed");
    }

    // New groups overflow their small cell into the two-entry TCAM and
    // past it into the slow path.
    std::vector<Prefix> crowd;
    bool spilled = false;
    for (int i = 0; i < 24; ++i) {
        crowd.push_back(prog.randomPrefix(deep));
        UpdateOutcome out = prog.announce(crowd.back(), 400 + i);
        spilled |= out.cls == UpdateClass::Spill;
        prog.check("spill " + std::to_string(i));
    }
    EXPECT_TRUE(spilled);
    EXPECT_GT(cc.robustness().slowPathInserts, 0u);

    // Withdrawing them frees TCAM entries; the slow path drains back.
    for (size_t i = 0; i < crowd.size(); ++i) {
        prog.withdraw(crowd[i]);
        prog.check("withdraw/drain " + std::to_string(i));
    }
    EXPECT_GT(cc.robustness().slowPathDrains, 0u);

    prog.announce(Prefix(), 7);
    prog.check("default route set");
    prog.withdraw(Prefix());
    prog.check("default route cleared");

    // A withdraw leaves its group dirty; the re-announce restores it.
    const Prefix flapper = prog.held().front();
    prog.withdraw(flapper);
    prog.check("flap withdraw");
    EXPECT_EQ(prog.announce(flapper, 999).cls, UpdateClass::RouteFlap);
    prog.check("flap restore");

    // Past two dirty groups per cell, withdraws evict; then a purge.
    std::vector<Prefix> held = prog.held();
    for (size_t i = 0; i < held.size(); i += 2) {
        prog.withdraw(held[i]);
        prog.check("dirty " + std::to_string(i));
    }
    EXPECT_GT(cc.robustness().dirtyEvictions, 0u);
    EXPECT_GT(cc.purgeDirtyNow(), 0u);
    prog.check("purge");

    // TTL expiry retires routes through the ordinary update path (the
    // oracle never holds them).
    for (int i = 0; i < 4; ++i)
        cc.announce(prog.randomPrefix(24), 600 + i, /*ttl_ms=*/100);
    cc.advanceTtlClock(200);
    EXPECT_EQ(cc.gcTick(), 4u);
    prog.check("ttl expiry");
}

TEST(WriteLog, EveryImageWriteReachesTheOtherImage)
{
    for (unsigned width : {32u, 128u}) {
        for (uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE("width " + std::to_string(width) + " seed " +
                         std::to_string(seed));
            runCleanProgram(width, seed);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(WriteLog, RecoveredCellsReachBothImages)
{
    if (!CHISEL_FAULT_INJECTION_ENABLED)
        GTEST_SKIP() << "fault injection compiled out";
    for (unsigned width : {32u, 128u}) {
        SCOPED_TRACE("width " + std::to_string(width));
        Program prog(width, 7);
        ConcurrentChisel &cc = prog.engine();
        const FaultPoint flips[] = {
            FaultPoint::BitFlipIndex, FaultPoint::BitFlipFilter,
            FaultPoint::BitFlipBitVector, FaultPoint::BitFlipResult};
        uint64_t recovered = 0;
        for (int i = 0; i < 40; ++i) {
            // One flip lands in the idle image, which the update then
            // publishes; the next update recovers any cell a lookup
            // flagged, and the scrub every other one.
            prog.armFor(flips[i % 4], 1);
            prog.announce(prog.randomPrefix(12 + i % 12), 700 + i);
            prog.check("flip " + std::to_string(i), Program::State::Flipped);
            recovered += cc.scrubNow().cellsRecovered;
            prog.check("scrub " + std::to_string(i),
                       Program::State::Scrubbed);
        }
        EXPECT_GT(recovered, 0u);
        EXPECT_GT(cc.robustness().parityRecoveries, 0u);
    }
}

} // namespace
} // namespace chisel
