/**
 * @file
 * Differential harness shared by tests/test_differential.cc and
 * fuzz/fuzz_engine.cc: seeded random update programs applied to a
 * serving layer and to the BinaryTrie oracle side by side.
 *
 * A program is a sequence of announce / withdraw / expire / flap
 * steps (plus occasional cell drains and dirty purges) over prefixes
 * clustered around a few anchor keys, with a four-value next-hop
 * alphabet so that members of one group often share a next hop.  The
 * engine geometry is deliberately tiny — eight-group cells, a
 * four-entry spill TCAM, a dirty budget of two — so groups are
 * dismantled, cells and summary regions empty and refill, dirty groups
 * are purged, Index partitions are re-set up and routes spill to the
 * TCAM and on into the slow path.
 *
 * After every step each lookup on the step's prefix-boundary keys
 * (first and last address of every touched prefix, and one past each
 * end) and on random keys must match the oracle in next hop and
 * matched length.  Periodically the layer is saved, restored, and
 * must re-save byte for byte; the restored state then carries on.
 * The journaled layer restarts instead: the plane is destroyed and
 * reopened on its directory, alternately right after saveSnapshots()
 * and by replaying the journal tail, and must re-save byte for byte.
 * Before each fault-free round trip, a ConcurrentChisel's two images
 * (every shard's, for ShardedChisel) must save byte-identical
 * snapshots.  With faults on, every update runs with the BitFlip*
 * points armed and the layer is scrubbed before the check; a flip
 * lands in one image, so the images' robustness counters may differ.
 *
 * Header-only and gtest-free: a check returns an empty string on
 * success and a description of the first mismatch otherwise.
 */

#ifndef CHISEL_TESTS_DIFFERENTIAL_HH
#define CHISEL_TESTS_DIFFERENTIAL_HH

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "concurrent/concurrent_engine.hh"
#include "core/engine.hh"
#include "fault/fault.hh"
#include "persist/recovery.hh"
#include "persist/snapshot.hh"
#include "shard/sharded.hh"
#include "trie/binary_trie.hh"

namespace chisel::differential {

using U128 = unsigned __int128;

inline U128
toU128(const Key128 &k)
{
    return (U128(k.hi()) << 64) | k.lo();
}

inline Key128
fromU128(U128 v)
{
    return Key128(static_cast<uint64_t>(v >> 64),
                  static_cast<uint64_t>(v));
}

/** Mask of the leading @p len bits of a 128-bit key. */
inline U128
leadingMask(unsigned len)
{
    return len == 0 ? U128(0) : ~U128(0) << (128 - len);
}

/**
 * Boundary keys of @p p in a @p width-bit key space: its first and
 * last address and the neighbours just outside it.
 */
inline void
boundaryKeys(const Prefix &p, unsigned width, std::vector<Key128> &out)
{
    const U128 ulp = U128(1) << (128 - width);
    const U128 space = leadingMask(width);
    U128 first = toU128(p.bits());
    U128 last = first | (~leadingMask(p.length()) & space);
    out.push_back(fromU128(first));
    out.push_back(fromU128(last));
    if (first != 0)
        out.push_back(fromU128(first - ulp));
    if (last != space)
        out.push_back(fromU128(last + ulp));
}

/** Engine geometry small enough that every structural path runs. */
inline ChiselConfig
tinyConfig(unsigned key_width, uint64_t seed, unsigned stride = 4)
{
    ChiselConfig c;
    c.keyWidth = key_width;
    c.stride = stride;
    c.minCellCapacity = 8;
    c.capacityHeadroom = 1.0;
    c.spillCapacity = 4;
    c.dirtyBudgetPerCell = 2;
    c.seed = seed;
    return c;
}

/** One serving layer under test. */
class Target
{
  public:
    virtual ~Target() = default;
    virtual void apply(const Update &u) = 0;
    virtual LookupResult lookup(const Key128 &key) const = 0;
    virtual void purgeDirty() = 0;
    virtual void scrub() = 0;
    virtual bool selfCheck() const = 0;
    /**
     * Save, restore into the serving state, save again.  @return an
     * empty string when both saves are byte-identical.
     */
    virtual std::string roundTrip() = 0;

    /**
     * @return an empty string when every image the layer keeps saves
     * the same snapshot bytes (one image: trivially).
     */
    virtual std::string imagesIdentical() { return {}; }
};

/** The layers the harness drives. */
enum class Layer { Engine, Concurrent, Sharded1, Sharded4, Journaled1 };

/** Number of Layer values; fuzz_engine cycles through all of them. */
constexpr size_t kLayerCount = 5;

inline const char *
layerName(Layer l)
{
    switch (l) {
      case Layer::Engine: return "ChiselEngine";
      case Layer::Concurrent: return "ConcurrentChisel";
      case Layer::Sharded1: return "ShardedChisel/1";
      case Layer::Sharded4: return "ShardedChisel/4";
      case Layer::Journaled1: return "ShardedChisel/1/journaled";
    }
    return "?";
}

inline std::vector<uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

/** A per-process scratch path for snapshot round trips. */
inline std::string
scratchPath(const char *tag)
{
    static std::atomic<uint64_t> counter{0};
    return (std::filesystem::temp_directory_path() /
            ("chisel_diff_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++) + "_" + tag))
        .string();
}

/**
 * Save the idle image, flip the live pointer once with scrubNow(),
 * save the other image: @return an empty string when both saves are
 * byte-identical.
 */
inline std::string
imagesIdenticalConcurrent(concurrent::ConcurrentChisel &c)
{
    std::string a = scratchPath("idle.snap");
    std::string b = scratchPath("live.snap");
    c.saveSnapshot(a);
    c.scrubNow();
    c.saveSnapshot(b);
    std::string err;
    if (readBytes(a) != readBytes(b))
        err = "idle and live images encode differently";
    for (const std::string &p : {a, b}) {
        std::filesystem::remove(p);
        std::filesystem::remove(persist::previousSnapshotPath(p));
    }
    return err;
}

/** ConcurrentChisel snapshot round trip through files. */
inline std::string
roundTripConcurrent(concurrent::ConcurrentChisel &c)
{
    std::string a = scratchPath("a.snap");
    std::string b = scratchPath("b.snap");
    c.saveSnapshot(a);
    std::string err;
    if (!c.restoreFromSnapshot(a)) {
        err = "restoreFromSnapshot refused its own snapshot";
    } else {
        c.saveSnapshot(b);
        if (readBytes(a) != readBytes(b))
            err = "re-saved snapshot differs";
    }
    for (const std::string &p : {a, b}) {
        std::filesystem::remove(p);
        std::filesystem::remove(persist::previousSnapshotPath(p));
    }
    return err;
}

class EngineTarget : public Target
{
  public:
    EngineTarget(const RoutingTable &t, const ChiselConfig &c)
        : engine_(std::make_unique<ChiselEngine>(t, c))
    {}

    void apply(const Update &u) override { engine_->apply(u); }

    LookupResult
    lookup(const Key128 &key) const override
    {
        return engine_->lookup(key);
    }

    void purgeDirty() override { engine_->purgeDirty(); }
    void scrub() override { engine_->scrub(); }
    bool selfCheck() const override { return engine_->selfCheck(); }

    std::string
    roundTrip() override
    {
        std::vector<uint8_t> image =
            persist::encodeSnapshotImage(*engine_, 0);
        persist::SnapshotLoadResult r = persist::loadSnapshotBuffer(
            image.data(), image.size(), &engine_->config());
        if (r.status != persist::SnapshotLoadStatus::Ok)
            return "snapshot load failed: " + r.error;
        if (persist::encodeSnapshotImage(*r.engine, 0) != image)
            return "re-saved snapshot differs";
        engine_ = std::move(r.engine);
        return {};
    }

  private:
    std::unique_ptr<ChiselEngine> engine_;
};

/** No control thread and a manual TTL clock: fully deterministic. */
inline concurrent::ConcurrentOptions
syncOptions()
{
    concurrent::ConcurrentOptions o;
    o.controlThread = false;
    o.ttlWallClock = false;
    return o;
}

class ConcurrentTarget : public Target
{
  public:
    ConcurrentTarget(const RoutingTable &t, const ChiselConfig &c)
        : engine_(t, c, syncOptions())
    {}

    void apply(const Update &u) override { engine_.apply(u); }

    LookupResult
    lookup(const Key128 &key) const override
    {
        return engine_.lookup(key);
    }

    void purgeDirty() override { engine_.purgeDirtyNow(); }
    void scrub() override { engine_.scrubNow(); }
    bool selfCheck() const override { return engine_.selfCheck(); }
    std::string roundTrip() override { return roundTripConcurrent(engine_); }

    std::string
    imagesIdentical() override
    {
        return imagesIdenticalConcurrent(engine_);
    }

  private:
    concurrent::ConcurrentChisel engine_;
};

class ShardedTarget : public Target
{
  public:
    ShardedTarget(const RoutingTable &t, const ChiselConfig &c,
                  size_t shards)
        : plane_(t, options(c, shards))
    {}

    void apply(const Update &u) override { plane_.apply(u); }

    LookupResult
    lookup(const Key128 &key) const override
    {
        return plane_.lookup(key);
    }

    void
    purgeDirty() override
    {
        for (size_t i = 0; i < plane_.shards(); ++i)
            plane_.shardEngine(i).purgeDirtyNow();
    }

    void
    scrub() override
    {
        for (size_t i = 0; i < plane_.shards(); ++i)
            plane_.shardEngine(i).scrubNow();
    }

    bool selfCheck() const override { return plane_.selfCheck(); }

    std::string
    roundTrip() override
    {
        return eachShard(roundTripConcurrent);
    }

    std::string
    imagesIdentical() override
    {
        return eachShard(imagesIdenticalConcurrent);
    }

  private:
    std::string
    eachShard(std::string (*check)(concurrent::ConcurrentChisel &))
    {
        for (size_t i = 0; i < plane_.shards(); ++i) {
            std::string err = check(plane_.shardEngine(i));
            if (!err.empty())
                return "shard " + std::to_string(i) + ": " + err;
        }
        return {};
    }

    static shard::ShardedOptions
    options(const ChiselConfig &c, size_t shards)
    {
        shard::ShardedOptions o;
        o.shards = shards;
        o.config = c;
        o.engine = syncOptions();
        return o;
    }

    shard::ShardedChisel plane_;
};

/**
 * A journaled one-shard plane on a scratch directory (fsyncEvery 0).
 * Its round trip is a warm restart: the plane is destroyed and
 * reopened on the same directory, alternately right after
 * saveSnapshots() and with the journal tail left to replay.  After a
 * restart the plane must report a recovery from its snapshot with a
 * passing audit, its images must encode alike, and the snapshot it
 * re-saves on boot must equal the pre-restart state's bytes.  With
 * BitFlip faults armed a tail restart is exempt from that last check:
 * the flips, and the parity recoveries that undo them, are not
 * journaled, so replay cannot reproduce their counters.
 */
class JournaledTarget : public Target
{
  public:
    JournaledTarget(const RoutingTable &t, const ChiselConfig &c,
                    bool faults)
        : initial_(t), config_(c), faults_(faults),
          dir_(scratchPath("plane"))
    {
        open();
    }

    ~JournaledTarget() override
    {
        plane_.reset();
        std::filesystem::remove_all(dir_);
    }

    void apply(const Update &u) override { plane_->apply(u); }

    LookupResult
    lookup(const Key128 &key) const override
    {
        return plane_->lookup(key);
    }

    void purgeDirty() override { plane_->shardEngine(0).purgeDirtyNow(); }
    void scrub() override { plane_->shardEngine(0).scrubNow(); }
    bool selfCheck() const override { return plane_->selfCheck(); }

    std::string
    roundTrip() override
    {
        const bool saved = restarts_++ % 2 == 0;
        const std::string snapshot = dir_ + "/shard-0/snapshot.chs";
        std::vector<uint8_t> before;
        if (saved) {
            if (plane_->saveSnapshots() != 1)
                return "saveSnapshots() saved no shard";
            before = readBytes(snapshot);
        } else if (!faults_) {
            // A plain save: stamped with the journal head like the
            // boot checkpoint, and no mark to move the replay cut.
            const std::string state = scratchPath("state.snap");
            plane_->shardEngine(0).saveSnapshot(state);
            before = readBytes(state);
            std::filesystem::remove(state);
        }
        const std::string how =
            saved ? "restart after saveSnapshots(): "
                  : "restart replaying the journal tail: ";

        plane_.reset();
        open();
        const shard::ShardRecovery &rec = plane_->recovery()[0];
        if (rec.source != persist::RecoverySource::Snapshot)
            return how + "recovered from " +
                   persist::recoverySourceName(rec.source);
        if (!rec.auditPassed)
            return how + "recovery audit failed";
        if (saved && rec.recordsReplayed != 0)
            return how + "replayed " +
                   std::to_string(rec.recordsReplayed) + " records";
        if (!before.empty() && readBytes(snapshot) != before)
            return how + "re-saved snapshot differs";
        std::string err = imagesIdentical();
        return err.empty() ? err : how + err;
    }

    std::string
    imagesIdentical() override
    {
        return imagesIdenticalConcurrent(plane_->shardEngine(0));
    }

  private:
    void
    open()
    {
        shard::ShardedOptions o;
        o.shards = 1;
        o.config = config_;
        o.engine = syncOptions();
        o.persistDir = dir_;
        o.fsyncEvery = 0;
        o.audit = true;
        plane_ = std::make_unique<shard::ShardedChisel>(initial_, o);
    }

    RoutingTable initial_;
    ChiselConfig config_;
    bool faults_;
    std::string dir_;
    size_t restarts_ = 0;
    std::unique_ptr<shard::ShardedChisel> plane_;
};

/** @p faults: the program arms the BitFlip* points. */
inline std::unique_ptr<Target>
makeTarget(Layer layer, const RoutingTable &t, const ChiselConfig &c,
           bool faults)
{
    switch (layer) {
      case Layer::Engine: return std::make_unique<EngineTarget>(t, c);
      case Layer::Concurrent:
        return std::make_unique<ConcurrentTarget>(t, c);
      case Layer::Sharded1:
        return std::make_unique<ShardedTarget>(t, c, 1);
      case Layer::Sharded4:
        return std::make_unique<ShardedTarget>(t, c, 4);
      case Layer::Journaled1:
        return std::make_unique<JournaledTarget>(t, c, faults);
    }
    return nullptr;
}

/** One program step: updates to apply, and housekeeping flags. */
struct Step
{
    std::vector<Update> updates;
    bool purge = false;
};

/**
 * Seeded generator of update programs.  It tracks the live route set
 * itself, so withdraws and expires usually name present prefixes and
 * flaps re-announce what they just withdrew.
 */
class ProgramGenerator
{
  public:
    ProgramGenerator(unsigned key_width, uint64_t seed)
        : width_(key_width), rng_(seed)
    {
        for (int i = 0; i < 6; ++i)
            anchors_.push_back(randomKey());
        // A hot band of lengths concentrates groups in a few cells so
        // they fill, empty and refill; the rest spreads everywhere.
        bandLo_ = key_width <= 32 ? 16 : 28;
        bandHi_ = key_width <= 32 ? 28 : 64;
    }

    /** An initial table that shapes the collapse plan. */
    RoutingTable
    initialTable(size_t routes)
    {
        RoutingTable t;
        for (size_t i = 0; i < routes; ++i) {
            Prefix p = drawPrefix();
            NextHop nh = drawHop();
            t.add(p, nh);
            live_[p] = nh;
        }
        return t;
    }

    Step
    next()
    {
        Step s;
        uint64_t r = rng_.nextBelow(100);
        if (r < 40 || live_.empty()) {
            announce(s, drawPrefix(), drawHop());
        } else if (r < 55) {
            announce(s, pickLive(), drawHop());   // Next-hop change.
        } else if (r < 75) {
            remove(s, pickLive(), UpdateKind::Withdraw);
        } else if (r < 78) {
            remove(s, drawPrefix(), UpdateKind::Withdraw);
        } else if (r < 86) {
            remove(s, pickLive(), UpdateKind::Expire);
        } else if (r < 95) {
            Prefix p = pickLive();   // Flap: withdraw, then restore.
            remove(s, p, UpdateKind::Withdraw);
            announce(s, p, drawHop());
        } else if (r < 98) {
            drainBand(s);
        } else {
            s.purge = true;
        }
        return s;
    }

    unsigned keyWidth() const { return width_; }

    Key128
    randomKey()
    {
        return fromU128(toU128(Key128(rng_.next64(), rng_.next64())) &
                        leadingMask(width_));
    }

  private:
    Prefix
    drawPrefix()
    {
        uint64_t r = rng_.nextBelow(100);
        if (r < 2)
            return Prefix();   // The default route.
        unsigned len =
            rng_.nextBool(0.6)
                ? static_cast<unsigned>(rng_.nextRange(bandLo_, bandHi_))
                : static_cast<unsigned>(rng_.nextRange(1, width_));
        U128 bits = toU128(randomKey());
        if (r < 90) {
            // Near an anchor: share all but the last few bits, so new
            // prefixes land on existing groups and siblings.
            unsigned shared =
                len > 6 ? len - static_cast<unsigned>(rng_.nextBelow(7))
                        : 0;
            U128 anchor = toU128(anchors_[rng_.nextBelow(anchors_.size())]);
            U128 keep = leadingMask(shared);
            bits = (anchor & keep) | (bits & ~keep);
        }
        return Prefix(fromU128(bits), len);
    }

    NextHop drawHop() { return static_cast<NextHop>(1 + rng_.nextBelow(4)); }

    Prefix
    pickLive()
    {
        auto it = live_.begin();
        std::advance(it, static_cast<long>(rng_.nextBelow(live_.size())));
        return it->first;
    }

    void
    announce(Step &s, const Prefix &p, NextHop nh)
    {
        Update u;
        u.kind = UpdateKind::Announce;
        u.prefix = p;
        u.nextHop = nh;
        s.updates.push_back(u);
        live_[p] = nh;
    }

    void
    remove(Step &s, const Prefix &p, UpdateKind kind)
    {
        Update u;
        u.kind = kind;
        u.prefix = p;
        s.updates.push_back(u);
        live_.erase(p);
    }

    /** Withdraw every live prefix in one cell-sized length band. */
    void
    drainBand(Step &s)
    {
        unsigned lo = static_cast<unsigned>(rng_.nextRange(1, width_));
        std::vector<Prefix> victims;
        for (const auto &[p, nh] : live_) {
            (void)nh;
            if (p.length() >= lo && p.length() <= lo + 4)
                victims.push_back(p);
        }
        for (const Prefix &p : victims)
            remove(s, p, UpdateKind::Withdraw);
    }

    unsigned width_;
    Rng rng_;
    std::vector<Key128> anchors_;
    unsigned bandLo_;
    unsigned bandHi_;
    std::map<Prefix, NextHop> live_;
};

/** What one program run covers. */
struct ProgramOptions
{
    Layer layer = Layer::Engine;
    unsigned keyWidth = 32;
    /** Collapse stride of the engines under test. */
    unsigned stride = 4;
    uint64_t seed = 1;
    size_t steps = 300;
    size_t initialRoutes = 48;
    /** Arm every BitFlip* point while updates apply; scrub before checks. */
    bool faults = false;
    /** Steps between save/restore round trips and self-checks. */
    size_t roundTripEvery = 50;
    /** Random keys checked after every step. */
    size_t randomKeys = 8;
};

/** Compare @p target with @p oracle on @p keys. */
inline std::string
checkKeys(const Target &target, const BinaryTrie &oracle, unsigned width,
          const std::vector<Key128> &keys)
{
    for (const Key128 &key : keys) {
        std::optional<Route> want = oracle.lookup(key, width);
        LookupResult got = target.lookup(key);
        bool ok = want.has_value() == got.found;
        if (ok && want) {
            ok = want->nextHop == got.nextHop &&
                 want->prefix.length() == got.matchedLength;
        }
        if (!ok) {
            return "key " + key.toBitString(width) + ": oracle " +
                   (want ? want->prefix.str() + " -> " +
                               std::to_string(want->nextHop)
                         : std::string("miss")) +
                   ", layer " +
                   (got.found ? "/" + std::to_string(got.matchedLength) +
                                    " -> " + std::to_string(got.nextHop)
                              : std::string("miss"));
        }
    }
    return {};
}

/**
 * Run one program.  @return an empty string on success, otherwise
 * the first failure with the step it happened at.
 */
inline std::string
runProgram(const ProgramOptions &opt)
{
    ProgramGenerator gen(opt.keyWidth, opt.seed);
    RoutingTable initial = gen.initialTable(opt.initialRoutes);
    BinaryTrie oracle(initial);
    std::unique_ptr<Target> target =
        makeTarget(opt.layer, initial,
                   tinyConfig(opt.keyWidth, opt.seed * 7 + 3, opt.stride),
                   opt.faults);

    fault::FaultInjector injector(opt.seed ^ 0xF1A9);
    for (fault::FaultPoint p :
         {fault::FaultPoint::BitFlipIndex, fault::FaultPoint::BitFlipFilter,
          fault::FaultPoint::BitFlipBitVector,
          fault::FaultPoint::BitFlipResult})
        injector.arm(p, 0.1);

    auto fail = [&](size_t step, const std::string &what) {
        return std::string(layerName(opt.layer)) + " w" +
               std::to_string(opt.keyWidth) + " stride " +
               std::to_string(opt.stride) + " seed " +
               std::to_string(opt.seed) + " step " +
               std::to_string(step) + ": " + what;
    };

    std::vector<Key128> keys;
    for (size_t step = 1; step <= opt.steps; ++step) {
        Step s = gen.next();
        keys.clear();
        {
            fault::ScopedInjector scope(opt.faults ? &injector : nullptr);
            for (const Update &u : s.updates) {
                target->apply(u);
                if (u.kind == UpdateKind::Announce)
                    oracle.insert(u.prefix, u.nextHop);
                else
                    oracle.erase(u.prefix);
                boundaryKeys(u.prefix, opt.keyWidth, keys);
            }
        }
        if (s.purge)
            target->purgeDirty();
        if (opt.faults)
            target->scrub();
        for (size_t i = 0; i < opt.randomKeys; ++i)
            keys.push_back(gen.randomKey());

        std::string err = checkKeys(*target, oracle, opt.keyWidth, keys);
        if (!err.empty())
            return fail(step, err);

        if (step % opt.roundTripEvery == 0 || step == opt.steps) {
            if (!target->selfCheck())
                return fail(step, "selfCheck failed");
            if (!opt.faults) {
                err = target->imagesIdentical();
                if (!err.empty())
                    return fail(step, err);
            }
            err = target->roundTrip();
            if (!err.empty())
                return fail(step, err);
            if (!target->selfCheck())
                return fail(step, "selfCheck failed after restore");
        }
    }
    return {};
}

} // namespace chisel::differential

#endif // CHISEL_TESTS_DIFFERENTIAL_HH
