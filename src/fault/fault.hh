/**
 * @file
 * Deterministic, seedable fault injection.
 *
 * The robustness story of Section 4.4 rests on rare events — Bloomier
 * setup failures, inserts with no singleton slot, spillover-TCAM
 * overflow — plus the soft errors any SRAM/eDRAM deployment must
 * survive.  None of these can be provoked reliably from the outside,
 * so the hardened paths they trigger would otherwise ship untested.
 * This header plants explicit injection points at each of them.
 *
 * The design mirrors the tracing hooks (telemetry/trace.hh):
 *
 *  - compiled out entirely when CHISEL_FAULT_INJECTION_ENABLED is 0
 *    (CMake option CHISEL_ENABLE_FAULT_INJECTION=OFF), leaving zero
 *    code at every injection point;
 *  - when compiled in, each point is a thread-local pointer load and
 *    predictable branch while no injector is installed — the default
 *    state, so production behaviour is unchanged;
 *  - an installed FaultInjector decides each firing from an
 *    explicitly seeded Rng, so a failing fault scenario replays
 *    exactly from its seed.
 *
 * Usage:
 *
 *     fault::FaultInjector inj(1234);
 *     inj.arm(fault::FaultPoint::TcamOverflow, 1.0, 3);
 *     fault::ScopedInjector scope(&inj);
 *     engine.announce(...);   // next 3 TCAM inserts report "full"
 */

#ifndef CHISEL_FAULT_FAULT_HH
#define CHISEL_FAULT_FAULT_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/random.hh"
#include "telemetry/flight.hh"
#include "concurrent/relaxed.hh"

#ifndef CHISEL_FAULT_INJECTION_ENABLED
#define CHISEL_FAULT_INJECTION_ENABLED 1
#endif

namespace chisel::fault {

/**
 * Where a fault can be injected — the taxonomy of
 * docs/robustness.md.
 */
enum class FaultPoint : uint8_t
{
    /**
     * Bloomier peeling failure: one extra entry is force-evicted
     * during a partition rebuild/setup, as if the hash functions had
     * produced an unpeelable core (exercises reseed-retry and the
     * spillover TCAM).
     */
    BloomierSetupFail,

    /**
     * Suppress the singleton fast path of an Index insert, forcing
     * the O(partition) rebuild (Figure 14's rare "Resetups" class).
     */
    ForceNonSingleton,

    /**
     * A bounded TCAM reports "full" on insert even when it has room
     * (exercises the software slow-path degradation ladder).
     */
    TcamOverflow,

    /** Soft error: flip one stored bit in an Index Table slot. */
    BitFlipIndex,

    /** Soft error: flip one stored bit in a Filter Table entry. */
    BitFlipFilter,

    /** Soft error: flip one stored bit in a Bit-vector Table entry. */
    BitFlipBitVector,

    /** Soft error: flip one stored bit in a Result Table slot. */
    BitFlipResult,

    /**
     * Crash mid-append: the journal writes only a leading fragment of
     * the current record and then behaves as if the process died —
     * subsequent appends are swallowed (docs/persistence.md).
     * Exercises torn-tail discard in the journal reader.
     */
    JournalTornWrite,

    /**
     * Flip one bit of a snapshot payload after its CRC was computed,
     * so the image on disk is internally inconsistent.  Exercises the
     * CRC gate and the fall-back-to-previous-snapshot ladder.
     */
    SnapshotCorrupt,

    /**
     * The journal's backing store refuses a write (the ENOSPC model):
     * no byte of the record lands, the journal latches ioFailed and
     * refuses all later appends.  Exercises the stop-acknowledging
     * degradation contract (docs/persistence.md).
     */
    JournalIoError,

    /**
     * The RPC service stops draining one connection's output queue
     * this poll round, as if the peer's receive window were stuck at
     * zero (the stalled-peer model).  Exercises the bounded output
     * queue and the write-stall disconnect (docs/service.md).
     */
    NetStalledPeer,

    /**
     * The RPC service writes only a prefix of the bytes it meant to
     * send this round, leaving the rest queued — a short write under
     * socket-buffer pressure.  Exercises partial-write resumption.
     */
    NetPartialWrite,

    /**
     * The RPC service hard-closes a connection after writing part of
     * a frame, so the client's reader sees a truncated frame at the
     * reset.  Exercises client-side poison-and-reconnect.
     */
    NetMidFrameReset,

    /**
     * An accepted connection is closed immediately, before any byte
     * is served (the accept-storm / overload-refusal model).
     * Exercises client connect-retry with backoff.
     */
    NetAcceptStorm,

    kCount,
};

constexpr size_t kFaultPointCount =
    static_cast<size_t>(FaultPoint::kCount);

/** Lower-case point name used in logs and test diagnostics. */
const char *faultPointName(FaultPoint p);

/**
 * Fault decision engine, shareable across threads.
 *
 * Each point is disarmed until arm()ed with a firing probability and
 * an optional budget of firings.  Decisions consume a PRNG in poll
 * order, so a fixed seed plus a fixed workload reproduces the exact
 * same fault schedule.
 *
 * Thread safety (docs/concurrency.md): one injector may be installed
 * on several threads at once.  Each thread draws from its own PRNG
 * stream, seeded `seed ^ (ordinal * golden_ratio)` where the ordinal
 * counts the order in which threads first touched this injector —
 * the first thread's stream is therefore byte-identical to the old
 * single-threaded injector, and every thread's schedule is
 * reproducible as long as the set of polling threads and their
 * per-thread poll orders are (cross-thread interleaving never mixes
 * streams).  Arm state and counters are atomics; polls and fires
 * tally across all threads.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(uint64_t seed);

    /**
     * Arm @p point: each poll fires with probability @p probability;
     * after @p max_fires firings (0 = unlimited) the point reverts to
     * inert.
     */
    void
    arm(FaultPoint point, double probability, uint64_t max_fires = 0)
    {
        State &s = state(point);
        s.probability.store(probability, std::memory_order_relaxed);
        s.maxFires = max_fires;
        // Armed last: a poll that sees armed also sees the params.
        s.armed.store(true, std::memory_order_release);
    }

    /** Disarm @p point (counters are retained). */
    void disarm(FaultPoint point) { state(point).armed = false; }

    /**
     * One poll of @p point: true if the fault fires now.  Called by
     * the injection sites via CHISEL_FAULT_FIRE.
     */
    bool
    shouldFire(FaultPoint point)
    {
        State &s = state(point);
        ++s.polls;
        if (!s.armed.load(std::memory_order_acquire))
            return false;
        uint64_t budget = s.maxFires;
        if (budget != 0 && s.fires >= budget)
            return false;
        if (!threadRng().nextBool(
                s.probability.load(std::memory_order_relaxed)))
            return false;
        ++s.fires;
        CHISEL_FLIGHT_EVENT(FaultFired, point, s.fires, 0);
        return true;
    }

    /**
     * Deterministic choice in [0, bound) for a firing fault's target
     * (which slot, which bit).  @p bound must be > 0.
     */
    uint64_t draw(uint64_t bound) { return threadRng().nextBelow(bound); }

    /** Polls of @p point so far (armed or not). */
    uint64_t polls(FaultPoint point) const
    {
        return stateOf(point).polls;
    }

    /** Firings of @p point so far. */
    uint64_t fires(FaultPoint point) const
    {
        return stateOf(point).fires;
    }

    /** Firings across all points. */
    uint64_t totalFires() const;

    /** This thread's ordinal for this injector (0 = first toucher). */
    uint64_t threadOrdinal();

  private:
    struct State
    {
        concurrent::RelaxedFlag armed;
        std::atomic<double> probability{0.0};
        concurrent::RelaxedU64 maxFires;
        concurrent::RelaxedU64 polls;
        concurrent::RelaxedU64 fires;
    };

    State &state(FaultPoint p)
    {
        return states_[static_cast<size_t>(p)];
    }
    const State &stateOf(FaultPoint p) const
    {
        return states_[static_cast<size_t>(p)];
    }

    /** This thread's PRNG stream for this injector. */
    Rng &threadRng();

    uint64_t seed_;
    uint64_t id_;   ///< Process-unique, keys the thread stream cache.
    std::atomic<uint64_t> nextOrdinal_{0};
    std::array<State, kFaultPointCount> states_{};
};

namespace detail {
/**
 * The thread's installed injector; nullptr disables every point.
 * constinit for the same reason as telemetry's g_activeTracer.
 */
extern constinit thread_local FaultInjector *g_activeInjector;
} // namespace detail

/** Injector currently installed on this thread, or nullptr. */
inline FaultInjector *
activeInjector()
{
#if CHISEL_FAULT_INJECTION_ENABLED
    return detail::g_activeInjector;
#else
    return nullptr;
#endif
}

/**
 * RAII install/restore of the thread's injector (nestable).  A no-op
 * shell when injection is compiled out.
 */
class ScopedInjector
{
  public:
#if CHISEL_FAULT_INJECTION_ENABLED
    explicit ScopedInjector(FaultInjector *injector)
        : prev_(detail::g_activeInjector)
    {
        detail::g_activeInjector = injector;
    }

    ~ScopedInjector() { detail::g_activeInjector = prev_; }
#else
    explicit ScopedInjector(FaultInjector *) {}
#endif

    ScopedInjector(const ScopedInjector &) = delete;
    ScopedInjector &operator=(const ScopedInjector &) = delete;

  private:
#if CHISEL_FAULT_INJECTION_ENABLED
    FaultInjector *prev_;
#endif
};

} // namespace chisel::fault

#if CHISEL_FAULT_INJECTION_ENABLED

/**
 * One poll of injection point @p point; evaluates to true when the
 * fault fires.  Usable directly in a condition:
 *
 *     if (CHISEL_FAULT_FIRE(TcamOverflow))
 *         return false;   // pretend the TCAM is full
 */
#define CHISEL_FAULT_FIRE(point)                                       \
    (::chisel::fault::activeInjector() != nullptr &&                   \
     ::chisel::fault::activeInjector()->shouldFire(                    \
         ::chisel::fault::FaultPoint::point))

#else

#define CHISEL_FAULT_FIRE(point) (false)

#endif // CHISEL_FAULT_INJECTION_ENABLED

#endif // CHISEL_FAULT_FAULT_HH
