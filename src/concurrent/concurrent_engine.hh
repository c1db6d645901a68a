/**
 * @file
 * ConcurrentChisel: the Chisel engine under N reader threads and one
 * logical writer, with no reader-visible stalls (docs/concurrency.md).
 *
 * The hardware pipeline the paper models serves lookups every cycle
 * while the control processor rewrites tables; this wrapper gives the
 * software model the same property.  It keeps ONE writer-owned
 * control state (a ChiselEngine) and TWO reader images (EngineImage:
 * every word a lookup reads), and publishes one image through a single
 * atomic pointer:
 *
 *  - readers enter an epoch-protected critical section, load the live
 *    pointer (acquire) and run the image's lookup against words the
 *    writer is guaranteed not to touch.  Reader entry, the lookup
 *    itself and exit perform no locks, no CAS, no retries;
 *  - the writer applies each update ONCE, through the control state,
 *    to the *idle* image, naming every word it writes in a WriteLog;
 *    stamps the generation, flips the pointer (release), waits one
 *    epoch grace period (all readers past the flip), then copies
 *    exactly the logged words onto the retired image — the paper's
 *    update model (Section 4.4), in which one software shadow
 *    computes an update and only the changed words reach the
 *    hardware.  At construction, resetup, resize or snapshot restore
 *    one engine is built or decoded and its image copied, and the
 *    pair is published with the same flip + grace protocol.
 *
 * A lookup that hits a parity error cannot answer from the image
 * alone: it leaves its epoch section, takes the writer lock and
 * answers through the engine's own path, which falls back to the
 * shadow.  It must leave the section first, since the writer may hold
 * that lock inside a grace period that waits for this very section.
 * So lookups are wait-free except after a soft error.
 *
 * Every published image carries a generation (the count of updates
 * folded in), so a reader can tag each lookup with the exact table
 * version that served it — the stress tests validate every tagged
 * result against a trie oracle replayed to that generation.
 *
 * Every update enters through apply(), on whichever thread calls it,
 * serialized by the writer lock.  One optional maintenance thread runs
 * the timers that are set — health sampling, TTL garbage collection
 * and the parity scrub, which walks both images' parity words and
 * recovers by resetup on the idle one, off the reader critical path —
 * and sleeps until the next one is due.
 *
 * An engine handed a write-ahead journal is its only writer: every
 * record of its history (updates and their outcomes, resize marks,
 * dirty purges, snapshot marks) is appended under the writer lock in
 * the order the images changed, and every snapshot restore replays
 * the journal tail past the restored image (docs/persistence.md).  A
 * replicated leader is such an engine with a replica::ReplicationLog
 * observing its journal (docs/replication.md).
 */

#ifndef CHISEL_CONCURRENT_CONCURRENT_ENGINE_HH
#define CHISEL_CONCURRENT_CONCURRENT_ENGINE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "concurrent/epoch.hh"
#include "core/engine.hh"
#include "health/monitor.hh"
#include "persist/journal.hh"
#include "route/updates.hh"

namespace chisel::fault { class FaultInjector; }
namespace chisel::persist { struct SnapshotLoadResult; }

namespace chisel::concurrent {

/** A lookup result tagged with the generation that produced it. */
struct TaggedLookup
{
    LookupResult result;

    /** Updates folded into the image that served this lookup. */
    uint64_t generation = 0;
};

/** Construction options for ConcurrentChisel. */
struct ConcurrentOptions
{
    /**
     * Run the timers that are set (healthInterval, gcInterval,
     * scrubInterval) on one background maintenance thread, which
     * sleeps until the next one is due and starts only when at least
     * one is set.  Off, nothing runs in the background: the caller
     * ticks healthTick(), gcTick() and scrubNow() itself.
     */
    bool controlThread = true;

    /**
     * Background scrub cadence; zero disables it.  Each pass verifies
     * every parity word of both images and recovers corrupted cells
     * by resetup (docs/concurrency.md).
     */
    std::chrono::milliseconds scrubInterval{0};

    /**
     * Health sampling cadence on the maintenance thread; zero disables
     * it (healthTick() remains callable directly).  Each sample steps
     * the health-state machine and executes the recommended recovery
     * action.
     */
    std::chrono::milliseconds healthInterval{0};

    /** The monitor's resize streak. */
    health::MonitorConfig health;

    /**
     * Known-good snapshot backing the SnapshotRestore ladder rung;
     * empty, that rung reports failure and the ladder re-escalates
     * through Resetup.
     */
    std::string recoverySnapshotPath;

    /**
     * When non-null, installed thread-locally around every apply,
     * whichever thread calls it, and for the maintenance thread's
     * whole loop: chaos runs fault the engine's writes without arming
     * the reader threads.  Null leaves a caller's own ScopedInjector
     * in place.
     */
    fault::FaultInjector *faultInjector = nullptr;

    /**
     * TTL garbage-collection cadence on the maintenance thread; zero
     * disables background GC (gcTick() remains callable directly).
     * Each pass retires at most gcBatch expired entries, each as a
     * first-class Expire update through the ordinary apply path —
     * journal-visible, replication-visible, flip-published.
     */
    std::chrono::milliseconds gcInterval{0};

    /** Max entries retired per GC pass (bounds writer-lock hold). */
    size_t gcBatch = 256;

    /**
     * Drive the TTL clock from wall time (steady clock since
     * construction).  Off, the clock only moves via advanceTtlClock()
     * — deterministic tests pick exactly when entries expire.
     */
    bool ttlWallClock = true;
};

/**
 * Thread-safe facade over one engine and two reader images.
 *
 * Thread roles: any number of lookup threads; any number of threads
 * may call the update entry points (serialized on an internal mutex).
 */
class ConcurrentChisel
{
  public:
    /** Serve a fresh engine built from @p initial under @p config. */
    explicit ConcurrentChisel(const RoutingTable &initial,
                              const ChiselConfig &config = {},
                              const ConcurrentOptions &options = {});

    /**
     * Serve @p engine (built, decoded or recovered by the caller): it
     * becomes the control state, its image the live one and a copy of
     * that image the other; the config is the engine's own.  With
     * @p journal, this engine becomes that journal's only writer:
     * updates, GC Expires, resizes and purges are appended under the
     * writer lock in exactly the order the images change, so no
     * record can land out of order.
     */
    explicit ConcurrentChisel(
        std::unique_ptr<ChiselEngine> engine,
        const ConcurrentOptions &options = {},
        std::unique_ptr<persist::UpdateJournal> journal = nullptr);

    /** Joins the maintenance thread, then closes the journal. */
    ~ConcurrentChisel();

    ConcurrentChisel(const ConcurrentChisel &) = delete;
    ConcurrentChisel &operator=(const ConcurrentChisel &) = delete;

    // ---- Read side (any thread; wait-free unless a parity error) -----

    /** Longest-prefix match against the live image. */
    LookupResult lookup(const Key128 &key) const;

    /** lookup() plus the generation of the image that served it. */
    TaggedLookup lookupTagged(const Key128 &key) const;

    /** Generation of the currently-live image. */
    uint64_t generation() const;

    // ---- Write side (any thread, serialized internally) ------------

    /**
     * BGP announce, applied once and replayed onto the other image.
     * @param ttl_ms Per-route TTL override: 0 uses the config default,
     *        kTtlNever pins the route against expiry.
     */
    UpdateOutcome announce(const Prefix &prefix, NextHop next_hop,
                           uint32_t ttl_ms = 0);

    /** BGP withdraw, likewise. */
    UpdateOutcome withdraw(const Prefix &prefix);

    /**
     * Apply one trace update.  With a journal, its Update record is
     * appended (and flushed) before either image changes and its
     * Outcome record after both have; a refused append (a latched I/O
     * failure) rejects the update and leaves state untouched.
     * @p journal_seq, when given, receives the update's journal seq
     * (0: none).
     */
    UpdateOutcome apply(const Update &update,
                        uint64_t *journal_seq = nullptr);

    // ---- Scrubbing -------------------------------------------------

    /**
     * One synchronous scrub pass: verify both images' parity words
     * (read-only, so the live one too), recover the union of bad cells
     * once on the idle image, then publish it and replay the recovered
     * words onto the other — one flip.  Also run by the maintenance
     * thread every scrubInterval.
     */
    ScrubReport scrubNow();

    /** Scrub passes completed (either path). */
    uint64_t scrubPasses() const;

    // ---- Health ----------------------------------------------------

    /**
     * One synchronous purgeDirty(), on the idle image, published with
     * one flip and replayed onto the other, so readers never see a
     * purge in progress.  With a journal, a Housekeeping(PurgeDirty)
     * record goes first, so replay re-runs the purge between the same
     * two updates; a refused append skips the purge.  @return dirty
     * groups dismantled.
     */
    size_t purgeDirtyNow();

    /** Current health state (Healthy when the monitor never ran). */
    health::HealthState healthState() const { return monitor_.state(); }

    /** The state machine itself (counters, publish()). */
    const health::HealthMonitor &monitor() const { return monitor_; }

    /** Mutable monitor access (promotion records a failover on it). */
    health::HealthMonitor &monitor() { return monitor_; }

    /**
     * Sample signals, step the state machine, and execute at most one
     * recovery action.  The sample counts the events the writer
     * published since the previous tick; it reads no image counter.
     * Runs periodically on the maintenance thread
     * when options.healthInterval > 0; also callable directly (tests,
     * chaos harness).  @return the state after the sample.
     */
    health::HealthState healthTick();

    // ---- TTL expiry ------------------------------------------------

    /**
     * One garbage-collection pass: advance the TTL clock, collect up
     * to @p max_batch expired prefixes (0 = options.gcBatch) and
     * retire each as an Expire update through the normal apply path —
     * journaled, counted, flip-published like any withdraw.  Runs
     * periodically on the maintenance thread when options.gcInterval
     * > 0.
     * @return entries expired this pass.
     */
    size_t gcTick(size_t max_batch = 0);

    /**
     * Advance the logical TTL clock by @p ms (ttlWallClock == false).
     * The next gcTick() observes the new time.
     */
    void advanceTtlClock(uint64_t ms);

    /** Entries retired by TTL expiry since construction. */
    uint64_t expired() const
    {
        return expired_.load(std::memory_order_relaxed);
    }

    // ---- Live resize -----------------------------------------------

    /**
     * Capacity-driven live resize: re-plan a grown config from the
     * current load (core/resize.hh), rebuild the engine from the
     * route set off the serving path, copy its image, and publish with
     * one pointer flip — lookups are not blocked, and slow-path
     * residents drain back into the grown tables.  A journaled engine
     * appends a ResizeMark carrying the grown config.  @return false
     * (no-op) when the plan does not grow the engine.
     */
    bool resizeNow();

    /**
     * Adopt @p target as the new capacity plan (replica follower
     * tracking a leader's ResizeMark).  Idempotent when the engine
     * already runs @p target; refused (false) when @p target is not
     * elastic-compatible with the current geometry.
     */
    bool resizeTo(const ChiselConfig &target);

    /** Live resizes published since construction. */
    uint64_t resizes() const
    {
        return resizes_.load(std::memory_order_relaxed);
    }

    /** Slow-path residents drained back by rebuilds/resizes. */
    uint64_t slowPathDrained() const
    {
        return slowPathDrained_.load(std::memory_order_relaxed);
    }

    // ---- Snapshots and rebuilds ------------------------------------

    /**
     * Write a snapshot of the current state WITHOUT stalling readers:
     * the control state and the idle image (identical to the live
     * one: lookups write nothing) are serialized under the writer
     * lock, so only updates wait.  The image is stamped with the
     * journal's lastSeq(), or with the update count without a
     * journal.  It appends no SnapshotMark (see checkpoint()): a stray
     * mark would hide the housekeeping records before it from replay.
     * @return bytes written.
     */
    size_t saveSnapshot(const std::string &path) const;

    /**
     * Checkpoint a journaled engine: save the recovery snapshot
     * (options.recoverySnapshotPath) stamped with the journal's
     * lastSeq(), append the SnapshotMark that covers it and sync,
     * all in one hold of the writer lock, so no record lands between
     * the image and its mark.  A save that fails (write, fsync or
     * rename) warns and appends no mark: the journal still holds
     * every record, so a warm restart only replays a longer tail.
     * @return bytes written; 0 when the save failed, or without a
     * journal or a recovery path.
     */
    size_t checkpoint();

    /**
     * The bytes saveSnapshot() would write, stamped and taken in one
     * hold of the writer lock the same way: a replication
     * SnapshotProvider ships them without touching the disk.
     * @p covered_seq, when given, receives the seq the image is
     * stamped with.
     */
    std::vector<uint8_t> snapshotImage(uint64_t *covered_seq = nullptr) const;

    /**
     * Replace the routing state from a snapshot file, read once, and
     * publish it with one pointer flip; readers never observe a
     * partially-loaded table.  A journaled engine first replays the
     * journal tail past the image (persist::replayTail), holding the
     * writer lock from the journal scan to the flip, so it serves
     * every update its journal holds; without a journal the decoded
     * engine's image is copied before the lock is taken.  A snapshot
     * written after a live resize differs from the running config
     * only in elastic capacities: it is accepted and its plan
     * adopted, exactly as a warm restart does.  @return false (state
     * unchanged) if the snapshot does not load cleanly.
     */
    bool restoreFromSnapshot(const std::string &path);

    /**
     * restoreFromSnapshot() over an in-memory snapshot image (a
     * follower installing a shipped one): the same CRC, version and
     * config checks, and no file.
     */
    bool restoreFromImage(const std::vector<uint8_t> &image);

    /**
     * Full resetup: rebuild the current route set with capacities
     * re-sized to the live load, publishing it with one flip.
     * Readers see either the old table or the new one, never a
     * construction site.
     */
    void resetup();

    // ---- Introspection ---------------------------------------------

    /** Routes currently stored. */
    size_t routeCount() const;

    /** Robustness counters of the one control state. */
    RobustnessCounters robustness() const;

    /** Dirty groups retained for flap damping (§4.4.1). */
    size_t dirtyCount() const;

    /** High-water mark of dirty retention since construction. */
    size_t dirtyPeak() const;

    /** Exact-prefix query (serialized with updates). */
    std::optional<NextHop> find(const Prefix &prefix) const;

    /** Updates applied through this wrapper. */
    uint64_t updatesApplied() const;

    /** The running config (a copy: a resize may replace it). */
    ChiselConfig config() const;

    /**
     * Deep consistency check of both images against the one control
     * state (tests; takes the lock).
     */
    bool selfCheck() const;

    // ---- Journal (each takes the writer lock) ------------------------

    /** Seq of the last journaled update (0 without a journal). */
    uint64_t journalSeq() const;

    /** Highest seq an fsync covers (0 without a journal). */
    uint64_t lastDurableSeq() const;

    /**
     * Block until @p seq is fsync-durable (UpdateJournal::
     * ensureDurable); false without a journal.
     */
    bool ensureDurable(uint64_t seq);

  private:
    /** One publishable image. */
    struct Image
    {
        EngineImage *image = nullptr;

        /** Updates folded in; stamped before the image goes live. */
        std::atomic<uint64_t> generation{0};
    };

    /** The image the live pointer does NOT currently reference. */
    Image &idleImage();

    /**
     * The slow half of a lookup whose image read failed parity: under
     * the writer lock, the engine's own path over the live image,
     * which answers from the shadow.  The caller has left its epoch
     * section.
     */
    TaggedLookup softLookup(const Key128 &key) const;

    /**
     * Journal @p update, then apply it once to the idle image and
     * commit(); @p journal_seq receives its seq when non-null.
     */
    UpdateOutcome applyLocked(const Update &update,
                              uint64_t *journal_seq = nullptr);

    /** Flip the live pointer to @p image and wait out the readers. */
    void publish(Image &image);

    /**
     * Publish the idle image (the one the engine just wrote), copy the
     * words the write log names onto the retired one, and make that
     * the engine's target; caller holds writerMutex_.
     */
    void commit();

    /**
     * Serve @p engine and @p twin, a copy of its image, with one flip
     * and adopt their config; caller holds writerMutex_ (or is the
     * constructor).
     */
    void install(std::unique_ptr<ChiselEngine> engine,
                 std::unique_ptr<EngineImage> twin);

    /**
     * Install a loaded snapshot's engine, replaying the journal tail
     * into it first; false unless it loaded.
     */
    bool restoreLoaded(persist::SnapshotLoadResult &&loaded);

    /** Take and clear the tally; add the idle image's occupancies. */
    health::HealthSignals collectSignals();

    /** Run one recovery action; @return success. */
    bool executeAction(health::RecoveryAction action);

    /**
     * A snapshot's seq stamp: the journal's lastSeq(), or the update
     * count without a journal; caller holds writerMutex_.
     */
    uint64_t stampLocked() const;

    /** Current TTL time in ms (wall or manual clock). */
    uint64_t ttlNowMs() const;

    /** resizeNow/resizeTo body; caller holds writerMutex_. */
    bool resizeLocked(const ChiselConfig &grown);

    /**
     * The maintenance thread: run each timer that is set when it is
     * due, and sleep until the earliest next deadline or shutdown.
     */
    void controlLoop();

    /** Written under writerMutex_ (install); read it under the lock. */
    ChiselConfig config_;
    ConcurrentOptions options_;

    /**
     * The write-ahead journal this engine alone writes (null: none);
     * every call on it is made under writerMutex_.
     */
    std::unique_ptr<persist::UpdateJournal> journal_;

    /**
     * The control state: the one engine, bound to the idle image
     * between updates.  Its own image is one of the two.
     */
    std::unique_ptr<ChiselEngine> engine_;

    /** The other image: a copy of the engine's own. */
    std::unique_ptr<EngineImage> twin_;

    /** Image words the current update wrote (reused). */
    WriteLog log_;

    Image images_[2];
    std::atomic<Image *> live_;

    mutable EpochManager epochs_;

    /** Serializes updates, scrubs, snapshots, rebuilds and journal calls. */
    mutable std::mutex writerMutex_;

    /**
     * Events published since the last health sample: each applied
     * update's and each scrub pass's recovered cells; rebuilds
     * (install) add none.  Guarded by writerMutex_; collectSignals()
     * takes and clears it.
     */
    health::HealthSignals events_;

    /** Updates applied (== generation of the freshest image). */
    std::atomic<uint64_t> updatesApplied_{0};
    std::atomic<uint64_t> scrubPasses_{0};
    std::atomic<uint64_t> expired_{0};
    std::atomic<uint64_t> resizes_{0};
    std::atomic<uint64_t> slowPathDrained_{0};

    /** Epoch of the wall TTL clock (ttlWallClock). */
    std::chrono::steady_clock::time_point ttlEpoch_;

    /** Manual TTL clock in ms (ttlWallClock == false). */
    std::atomic<uint64_t> ttlManualMs_{0};

    health::HealthMonitor monitor_;

    /** Serializes healthTick() callers (maintenance thread + tests). */
    mutable std::mutex healthMutex_;


    /** Guards stop_; the maintenance thread sleeps on timerWake_. */
    std::mutex timerMutex_;
    std::condition_variable timerWake_;
    bool stop_ = false;

    /** Last, so every member the thread uses outlives it. */
    std::thread controlThread_;
};

} // namespace chisel::concurrent

#endif // CHISEL_CONCURRENT_CONCURRENT_ENGINE_HH
