#include "concurrent/concurrent_engine.hh"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

#include "common/logging.hh"
#include "core/resize.hh"
#include "fault/fault.hh"
#include "persist/recovery.hh"
#include "persist/snapshot.hh"

namespace chisel::concurrent {

ConcurrentChisel::ConcurrentChisel(const RoutingTable &initial,
                                   const ChiselConfig &config,
                                   const ConcurrentOptions &options)
    : ConcurrentChisel(std::make_unique<ChiselEngine>(initial, config),
                       options)
{
}

ConcurrentChisel::ConcurrentChisel(
    std::unique_ptr<ChiselEngine> engine, const ConcurrentOptions &options,
    std::unique_ptr<persist::UpdateJournal> journal)
    : options_(options), journal_(std::move(journal)),
      monitor_(options.health)
{
    ttlEpoch_ = std::chrono::steady_clock::now();
    // The twin is a copy, so the two images are identical by
    // construction; the update protocol keeps them that way.  No
    // reader exists yet: the first flip publishes images_[0].
    live_.store(&images_[1], std::memory_order_relaxed);
    auto twin = std::make_unique<EngineImage>(engine->image());
    install(std::move(engine), std::move(twin));

    bool timer_set = options_.healthInterval.count() > 0 ||
                     options_.gcInterval.count() > 0 ||
                     options_.scrubInterval.count() > 0;
    if (options_.controlThread && timer_set)
        controlThread_ = std::thread([this] { controlLoop(); });
}

ConcurrentChisel::~ConcurrentChisel()
{
    // The maintenance thread appends (GC Expires, health-ladder
    // purges and resizes): join it before journal_ goes with the
    // members.
    {
        std::lock_guard<std::mutex> lock(timerMutex_);
        stop_ = true;
    }
    timerWake_.notify_all();
    if (controlThread_.joinable())
        controlThread_.join();
}

// ---- Read side -------------------------------------------------------------

LookupResult
ConcurrentChisel::lookup(const Key128 &key) const
{
    {
        EpochManager::ReadGuard guard(epochs_);
        const Image *img = live_.load(std::memory_order_acquire);
        bool parity_ok = true;
        LookupResult out = img->image->lookup(key, &parity_ok);
        if (parity_ok) [[likely]]
            return out;
    }
    return softLookup(key).result;
}

TaggedLookup
ConcurrentChisel::lookupTagged(const Key128 &key) const
{
    {
        EpochManager::ReadGuard guard(epochs_);
        const Image *img = live_.load(std::memory_order_acquire);
        TaggedLookup out;
        // The generation was stamped before the image was published
        // and never changes while the image is live, so this relaxed
        // load is ordered by the acquire on the pointer.
        out.generation = img->generation.load(std::memory_order_relaxed);
        bool parity_ok = true;
        out.result = img->image->lookup(key, &parity_ok);
        if (parity_ok) [[likely]]
            return out;
    }
    return softLookup(key);
}

TaggedLookup
ConcurrentChisel::softLookup(const Key128 &key) const
{
    // Called outside the epoch section: the writer can hold this lock
    // inside synchronize(), waiting for that very section to end.
    std::lock_guard<std::mutex> lock(writerMutex_);
    TaggedLookup out;
    out.generation = updatesApplied_.load(std::memory_order_relaxed);
    // Under the lock both images hold every update; the live one is
    // where the reader most likely met the bad word, and the engine's
    // path over it answers from the shadow and flags the cell.
    out.result = engine_->lookupIn(
        *live_.load(std::memory_order_relaxed)->image, key);
    return out;
}

uint64_t
ConcurrentChisel::generation() const
{
    const Image *img = live_.load(std::memory_order_acquire);
    return img->generation.load(std::memory_order_relaxed);
}

// ---- Write side ------------------------------------------------------------

ConcurrentChisel::Image &
ConcurrentChisel::idleImage()
{
    Image *l = live_.load(std::memory_order_relaxed);
    return l == &images_[0] ? images_[1] : images_[0];
}

void
ConcurrentChisel::publish(Image &image)
{
    live_.store(&image, std::memory_order_release);
    CHISEL_FLIGHT_EVENT(PublishFlip, 0,
                        image.generation.load(
                            std::memory_order_relaxed),
                        0);
    // Grace period: every reader that might still be inside the old
    // image finishes before the caller mutates it.
    epochs_.synchronize();
}

void
ConcurrentChisel::commit()
{
    uint64_t gen = updatesApplied_.load(std::memory_order_relaxed);
    Image &written = idleImage();
    written.generation.store(gen, std::memory_order_relaxed);
    publish(written);

    // No reader can see the retired image now: copy the words the
    // engine wrote onto it, and write it next.
    Image &retired = idleImage();
    retired.image->replay(*written.image, log_);
    log_.clear();
    retired.generation.store(gen, std::memory_order_relaxed);
    engine_->bindImage(*retired.image);
}

UpdateOutcome
ConcurrentChisel::applyLocked(const Update &update, uint64_t *journal_seq)
{
    // Faults follow the engine, not a thread: every apply runs under
    // the configured injector, whichever thread calls it.
    std::optional<fault::ScopedInjector> inject;
    if (options_.faultInjector != nullptr)
        inject.emplace(options_.faultInjector);

    // Watchdog stamp: a hang anywhere below trips the health monitor
    // past its hysteresis straight into Quarantined.
    monitor_.beginUpdate();

    // Journal first, under the same lock that orders applies: the
    // journal stream and the image mutations agree on order by
    // construction, for updates and GC Expires alike.  A
    // refused append (seq 0) rejects the update outright — state must
    // never run ahead of its durability record.
    uint64_t seq = journal_ ? journal_->append(update) : 0;
    if (journal_seq != nullptr)
        *journal_seq = seq;
    if (journal_ && seq == 0) {
        monitor_.endUpdate();
        UpdateOutcome refused;
        refused.cls = UpdateClass::NoOp;
        refused.status = UpdateStatus::Rejected;
        refused.message = "journal refused the append";
        return refused;
    }

    // 1. Apply once, to the image no reader can see (the engine is
    // bound to it), naming each word written in log_; fault points are
    // polled once.  2. Flip + grace, then copy those words onto the
    // retired image.
    UpdateOutcome outcome = engine_->apply(update);
    updatesApplied_.fetch_add(1, std::memory_order_relaxed);
    commit();

    if (journal_)
        journal_->appendOutcome(seq, outcome);
    health::addUpdateEvents(events_, outcome);

    monitor_.endUpdate();
    return outcome;
}

UpdateOutcome
ConcurrentChisel::announce(const Prefix &prefix, NextHop next_hop,
                           uint32_t ttl_ms)
{
    return apply(Update{UpdateKind::Announce, prefix, next_hop, ttl_ms});
}

UpdateOutcome
ConcurrentChisel::withdraw(const Prefix &prefix)
{
    return apply(Update{UpdateKind::Withdraw, prefix, kNoRoute});
}

UpdateOutcome
ConcurrentChisel::apply(const Update &update, uint64_t *journal_seq)
{
    std::lock_guard<std::mutex> lock(writerMutex_);
    return applyLocked(update, journal_seq);
}

void
ConcurrentChisel::controlLoop()
{
    // Chaos runs arm faults on the maintenance work too: the injector
    // lives in this thread's slot, readers stay clean.
    std::optional<fault::ScopedInjector> inject;
    if (options_.faultInjector != nullptr)
        inject.emplace(options_.faultInjector);

    using Clock = std::chrono::steady_clock;
    struct Timer
    {
        std::chrono::milliseconds every;
        std::function<void()> tick;
        Clock::time_point due;
    };
    const Clock::time_point start = Clock::now();
    std::vector<Timer> timers;
    auto add = [&](std::chrono::milliseconds every,
                   std::function<void()> tick) {
        timers.push_back({every, std::move(tick), start + every});
    };
    if (options_.healthInterval.count() > 0)
        add(options_.healthInterval, [this] { healthTick(); });
    if (options_.gcInterval.count() > 0)
        add(options_.gcInterval, [this] { gcTick(); });
    if (options_.scrubInterval.count() > 0)
        add(options_.scrubInterval, [this] { scrubNow(); });

    std::unique_lock<std::mutex> lock(timerMutex_);
    for (;;) {
        Clock::time_point next =
            std::min_element(timers.begin(), timers.end(),
                             [](const Timer &a, const Timer &b) {
                                 return a.due < b.due;
                             })
                ->due;
        if (timerWake_.wait_until(lock, next, [this] { return stop_; }))
            return;
        lock.unlock();
        for (Timer &t : timers) {
            Clock::time_point now = Clock::now();
            if (now >= t.due) {
                t.tick();
                t.due = now + t.every;
            }
        }
        lock.lock();
    }
}

// ---- TTL expiry ------------------------------------------------------------

uint64_t
ConcurrentChisel::ttlNowMs() const
{
    if (!options_.ttlWallClock)
        return ttlManualMs_.load(std::memory_order_acquire);
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - ttlEpoch_)
            .count());
}

void
ConcurrentChisel::advanceTtlClock(uint64_t ms)
{
    ttlManualMs_.fetch_add(ms, std::memory_order_acq_rel);
}

size_t
ConcurrentChisel::gcTick(size_t max_batch)
{
    if (max_batch == 0)
        max_batch = options_.gcBatch;

    std::lock_guard<std::mutex> lock(writerMutex_);

    // Move the TTL clock forward so deadlines armed by the next
    // announce use current time, then harvest what is due.
    engine_->setTtlClock(ttlNowMs());

    std::vector<Prefix> due;
    engine_->collectExpired(max_batch, due);

    // Each expiry is a first-class update: journaled like any other,
    // counted in its own class, published with the standard flip —
    // warm restarts, audits and replica followers all see GC as part
    // of the ordinary update stream.
    size_t retired = 0;
    for (const Prefix &p : due) {
        UpdateOutcome out =
            applyLocked(Update{UpdateKind::Expire, p, kNoRoute});
        if (out.ok())
            ++retired;
    }
    if (retired > 0) {
        expired_.fetch_add(retired, std::memory_order_relaxed);
        CHISEL_FLIGHT_EVENT(TtlExpire, 0, retired, engine_->ttlArmed());
    }
    return retired;
}

// ---- Live resize -----------------------------------------------------------

bool
ConcurrentChisel::resizeLocked(const ChiselConfig &grown)
{
    // Build the replacement entirely off the serving path; the only
    // reader-visible step is the one pointer flip inside install().
    // Slow-path residents of the old images drain back into the grown
    // tables during construction.
    size_t resident_before = engine_->slowPathCount();
    std::unique_ptr<ChiselEngine> engine = engine_->rebuilt(grown);
    size_t resident_after = engine->slowPathCount();
    size_t drained = resident_before > resident_after
                         ? resident_before - resident_after
                         : 0;
    auto twin = std::make_unique<EngineImage>(engine->image());
    install(std::move(engine), std::move(twin));

    uint64_t count =
        resizes_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (drained > 0)
        slowPathDrained_.fetch_add(drained,
                                   std::memory_order_relaxed);
    if (journal_)
        journal_->appendResizeMark(grown);
    CHISEL_FLIGHT_EVENT(ResizePublish, 0, count, drained);
    return true;
}

bool
ConcurrentChisel::resizeNow()
{
    std::lock_guard<std::mutex> lock(writerMutex_);
    const ChiselEngine &engine = *engine_;
    ResizeLoad load;
    load.routeCount = engine.routeCount();
    load.spillCount = engine.spillCount();
    load.slowPathCount = engine.slowPathCount();
    ChiselConfig grown = planResize(config_, load);
    if (grown == config_)
        return false;   // Already at (or beyond) the planned size.
    return resizeLocked(grown);
}

bool
ConcurrentChisel::resizeTo(const ChiselConfig &target)
{
    std::lock_guard<std::mutex> lock(writerMutex_);
    if (config_ == target)
        return true;    // Follower already adopted this mark.
    if (!elasticCompatible(config_, target)) {
        warn("resizeTo refused: target changes the geometry kernel");
        return false;
    }
    return resizeLocked(target);
}

// ---- Scrubbing -------------------------------------------------------------

ScrubReport
ConcurrentChisel::scrubNow()
{
    std::lock_guard<std::mutex> lock(writerMutex_);

    // Verify both images: reads only, so the live one may be read
    // beside the readers.  Each bad word is counted once, in the image
    // it sits in, and its cell is flagged in the one control state.
    ScrubReport report;
    for (const Image &image : images_) {
        ScrubReport r = engine_->verifyParity(*image.image);
        report.wordsChecked += r.wordsChecked;
        report.errorsFound += r.errorsFound;
    }

    // Recover the union of flagged cells once, on the idle image; a
    // recovery rewrites its whole cell, so the replay in commit()
    // repairs the other image too.  One flip per pass.
    report.cellsRecovered = engine_->recoverFlagged();
    commit();

    events_.parityRecoveries += report.cellsRecovered;
    scrubPasses_.fetch_add(1, std::memory_order_relaxed);
    return report;
}

uint64_t
ConcurrentChisel::scrubPasses() const
{
    return scrubPasses_.load(std::memory_order_relaxed);
}

// ---- Health ----------------------------------------------------------------

size_t
ConcurrentChisel::purgeDirtyNow()
{
    std::lock_guard<std::mutex> lock(writerMutex_);

    // Journaled like an update, before either image changes: replay
    // re-runs the purge between the same two updates, and a journal
    // that refused the record refuses the purge.
    if (journal_) {
        journal_->appendHousekeeping(
            persist::JournalRecord::HousekeepingKind::PurgeDirty);
        if (!journal_->ioHealthy())
            return 0;
    }

    // Same choreography as an update: purge once on the idle image,
    // flip, then replay the purge's words onto the other — readers
    // never observe a half-purged table.
    size_t purged = engine_->purgeDirty();
    commit();
    return purged;
}

health::HealthSignals
ConcurrentChisel::collectSignals()
{
    // Read before the lock: an update overrunning its deadline holds
    // the writer lock until it finishes.
    bool watchdog = monitor_.watchdogExpired();

    std::lock_guard<std::mutex> lock(writerMutex_);
    health::HealthSignals sig = std::exchange(events_, {});
    sig.watchdogExpired = watchdog;
    health::setOccupancies(sig, *engine_);
    return sig;
}

bool
ConcurrentChisel::executeAction(health::RecoveryAction action)
{
    switch (action) {
      case health::RecoveryAction::None:
        return true;
      case health::RecoveryAction::PurgeDirty:
        purgeDirtyNow();
        return true;
      case health::RecoveryAction::Scrub:
        scrubNow();
        return true;
      case health::RecoveryAction::Resetup:
        resetup();
        return true;
      case health::RecoveryAction::SnapshotRestore:
        if (options_.recoverySnapshotPath.empty())
            return false;   // No known-good image: rung unavailable.
        return restoreFromSnapshot(options_.recoverySnapshotPath);
      case health::RecoveryAction::Resize:
        return resizeNow();
      case health::RecoveryAction::FailedOver:
        // Recorded by Follower::promote(), never recommended by the
        // monitor; there is nothing for the dead node to execute.
        break;
      case health::RecoveryAction::kCount:
        break;
    }
    return false;
}

health::HealthState
ConcurrentChisel::healthTick()
{
    std::lock_guard<std::mutex> hlock(healthMutex_);
    health::HealthState state = monitor_.sample(collectSignals());
    health::RecoveryAction action = monitor_.takeAction();
    if (action != health::RecoveryAction::None)
        monitor_.actionCompleted(action, executeAction(action));
    return state;
}

// ---- Snapshots and rebuilds ------------------------------------------------

uint64_t
ConcurrentChisel::stampLocked() const
{
    return journal_ ? journal_->lastSeq()
                    : updatesApplied_.load(std::memory_order_relaxed);
}

size_t
ConcurrentChisel::saveSnapshot(const std::string &path) const
{
    // The engine is bound to the idle image, which equals the live
    // one, so serializing it captures the current state while lookups
    // proceed undisturbed; only the update path waits on the lock.
    std::lock_guard<std::mutex> lock(writerMutex_);
    return persist::saveSnapshot(path, *engine_, stampLocked());
}

size_t
ConcurrentChisel::checkpoint()
{
    if (!journal_ || options_.recoverySnapshotPath.empty())
        return 0;
    // Image, mark and sync in one lock hold: the mark lands right
    // after the last record the image covers, which is where replay
    // cuts the tail.
    std::lock_guard<std::mutex> lock(writerMutex_);
    uint64_t seq = journal_->lastSeq();
    size_t bytes = 0;
    try {
        bytes = persist::saveSnapshot(options_.recoverySnapshotPath,
                                      *engine_, seq);
    } catch (const ChiselError &e) {
        // No image, no mark: the journal still holds every record,
        // so a warm restart replays a longer tail instead.
        warn("checkpoint skipped: " + std::string(e.what()));
        return 0;
    }
    journal_->appendSnapshotMark(seq);
    journal_->sync();
    return bytes;
}

std::vector<uint8_t>
ConcurrentChisel::snapshotImage(uint64_t *covered_seq) const
{
    std::lock_guard<std::mutex> lock(writerMutex_);
    uint64_t seq = stampLocked();
    if (covered_seq != nullptr)
        *covered_seq = seq;
    return persist::encodeSnapshotImage(*engine_, seq);
}

bool
ConcurrentChisel::restoreFromSnapshot(const std::string &path)
{
    ChiselConfig running = config();
    return restoreLoaded(
        persist::loadSnapshot(path, &running, /*allow_elastic=*/true));
}

bool
ConcurrentChisel::restoreFromImage(const std::vector<uint8_t> &image)
{
    ChiselConfig running = config();
    return restoreLoaded(persist::loadSnapshotBuffer(
        image.data(), image.size(), &running, /*enforce_crc=*/true,
        /*allow_elastic=*/true));
}

bool
ConcurrentChisel::restoreLoaded(persist::SnapshotLoadResult &&loaded)
{
    // A bad snapshot is refused before any step a reader can see.
    if (loaded.status != persist::SnapshotLoadStatus::Ok) {
        warn("concurrent restore refused: " + loaded.error);
        return false;
    }
    std::unique_lock<std::mutex> lock(writerMutex_, std::defer_lock);
    if (journal_) {
        // Serve what the journal says, not what the image says: replay
        // the tail past it, locked from the scan through the flip so
        // no update lands in between.
        lock.lock();
        // The scan reads the file: hand it the held-back Outcome too.
        journal_->flush();
        uint64_t head = loaded.lastSeq;
        persist::replayTail(loaded.engine,
                            persist::scanJournal(journal_->path(), 0),
                            loaded.lastSeq, head);
    }
    // Without a journal the decoded engine owes nothing to the current
    // images, so its image is copied before updates have to wait.
    auto twin = std::make_unique<EngineImage>(loaded.engine->image());
    if (!lock.owns_lock())
        lock.lock();
    install(std::move(loaded.engine), std::move(twin));
    return true;
}

void
ConcurrentChisel::resetup()
{
    // A resetup is repair, not lifecycle: rebuilt() carries armed TTL
    // deadlines over unchanged, so a rebuilt route still expires on
    // schedule.
    std::lock_guard<std::mutex> lock(writerMutex_);
    std::unique_ptr<ChiselEngine> engine = engine_->rebuilt(config_);
    auto twin = std::make_unique<EngineImage>(engine->image());
    install(std::move(engine), std::move(twin));
}

void
ConcurrentChisel::install(std::unique_ptr<ChiselEngine> engine,
                          std::unique_ptr<EngineImage> twin)
{
    uint64_t gen = updatesApplied_.load(std::memory_order_relaxed);
    config_ = engine->config();

    // Point the idle slot at the new engine's image and flip to it:
    // readers move from the old live image to the fresh one in one
    // step.
    Image &idle = idleImage();
    idle.image = &engine->image();
    idle.generation.store(gen, std::memory_order_relaxed);
    publish(idle);

    // The grace period has passed: the retired slot is unreferenced,
    // and neither old image is reachable, so the old engine and twin
    // can go.
    Image &retired = idleImage();
    retired.image = twin.get();
    retired.generation.store(gen, std::memory_order_relaxed);
    engine_ = std::move(engine);
    twin_ = std::move(twin);
    log_.clear();
    engine_->setWriteLog(&log_);
    engine_->bindImage(*twin_);
}

// ---- Introspection ---------------------------------------------------------

size_t
ConcurrentChisel::routeCount() const
{
    std::lock_guard<std::mutex> lock(writerMutex_);
    return engine_->routeCount();
}

RobustnessCounters
ConcurrentChisel::robustness() const
{
    std::lock_guard<std::mutex> lock(writerMutex_);
    return engine_->robustness();
}

size_t
ConcurrentChisel::dirtyCount() const
{
    std::lock_guard<std::mutex> lock(writerMutex_);
    return engine_->dirtyCount();
}

size_t
ConcurrentChisel::dirtyPeak() const
{
    std::lock_guard<std::mutex> lock(writerMutex_);
    return engine_->dirtyPeak();
}

std::optional<NextHop>
ConcurrentChisel::find(const Prefix &prefix) const
{
    std::lock_guard<std::mutex> lock(writerMutex_);
    return engine_->find(prefix);
}

uint64_t
ConcurrentChisel::updatesApplied() const
{
    return updatesApplied_.load(std::memory_order_relaxed);
}

ChiselConfig
ConcurrentChisel::config() const
{
    std::lock_guard<std::mutex> lock(writerMutex_);
    return config_;
}

bool
ConcurrentChisel::selfCheck() const
{
    std::lock_guard<std::mutex> lock(writerMutex_);
    return engine_->selfCheck(*images_[0].image) &&
           engine_->selfCheck(*images_[1].image);
}

// ---- Journal ---------------------------------------------------------------

uint64_t
ConcurrentChisel::journalSeq() const
{
    std::lock_guard<std::mutex> lock(writerMutex_);
    return journal_ ? journal_->lastSeq() : 0;
}

uint64_t
ConcurrentChisel::lastDurableSeq() const
{
    std::lock_guard<std::mutex> lock(writerMutex_);
    return journal_ ? journal_->lastDurableSeq() : 0;
}

bool
ConcurrentChisel::ensureDurable(uint64_t seq)
{
    std::lock_guard<std::mutex> lock(writerMutex_);
    return journal_ && journal_->ensureDurable(seq);
}

} // namespace chisel::concurrent
