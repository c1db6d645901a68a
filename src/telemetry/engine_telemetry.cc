#include "telemetry/engine_telemetry.hh"

#include "common/clock.hh"
#include "core/engine.hh"

namespace chisel::telemetry {

static_assert(kUpdateClassCountMirror == kUpdateClassCount,
              "telemetry class-counter array out of sync with "
              "UpdateClass (core/subcell.hh)");

const char *
updateClassSlug(UpdateClass c)
{
    switch (c) {
      case UpdateClass::Withdraw: return "withdraw";
      case UpdateClass::RouteFlap: return "route_flap";
      case UpdateClass::NextHopChange: return "next_hop_change";
      case UpdateClass::AddCollapsed: return "add_collapsed";
      case UpdateClass::SingletonInsert: return "singleton_insert";
      case UpdateClass::Resetup: return "resetup";
      case UpdateClass::Spill: return "spill";
      case UpdateClass::NoOp: return "noop";
      case UpdateClass::Expire: return "expire";
    }
    return "unknown";
}

EngineTelemetry::EngineTelemetry(MetricRegistry &registry,
                                 const std::string &prefix)
    : registry_(registry),
      prefix_(prefix),
      lookups_(registry.counter(prefix + ".lookup.count")),
      hits_(registry.counter(prefix + ".lookup.hits")),
      spillHits_(registry.counter(prefix + ".lookup.spill_hits")),
      slowPathHits_(
          registry.counter(prefix + ".lookup.slowpath_hits")),
      defaultHits_(registry.counter(prefix + ".lookup.default_hits")),
      lookupAccesses_(registry.histogram(prefix + ".lookup.accesses")),
      lookupLatencyNs_(
          registry.histogram(prefix + ".lookup.latency_ns")),
      updates_(registry.counter(prefix + ".update.count")),
      updateWrites_(registry.histogram(prefix + ".update.writes")),
      tcamOverflows_(
          registry.counter(prefix + ".update.tcam_overflow_total")),
      setupRetries_(
          registry.counter(prefix + ".update.setup_retries_total")),
      slowPathDiversions_(registry.counter(
          prefix + ".update.slowpath_diversions_total")),
      slowPathRejected_(registry.counter(
          prefix + ".update.slowpath_rejected_total")),
      rejectedUpdates_(
          registry.counter(prefix + ".update.rejected_total")),
      parityRecoveries_(registry.counter(
          prefix + ".fault.parity_recoveries_total")),
      recoveryReplayed_(registry.counter(
          prefix + ".recovery.journal_records_replayed")),
      recoverySnapshotLoads_(
          registry.counter(prefix + ".recovery.snapshot_loads")),
      recoveryFallbacks_(
          registry.counter(prefix + ".recovery.fallbacks"))
{
    for (size_t i = 0; i < kTableCount; ++i) {
        const char *table = tableName(static_cast<Table>(i));
        lookupTableAccesses_[i] = &registry.histogram(
            prefix + ".lookup.accesses." + table);
        updateTableWrites_[i] = &registry.histogram(
            prefix + ".update.writes." + table);
    }
    // Pre-register every update category so exports always carry the
    // full Figure-14 breakdown, including zero rows.
    for (size_t c = 0; c < kUpdateClassCount; ++c) {
        updateClassCounters_[c] = &registry.counter(
            prefix + ".update.class." +
            updateClassSlug(static_cast<UpdateClass>(c)));
    }
}

void
EngineTelemetry::snapshot(const ChiselEngine &engine)
{
    registry_.gauge("tcam.spill.occupancy")
        .set(static_cast<double>(engine.spillCount()));
    registry_.gauge("tcam.spill.capacity")
        .set(static_cast<double>(engine.config().spillCapacity));
    registry_.gauge(prefix_ + ".slowpath.occupancy")
        .set(static_cast<double>(engine.slowPathCount()));

    RobustnessCounters rc = engine.robustness();
    registry_.gauge(prefix_ + ".robustness.tcam_overflows")
        .set(static_cast<double>(rc.tcamOverflows));
    registry_.gauge(prefix_ + ".robustness.slowpath_inserts")
        .set(static_cast<double>(rc.slowPathInserts));
    registry_.gauge(prefix_ + ".robustness.slowpath_drains")
        .set(static_cast<double>(rc.slowPathDrains));
    registry_.gauge(prefix_ + ".ttl.armed")
        .set(static_cast<double>(engine.ttlArmed()));
    registry_.gauge(prefix_ + ".robustness.slowpath_rejected")
        .set(static_cast<double>(rc.slowPathRejected));
    registry_.gauge(prefix_ + ".robustness.setup_retries")
        .set(static_cast<double>(rc.setupRetries));
    registry_.gauge(prefix_ + ".robustness.parity_detected")
        .set(static_cast<double>(rc.parityDetected));
    registry_.gauge(prefix_ + ".robustness.parity_recovered")
        .set(static_cast<double>(rc.parityRecoveries));
    registry_.gauge(prefix_ + ".robustness.rejected_updates")
        .set(static_cast<double>(rc.rejectedUpdates));
    registry_.gauge(prefix_ + ".robustness.dirty_evictions")
        .set(static_cast<double>(rc.dirtyEvictions));
    registry_.gauge(prefix_ + ".robustness.suppressed_flaps")
        .set(static_cast<double>(rc.suppressedFlaps));
    registry_.gauge(prefix_ + ".dirty.groups")
        .set(static_cast<double>(engine.dirtyCount()));
    registry_.gauge(prefix_ + ".dirty.peak")
        .set(static_cast<double>(engine.dirtyPeak()));
    registry_.gauge(prefix_ + ".dirty.budget_per_cell")
        .set(static_cast<double>(engine.config().dirtyBudgetPerCell));
    registry_.gauge(prefix_ + ".routes")
        .set(static_cast<double>(engine.routeCount()));
    registry_.gauge(prefix_ + ".cells")
        .set(static_cast<double>(engine.cellCount()));

    StorageBreakdown storage = engine.storage();
    registry_.gauge(prefix_ + ".storage.index_bits")
        .set(static_cast<double>(storage.indexBits));
    registry_.gauge(prefix_ + ".storage.filter_bits")
        .set(static_cast<double>(storage.filterBits));
    registry_.gauge(prefix_ + ".storage.bitvector_bits")
        .set(static_cast<double>(storage.bitvectorBits));

    for (size_t i = 0; i < engine.cellCount(); ++i) {
        const SubCell &cell = engine.cell(i);
        std::string base = "subcell." + std::to_string(i);
        registry_.gauge(base + ".groups")
            .set(static_cast<double>(cell.groupCount()));
        registry_.gauge(base + ".routes")
            .set(static_cast<double>(cell.routeCount()));
        registry_.gauge(base + ".capacity")
            .set(static_cast<double>(cell.capacity()));
        registry_.gauge(base + ".dirty")
            .set(static_cast<double>(cell.dirtyCount()));
        const BloomierFilter::Stats &s = cell.indexStats();
        registry_.gauge(base + ".index.singletons")
            .set(static_cast<double>(s.singletonInserts));
        registry_.gauge(base + ".index.rebuilds")
            .set(static_cast<double>(s.rebuilds));
        registry_.gauge(base + ".index.spilled")
            .set(static_cast<double>(s.spilledKeys));
    }
}

void
EngineTelemetry::recordRecovery(uint64_t journal_records_replayed,
                                uint64_t snapshot_loads,
                                uint64_t fallbacks)
{
    recoveryReplayed_.inc(journal_records_replayed);
    recoverySnapshotLoads_.inc(snapshot_loads);
    recoveryFallbacks_.inc(fallbacks);
}

// ---- LookupSpan ------------------------------------------------------------

LookupSpan::LookupSpan(EngineTelemetry &telemetry)
    : t_(telemetry),
      scoped_(&telemetry.tracer()),
      startNs_(monotonicNowNs())
{
    for (size_t i = 0; i < kTableCount; ++i)
        readsBefore_[i] =
            t_.tracer_.counts(static_cast<Table>(i)).reads;
}

void
LookupSpan::finish(const LookupResult &result)
{
    uint64_t total = 0;
    for (size_t i = 0; i < kTableCount; ++i) {
        uint64_t delta =
            t_.tracer_.counts(static_cast<Table>(i)).reads -
            readsBefore_[i];
        t_.lookupTableAccesses_[i]->sample(delta);
        total += delta;
    }
    t_.lookupAccesses_.sample(total);
    t_.lookupLatencyNs_.sample(monotonicNowNs() - startNs_);

    t_.lookups_.inc();
    if (result.found)
        t_.hits_.inc();
    if (result.fromSpill)
        t_.spillHits_.inc();
    if (result.fromSlowPath)
        t_.slowPathHits_.inc();
    if (result.fromDefault)
        t_.defaultHits_.inc();
}

// ---- UpdateSpan ------------------------------------------------------------

UpdateSpan::UpdateSpan(EngineTelemetry &telemetry)
    : t_(telemetry), scoped_(&telemetry.tracer())
{
    for (size_t i = 0; i < kTableCount; ++i)
        writesBefore_[i] =
            t_.tracer_.counts(static_cast<Table>(i)).writes;
}

void
UpdateSpan::finish(UpdateClass cls)
{
    uint64_t total = 0;
    for (size_t i = 0; i < kTableCount; ++i) {
        uint64_t delta =
            t_.tracer_.counts(static_cast<Table>(i)).writes -
            writesBefore_[i];
        t_.updateTableWrites_[i]->sample(delta);
        total += delta;
    }
    t_.updateWrites_.sample(total);
    t_.updates_.inc();
    t_.updateClassCounters_[static_cast<size_t>(cls)]->inc();
}

void
UpdateSpan::finish(const UpdateOutcome &outcome)
{
    finish(outcome.cls);
    t_.tcamOverflows_.inc(outcome.tcamOverflows);
    t_.setupRetries_.inc(outcome.setupRetries);
    t_.slowPathDiversions_.inc(outcome.slowPathInserts);
    t_.slowPathRejected_.inc(outcome.slowPathRejections);
    t_.parityRecoveries_.inc(outcome.parityRecoveries);
    if (outcome.status == UpdateStatus::Rejected)
        t_.rejectedUpdates_.inc();
}

} // namespace chisel::telemetry
