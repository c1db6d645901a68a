#include "persist/recovery.hh"

#include "common/logging.hh"
#include "core/resize.hh"

namespace chisel::persist {

const char *
recoverySourceName(RecoverySource s)
{
    switch (s) {
      case RecoverySource::Snapshot: return "snapshot";
      case RecoverySource::PreviousSnapshot: return "previous-snapshot";
      case RecoverySource::ColdSetup: return "cold-setup";
    }
    return "?";
}

uint64_t
replayTail(std::unique_ptr<ChiselEngine> &engine,
           const JournalScan &scan, uint64_t from_seq,
           uint64_t &last_seq)
{
    size_t start = 0;
    for (size_t i = 0; i < scan.records.size(); ++i) {
        const JournalRecord &rec = scan.records[i];
        if (rec.type == JournalRecord::Type::SnapshotMark &&
            rec.seq == from_seq)
            start = i + 1;
    }
    if (start == 0 && from_seq > 0) {
        // No mark for this image (e.g. the mark's append was torn):
        // cut after the last record the image already accounts for.
        for (size_t i = 0; i < scan.records.size(); ++i) {
            const JournalRecord &rec = scan.records[i];
            if ((rec.type == JournalRecord::Type::Update ||
                 rec.type == JournalRecord::Type::Outcome) &&
                rec.seq <= from_seq)
                start = i + 1;
        }
    }

    uint64_t applied = 0;
    for (size_t i = start; i < scan.records.size(); ++i) {
        const JournalRecord &rec = scan.records[i];
        switch (rec.type) {
          case JournalRecord::Type::Update:
            if (rec.seq <= from_seq)
                break;
            engine->apply(rec.update);
            ++applied;
            if (rec.seq > last_seq)
                last_seq = rec.seq;
            break;
          case JournalRecord::Type::Housekeeping:
            if (rec.housekeeping ==
                JournalRecord::HousekeepingKind::PurgeDirty)
                engine->purgeDirty();
            ++applied;
            break;
          case JournalRecord::Type::ResizeMark:
            if (elasticCompatible(engine->config(),
                                  rec.resizeConfig) &&
                !(engine->config() == rec.resizeConfig)) {
                engine = engine->rebuilt(rec.resizeConfig);
                ++applied;
            }
            break;
          case JournalRecord::Type::Outcome:
          case JournalRecord::Type::SnapshotMark:
            break;
        }
    }
    return applied;
}

void
auditEngine(const ChiselEngine &engine, const RoutingTable &initial,
            const JournalScan &scan, RecoveryReport &report)
{
    // The reference: initial table advanced through every journaled
    // update — derived without touching any Chisel data structure, so
    // it cannot share a bug with the thing it checks.
    RoutingTable reference = initial;
    for (const JournalRecord &rec : scan.records) {
        if (rec.type != JournalRecord::Type::Update)
            continue;
        if (rec.update.kind == UpdateKind::Announce)
            reference.add(rec.update.prefix, rec.update.nextHop);
        else
            reference.remove(rec.update.prefix);
    }

    report.auditRan = true;
    report.auditMissing = 0;
    report.auditMismatched = 0;
    report.auditPhantom = 0;

    for (const Route &r : reference.routes()) {
        std::optional<NextHop> got = engine.find(r.prefix);
        if (!got)
            ++report.auditMissing;
        else if (*got != r.nextHop)
            ++report.auditMismatched;
    }
    for (const Route &r : engine.exportTable().routes()) {
        if (!reference.contains(r.prefix))
            ++report.auditPhantom;
    }
    report.auditPassed = report.auditMissing == 0 &&
                         report.auditMismatched == 0 &&
                         report.auditPhantom == 0;
}

RecoveryReport
recoverEngine(const RecoveryOptions &options)
{
    RecoveryReport report;

    // The journal first: every rung needs its valid prefix.  Accept
    // either the strict config fingerprint or the elastic (geometry
    // kernel) one — a journal that lived through a live resize is
    // stamped with the latter and is still this engine's history.
    JournalScan scan;
    if (!options.journalPath.empty()) {
        scan = scanJournal(options.journalPath, 0);
        if (scan.headerOk && options.expectFingerprint != 0) {
            // Caller pinned an exact identity (e.g. a per-shard
            // fingerprint binding the keyspace slice).
            if (scan.fingerprint != options.expectFingerprint) {
                scan.headerOk = false;
                scan.error = "journal written under a different "
                             "identity";
            }
        } else if (scan.headerOk &&
                   scan.fingerprint != configFingerprint(options.config) &&
                   scan.fingerprint != elasticFingerprint(options.config)) {
            scan.headerOk = false;
            scan.error = "journal written under a different config";
        }
        report.journalHeaderOk = scan.headerOk;
        report.journalError = scan.error;
        report.journalRecords = scan.records.size();
        report.journalTornTail = scan.truncatedTail;
        if (!scan.headerOk) {
            // An unusable journal contributes nothing to replay; the
            // snapshot rungs can still produce a consistent (if
            // stale) engine.  Count the loss as a fallback.
            ++report.fallbacks;
            scan = JournalScan{};
        }
    }

    // Rungs 1 and 2: snapshot, then its rotated predecessor.
    if (!options.snapshotPath.empty()) {
        SnapshotLoadResult primary =
            loadSnapshot(options.snapshotPath, &options.config,
                         /*allow_elastic=*/true);
        if (primary.status == SnapshotLoadStatus::Ok) {
            report.engine = std::move(primary.engine);
            report.source = RecoverySource::Snapshot;
            report.snapshotLoads = 1;
            report.lastSeq = primary.lastSeq;
        } else {
            report.snapshotError = primary.error;
            ++report.fallbacks;
            SnapshotLoadResult previous = loadSnapshot(
                previousSnapshotPath(options.snapshotPath),
                &options.config, /*allow_elastic=*/true);
            if (previous.status == SnapshotLoadStatus::Ok) {
                report.engine = std::move(previous.engine);
                report.source = RecoverySource::PreviousSnapshot;
                report.snapshotLoads = 1;
                report.lastSeq = previous.lastSeq;
            } else {
                report.previousSnapshotError = previous.error;
                ++report.fallbacks;
            }
        }
    }

    // Rung 3: cold setup — always succeeds, pays the Bloomier setups.
    if (report.engine == nullptr) {
        report.engine = std::make_unique<ChiselEngine>(
            options.initialTable, options.config);
        report.source = RecoverySource::ColdSetup;
        report.lastSeq = 0;
    }

    if (report.source != RecoverySource::ColdSetup) {
        for (const JournalRecord &rec : scan.records) {
            if (rec.type == JournalRecord::Type::SnapshotMark)
                report.snapshotMarked = rec.seq == report.lastSeq;
        }
    }

    report.recordsReplayed =
        replayTail(report.engine, scan, report.lastSeq,
                   report.lastSeq);

    if (options.audit)
        auditEngine(*report.engine, options.initialTable, scan, report);

    return report;
}

} // namespace chisel::persist
