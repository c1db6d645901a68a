/**
 * @file
 * Crash recovery: snapshot + journal-tail replay with an adversarial
 * fallback ladder (docs/persistence.md).
 *
 * The ladder, top rung first:
 *
 *   1. primary snapshot  + replay journal records with seq > covered
 *   2. previous snapshot + replay the (longer) journal tail
 *   3. cold setup from the initial table + replay the whole journal
 *
 * Each rung is taken only when every rung above it failed (missing
 * file, CRC mismatch, version/config mismatch, malformed payload —
 * all reported, none fatal).  The journal itself is scanned with the
 * torn-tail rule: the valid record prefix is trusted, everything
 * after the first length/CRC violation is discarded.  replayTail()
 * is the one replay: a journaled ConcurrentChisel restoring a
 * snapshot while it runs uses it too.
 *
 * After the engine is rebuilt, an optional route-by-route audit
 * compares it against a reference table derived independently from
 * the initial table plus the journal — the recovered engine must
 * contain exactly the routes the durable history says it should.
 */

#ifndef CHISEL_PERSIST_RECOVERY_HH
#define CHISEL_PERSIST_RECOVERY_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/engine.hh"
#include "persist/journal.hh"
#include "persist/snapshot.hh"

namespace chisel::persist {

/** Inputs to recoverEngine(). */
struct RecoveryOptions
{
    /** Journal path; empty disables replay (snapshot-only restart). */
    std::string journalPath;

    /** Snapshot path; empty disables rungs 1 and 2. */
    std::string snapshotPath;

    /** Config the recovered engine must run under. */
    ChiselConfig config;

    /**
     * Routes the engine was originally built from, for the cold rung
     * and the audit reference (the journal records only post-boot
     * updates).  May be empty if the journal's first snapshot mark
     * covers boot — i.e. a snapshot was taken right after setup.
     */
    RoutingTable initialTable;

    /** Run the route-by-route audit after rebuilding. */
    bool audit = true;

    /**
     * Exact journal fingerprint to accept; 0 keeps the default rule
     * (the config's strict or elastic fingerprint).  The sharded
     * persistence layout stamps each shard's journal with a
     * fingerprint that also binds the shard identity
     * (shard::shardJournalFingerprint), so a journal can never be
     * replayed into the wrong keyspace slice.
     */
    uint64_t expectFingerprint = 0;
};

/** Which rung of the ladder produced the engine. */
enum class RecoverySource
{
    Snapshot,          ///< Rung 1: the primary snapshot.
    PreviousSnapshot,  ///< Rung 2: the rotated .prev image.
    ColdSetup,         ///< Rung 3: full rebuild (Bloomier setups paid).
};

const char *recoverySourceName(RecoverySource s);

/** Everything a recovery did and found. */
struct RecoveryReport
{
    /** The rebuilt engine; never null on return (cold rung always
     *  succeeds).  recoverEngine throws only on I/O-level surprises
     *  outside the modelled failure set. */
    std::unique_ptr<ChiselEngine> engine;

    RecoverySource source = RecoverySource::ColdSetup;

    /** Rungs that failed before one worked (0 = snapshot was good). */
    uint64_t fallbacks = 0;

    /** Snapshot images successfully restored (0 or 1). */
    uint64_t snapshotLoads = 0;

    /** Why rung 1 / rung 2 failed; empty when not attempted or ok. */
    std::string snapshotError;
    std::string previousSnapshotError;

    /** Journal scan summary. */
    bool journalHeaderOk = false;
    std::string journalError;
    uint64_t journalRecords = 0;
    bool journalTornTail = false;

    /** Update records re-applied to the engine. */
    uint64_t recordsReplayed = 0;

    /**
     * True if the journal's last SnapshotMark names the restored
     * image's seq: with recordsReplayed 0 and source Snapshot, the
     * snapshot on disk is already the checkpoint a restart would
     * write (ShardedChisel skips re-saving it).
     */
    bool snapshotMarked = false;

    /** Sequence number the engine is current through. */
    uint64_t lastSeq = 0;

    /** Audit outcome (meaningful when options.audit). */
    bool auditRan = false;
    bool auditPassed = false;
    uint64_t auditMissing = 0;     ///< Reference routes absent.
    uint64_t auditMismatched = 0;  ///< Present with the wrong next hop.
    uint64_t auditPhantom = 0;     ///< Engine routes not in reference.
};

/**
 * Run the recovery ladder.  See RecoveryOptions/RecoveryReport.
 * Throws ChiselError only for unmodelled I/O failures (e.g. the
 * journal exists but cannot be truncated).
 */
RecoveryReport recoverEngine(const RecoveryOptions &options);

/**
 * Replay the journal tail after @p from_seq into @p engine, in stream
 * order: the last rung of recoverEngine(), and how a journaled
 * ConcurrentChisel brings a restored image up to its journal head.
 * The tail starts just past the record the image covers: the last
 * SnapshotMark stamped seq == from_seq when one exists, otherwise the
 * last Update/Outcome with seq <= from_seq.  Sequence numbers alone
 * cannot place the cut, because Housekeeping records share the seq
 * of the update they follow — a purge right after the snapshot and a
 * purge right before it carry the same seq, and replaying the wrong
 * one resurrects or destroys dirty groups.  With @p first_mark the
 * cut is the FIRST such mark instead: an image that may be an older
 * checkpoint of its seq (the rotated `.prev`) then replays every
 * purge and ResizeMark written after it.  Records between two marks
 * of one seq are only those (every Update advances the seq), and
 * re-running the ones the image already holds changes nothing — a
 * second purge finds no dirty group, a ResizeMark whose config the
 * engine runs is skipped.  From the cut on, Update
 * records with seq > from_seq are re-applied and Housekeeping records
 * re-run, so maintenance mutations land between the same updates they
 * originally did.  A ResizeMark past the cut re-runs the live
 * rebuild: @p engine is replaced by one re-planned under the marked
 * config (hence the unique_ptr) — a no-op when the image already
 * carries that config, which is how a mark racing the snapshot
 * rotation stays idempotent.  @p last_seq is raised to the highest
 * update seq replayed.  @return records applied (updates +
 * housekeeping + resizes).
 */
uint64_t replayTail(std::unique_ptr<ChiselEngine> &engine,
                    const JournalScan &scan, uint64_t from_seq,
                    uint64_t &last_seq, bool first_mark = false);

/**
 * The audit alone: compare @p engine route-by-route against the
 * reference derived from @p initial plus the update records of
 * @p scan (applied in sequence order).  Fills the audit fields of
 * @p report.
 */
void auditEngine(const ChiselEngine &engine,
                 const RoutingTable &initial, const JournalScan &scan,
                 RecoveryReport &report);

} // namespace chisel::persist

#endif // CHISEL_PERSIST_RECOVERY_HH
