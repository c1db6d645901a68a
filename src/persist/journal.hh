/**
 * @file
 * Write-ahead update journal (docs/persistence.md).
 *
 * Every announce/withdraw is appended — and fsync'd on a configurable
 * batch boundary — *before* the engine mutates, so a crash at any
 * instant loses at most the updates the sync policy admits losing.
 * After the engine applies an update, a second record carries its
 * structured UpdateOutcome; on recovery that record doubles as the
 * commit marker ("this update was fully applied before the crash").
 *
 * On-disk layout:
 *
 *     header  := magic "CHJ1" | u32 version | u64 config fingerprint
 *                | u32 CRC(previous fields)
 *     record  := u32 payload length | u32 CRC(payload) | payload
 *     payload := u8 type | u64 seq | type-specific fields
 *
 * The reader walks records until the first length/CRC violation and
 * discards everything from there on (torn-tail rule): a crash mid
 * append can only ever damage the final record, so the prefix that
 * passes CRC is exactly the prefix that was durable.
 */

#ifndef CHISEL_PERSIST_JOURNAL_HH
#define CHISEL_PERSIST_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "core/update_outcome.hh"
#include "persist/codec.hh"
#include "route/updates.hh"

namespace chisel::persist {

/** Journal format version (bumped on any layout change). */
constexpr uint32_t kJournalVersion = 3;

/** One decoded journal record. */
struct JournalRecord
{
    enum class Type : uint8_t
    {
        Update = 1,        ///< An update, logged before it was applied.
        Outcome = 2,       ///< Commit marker: the update's outcome.
        SnapshotMark = 3,  ///< A snapshot covering seqs <= seq exists.
        Housekeeping = 4,  ///< A maintenance operation (e.g. purge).
        ResizeMark = 5,    ///< A live resize republished the engine
                           ///  under the embedded (grown) config.
    };

    /** What a Housekeeping record did to the engine. */
    enum class HousekeepingKind : uint8_t
    {
        PurgeDirty = 1,  ///< ChiselEngine::purgeDirty() was run.
    };

    Type type = Type::Update;

    /** Update sequence number (monotonic, assigned by the writer). */
    uint64_t seq = 0;

    /** Type::Update payload. */
    Update update;

    /** Type::Outcome payload (a flattened UpdateOutcome). */
    uint8_t cls = 0;
    uint8_t status = 0;
    uint32_t setupRetries = 0;
    uint32_t tcamOverflows = 0;
    uint32_t slowPathInserts = 0;
    uint32_t slowPathRejections = 0;
    uint32_t parityRecoveries = 0;

    /** Type::Housekeeping payload. */
    HousekeepingKind housekeeping = HousekeepingKind::PurgeDirty;

    /**
     * Type::ResizeMark payload: the full configuration the engine was
     * republished under.  Replay rebuilds its engine with this config
     * at the mark's stream position, so state after the mark (and any
     * snapshot fingerprinted with it) stays meaningful.
     */
    ChiselConfig resizeConfig;
};

/** Result of scanning a journal file or buffer. */
struct JournalScan
{
    /** False if the header is missing/corrupt/mismatched. */
    bool headerOk = false;

    /** Why headerOk is false; empty otherwise. */
    std::string error;

    /** Config fingerprint stamped in the header. */
    uint64_t fingerprint = 0;

    /** Every record up to the first invalid one. */
    std::vector<JournalRecord> records;

    /** Bytes of the file that form the valid prefix. */
    size_t validBytes = 0;

    /** True if bytes past validBytes were discarded (torn tail). */
    bool truncatedTail = false;

    /** Highest Update-record seq in the valid prefix (0 if none). */
    uint64_t lastSeq = 0;

    /** Highest seq with an Outcome (commit) record (0 if none). */
    uint64_t lastCommittedSeq = 0;

    /** Highest SnapshotMark seq (0 if none). */
    uint64_t lastSnapshotSeq = 0;
};

/**
 * Append-side of the journal.  Not copyable; movable.
 *
 * I/O errors throw ChiselError (they mean the durability contract is
 * already broken); format problems on open are reported through
 * scanJournal, which open() runs first to find the valid prefix.
 */
class UpdateJournal
{
  public:
    /**
     * Receives each record once it is written: the record (its seq
     * stamp and fields) and the payload bytes its frame's CRC covers.
     * Called on the writing thread, inside the append.
     */
    using RecordObserver = std::function<void(
        const JournalRecord &rec, const uint8_t *payload, size_t size)>;

    /**
     * Open @p path for appending, creating it (with a header) if
     * absent or empty.  An existing journal is scanned: its header
     * must carry @p config_fingerprint, and a torn tail is truncated
     * away so appends continue from the last valid record.
     *
     * @param fsync_every fsync after every Nth record (1 = every
     *        record, the strict default; 0 = never, trusting the OS).
     *        Outcome records do not count: each rides with the next
     *        record's flush and fsync.
     */
    UpdateJournal(const std::string &path, uint64_t config_fingerprint,
                  size_t fsync_every = 1);

    ~UpdateJournal();

    UpdateJournal(const UpdateJournal &) = delete;
    UpdateJournal &operator=(const UpdateJournal &) = delete;

    /**
     * Log an update *before* applying it.  @return the sequence
     * number assigned (monotonic from the scan's lastSeq + 1), or 0
     * if the record could NOT be durably logged (a write/fsync
     * failure, e.g. ENOSPC).  A zero return means the caller must
     * not acknowledge or apply the update: the durable history ends
     * at lastSeq(), and the journal refuses all further appends
     * (ioHealthy() turns false) so the failure is structural, not
     * silent (docs/persistence.md).
     */
    uint64_t append(const Update &update);

    /**
     * Log the outcome of applied seq @p seq (the commit marker).  The
     * record stays in the stdio buffer: it reaches the kernel with the
     * next record's flush, with sync() or ensureDurable(), or when the
     * journal closes — one write syscall per update, not two.  Replay,
     * followers and the audit ignore Outcome records, so losing the
     * last one to a crash changes no recovered state.  It is flushed
     * on its own only when a batch fsync falls due.
     */
    void appendOutcome(uint64_t seq, const UpdateOutcome &outcome);

    /** Record that a snapshot covering seqs <= @p seq was written. */
    void appendSnapshotMark(uint64_t seq);

    /**
     * Record a maintenance operation (e.g. a purgeDirty() sweep) that
     * mutates engine state outside the announce/withdraw stream.  The
     * record is stamped with the current lastSeq and does *not*
     * consume an update sequence number: replay re-runs it in stream
     * order between the surrounding updates.
     */
    void appendHousekeeping(JournalRecord::HousekeepingKind kind);

    /**
     * Record a live resize: the engine was republished under
     * @p config.  Stamped with the current lastSeq like housekeeping
     * records — replay re-runs the rebuild at the same stream
     * position between the surrounding updates.
     */
    void appendResizeMark(const ChiselConfig &config);

    /**
     * Hand every record written from now on to @p observer (a
     * replication shipper); one at most, replacing any earlier one.
     * A record the journal refuses (an I/O failure) or tears is
     * handed to no one.  Set it before any other thread appends.
     */
    void setObserver(RecordObserver observer);

    /** Force an fsync now regardless of the batch policy. */
    void sync();

    /**
     * Hand buffered records (a held-back Outcome) to the kernel, so a
     * scan of path() in this process sees them; no fsync.
     */
    void flush();

    /**
     * Make sure every record up to @p seq is fsync-covered before
     * acknowledging it: a no-op when lastDurableSeq() already covers
     * @p seq, one sync() otherwise.  @return true iff @p seq is
     * durable afterwards — false means the caller must NOT ack (the
     * sync failed, or the journal was already unhealthy).  This is
     * the ack gate of the RPC service (docs/service.md): under a
     * batched fsync policy it narrows the acked-but-lost window to
     * exactly zero without forcing fsync_every = 1 on the whole
     * stream.
     */
    bool ensureDurable(uint64_t seq);

    /**
     * False once any write/fsync has failed: the journal can no
     * longer uphold its durability contract, every later append is
     * refused, and the owner must stop acknowledging updates
     * (surface the condition as a Degraded outcome upstream).
     */
    bool ioHealthy() const { return !ioFailed_; }

    /** Write/fsync failures observed (the journal_io_errors counter). */
    uint64_t ioErrors() const { return ioErrors_; }

    /** Human-readable description of the first I/O failure. */
    const std::string &ioError() const { return ioError_; }

    /** Records appended by this writer (not counting preexisting). */
    uint64_t recordsWritten() const { return written_; }

    /** Sequence number of the last appended/preexisting update. */
    uint64_t lastSeq() const { return seq_; }

    /**
     * Highest update seq covered by a successful fsync.  Equal to
     * lastSeq() under the strict policy (fsync_every = 1); with a
     * batched policy, seqs in (lastDurableSeq(), lastSeq()] have been
     * written and flushed but not yet synced — if the batch fsync
     * then fails, exactly those seqs were acknowledged without being
     * durable, and recordIoError reports that window so owners can
     * un-ack or alert on the exposure.
     */
    uint64_t lastDurableSeq() const { return durableSeq_; }

    const std::string &path() const { return path_; }

    /** The config fingerprint stamped in the header. */
    uint64_t fingerprint() const { return fingerprint_; }

  private:
    /**
     * Frame @p rec and write it.  @return false iff the record was
     * refused by an I/O failure.  @p seq_after is the journal head
     * once this record is durable (the record's own seq for updates,
     * the current head otherwise); a batch-boundary fsync inside the
     * write advances the durable head to exactly that.  @p flush
     * false leaves the record in the stdio buffer unless that fsync
     * falls due.
     */
    bool writeRecord(const JournalRecord &rec, uint64_t seq_after,
                     bool flush = true);

    /** sync() targeting @p head as the durable seq on success. */
    void syncTo(uint64_t head);

    /** Latch an I/O failure: count, flight-record, refuse appends. */
    void recordIoError(const std::string &what);

    std::string path_;
    uint64_t fingerprint_;
    FILE *file_ = nullptr;
    /** One record's frame, encoded in place; reused across records. */
    Encoder frame_;
    RecordObserver observer_;
    size_t fsyncEvery_;
    size_t sinceSync_ = 0;
    uint64_t seq_ = 0;
    uint64_t durableSeq_ = 0;
    uint64_t written_ = 0;
    /**
     * JournalTornWrite fired: the current record was half-written and
     * the "process" is considered dead — swallow all later appends.
     */
    bool torn_ = false;

    /** A write/fsync failed; the durability contract is void. */
    bool ioFailed_ = false;
    uint64_t ioErrors_ = 0;
    std::string ioError_;
};

/**
 * Encode one journal record payload (the bytes a journal frame's CRC
 * covers).  Shared with the replication layer (src/replica/), which
 * ships the exact same payloads over a byte stream so the follower
 * replays what the disk would have replayed.
 */
std::vector<uint8_t> encodeJournalRecord(const JournalRecord &rec);

/** encodeJournalRecord() appended to @p enc. */
void encodeJournalRecord(const JournalRecord &rec, Encoder &enc);

/**
 * Decode one journal record payload; throws DecodeError on malformed
 * bytes (the replication receiver treats that as a corrupt shipment
 * and drops the connection).
 */
JournalRecord decodeJournalRecord(const uint8_t *data, size_t size);

/**
 * Scan a journal file.  Never throws on malformed content — a corrupt
 * journal is an expected recovery input, reported via the scan result.
 * @p expect_fingerprint 0 accepts any fingerprint.
 */
JournalScan scanJournal(const std::string &path,
                        uint64_t expect_fingerprint);

/** scanJournal over an in-memory image (tests, fuzzing). */
JournalScan scanJournalBuffer(const uint8_t *data, size_t size,
                              uint64_t expect_fingerprint);

} // namespace chisel::persist

#endif // CHISEL_PERSIST_JOURNAL_HH
