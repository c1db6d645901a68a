/**
 * @file
 * Replication wire protocol (docs/replication.md).
 *
 * Journal shipping runs over a plain byte stream, so the protocol is
 * self-framing and every frame is independently verifiable:
 *
 *     frame   := u32 payload length | u32 CRC(payload) | payload
 *     payload := u8 type | u64 epoch | type-specific fields
 *
 * — the same length|CRC|payload discipline as the on-disk journal
 * (src/persist/journal.hh), so a torn frame at a connection drop is
 * detected exactly like a torn tail at a crash: the CRC fails or the
 * length runs past the received bytes, and the connection is simply
 * dropped and re-established.
 *
 * Every frame carries the sender's fencing epoch.  Epochs are
 * monotonic across promotions: a follower that has promoted at epoch
 * E rejects any connection whose frames carry epoch < E by replying
 * Fenced — that is the whole split-brain defence, and it works even
 * when a SIGKILL'd leader is revived with stale state, because the
 * revived leader still ships its old epoch.
 *
 * Frame types and their type-specific fields:
 *
 *     Hello (follower -> leader, first frame on every connection)
 *         u64 config fingerprint | u64 lastAppliedSeq | u64 maxEpochSeen
 *     Welcome (leader -> follower, accepts the Hello)
 *         u64 config fingerprint | u64 lastSeq (leader journal head)
 *     Record (leader -> follower)
 *         journal-record bytes (persist::encodeJournalRecord)
 *     SnapshotBegin (leader -> follower)
 *         u64 coveredSeq | u64 totalBytes (of the snapshot image)
 *     SnapshotChunk (leader -> follower)
 *         u64 offset | remaining bytes = image chunk
 *     SnapshotEnd (leader -> follower)
 *         u32 CRC(whole image)
 *     Heartbeat (leader -> follower, on idle)
 *         u64 lastSeq
 *     Ack (follower -> leader)
 *         u64 appliedSeq
 *     Fenced (follower -> leader, then the follower drops the
 *             connection; the leader must stop shipping for good)
 *         u64 currentEpoch (the epoch the sender is fenced at)
 */

#ifndef CHISEL_REPLICA_WIRE_HH
#define CHISEL_REPLICA_WIRE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "persist/frame.hh"
#include "persist/journal.hh"

namespace chisel::replica {

/** Frame types (u8 on the wire; values are part of the protocol). */
enum class FrameType : uint8_t
{
    Hello = 1,
    Welcome = 2,
    Record = 3,
    SnapshotBegin = 4,
    SnapshotChunk = 5,
    SnapshotEnd = 6,
    Heartbeat = 7,
    Ack = 8,
    Fenced = 9,
};

const char *frameTypeName(FrameType t);

/** One decoded frame (the union of all types' fields). */
struct Frame
{
    FrameType type = FrameType::Heartbeat;
    uint64_t epoch = 0;

    uint64_t fingerprint = 0;     ///< Hello, Welcome.
    uint64_t lastAppliedSeq = 0;  ///< Hello.
    uint64_t maxEpochSeen = 0;    ///< Hello.
    uint64_t lastSeq = 0;         ///< Welcome, Heartbeat.
    uint64_t appliedSeq = 0;      ///< Ack.
    uint64_t currentEpoch = 0;    ///< Fenced.
    uint64_t coveredSeq = 0;      ///< SnapshotBegin.
    uint64_t totalBytes = 0;      ///< SnapshotBegin.
    uint64_t offset = 0;          ///< SnapshotChunk.
    uint32_t imageCrc = 0;        ///< SnapshotEnd.

    /** Record: journal-record bytes; SnapshotChunk: image bytes. */
    std::vector<uint8_t> payload;
};

/** Encode @p frame as one wire frame (length | crc | payload). */
std::vector<uint8_t> encodeFrame(const Frame &frame);

// Convenience constructors for the fixed-field frame types.
Frame makeHello(uint64_t epoch, uint64_t fingerprint,
                uint64_t last_applied_seq, uint64_t max_epoch_seen);
Frame makeWelcome(uint64_t epoch, uint64_t fingerprint,
                  uint64_t last_seq);
Frame makeRecord(uint64_t epoch, std::vector<uint8_t> record_bytes);
Frame makeSnapshotBegin(uint64_t epoch, uint64_t covered_seq,
                        uint64_t total_bytes);
Frame makeSnapshotChunk(uint64_t epoch, uint64_t offset,
                        const uint8_t *data, size_t len);
Frame makeSnapshotEnd(uint64_t epoch, uint32_t image_crc);
Frame makeHeartbeat(uint64_t epoch, uint64_t last_seq);
Frame makeAck(uint64_t epoch, uint64_t applied_seq);
Frame makeFenced(uint64_t epoch, uint64_t current_epoch);

/**
 * True iff a replica whose last applied update is @p applied already
 * holds a record of @p type stamped @p seq.  An Update at seq s is
 * covered once s <= applied.  A stamped record (Housekeeping,
 * ResizeMark) carries the seq of the update before it, so only a
 * later update covers it: s < applied.  A stamped record at exactly
 * the resume point is therefore shipped and applied again, which is
 * harmless: a second purge finds nothing dirty, and a resize to the
 * running config is a no-op.  The leader's resume cursor, the
 * follower's live apply and promotion's journal replay all use this
 * one rule.
 */
inline bool
covered(persist::JournalRecord::Type type, uint64_t seq, uint64_t applied)
{
    bool stamped = type == persist::JournalRecord::Type::Housekeeping ||
                   type == persist::JournalRecord::Type::ResizeMark;
    return stamped ? seq < applied : seq <= applied;
}

/** Upper bound a peer will accept for one frame's payload. */
constexpr uint32_t kMaxFramePayload = 64u << 20;

/** Upper bound a follower will accept for one snapshot transfer. */
constexpr uint64_t kMaxSnapshotBytes = 1ull << 31;

/** Wait for the peer's handshake frame (Hello or Welcome), ms. */
constexpr uint64_t kHandshakeTimeoutMs = 2000;

/**
 * Incremental frame parser.  Feed arbitrary byte chunks as they
 * arrive; poll next() for completed frames.  Any malformed frame —
 * oversized length, CRC mismatch, truncated or trailing payload
 * bytes, unknown type — poisons the reader (bad() turns true, next()
 * returns false forever): stream framing cannot be trusted past the
 * first violation, so the caller drops the connection and
 * reconnects, exactly like the journal's torn-tail rule.
 */
class FrameReader : private persist::FrameBuffer
{
  public:
    FrameReader() : FrameBuffer(kMaxFramePayload, "frame") {}

    /**
     * Decode the next completed frame into @p out.  @return false
     * when no complete frame is buffered (or the reader is bad()).
     */
    bool next(Frame &out);

    using FrameBuffer::bad;
    using FrameBuffer::buffered;
    using FrameBuffer::error;
    using FrameBuffer::feed;
};

class ByteStream;

/**
 * Encode @p frame and send it on @p stream.  When @p bytes_out is
 * non-null it receives the wire size.  @return false on a broken
 * stream.
 */
bool sendFrame(ByteStream &stream, const Frame &frame,
               uint64_t *bytes_out = nullptr);

/**
 * Receive into @p reader until one frame completes, waiting at most
 * @p timeout_ms total.  @return false on timeout, closed stream, or
 * a poisoned reader (check reader.bad() to tell the last two apart
 * from a plain timeout).
 */
bool readFrame(ByteStream &stream, FrameReader &reader, Frame &out,
               uint64_t timeout_ms);

} // namespace chisel::replica

#endif // CHISEL_REPLICA_WIRE_HH
