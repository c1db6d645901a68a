/**
 * @file
 * RPC wire protocol for the lookup service (docs/service.md).
 *
 * The service speaks the same self-framing byte discipline as the
 * on-disk journal and the replication wire:
 *
 *     frame   := u32 payload length | u32 CRC(payload) | payload
 *     payload := u8 type | u64 id | type-specific fields
 *
 * so a torn frame at a connection reset is detected exactly like a
 * torn tail at a crash: the CRC fails or the length overruns the
 * received bytes, the reader poisons, and the connection is dropped.
 * The id echoes from request to reply, letting a client pipeline
 * requests and match replies after a reconnect discarded the stream.
 *
 * Message types and their fields (all integers little-endian):
 *
 *     LookupRequest (client -> server)
 *         u32 n | n x Key128 (hi, lo)
 *     LookupReply (server -> client)
 *         u64 generation | u32 n
 *         | n x { u8 found | u32 nextHop | u8 matchedLength }
 *     UpdateRequest (client -> server)
 *         u32 n | n x { u8 kind | prefix | u32 nextHop | u32 ttlMs }
 *     UpdateReply (server -> client)
 *         u64 durableSeq | u32 n
 *         | n x { u8 acked | u8 status | u8 cls | u64 seq }
 *     Ping (client -> server)
 *         (no fields)
 *     Pong (server -> client)
 *         u8 health | u8 draining | u64 generation | u64 routes
 *     Status (server -> client, instead of the typed reply)
 *         u8 code | u64 retryAfterMs
 *
 * A Status reply is the structured fail-fast path: Overloaded when
 * load shedding refuses the request, Draining during graceful
 * shutdown, BadRequest when the request decoded but violated a
 * protocol rule (empty batch, oversized batch, Expire from a client).
 * An ack in an UpdateReply is the durability promise: acked = 1 is
 * only ever sent once UpdateJournal::lastDurableSeq() covers that
 * update's seq (docs/service.md, "no acked-but-lost window").
 */

#ifndef CHISEL_NET_RPC_HH
#define CHISEL_NET_RPC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/key128.hh"
#include "persist/frame.hh"
#include "route/updates.hh"

namespace chisel::net {

/** Message types (u8 on the wire; values are part of the protocol). */
enum class MsgType : uint8_t
{
    LookupRequest = 1,
    LookupReply = 2,
    UpdateRequest = 3,
    UpdateReply = 4,
    Ping = 5,
    Pong = 6,
    Status = 7,
};

const char *msgTypeName(MsgType t);

/** Status-reply codes (u8 on the wire). */
enum class StatusCode : uint8_t
{
    Overloaded = 1,  ///< Shed by health state or admission tokens.
    Draining = 2,    ///< Graceful shutdown in progress.
    BadRequest = 3,  ///< Well-framed but protocol-violating request.
};

const char *statusCodeName(StatusCode c);

/** One per-key result inside a LookupReply. */
struct WireLookup
{
    bool found = false;
    uint32_t nextHop = 0;
    uint8_t matchedLength = 0;
};

/** One per-update result inside an UpdateReply. */
struct WireAck
{
    /** 1 = journaled, applied AND fsync-covered; 0 = refused. */
    bool acked = false;
    uint8_t status = 0;  ///< UpdateStatus of the apply (when acked).
    uint8_t cls = 0;     ///< UpdateClass of the apply (when acked).
    uint64_t seq = 0;    ///< Journal sequence (0 when not journaled).
};

/** One decoded message (the union of all types' fields). */
struct RpcMessage
{
    MsgType type = MsgType::Ping;
    uint64_t id = 0;

    std::vector<Key128> keys;         ///< LookupRequest.
    uint64_t generation = 0;          ///< LookupReply, Pong.
    std::vector<WireLookup> lookups;  ///< LookupReply.
    std::vector<Update> updates;      ///< UpdateRequest.
    uint64_t durableSeq = 0;          ///< UpdateReply.
    std::vector<WireAck> acks;        ///< UpdateReply.
    uint8_t health = 0;               ///< Pong (HealthState).
    bool draining = false;            ///< Pong.
    uint64_t routes = 0;              ///< Pong.
    uint8_t statusCode = 0;           ///< Status (StatusCode).
    uint64_t retryAfterMs = 0;        ///< Status.
};

/**
 * Upper bound a peer will accept for one message payload.  Far above
 * anything kMaxRpcBatch can produce; a length past it poisons the
 * reader immediately instead of waiting for bytes that may never
 * come.
 */
constexpr uint32_t kMaxRpcPayload = 4u << 20;

/** Maximum keys/updates in one batched request (or results in a reply). */
constexpr uint32_t kMaxRpcBatch = 4096;

/** Encode @p msg as one wire frame (length | crc | payload). */
std::vector<uint8_t> encodeMessage(const RpcMessage &msg);

// Convenience constructors.
RpcMessage makeLookupRequest(uint64_t id, std::vector<Key128> keys);
RpcMessage makeLookupReply(uint64_t id, uint64_t generation,
                           std::vector<WireLookup> results);
RpcMessage makeUpdateRequest(uint64_t id, std::vector<Update> updates);
RpcMessage makeUpdateReply(uint64_t id, uint64_t durable_seq,
                           std::vector<WireAck> acks);
RpcMessage makePing(uint64_t id);
RpcMessage makePong(uint64_t id, uint8_t health, bool draining,
                    uint64_t generation, uint64_t routes);
RpcMessage makeStatus(uint64_t id, StatusCode code,
                      uint64_t retry_after_ms);

/**
 * Incremental message parser with the journal's poison discipline:
 * feed arbitrary byte chunks as they arrive, poll next() for
 * completed messages.  Any framing violation — oversized length, CRC
 * mismatch, unknown type, truncated or trailing payload bytes, a
 * batch past kMaxRpcBatch — poisons the reader permanently (bad()
 * turns true, next() returns false forever): framing cannot be
 * trusted past the first violation, so the owner drops the
 * connection.  This is the decoder the fuzz harness
 * (fuzz/fuzz_wire.cc) hammers.
 */
class MessageReader : private persist::FrameBuffer
{
  public:
    MessageReader() : FrameBuffer(kMaxRpcPayload, "message") {}

    /**
     * Decode the next completed message into @p out.  @return false
     * when no complete message is buffered (or the reader is bad()).
     */
    bool next(RpcMessage &out);

    using FrameBuffer::bad;
    using FrameBuffer::buffered;
    using FrameBuffer::error;
    using FrameBuffer::feed;
};

} // namespace chisel::net

#endif // CHISEL_NET_RPC_HH
