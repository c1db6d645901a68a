#include "net/rpc.hh"

#include <utility>

#include "persist/codec.hh"

namespace chisel::net {

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::LookupRequest: return "lookup_request";
      case MsgType::LookupReply: return "lookup_reply";
      case MsgType::UpdateRequest: return "update_request";
      case MsgType::UpdateReply: return "update_reply";
      case MsgType::Ping: return "ping";
      case MsgType::Pong: return "pong";
      case MsgType::Status: return "status";
    }
    return "?";
}

const char *
statusCodeName(StatusCode c)
{
    switch (c) {
      case StatusCode::Overloaded: return "overloaded";
      case StatusCode::Draining: return "draining";
      case StatusCode::BadRequest: return "bad_request";
    }
    return "?";
}

std::vector<uint8_t>
encodeMessage(const RpcMessage &msg)
{
    persist::Encoder payload;
    payload.u8(static_cast<uint8_t>(msg.type));
    payload.u64(msg.id);
    switch (msg.type) {
      case MsgType::LookupRequest:
        payload.u32(static_cast<uint32_t>(msg.keys.size()));
        for (const Key128 &k : msg.keys)
            payload.key(k);
        break;
      case MsgType::LookupReply:
        payload.u64(msg.generation);
        payload.u32(static_cast<uint32_t>(msg.lookups.size()));
        for (const WireLookup &r : msg.lookups) {
            payload.u8(r.found ? 1 : 0);
            payload.u32(r.nextHop);
            payload.u8(r.matchedLength);
        }
        break;
      case MsgType::UpdateRequest:
        payload.u32(static_cast<uint32_t>(msg.updates.size()));
        for (const Update &u : msg.updates) {
            payload.u8(static_cast<uint8_t>(u.kind));
            payload.prefix(u.prefix);
            payload.u32(u.nextHop);
            payload.u32(u.ttlMs);
        }
        break;
      case MsgType::UpdateReply:
        payload.u64(msg.durableSeq);
        payload.u32(static_cast<uint32_t>(msg.acks.size()));
        for (const WireAck &a : msg.acks) {
            payload.u8(a.acked ? 1 : 0);
            payload.u8(a.status);
            payload.u8(a.cls);
            payload.u64(a.seq);
        }
        break;
      case MsgType::Ping:
        break;
      case MsgType::Pong:
        payload.u8(msg.health);
        payload.u8(msg.draining ? 1 : 0);
        payload.u64(msg.generation);
        payload.u64(msg.routes);
        break;
      case MsgType::Status:
        payload.u8(msg.statusCode);
        payload.u64(msg.retryAfterMs);
        break;
    }

    return persist::encodeFrame(payload.buffer().data(), payload.size());
}

RpcMessage
makeLookupRequest(uint64_t id, std::vector<Key128> keys)
{
    RpcMessage m;
    m.type = MsgType::LookupRequest;
    m.id = id;
    m.keys = std::move(keys);
    return m;
}

RpcMessage
makeLookupReply(uint64_t id, uint64_t generation,
                std::vector<WireLookup> results)
{
    RpcMessage m;
    m.type = MsgType::LookupReply;
    m.id = id;
    m.generation = generation;
    m.lookups = std::move(results);
    return m;
}

RpcMessage
makeUpdateRequest(uint64_t id, std::vector<Update> updates)
{
    RpcMessage m;
    m.type = MsgType::UpdateRequest;
    m.id = id;
    m.updates = std::move(updates);
    return m;
}

RpcMessage
makeUpdateReply(uint64_t id, uint64_t durable_seq,
                std::vector<WireAck> acks)
{
    RpcMessage m;
    m.type = MsgType::UpdateReply;
    m.id = id;
    m.durableSeq = durable_seq;
    m.acks = std::move(acks);
    return m;
}

RpcMessage
makePing(uint64_t id)
{
    RpcMessage m;
    m.type = MsgType::Ping;
    m.id = id;
    return m;
}

RpcMessage
makePong(uint64_t id, uint8_t health, bool draining,
         uint64_t generation, uint64_t routes)
{
    RpcMessage m;
    m.type = MsgType::Pong;
    m.id = id;
    m.health = health;
    m.draining = draining;
    m.generation = generation;
    m.routes = routes;
    return m;
}

RpcMessage
makeStatus(uint64_t id, StatusCode code, uint64_t retry_after_ms)
{
    RpcMessage m;
    m.type = MsgType::Status;
    m.id = id;
    m.statusCode = code == StatusCode::Overloaded ||
                           code == StatusCode::Draining ||
                           code == StatusCode::BadRequest
                       ? static_cast<uint8_t>(code)
                       : static_cast<uint8_t>(StatusCode::BadRequest);
    m.retryAfterMs = retry_after_ms;
    return m;
}

// ---- MessageReader ---------------------------------------------------

bool
MessageReader::next(RpcMessage &out)
{
    const uint8_t *payload = nullptr;
    uint32_t len = 0;
    if (!FrameBuffer::next(payload, len))
        return false;

    try {
        persist::Decoder d(payload, len);
        RpcMessage m;
        uint8_t type = d.u8();
        m.id = d.u64();
        switch (static_cast<MsgType>(type)) {
          case MsgType::LookupRequest: {
            m.type = MsgType::LookupRequest;
            uint32_t n = d.u32();
            if (n > kMaxRpcBatch)
                throw persist::DecodeError("lookup batch too large");
            d.need(size_t(n) * 16);
            m.keys.reserve(n);
            for (uint32_t i = 0; i < n; ++i)
                m.keys.push_back(d.key());
            break;
          }
          case MsgType::LookupReply: {
            m.type = MsgType::LookupReply;
            m.generation = d.u64();
            uint32_t n = d.u32();
            if (n > kMaxRpcBatch)
                throw persist::DecodeError("lookup reply too large");
            d.need(size_t(n) * 6);
            m.lookups.reserve(n);
            for (uint32_t i = 0; i < n; ++i) {
                WireLookup r;
                r.found = d.boolean();
                r.nextHop = d.u32();
                r.matchedLength = d.u8();
                m.lookups.push_back(r);
            }
            break;
          }
          case MsgType::UpdateRequest: {
            m.type = MsgType::UpdateRequest;
            uint32_t n = d.u32();
            if (n > kMaxRpcBatch)
                throw persist::DecodeError("update batch too large");
            d.need(size_t(n) * 26);
            m.updates.reserve(n);
            for (uint32_t i = 0; i < n; ++i) {
                Update u;
                uint8_t kind = d.u8();
                if (kind > static_cast<uint8_t>(UpdateKind::Expire))
                    throw persist::DecodeError("unknown update kind");
                u.kind = static_cast<UpdateKind>(kind);
                u.prefix = d.prefix();
                u.nextHop = d.u32();
                u.ttlMs = d.u32();
                m.updates.push_back(u);
            }
            break;
          }
          case MsgType::UpdateReply: {
            m.type = MsgType::UpdateReply;
            m.durableSeq = d.u64();
            uint32_t n = d.u32();
            if (n > kMaxRpcBatch)
                throw persist::DecodeError("update reply too large");
            d.need(size_t(n) * 11);
            m.acks.reserve(n);
            for (uint32_t i = 0; i < n; ++i) {
                WireAck a;
                a.acked = d.boolean();
                a.status = d.u8();
                a.cls = d.u8();
                a.seq = d.u64();
                m.acks.push_back(a);
            }
            break;
          }
          case MsgType::Ping:
            m.type = MsgType::Ping;
            break;
          case MsgType::Pong:
            m.type = MsgType::Pong;
            m.health = d.u8();
            m.draining = d.boolean();
            m.generation = d.u64();
            m.routes = d.u64();
            break;
          case MsgType::Status: {
            m.type = MsgType::Status;
            uint8_t code = d.u8();
            if (code < static_cast<uint8_t>(StatusCode::Overloaded) ||
                code > static_cast<uint8_t>(StatusCode::BadRequest))
                throw persist::DecodeError("unknown status code");
            m.statusCode = code;
            m.retryAfterMs = d.u64();
            break;
          }
          default:
            poison("unknown message type " + std::to_string(type));
            return false;
        }
        // Every message type has fixed-shape fields: the payload must
        // be consumed exactly, or the frame was tampered with.
        if (!d.atEnd()) {
            poison("trailing bytes after " +
                   std::string(msgTypeName(m.type)) + " message");
            return false;
        }
        out = std::move(m);
        return true;
    } catch (const persist::DecodeError &e) {
        poison(std::string("malformed message payload: ") + e.what());
        return false;
    }
}

} // namespace chisel::net
