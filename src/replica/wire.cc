#include "replica/wire.hh"

#include <algorithm>
#include <cstring>

#include "common/clock.hh"
#include "persist/codec.hh"
#include "replica/transport.hh"

namespace chisel::replica {

const char *
frameTypeName(FrameType t)
{
    switch (t) {
      case FrameType::Hello: return "hello";
      case FrameType::Welcome: return "welcome";
      case FrameType::Record: return "record";
      case FrameType::SnapshotBegin: return "snapshot_begin";
      case FrameType::SnapshotChunk: return "snapshot_chunk";
      case FrameType::SnapshotEnd: return "snapshot_end";
      case FrameType::Heartbeat: return "heartbeat";
      case FrameType::Ack: return "ack";
      case FrameType::Fenced: return "fenced";
    }
    return "?";
}

std::vector<uint8_t>
encodeFrame(const Frame &frame)
{
    persist::Encoder payload;
    payload.u8(static_cast<uint8_t>(frame.type));
    payload.u64(frame.epoch);
    switch (frame.type) {
      case FrameType::Hello:
        payload.u64(frame.fingerprint);
        payload.u64(frame.lastAppliedSeq);
        payload.u64(frame.maxEpochSeen);
        break;
      case FrameType::Welcome:
        payload.u64(frame.fingerprint);
        payload.u64(frame.lastSeq);
        break;
      case FrameType::Record:
        payload.bytes(frame.payload.data(), frame.payload.size());
        break;
      case FrameType::SnapshotBegin:
        payload.u64(frame.coveredSeq);
        payload.u64(frame.totalBytes);
        break;
      case FrameType::SnapshotChunk:
        payload.u64(frame.offset);
        payload.bytes(frame.payload.data(), frame.payload.size());
        break;
      case FrameType::SnapshotEnd:
        payload.u32(frame.imageCrc);
        break;
      case FrameType::Heartbeat:
        payload.u64(frame.lastSeq);
        break;
      case FrameType::Ack:
        payload.u64(frame.appliedSeq);
        break;
      case FrameType::Fenced:
        payload.u64(frame.currentEpoch);
        break;
    }

    return persist::encodeFrame(payload.buffer().data(), payload.size());
}

Frame
makeHello(uint64_t epoch, uint64_t fingerprint,
          uint64_t last_applied_seq, uint64_t max_epoch_seen)
{
    Frame f;
    f.type = FrameType::Hello;
    f.epoch = epoch;
    f.fingerprint = fingerprint;
    f.lastAppliedSeq = last_applied_seq;
    f.maxEpochSeen = max_epoch_seen;
    return f;
}

Frame
makeWelcome(uint64_t epoch, uint64_t fingerprint, uint64_t last_seq)
{
    Frame f;
    f.type = FrameType::Welcome;
    f.epoch = epoch;
    f.fingerprint = fingerprint;
    f.lastSeq = last_seq;
    return f;
}

Frame
makeRecord(uint64_t epoch, std::vector<uint8_t> record_bytes)
{
    Frame f;
    f.type = FrameType::Record;
    f.epoch = epoch;
    f.payload = std::move(record_bytes);
    return f;
}

Frame
makeSnapshotBegin(uint64_t epoch, uint64_t covered_seq,
                  uint64_t total_bytes)
{
    Frame f;
    f.type = FrameType::SnapshotBegin;
    f.epoch = epoch;
    f.coveredSeq = covered_seq;
    f.totalBytes = total_bytes;
    return f;
}

Frame
makeSnapshotChunk(uint64_t epoch, uint64_t offset, const uint8_t *data,
                  size_t len)
{
    Frame f;
    f.type = FrameType::SnapshotChunk;
    f.epoch = epoch;
    f.offset = offset;
    f.payload.assign(data, data + len);
    return f;
}

Frame
makeSnapshotEnd(uint64_t epoch, uint32_t image_crc)
{
    Frame f;
    f.type = FrameType::SnapshotEnd;
    f.epoch = epoch;
    f.imageCrc = image_crc;
    return f;
}

Frame
makeHeartbeat(uint64_t epoch, uint64_t last_seq)
{
    Frame f;
    f.type = FrameType::Heartbeat;
    f.epoch = epoch;
    f.lastSeq = last_seq;
    return f;
}

Frame
makeAck(uint64_t epoch, uint64_t applied_seq)
{
    Frame f;
    f.type = FrameType::Ack;
    f.epoch = epoch;
    f.appliedSeq = applied_seq;
    return f;
}

Frame
makeFenced(uint64_t epoch, uint64_t current_epoch)
{
    Frame f;
    f.type = FrameType::Fenced;
    f.epoch = epoch;
    f.currentEpoch = current_epoch;
    return f;
}

// ---- FrameReader -----------------------------------------------------

bool
FrameReader::next(Frame &out)
{
    const uint8_t *payload = nullptr;
    uint32_t len = 0;
    if (!FrameBuffer::next(payload, len))
        return false;

    try {
        persist::Decoder d(payload, len);
        Frame f;
        uint8_t type = d.u8();
        f.epoch = d.u64();
        switch (static_cast<FrameType>(type)) {
          case FrameType::Hello:
            f.type = FrameType::Hello;
            f.fingerprint = d.u64();
            f.lastAppliedSeq = d.u64();
            f.maxEpochSeen = d.u64();
            break;
          case FrameType::Welcome:
            f.type = FrameType::Welcome;
            f.fingerprint = d.u64();
            f.lastSeq = d.u64();
            break;
          case FrameType::Record:
            f.type = FrameType::Record;
            f.payload.assign(payload + d.position(), payload + len);
            // Validate the embedded journal record now, so a corrupt
            // record poisons the stream here rather than surfacing a
            // DecodeError deep inside the follower's apply loop.
            persist::decodeJournalRecord(f.payload.data(),
                                         f.payload.size());
            break;
          case FrameType::SnapshotBegin:
            f.type = FrameType::SnapshotBegin;
            f.coveredSeq = d.u64();
            f.totalBytes = d.u64();
            break;
          case FrameType::SnapshotChunk:
            f.type = FrameType::SnapshotChunk;
            f.offset = d.u64();
            f.payload.assign(payload + d.position(), payload + len);
            break;
          case FrameType::SnapshotEnd:
            f.type = FrameType::SnapshotEnd;
            f.imageCrc = d.u32();
            break;
          case FrameType::Heartbeat:
            f.type = FrameType::Heartbeat;
            f.lastSeq = d.u64();
            break;
          case FrameType::Ack:
            f.type = FrameType::Ack;
            f.appliedSeq = d.u64();
            break;
          case FrameType::Fenced:
            f.type = FrameType::Fenced;
            f.currentEpoch = d.u64();
            break;
          default:
            poison("unknown frame type " + std::to_string(type));
            return false;
        }
        // Fixed-field frames must consume their payload exactly;
        // Record/SnapshotChunk take the remainder by construction.
        if (f.type != FrameType::Record &&
            f.type != FrameType::SnapshotChunk && !d.atEnd()) {
            poison("trailing bytes after " +
                   std::string(frameTypeName(f.type)) + " frame");
            return false;
        }
        out = std::move(f);
        return true;
    } catch (const persist::DecodeError &e) {
        poison(std::string("malformed frame payload: ") + e.what());
        return false;
    }
}

// ---- Stream helpers --------------------------------------------------

bool
sendFrame(ByteStream &stream, const Frame &frame, uint64_t *bytes_out)
{
    std::vector<uint8_t> wire = encodeFrame(frame);
    if (bytes_out)
        *bytes_out = wire.size();
    return stream.send(wire.data(), wire.size());
}

bool
readFrame(ByteStream &stream, FrameReader &reader, Frame &out,
          uint64_t timeout_ms)
{
    uint64_t deadline = monotonicNowNs() + timeout_ms * 1000000ull;
    while (true) {
        if (reader.next(out))
            return true;
        if (reader.bad())
            return false;
        uint64_t now = monotonicNowNs();
        if (now >= deadline)
            return false;
        int slice = static_cast<int>(
            std::min<uint64_t>((deadline - now) / 1000000ull + 1, 100));
        uint8_t buf[4096];
        int n = stream.recv(buf, sizeof(buf), slice);
        if (n < 0)
            return false;
        if (n > 0)
            reader.feed(buf, static_cast<size_t>(n));
    }
}

} // namespace chisel::replica
