#include "persist/snapshot.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "common/logging.hh"
#include "core/resize.hh"
#include "fault/fault.hh"
#include "persist/codec.hh"
#include "telemetry/flight.hh"

namespace chisel::persist {

namespace {

constexpr uint32_t kSnapshotMagic = 0x31534843;   // "CHS1"
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 4;    // magic ver len crc
constexpr size_t kLengthAt = 8;                   // Header offsets.
constexpr size_t kCrcAt = 16;

} // anonymous namespace

std::string
previousSnapshotPath(const std::string &path)
{
    return path + ".prev";
}

const char *
snapshotLoadStatusName(SnapshotLoadStatus s)
{
    switch (s) {
      case SnapshotLoadStatus::Ok: return "ok";
      case SnapshotLoadStatus::Missing: return "missing";
      case SnapshotLoadStatus::Corrupt: return "corrupt";
      case SnapshotLoadStatus::VersionMismatch: return "version-mismatch";
      case SnapshotLoadStatus::ConfigMismatch: return "config-mismatch";
    }
    return "?";
}

std::vector<uint8_t>
encodeSnapshotImage(const ChiselEngine &engine, uint64_t last_seq)
{
    // One buffer: the header with its length and CRC left zero, then
    // the payload, then the two header fields patched in place.
    Encoder image;
    image.u32(kSnapshotMagic);
    image.u32(kSnapshotVersion);
    image.u64(0);
    image.u32(0);
    encodeConfig(image, engine.config());
    image.u64(last_seq);
    engine.saveState(image);

    uint8_t *payload = image.buffer().data() + kHeaderBytes;
    const size_t payload_size = image.size() - kHeaderBytes;
    image.patchU64(kLengthAt, payload_size);
    image.patchU32(kCrcAt, crc32(payload, payload_size));

    if (CHISEL_FAULT_FIRE(SnapshotCorrupt)) {
        // Bit rot between checksum and media: flip one payload bit
        // after the CRC was computed, so the image on disk fails its
        // own check.  Target drawn deterministically from the
        // injector so a failing scenario replays from its seed.
        fault::FaultInjector *inj = fault::activeInjector();
        uint64_t bit = inj->draw(payload_size * 8);
        payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    return std::move(image.buffer());
}

size_t
saveSnapshot(const std::string &path, const ChiselEngine &engine,
             uint64_t last_seq)
{
    Encoder image;
    image.buffer() = encodeSnapshotImage(engine, last_seq);

    // Atomic install: tmp + fsync + rename, with the old image
    // rotated aside first so recovery can fall back to it.
    std::string tmp = path + ".tmp";
    FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        fatalError("cannot create snapshot '" + tmp + "': " +
                   std::strerror(errno));
    bool wrote = std::fwrite(image.buffer().data(), 1, image.size(),
                             f) == image.size();
    wrote = std::fflush(f) == 0 && wrote;
    wrote = ::fsync(fileno(f)) == 0 && wrote;
    std::fclose(f);
    if (!wrote) {
        std::remove(tmp.c_str());
        fatalError("snapshot write failed: " +
                   std::string(std::strerror(errno)));
    }

    // Rotation failure (no previous snapshot) is the common case.
    std::rename(path.c_str(), previousSnapshotPath(path).c_str());

    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fatalError("snapshot rename failed: " +
                   std::string(std::strerror(errno)));
    }
    CHISEL_FLIGHT_EVENT(SnapshotSave, 0, last_seq, image.size());
    return image.size();
}

SnapshotLoadResult
loadSnapshotBuffer(const uint8_t *data, size_t size,
                   const ChiselConfig *expect, bool enforce_crc,
                   bool allow_elastic)
{
    SnapshotLoadResult result;
    if (size < kHeaderBytes) {
        result.status = SnapshotLoadStatus::Corrupt;
        result.error = "snapshot shorter than its header";
        return result;
    }

    Decoder hdr(data, size);
    uint32_t magic = hdr.u32();
    uint32_t version = hdr.u32();
    uint64_t payload_len = hdr.u64();
    uint32_t stored_crc = hdr.u32();

    if (magic != kSnapshotMagic) {
        result.status = SnapshotLoadStatus::Corrupt;
        result.error = "snapshot magic mismatch";
        return result;
    }
    if (version != kSnapshotVersion) {
        result.status = SnapshotLoadStatus::VersionMismatch;
        result.error = "snapshot version " + std::to_string(version) +
                       " (expected " +
                       std::to_string(kSnapshotVersion) + ")";
        return result;
    }
    if (payload_len != size - kHeaderBytes) {
        result.status = SnapshotLoadStatus::Corrupt;
        result.error = "snapshot payload length mismatch";
        return result;
    }
    const uint8_t *payload = data + kHeaderBytes;
    if (enforce_crc && crc32(payload, payload_len) != stored_crc) {
        result.status = SnapshotLoadStatus::Corrupt;
        result.error = "snapshot payload CRC mismatch";
        return result;
    }

    try {
        Decoder dec(payload, payload_len);
        // Config first: geometry mismatch is decided before a single
        // table byte is decoded.
        ChiselConfig embedded = decodeConfig(dec);
        bool accepted =
            expect == nullptr || embedded == *expect ||
            (allow_elastic && elasticCompatible(embedded, *expect));
        if (!accepted) {
            result.status = SnapshotLoadStatus::ConfigMismatch;
            result.error =
                "snapshot written under a different config";
            return result;
        }
        result.lastSeq = dec.u64();
        result.engine = ChiselEngine::restoreState(embedded, dec);
        if (!dec.atEnd())
            throw DecodeError("snapshot has trailing bytes");
    } catch (const DecodeError &e) {
        result.status = SnapshotLoadStatus::Corrupt;
        result.error = e.what();
        result.engine.reset();
        return result;
    }

    result.status = SnapshotLoadStatus::Ok;
    return result;
}

SnapshotLoadResult
loadSnapshot(const std::string &path, const ChiselConfig *expect,
             bool allow_elastic)
{
    SnapshotLoadResult result;
    FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        result.status = SnapshotLoadStatus::Missing;
        result.error = "cannot open snapshot '" + path + "': " +
                       std::strerror(errno);
        CHISEL_FLIGHT_EVENT(SnapshotLoad, result.status, 0, 0);
        return result;
    }
    std::vector<uint8_t> bytes;
    uint8_t chunk[65536];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        bytes.insert(bytes.end(), chunk, chunk + n);
    std::fclose(f);
    result = loadSnapshotBuffer(bytes.data(), bytes.size(), expect,
                                true, allow_elastic);
    CHISEL_FLIGHT_EVENT(SnapshotLoad, result.status, result.lastSeq, 0);
    return result;
}

} // namespace chisel::persist
