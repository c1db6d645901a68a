#include "persist/journal.hh"

#include <cerrno>
#include <cstring>

#include <unistd.h>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "persist/codec.hh"
#include "persist/frame.hh"
#include "telemetry/flight.hh"

namespace chisel::persist {

namespace {

constexpr uint32_t kJournalMagic = 0x314A4843;   // "CHJ1"
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 4;   // magic ver fp crc
constexpr uint32_t kMaxRecordBytes = 1u << 20;   // Longer is corruption.

std::vector<uint8_t>
encodeHeader(uint64_t fingerprint)
{
    Encoder enc;
    enc.u32(kJournalMagic);
    enc.u32(kJournalVersion);
    enc.u64(fingerprint);
    enc.u32(crc32(enc.buffer().data(), enc.size()));
    return enc.buffer();
}

} // anonymous namespace

std::vector<uint8_t>
encodeJournalRecord(const JournalRecord &rec)
{
    Encoder enc;
    encodeJournalRecord(rec, enc);
    return std::move(enc.buffer());
}

void
encodeJournalRecord(const JournalRecord &rec, Encoder &enc)
{
    enc.u8(static_cast<uint8_t>(rec.type));
    enc.u64(rec.seq);
    switch (rec.type) {
      case JournalRecord::Type::Update:
        enc.u8(static_cast<uint8_t>(rec.update.kind));
        enc.prefix(rec.update.prefix);
        enc.u32(rec.update.nextHop);
        enc.u32(rec.update.ttlMs);
        break;
      case JournalRecord::Type::Outcome:
        enc.u8(rec.cls);
        enc.u8(rec.status);
        enc.u32(rec.setupRetries);
        enc.u32(rec.tcamOverflows);
        enc.u32(rec.slowPathInserts);
        enc.u32(rec.slowPathRejections);
        enc.u32(rec.parityRecoveries);
        break;
      case JournalRecord::Type::SnapshotMark:
        break;
      case JournalRecord::Type::Housekeeping:
        enc.u8(static_cast<uint8_t>(rec.housekeeping));
        break;
      case JournalRecord::Type::ResizeMark:
        encodeConfig(enc, rec.resizeConfig);
        break;
    }
}

/** Decode one record payload; throws DecodeError on malformed bytes. */
JournalRecord
decodeJournalRecord(const uint8_t *data, size_t size)
{
    Decoder dec(data, size);
    JournalRecord rec;
    uint8_t type = dec.u8();
    if (type < 1 || type > 5)
        throw DecodeError("journal record: unknown type");
    rec.type = static_cast<JournalRecord::Type>(type);
    rec.seq = dec.u64();
    switch (rec.type) {
      case JournalRecord::Type::Update: {
        uint8_t kind = dec.u8();
        if (kind > 2)
            throw DecodeError("journal record: bad update kind");
        rec.update.kind = static_cast<UpdateKind>(kind);
        rec.update.prefix = dec.prefix();
        rec.update.nextHop = dec.u32();
        rec.update.ttlMs = dec.u32();
        break;
      }
      case JournalRecord::Type::Outcome:
        rec.cls = dec.u8();
        rec.status = dec.u8();
        if (rec.cls >= kUpdateClassCount || rec.status > 2)
            throw DecodeError("journal record: bad outcome enums");
        rec.setupRetries = dec.u32();
        rec.tcamOverflows = dec.u32();
        rec.slowPathInserts = dec.u32();
        rec.slowPathRejections = dec.u32();
        rec.parityRecoveries = dec.u32();
        break;
      case JournalRecord::Type::SnapshotMark:
        break;
      case JournalRecord::Type::Housekeeping: {
        uint8_t kind = dec.u8();
        if (kind != 1)
            throw DecodeError("journal record: bad housekeeping kind");
        rec.housekeeping =
            static_cast<JournalRecord::HousekeepingKind>(kind);
        break;
      }
      case JournalRecord::Type::ResizeMark:
        rec.resizeConfig = decodeConfig(dec);
        break;
    }
    if (!dec.atEnd())
        throw DecodeError("journal record: trailing bytes");
    return rec;
}

JournalScan
scanJournalBuffer(const uint8_t *data, size_t size,
                  uint64_t expect_fingerprint)
{
    JournalScan scan;
    if (size < kHeaderBytes) {
        scan.error = "journal shorter than its header";
        return scan;
    }

    Decoder hdr(data, size);
    uint32_t magic = hdr.u32();
    uint32_t version = hdr.u32();
    uint64_t fingerprint = hdr.u64();
    uint32_t stored_crc = hdr.u32();
    if (magic != kJournalMagic) {
        scan.error = "journal magic mismatch";
        return scan;
    }
    if (crc32(data, kHeaderBytes - 4) != stored_crc) {
        scan.error = "journal header CRC mismatch";
        return scan;
    }
    if (version != kJournalVersion) {
        scan.error = "journal version mismatch";
        return scan;
    }
    scan.fingerprint = fingerprint;
    if (expect_fingerprint != 0 && fingerprint != expect_fingerprint) {
        scan.error = "journal written under a different config";
        return scan;
    }
    scan.headerOk = true;
    scan.validBytes = kHeaderBytes;

    // The valid prefix ends at the first frame that is partial (a
    // torn write), oversized, fails its CRC (bit rot) or does not
    // decode although its CRC passed.
    size_t pos = kHeaderBytes;
    uint32_t len = 0;
    while (checkFrame(data + pos, size - pos, kMaxRecordBytes, len) ==
           FrameCheck::Ok) {
        JournalRecord rec;
        try {
            rec = decodeJournalRecord(data + pos + kFrameHeaderBytes, len);
        } catch (const DecodeError &) {
            break;
        }
        scan.records.push_back(rec);
        pos += kFrameHeaderBytes + len;
        scan.validBytes = pos;
        switch (rec.type) {
          case JournalRecord::Type::Update:
            if (rec.seq > scan.lastSeq)
                scan.lastSeq = rec.seq;
            break;
          case JournalRecord::Type::Outcome:
            if (rec.seq > scan.lastCommittedSeq)
                scan.lastCommittedSeq = rec.seq;
            break;
          case JournalRecord::Type::SnapshotMark:
            if (rec.seq > scan.lastSnapshotSeq)
                scan.lastSnapshotSeq = rec.seq;
            break;
          case JournalRecord::Type::Housekeeping:
          case JournalRecord::Type::ResizeMark:
            break;
        }
    }
    scan.truncatedTail = scan.validBytes < size;
    return scan;
}

JournalScan
scanJournal(const std::string &path, uint64_t expect_fingerprint)
{
    JournalScan scan;
    FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        scan.error = "cannot open journal: " +
                     std::string(std::strerror(errno));
        return scan;
    }
    std::vector<uint8_t> bytes;
    uint8_t chunk[65536];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        bytes.insert(bytes.end(), chunk, chunk + n);
    std::fclose(f);
    return scanJournalBuffer(bytes.data(), bytes.size(),
                             expect_fingerprint);
}

UpdateJournal::UpdateJournal(const std::string &path,
                             uint64_t config_fingerprint,
                             size_t fsync_every)
    : path_(path), fingerprint_(config_fingerprint),
      fsyncEvery_(fsync_every)
{
    // Scan whatever is there: continue a valid journal, refuse a
    // foreign one, and truncate a torn tail before appending.
    JournalScan scan = scanJournal(path, config_fingerprint);
    bool fresh = !scan.headerOk && scan.error.rfind("cannot open", 0) == 0;
    if (!scan.headerOk && !fresh) {
        // Present but unusable (empty counts as "shorter than
        // header"): start over rather than append garbage to garbage.
        if (scan.error != "journal shorter than its header")
            fatalError("refusing to append to journal '" + path +
                       "': " + scan.error);
        fresh = true;
    }

    if (fresh) {
        file_ = std::fopen(path.c_str(), "wb");
        if (file_ == nullptr)
            fatalError("cannot create journal '" + path + "': " +
                       std::strerror(errno));
        std::vector<uint8_t> header = encodeHeader(config_fingerprint);
        if (std::fwrite(header.data(), 1, header.size(), file_) !=
            header.size())
            fatalError("journal header write failed");
        sync();
    } else {
        if (scan.truncatedTail) {
            if (::truncate(path.c_str(),
                           static_cast<off_t>(scan.validBytes)) != 0)
                fatalError("cannot truncate torn journal tail: " +
                           std::string(std::strerror(errno)));
        }
        file_ = std::fopen(path.c_str(), "ab");
        if (file_ == nullptr)
            fatalError("cannot open journal '" + path + "': " +
                       std::strerror(errno));
        seq_ = scan.lastSeq;
        durableSeq_ = scan.lastSeq;  // The scanned prefix is on disk.
    }
}

UpdateJournal::~UpdateJournal()
{
    if (file_ != nullptr) {
        std::fflush(file_);
        std::fclose(file_);
    }
}

void
UpdateJournal::recordIoError(const std::string &what)
{
    // The durability contract is broken: latch the failure, count it,
    // leave a flight record, and refuse every later append so the
    // owner is forced to stop acknowledging (docs/persistence.md).
    // Deliberately NOT fatal: the serving path keeps running; only
    // the acknowledgement path degrades.
    ++ioErrors_;
    if (!ioFailed_) {
        ioFailed_ = true;
        ioError_ = what;
        if (seq_ > durableSeq_) {
            // Batched-fsync exposure: these seqs were acknowledged
            // (written + flushed) but never reached a successful
            // fsync, so the owner must treat them as possibly lost.
            ioError_ += "; seqs " + std::to_string(durableSeq_ + 1) +
                        ".." + std::to_string(seq_) +
                        " were acknowledged but may not be durable";
        }
        error("journal '" + path_ + "' degraded: " + ioError_);
    }
    CHISEL_FLIGHT_EVENT(JournalIoError, 0, seq_, ioErrors_);
}

bool
UpdateJournal::writeRecord(const JournalRecord &rec, uint64_t seq_after,
                           bool flush)
{
    if (torn_)
        return true;   // "Crashed" by a previous torn write.
    if (ioFailed_)
        return false;  // Durability already void; refuse loudly.

    // The frame (len | crc | payload), encoded in place: the header is
    // patched once the payload is in.
    std::vector<uint8_t> &bytes = frame_.buffer();
    bytes.clear();
    frame_.u32(0);
    frame_.u32(0);
    encodeJournalRecord(rec, frame_);
    const size_t len = bytes.size() - kFrameHeaderBytes;
    frame_.patchU32(0, static_cast<uint32_t>(len));
    frame_.patchU32(4, crc32(bytes.data() + kFrameHeaderBytes, len));

    if (CHISEL_FAULT_FIRE(JournalTornWrite)) {
        // Crash mid-append: a leading fragment reaches the disk, the
        // rest never does, and neither does anything after it.
        size_t fragment = bytes.size() / 2;
        if (fragment == 0)
            fragment = 1;
        std::fwrite(bytes.data(), 1, fragment, file_);
        std::fflush(file_);
        torn_ = true;
        return true;
    }

    if (CHISEL_FAULT_FIRE(JournalIoError)) {
        // The modelled ENOSPC: the write is refused before any byte
        // lands, so the on-disk prefix stays exactly the acked set.
        recordIoError("injected write failure (ENOSPC model)");
        return false;
    }

    if (std::fwrite(bytes.data(), 1, bytes.size(), file_) !=
        bytes.size()) {
        recordIoError("append failed: " +
                      std::string(std::strerror(errno)));
        return false;
    }
    ++written_;
    // A record written without a flush (an Outcome) rides with the
    // next record's flush and batch fsync: it neither counts toward
    // the batch nor makes one fall due.
    if (flush && fsyncEvery_ != 0 && ++sinceSync_ >= fsyncEvery_)
        syncTo(seq_after);
    else if (flush && std::fflush(file_) != 0) {
        recordIoError("flush failed: " +
                      std::string(std::strerror(errno)));
        return false;
    }
    if (ioFailed_)
        return false;
    if (observer_)
        observer_(rec, bytes.data() + kFrameHeaderBytes, len);
    return true;
}

uint64_t
UpdateJournal::append(const Update &update)
{
    JournalRecord rec;
    rec.type = JournalRecord::Type::Update;
    rec.seq = seq_ + 1;
    rec.update = update;
    if (!writeRecord(rec, rec.seq))
        return 0;   // Not durable: the caller must not acknowledge.
    seq_ = rec.seq;
    CHISEL_FLIGHT_EVENT(JournalAppend, rec.type, rec.seq, 0);
    return rec.seq;
}

void
UpdateJournal::appendOutcome(uint64_t seq, const UpdateOutcome &outcome)
{
    JournalRecord rec;
    rec.type = JournalRecord::Type::Outcome;
    rec.seq = seq;
    rec.cls = static_cast<uint8_t>(outcome.cls);
    rec.status = static_cast<uint8_t>(outcome.status);
    rec.setupRetries = outcome.setupRetries;
    rec.tcamOverflows = outcome.tcamOverflows;
    rec.slowPathInserts = outcome.slowPathInserts;
    rec.slowPathRejections = outcome.slowPathRejections;
    rec.parityRecoveries = outcome.parityRecoveries;
    if (writeRecord(rec, seq_, /*flush=*/false))
        CHISEL_FLIGHT_EVENT(JournalAppend, rec.type, rec.seq, 0);
}

void
UpdateJournal::appendSnapshotMark(uint64_t seq)
{
    JournalRecord rec;
    rec.type = JournalRecord::Type::SnapshotMark;
    rec.seq = seq;
    if (writeRecord(rec, seq_))
        CHISEL_FLIGHT_EVENT(JournalAppend, rec.type, rec.seq, 0);
}

void
UpdateJournal::appendHousekeeping(JournalRecord::HousekeepingKind kind)
{
    JournalRecord rec;
    rec.type = JournalRecord::Type::Housekeeping;
    rec.seq = seq_;   // Stamped, not consumed: updates keep their seqs.
    rec.housekeeping = kind;
    if (writeRecord(rec, seq_))
        CHISEL_FLIGHT_EVENT(JournalAppend, rec.type, rec.seq, 0);
}

void
UpdateJournal::appendResizeMark(const ChiselConfig &config)
{
    JournalRecord rec;
    rec.type = JournalRecord::Type::ResizeMark;
    rec.seq = seq_;   // Stamped, not consumed, like housekeeping.
    rec.resizeConfig = config;
    if (writeRecord(rec, seq_))
        CHISEL_FLIGHT_EVENT(JournalAppend, rec.type, rec.seq, 0);
}

void
UpdateJournal::setObserver(RecordObserver observer)
{
    observer_ = std::move(observer);
}

void
UpdateJournal::sync()
{
    syncTo(seq_);
}

void
UpdateJournal::flush()
{
    if (torn_ || ioFailed_)
        return;
    if (std::fflush(file_) != 0)
        recordIoError("flush failed: " + std::string(std::strerror(errno)));
}

bool
UpdateJournal::ensureDurable(uint64_t seq)
{
    if (torn_ || ioFailed_)
        return false;
    if (durableSeq_ >= seq)
        return true;
    if (seq > seq_)
        return false;   // Never appended; nothing to make durable.
    syncTo(seq_);
    return !ioFailed_ && durableSeq_ >= seq;
}

void
UpdateJournal::syncTo(uint64_t head)
{
    if (torn_ || ioFailed_)
        return;
    if (CHISEL_FAULT_FIRE(JournalIoError)) {
        // The modelled batch-fsync failure: everything flushed since
        // the last successful sync was acked but is now suspect.
        recordIoError("injected fsync failure (batch-sync model)");
        return;
    }
    if (std::fflush(file_) != 0) {
        recordIoError("fflush failed: " +
                      std::string(std::strerror(errno)));
        return;
    }
    if (::fsync(fileno(file_)) != 0) {
        recordIoError("fsync failed: " +
                      std::string(std::strerror(errno)));
        return;
    }
    sinceSync_ = 0;
    durableSeq_ = head;
    CHISEL_FLIGHT_EVENT(JournalSync, 0, head, 0);
}

} // namespace chisel::persist
