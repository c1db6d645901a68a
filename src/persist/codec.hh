/**
 * @file
 * Binary codec for the persistence layer (docs/persistence.md).
 *
 * Every on-disk artifact — journal records and engine snapshots — is
 * produced by an Encoder and consumed by a Decoder.  The format is
 * deliberately dumb: fixed-width little-endian integers, no varints,
 * no alignment, no back-references.  Dumb formats are the ones that
 * survive fuzzing: every read is bounds-checked and every failure is
 * a typed DecodeError, never undefined behaviour, because the
 * snapshot/journal readers must stay memory-safe even on inputs whose
 * CRC protection has been stripped (the libFuzzer target feeds them
 * exactly that).
 *
 * Element counts read from untrusted bytes are validated against the
 * bytes actually remaining (checkCount) before any container is
 * sized, so a corrupt length prefix cannot trigger a multi-gigabyte
 * allocation.
 */

#ifndef CHISEL_PERSIST_CODEC_HH
#define CHISEL_PERSIST_CODEC_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/key128.hh"
#include "route/prefix.hh"

namespace chisel::persist {

/**
 * Thrown by Decoder on any malformed input: truncation, an
 * out-of-range count, or a value that violates a structural
 * invariant of the field being decoded.  Callers of the persistence
 * readers treat it as "this artifact is corrupt" and move down the
 * recovery ladder; it never indicates a library bug.
 */
class DecodeError : public std::runtime_error
{
  public:
    explicit DecodeError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/**
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over @p len
 * bytes of @p data.  @p seed chains multi-buffer computations: pass
 * the previous return value to continue a running checksum.
 */
uint32_t crc32(const void *data, size_t len, uint32_t seed = 0);

/**
 * Append-only byte-buffer writer.  All integers are little-endian.
 */
class Encoder
{
  public:
    void u8(uint8_t v) { buf_.push_back(v); }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void boolean(bool v) { u8(v ? 1 : 0); }

    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

    void
    key(const Key128 &k)
    {
        u64(k.hi());
        u64(k.lo());
    }

    /** A Prefix: its defined bits plus one length byte. */
    void
    prefix(const Prefix &p)
    {
        key(p.bits());
        u8(static_cast<uint8_t>(p.length()));
    }

    void
    bytes(const void *data, size_t len)
    {
        const uint8_t *b = static_cast<const uint8_t *>(data);
        buf_.insert(buf_.end(), b, b + len);
    }

    /** Overwrite the u32 written at byte @p pos (a placeholder). */
    void
    patchU32(size_t pos, uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.at(pos + i) = static_cast<uint8_t>(v >> (8 * i));
    }

    /** Overwrite the u64 written at byte @p pos (a placeholder). */
    void
    patchU64(size_t pos, uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.at(pos + i) = static_cast<uint8_t>(v >> (8 * i));
    }

    const std::vector<uint8_t> &buffer() const { return buf_; }
    std::vector<uint8_t> &buffer() { return buf_; }
    size_t size() const { return buf_.size(); }

  private:
    std::vector<uint8_t> buf_;
};

/**
 * Bounds-checked reader over a borrowed byte span.  Throws
 * DecodeError instead of ever reading past the end.
 */
class Decoder
{
  public:
    Decoder(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {}

    explicit Decoder(const std::vector<uint8_t> &buf)
        : data_(buf.data()), size_(buf.size())
    {}

    uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    uint32_t
    u32()
    {
        need(4);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        need(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    bool
    boolean()
    {
        uint8_t v = u8();
        if (v > 1)
            throw DecodeError("boolean field not 0/1");
        return v != 0;
    }

    double f64() { return std::bit_cast<double>(u64()); }

    Key128
    key()
    {
        uint64_t hi = u64();
        uint64_t lo = u64();
        return Key128(hi, lo);
    }

    Prefix
    prefix()
    {
        Key128 bits = key();
        unsigned len = u8();
        if (len > Key128::maxBits)
            throw DecodeError("prefix length out of range");
        // Prefix() masks trailing bits; require them already zero so
        // re-encoding a decoded artifact is byte-identical.
        Prefix p(bits, len);
        if (p.bits() != bits)
            throw DecodeError("prefix has bits beyond its length");
        return p;
    }

    /**
     * Read an element count and require that @p min_bytes_each *
     * count bytes can still follow — the cheap structural check that
     * keeps corrupt length prefixes from driving allocations.
     */
    uint64_t
    count(uint64_t min_bytes_each = 1)
    {
        uint64_t n = u64();
        if (min_bytes_each == 0)
            min_bytes_each = 1;
        if (n > remaining() / min_bytes_each)
            throw DecodeError("element count exceeds remaining bytes");
        return n;
    }

    void
    need(size_t n) const
    {
        if (n > size_ - pos_)
            throw DecodeError("truncated input");
    }

    size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }
    size_t position() const { return pos_; }

  private:
    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

} // namespace chisel::persist

#endif // CHISEL_PERSIST_CODEC_HH
