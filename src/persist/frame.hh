/**
 * @file
 * The `u32 length | u32 CRC-32 of the payload | payload` framing
 * (little-endian) shared by the update journal, the RPC wire
 * (net::MessageReader) and the replication stream
 * (replica::FrameReader).  Each caller decodes its own payloads.
 */

#ifndef CHISEL_PERSIST_FRAME_HH
#define CHISEL_PERSIST_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace chisel::persist {

/** Bytes of a frame header: payload length, then payload CRC. */
constexpr size_t kFrameHeaderBytes = 8;

/** Frame the @p len payload bytes at @p payload. */
std::vector<uint8_t> encodeFrame(const uint8_t *payload, size_t len);

enum class FrameCheck { Ok, Partial, TooLong, BadCrc };

/**
 * Check the frame at the front of the @p avail bytes at @p data; @p len
 * receives the announced payload length once the header is complete.
 * The limit is checked before the payload arrives.
 */
FrameCheck checkFrame(const uint8_t *data, size_t avail,
                      uint32_t max_payload, uint32_t &len);

/**
 * Receive side of a framed byte stream: buffers what arrives, hands
 * out one CRC-verified payload at a time and compacts the consumed
 * prefix lazily.  An oversized header, a CRC mismatch, or poison()
 * (a payload its reader could not decode) latches bad(), drops the
 * buffered bytes and makes next() return false forever: framing
 * cannot be trusted past the first violation.
 */
class FrameBuffer
{
  public:
    /** @p noun names a frame in error texts ("frame CRC mismatch"). */
    FrameBuffer(uint32_t max_payload, const char *noun)
        : maxPayload_(max_payload), noun_(noun)
    {}

    /** Append @p len received bytes (dropped once bad()). */
    void feed(const uint8_t *data, size_t len);

    /**
     * Take the next complete frame.  On true, @p payload and @p len
     * describe its payload, valid until the next feed() or poison().
     */
    bool next(const uint8_t *&payload, uint32_t &len);

    void poison(const std::string &why);

    /** True once the stream violated framing; unrecoverable. */
    bool bad() const { return bad_; }

    /** Why bad() turned true (empty while the stream is healthy). */
    const std::string &error() const { return error_; }

    /** Bytes buffered but not yet taken by next(). */
    size_t buffered() const { return buf_.size() - pos_; }

  private:
    uint32_t maxPayload_;
    const char *noun_;
    std::vector<uint8_t> buf_;
    size_t pos_ = 0;  ///< Consumed prefix of buf_ (compacted lazily).
    bool bad_ = false;
    std::string error_;
};

} // namespace chisel::persist

#endif // CHISEL_PERSIST_FRAME_HH
