#include "persist/frame.hh"

#include "persist/codec.hh"

namespace chisel::persist {

std::vector<uint8_t>
encodeFrame(const uint8_t *payload, size_t len)
{
    Encoder out;
    out.u32(static_cast<uint32_t>(len));
    out.u32(crc32(payload, len));
    out.bytes(payload, len);
    return std::move(out.buffer());
}

FrameCheck
checkFrame(const uint8_t *data, size_t avail, uint32_t max_payload,
           uint32_t &len)
{
    if (avail < kFrameHeaderBytes)
        return FrameCheck::Partial;
    Decoder header(data, kFrameHeaderBytes);
    len = header.u32();
    uint32_t crc = header.u32();
    if (len > max_payload)
        return FrameCheck::TooLong;
    if (avail < kFrameHeaderBytes + static_cast<size_t>(len))
        return FrameCheck::Partial;
    if (crc32(data + kFrameHeaderBytes, len) != crc)
        return FrameCheck::BadCrc;
    return FrameCheck::Ok;
}

void
FrameBuffer::feed(const uint8_t *data, size_t len)
{
    if (bad_)
        return;
    // Compact the consumed prefix before it dominates the buffer.
    if (pos_ > 4096 && pos_ > buf_.size() / 2) {
        buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(pos_));
        pos_ = 0;
    }
    buf_.insert(buf_.end(), data, data + len);
}

void
FrameBuffer::poison(const std::string &why)
{
    bad_ = true;
    error_ = why;
    buf_.clear();
    pos_ = 0;
}

bool
FrameBuffer::next(const uint8_t *&payload, uint32_t &len)
{
    if (bad_)
        return false;
    const uint8_t *head = buf_.data() + pos_;
    FrameCheck check = checkFrame(head, buffered(), maxPayload_, len);
    if (check == FrameCheck::TooLong)
        poison(std::string(noun_) + " length " + std::to_string(len) +
               " exceeds limit");
    if (check == FrameCheck::BadCrc)
        poison(std::string(noun_) + " CRC mismatch");
    if (check != FrameCheck::Ok)
        return false;
    payload = head + kFrameHeaderBytes;
    pos_ += kFrameHeaderBytes + len;
    return true;
}

} // namespace chisel::persist
