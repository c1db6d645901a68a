#include "core/group_table.hh"

#include <algorithm>

#include "persist/codec.hh"

namespace chisel {

GroupTable::GroupTable(size_t capacity, unsigned key_bits, unsigned stride,
                       unsigned pointer_bits,
                       std::pmr::memory_resource *memory)
    : own_(std::make_unique<Image>(memory))
{
    initImage(*own_, capacity, key_bits, stride, pointer_bits);
}

GroupTable::GroupTable(size_t capacity, unsigned key_bits, unsigned stride,
                       unsigned pointer_bits, Image &image)
{
    initImage(image, capacity, key_bits, stride, pointer_bits);
}

void
GroupTable::initImage(Image &image, size_t capacity, unsigned key_bits,
                      unsigned stride, unsigned pointer_bits)
{
    panicIf(stride > 16, "GroupTable stride too large");
    img_ = &image;
    image.capacity = capacity;
    image.keyBits = key_bits;
    image.vectorBits = 1u << stride;
    image.wordsPerVector = std::max(1u, image.vectorBits / 64);
    image.pointerBits = pointer_bits;
    // 32 bytes while the vector is one word, else whole lines.
    image.recordWords = kVector + image.wordsPerVector <= 4
                            ? 4
                            : (kVector + image.wordsPerVector + 7) / 8 * 8;
    image.lines.assign((capacity * image.recordWords + 7) / 8, Line{});
    freeList_.reserve(capacity);
    // Hand out low slot numbers first: push high indices first.
    for (size_t i = capacity; i-- > 0;)
        freeList_.push_back(static_cast<uint32_t>(i));
}

void
GroupTable::writeFilter(uint32_t slot, const Key128 &key, bool valid,
                        bool dirty)
{
    uint64_t *r = img_->record(slot);
    r[kKeyHi] = key.hi();
    r[kKeyLo] = key.lo();
    r[kMeta] = (r[kMeta] & ~kFilterFields) | (valid ? kValid : 0) |
               (dirty ? kDirty : 0);
    if (!filterParityOk(slot))
        r[kMeta] |= kFilterParity;
    logWords(size_t(slot) * img_->recordWords + kKeyHi, kMeta + 1);
}

void
GroupTable::writePointer(uint32_t slot, uint32_t pointer)
{
    uint64_t *r = img_->record(slot);
    r[kMeta] = (r[kMeta] & ~kVectorFields) | pointer;
    if (!vectorParityOk(slot))
        r[kMeta] |= kVectorParity;
    logWords(size_t(slot) * img_->recordWords + kMeta, 1);
}

// ---- Filter half ----------------------------------------------------

int64_t
GroupTable::allocate()
{
    if (freeList_.empty())
        return -1;
    uint32_t slot = freeList_.back();
    freeList_.pop_back();
    return slot;
}

void
GroupTable::release(uint32_t slot)
{
    panicIf(slot >= capacity(), "GroupTable release out of range");
    if (valid(slot)) {
        --used_;
        writeFilter(slot, keyAt(slot), false, false);
    }
    freeList_.push_back(slot);
}

void
GroupTable::set(uint32_t slot, const Key128 &key)
{
    panicIf(slot >= capacity(), "GroupTable set out of range");
    CHISEL_TRACE_WRITE(Filter, slot, (filterWidthBits() + 7) / 8);
    if (!valid(slot))
        ++used_;
    writeFilter(slot, key, true, false);
}

void
GroupTable::setDirty(uint32_t slot, bool dirty)
{
    panicIf(slot >= capacity(), "GroupTable setDirty out of range");
    CHISEL_TRACE_WRITE(Filter, slot, (filterWidthBits() + 7) / 8);
    // Flag-only write: update the parity incrementally.  Recomputing
    // it over the whole entry would launder a soft error in the key
    // into a valid-looking word the scrubber can no longer find.
    uint64_t *r = img_->record(slot);
    if (bool(r[kMeta] & kDirty) != dirty)
        r[kMeta] ^= kDirty | kFilterParity;
    logWords(size_t(slot) * img_->recordWords + kMeta, 1);
}

void
GroupTable::flipKeyBit(uint32_t slot, unsigned bit)
{
    panicIf(slot >= capacity(), "GroupTable flipKeyBit out of range");
    unsigned pos = bit % Key128::maxBits;
    img_->record(slot)[pos < 64 ? kKeyHi : kKeyLo] ^= uint64_t(1)
                                                      << (63 - pos % 64);
}

void
GroupTable::resetSlot(uint32_t slot)
{
    panicIf(slot >= capacity(), "GroupTable resetSlot out of range");
    if (valid(slot))
        --used_;
    writeFilter(slot, Key128(), false, false);
}

void
GroupTable::saveFilter(persist::Encoder &enc) const
{
    const size_t cap = capacity();
    enc.u64(cap);
    for (uint32_t slot = 0; slot < cap; ++slot) {
        enc.key(keyAt(slot));
        enc.boolean(valid(slot));
        enc.boolean(dirty(slot));
    }
    enc.u64(freeList_.size());
    for (uint32_t slot : freeList_)
        enc.u32(slot);
}

void
GroupTable::loadFilter(persist::Decoder &dec)
{
    const size_t cap = capacity();
    if (dec.u64() != cap)
        throw persist::DecodeError("filter table: capacity mismatch");
    used_ = 0;
    for (uint32_t slot = 0; slot < cap; ++slot) {
        Key128 key = dec.key();
        bool is_valid = dec.boolean();
        bool is_dirty = dec.boolean();
        writeFilter(slot, key, is_valid, is_dirty);
        used_ += is_valid;
    }
    uint64_t free_count = dec.count(4);
    if (free_count > cap)
        throw persist::DecodeError("filter table: free list too long");
    freeList_.clear();
    std::vector<uint8_t> seen(cap, 0);
    for (uint64_t i = 0; i < free_count; ++i) {
        uint32_t slot = dec.u32();
        if (slot >= cap || seen[slot])
            throw persist::DecodeError("filter table: bad free slot");
        seen[slot] = 1;
        freeList_.push_back(slot);
    }
}

// ---- Bit-vector half ------------------------------------------------

void
GroupTable::setVector(uint32_t slot, const std::vector<uint64_t> &bits,
                      uint32_t pointer)
{
    panicIf(slot >= capacity(), "GroupTable setVector out of range");
    panicIf(bits.size() != img_->wordsPerVector,
            "GroupTable vector word-count mismatch");
    CHISEL_TRACE_WRITE(BitVector, slot, (vectorWidthBits() + 7) / 8);
    std::copy(bits.begin(), bits.end(), img_->record(slot) + kVector);
    logWords(size_t(slot) * img_->recordWords + kVector, bits.size());
    writePointer(slot, pointer);
}

void
GroupTable::clearVector(uint32_t slot)
{
    panicIf(slot >= capacity(), "GroupTable clearVector out of range");
    CHISEL_TRACE_WRITE(BitVector, slot, (vectorWidthBits() + 7) / 8);
    uint64_t *v = img_->record(slot) + kVector;
    std::fill(v, v + img_->wordsPerVector, 0);
    logWords(size_t(slot) * img_->recordWords + kVector,
             img_->wordsPerVector);
    writePointer(slot, 0);
}

unsigned
GroupTable::onesCount(uint32_t slot) const
{
    const uint64_t *v = img_->record(slot) + kVector;
    unsigned total = 0;
    for (unsigned w = 0; w < img_->wordsPerVector; ++w)
        total += popcount64(v[w]);
    return total;
}

void
GroupTable::flipVectorBit(uint32_t slot, uint64_t bit)
{
    panicIf(slot >= capacity(), "GroupTable flipVectorBit out of range");
    uint64_t index = bit % vectorBits();
    img_->record(slot)[kVector + index / 64] ^= uint64_t(1) << (index % 64);
}

void
GroupTable::saveVectors(persist::Encoder &enc) const
{
    const size_t cap = capacity();
    enc.u64(cap);
    enc.u32(vectorBits());
    for (uint32_t slot = 0; slot < cap; ++slot) {
        const uint64_t *v = img_->record(slot) + kVector;
        for (unsigned w = 0; w < img_->wordsPerVector; ++w)
            enc.u64(v[w]);
    }
    for (uint32_t slot = 0; slot < cap; ++slot)
        enc.u32(pointer(slot));
}

void
GroupTable::loadVectors(persist::Decoder &dec)
{
    const size_t cap = capacity();
    if (dec.u64() != cap || dec.u32() != vectorBits())
        throw persist::DecodeError("bit-vector table: geometry mismatch");
    for (uint32_t slot = 0; slot < cap; ++slot) {
        uint64_t *v = img_->record(slot) + kVector;
        for (unsigned w = 0; w < img_->wordsPerVector; ++w)
            v[w] = dec.u64();
    }
    for (uint32_t slot = 0; slot < cap; ++slot)
        writePointer(slot, dec.u32());
}

} // namespace chisel
