#include "core/filter_table.hh"

#include <cassert>

#include "common/logging.hh"
#include "persist/codec.hh"
#include "telemetry/trace.hh"

namespace chisel {

FilterTable::FilterTable(size_t capacity, unsigned key_bits)
    : keyBits_(key_bits), entries_(capacity), parity_(capacity, 0)
{
    freeList_.reserve(capacity);
    // Hand out low slot numbers first: push high indices first.
    for (size_t i = capacity; i-- > 0;)
        freeList_.push_back(static_cast<uint32_t>(i));
}

int64_t
FilterTable::allocate()
{
    if (freeList_.empty())
        return -1;
    uint32_t slot = freeList_.back();
    freeList_.pop_back();
    return slot;
}

void
FilterTable::release(uint32_t slot)
{
    panicIf(slot >= entries_.size(), "FilterTable release out of range");
    if (entries_[slot].valid) {
        entries_[slot].valid = false;
        entries_[slot].dirty = false;
        --used_;
        refreshParity(slot);
    }
    freeList_.push_back(slot);
}

void
FilterTable::set(uint32_t slot, const Key128 &key)
{
    panicIf(slot >= entries_.size(), "FilterTable set out of range");
    CHISEL_TRACE_WRITE(Filter, slot, (slotWidthBits() + 7) / 8);
    Entry &e = entries_[slot];
    if (!e.valid)
        ++used_;
    e.key = key;
    e.valid = true;
    e.dirty = false;
    refreshParity(slot);
}

bool
FilterTable::matches(uint32_t slot, const Key128 &key) const
{
    if (slot >= entries_.size())
        return false;
    // One hardware access: the whole slot (key + flags) is one word.
    CHISEL_TRACE_ACCESS(Filter, slot, (slotWidthBits() + 7) / 8);
    const Entry &e = entries_[slot];
    return e.valid && e.key == key;
}

void
FilterTable::setDirty(uint32_t slot, bool dirty)
{
    panicIf(slot >= entries_.size(), "FilterTable setDirty out of range");
    CHISEL_TRACE_WRITE(Filter, slot, (slotWidthBits() + 7) / 8);
    // Flag-only write: update the parity incrementally.  Recomputing
    // it over the whole entry would launder a soft error in the key
    // into a valid-looking word the scrubber can no longer find.
    Entry &e = entries_[slot];
    if (e.dirty != dirty) {
        e.dirty = dirty;
        parity_[slot] ^= 1u;
    }
}

void
FilterTable::flipKeyBit(uint32_t slot, unsigned bit)
{
    panicIf(slot >= entries_.size(),
            "FilterTable flipKeyBit out of range");
    Key128 &key = entries_[slot].key;
    unsigned pos = bit % Key128::maxBits;
    key.setBit(pos, !key.bit(pos));
}

void
FilterTable::resetSlot(uint32_t slot)
{
    panicIf(slot >= entries_.size(),
            "FilterTable resetSlot out of range");
    if (entries_[slot].valid)
        --used_;
    entries_[slot] = Entry{};
    refreshParity(slot);
}

uint64_t
FilterTable::storageBits() const
{
    return static_cast<uint64_t>(entries_.size()) * slotWidthBits();
}

void
FilterTable::saveState(persist::Encoder &enc) const
{
    enc.u64(entries_.size());
    for (const Entry &e : entries_) {
        enc.key(e.key);
        enc.boolean(e.valid);
        enc.boolean(e.dirty);
    }
    enc.u64(freeList_.size());
    for (uint32_t slot : freeList_)
        enc.u32(slot);
}

void
FilterTable::loadState(persist::Decoder &dec)
{
    if (dec.u64() != entries_.size())
        throw persist::DecodeError("filter table: capacity mismatch");
    used_ = 0;
    for (size_t i = 0; i < entries_.size(); ++i) {
        Entry &e = entries_[i];
        e.key = dec.key();
        e.valid = dec.boolean();
        e.dirty = dec.boolean();
        if (e.valid)
            ++used_;
        refreshParity(static_cast<uint32_t>(i));
    }
    uint64_t free_count = dec.count(4);
    if (free_count > entries_.size())
        throw persist::DecodeError("filter table: free list too long");
    freeList_.clear();
    std::vector<uint8_t> seen(entries_.size(), 0);
    for (uint64_t i = 0; i < free_count; ++i) {
        uint32_t slot = dec.u32();
        if (slot >= entries_.size() || seen[slot])
            throw persist::DecodeError("filter table: bad free slot");
        seen[slot] = 1;
        freeList_.push_back(slot);
    }
}

} // namespace chisel
