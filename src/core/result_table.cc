#include "core/result_table.hh"

#include <cassert>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "persist/codec.hh"
#include "telemetry/trace.hh"

namespace chisel {

uint32_t
ResultTable::grantedSize(uint32_t entries)
{
    if (entries <= 1)
        return 1;
    return static_cast<uint32_t>(nextPow2(entries));
}

uint32_t
ResultTable::allocate(uint32_t entries)
{
    uint32_t size = grantedSize(entries);
    unsigned cls = ceilLog2(size);
    if (freeLists_.size() <= cls)
        freeLists_.resize(cls + 1);

    ++allocations_;
    allocated_ += size;

    auto &list = freeLists_[cls];
    if (!list.empty()) {
        uint32_t base = list.back();
        list.pop_back();
        return base;
    }
    uint32_t base = static_cast<uint32_t>(slots_.size());
    slots_.resize(slots_.size() + size, kNoRoute);
    meta_.resize(slots_.size(), parityOf(kNoRoute));
    return base;
}

void
ResultTable::free(uint32_t base, uint32_t entries)
{
    uint32_t size = grantedSize(entries);
    unsigned cls = ceilLog2(size);
    panicIf(freeLists_.size() <= cls,
            "ResultTable::free of a never-allocated size class");
    panicIf(allocated_ < size, "ResultTable::free accounting underflow");
    freeLists_[cls].push_back(base);
    allocated_ -= size;
    ++frees_;
}

NextHop
ResultTable::read(uint32_t addr) const
{
    panicIf(addr >= slots_.size(), "ResultTable read out of range");
    CHISEL_TRACE_ACCESS(Result, addr, sizeof(NextHop));
    return slots_[addr];
}

void
ResultTable::write(uint32_t addr, NextHop next_hop, uint8_t length_offset)
{
    panicIf(addr >= slots_.size(), "ResultTable write out of range");
    CHISEL_TRACE_WRITE(Result, addr, sizeof(NextHop));
    slots_[addr] = next_hop;
    meta_[addr] =
        static_cast<uint8_t>(parityOf(next_hop) | (length_offset << 1));
}

bool
ResultTable::parityOk(uint32_t addr) const
{
    panicIf(addr >= slots_.size(), "ResultTable parity out of range");
    return parityOf(slots_[addr]) == (meta_[addr] & 1u);
}

void
ResultTable::saveState(persist::Encoder &enc) const
{
    enc.u64(slots_.size());
    for (NextHop h : slots_)
        enc.u32(h);
    enc.u64(freeLists_.size());
    for (const auto &list : freeLists_) {
        enc.u64(list.size());
        for (uint32_t base : list)
            enc.u32(base);
    }
    enc.u64(allocated_);
    enc.u64(allocations_);
    enc.u64(frees_);
}

void
ResultTable::loadState(persist::Decoder &dec)
{
    uint64_t n = dec.count(4);
    slots_.assign(n, kNoRoute);
    meta_.assign(n, 0);
    for (uint64_t i = 0; i < n; ++i) {
        slots_[i] = dec.u32();
        meta_[i] = parityOf(slots_[i]);
    }
    uint64_t classes = dec.count(8);
    if (classes > 33)
        throw persist::DecodeError("result table: too many size classes");
    freeLists_.assign(classes, {});
    for (uint64_t c = 0; c < classes; ++c) {
        uint64_t blocks = dec.count(4);
        freeLists_[c].reserve(blocks);
        for (uint64_t b = 0; b < blocks; ++b) {
            uint32_t base = dec.u32();
            if (base >= n && n > 0)
                throw persist::DecodeError(
                    "result table: free block out of range");
            freeLists_[c].push_back(base);
        }
    }
    allocated_ = dec.u64();
    allocations_ = dec.u64();
    frees_ = dec.u64();
    if (allocated_ > n)
        throw persist::DecodeError(
            "result table: allocation accounting exceeds high water");
}

void
ResultTable::flipBit(uint32_t addr, unsigned bit)
{
    panicIf(addr >= slots_.size(), "ResultTable flip out of range");
    slots_[addr] ^= static_cast<NextHop>(
        NextHop(1) << (bit % (8 * sizeof(NextHop))));
}

} // namespace chisel
