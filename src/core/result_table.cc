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
    uint32_t base = static_cast<uint32_t>(highWater());
    img_->grow(size_t(base) + size);
    if (log_ != nullptr)
        log_->add(WriteLog::Table::ResultGrow, 0, base, size);
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

void
ResultTable::Image::grow(size_t size)
{
    slots.resize(size, kNoRoute);
    meta.resize(size, parityOf(kNoRoute));
}

void
ResultTable::write(uint32_t addr, NextHop next_hop, uint8_t length_offset)
{
    panicIf(addr >= highWater(), "ResultTable write out of range");
    CHISEL_TRACE_WRITE(Result, addr, sizeof(NextHop));
    img_->slots[addr] = next_hop;
    img_->meta[addr] =
        static_cast<uint8_t>(parityOf(next_hop) | (length_offset << 1));
    if (log_ != nullptr)
        log_->add(WriteLog::Table::Results, 0, addr, 1);
}

void
ResultTable::saveState(persist::Encoder &enc) const
{
    enc.u64(highWater());
    for (NextHop h : img_->slots)
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
    std::pmr::vector<NextHop> &slots = img_->slots;
    std::pmr::vector<uint8_t> &meta = img_->meta;
    slots.assign(n, kNoRoute);
    meta.assign(n, 0);
    for (uint64_t i = 0; i < n; ++i) {
        slots[i] = dec.u32();
        meta[i] = parityOf(slots[i]);
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
    panicIf(addr >= highWater(), "ResultTable flip out of range");
    img_->slots[addr] ^= static_cast<NextHop>(
        NextHop(1) << (bit % (8 * sizeof(NextHop))));
}

} // namespace chisel
