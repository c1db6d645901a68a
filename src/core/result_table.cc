#include "core/result_table.hh"

#include <cassert>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "persist/codec.hh"
#include "telemetry/trace.hh"

namespace chisel {

uint32_t
ResultTable::allocate(uint32_t entries)
{
    uint32_t base = blocks_.allocate(entries);
    if (blocks_.end() > highWater()) {
        img_->grow(blocks_.end());
        if (log_ != nullptr)
            log_->add(WriteLog::Table::ResultGrow, 0, base,
                      grantedSize(entries));
    }
    return base;
}

void
ResultTable::free(uint32_t base, uint32_t entries)
{
    blocks_.free(base, entries);
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
    blocks_.saveState(enc);
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
    blocks_.loadState(dec, n);
}

void
ResultTable::flipBit(uint32_t addr, unsigned bit)
{
    panicIf(addr >= highWater(), "ResultTable flip out of range");
    img_->slots[addr] ^= static_cast<NextHop>(
        NextHop(1) << (bit % (8 * sizeof(NextHop))));
}

} // namespace chisel
