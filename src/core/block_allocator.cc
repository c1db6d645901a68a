#include "core/block_allocator.hh"

#include "common/bitops.hh"
#include "common/logging.hh"
#include "persist/codec.hh"

namespace chisel {

uint32_t
BlockAllocator::grantedSize(uint32_t entries)
{
    if (entries <= 1)
        return 1;
    return static_cast<uint32_t>(nextPow2(entries));
}

uint32_t
BlockAllocator::allocate(uint32_t entries)
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
    uint32_t base = static_cast<uint32_t>(end_);
    end_ += size;
    return base;
}

void
BlockAllocator::free(uint32_t base, uint32_t entries)
{
    uint32_t size = grantedSize(entries);
    unsigned cls = ceilLog2(size);
    panicIf(freeLists_.size() <= cls,
            "BlockAllocator::free of a never-allocated size class");
    panicIf(allocated_ < size, "BlockAllocator::free accounting underflow");
    freeLists_[cls].push_back(base);
    allocated_ -= size;
    ++frees_;
}

void
BlockAllocator::saveState(persist::Encoder &enc) const
{
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
BlockAllocator::loadState(persist::Decoder &dec, uint64_t end)
{
    uint64_t classes = dec.count(8);
    if (classes > 33)
        throw persist::DecodeError(
            "block allocator: too many size classes");
    freeLists_.assign(classes, {});
    for (uint64_t c = 0; c < classes; ++c) {
        uint64_t blocks = dec.count(4);
        freeLists_[c].reserve(blocks);
        for (uint64_t b = 0; b < blocks; ++b) {
            uint32_t base = dec.u32();
            if (base >= end && end > 0)
                throw persist::DecodeError(
                    "block allocator: free block out of range");
            freeLists_[c].push_back(base);
        }
    }
    end_ = end;
    allocated_ = dec.u64();
    allocations_ = dec.u64();
    frees_ = dec.u64();
    if (allocated_ > end)
        throw persist::DecodeError(
            "block allocator: allocation accounting exceeds the range");
}

} // namespace chisel
