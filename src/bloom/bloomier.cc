#include "bloom/bloomier.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "fault/fault.hh"
#include "hash/h3.hh"
#include "persist/codec.hh"
#include "telemetry/trace.hh"

namespace chisel {

namespace {

/**
 * XOR into @p h the entries that each nibble of @p key selects from
 * the interleaved tables [@p row, @p end) of @p Lanes lanes.  The lane
 * count is a template parameter so the accumulators live in registers.
 */
template <unsigned Lanes>
void
foldNibbles(const uint64_t *row, const uint64_t *end, const Key128 &key,
            uint64_t h[])
{
    uint64_t acc[Lanes];
    std::copy(h, h + Lanes, acc);
    for (uint64_t word : {key.hi(), key.lo()}) {
        for (unsigned n = 0; n < 16 && row != end; ++n) {
            const uint64_t *entry = row + (word >> 60) * Lanes;
            for (unsigned lane = 0; lane < Lanes; ++lane)
                acc[lane] ^= entry[lane];
            word <<= 4;
            row += 16 * Lanes;
        }
    }
    std::copy(acc, acc + Lanes, h);
}

} // anonymous namespace

BloomierFilter::BloomierFilter(size_t capacity,
                               const BloomierConfig &config,
                               std::pmr::memory_resource *memory)
    : capacity_(std::max<size_t>(capacity, 1)),
      config_(config),
      partitions_(std::max(1u, config.partitions)),
      own_(std::make_unique<Image>(memory))
{
    initImage(*own_);
}

BloomierFilter::BloomierFilter(size_t capacity,
                               const BloomierConfig &config, Image &image)
    : capacity_(std::max<size_t>(capacity, 1)),
      config_(config),
      partitions_(std::max(1u, config.partitions))
{
    initImage(image);
}

void
BloomierFilter::initImage(Image &image)
{
    const BloomierConfig &config = config_;
    if (config.k < 2 || config.k > kMaxHashes)
        fatalError("BloomierFilter requires 2 <= k <= 8");
    if (config.ratio < 1.0)
        fatalError("BloomierFilter requires ratio >= 1");
    if (config.keyLen > Key128::maxBits)
        fatalError("BloomierFilter requires keyLen <= 128");

    img_ = &image;
    image.k = config.k;
    // Segment size: each partition holds k equal segments; round up
    // so that m >= ratio * capacity.
    double want = config.ratio * static_cast<double>(capacity_);
    size_t per_segment = static_cast<size_t>(std::ceil(
        want / (static_cast<double>(partitions_) * config.k)));
    per_segment = std::max<size_t>(per_segment, 2);
    image.segmentSlots = per_segment;
    image.partitionSlots = image.segmentSlots * config.k;
    image.segmentMod = FastRemainder(image.segmentSlots);
    image.partitionMod = FastRemainder(partitions_);

    size_t m = image.partitionSlots * partitions_;
    image.slots.assign(m, 0);
    counts_.assign(m, 0);
    registry_.resize(partitions_);

    // Codes are pointers into an n-entry table (Equation 4).  Bit 31
    // of a slot word is its parity bit, so values get 31 bits.
    image.slotWidthBits = addressBits(capacity_);
    panicIf(image.slotWidthBits > 31,
            "BloomierFilter capacity needs slots wider than 31 bits");
    buildLanes();
}

BloomierFilter::Image::Image(const Image &other,
                             std::pmr::memory_resource *memory)
    : k(other.k),
      slotWidthBits(other.slotWidthBits),
      partitionSlots(other.partitionSlots),
      segmentSlots(other.segmentSlots),
      segmentMod(other.segmentMod),
      partitionMod(other.partitionMod),
      lanes(memory),
      slots(other.slots, memory)
{
    // The slots first, then the lanes: the constructor's arena order.
    lanes.assign(other.lanes.begin(), other.lanes.end());
    std::copy(std::begin(other.laneLengthRows),
              std::end(other.laneLengthRows), laneLengthRows);
}

void
BloomierFilter::buildLanes()
{
    // The k segment functions of the family seed, then the checksum.
    const unsigned k = config_.k;
    const unsigned lanes = k + 1;
    H3Family family(k, 64, config_.seed);
    H3Hash checksum(std::max(1u, ceilLog2(partitions_)),
                    config_.seed ^ 0x5eedc0deULL);

    const unsigned positions = (config_.keyLen + 3) / 4;
    Image &image = *img_;
    image.lanes.assign(static_cast<size_t>(positions) * 16 * lanes, 0);
    for (unsigned lane = 0; lane < lanes; ++lane) {
        const H3Hash &fn = lane < k ? family.function(lane) : checksum;
        image.laneLengthRows[lane] = fn.lengthRows(config_.keyLen);
        for (unsigned pos = 0; pos < positions; ++pos) {
            unsigned kept = std::min(4u, config_.keyLen - 4 * pos);
            unsigned keep_mask = (0xFu << (4 - kept)) & 0xFu;
            for (unsigned value = 0; value < 16; ++value) {
                image.lanes[(pos * 16 + value) * lanes + lane] =
                    fn.nibbleRows(pos, value & keep_mask);
            }
        }
    }
    if (log_ != nullptr)
        log_->add(WriteLog::Table::IndexLanes, logCell_, 0, 0);
}

BloomierFilter::Image::Probe
BloomierFilter::Image::probe(const Key128 &key) const
{
    uint64_t h[kMaxHashes + 1];
    std::copy(laneLengthRows, laneLengthRows + k + 1, h);

    const uint64_t *row = lanes.data();
    const uint64_t *end = row + lanes.size();
    switch (k + 1) {
      case 3: foldNibbles<3>(row, end, key, h); break;
      case 4: foldNibbles<4>(row, end, key, h); break;
      case 5: foldNibbles<5>(row, end, key, h); break;
      case 6: foldNibbles<6>(row, end, key, h); break;
      case 7: foldNibbles<7>(row, end, key, h); break;
      case 8: foldNibbles<8>(row, end, key, h); break;
      default: foldNibbles<kMaxHashes + 1>(row, end, key, h); break;
    }

    Probe out;
    out.partition = static_cast<unsigned>(partitionMod(h[k]));
    size_t base = static_cast<size_t>(out.partition) * partitionSlots;
    for (unsigned i = 0; i < k; ++i)
        out.slots[i] = base + i * segmentSlots + segmentMod(h[i]);
    return out;
}

unsigned
BloomierFilter::Image::partition(const Key128 &key) const
{
    // probe()'s walk restricted to lane k of each interleaved entry.
    const unsigned width = k + 1;
    const uint64_t *row = lanes.data() + k;
    const uint64_t *end = lanes.data() + lanes.size();
    uint64_t h = laneLengthRows[k];
    for (uint64_t word : {key.hi(), key.lo()}) {
        for (unsigned n = 0; n < 16 && row < end; ++n) {
            h ^= row[(word >> 60) * width];
            word <<= 4;
            row += 16 * width;
        }
    }
    return static_cast<unsigned>(partitionMod(h));
}

void
BloomierFilter::encodeAt(const size_t slots[], uint32_t code,
                         size_t target)
{
    uint32_t v = code;
    bool found = false;
    for (unsigned i = 0; i < config_.k; ++i) {
        if (slots[i] == target) {
            found = true;
            continue;
        }
        v ^= img_->slots[slots[i]];
    }
    panicIf(!found, "encodeAt target not in key's hash neighborhood");
    CHISEL_TRACE_WRITE(Index, target, (img_->slotWidthBits + 7) / 8);
    writeSlot(target, v & kValueMask);
}

uint32_t
BloomierFilter::Image::lookupCode(const Key128 &key, bool *parity_ok) const
{
    Probe where = probe(key);
    uint32_t v = 0;
    const uint32_t slot_bytes = (slotWidthBits + 7) / 8;
    for (unsigned i = 0; i < k; ++i) {
        // One hardware access per segment probe (k per lookup); the
        // parity bit rides in the word it guards.
        size_t slot = where.slots[i];
        CHISEL_TRACE_ACCESS(Index, slot, slot_bytes);
        v ^= slots[slot];
        if (parity_ok && !parityOk(slot))
            *parity_ok = false;
    }
    return v & kValueMask;
}

void
BloomierFilter::reseed(uint64_t seed)
{
    config_.seed = seed;
    buildLanes();
    clear();
    ++stats_.reseeds;
}

void
BloomierFilter::flipSlotBit(size_t slot, unsigned bit)
{
    panicIf(slot >= slots(), "flipSlotBit slot out of range");
    img_->slots[slot] ^= uint32_t(1)
                         << (bit % std::max(1u, slotWidthBits()));
}

bool
BloomierFilter::contains(const Key128 &key) const
{
    return registry_[partitionOf(key)].find(key) != kNoCode;
}

std::optional<uint32_t>
BloomierFilter::findCode(const Key128 &key) const
{
    uint32_t code = registry_[partitionOf(key)].find(key);
    if (code == kNoCode)
        return std::nullopt;
    return code;
}

void
BloomierFilter::occupy(const Probe &where)
{
    for (unsigned i = 0; i < config_.k; ++i) {
        uint8_t &count = counts_[where.slots[i]];
        panicIf(count == UINT8_MAX, "BloomierFilter occupancy past 255");
        ++count;
    }
}

void
BloomierFilter::vacate(const Probe &where)
{
    for (unsigned i = 0; i < config_.k; ++i) {
        uint8_t &count = counts_[where.slots[i]];
        panicIf(count == 0, "BloomierFilter occupancy underflow");
        --count;
    }
}

bool
BloomierFilter::hasSingletonSlot(const Key128 &key) const
{
    Probe where = img_->probe(key);
    for (unsigned i = 0; i < config_.k; ++i) {
        if (counts_[where.slots[i]] == 0)
            return true;
    }
    return false;
}

BloomierFilter::InsertResult
BloomierFilter::insert(const Key128 &key, uint32_t code)
{
    Probe where = img_->probe(key);
    unsigned p = where.partition;
    Registry &reg = registry_[p];
    if (reg.find(key) != kNoCode)
        return InsertResult{InsertMethod::Duplicate, {}};
    panicIf(code == kNoCode, "BloomierFilter code out of range");

    // Fast path: a singleton slot lets us encode in O(1) (§4.4.2).
    size_t singleton = SIZE_MAX;
    for (unsigned i = 0; i < config_.k; ++i) {
        if (counts_[where.slots[i]] == 0) {
            singleton = where.slots[i];
            break;
        }
    }
    // Injection point: pretend no singleton exists, forcing the rare
    // partition-rebuild path (polled only when it changes behaviour).
    if (singleton != SIZE_MAX && CHISEL_FAULT_FIRE(ForceNonSingleton))
        singleton = SIZE_MAX;

    reg.insert(key, code);
    occupy(where);
    ++size_;

    if (singleton != SIZE_MAX) {
        // The encode XORs the key's other k - 1 slots: a soft error in
        // one of them would make a wrong word with valid parity, so
        // flag it for the caller to recover the whole cell.
        for (unsigned i = 0; i < config_.k; ++i) {
            if (!img_->parityOk(where.slots[i]) &&
                where.slots[i] != singleton)
                tainted_ = true;
        }
        encodeAt(where.slots, code, singleton);
        logSlots(singleton, 1);
        ++stats_.singletonInserts;
        return InsertResult{InsertMethod::Singleton, {}};
    }

    // Slow path: re-run setup on this key's partition only.
    InsertResult result;
    ++stats_.rebuilds;
    rebuildPartition(p, result.spilled);

    bool self_spilled = false;
    for (const auto &[k2, c2] : result.spilled) {
        if (k2 == key && c2 == code)
            self_spilled = true;
    }
    result.method = self_spilled ? InsertMethod::Failed
                                 : InsertMethod::Rebuild;
    return result;
}

bool
BloomierFilter::erase(const Key128 &key)
{
    Probe where = img_->probe(key);
    if (!registry_[where.partition].erase(key))
        return false;
    vacate(where);
    --size_;
    ++stats_.erases;
    return true;
}

std::vector<std::pair<Key128, uint32_t>>
BloomierFilter::setup(
    const std::vector<std::pair<Key128, uint32_t>> &entries)
{
    ++stats_.setups;
    clear();
    for (Registry &reg : registry_)
        reg.reset(entries.size() / partitions_);
    for (const auto &[key, code] : entries) {
        Probe where = img_->probe(key);
        Registry &reg = registry_[where.partition];
        if (reg.find(key) != kNoCode)
            fatalError("BloomierFilter::setup: duplicate key");
        panicIf(code == kNoCode, "BloomierFilter code out of range");
        reg.insert(key, code);
        occupy(where);
        ++size_;
    }

    std::vector<std::pair<Key128, uint32_t>> spilled;
    for (unsigned p = 0; p < partitions_; ++p)
        rebuildPartition(p, spilled);
    return spilled;
}

void
BloomierFilter::rebuildPartition(
    unsigned p, std::vector<std::pair<Key128, uint32_t>> &spilled)
{
    Registry &reg = registry_[p];
    const size_t partition_slots = img_->partitionSlots;
    size_t base = static_cast<size_t>(p) * partition_slots;

    // Local snapshot of the partition's entries, in canonical (key)
    // order: the peel outcome must not depend on the registry's table
    // order, or a rebuild replayed after snapshot restore could
    // assign different slots than the original run.
    std::vector<std::pair<Key128, uint32_t>> entries;
    entries.reserve(reg.size());
    reg.forEach([&](const Key128 &key, uint32_t code) {
        entries.emplace_back(key, code);
    });
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    size_t n = entries.size();

    // Per-slot peeling state, local indices [0, partition_slots).
    std::vector<uint32_t> cnt(partition_slots, 0);
    std::vector<uint32_t> xorsum(partition_slots, 0);
    std::vector<Probe> where(n);
    auto local = [&](size_t i, unsigned j) {
        return where[i].slots[j] - base;
    };

    for (size_t i = 0; i < n; ++i) {
        where[i] = img_->probe(entries[i].first);
        for (unsigned j = 0; j < config_.k; ++j) {
            ++cnt[local(i, j)];
            xorsum[local(i, j)] ^= static_cast<uint32_t>(i);
        }
    }

    auto remove_entry = [&](size_t i) {
        for (unsigned j = 0; j < config_.k; ++j) {
            size_t l = local(i, j);
            --cnt[l];
            xorsum[l] ^= static_cast<uint32_t>(i);
        }
    };

    // Peel: repeatedly pop singleton slots.  peel_slot[i] records the
    // slot through which entry i was peeled (its τ location).
    std::vector<size_t> peel_order;
    peel_order.reserve(n);
    std::vector<size_t> peel_slot(n, SIZE_MAX);
    std::vector<bool> peeled(n, false);

    std::deque<size_t> work;
    for (size_t s = 0; s < partition_slots; ++s) {
        if (cnt[s] == 1)
            work.push_back(s);
    }

    size_t peeled_count = 0;
    std::vector<bool> alive(n, true);

    // Injection point: evict one entry up front, as if the hash
    // functions had produced an unpeelable core containing it — the
    // construction-failure event of "Bloomier Filters: A second look".
    if (n > 0 && CHISEL_FAULT_FIRE(BloomierSetupFail)) {
        size_t victim =
            static_cast<size_t>(fault::activeInjector()->draw(n));
        alive[victim] = false;
        ++peeled_count;
        remove_entry(victim);
        for (unsigned j = 0; j < config_.k; ++j) {
            if (cnt[local(victim, j)] == 1)
                work.push_back(local(victim, j));
        }
    }

    while (peeled_count < n) {
        bool progressed = false;
        while (!work.empty()) {
            size_t s = work.front();
            work.pop_front();
            if (cnt[s] != 1)
                continue;
            size_t i = xorsum[s];
            if (peeled[i] || !alive[i])
                continue;
            peeled[i] = true;
            peel_slot[i] = s;
            peel_order.push_back(i);
            ++peeled_count;
            progressed = true;
            remove_entry(i);
            for (unsigned j = 0; j < config_.k; ++j) {
                if (cnt[local(i, j)] == 1)
                    work.push_back(local(i, j));
            }
        }
        if (peeled_count == n)
            break;
        if (!progressed || work.empty()) {
            // Stuck: every remaining entry sits on a cycle.  Evict the
            // most conflicted remaining entry to the spillover TCAM
            // (§4.1) and keep peeling.
            size_t victim = SIZE_MAX;
            uint64_t worst = 0;
            for (size_t i = 0; i < n; ++i) {
                if (peeled[i] || !alive[i])
                    continue;
                uint64_t load = 0;
                for (unsigned j = 0; j < config_.k; ++j)
                    load += cnt[local(i, j)];
                if (victim == SIZE_MAX || load > worst) {
                    victim = i;
                    worst = load;
                }
            }
            panicIf(victim == SIZE_MAX,
                    "Bloomier peeling stuck with no remaining entry");
            alive[victim] = false;
            ++peeled_count;
            remove_entry(victim);
            for (unsigned j = 0; j < config_.k; ++j) {
                if (cnt[local(victim, j)] == 1)
                    work.push_back(local(victim, j));
            }
        }
    }

    // Evicted entries leave the registry and the global counts.
    for (size_t i = 0; i < n; ++i) {
        if (alive[i])
            continue;
        spilled.push_back(entries[i]);
        ++stats_.spilledKeys;
        reg.erase(entries[i].first);
        vacate(where[i]);
        --size_;
    }

    // Encode in reverse peel order (the paper's Γ): each write lands
    // in a slot no later write will read or touch.
    std::fill(img_->slots.begin() + base,
              img_->slots.begin() + base + partition_slots, 0);
    for (auto it = peel_order.rbegin(); it != peel_order.rend(); ++it) {
        size_t i = *it;
        encodeAt(where[i].slots, entries[i].second, base + peel_slot[i]);
    }
    logSlots(base, partition_slots);
}

uint64_t
BloomierFilter::storageBits() const
{
    return static_cast<uint64_t>(slots()) * slotWidthBits();
}

void
BloomierFilter::clear()
{
    std::fill(img_->slots.begin(), img_->slots.end(), 0);
    logSlots(0, slots());
    std::fill(counts_.begin(), counts_.end(), 0);
    for (Registry &reg : registry_)
        reg.reset(0);
    size_ = 0;
}

void
BloomierFilter::saveState(persist::Encoder &enc) const
{
    enc.u64(config_.seed);
    enc.u64(slots());
    for (uint32_t s : img_->slots)
        enc.u32(s & kValueMask);
    enc.u64(size_);
    // Canonical (key-sorted) order: the image of a restored filter
    // must be byte-identical to the image it was restored from, so
    // the registry's table order must not leak into the encoding.
    std::vector<std::pair<Key128, uint32_t>> keys;
    keys.reserve(size_);
    forEach([&](const Key128 &key, uint32_t code) {
        keys.emplace_back(key, code);
    });
    std::sort(keys.begin(), keys.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    for (const auto &[key, code] : keys) {
        enc.key(key);
        enc.u32(code);
    }
    enc.u64(stats_.singletonInserts);
    enc.u64(stats_.rebuilds);
    enc.u64(stats_.spilledKeys);
    enc.u64(stats_.erases);
    enc.u64(stats_.reseeds);
    enc.u64(stats_.setups);
}

void
BloomierFilter::loadState(persist::Decoder &dec)
{
    uint64_t seed = dec.u64();
    // reseed() rebuilds the hash family the slot contents were
    // encoded under and clears every table; counters restored below.
    reseed(seed);

    if (dec.u64() != slots())
        throw persist::DecodeError("bloomier: slot count mismatch");
    for (size_t i = 0; i < slots(); ++i) {
        // A wider value would overwrite the parity bit.
        uint32_t value = dec.u32();
        if (value >> slotWidthBits() != 0)
            throw persist::DecodeError(
                "bloomier: slot value wider than the slot");
        writeSlot(i, value);
    }

    uint64_t n = dec.count(20);   // Key128 (16) + code (4).
    if (n > capacity_)
        throw persist::DecodeError("bloomier: more keys than capacity");
    for (Registry &reg : registry_)
        reg.reset(n / partitions_);
    for (uint64_t i = 0; i < n; ++i) {
        Key128 key = dec.key();
        uint32_t code = dec.u32();
        if (code >= capacity_)
            throw persist::DecodeError("bloomier: code out of range");
        Probe where = img_->probe(key);
        Registry &reg = registry_[where.partition];
        if (reg.find(key) != kNoCode)
            throw persist::DecodeError("bloomier: duplicate key");
        for (unsigned j = 0; j < config_.k; ++j) {
            if (counts_[where.slots[j]] == UINT8_MAX)
                throw persist::DecodeError(
                    "bloomier: slot occupancy past 255");
        }
        reg.insert(key, code);
        occupy(where);
    }
    size_ = n;

    stats_.singletonInserts = dec.u64();
    stats_.rebuilds = dec.u64();
    stats_.spilledKeys = dec.u64();
    stats_.erases = dec.u64();
    stats_.reseeds = dec.u64();
    stats_.setups = dec.u64();
}

bool
BloomierFilter::selfCheck(const Image *image) const
{
    const Image &img = image != nullptr ? *image : *img_;
    size_t keys = 0;
    bool ok = true;
    for (unsigned p = 0; p < partitions_; ++p) {
        registry_[p].forEach([&](const Key128 &key, uint32_t code) {
            ++keys;
            if (img.lookupCode(key) != code || partitionOf(key) != p)
                ok = false;
        });
    }
    return ok && keys == size_;
}

void
BloomierFilter::Registry::reset(size_t expected)
{
    // Load at most 0.8 until `expected` keys are in.
    const size_t capacity = expected == 0 ? 0 : expected + expected / 4 + 1;
    keys_.assign(capacity, Key128());
    keys_.shrink_to_fit();
    codes_.assign(capacity, kNoCode);
    codes_.shrink_to_fit();
    size_ = 0;
}

size_t
BloomierFilter::Registry::home(const Key128 &key) const
{
    // Multiply-shift range reduction: any table size, no division.
    return static_cast<size_t>(
        (static_cast<unsigned __int128>(hashKey128(key)) * codes_.size()) >>
        64);
}

uint32_t
BloomierFilter::Registry::find(const Key128 &key) const
{
    if (codes_.empty())
        return kNoCode;
    const size_t capacity = codes_.size();
    for (size_t i = home(key);; i = (i + 1 == capacity) ? 0 : i + 1) {
        if (codes_[i] == kNoCode || keys_[i] == key)
            return codes_[i];
    }
}

void
BloomierFilter::Registry::insert(const Key128 &key, uint32_t code)
{
    // Past 7/8 load a probe run grows long: grow by half.
    if (8 * (size_ + 1) > 7 * codes_.size())
        rehash(codes_.size() + codes_.size() / 2 + 8);
    const size_t capacity = codes_.size();
    size_t i = home(key);
    while (codes_[i] != kNoCode)
        i = (i + 1 == capacity) ? 0 : i + 1;
    keys_[i] = key;
    codes_[i] = code;
    ++size_;
}

bool
BloomierFilter::Registry::erase(const Key128 &key)
{
    if (codes_.empty())
        return false;
    const size_t capacity = codes_.size();
    auto next = [capacity](size_t i) { return i + 1 == capacity ? 0 : i + 1; };
    size_t hole = home(key);
    for (;; hole = next(hole)) {
        if (codes_[hole] == kNoCode)
            return false;
        if (keys_[hole] == key)
            break;
    }
    // Backward shift: an entry later in the run moves into the hole
    // unless its home lies cyclically in (hole, j] — then the hole
    // would sit before its home and a find would stop short of it.
    for (size_t j = next(hole); codes_[j] != kNoCode; j = next(j)) {
        size_t h = home(keys_[j]);
        bool stays = hole <= j ? (hole < h && h <= j)
                               : (hole < h || h <= j);
        if (stays)
            continue;
        keys_[hole] = keys_[j];
        codes_[hole] = codes_[j];
        hole = j;
    }
    codes_[hole] = kNoCode;
    --size_;
    return true;
}

void
BloomierFilter::Registry::rehash(size_t capacity)
{
    std::vector<Key128> keys = std::move(keys_);
    std::vector<uint32_t> codes = std::move(codes_);
    keys_.assign(capacity, Key128());
    codes_.assign(capacity, kNoCode);
    size_ = 0;
    for (size_t i = 0; i < codes.size(); ++i) {
        if (codes[i] != kNoCode)
            insert(keys[i], codes[i]);
    }
}

} // namespace chisel
