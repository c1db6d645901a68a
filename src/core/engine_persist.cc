/**
 * @file
 * Engine-level persistence: config codec, config fingerprint and the
 * whole-engine saveState/restoreState pair (docs/persistence.md).
 *
 * Kept out of engine.cc so the hot-path translation unit does not
 * grow serialization concerns.  Everything here routes through the
 * bounds-checked persist::Decoder: corrupt snapshot bytes surface as
 * DecodeError (recovery ladder input), never as undefined behaviour.
 */

#include <cmath>
#include <memory>
#include <utility>

#include "core/engine.hh"
#include "persist/codec.hh"

namespace chisel {

namespace {

/** Reserved u64 words; older snapshots hold lookup tallies there. */
constexpr int kReservedWords = 5;

void
encodeDamping(persist::Encoder &enc, const health::DampingConfig &d)
{
    enc.f64(d.penaltyPerFlap);
    enc.f64(d.halfLifeTicks);
    enc.f64(d.suppressThreshold);
    enc.f64(d.reuseThreshold);
    enc.u64(d.maxEntries);
}

health::DampingConfig
decodeDamping(persist::Decoder &dec)
{
    health::DampingConfig d;
    d.penaltyPerFlap = dec.f64();
    d.halfLifeTicks = dec.f64();
    d.suppressThreshold = dec.f64();
    d.reuseThreshold = dec.f64();
    d.maxEntries = dec.u64();
    if (!std::isfinite(d.penaltyPerFlap) ||
        !std::isfinite(d.halfLifeTicks) ||
        !std::isfinite(d.suppressThreshold) ||
        !std::isfinite(d.reuseThreshold) || d.penaltyPerFlap < 0.0 ||
        d.halfLifeTicks < 0.0 ||
        d.reuseThreshold > d.suppressThreshold)
        throw persist::DecodeError("config: damping fields invalid");
    return d;
}

} // anonymous namespace

void
encodeConfig(persist::Encoder &enc, const ChiselConfig &config)
{
    enc.u32(config.keyWidth);
    enc.u32(config.stride);
    enc.u32(config.k);
    enc.f64(config.ratio);
    enc.u32(config.partitions);
    enc.u64(config.spillCapacity);
    enc.u64(config.slowPathCapacity);
    enc.f64(config.capacityHeadroom);
    enc.u64(config.minCellCapacity);
    enc.boolean(config.coverAllLengths);
    enc.boolean(config.retainDirtyGroups);
    enc.u64(config.dirtyBudgetPerCell);
    encodeDamping(enc, config.damping);
    enc.u64(config.seed);
    enc.u64(config.defaultTtlMs);
}

ChiselConfig
decodeConfig(persist::Decoder &dec)
{
    ChiselConfig c;
    c.keyWidth = dec.u32();
    c.stride = dec.u32();
    c.k = dec.u32();
    c.ratio = dec.f64();
    c.partitions = dec.u32();
    c.spillCapacity = dec.u64();
    c.slowPathCapacity = dec.u64();
    c.capacityHeadroom = dec.f64();
    c.minCellCapacity = dec.u64();
    c.coverAllLengths = dec.boolean();
    c.retainDirtyGroups = dec.boolean();
    c.dirtyBudgetPerCell = dec.u64();
    c.damping = decodeDamping(dec);
    c.seed = dec.u64();
    c.defaultTtlMs = dec.u64();
    if (c.keyWidth < 1 || c.keyWidth > Key128::maxBits)
        throw persist::DecodeError("config: key width out of range");
    if (c.stride > 16)
        throw persist::DecodeError("config: stride out of range");
    if (c.k < 1 || c.k > 16)
        throw persist::DecodeError("config: k out of range");
    return c;
}

uint64_t
configFingerprint(const ChiselConfig &config)
{
    persist::Encoder enc;
    encodeConfig(enc, config);
    uint64_t lo = persist::crc32(enc.buffer().data(), enc.size(), 0);
    uint64_t hi =
        persist::crc32(enc.buffer().data(), enc.size(), 0x9E3779B9u);
    return (hi << 32) | lo;
}

namespace {

void
encodeCellConfig(persist::Encoder &enc, const SubCell::Config &cc)
{
    enc.u32(cc.range.base);
    enc.u32(cc.range.top);
    enc.boolean(cc.range.filler);
    enc.u32(cc.stride);
    enc.u64(cc.capacity);
    enc.u32(cc.keyWidth);
    enc.u32(cc.k);
    enc.f64(cc.ratio);
    enc.u32(cc.partitions);
    enc.u32(cc.resultPointerBits);
    enc.u64(cc.seed);
    enc.u32(cc.setupRetries);
    enc.boolean(cc.retainDirtyGroups);
    enc.u64(cc.dirtyBudget);
    encodeDamping(enc, cc.damping);
}

SubCell::Config
decodeCellConfig(persist::Decoder &dec)
{
    SubCell::Config cc;
    cc.range.base = dec.u32();
    cc.range.top = dec.u32();
    cc.range.filler = dec.boolean();
    cc.stride = dec.u32();
    cc.capacity = dec.u64();
    cc.keyWidth = dec.u32();
    cc.k = dec.u32();
    cc.ratio = dec.f64();
    cc.partitions = dec.u32();
    cc.resultPointerBits = dec.u32();
    cc.seed = dec.u64();
    cc.setupRetries = dec.u32();
    cc.retainDirtyGroups = dec.boolean();
    cc.dirtyBudget = dec.u64();
    cc.damping = decodeDamping(dec);
    if (cc.range.base < 1 || cc.range.base > cc.range.top ||
        cc.range.top > Key128::maxBits)
        throw persist::DecodeError("cell config: bad length range");
    if (cc.stride > 16)
        throw persist::DecodeError("cell config: stride out of range");
    if (cc.capacity == 0 || cc.capacity > (size_t(1) << 28))
        throw persist::DecodeError("cell config: capacity out of range");
    if (cc.k < 1 || cc.k > 16 || cc.partitions < 1 ||
        cc.partitions > 4096)
        throw persist::DecodeError("cell config: k/partitions invalid");
    if (cc.ratio < 1.0 || cc.ratio > 64.0)
        throw persist::DecodeError("cell config: ratio out of range");
    if (cc.resultPointerBits < 1 || cc.resultPointerBits > 32)
        throw persist::DecodeError("cell config: pointer bits invalid");
    // Allocation bound: a valid image stores every filter entry,
    // bit-vector word, and Index Table slot the geometry declares, so
    // a capacity that cannot fit in the bytes still to be decoded is
    // corruption.  Checked *before* the cell is constructed, so a
    // fuzzed config cannot trigger a multi-gigabyte allocation
    // (fuzz/fuzz_persist.cc).
    uint64_t left = dec.remaining();
    uint64_t vector_bytes = (uint64_t(cc.capacity) << cc.stride) / 8;
    uint64_t slot_bytes =
        static_cast<uint64_t>(double(cc.capacity) * cc.ratio) * 4;
    if (cc.capacity > left || vector_bytes > 2 * left ||
        slot_bytes > 4 * left)
        throw persist::DecodeError(
            "cell config: geometry exceeds image size");
    return cc;
}

} // anonymous namespace

ChiselEngine::ChiselEngine(const ChiselConfig &config, CollapsePlan plan,
                           RestoreTag)
    : config_(config), plan_(std::move(plan)),
      own_(std::make_unique<EngineImage>(config.keyWidth,
                                         plan_.cells.size(),
                                         config.spillCapacity,
                                         config.slowPathCapacity)),
      image_(own_.get()), results_(image_->results)
{
}

void
ChiselEngine::saveState(persist::Encoder &enc) const
{
    // Collapse plan.
    enc.u64(plan_.cells.size());
    for (const CellRange &r : plan_.cells) {
        enc.u32(r.base);
        enc.u32(r.top);
        enc.boolean(r.filler);
    }

    // Shared Result Table before the cells: restore rebuilds it
    // first, since cell result-block pointers index into it.
    results_.saveState(enc);

    // Cells: per-cell construction config (capacity and seeds are
    // table-load dependent, not derivable from ChiselConfig alone)
    // followed by the deep cell state.
    enc.u64(cells_.size());
    for (const auto &cell : cells_) {
        encodeCellConfig(enc, cell->cellConfig());
        cell->saveState(enc);
    }

    image_->spill.saveState(enc);
    image_->slowPath.saveState(enc);

    enc.boolean(image_->defaultRoute.has_value());
    enc.u32(image_->defaultRoute.value_or(kNoRoute));

    for (uint64_t c : updateStats_.counts)
        enc.u64(c);

    enc.u64(robust_.rejectedUpdates);
    enc.u64(robust_.tcamOverflows);
    enc.u64(robust_.slowPathInserts);
    enc.u64(robust_.slowPathDrains);
    enc.u64(robust_.slowPathRejected);
    enc.u64(robust_.setupRetries);
    enc.u64(robust_.parityDetected);
    enc.u64(robust_.parityRecoveries);

    for (int i = 0; i < kReservedWords; ++i)
        enc.u64(0);

    // TTL lifecycle state: deadlines survive a warm restart so a
    // route's expiry is decided by its original announce, not by
    // when the process happened to restart.
    enc.u64(ttlClockMs_);
    ttl_.saveState(enc);
}

std::unique_ptr<ChiselEngine>
ChiselEngine::restoreState(const ChiselConfig &config,
                           persist::Decoder &dec)
{
    if (config.keyWidth < 1 || config.keyWidth > Key128::maxBits)
        throw persist::DecodeError("restore: key width out of range");

    uint64_t plan_cells = dec.count(9);
    if (plan_cells == 0 || plan_cells > Key128::maxBits)
        throw persist::DecodeError("restore: implausible plan size");
    CollapsePlan plan;
    unsigned prev_top = 0;
    for (uint64_t i = 0; i < plan_cells; ++i) {
        CellRange r;
        r.base = dec.u32();
        r.top = dec.u32();
        r.filler = dec.boolean();
        if (r.base < 1 || r.base > r.top || r.top > config.keyWidth)
            throw persist::DecodeError("restore: bad plan range");
        if (i > 0 && r.base <= prev_top)
            throw persist::DecodeError("restore: plan ranges overlap");
        prev_top = r.top;
        plan.cells.push_back(r);
    }

    // The arena grows cell by cell as they are decoded: nothing here
    // knows the image's size in advance.
    auto engine = std::unique_ptr<ChiselEngine>(
        new ChiselEngine(config, std::move(plan), RestoreTag{}));
    engine->results_.loadState(dec);

    uint64_t cell_count = dec.count(64);
    if (cell_count != plan_cells)
        throw persist::DecodeError(
            "restore: cell count does not match plan");
    for (uint64_t i = 0; i < cell_count; ++i) {
        SubCell::Config cc = decodeCellConfig(dec);
        if (!(cc.range == engine->plan_.cells[i]))
            throw persist::DecodeError(
                "restore: cell range does not match plan");
        EngineImage &image = *engine->image_;
        image.cells.emplace_back(image.arena.get());
        auto cell = std::make_unique<SubCell>(
            cc, &engine->results_, &image.summary,
            CellSummary::bitFor(i, cell_count), &image.cells.back());
        cell->loadState(dec);
        engine->cells_.push_back(std::move(cell));
    }

    engine->image_->spill.loadState(dec);
    engine->image_->slowPath.loadState(dec);

    bool have_default = dec.boolean();
    NextHop default_hop = dec.u32();
    if (have_default)
        engine->image_->defaultRoute = default_hop;

    for (auto &c : engine->updateStats_.counts)
        c = dec.u64();

    engine->robust_.rejectedUpdates = dec.u64();
    engine->robust_.tcamOverflows = dec.u64();
    engine->robust_.slowPathInserts = dec.u64();
    engine->robust_.slowPathDrains = dec.u64();
    engine->robust_.slowPathRejected = dec.u64();
    engine->robust_.setupRetries = dec.u64();
    engine->robust_.parityDetected = dec.u64();
    engine->robust_.parityRecoveries = dec.u64();

    for (int i = 0; i < kReservedWords; ++i)
        (void)dec.u64();

    engine->ttlClockMs_ = dec.u64();
    engine->ttl_.loadState(dec);

    return engine;
}

uint64_t
ChiselEngine::bloomierSetups() const
{
    uint64_t total = 0;
    for (const auto &cell : cells_)
        total += cell->indexStats().setups;
    return total;
}

} // namespace chisel
