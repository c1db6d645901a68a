#include "core/engine.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <unordered_set>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "fault/fault.hh"
#include "hash/mix.hh"
#include "telemetry/engine_telemetry.hh"

namespace chisel {

const char *
updateStatusName(UpdateStatus s)
{
    switch (s) {
      case UpdateStatus::Applied: return "applied";
      case UpdateStatus::Degraded: return "degraded";
      case UpdateStatus::Rejected: return "rejected";
    }
    return "?";
}

uint64_t
UpdateStats::total() const
{
    uint64_t t = 0;
    for (uint64_t c : counts)
        t += c;
    return t;
}

double
UpdateStats::fraction(UpdateClass c) const
{
    uint64_t t = total();
    if (t == 0)
        return 0.0;
    return static_cast<double>(count(c)) / static_cast<double>(t);
}

double
UpdateStats::incrementalFraction() const
{
    uint64_t t = total();
    if (t == 0)
        return 1.0;
    uint64_t slow = count(UpdateClass::Resetup);
    return 1.0 - static_cast<double>(slow) / static_cast<double>(t);
}

namespace {

/** The collapse plan an engine over @p routes uses. */
CollapsePlan
planFor(const std::vector<Route> &routes, const ChiselConfig &config)
{
    if (config.keyWidth < 1 || config.keyWidth > Key128::maxBits)
        fatalError("ChiselEngine key width must be in [1, 128]");

    std::array<bool, Key128::maxBits + 1> present{};
    for (const Route &r : routes)
        present[r.prefix.length()] = true;
    std::vector<unsigned> lengths;
    for (unsigned len = 0; len <= Key128::maxBits; ++len) {
        if (present[len])
            lengths.push_back(len);
    }

    CollapsePlan plan = makeCollapsePlan(lengths, config.stride,
                                         config.keyWidth,
                                         config.coverAllLengths);
    if (plan.cells.empty()) {
        // Empty table and coverage disabled: a single cell over
        // [1, stride+1] so the engine is still usable.
        CellRange r;
        r.base = 1;
        r.top = std::min(config.stride + 1, config.keyWidth);
        plan.cells.push_back(r);
    }
    return plan;
}

} // anonymous namespace

ChiselEngine::ChiselEngine(const RoutingTable &initial,
                           const ChiselConfig &config)
    : ChiselEngine(initial.routes(), config)
{
}

EngineImage::EngineImage(unsigned key_width, size_t cells,
                         size_t spill_capacity, size_t slow_path_capacity)
    : arena(std::make_unique<ImageArena>()),
      summary(key_width, cells, arena.get()), spill(spill_capacity),
      slowPath(slow_path_capacity)
{
    this->cells.reserve(cells);
}

EngineImage::EngineImage(const EngineImage &other)
    : arena(std::make_unique<ImageArena>()),
      summary(other.summary, arena.get()), results(other.results),
      spill(other.spill), slowPath(other.slowPath),
      defaultRoute(other.defaultRoute)
{
    // Cell by cell, as a build or a restore fills the arena.
    cells.reserve(other.cells.size());
    for (const CellImage &cell : other.cells)
        cells.emplace_back(cell, arena.get());
}

void
EngineImage::replay(const EngineImage &src, const WriteLog &log)
{
    using Table = WriteLog::Table;
    for (const WriteLog::Range &w : log.ranges()) {
        switch (w.table) {
          case Table::SummaryRegion:
            summary.copyRegion(src.summary, static_cast<uint32_t>(w.first));
            break;
          case Table::SummaryAlways:
            summary.copyAlways(src.summary);
            break;
          case Table::IndexLanes: {
            const BloomierFilter::Image &from = src.cells[w.cell].index;
            BloomierFilter::Image &to = cells[w.cell].index;
            std::copy(from.lanes.begin(), from.lanes.end(),
                      to.lanes.begin());
            std::copy(std::begin(from.laneLengthRows),
                      std::end(from.laneLengthRows), to.laneLengthRows);
            break;
          }
          case Table::IndexSlots:
            std::copy_n(src.cells[w.cell].index.slots.begin() + w.first,
                        w.count,
                        cells[w.cell].index.slots.begin() + w.first);
            break;
          case Table::Records:
            std::copy_n(src.cells[w.cell].records.words() + w.first,
                        w.count, cells[w.cell].records.words() + w.first);
            break;
          case Table::Presence:
            std::copy_n(src.cells[w.cell].presence.begin() + w.first,
                        w.count, cells[w.cell].presence.begin() + w.first);
            break;
          case Table::Results:
            std::copy_n(src.results.slots.begin() + w.first, w.count,
                        results.slots.begin() + w.first);
            [[fallthrough]];
          case Table::ResultMeta:
            std::copy_n(src.results.meta.begin() + w.first, w.count,
                        results.meta.begin() + w.first);
            break;
          case Table::ResultGrow:
            results.grow(w.first + w.count);
            break;
        }
    }
    if (log.spill())
        spill = src.spill;
    if (log.slowPath())
        slowPath = src.slowPath;
    if (log.defaultRoute())
        defaultRoute = src.defaultRoute;
}

ChiselEngine::ChiselEngine(const std::vector<Route> &routes,
                           const ChiselConfig &config)
    : config_(config), plan_(planFor(routes, config)),
      own_(std::make_unique<EngineImage>(config.keyWidth,
                                         plan_.cells.size(),
                                         config.spillCapacity,
                                         config.slowPathCapacity)),
      image_(own_.get()), results_(image_->results)
{
    // Partition the initial routes per cell.
    std::vector<std::vector<Route>> per_cell(plan_.cells.size());

    for (const auto &r : routes) {
        unsigned len = r.prefix.length();
        if (len == 0) {
            image_->defaultRoute = r.nextHop;
            continue;
        }
        int c = plan_.cellFor(len);
        panicIf(c < 0, "collapse plan does not cover an initial route");
        per_cell[c].push_back(r);
    }

    std::vector<Route> displaced;
    for (size_t i = 0; i < plan_.cells.size(); ++i) {
        SubCell::Config cc;
        cc.range = plan_.cells[i];
        cc.stride = config_.stride;
        // The paper's worst-case paradigm: provision each cell for
        // its *route* count (one group per prefix in the worst
        // case), times the headroom for future announces.  Groups
        // never outnumber routes, so cells run at low load and
        // singleton insertion stays the overwhelmingly common case.
        cc.capacity = std::max<size_t>(
            config_.minCellCapacity,
            static_cast<size_t>(std::ceil(
                config_.capacityHeadroom *
                static_cast<double>(per_cell[i].size()))));
        cc.keyWidth = config_.keyWidth;
        cc.k = config_.k;
        cc.ratio = config_.ratio;
        // Partitions only help once a cell is large enough that a
        // full re-setup would be slow; small cells peel in one shot.
        cc.partitions = static_cast<unsigned>(std::clamp<size_t>(
            cc.capacity / 2048, 1, config_.partitions));
        cc.retainDirtyGroups = config_.retainDirtyGroups;
        cc.dirtyBudget = config_.dirtyBudgetPerCell;
        cc.damping = config_.damping;
        cc.resultPointerBits =
            addressBits(4ull * std::max<size_t>(routes.size(), 1024));
        cc.seed = mix64(config_.seed + 0x9e3779b97f4a7c15ULL *
                        (plan_.cells[i].base + 1));

        image_->cells.emplace_back(image_->arena.get());
        cells_.push_back(std::make_unique<SubCell>(
            cc, &results_, &image_->summary,
            CellSummary::bitFor(i, plan_.cells.size()),
            &image_->cells.back()));
        cells_.back()->buildFrom(per_cell[i], displaced);
    }
    UpdateOutcome boot;
    absorbDisplaced(displaced, boot);
}

void
ChiselEngine::absorbDisplaced(std::vector<Route> &displaced,
                              UpdateOutcome &out)
{
    for (const auto &r : displaced) {
        if (image_->spill.insert(r.prefix, r.nextHop)) {
            touchSpill();
            continue;
        }
        // TCAM full (or an injected overflow): degrade to the
        // software slow path rather than drop the route.
        ++out.tcamOverflows;
        ++robust_.tcamOverflows;
        touchSlowPath();
        switch (image_->slowPath.insert(r.prefix, r.nextHop)) {
          case SlowPathMap::Insert::Inserted:
            ++out.slowPathInserts;
            ++robust_.slowPathInserts;
            break;
          case SlowPathMap::Insert::Updated:
            break;
          case SlowPathMap::Insert::Rejected:
            // The slow path itself is full: the route is dropped and
            // the outcome says so — the only lossy rung of the
            // ladder, taken over unbounded control-plane growth.
            ++out.slowPathRejections;
            ++robust_.slowPathRejected;
            warnOnce("software slow path full: routes dropped");
            break;
        }
        // One advisory per process: repeated overflows during long
        // update replays would otherwise flood the log.
        warnOnce("spillover TCAM full: routes diverted to the "
                 "software slow path");
    }
    displaced.clear();
}

void
ChiselEngine::recoverTainted(size_t c, UpdateOutcome &out)
{
    if (!cells_[c]->takeTainted())
        return;
    // The word the encode wrote is wrong though its parity holds:
    // rewrite the cell from the shadow before the write log can carry
    // it into the other image.
    std::vector<Route> displaced;
    cells_[c]->recoverParity(displaced);
    absorbDisplaced(displaced, out);
    ++out.parityRecoveries;
}

size_t
ChiselEngine::recoverFlagged()
{
    UpdateOutcome out;
    recoverPendingParity(out);
    return out.parityRecoveries;
}

void
ChiselEngine::recoverPendingParity(UpdateOutcome &out)
{
    for (auto &cell : cells_) {
        if (!cell->parityPending())
            continue;
        std::vector<Route> displaced;
        cell->recoverParity(displaced);
        absorbDisplaced(displaced, out);
        ++out.parityRecoveries;
    }
}

void
ChiselEngine::applyInjectedFaults()
{
    fault::FaultInjector *inj = fault::activeInjector();
    if (inj == nullptr || cells_.empty())
        return;
    auto pick = [&]() -> SubCell & {
        return *cells_[inj->draw(cells_.size())];
    };
    if (inj->shouldFire(fault::FaultPoint::BitFlipIndex))
        pick().corruptIndexBit(*inj);
    if (inj->shouldFire(fault::FaultPoint::BitFlipFilter))
        pick().corruptFilterBit(*inj);
    if (inj->shouldFire(fault::FaultPoint::BitFlipBitVector))
        pick().corruptBitVectorBit(*inj);
    // Soft errors, not writes: nothing here is named in the write log,
    // so a flip stays in the one image it landed in.
    if (inj->shouldFire(fault::FaultPoint::BitFlipResult)) {
        uint64_t high = results_.highWater();
        if (high > 0) {
            results_.flipBit(static_cast<uint32_t>(inj->draw(high)),
                             static_cast<unsigned>(inj->draw(32)));
        }
    }
}

void
ChiselEngine::drainSlowPath()
{
    SlowPathMap &slow_path = image_->slowPath;
    Tcam &spill = image_->spill;
    uint64_t drained = 0;
    while (!slow_path.empty() && !spill.full()) {
        Route r = *slow_path.longest();   // Longest first.
        if (!spill.insert(r.prefix, r.nextHop))
            break;   // Injected overflow; retry at the next update.
        slow_path.erase(r.prefix);
        ++robust_.slowPathDrains;
        ++drained;
    }
    if (drained > 0) {
        touchSpill();
        touchSlowPath();
        CHISEL_FLIGHT_EVENT(SlowPathDrain, 0, drained, slow_path.size());
    }
}

uint64_t
ChiselEngine::cellSetupRetries() const
{
    uint64_t n = 0;
    for (const auto &cell : cells_)
        n += cell->faultCounters().setupRetries;
    return n;
}

RobustnessCounters
ChiselEngine::robustness() const
{
    RobustnessCounters r = robust_;
    for (const auto &cell : cells_) {
        const auto &f = cell->faultCounters();
        r.setupRetries += f.setupRetries;
        r.parityDetected += f.parityDetected;
        r.parityRecoveries += f.parityRecoveries;
        const auto &h = cell->healthCounters();
        r.dirtyEvictions += h.dirtyEvictions;
        r.suppressedFlaps += h.suppressedFlaps;
    }
    return r;
}

namespace {

/**
 * The engine's lookup over @p image.  @p probe(c, hit) probes cell c;
 * false abandons the lookup (a reader's parity error).  @p skipped(c)
 * hears of each candidate cell whose presence bit ruled it out.
 */
template <class ProbeCell, class SkipCell>
LookupResult
lookupImage(const EngineImage &image, const Key128 &key, ProbeCell &&probe,
            SkipCell &&skipped)
{
    LookupResult out;

    // All sub-cells probe in parallel; the priority encoder picks the
    // hit with the longest base.  Software probes only the cells the
    // summary names, lowest bit (longest base) first, so the first
    // hit is that winner (cell ranges are disjoint).  Bit j is cell
    // n-1-j; bit 63 also covers every cell below n-64.  Of those, a
    // cell whose presence bit says it lacks the key's group is not
    // probed at all.
    const size_t n = image.cells.size();
    for (uint64_t m = image.summary.candidates(key); m != 0 && !out.found;
         m &= m - 1) {
        unsigned j = static_cast<unsigned>(std::countr_zero(m));
        size_t lowest = j == 63 ? 0 : n - 1 - j;
        for (size_t c = n - j; c-- > lowest;) {
            if (!image.cells[c].mayHold(key)) {
                skipped(c);
                continue;
            }
            CellHit h;
            if (!probe(c, h))
                return LookupResult{};
            if (h.hit) {
                out.found = true;
                out.nextHop = h.nextHop;
                out.matchedLength = h.matchedLength;
                break;
            }
        }
    }

    // The spillover TCAM is searched in parallel with the cells; a
    // longer TCAM match overrides.
    if (auto t = image.spill.lookup(key)) {
        if (!out.found || t->prefix.length() > out.matchedLength) {
            out.found = true;
            out.nextHop = t->nextHop;
            out.matchedLength = t->prefix.length();
            out.fromSpill = true;
        }
    }

    // Degraded mode: routes diverted past the TCAM live in the
    // software slow path; a longer match there overrides.  Empty in
    // normal operation, so this costs one branch.
    if (!image.slowPath.empty()) {
        if (auto s = image.slowPath.lookup(key)) {
            if (!out.found || s->prefix.length() > out.matchedLength) {
                out.found = true;
                out.nextHop = s->nextHop;
                out.matchedLength = s->prefix.length();
                out.fromSpill = false;
                out.fromSlowPath = true;
            }
        }
    }

    if (!out.found && image.defaultRoute) {
        out.found = true;
        out.nextHop = *image.defaultRoute;
        out.matchedLength = 0;
        out.fromDefault = true;
    }
    return out;
}

} // anonymous namespace

LookupResult
EngineImage::lookup(const Key128 &key, bool *parity_ok) const
{
    return lookupImage(
        *this, key,
        [&](size_t c, CellHit &h) {
            if (cells[c].probe(key, results, h) != CellImage::Probe::Parity)
                return true;
            *parity_ok = false;
            return false;
        },
        [](size_t) {});
}

LookupResult
ChiselEngine::lookupIn(const EngineImage &image, const Key128 &key) const
{
    return lookupImage(
        image, key,
        [&](size_t c, CellHit &h) {
            h = cells_[c]->lookup(image.cells[c], image.results, key);
            return true;
        },
        [&]([[maybe_unused]] size_t c) {
            // A skip must be a true negative: the registry agrees.
            assert(!cells_[c]->holdsGroup(key));
        });
}

LookupResult
ChiselEngine::lookup(const Key128 &key) const
{
    if (telemetry_ == nullptr)
        return lookupIn(*image_, key);
    telemetry::LookupSpan span(*telemetry_);
    LookupResult out = lookupIn(*image_, key);
    span.finish(out);
    return out;
}

void
ChiselEngine::bindImage(EngineImage &image)
{
    image_ = &image;
    results_.bind(image.results);
    for (size_t i = 0; i < cells_.size(); ++i)
        cells_[i]->bind(image.cells[i], &image.summary);
}

void
ChiselEngine::setWriteLog(WriteLog *log)
{
    log_ = log;
    results_.setLog(log);
    for (size_t i = 0; i < cells_.size(); ++i)
        cells_[i]->setLog(log, static_cast<uint32_t>(i));
}

UpdateOutcome
ChiselEngine::announce(const Prefix &prefix, NextHop next_hop,
                       uint32_t ttl_ms)
{
    UpdateOutcome out;
    if (telemetry_ == nullptr) {
        out = announceImpl(prefix, next_hop);
    } else {
        telemetry::UpdateSpan span(*telemetry_);
        out = announceImpl(prefix, next_hop);
        span.finish(out);
    }
    if (out.status != UpdateStatus::Rejected && prefix.length() > 0)
        armTtl(prefix, ttl_ms);
    CHISEL_FLIGHT_EVENT(UpdateApply, out.status,
                        static_cast<uint64_t>(out.cls),
                        prefix.length());
    return out;
}

void
ChiselEngine::armTtl(const Prefix &prefix, uint32_t ttl_ms)
{
    uint64_t ttl = ttl_ms != 0 ? ttl_ms : config_.defaultTtlMs;
    if (ttl_ms == kTtlNever || ttl == 0)
        ttl_.disarm(prefix);
    else
        ttl_.arm(prefix, ttlClockMs_ + ttl);
}

void
ChiselEngine::setTtlClock(uint64_t now_ms)
{
    if (now_ms > ttlClockMs_)
        ttlClockMs_ = now_ms;
}

size_t
ChiselEngine::collectExpired(size_t max, std::vector<Prefix> &out) const
{
    return ttl_.collectExpired(ttlClockMs_, max, out);
}

namespace {

/** Derive the final status from the degradation counters. */
void
finalizeOutcome(UpdateOutcome &out)
{
    if (out.status == UpdateStatus::Rejected)
        return;
    if (out.slowPathRejections > 0) {
        // Hard degradation: route(s) were dropped, not just diverted.
        out.status = UpdateStatus::Degraded;
        out.message = "software slow path full: route(s) dropped";
        return;
    }
    if (out.tcamOverflows > 0 || out.slowPathInserts > 0 ||
        out.parityRecoveries > 0) {
        out.status = UpdateStatus::Degraded;
    }
}

} // anonymous namespace

UpdateOutcome
ChiselEngine::announceImpl(const Prefix &prefix, NextHop next_hop)
{
    UpdateOutcome out;
    if (prefix.length() > config_.keyWidth) {
        // Malformed input is refused, not fatal: the engine keeps
        // serving and the caller learns why from the outcome.
        out.cls = UpdateClass::NoOp;
        out.status = UpdateStatus::Rejected;
        out.message = "announce: prefix longer than the engine's "
                      "key width";
        ++robust_.rejectedUpdates;
        warnOnce(out.message);
        return out;
    }

    // Any parity error flagged by earlier lookups is repaired before
    // this update touches the tables.
    recoverPendingParity(out);
    applyInjectedFaults();

    if (prefix.length() == 0) {
        out.cls = image_->defaultRoute ? UpdateClass::NextHopChange
                                       : UpdateClass::AddCollapsed;
        image_->defaultRoute = next_hop;
        touchDefaultRoute();
        updateStats_.record(out.cls);
        finalizeOutcome(out);
        return out;
    }

    // A prefix already parked in the TCAM or the slow path is
    // updated in place.
    bool in_spill = image_->spill.setNextHop(prefix, next_hop);
    if (in_spill)
        touchSpill();
    if (in_spill || image_->slowPath.setNextHop(prefix, next_hop)) {
        if (!in_spill)
            touchSlowPath();
        out.cls = UpdateClass::NextHopChange;
        updateStats_.record(out.cls);
        finalizeOutcome(out);
        return out;
    }

    int c = plan_.cellFor(prefix.length());
    if (c < 0) {
        std::vector<Route> one{Route{prefix, next_hop}};
        absorbDisplaced(one, out);
        out.cls = UpdateClass::Spill;
        updateStats_.record(out.cls);
        finalizeOutcome(out);
        return out;
    }

    uint64_t retries_before = cellSetupRetries();
    std::vector<Route> displaced;
    out.cls = cells_[c]->announce(prefix, next_hop, displaced);
    recoverTainted(static_cast<size_t>(c), out);
    absorbDisplaced(displaced, out);
    out.setupRetries =
        static_cast<uint32_t>(cellSetupRetries() - retries_before);
    updateStats_.record(out.cls);
    drainSlowPath();
    finalizeOutcome(out);
    return out;
}

UpdateOutcome
ChiselEngine::withdraw(const Prefix &prefix)
{
    UpdateOutcome out;
    if (telemetry_ == nullptr) {
        out = withdrawImpl(prefix, false);
    } else {
        telemetry::UpdateSpan span(*telemetry_);
        out = withdrawImpl(prefix, false);
        span.finish(out);
    }
    CHISEL_FLIGHT_EVENT(UpdateApply, out.status,
                        static_cast<uint64_t>(out.cls),
                        prefix.length());
    return out;
}

UpdateOutcome
ChiselEngine::expire(const Prefix &prefix)
{
    UpdateOutcome out;
    if (telemetry_ == nullptr) {
        out = withdrawImpl(prefix, true);
    } else {
        telemetry::UpdateSpan span(*telemetry_);
        out = withdrawImpl(prefix, true);
        span.finish(out);
    }
    CHISEL_FLIGHT_EVENT(TtlExpire, out.status,
                        static_cast<uint64_t>(out.cls),
                        prefix.length());
    return out;
}

UpdateOutcome
ChiselEngine::withdrawImpl(const Prefix &prefix, bool expiry)
{
    UpdateOutcome out;
    out.cls = UpdateClass::NoOp;

    recoverPendingParity(out);
    applyInjectedFaults();

    if (prefix.length() == 0) {
        out.cls = image_->defaultRoute ? UpdateClass::Withdraw
                                       : UpdateClass::NoOp;
        image_->defaultRoute.reset();
        touchDefaultRoute();
        updateStats_.record(out.cls);
        finalizeOutcome(out);
        return out;
    }

    bool in_spill = image_->spill.erase(prefix);
    if (in_spill)
        touchSpill();
    if (in_spill || image_->slowPath.erase(prefix)) {
        if (!in_spill)
            touchSlowPath();
        out.cls = expiry ? UpdateClass::Expire : UpdateClass::Withdraw;
        ttl_.disarm(prefix);
        updateStats_.record(out.cls);
        drainSlowPath();
        finalizeOutcome(out);
        return out;
    }

    int c = plan_.cellFor(prefix.length());
    if (c >= 0)
        out.cls = cells_[c]->withdraw(prefix);
    if (expiry && out.cls == UpdateClass::Withdraw)
        out.cls = UpdateClass::Expire;
    ttl_.disarm(prefix);
    updateStats_.record(out.cls);
    drainSlowPath();
    finalizeOutcome(out);
    return out;
}

UpdateOutcome
ChiselEngine::apply(const Update &update)
{
    if (update.kind == UpdateKind::Announce)
        return announce(update.prefix, update.nextHop, update.ttlMs);
    if (update.kind == UpdateKind::Expire)
        return expire(update.prefix);
    return withdraw(update.prefix);
}

std::optional<NextHop>
ChiselEngine::find(const Prefix &prefix) const
{
    if (prefix.length() == 0)
        return image_->defaultRoute;
    if (auto t = image_->spill.find(prefix))
        return t;
    if (auto s = image_->slowPath.find(prefix))
        return s;
    int c = plan_.cellFor(prefix.length());
    if (c < 0)
        return std::nullopt;
    return cells_[c]->find(prefix);
}

size_t
ChiselEngine::routeCount() const
{
    size_t n = image_->spill.size() + image_->slowPath.size() +
               (image_->defaultRoute ? 1 : 0);
    for (const auto &cell : cells_)
        n += cell->routeCount();
    return n;
}

RoutingTable
ChiselEngine::exportTable() const
{
    RoutingTable out;
    std::vector<Route> routes;
    for (const auto &cell : cells_)
        cell->exportRoutes(routes);
    for (const auto &r : routes)
        out.add(r.prefix, r.nextHop);
    for (const auto &e : image_->spill.entries())
        out.add(e.prefix, e.nextHop);
    for (const auto &e : image_->slowPath.entries())
        out.add(e.prefix, e.nextHop);
    if (image_->defaultRoute)
        out.add(Prefix(), *image_->defaultRoute);
    return out;
}

std::unique_ptr<ChiselEngine>
ChiselEngine::rebuilt(const ChiselConfig &config) const
{
    // An exported table cannot carry deadlines by itself.
    auto engine = std::make_unique<ChiselEngine>(exportTable(), config);
    engine->ttl_ = ttl_;
    engine->ttlClockMs_ = ttlClockMs_;
    return engine;
}

StorageBreakdown
ChiselEngine::storage() const
{
    StorageBreakdown b;
    for (const auto &cell : cells_) {
        b.indexBits += cell->indexBits();
        b.filterBits += cell->filterBits();
        b.bitvectorBits += cell->bitvectorBits();
        b.parityBits += cell->parityBits();
    }
    // One parity bit per Result Table slot (off-chip but protected).
    b.parityBits += results_.highWater();
    return b;
}

size_t
ChiselEngine::purgeDirty()
{
    size_t purged = 0;
    for (auto &cell : cells_)
        purged += cell->purgeDirty();
    return purged;
}

size_t
ChiselEngine::dirtyCount() const
{
    size_t n = 0;
    for (const auto &cell : cells_)
        n += cell->dirtyCount();
    return n;
}

size_t
ChiselEngine::dirtyPeak() const
{
    size_t peak = 0;
    for (const auto &cell : cells_)
        peak = std::max(peak, cell->dirtyPeak());
    return peak;
}

ScrubReport
ChiselEngine::scrub()
{
    ScrubReport report = verifyParity(*image_);
    report.cellsRecovered = recoverFlagged();
    return report;
}

ScrubReport
ChiselEngine::verifyParity(const EngineImage &image) const
{
    ScrubReport report;

    // Result Table first: a bad word there does not name its owning
    // cell, but recover-by-resetup rewrites every allocated result
    // word from the shadow copy, so recovering all cells scrubs it.
    bool results_bad = false;
    uint64_t high = image.results.slots.size();
    report.wordsChecked += high;
    for (uint32_t addr = 0; addr < high; ++addr) {
        if (!image.results.parityOk(addr)) {
            ++report.errorsFound;
            results_bad = true;
        }
    }

    for (size_t i = 0; i < cells_.size(); ++i) {
        report.wordsChecked += cells_[i]->parityWordCount();
        report.errorsFound += cells_[i]->verifyParity(image.cells[i]);
        if (results_bad)
            cells_[i]->flagRecovery();
    }
    return report;
}

bool
ChiselEngine::selfCheck(const EngineImage &image) const
{
    CellSummary recount(config_.keyWidth, cells_.size());
    for (size_t i = 0; i < cells_.size(); ++i) {
        if (!cells_[i]->selfCheck(image.cells[i], image.results))
            return false;
        cells_[i]->markGroups(recount);
    }
    return recount == image.summary;
}

} // namespace chisel
