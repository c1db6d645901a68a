#include "core/subcell.hh"

#include <algorithm>
#include <cassert>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "hash/mix.hh"
#include "persist/codec.hh"

namespace chisel {

const char *
updateClassName(UpdateClass c)
{
    switch (c) {
      case UpdateClass::Withdraw: return "Withdraws";
      case UpdateClass::RouteFlap: return "Route Flaps";
      case UpdateClass::NextHopChange: return "Next-hops";
      case UpdateClass::AddCollapsed: return "Add PC";
      case UpdateClass::SingletonInsert: return "Singletons";
      case UpdateClass::Resetup: return "Resetups";
      case UpdateClass::Spill: return "Spills";
      case UpdateClass::NoOp: return "No-ops";
      case UpdateClass::Expire: return "Expires";
    }
    return "?";
}

SubCell::SubCell(const Config &config, ResultTable *results,
                 CellSummary *summary, uint64_t summary_bit,
                 CellImage *image)
    : config_(config),
      own_(image != nullptr ? nullptr
                            : std::make_unique<CellImage>(
                                  std::pmr::get_default_resource())),
      img_(image != nullptr ? image : own_.get()),
      results_(results),
      summary_(summary),
      summaryBit_(summary ? summary_bit : 0),
      regional_(summary &&
                config.range.base >= summary->regionPrefix()),
      index_(config.capacity,
             BloomierConfig{config.k, config.ratio, config.range.base,
                            config.partitions, config.seed},
             img_->index),
      table_(config.capacity, std::min(config.range.base, config.keyWidth),
             config.stride, config.resultPointerBits, img_->records),
      shadow_(config.range.base, config.stride, config.capacity),
      resultBase_(config.capacity, 0),
      resultClass_(config.capacity, 0),
      damper_(config.damping)
{
    panicIf(results == nullptr, "SubCell requires a ResultTable");
    panicIf(config.range.base == 0,
            "SubCell cannot serve length 0 (default route)");
    panicIf(config.range.top > config.range.base + config.stride,
            "SubCell range wider than the stride allows");
    img_->base = config.range.base;
    img_->stride = config.stride;
    bucketGroups_.assign(img_->buckets(), 0);
    img_->presence.assign((img_->buckets() + 63) / 64, 0);
}

void
SubCell::bind(CellImage &image, CellSummary *summary)
{
    img_ = &image;
    index_.bind(image.index);
    table_.bind(image.records);
    summary_ = summary;
}

void
SubCell::setLog(WriteLog *log, uint32_t cell)
{
    log_ = log;
    logCell_ = cell;
    index_.setLog(log, cell);
    table_.setLog(log, cell);
}

void
SubCell::logSummary(WriteLog::Table table, uint32_t region)
{
    if (log_ != nullptr)
        log_->add(table, 0, region, 1);
}

void
SubCell::allocateResults(uint32_t slot, uint32_t entries)
{
    // Over-provisioned growth; the old block returns to the allocator
    // (Section 4.3.2).
    freeResults(slot);
    resultBase_[slot] = results_->allocate(entries);
    resultClass_[slot] = static_cast<uint8_t>(
        ceilLog2(ResultTable::grantedSize(entries)) + 1);
}

void
SubCell::freeResults(uint32_t slot)
{
    if (resultClass_[slot] != 0)
        results_->free(resultBase_[slot], resultSize(slot));
    resultBase_[slot] = 0;
    resultClass_[slot] = 0;
}

SubCell::Entries
SubCell::groupsBySlot() const
{
    Entries groups;
    groups.reserve(groups_);
    index_.forEach([&](const Key128 &ckey, uint32_t slot) {
        groups.emplace_back(ckey, slot);
    });
    std::sort(groups.begin(), groups.end(),
              [](const auto &a, const auto &b) {
                  return a.second < b.second;
              });
    return groups;
}

void
SubCell::refreshImage(uint32_t slot)
{
    GroupImage &image = image_;
    shadow_.computeImage(slot, image);
    bool was_dirty = table_.dirty(slot);

    if (image.empty()) {
        // Withdrawn group: clear the vector and mark the entry dirty
        // but retain the Index/Filter entries *and* the result block
        // (Section 4.4.1) — a route flap restores everything with a
        // handful of writes.  The block is reclaimed when the group
        // is purged or dismantled.
        table_.clearVector(slot);
        ++writes_.bitvectorWrites;
        if (!was_dirty) {
            table_.setDirty(slot, true);
            ++writes_.filterWrites;
            ++dirtyCount_;
        }
        return;
    }

    if (was_dirty) {
        table_.setDirty(slot, false);
        ++writes_.filterWrites;
        --dirtyCount_;
    }

    uint32_t needed = static_cast<uint32_t>(image.hops.size());
    bool fresh_block = needed > resultSize(slot);
    if (fresh_block)
        allocateResults(slot, needed);
    const uint32_t result_base = resultBase_[slot];
    // Write only the slots that changed — the shadow copy transfers
    // just the modified words to hardware (Section 4.4).  A slot whose
    // next hop stays but whose covering member changed length gets
    // only its software offset re-stamped: no hardware word moves.
    // A word that fails parity is rewritten whatever it reads: its
    // value cannot be trusted to match, and the rewrite must reach the
    // other image.
    for (uint32_t i = 0; i < needed; ++i) {
        uint32_t addr = result_base + i;
        if (fresh_block || results_->read(addr) != image.hops[i] ||
            !results_->parityOk(addr)) {
            results_->write(addr, image.hops[i], image.lengths[i]);
            ++writes_.resultWrites;
        } else if (results_->lengthOffset(addr) != image.lengths[i]) {
            results_->setLengthOffset(addr, image.lengths[i]);
        }
    }
    table_.setVector(slot, image.bits, result_base);
    ++writes_.bitvectorWrites;
}

void
SubCell::flipPresence(uint64_t bucket)
{
    img_->presence[bucket / 64] ^= uint64_t(1) << (bucket % 64);
    if (log_ != nullptr)
        log_->add(WriteLog::Table::Presence, logCell_, bucket / 64, 1);
}

void
SubCell::noteGroupAdded(const Key128 &ckey)
{
    ++groups_;
    const uint64_t b = CellImage::bucketOf(ckey, bucketGroups_.size());
    if (bucketGroups_[b] < kSaturated && bucketGroups_[b]++ == 0)
        flipPresence(b);
    if (summaryBit_ == 0)
        return;
    if (!regional_) {
        // A group shorter than the region prefix spans many regions:
        // the cell is probed for every key while it holds any group.
        summary_->setAlways(summaryBit_);
        logSummary(WriteLog::Table::SummaryAlways, 0);
        return;
    }
    if (regionGroups_.empty())
        regionGroups_.assign(CellSummary::kRegions, 0);
    uint32_t r = summary_->region(ckey);
    if (regionGroups_[r]++ == 0) {
        summary_->setRegion(r, summaryBit_);
        logSummary(WriteLog::Table::SummaryRegion, r);
    }
}

void
SubCell::noteGroupErased(const Key128 &ckey)
{
    --groups_;
    const uint64_t b = CellImage::bucketOf(ckey, bucketGroups_.size());
    assert(bucketGroups_[b] > 0);
    // A saturated count no longer knows its groups: its bit stays set.
    if (bucketGroups_[b] < kSaturated && --bucketGroups_[b] == 0)
        flipPresence(b);
    if (summaryBit_ == 0)
        return;
    if (!regional_) {
        if (groups_ == 0) {
            summary_->clearAlways(summaryBit_);
            logSummary(WriteLog::Table::SummaryAlways, 0);
        }
        return;
    }
    uint32_t r = summary_->region(ckey);
    if (--regionGroups_[r] == 0) {
        summary_->clearRegion(r, summaryBit_);
        logSummary(WriteLog::Table::SummaryRegion, r);
    }
}

void
SubCell::markGroups(CellSummary &summary) const
{
    if (summaryBit_ == 0)
        return;
    index_.forEach([&](const Key128 &ckey, uint32_t) {
        if (regional_)
            summary.setRegion(summary.region(ckey), summaryBit_);
        else
            summary.setAlways(summaryBit_);
    });
}

void
SubCell::dismantleGroup(const Key128 &ckey, uint32_t slot,
                        std::vector<Route> *displaced)
{
    if (displaced) {
        for (const ShadowMember &m : shadow_.members(slot))
            displaced->push_back(
                Route{shadow_.prefix(ckey, m.position), m.nextHop});
    }
    routes_ -= shadow_.memberCount(slot);
    // The guard against dirtyCount_ == 0 matters during parity
    // recovery: a corrupted dirty bit must not underflow the count.
    if (table_.dirty(slot) && dirtyCount_ > 0)
        --dirtyCount_;
    freeResults(slot);
    shadow_.clear(slot);
    table_.clearVector(slot);
    table_.release(slot);
    index_.erase(ckey);   // No-op if a rebuild already evicted it.
    noteGroupErased(ckey);
}

void
SubCell::noteRemoved(const Prefix &prefix)
{
    // Bounded memory for flap classification; on overflow the window
    // simply restarts (mis-classifying a flap as Add PC is harmless).
    if (recentlyRemoved_.size() >= (1u << 16))
        recentlyRemoved_.clear();
    recentlyRemoved_.insert(prefix);
}

void
SubCell::buildFrom(const std::vector<Route> &routes,
                   std::vector<Route> &displaced)
{
    // Group the routes by collapsed prefix: sorted by key, then by
    // position, each run of one key is one group's member list.  The
    // sort is stable, so of two routes for one prefix the later wins.
    struct Member
    {
        Key128 ckey;
        ShadowMember member;
    };
    std::vector<Member> sorted;
    sorted.reserve(routes.size());
    for (const auto &r : routes) {
        panicIf(!coversLength(r.prefix.length()),
                "SubCell::buildFrom route with uncovered length");
        sorted.push_back(Member{collapsedKey(r.prefix),
                                {shadow_.position(r.prefix), r.nextHop}});
    }
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Member &a, const Member &b) {
                         if (a.ckey != b.ckey)
                             return a.ckey < b.ckey;
                         return a.member.position < b.member.position;
                     });

    Entries groups;
    std::vector<ShadowMember> members;
    for (size_t i = 0, next = 0; i < sorted.size(); i = next) {
        const Key128 ckey = sorted[i].ckey;
        members.clear();
        for (next = i; next < sorted.size() && sorted[next].ckey == ckey;
             ++next) {
            const ShadowMember &m = sorted[next].member;
            if (!members.empty() && members.back().position == m.position)
                members.back() = m;
            else
                members.push_back(m);
        }
        int64_t slot = table_.allocate();
        if (slot < 0) {
            // Capacity exceeded: these members go to the TCAM.
            for (const ShadowMember &m : members)
                displaced.push_back(
                    Route{shadow_.prefix(ckey, m.position), m.nextHop});
            continue;
        }
        const auto s = static_cast<uint32_t>(slot);
        noteGroupAdded(ckey);
        shadow_.assign(s, members);
        routes_ += members.size();
        table_.set(s, ckey);
        groups.emplace_back(ckey, s);
    }
    std::vector<Member>().swap(sorted);

    // One bulk Bloomier setup over all groups, with the bounded
    // reseed-retry ladder; stragglers leave through @p displaced.
    resetupIndex(groups, &displaced);

    for (const auto &[ckey, slot] : groupsBySlot())
        refreshImage(slot);
}

size_t
SubCell::resetupIndex(const Entries &groups, std::vector<Route> *displaced)
{
    auto spilled = index_.setup(groups);
    unsigned attempt = 0;
    while (!spilled.empty() && attempt < config_.setupRetries) {
        // Bounded retry: a fresh hash seed redraws the hypergraph, so
        // a peeling failure is very unlikely to repeat (Section 4.2
        // picks table sizes where setup "almost always" succeeds).
        ++attempt;
        ++faults_.setupRetries;
        index_.reseed(
            mix64(index_.seed() + 0x9e3779b97f4a7c15ULL * attempt));
        spilled = index_.setup(groups);
    }
    for (const auto &[ckey, slot] : spilled)
        dismantleGroup(ckey, slot, displaced);
    return spilled.size();
}

void
SubCell::recoverParity(std::vector<Route> &displaced)
{
    parityPending_ = false;
    ++faults_.parityRecoveries;
    CHISEL_FLIGHT_EVENT(ParityRecovery, 0, faults_.parityRecoveries, 0);

    // Every Index and record word of the cell is rewritten below: name
    // the cell whole once, at the end, instead of word by word.
    index_.setLog(nullptr, 0);
    table_.setLog(nullptr, 0);

    // Recover-by-resetup: every hardware word is re-derived from the
    // shadow copy.  Stage 1 — the Index (slot codes are preserved, so
    // surviving groups keep their Filter/Bit-vector locations).
    resetupIndex(groupsBySlot(), &displaced);
    const Entries groups = groupsBySlot();

    // Stage 2 — the Filter: rewrite owned slots (restoring key, valid,
    // dirty and parity), wipe unowned ones.
    std::vector<uint8_t> owned(config_.capacity, 0);
    dirtyCount_ = 0;
    for (const auto &[ckey, slot] : groups) {
        owned[slot] = 1;
        table_.set(slot, ckey);
        ++writes_.filterWrites;
        if (shadow_.empty(slot)) {
            table_.setDirty(slot, true);
            ++dirtyCount_;
            if (dirtyCount_ > dirtyPeak_)
                dirtyPeak_ = dirtyCount_;
        }
    }
    for (uint32_t s = 0; s < config_.capacity; ++s) {
        if (!owned[s]) {
            table_.resetSlot(s);
            table_.clearVector(s);
        }
    }

    // Stage 3 — Bit-vectors and Result blocks, written without the
    // usual read-compare diff: a corrupted word that happens to equal
    // its correct value would otherwise keep broken parity.
    GroupImage &image = image_;
    for (const auto &[ckey, slot] : groups) {
        shadow_.computeImage(slot, image);
        if (image.empty()) {
            table_.clearVector(slot);
            ++writes_.bitvectorWrites;
            // Scrub the retained result block too; a flap restore
            // rewrites its contents, but parity must hold meanwhile.
            for (uint32_t i = 0; i < resultSize(slot); ++i)
                results_->write(resultBase_[slot] + i, kNoRoute);
            continue;
        }
        uint32_t needed = static_cast<uint32_t>(image.hops.size());
        if (needed > resultSize(slot))
            allocateResults(slot, needed);
        for (uint32_t i = 0; i < needed; ++i) {
            results_->write(resultBase_[slot] + i, image.hops[i],
                            image.lengths[i]);
            ++writes_.resultWrites;
        }
        table_.setVector(slot, image.bits, resultBase_[slot]);
        ++writes_.bitvectorWrites;
    }

    setLog(log_, logCell_);
    if (log_ != nullptr) {
        log_->add(WriteLog::Table::IndexLanes, logCell_, 0, 0);
        log_->add(WriteLog::Table::IndexSlots, logCell_, 0, index_.slots());
        table_.logAll();
    }
}

size_t
SubCell::verifyParity(const CellImage &image) const
{
    size_t bad = 0;
    for (size_t s = 0; s < image.index.slots.size(); ++s) {
        if (!image.index.parityOk(s))
            ++bad;
    }
    for (uint32_t s = 0; s < config_.capacity; ++s) {
        if (!image.records.filterParityOk(s))
            ++bad;
        if (!image.records.vectorParityOk(s))
            ++bad;
    }
    if (bad > 0) {
        faults_.parityDetected += bad;
        parityPending_ = true;
    }
    return bad;
}

void
SubCell::corruptIndexBit(fault::FaultInjector &injector)
{
    if (index_.slots() == 0)
        return;
    index_.flipSlotBit(
        static_cast<size_t>(injector.draw(index_.slots())),
        static_cast<unsigned>(
            injector.draw(std::max(1u, index_.slotWidthBits()))));
}

void
SubCell::corruptFilterBit(fault::FaultInjector &injector)
{
    if (config_.capacity == 0)
        return;
    table_.flipKeyBit(
        static_cast<uint32_t>(injector.draw(config_.capacity)),
        static_cast<unsigned>(injector.draw(Key128::maxBits)));
}

void
SubCell::corruptBitVectorBit(fault::FaultInjector &injector)
{
    if (config_.capacity == 0)
        return;
    table_.flipVectorBit(
        static_cast<uint32_t>(injector.draw(config_.capacity)),
        injector.draw(uint64_t(1) << config_.stride));
}

CellImage::Probe
CellImage::probe(const Key128 &key, const ResultTable::Image &results,
                 CellHit &out) const
{
    // Access 1: Index Table (k segments read in parallel).  Each
    // parity check below rides along with the access it guards — it
    // adds no extra table reads, so traced access counts are
    // unchanged from the fault-free pipeline.
    Key128 ckey = key.masked(base);
    bool parity = true;
    uint32_t code = index.lookupCode(ckey, &parity);
    if (!parity)
        return Probe::Parity;
    if (code >= records.capacity)
        return Probe::Miss;   // Garbage code for an absent key.

    // Access 2: Filter Table — the false-positive check.
    if (!records.filterParityOk(code))
        return Probe::Parity;
    if (!records.matches(code, ckey))
        return Probe::Miss;

    // Access 3: Bit-vector Table (the same record as the Filter entry).
    if (!records.vectorParityOk(code))
        return Probe::Parity;
    uint64_t v = suffix(key);
    if (!records.bit(code, v))
        return Probe::Miss;

    // Access 4: Result Table (off-chip), pointer + popcount offset.
    unsigned offset = records.onesUpTo(code, v);
    uint32_t addr = records.pointer(code) + offset - 1;
    if (!results.parityOk(addr))
        return Probe::Parity;

    out.hit = true;
    out.nextHop = results.read(addr);
    // Reporting only (the hardware result is the next hop itself):
    // the offset stored beside the next hop, no shadow walk.
    out.matchedLength = base + results.lengthOffset(addr);
    return Probe::Hit;
}

SubCell::Hit
SubCell::lookup(const CellImage &image, const ResultTable::Image &results,
                const Key128 &key) const
{
    Hit out;
    switch (image.probe(key, results, out)) {
      case CellImage::Probe::Parity:
        return softLookup(key, key.masked(config_.range.base));
      case CellImage::Probe::Hit:
        assert(out.matchedLength ==
               shadowLength(key.masked(config_.range.base),
                            image.suffix(key)));
        return out;
      case CellImage::Probe::Miss:
        break;
    }
    return out;
}

unsigned
SubCell::shadowLength(const Key128 &ckey, uint64_t slot) const
{
    std::optional<uint32_t> code = index_.findCode(ckey);
    if (!code)
        return 0;
    auto cover = shadow_.longestCover(*code, slot);
    return cover ? shadow_.length(cover->position) : 0;
}

SubCell::Hit
SubCell::softLookup(const Key128 &key, const Key128 &ckey) const
{
    // A parity error was detected on the hardware path: serve the
    // lookup from the shadow copy (correct by construction) and flag
    // the cell so the engine runs recoverParity() before its next
    // update.
    ++faults_.parityDetected;
    parityPending_ = true;

    Hit out;
    std::optional<uint32_t> code = index_.findCode(ckey);
    if (!code)
        return out;
    const unsigned base = config_.range.base;
    unsigned avail = std::min(config_.stride, Key128::maxBits - base);
    uint64_t v = key.extract(base, avail) << (config_.stride - avail);
    auto cover = shadow_.longestCover(*code, v);
    if (!cover.has_value())
        return out;
    out.hit = true;
    out.nextHop = cover->nextHop;
    out.matchedLength = shadow_.length(cover->position);
    return out;
}

UpdateClass
SubCell::announce(const Prefix &prefix, NextHop next_hop,
                  std::vector<Route> &displaced)
{
    panicIf(!coversLength(prefix.length()),
            "SubCell::announce uncovered length");
    Key128 ckey = collapsedKey(prefix);
    damper_.advance();

    if (std::optional<uint32_t> code = index_.findCode(ckey)) {
        const uint32_t slot = *code;
        bool was_dirty = table_.dirty(slot);

        UpdateClass cls;
        if (shadow_.find(slot, prefix)) {
            cls = UpdateClass::NextHopChange;
        } else if (was_dirty || recentlyRemoved_.contains(prefix)) {
            cls = UpdateClass::RouteFlap;
            recentlyRemoved_.erase(prefix);
            // A flap restore is the second half of a flap cycle:
            // charge the group's penalty counter (the withdraw
            // charged the first half).
            damper_.penalize(ckey);
            if (damper_.suppressed(ckey))
                ++health_.suppressedFlaps;
        } else {
            cls = UpdateClass::AddCollapsed;
        }

        if (shadow_.announce(slot, prefix, next_hop))
            ++routes_;
        refreshImage(slot);
        return cls;
    }

    // New collapsed prefix: needs a Filter slot and an Index insert.
    int64_t slot = table_.allocate();
    if (slot < 0) {
        purgeDirty();
        slot = table_.allocate();
    }
    if (slot < 0) {
        displaced.push_back(Route{prefix, next_hop});
        return UpdateClass::Spill;
    }

    const auto s = static_cast<uint32_t>(slot);
    auto result = index_.insert(ckey, s);
    panicIf(result.method == BloomierFilter::InsertMethod::Duplicate,
            "Index Table and shadow groups out of sync");

    // Transactional commit: record the new route in the shadow state
    // *first*, so that whatever the Index setup does below, every
    // route is accounted for — either placed in this cell or handed
    // back through @p displaced.  Nothing is half-applied.
    noteGroupAdded(ckey);
    table_.set(s, ckey);
    ++writes_.filterWrites;
    shadow_.announce(s, prefix, next_hop);
    ++routes_;

    if (result.method == BloomierFilter::InsertMethod::Failed ||
        !result.spilled.empty()) {
        // The insert forced a rebuild that could not place every
        // group: the registry dropped the spilled ones.  Re-run the
        // full setup over every group with the bounded reseed-retry
        // ladder; groups that still fail (possibly the new one) are
        // dismantled into @p displaced.
        Entries groups = groupsBySlot();
        groups.insert(groups.end(), result.spilled.begin(),
                      result.spilled.end());
        resetupIndex(groups, &displaced);
        if (!index_.contains(ckey))
            return UpdateClass::Spill;   // New route is in displaced.
        refreshImage(s);
        return UpdateClass::Resetup;
    }

    refreshImage(s);
    return result.method == BloomierFilter::InsertMethod::Singleton
               ? UpdateClass::SingletonInsert
               : UpdateClass::Resetup;
}

UpdateClass
SubCell::withdraw(const Prefix &prefix)
{
    if (!coversLength(prefix.length()))
        return UpdateClass::NoOp;
    Key128 ckey = collapsedKey(prefix);
    damper_.advance();
    std::optional<uint32_t> code = index_.findCode(ckey);
    if (!code)
        return UpdateClass::NoOp;
    const uint32_t slot = *code;

    auto removed = shadow_.withdraw(slot, prefix);
    if (!removed)
        return UpdateClass::NoOp;

    --routes_;
    noteRemoved(prefix);
    bool emptied = shadow_.empty(slot);
    if (!config_.retainDirtyGroups && emptied) {
        // Ablation mode: no dirty bit — the emptied group leaves the
        // Index Table immediately, so a flap pays a full re-insert.
        dismantleGroup(ckey, slot, nullptr);
        return UpdateClass::Withdraw;
    }
    refreshImage(slot);
    if (emptied) {
        // The group just went dirty: charge its flap penalty and make
        // room if the retention budget is exceeded.
        damper_.penalize(ckey);
        enforceDirtyBudget();
    }
    // Peak is stamped *after* enforcement, so with a budget set it is
    // the guarantee "retention never exceeded the budget between
    // updates", not a transient high-water mark mid-eviction.
    if (dirtyCount_ > dirtyPeak_)
        dirtyPeak_ = dirtyCount_;
    return UpdateClass::Withdraw;
}

void
SubCell::enforceDirtyBudget()
{
    if (config_.dirtyBudget == 0)
        return;
    while (dirtyCount_ > config_.dirtyBudget) {
        // Decay-ordered eviction: the dirty group with the lowest
        // decayed penalty is the least likely to flap back, so its
        // state is the cheapest to sacrifice.  Slot order breaks ties
        // so the choice is deterministic under replay.
        std::optional<std::pair<Key128, uint32_t>> victim;
        double best = 0.0;
        index_.forEach([&](const Key128 &ckey, uint32_t slot) {
            if (!table_.dirty(slot))
                return;
            double p = damper_.penalty(ckey);
            if (!victim || p < best ||
                (p == best && slot < victim->second)) {
                victim.emplace(ckey, slot);
                best = p;
            }
        });
        if (!victim)
            break;   // Dirty bits and count disagree; scrub reconciles.
        dismantleGroup(victim->first, victim->second, nullptr);
        ++health_.dirtyEvictions;
    }
}

std::optional<NextHop>
SubCell::find(const Prefix &prefix) const
{
    if (!coversLength(prefix.length()))
        return std::nullopt;
    std::optional<uint32_t> code = index_.findCode(collapsedKey(prefix));
    if (!code)
        return std::nullopt;
    return shadow_.find(*code, prefix);
}

void
SubCell::exportRoutes(std::vector<Route> &out) const
{
    for (const auto &[ckey, slot] : groupsBySlot()) {
        for (const ShadowMember &m : shadow_.members(slot))
            out.push_back(Route{shadow_.prefix(ckey, m.position), m.nextHop});
    }
}

size_t
SubCell::purgeDirty()
{
    // Slot order, not registry order: dismantling releases Filter
    // slots into the free list, and journal replay
    // (docs/persistence.md) must reproduce that order byte-for-byte on
    // an engine whose registry was filled in a different sequence.
    Entries dirty;
    index_.forEach([&](const Key128 &ckey, uint32_t slot) {
        if (table_.dirty(slot))
            dirty.emplace_back(ckey, slot);
    });
    std::sort(dirty.begin(), dirty.end(),
              [](const auto &a, const auto &b) {
                  return a.second < b.second;
              });
    for (const auto &[ckey, slot] : dirty)
        dismantleGroup(ckey, slot, nullptr);
    return dirty.size();
}

bool
SubCell::selfCheck(const CellImage &cell_image,
                   const ResultTable::Image &results) const
{
    if (!index_.selfCheck(&cell_image.index))
        return false;
    const unsigned base = config_.range.base;
    unsigned avail = std::min(config_.stride, Key128::maxBits - base);

    const Entries groups = groupsBySlot();
    size_t members = 0;
    for (const auto &[ckey, slot] : groups) {
        std::span<const ShadowMember> m = shadow_.members(slot);
        members += m.size();
        for (size_t i = 1; i < m.size(); ++i) {
            if (m[i - 1].position >= m[i].position)
                return false;
        }
        GroupImage image = shadow_.computeImage(slot);
        size_t hop = 0;
        for (uint64_t v = 0; v < (uint64_t(1) << config_.stride); ++v) {
            bool set = (image.bits[v / 64] >> (v % 64)) & 1;
            if (!set)
                continue;
            Key128 key = ckey;
            key.deposit(base, avail, v >> (config_.stride - avail));
            Hit h = lookup(cell_image, results, key);
            if (!h.hit || h.nextHop != image.hops[hop] ||
                h.matchedLength != shadowLength(ckey, v))
                return false;
            ++hop;
        }
    }

    if (groups.size() != groups_ || members != routes_)
        return false;

    if (!regionGroups_.empty()) {
        std::vector<uint32_t> recount(CellSummary::kRegions, 0);
        for (const auto &[ckey, slot] : groups)
            ++recount[summary_->region(ckey)];
        if (recount != regionGroups_)
            return false;
    }

    std::vector<uint32_t> recount(bucketGroups_.size(), 0);
    for (const auto &[ckey, slot] : groups)
        ++recount[CellImage::bucketOf(ckey, recount.size())];
    if (cell_image.buckets() != recount.size() ||
        cell_image.presence.size() != (recount.size() + 63) / 64)
        return false;
    for (size_t b = 0; b < recount.size(); ++b) {
        const uint8_t count = bucketGroups_[b];
        const bool bit = (cell_image.presence[b / 64] >> (b % 64)) & 1;
        if ((count != recount[b] && count != kSaturated) || bit != (count > 0))
            return false;
    }
    return true;
}

void
SubCell::saveState(persist::Encoder &enc) const
{
    index_.saveState(enc);
    table_.saveFilter(enc);
    table_.saveVectors(enc);

    // Canonical (key-sorted) order: a restored cell must re-serialize
    // byte-identically to its source image.  Members are already in
    // Prefix order.
    Entries groups = groupsBySlot();
    std::sort(groups.begin(), groups.end());
    enc.u64(groups.size());
    for (const auto &[ckey, slot] : groups) {
        enc.key(ckey);
        enc.u32(slot);
        enc.u32(resultBase_[slot]);
        enc.u32(resultSize(slot));
        enc.u64(shadow_.memberCount(slot));
        for (const ShadowMember &m : shadow_.members(slot)) {
            enc.prefix(shadow_.prefix(ckey, m.position));
            enc.u32(m.nextHop);
        }
    }

    std::vector<Prefix> removed(recentlyRemoved_.begin(),
                                recentlyRemoved_.end());
    std::sort(removed.begin(), removed.end());
    enc.u64(removed.size());
    for (const Prefix &p : removed)
        enc.prefix(p);

    enc.u64(routes_);
    enc.u64(dirtyCount_);
    enc.u64(writes_.bitvectorWrites);
    enc.u64(writes_.resultWrites);
    enc.u64(writes_.filterWrites);
    enc.u64(faults_.parityDetected);
    enc.u64(faults_.parityRecoveries);
    enc.u64(faults_.setupRetries);
    enc.boolean(parityPending_);

    damper_.saveState(enc);
    enc.u64(dirtyPeak_);
    enc.u64(health_.dirtyEvictions);
    enc.u64(health_.suppressedFlaps);
}

void
SubCell::loadState(persist::Decoder &dec)
{
    index_.loadState(dec);
    table_.loadFilter(dec);
    table_.loadVectors(dec);

    // The arrays by slot are refilled here, each group's members
    // sorted into one block of a fresh pool.
    shadow_ = ShadowGroups(config_.range.base, config_.stride,
                           config_.capacity);
    std::fill(resultBase_.begin(), resultBase_.end(), 0);
    std::fill(resultClass_.begin(), resultClass_.end(), 0);
    groups_ = 0;
    GroupImage &image = image_;
    uint64_t group_count = dec.count(32);
    if (group_count > config_.capacity)
        throw persist::DecodeError("subcell: group count over capacity");
    if (group_count != index_.size())
        throw persist::DecodeError("subcell: groups and Index disagree");
    std::vector<uint8_t> taken(config_.capacity, 0);
    std::vector<ShadowMember> members;
    for (uint64_t i = 0; i < group_count; ++i) {
        Key128 ckey = dec.key();
        uint32_t slot = dec.u32();
        if (slot >= table_.capacity() || !table_.valid(slot))
            throw persist::DecodeError("subcell: group slot invalid");
        if (index_.findCode(ckey) != slot)
            throw persist::DecodeError("subcell: group slot not indexed");
        if (taken[slot]++)
            throw persist::DecodeError("subcell: duplicate group slot");
        noteGroupAdded(ckey);
        uint32_t result_base = dec.u32();
        uint32_t result_size = dec.u32();
        if (result_size != 0 && !isPow2(result_size))
            throw persist::DecodeError("subcell: result block invalid");
        resultBase_[slot] = result_base;
        resultClass_[slot] = static_cast<uint8_t>(
            result_size == 0 ? 0 : ceilLog2(result_size) + 1);
        uint64_t count = dec.count(21);
        members.clear();
        unsigned longest = 0;
        for (uint64_t m = 0; m < count; ++m) {
            Prefix prefix = dec.prefix();
            NextHop hop = dec.u32();
            if (!coversLength(prefix.length()) ||
                collapsedKey(prefix) != ckey)
                throw persist::DecodeError(
                    "subcell: member outside its group");
            members.push_back({shadow_.position(prefix), hop});
            longest = std::max(longest, prefix.length());
        }
        std::sort(members.begin(), members.end(),
                  [](const ShadowMember &a, const ShadowMember &b) {
                      return a.position < b.position;
                  });
        for (size_t m = 1; m < members.size(); ++m) {
            if (members[m - 1].position == members[m].position)
                throw persist::DecodeError("subcell: duplicate member");
        }
        shadow_.assign(slot, members);

        // Matched-length offsets are not snapshot bytes: re-derive
        // them from the shadow, exactly as refreshImage() wrote them.
        // ResultTable::loadState left every offset 0, which is already
        // right for a group whose members all sit at the base.
        if (longest <= config_.range.base)
            continue;
        shadow_.computeImage(slot, image);
        if (image.lengths.size() > result_size ||
            uint64_t(result_base) + result_size > results_->highWater())
            throw persist::DecodeError("subcell: result block invalid");
        for (uint32_t i = 0; i < image.lengths.size(); ++i)
            results_->setLengthOffset(result_base + i, image.lengths[i]);
    }

    recentlyRemoved_.clear();
    uint64_t removed = dec.count(17);
    for (uint64_t i = 0; i < removed; ++i) {
        Prefix p = dec.prefix();
        if (!coversLength(p.length()))
            throw persist::DecodeError(
                "subcell: flap-history prefix outside cell");
        recentlyRemoved_.insert(p);
    }

    routes_ = dec.u64();
    dirtyCount_ = dec.u64();
    writes_.bitvectorWrites = dec.u64();
    writes_.resultWrites = dec.u64();
    writes_.filterWrites = dec.u64();
    faults_.parityDetected = dec.u64();
    faults_.parityRecoveries = dec.u64();
    faults_.setupRetries = dec.u64();
    parityPending_ = dec.boolean();

    damper_.loadState(dec);
    dirtyPeak_ = dec.u64();
    health_.dirtyEvictions = dec.u64();
    health_.suppressedFlaps = dec.u64();
    if (dirtyPeak_ < dirtyCount_)
        throw persist::DecodeError("subcell: dirty peak below count");

    // Cross-check the derived counters against the reloaded groups:
    // a corrupted-but-CRC-passing image must not leave the cell
    // internally inconsistent.
    size_t live_routes = 0;
    size_t dirty = 0;
    index_.forEach([&](const Key128 &, uint32_t slot) {
        live_routes += shadow_.memberCount(slot);
        if (table_.dirty(slot))
            ++dirty;
    });
    if (routes_ != live_routes || dirtyCount_ != dirty)
        throw persist::DecodeError("subcell: counter cross-check failed");
}

} // namespace chisel
