#include "shard/sharded.hh"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/clock.hh"
#include "common/logging.hh"
#include "core/resize.hh"
#include "hash/mix.hh"
#include "persist/journal.hh"
#include "telemetry/metrics.hh"

namespace chisel::shard {

namespace {

/** Rank outcomes so a broadcast reports its worst shard. */
int
outcomeRank(const UpdateOutcome &o)
{
    if (o.status == UpdateStatus::Rejected)
        return 2;
    if (o.degraded())
        return 1;
    return 0;
}

} // anonymous namespace

uint64_t
shardJournalFingerprint(const ChiselConfig &config, size_t shard,
                        size_t shard_count, unsigned partition_bits,
                        uint64_t hash_seed)
{
    // The elastic kernel survives live resizes (core/resize.hh), so a
    // shard journal stays valid across them; the mixed-in identity
    // refuses replay into any other slice or geometry.
    // Each identity field is one splitmix64 step: the golden-ratio
    // increment, then the full-avalanche finaliser.
    auto field = [](uint64_t x) {
        return mix64(x + 0x9E3779B97F4A7C15ULL);
    };
    uint64_t fp = elasticFingerprint(config);
    fp ^= field(0x53484152Du ^ static_cast<uint64_t>(shard));
    fp ^= field(static_cast<uint64_t>(shard_count) << 32 |
                partition_bits);
    fp ^= field(hash_seed);
    // Never collide with the reserved "accept anything" value.
    return fp ? fp : 1;
}

ShardedChisel::ShardedChisel(const RoutingTable &initial,
                             const ShardedOptions &options)
    : options_(options),
      selector_(options.shards, options.partitionBits, options.hashSeed)
{
    if (options_.shards == 0)
        fatalError("ShardedChisel: shard count must be >= 1");

    if (!options_.persistDir.empty()) {
        std::filesystem::create_directories(options_.persistDir);
        pinGeometry();
    }

    // Slice the seed table into one route vector per shard: every
    // prefix to its owning shard, broadcast prefixes to all of them.
    // The table's prefixes are distinct, so each slice's are too.
    std::vector<std::vector<Route>> slices(options_.shards);
    for (const Route &r : initial.routes()) {
        size_t s = selector_.shardOf(r.prefix);
        if (s == kBroadcast) {
            for (std::vector<Route> &slice : slices)
                slice.push_back(r);
        } else {
            slices[s].push_back(r);
        }
    }

    shards_.reserve(options_.shards);
    for (size_t i = 0; i < options_.shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
    recovery_.resize(options_.persistDir.empty() ? 0 : options_.shards);

    for (size_t i = 0; i < options_.shards; ++i)
        buildShard(i, slices[i]);
}

ShardedChisel::~ShardedChisel() = default;

void
ShardedChisel::pinGeometry() const
{
    namespace fs = std::filesystem;
    std::string path = options_.persistDir + "/shards.meta";

    char want[160];
    std::snprintf(want, sizeof(want),
                  "chisel-shards v1\nshards %zu\nbits %u\nseed %" PRIu64
                  "\n",
                  options_.shards, options_.partitionBits,
                  options_.hashSeed);

    if (fs::exists(path)) {
        std::ifstream in(path);
        std::string have((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        if (have != want)
            fatalError("ShardedChisel: " + path +
                       " pins a different partition geometry; refusing "
                       "to reshard existing journals");
        return;
    }

    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        out << want;
        if (!out)
            fatalError("ShardedChisel: cannot write " + tmp);
    }
    fs::rename(tmp, path);
}

void
ShardedChisel::buildShard(size_t i, const std::vector<Route> &slice)
{
    Shard &sh = *shards_[i];
    concurrent::ConcurrentOptions copts = options_.engine;
    if (i < options_.faultInjectors.size() && options_.faultInjectors[i])
        copts.faultInjector = options_.faultInjectors[i];

    if (options_.persistDir.empty()) {
        sh.engine = std::make_unique<concurrent::ConcurrentChisel>(
            std::make_unique<ChiselEngine>(slice, options_.config), copts);
        return;
    }

    std::string dir = shardDir(i);
    std::filesystem::create_directories(dir);
    std::string journalPath = dir + "/journal.log";
    copts.recoverySnapshotPath = dir + "/snapshot.chs";

    uint64_t fp = shardJournalFingerprint(
        options_.config, i, options_.shards, options_.partitionBits,
        options_.hashSeed);

    // Warm restart: run the recovery ladder against this shard's
    // lane and serve the recovered engine itself — its twin image is
    // a copy, so no Bloomier setup runs beyond the ladder's own.  The
    // engine takes the journal over and checkpoints once, so the
    // shard snapshot covers the replayed tail — unless the primary
    // snapshot, marked as the journal's last checkpoint, already is
    // that state (nothing replayed): then re-saving it would write the
    // same bytes again.
    persist::RecoveryOptions ro;
    ro.journalPath = journalPath;
    ro.snapshotPath = copts.recoverySnapshotPath;
    ro.config = options_.config;
    for (const Route &r : slice)
        ro.initialTable.add(r.prefix, r.nextHop);
    ro.audit = options_.audit;
    ro.expectFingerprint = fp;
    persist::RecoveryReport report = persist::recoverEngine(ro);

    sh.engine = std::make_unique<concurrent::ConcurrentChisel>(
        std::move(report.engine), copts,
        std::make_unique<persist::UpdateJournal>(journalPath, fp,
                                                 options_.fsyncEvery));
    bool current = report.source == persist::RecoverySource::Snapshot &&
                   report.recordsReplayed == 0 && report.snapshotMarked;
    if (!current)
        sh.engine->checkpoint();

    ShardRecovery &rec = recovery_[i];
    rec.source = report.source;
    rec.fallbacks = report.fallbacks;
    rec.recordsReplayed = report.recordsReplayed;
    rec.lastSeq = report.lastSeq;
    rec.auditRan = report.auditRan;
    rec.auditPassed = report.auditPassed;
    rec.auditMissing = report.auditMissing;
    rec.auditMismatched = report.auditMismatched;
    rec.auditPhantom = report.auditPhantom;
    rec.routes = sh.engine->routeCount();
}

std::string
ShardedChisel::shardDir(size_t i) const
{
    if (options_.persistDir.empty())
        return {};
    return options_.persistDir + "/shard-" + std::to_string(i);
}

// ---- Read side -------------------------------------------------------------

LookupResult
ShardedChisel::lookup(const Key128 &key) const
{
    return shards_[selector_.shardOf(key)]->engine->lookup(key);
}

// ---- Write side ------------------------------------------------------------

ShardedChisel::ShardSeq
ShardedChisel::applyToShard(size_t i, const Update &update,
                            UpdateOutcome &outcome)
{
    ShardSeq part{i, 0};
    UpdateOutcome out = shards_[i]->engine->apply(update, &part.seq);
    if (outcomeRank(out) >= outcomeRank(outcome))
        outcome = out;
    return part;
}

ShardedChisel::ApplyResult
ShardedChisel::apply(const Update &update)
{
    ApplyResult r;
    r.shard = selector_.shardOf(update.prefix);
    if (r.shard == kBroadcast) {
        for (size_t i = 0; i < shards_.size(); ++i)
            r.parts.push_back(applyToShard(i, update, r.outcome));
    } else {
        r.parts.push_back(applyToShard(r.shard, update, r.outcome));
    }
    for (const ShardSeq &p : r.parts)
        if (p.seq > r.seq)
            r.seq = p.seq;
    return r;
}

UpdateOutcome
ShardedChisel::announce(const Prefix &prefix, NextHop next_hop,
                        uint32_t ttl_ms)
{
    Update u;
    u.kind = UpdateKind::Announce;
    u.prefix = prefix;
    u.nextHop = next_hop;
    u.ttlMs = ttl_ms;
    return apply(u).outcome;
}

UpdateOutcome
ShardedChisel::withdraw(const Prefix &prefix)
{
    Update u;
    u.kind = UpdateKind::Withdraw;
    u.prefix = prefix;
    return apply(u).outcome;
}

// ---- Per-shard access ------------------------------------------------------

concurrent::ConcurrentChisel &
ShardedChisel::shardEngine(size_t i)
{
    return *shards_[i]->engine;
}

const concurrent::ConcurrentChisel &
ShardedChisel::shardEngine(size_t i) const
{
    return *shards_[i]->engine;
}

bool
ShardedChisel::ensureDurable(size_t i, uint64_t seq)
{
    return shards_[i]->engine->ensureDurable(seq);
}

uint64_t
ShardedChisel::lastDurableSeq(size_t i) const
{
    return shards_[i]->engine->lastDurableSeq();
}

// ---- Health and containment ------------------------------------------------

health::HealthState
ShardedChisel::shardHealth(size_t i) const
{
    const Shard &sh = *shards_[i];
    uint8_t induced = sh.inducedState.load(std::memory_order_acquire);
    if (induced !=
        static_cast<uint8_t>(health::HealthState::kCount)) {
        uint64_t until = sh.inducedUntilNs.load(std::memory_order_acquire);
        if (until == 0 || monotonicNowNs() < until)
            return static_cast<health::HealthState>(induced);
    }
    return sh.engine->healthState();
}

void
ShardedChisel::induceHealth(size_t i, health::HealthState state,
                            uint64_t ms)
{
    Shard &sh = *shards_[i];
    if (state == health::HealthState::Healthy) {
        sh.inducedState.store(
            static_cast<uint8_t>(health::HealthState::kCount),
            std::memory_order_release);
        return;
    }
    if (state == health::HealthState::Quarantined)
        sh.forcedQuarantines.fetch_add(1, std::memory_order_relaxed);
    sh.inducedUntilNs.store(ms == 0 ? 0
                                    : monotonicNowNs() + ms * 1'000'000ULL,
                            std::memory_order_release);
    sh.inducedState.store(static_cast<uint8_t>(state),
                          std::memory_order_release);
}

bool
ShardedChisel::shardServing(size_t i) const
{
    return health::servesReads(shardHealth(i));
}

bool
ShardedChisel::shardWritable(size_t i) const
{
    return health::acceptsWrites(shardHealth(i));
}

size_t
ShardedChisel::sickShards() const
{
    size_t n = 0;
    for (size_t i = 0; i < shards_.size(); ++i)
        if (!shardServing(i))
            ++n;
    return n;
}

bool
ShardedChisel::majoritySick() const
{
    return sickShards() * 2 > shards_.size();
}

health::HealthState
ShardedChisel::aggregateHealth() const
{
    size_t sick = 0;
    size_t quarantined = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
        health::HealthState s = shardHealth(i);
        if (!health::servesReads(s))
            ++sick;
        if (s == health::HealthState::Quarantined)
            ++quarantined;
    }
    if (sick * 2 <= shards_.size())
        return health::HealthState::Healthy;
    return quarantined * 2 > shards_.size()
               ? health::HealthState::Quarantined
               : health::HealthState::Degraded;
}

uint64_t
ShardedChisel::quarantineEntries(size_t i) const
{
    const Shard &sh = *shards_[i];
    return sh.engine->monitor().entered(
               health::HealthState::Quarantined) +
           sh.forcedQuarantines.load(std::memory_order_relaxed);
}

ShardStatus
ShardedChisel::status(size_t i) const
{
    const Shard &sh = *shards_[i];
    ShardStatus st;
    st.state = shardHealth(i);
    st.induced = sh.inducedState.load(std::memory_order_acquire) !=
                 static_cast<uint8_t>(health::HealthState::kCount);
    st.serving = health::servesReads(st.state);
    st.generation = sh.engine->generation();
    st.routes = sh.engine->routeCount();
    st.updatesApplied = sh.engine->updatesApplied();
    st.quarantineEntries = quarantineEntries(i);
    st.lastSeq = sh.engine->journalSeq();
    return st;
}

// ---- Persistence -----------------------------------------------------------

size_t
ShardedChisel::saveSnapshots()
{
    size_t saved = 0;
    for (auto &sh : shards_)
        if (sh->engine->checkpoint() > 0)
            ++saved;
    return saved;
}

// ---- Aggregates and test hooks ---------------------------------------------

size_t
ShardedChisel::routeCount() const
{
    size_t n = 0;
    for (const auto &sh : shards_)
        n += sh->engine->routeCount();
    return n;
}

uint64_t
ShardedChisel::updatesApplied() const
{
    uint64_t n = 0;
    for (const auto &sh : shards_)
        n += sh->engine->updatesApplied();
    return n;
}

uint64_t
ShardedChisel::generation() const
{
    uint64_t n = 0;
    for (const auto &sh : shards_)
        n += sh->engine->generation();
    return n;
}

void
ShardedChisel::healthTickAll()
{
    for (auto &sh : shards_)
        sh->engine->healthTick();
}

bool
ShardedChisel::selfCheck() const
{
    for (const auto &sh : shards_)
        if (!sh->engine->selfCheck())
            return false;
    return true;
}

void
ShardedChisel::publish(telemetry::MetricRegistry &registry,
                       const std::string &prefix) const
{
    registry.gauge(prefix + ".count")
        .set(static_cast<double>(shards_.size()));
    registry.gauge(prefix + ".sick")
        .set(static_cast<double>(sickShards()));
    registry.gauge(prefix + ".majority_sick").set(majoritySick() ? 1 : 0);
    registry.gauge(prefix + ".routes_total")
        .set(static_cast<double>(routeCount()));

    for (size_t i = 0; i < shards_.size(); ++i) {
        ShardStatus st = status(i);
        std::string label = "{shard=\"" + std::to_string(i) + "\"}";
        registry.gauge(prefix + ".routes" + label)
            .set(static_cast<double>(st.routes));
        registry.gauge(prefix + ".state" + label)
            .set(static_cast<double>(
                static_cast<unsigned>(st.state)));
        registry.gauge(prefix + ".serving" + label)
            .set(st.serving ? 1 : 0);
        registry.gauge(prefix + ".updates_applied" + label)
            .set(static_cast<double>(st.updatesApplied));
        registry.gauge(prefix + ".quarantine_entries" + label)
            .set(static_cast<double>(st.quarantineEntries));
        registry.gauge(prefix + ".generation" + label)
            .set(static_cast<double>(st.generation));
    }
}

} // namespace chisel::shard
