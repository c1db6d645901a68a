/**
 * @file
 * Property-based suites cross-checking core components against
 * independent reference models: Key128 vs std::bitset,
 * build-vs-announce engine equivalence, and
 * Bloomier behaviour under heavy interleaved churn.
 */

#include <gtest/gtest.h>

#include <bitset>

#include "bloom/bloomier.hh"
#include "common/random.hh"
#include "core/engine.hh"
#include "route/synth.hh"
#include "trie/binary_trie.hh"

namespace chisel {
namespace {

// ---- Key128 vs std::bitset reference --------------------------------------

/** Reference: Key128 as a bitset with MSB-first addressing. */
struct BitsetKey
{
    std::bitset<128> bits;   // bits[0] = MSB.

    static BitsetKey
    from(const Key128 &k)
    {
        BitsetKey out;
        for (unsigned i = 0; i < 128; ++i)
            out.bits[i] = k.bit(i);
        return out;
    }

    uint64_t
    extract(unsigned pos, unsigned count) const
    {
        uint64_t v = 0;
        for (unsigned i = 0; i < count; ++i)
            v = (v << 1) | (bits[pos + i] ? 1 : 0);
        return v;
    }

    void
    deposit(unsigned pos, unsigned count, uint64_t value)
    {
        for (unsigned i = 0; i < count; ++i)
            bits[pos + i] = (value >> (count - 1 - i)) & 1;
    }

    BitsetKey
    masked(unsigned len) const
    {
        BitsetKey out = *this;
        for (unsigned i = len; i < 128; ++i)
            out.bits[i] = false;
        return out;
    }

    bool
    equals(const Key128 &k) const
    {
        for (unsigned i = 0; i < 128; ++i) {
            if (bits[i] != k.bit(i))
                return false;
        }
        return true;
    }
};

class Key128Reference : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(Key128Reference, OperationsMatchBitsetModel)
{
    Rng rng(GetParam());
    Key128 k(rng.next64(), rng.next64());
    BitsetKey ref = BitsetKey::from(k);

    for (int step = 0; step < 500; ++step) {
        switch (rng.nextBelow(4)) {
          case 0: {
            unsigned count = static_cast<unsigned>(rng.nextRange(0, 64));
            unsigned pos = static_cast<unsigned>(
                rng.nextBelow(129 - count));
            ASSERT_EQ(k.extract(pos, count), ref.extract(pos, count))
                << "extract(" << pos << "," << count << ")";
            break;
          }
          case 1: {
            unsigned count = static_cast<unsigned>(rng.nextRange(1, 64));
            unsigned pos = static_cast<unsigned>(
                rng.nextBelow(129 - count));
            uint64_t value = rng.next64() &
                             (count == 64 ? ~0ULL
                                          : ((1ULL << count) - 1));
            k.deposit(pos, count, value);
            ref.deposit(pos, count, value);
            ASSERT_TRUE(ref.equals(k));
            break;
          }
          case 2: {
            unsigned len = static_cast<unsigned>(rng.nextBelow(129));
            Key128 m = k.masked(len);
            ASSERT_TRUE(ref.masked(len).equals(m));
            break;
          }
          default: {
            unsigned pos = static_cast<unsigned>(rng.nextBelow(128));
            bool v = rng.nextBool(0.5);
            k.setBit(pos, v);
            ref.bits[pos] = v;
            ASSERT_TRUE(ref.equals(k));
            break;
          }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Key128Reference,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---- Build vs announce equivalence ------------------------------------------

TEST(EngineProperty2, BulkBuildEqualsIncrementalBuild)
{
    RoutingTable table = generateScaledTable(4000, 32, 501);

    ChiselConfig cfg;
    cfg.seed = 777;
    ChiselEngine bulk(table, cfg);

    // Same config, empty start, all routes announced.  Cell capacity
    // differs (sized from an empty table), so give the incremental
    // engine room.
    ChiselConfig cfg2 = cfg;
    cfg2.minCellCapacity = 16384;
    RoutingTable empty;
    ChiselEngine inc(empty, cfg2);
    for (const auto &r : table.routes())
        inc.announce(r.prefix, r.nextHop);

    EXPECT_EQ(bulk.routeCount(), inc.routeCount());
    auto keys = generateLookupKeys(table, 5000, 32, 0.7, 502);
    for (const auto &key : keys) {
        auto a = bulk.lookup(key);
        auto b = inc.lookup(key);
        ASSERT_EQ(a.found, b.found);
        if (a.found) {
            ASSERT_EQ(a.nextHop, b.nextHop);
            ASSERT_EQ(a.matchedLength, b.matchedLength);
        }
    }
}

TEST(EngineProperty2, WithdrawEverythingLeavesEmptyEngine)
{
    RoutingTable table = generateScaledTable(2000, 32, 503);
    ChiselEngine engine(table);
    for (const auto &r : table.routes())
        EXPECT_EQ(engine.withdraw(r.prefix), UpdateClass::Withdraw);
    EXPECT_EQ(engine.routeCount(), 0u);

    auto keys = generateLookupKeys(table, 2000, 32, 0.9, 504);
    for (const auto &key : keys)
        EXPECT_FALSE(engine.lookup(key).found);

    // Purge and re-add half; still consistent.
    engine.purgeDirty();
    RoutingTable truth;
    auto routes = table.routes();
    for (size_t i = 0; i < routes.size(); i += 2) {
        engine.announce(routes[i].prefix, routes[i].nextHop);
        truth.add(routes[i].prefix, routes[i].nextHop);
    }
    BinaryTrie oracle(truth);
    for (const auto &key : keys) {
        auto a = oracle.lookup(key, 32);
        auto b = engine.lookup(key);
        ASSERT_EQ(a.has_value(), b.found);
        if (a)
            ASSERT_EQ(a->nextHop, b.nextHop);
    }
}

// ---- Bloomier churn ----------------------------------------------------------

TEST(BloomierProperty2, HeavyChurnPreservesDecodability)
{
    BloomierConfig cfg;
    cfg.keyLen = 64;
    cfg.partitions = 4;
    BloomierFilter f(2048, cfg);
    Rng rng(505);

    std::unordered_map<Key128, uint32_t, Key128Hasher> live;
    uint32_t next_code = 0;

    for (int step = 0; step < 20000; ++step) {
        if (live.size() < 1024 || rng.nextBool(0.45)) {
            Key128 k = Key128(rng.next64(), rng.next64()).masked(64);
            if (live.contains(k))
                continue;
            auto r = f.insert(k, next_code);
            if (r.method == BloomierFilter::InsertMethod::Failed)
                continue;
            // A rebuild may evict other keys; mirror that.
            for (const auto &[sk, sc] : r.spilled)
                live.erase(sk);
            if (r.method != BloomierFilter::InsertMethod::Failed)
                live[k] = next_code;
            ++next_code;
        } else {
            // Remove a random live key.
            auto it = live.begin();
            std::advance(it, rng.nextBelow(live.size()));
            EXPECT_TRUE(f.erase(it->first));
            live.erase(it);
        }

        if (step % 2000 == 1999) {
            ASSERT_EQ(f.size(), live.size());
            for (const auto &[k, c] : live)
                ASSERT_EQ(f.lookupCode(k), c);
        }
    }
    EXPECT_TRUE(f.selfCheck());
}

TEST(BloomierProperty2, PartitionLoadIsBalanced)
{
    BloomierConfig cfg;
    cfg.keyLen = 64;
    cfg.partitions = 16;
    BloomierFilter f(16384, cfg);
    Rng rng(506);
    std::vector<std::pair<Key128, uint32_t>> entries;
    for (uint32_t i = 0; i < 8192; ++i)
        entries.emplace_back(Key128(rng.next64(), rng.next64()), i);
    EXPECT_TRUE(f.setup(entries).empty());

    // The checksum spreads keys evenly: no partition should deviate
    // wildly from n/d (binomial concentration).
    // (We can't see per-partition counts directly; use selfCheck as
    // the correctness proxy and insert a second wave to confirm the
    // structure still behaves at depth.)
    for (uint32_t i = 0; i < 4096; ++i) {
        Key128 k = Key128(rng.next64(), rng.next64()).masked(64);
        if (!f.contains(k))
            f.insert(k, 100000 + i);
    }
    EXPECT_TRUE(f.selfCheck());
}

} // anonymous namespace
} // namespace chisel
