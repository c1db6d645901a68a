/**
 * @file
 * Unit and property tests for the Bloomier filter — collision-free
 * setup, incremental singleton insertion, erasure, partitioning and
 * spill behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bloom/bloomier.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "persist/codec.hh"

namespace chisel {
namespace {

std::vector<std::pair<Key128, uint32_t>>
randomEntries(size_t n, unsigned key_len, uint64_t seed)
{
    Rng rng(seed);
    std::unordered_map<Key128, uint32_t, Key128Hasher> uniq;
    while (uniq.size() < n) {
        Key128 k(rng.next64(), rng.next64());
        k = k.masked(key_len);
        uniq.emplace(k, static_cast<uint32_t>(uniq.size()));
    }
    return {uniq.begin(), uniq.end()};
}

TEST(Bloomier, SetupAndLookupSmall)
{
    BloomierConfig cfg;
    cfg.keyLen = 32;
    BloomierFilter f(64, cfg);
    auto entries = randomEntries(50, 32, 1);
    auto spilled = f.setup(entries);
    EXPECT_TRUE(spilled.empty());
    EXPECT_EQ(f.size(), 50u);
    for (const auto &[k, code] : entries)
        EXPECT_EQ(f.lookupCode(k), code);
    EXPECT_TRUE(f.selfCheck());
}

TEST(Bloomier, SetupFullCapacity)
{
    BloomierConfig cfg;
    cfg.keyLen = 64;
    BloomierFilter f(4096, cfg);
    auto entries = randomEntries(4096, 64, 2);
    auto spilled = f.setup(entries);
    // At m/n = 3, k = 3 the failure probability is astronomically
    // small; a spill here means the peeling is broken.
    EXPECT_TRUE(spilled.empty());
    for (const auto &[k, code] : entries)
        EXPECT_EQ(f.lookupCode(k), code);
}

TEST(Bloomier, EmptySetup)
{
    BloomierConfig cfg;
    BloomierFilter f(16, cfg);
    auto spilled = f.setup({});
    EXPECT_TRUE(spilled.empty());
    EXPECT_EQ(f.size(), 0u);
}

TEST(Bloomier, IncrementalInsertMostlySingleton)
{
    BloomierConfig cfg;
    cfg.keyLen = 64;
    BloomierFilter f(2048, cfg);
    auto entries = randomEntries(1500, 64, 3);

    size_t singletons = 0;
    for (const auto &[k, code] : entries) {
        auto r = f.insert(k, code);
        ASSERT_NE(r.method, BloomierFilter::InsertMethod::Failed);
        ASSERT_NE(r.method, BloomierFilter::InsertMethod::Duplicate);
        if (r.method == BloomierFilter::InsertMethod::Singleton)
            ++singletons;
    }
    // The paper observes singleton insertion is "extremely common";
    // at 73% load nearly every insert should find a singleton.
    EXPECT_GT(singletons, entries.size() * 9 / 10);
    for (const auto &[k, code] : entries)
        EXPECT_EQ(f.lookupCode(k), code);
    EXPECT_TRUE(f.selfCheck());
}

TEST(Bloomier, DuplicateInsertDetected)
{
    BloomierConfig cfg;
    BloomierFilter f(16, cfg);
    Key128 k = Key128::fromIpv4(0x0A000000);
    EXPECT_NE(f.insert(k, 1).method,
              BloomierFilter::InsertMethod::Duplicate);
    EXPECT_EQ(f.insert(k, 2).method,
              BloomierFilter::InsertMethod::Duplicate);
    EXPECT_EQ(f.lookupCode(k), 1u);
}

TEST(Bloomier, EraseThenReinsert)
{
    BloomierConfig cfg;
    cfg.keyLen = 64;
    BloomierFilter f(512, cfg);
    auto entries = randomEntries(400, 64, 4);
    EXPECT_TRUE(f.setup(entries).empty());

    // Remove half, verify the rest still decode correctly.
    for (size_t i = 0; i < entries.size(); i += 2)
        EXPECT_TRUE(f.erase(entries[i].first));
    EXPECT_EQ(f.size(), entries.size() / 2);
    for (size_t i = 1; i < entries.size(); i += 2)
        EXPECT_EQ(f.lookupCode(entries[i].first), entries[i].second);

    // Re-insert the removed half with new codes.
    for (size_t i = 0; i < entries.size(); i += 2) {
        auto r = f.insert(entries[i].first, entries[i].second + 1000);
        ASSERT_NE(r.method, BloomierFilter::InsertMethod::Failed);
    }
    for (size_t i = 0; i < entries.size(); ++i) {
        uint32_t want = entries[i].second + (i % 2 == 0 ? 1000 : 0);
        EXPECT_EQ(f.lookupCode(entries[i].first), want);
    }
    EXPECT_TRUE(f.selfCheck());
}

TEST(Bloomier, EraseMissingReturnsFalse)
{
    BloomierConfig cfg;
    BloomierFilter f(16, cfg);
    EXPECT_FALSE(f.erase(Key128::fromIpv4(1)));
}

TEST(Bloomier, PartitionedSetupAndInsert)
{
    BloomierConfig cfg;
    cfg.keyLen = 64;
    cfg.partitions = 8;
    BloomierFilter f(4096, cfg);
    EXPECT_EQ(f.partitions(), 8u);
    auto entries = randomEntries(3000, 64, 5);
    EXPECT_TRUE(f.setup(entries).empty());
    for (const auto &[k, code] : entries)
        EXPECT_EQ(f.lookupCode(k), code);

    auto extra = randomEntries(500, 64, 6);
    for (const auto &[k, code] : extra) {
        if (f.contains(k))
            continue;
        auto r = f.insert(k, code + 50000);
        ASSERT_NE(r.method, BloomierFilter::InsertMethod::Failed);
    }
    EXPECT_TRUE(f.selfCheck());
}

TEST(Bloomier, OverloadSpills)
{
    // Grossly exceed m/k capacity: the filter must spill rather than
    // loop or crash, and survivors must still decode.
    BloomierConfig cfg;
    cfg.keyLen = 64;
    cfg.ratio = 3.0;
    BloomierFilter f(32, cfg);   // m = 96 slots, 32 per segment.
    auto entries = randomEntries(80, 64, 7);
    auto spilled = f.setup(entries);
    EXPECT_FALSE(spilled.empty());
    EXPECT_EQ(f.size() + spilled.size(), entries.size());
    EXPECT_TRUE(f.selfCheck());
}

TEST(Bloomier, HasSingletonSlotConsistent)
{
    BloomierConfig cfg;
    cfg.keyLen = 64;
    BloomierFilter f(256, cfg);
    auto entries = randomEntries(128, 64, 8);
    for (const auto &[k, code] : entries) {
        bool predicted = f.hasSingletonSlot(k);
        auto r = f.insert(k, code);
        if (predicted) {
            EXPECT_EQ(r.method,
                      BloomierFilter::InsertMethod::Singleton);
        } else {
            EXPECT_NE(r.method,
                      BloomierFilter::InsertMethod::Singleton);
        }
    }
}

TEST(Bloomier, FindCodeTracksRegistry)
{
    BloomierConfig cfg;
    BloomierFilter f(64, cfg);
    Key128 k = Key128::fromIpv4(0x01020304);
    EXPECT_FALSE(f.findCode(k).has_value());
    f.insert(k, 9);
    ASSERT_TRUE(f.findCode(k).has_value());
    EXPECT_EQ(*f.findCode(k), 9u);
    f.erase(k);
    EXPECT_FALSE(f.findCode(k).has_value());
}

TEST(Bloomier, StorageBitsMatchGeometry)
{
    BloomierConfig cfg;
    cfg.ratio = 3.0;
    cfg.k = 3;
    BloomierFilter f(1024, cfg);
    EXPECT_GE(f.slots(), 3 * 1024u);
    EXPECT_EQ(f.slotWidthBits(), 10u);   // addressBits(1024).
    EXPECT_EQ(f.storageBits(), f.slots() * 10u);
}

TEST(Bloomier, SlotPlacementIsPinned)
{
    // The Index Table image (slot contents, registry and counters)
    // after a setup, singleton and rebuild inserts and erases must
    // never change for a given seed: snapshots store the raw slots,
    // so a different placement would make them unreadable.  The
    // checksums were taken from the bit-serial H3 evaluation; the
    // cases cover k = 2..5, nibble-aligned and ragged key lengths and
    // power-of-two and odd partition counts.
    struct Pinned
    {
        unsigned k;
        unsigned keyLen;
        unsigned partitions;
        size_t n;
        uint32_t crc;
    };
    const Pinned cases[] = {
        {3, 32, 1, 400, 0x3659e222u},
        {3, 64, 16, 400, 0xc7c7e718u},
        {4, 128, 8, 400, 0xb23004b1u},
        {5, 21, 3, 400, 0xb9134143u},
        {2, 7, 2, 100, 0xc867eaf1u},
    };
    for (const Pinned &c : cases) {
        BloomierConfig cfg;
        cfg.k = c.k;
        cfg.keyLen = c.keyLen;
        cfg.partitions = c.partitions;
        cfg.seed = 0xB100 + c.k;
        BloomierFilter f(400, cfg);

        // Distinct keys in draw order (the order fixes the codes).
        Rng rng(c.keyLen);
        std::vector<std::pair<Key128, uint32_t>> keys;
        std::unordered_set<Key128, Key128Hasher> seen;
        while (keys.size() < c.n) {
            Key128 key =
                Key128(rng.next64(), rng.next64()).masked(c.keyLen);
            if (seen.insert(key).second)
                keys.emplace_back(key, static_cast<uint32_t>(keys.size()));
        }
        size_t half = keys.size() / 2;
        f.setup({keys.begin(), keys.begin() + half});
        for (size_t i = half; i < keys.size(); ++i)
            f.insert(keys[i].first, keys[i].second);
        for (size_t i = 0; i < keys.size(); i += 7)
            f.erase(keys[i].first);
        EXPECT_TRUE(f.selfCheck());

        persist::Encoder enc;
        f.saveState(enc);
        EXPECT_EQ(persist::crc32(enc.buffer().data(), enc.buffer().size()),
                  c.crc)
            << "k " << c.k << " keyLen " << c.keyLen << " d "
            << c.partitions;
    }
}

TEST(Bloomier, IndexParityBitStaysOutOfCodes)
{
    // Bit 31 of each slot word is its even-parity bit.  It must never
    // reach a lookupCode() result — for inserted or absent keys —
    // and flipping any value bit of any slot must fail the check.
    BloomierConfig cfg;
    cfg.keyLen = 32;
    cfg.partitions = 2;
    BloomierFilter f(1000, cfg);
    auto entries = randomEntries(900, 32, 11);
    ASSERT_TRUE(f.setup(entries).empty());
    const unsigned width = f.slotWidthBits();
    ASSERT_EQ(width, 10u);

    size_t odd_words = 0;
    for (size_t s = 0; s < f.slots(); ++s) {
        EXPECT_TRUE(f.parityOk(s));
        EXPECT_EQ((f.slotWord(s) & 0x7FFFFFFFu) >> width, 0u);
        odd_words += f.slotWord(s) >> 31;
    }
    ASSERT_GT(odd_words, f.slots() / 8);   // The bit is in use.

    Rng rng(12);
    for (int i = 0; i < 5000; ++i) {
        bool ok = true;
        EXPECT_EQ(f.lookupCode(Key128::fromIpv4(
                      static_cast<uint32_t>(rng.next64())), &ok) >> width,
                  0u);
        EXPECT_TRUE(ok);
    }

    for (size_t s = 0; s < f.slots(); s += 37) {
        for (unsigned bit = 0; bit < width; ++bit) {
            f.flipSlotBit(s, bit);
            EXPECT_FALSE(f.parityOk(s)) << "slot " << s << " bit " << bit;
            // Every key whose code the flip changed is told so.
            for (const auto &[k, code] : entries) {
                bool ok = true;
                if (f.lookupCode(k, &ok) != code)
                    EXPECT_FALSE(ok);
            }
            f.flipSlotBit(s, bit);
            EXPECT_TRUE(f.parityOk(s));
        }
    }
    EXPECT_TRUE(f.selfCheck());
}

TEST(Bloomier, LoadRejectsSlotValueWiderThanTheSlot)
{
    // A saved slot value with a bit at or above slotWidthBits() would
    // overwrite the parity bit: loadState refuses it.
    BloomierConfig cfg;
    BloomierFilter f(1024, cfg);
    ASSERT_TRUE(f.setup(randomEntries(600, 32, 13)).empty());
    persist::Encoder enc;
    f.saveState(enc);
    const unsigned width = f.slotWidthBits();

    // Slot words follow the seed and the slot count (two u64s).
    constexpr size_t kFirstSlot = 16;
    auto with_bit = [&](size_t slot, unsigned bit) {
        std::vector<uint8_t> bytes = enc.buffer();
        bytes[kFirstSlot + 4 * slot + bit / 8] ^=
            static_cast<uint8_t>(1u << (bit % 8));
        return bytes;
    };
    for (size_t slot : {size_t(0), f.slots() / 2, f.slots() - 1}) {
        for (unsigned bit : {width, width + 5, 30u, 31u}) {
            std::vector<uint8_t> bytes = with_bit(slot, bit);
            persist::Decoder dec(bytes.data(), bytes.size());
            BloomierFilter g(1024, cfg);
            EXPECT_THROW(g.loadState(dec), persist::DecodeError)
                << "slot " << slot << " bit " << bit;
        }
        // The widest legal value loads, with a good parity bit.
        std::vector<uint8_t> bytes = with_bit(slot, width - 1);
        persist::Decoder dec(bytes.data(), bytes.size());
        BloomierFilter g(1024, cfg);
        g.loadState(dec);
        EXPECT_TRUE(g.parityOk(slot));
    }
}

TEST(Bloomier, IgnoresBitsBeyondKeyLen)
{
    // Only the top keyLen bits of a key select its slots, also when
    // keyLen ends inside a nibble.
    for (unsigned key_len : {7u, 21u, 64u, 126u}) {
        BloomierConfig cfg;
        cfg.keyLen = key_len;
        cfg.partitions = 4;
        BloomierFilter f(200, cfg);
        auto entries = randomEntries(100, key_len, key_len);
        ASSERT_TRUE(f.setup(entries).empty());
        Rng rng(key_len + 1);
        for (const auto &[key, code] : entries) {
            Key128 noise(rng.next64(), rng.next64());
            noise.setBit(127, true);
            Key128 noisy = key ^ noise ^ noise.masked(key_len);
            ASSERT_NE(noisy, key);
            EXPECT_EQ(f.lookupCode(noisy), code) << "keyLen " << key_len;
        }
    }
}

TEST(Bloomier, RejectsBadConfig)
{
    BloomierConfig cfg;
    cfg.k = 1;
    EXPECT_THROW(BloomierFilter(16, cfg), ChiselError);
    cfg.k = BloomierFilter::kMaxHashes + 1;
    EXPECT_THROW(BloomierFilter(16, cfg), ChiselError);
    cfg.k = 3;
    cfg.keyLen = Key128::maxBits + 1;
    EXPECT_THROW(BloomierFilter(16, cfg), ChiselError);
    cfg.keyLen = 32;
    cfg.ratio = 0.5;
    EXPECT_THROW(BloomierFilter(16, cfg), ChiselError);
}

/**
 * Erase-heavy churn over eight partitions, checked after every step
 * against an unordered_map: the flat registry's backward-shift erase
 * must keep every surviving key findable, with its code.
 */
TEST(Bloomier, EraseHeavyChurnMatchesReferenceMap)
{
    BloomierConfig cfg;
    cfg.partitions = 8;
    cfg.keyLen = 40;
    cfg.seed = 0xC4A2;
    BloomierFilter f(4096, cfg);
    std::unordered_map<Key128, uint32_t, Key128Hasher> ref;
    std::vector<Key128> pool;
    for (const auto &[k, c] : randomEntries(3000, 40, 77))
        pool.push_back(k);
    Rng rng(78);

    for (int step = 0; step < 20000; ++step) {
        const Key128 &key = pool[rng.nextBelow(pool.size())];
        // Erases outnumber inserts while the filter is fuller than a
        // third, so the registry keeps filling and draining.
        bool erase = ref.size() > 1000 ? rng.nextBool(0.7)
                                       : rng.nextBool(0.3);
        if (erase) {
            EXPECT_EQ(f.erase(key), ref.erase(key) == 1);
        } else if (!ref.contains(key)) {
            auto code = static_cast<uint32_t>(rng.nextBelow(4096));
            auto result = f.insert(key, code);
            ASSERT_NE(result.method, BloomierFilter::InsertMethod::Duplicate);
            ref.emplace(key, code);
            for (const auto &[spilled, spilled_code] : result.spilled) {
                ASSERT_EQ(ref.at(spilled), spilled_code);
                ref.erase(spilled);
            }
        } else {
            EXPECT_EQ(f.insert(key, 1).method,
                      BloomierFilter::InsertMethod::Duplicate);
        }
        ASSERT_EQ(f.size(), ref.size()) << "step " << step;
        if (step % 1000 == 999) {
            ASSERT_TRUE(f.selfCheck()) << "step " << step;
            for (const Key128 &k : pool) {
                auto it = ref.find(k);
                ASSERT_EQ(f.contains(k), it != ref.end());
                if (it != ref.end())
                    ASSERT_EQ(f.findCode(k), it->second);
                else
                    ASSERT_FALSE(f.findCode(k).has_value());
            }
        }
    }
}

/**
 * saveState writes the registry in key order: set up from the same
 * entries in two orders and erase the same keys in two orders, and
 * the registries' table layouts differ but the bytes do not.
 */
TEST(Bloomier, SaveStateBytesIgnoreInsertionOrder)
{
    BloomierConfig cfg;
    cfg.partitions = 4;
    auto entries = randomEntries(1500, 32, 91);
    auto reversed = entries;
    std::reverse(reversed.begin(), reversed.end());

    BloomierFilter a(2048, cfg), b(2048, cfg);
    ASSERT_TRUE(a.setup(entries).empty());
    ASSERT_TRUE(b.setup(reversed).empty());
    for (size_t i = 0; i < 600; ++i) {
        a.erase(entries[i].first);
        b.erase(entries[599 - i].first);
    }
    persist::Encoder ea, eb;
    a.saveState(ea);
    b.saveState(eb);
    EXPECT_EQ(ea.buffer(), eb.buffer());

    // A restored filter re-saves the same bytes.
    BloomierFilter c(2048, cfg);
    persist::Decoder dec(ea.buffer().data(), ea.buffer().size());
    c.loadState(dec);
    persist::Encoder ec;
    c.saveState(ec);
    EXPECT_EQ(ec.buffer(), ea.buffer());
    EXPECT_TRUE(c.selfCheck());
    EXPECT_EQ(c.size(), 900u);
}

/**
 * Occupancy counts are bytes: a 256th key on one Index slot is
 * refused — a panic on setup, a DecodeError on load — and 255 is fine.
 */
TEST(Bloomier, OccupancyPast255IsRefused)
{
    BloomierConfig cfg;
    cfg.k = 2;
    cfg.ratio = 1.0;
    cfg.keyLen = 64;
    BloomierFilter probe(1024, cfg);
    // Keys whose first-segment slot is slot 0.
    std::vector<std::pair<Key128, uint32_t>> crowd;
    Rng rng(255);
    while (crowd.size() < 256) {
        Key128 k = Key128(rng.next64(), 0).masked(64);
        if (probe.image().probe(k).slots[0] == 0)
            crowd.emplace_back(k, static_cast<uint32_t>(crowd.size()));
    }

    auto snapshot = [&](size_t keys) {
        persist::Encoder enc;
        enc.u64(cfg.seed);
        enc.u64(probe.slots());
        for (size_t i = 0; i < probe.slots(); ++i)
            enc.u32(0);
        enc.u64(keys);
        for (size_t i = 0; i < keys; ++i) {
            enc.key(crowd[i].first);
            enc.u32(crowd[i].second);
        }
        for (int i = 0; i < 6; ++i)
            enc.u64(0);
        return enc.buffer();
    };
    std::vector<uint8_t> full = snapshot(255);
    persist::Decoder ok(full.data(), full.size());
    BloomierFilter loaded(1024, cfg);
    loaded.loadState(ok);
    EXPECT_EQ(loaded.size(), 255u);

    std::vector<uint8_t> over = snapshot(256);
    persist::Decoder bad(over.data(), over.size());
    BloomierFilter refused(1024, cfg);
    EXPECT_THROW(refused.loadState(bad), persist::DecodeError);

    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            BloomierFilter f(1024, cfg);
            f.setup(crowd);
        },
        "occupancy past 255");
}

/** Property sweep: every (k, ratio, partitions, size) combination
 * must produce a collision-free decode of every inserted key. */
struct BloomierParam
{
    unsigned k;
    double ratio;
    unsigned partitions;
    size_t n;
};

class BloomierProperty
    : public ::testing::TestWithParam<BloomierParam>
{};

TEST_P(BloomierProperty, AllKeysDecode)
{
    const auto &p = GetParam();
    BloomierConfig cfg;
    cfg.k = p.k;
    cfg.ratio = p.ratio;
    cfg.partitions = p.partitions;
    cfg.keyLen = 64;
    cfg.seed = 0xFEED + p.k;
    BloomierFilter f(p.n, cfg);
    auto entries = randomEntries(p.n, 64, p.n + p.k);
    auto spilled = f.setup(entries);
    EXPECT_TRUE(spilled.empty())
        << "unexpected spill at k=" << p.k << " ratio=" << p.ratio;
    for (const auto &[k, code] : entries)
        EXPECT_EQ(f.lookupCode(k), code);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BloomierProperty,
    ::testing::Values(
        BloomierParam{2, 4.0, 1, 512},
        BloomierParam{3, 3.0, 1, 512},
        BloomierParam{3, 3.0, 4, 2048},
        BloomierParam{3, 2.5, 1, 1024},
        BloomierParam{4, 3.0, 1, 1024},
        BloomierParam{4, 2.0, 2, 2048},
        BloomierParam{5, 2.0, 1, 512},
        BloomierParam{3, 3.0, 16, 8192}));

} // anonymous namespace
} // namespace chisel
