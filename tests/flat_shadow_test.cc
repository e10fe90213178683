/**
 * @file
 * Unit tests for the flat shadow-state containers: the open-addressed
 * FlatMap (including its backward-shift, tombstone-free deletion) and
 * the bump Arena behind the slicer's frame register tables.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <random>
#include <vector>

#include "support/arena.h"
#include "support/flat_map.h"

namespace oha::support {
namespace {

TEST(FlatMap, InsertFindAndDefaultConstruct)
{
    FlatMap<int> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(42), nullptr);

    map[42] = 7;
    EXPECT_EQ(map.size(), 1u);
    ASSERT_NE(map.find(42), nullptr);
    EXPECT_EQ(*map.find(42), 7);

    // operator[] on a fresh key default-constructs the value.
    EXPECT_EQ(map[1000], 0);
    EXPECT_EQ(map.size(), 2u);

    // Key 0 is a valid key (only ~0 is reserved).
    map[0] = -1;
    ASSERT_NE(map.find(0), nullptr);
    EXPECT_EQ(*map.find(0), -1);
}

TEST(FlatMap, GrowthPreservesAllEntries)
{
    FlatMap<std::uint64_t> map;
    constexpr std::uint64_t kN = 10000;
    // Packed sequential keys, like (obj << 32) | off — the worst case
    // for a weak hash feeding a power-of-two mask.
    for (std::uint64_t i = 0; i < kN; ++i)
        map[i << 32 | (i & 7)] = i * 3;
    EXPECT_EQ(map.size(), kN);
    for (std::uint64_t i = 0; i < kN; ++i) {
        auto *val = map.find(i << 32 | (i & 7));
        ASSERT_NE(val, nullptr) << "lost key " << i;
        EXPECT_EQ(*val, i * 3);
    }
    EXPECT_EQ(map.find(kN << 32), nullptr);
}

TEST(FlatMap, EraseBackwardShiftKeepsProbeChainsIntact)
{
    // Deterministic churn against std::map as the oracle.  Backward-
    // shift deletion must relocate displaced successors, so lookups
    // stay correct through arbitrary insert/erase interleavings.
    FlatMap<int> map;
    std::map<std::uint64_t, int> oracle;
    std::mt19937_64 rng(7);

    for (int round = 0; round < 20000; ++round) {
        const std::uint64_t key = rng() % 512; // force collisions
        if (rng() % 3 == 0) {
            EXPECT_EQ(map.erase(key), oracle.erase(key) > 0);
        } else {
            const int value = static_cast<int>(rng() % 1000);
            map[key] = value;
            oracle[key] = value;
        }
    }

    EXPECT_EQ(map.size(), oracle.size());
    for (const auto &[key, value] : oracle) {
        auto *got = map.find(key);
        ASSERT_NE(got, nullptr) << "lost key " << key;
        EXPECT_EQ(*got, value);
    }
    for (std::uint64_t key = 0; key < 512; ++key) {
        if (!oracle.count(key)) {
            EXPECT_EQ(map.find(key), nullptr) << "ghost key " << key;
        }
    }
}

TEST(FlatMap, EraseOnEmptyAndMissing)
{
    FlatMap<int> map;
    EXPECT_FALSE(map.erase(5));
    map[5] = 1;
    EXPECT_FALSE(map.erase(6));
    EXPECT_TRUE(map.erase(5));
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(5), nullptr);
}

TEST(FlatMap, ForEachVisitsEverything)
{
    FlatMap<int> map;
    for (int i = 0; i < 100; ++i)
        map[static_cast<std::uint64_t>(i) * 977] = i;
    std::map<std::uint64_t, int> seen;
    map.forEach([&](std::uint64_t key, int value) { seen[key] = value; });
    EXPECT_EQ(seen.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(seen[static_cast<std::uint64_t>(i) * 977], i);
}

TEST(FlatMap, ClearAndReserve)
{
    FlatMap<int> map;
    map.reserve(1000);
    for (int i = 0; i < 1000; ++i)
        map[static_cast<std::uint64_t>(i)] = i;
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(1), nullptr);
    map[1] = 2;
    EXPECT_EQ(map.size(), 1u);
}

TEST(Arena, AllocationsAreDisjointAndAligned)
{
    Arena arena;
    std::vector<std::uint32_t *> arrays;
    for (int i = 0; i < 100; ++i) {
        auto *arr = arena.allocateArray<std::uint32_t>(64);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arr) %
                      alignof(std::uint32_t),
                  0u);
        std::memset(arr, i, 64 * sizeof(std::uint32_t));
        arrays.push_back(arr);
    }
    // Writing each array must not have clobbered any other.
    for (int i = 0; i < 100; ++i) {
        const auto byte = static_cast<unsigned char>(i);
        const auto *raw =
            reinterpret_cast<const unsigned char *>(arrays[i]);
        for (std::size_t b = 0; b < 64 * sizeof(std::uint32_t); ++b)
            ASSERT_EQ(raw[b], byte);
    }
    EXPECT_GE(arena.bytesUsed(), 100 * 64 * sizeof(std::uint32_t));
    EXPECT_GE(arena.bytesReserved(), arena.bytesUsed());
}

TEST(Arena, LargeAllocationGetsOwnChunk)
{
    Arena arena;
    // Far bigger than the default chunk: must still succeed.
    auto *big = arena.allocateArray<std::uint64_t>(1 << 18);
    big[0] = 1;
    big[(1 << 18) - 1] = 2;
    EXPECT_EQ(big[0], 1u);
    EXPECT_EQ(big[(1 << 18) - 1], 2u);
}

TEST(Arena, ResetRecyclesMemory)
{
    Arena arena;
    (void)arena.allocateArray<std::uint8_t>(1000);
    const std::size_t reserved = arena.bytesReserved();
    arena.reset();
    EXPECT_EQ(arena.bytesUsed(), 0u);
    // Reset keeps the first chunk, so a small allocation after reset
    // must not grow the reservation.
    (void)arena.allocateArray<std::uint8_t>(1000);
    EXPECT_EQ(arena.bytesReserved(), reserved);
}

} // namespace
} // namespace oha::support
