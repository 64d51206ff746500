#include "relational/row_buckets.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "util/rng.h"

namespace youtopia {
namespace {

std::vector<RowId> Rows(Span<const RowId> bucket) {
  return std::vector<RowId>(bucket.begin(), bucket.end());
}

// The slot a key hashes to in a table of 2^bits slots: RowBuckets hashes
// Fibonacci-style, taking the top bits of key * 2^64/phi.
size_t HomeSlot(uint64_t key, int bits) {
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> (64 - bits));
}

// The first `n` keys (counting up from 1) that hash to `slot` of a table of
// 2^bits slots.
std::vector<uint64_t> KeysWithHome(size_t slot, int bits, size_t n) {
  std::vector<uint64_t> keys;
  for (uint64_t key = 1; keys.size() < n; ++key) {
    if (HomeSlot(key, bits) == slot) keys.push_back(key);
  }
  return keys;
}

TEST(RowBucketsTest, EmptyTableMissesEverywhere) {
  RowBuckets buckets;
  EXPECT_TRUE(buckets.Find(0).empty());
  EXPECT_TRUE(buckets.Find(~uint64_t{0}).empty());
  size_t size = 7;
  EXPECT_FALSE(buckets.Remove(3, 1, &size));
  EXPECT_EQ(size, 7u);
  EXPECT_EQ(buckets.size(), 0u);
  EXPECT_EQ(buckets.entries(), 0u);
}

TEST(RowBucketsTest, WrappedRunLosesItsHeadAndShiftsBack) {
  // A fresh table has 8 slots. Three keys whose home is the last slot form
  // a run that wraps past the array's end into slots 0 and 1, and a key
  // whose home is slot 0 lands behind them in slot 2.
  const std::vector<uint64_t> tail = KeysWithHome(7, 3, 3);
  const uint64_t front = KeysWithHome(0, 3, 1)[0];
  RowBuckets buckets;
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(buckets.Add(tail[i], static_cast<RowId>(10 + i)), 1u);
  }
  EXPECT_EQ(buckets.Add(front, 20), 1u);
  // Removing the run's head must shift every later member back, across the
  // wrap, or the rest of the run becomes unreachable from its home.
  size_t size = 9;
  ASSERT_TRUE(buckets.Remove(tail[0], 10, &size));
  EXPECT_EQ(size, 0u);
  EXPECT_TRUE(buckets.Find(tail[0]).empty());
  EXPECT_EQ(Rows(buckets.Find(tail[1])), (std::vector<RowId>{11}));
  EXPECT_EQ(Rows(buckets.Find(tail[2])), (std::vector<RowId>{12}));
  EXPECT_EQ(Rows(buckets.Find(front)), (std::vector<RowId>{20}));
  // And again from the middle of what is left.
  ASSERT_TRUE(buckets.Remove(tail[1], 11, &size));
  EXPECT_EQ(Rows(buckets.Find(tail[2])), (std::vector<RowId>{12}));
  EXPECT_EQ(Rows(buckets.Find(front)), (std::vector<RowId>{20}));
  EXPECT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets.entries(), 2u);
  // The freed slots are reusable: the removed keys come back.
  EXPECT_EQ(buckets.Add(tail[0], 10), 1u);
  EXPECT_EQ(buckets.Add(tail[1], 11), 1u);
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(Rows(buckets.Find(tail[i])),
              (std::vector<RowId>{static_cast<RowId>(10 + i)}));
  }
  EXPECT_EQ(Rows(buckets.Find(front)), (std::vector<RowId>{20}));
}

TEST(RowBucketsTest, OneKeyGoesInlineSpilledInlineSpilled) {
  RowBuckets buckets;
  const uint64_t key = 42;
  size_t size = 0;
  EXPECT_EQ(buckets.Add(key, 5), 1u);  // inline
  EXPECT_EQ(Rows(buckets.Find(key)), (std::vector<RowId>{5}));
  EXPECT_EQ(buckets.Add(key, 3), 2u);  // spilled
  EXPECT_EQ(Rows(buckets.Find(key)), (std::vector<RowId>{3, 5}));
  ASSERT_TRUE(buckets.Remove(key, 5, &size));  // back inline
  EXPECT_EQ(size, 1u);
  EXPECT_EQ(Rows(buckets.Find(key)), (std::vector<RowId>{3}));
  EXPECT_EQ(buckets.entries(), 1u);
  EXPECT_EQ(buckets.Add(key, 9), 2u);  // spilled again, into a recycled list
  EXPECT_EQ(buckets.Add(key, 1), 3u);
  EXPECT_EQ(Rows(buckets.Find(key)), (std::vector<RowId>{1, 3, 9}));
  ASSERT_TRUE(buckets.Remove(key, 3, &size));
  EXPECT_EQ(size, 2u);
  ASSERT_TRUE(buckets.Remove(key, 1, &size));
  EXPECT_EQ(size, 1u);
  EXPECT_EQ(Rows(buckets.Find(key)), (std::vector<RowId>{9}));
  ASSERT_TRUE(buckets.Remove(key, 9, &size));
  EXPECT_EQ(size, 0u);
  EXPECT_TRUE(buckets.Find(key).empty());
  EXPECT_EQ(buckets.size(), 0u);
  EXPECT_EQ(buckets.entries(), 0u);
}

TEST(RowBucketsTest, GrowthKeepsSpilledLists) {
  RowBuckets buckets;
  for (RowId row : {7u, 2u, 9u}) buckets.Add(1, row);
  for (RowId row : {4u, 3u}) buckets.Add(2, row);
  // Enough one-row keys to double the array several times.
  for (uint64_t key = 100; key < 400; ++key) {
    EXPECT_EQ(buckets.Add(key, static_cast<RowId>(key)), 1u);
  }
  EXPECT_EQ(Rows(buckets.Find(1)), (std::vector<RowId>{2, 7, 9}));
  EXPECT_EQ(Rows(buckets.Find(2)), (std::vector<RowId>{3, 4}));
  for (uint64_t key = 100; key < 400; ++key) {
    EXPECT_EQ(Rows(buckets.Find(key)),
              (std::vector<RowId>{static_cast<RowId>(key)}));
  }
  EXPECT_EQ(buckets.size(), 302u);
  EXPECT_EQ(buckets.entries(), 305u);
  // The spilled buckets still grow and shrink after the moves.
  EXPECT_EQ(buckets.Add(2, 1), 3u);
  size_t size = 0;
  ASSERT_TRUE(buckets.Remove(1, 7, &size));
  EXPECT_EQ(size, 2u);
  EXPECT_EQ(Rows(buckets.Find(1)), (std::vector<RowId>{2, 9}));
  EXPECT_EQ(Rows(buckets.Find(2)), (std::vector<RowId>{1, 3, 4}));
}

TEST(RowBucketsTest, SpanListsEachRowOnceAscending) {
  RowBuckets buckets;
  const uint64_t key = 0xDEADBEEFCAFEull;
  const std::vector<RowId> order = {8, 3, 8, 11, 0, 3, 5, 11, 1};
  std::vector<RowId> added;
  for (RowId row : order) {
    const bool repeat =
        std::find(added.begin(), added.end(), row) != added.end();
    const size_t size = buckets.Add(key, row);
    if (repeat) {
      EXPECT_EQ(size, 0u) << "row " << row << " listed twice";
    } else {
      added.push_back(row);
      EXPECT_EQ(size, added.size());
    }
  }
  EXPECT_EQ(Rows(buckets.Find(key)), (std::vector<RowId>{0, 1, 3, 5, 8, 11}));
  size_t size = 0;
  EXPECT_FALSE(buckets.Remove(key, 4, &size)) << "row 4 was never listed";
  EXPECT_EQ(buckets.entries(), 6u);
}

// Random adds, repeat adds, removals (of listed and absent rows) and
// re-adds against a std::map reference. Keys come from a small set, so
// probe runs form, wrap past the array's end and lose members in the
// middle; rows come from a small range, so buckets spill and go back
// inline.
TEST(RowBucketsTest, RandomOperationsMatchReference) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    // 6, 12 or 18 keys: up to 3/4 of a 8-, 16- or 32-slot table. Odd seeds
    // use dense keys (like per-column keys), even ones arbitrary 64-bit
    // keys (like composite hashes).
    std::vector<uint64_t> keys(6 * (1 + seed % 3));
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = seed % 2 == 1 ? i : rng.Next();
    }
    RowBuckets buckets;
    std::map<uint64_t, std::vector<RowId>> reference;
    size_t entries = 0;
    for (int op = 0; op < 2000; ++op) {
      const uint64_t key = keys[rng.Uniform(keys.size())];
      std::vector<RowId>& expected = reference[key];
      const uint64_t pick = rng.Uniform(100);
      if (pick < 45) {
        const RowId row = static_cast<RowId>(rng.Uniform(8));
        const auto it =
            std::lower_bound(expected.begin(), expected.end(), row);
        const bool listed = it != expected.end() && *it == row;
        if (!listed) {
          expected.insert(it, row);
          ++entries;
        }
        EXPECT_EQ(buckets.Add(key, row), listed ? 0u : expected.size());
      } else if (pick < 55) {
        if (expected.empty()) continue;
        // A repeat add of a listed row changes nothing.
        EXPECT_EQ(buckets.Add(key, expected[rng.Uniform(expected.size())]),
                  0u);
      } else if (pick < 85) {
        if (expected.empty()) continue;
        const size_t at = rng.Uniform(expected.size());
        const RowId row = expected[at];
        expected.erase(expected.begin() + static_cast<std::ptrdiff_t>(at));
        --entries;
        size_t size = 99;
        EXPECT_TRUE(buckets.Remove(key, row, &size));
        EXPECT_EQ(size, expected.size());
      } else {
        // A row the bucket does not list.
        RowId row = 8 + static_cast<RowId>(rng.Uniform(4));
        if (!expected.empty() && rng.Uniform(2) == 0) row = expected[0] + 100;
        size_t size = 99;
        EXPECT_FALSE(buckets.Remove(key, row, &size));
        EXPECT_EQ(size, 99u);
      }
      size_t keys_live = 0;
      for (const auto& [k, rows] : reference) {
        EXPECT_EQ(Rows(buckets.Find(k)), rows) << "key " << k;
        keys_live += rows.empty() ? 0 : 1;
      }
      EXPECT_EQ(buckets.size(), keys_live);
      EXPECT_EQ(buckets.entries(), entries);
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace youtopia
