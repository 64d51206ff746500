#include "util/topk_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/rng.h"

namespace youtopia {
namespace {

using IntSketch = TopKSketch<int>;

TEST(TopKSketchTest, ExactBelowCapacity) {
  IntSketch s(/*capacity=*/4);
  s.Set(7, 4);
  s.Set(11, 3);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_FALSE(s.AtCapacity());
  EXPECT_TRUE(s.Tracks(7));
  EXPECT_EQ(s.Estimate(7), 4u);
  EXPECT_EQ(s.Estimate(11), 3u);
  // Below capacity every reported value was admitted, so a never-reported
  // value's estimate is zero, not min_count.
  EXPECT_FALSE(s.Tracks(99));
  EXPECT_EQ(s.Estimate(99), 0u);
  EXPECT_EQ(s.max_count(), 4u);
}

TEST(TopKSketchTest, SetRaisesLowersAndDropsAtZero) {
  IntSketch s(/*capacity=*/3);
  s.Set(1, 10);
  s.Set(2, 5);
  s.Set(1, 12);  // raise
  EXPECT_EQ(s.Estimate(1), 12u);
  s.Set(1, 3);  // lower: tracked counts follow the report both ways
  EXPECT_EQ(s.Estimate(1), 3u);
  EXPECT_EQ(s.max_count(), 5u);
  EXPECT_EQ(s.min_count(), 3u);
  s.Set(2, 0);  // drop
  EXPECT_FALSE(s.Tracks(2));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.Estimate(2), 0u);
  EXPECT_EQ(s.max_count(), 3u);
  s.Set(4, 0);  // an untracked value at zero is not admitted
  EXPECT_FALSE(s.Tracks(4));
  EXPECT_EQ(s.size(), 1u);
  s.Set(1, 0);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.max_count(), 0u);
  EXPECT_EQ(s.min_count(), 0u);
}

TEST(TopKSketchTest, SetAdmitsAtCapacityOnlyBeaters) {
  IntSketch s(/*capacity=*/2);
  s.Set(1, 10);
  s.Set(2, 5);
  ASSERT_TRUE(s.AtCapacity());
  // At capacity a newcomer must beat the minimum tracked count to enter; a
  // tie does not displace.
  s.Set(3, 4);
  EXPECT_FALSE(s.Tracks(3));
  EXPECT_EQ(s.Estimate(3), 5u);  // the ceiling it last fit under
  s.Set(3, 5);
  EXPECT_FALSE(s.Tracks(3));
  s.Set(3, 6);
  EXPECT_TRUE(s.Tracks(3));
  EXPECT_FALSE(s.Tracks(2));
  EXPECT_EQ(s.Estimate(3), 6u);
  EXPECT_EQ(s.size(), 2u);
  // A drop frees a slot, which the next reported value takes whatever its
  // count.
  s.Set(1, 0);
  s.Set(5, 1);
  EXPECT_TRUE(s.Tracks(5));
  EXPECT_EQ(s.min_count(), 1u);
}

// Exact reports in random order: every tracked count equals the truth after
// every report, an untracked value fit under min_count() when it was
// reported, and max_count() is the largest tracked count.
TEST(TopKSketchTest, RandomExactReportsKeepTrackedCountsTrue) {
  constexpr size_t kCapacity = 8;
  IntSketch s(kCapacity);
  std::map<int, uint64_t> truth;
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    // Skewed over 22 values, counts that both grow and shrink.
    const int v = static_cast<int>(rng.Uniform(8) * rng.Uniform(4));
    uint64_t& count = truth[v];
    if (count > 0 && rng.Chance(0.45)) {
      --count;
    } else {
      ++count;
    }
    s.Set(v, count);
    if (!s.Tracks(v)) {
      EXPECT_LE(count, s.min_count()) << "untracked value " << v;
    }
    uint64_t max_tracked = 0;
    s.ForEach([&](const int& tracked, uint64_t c) {
      EXPECT_EQ(c, truth[tracked]) << "value " << tracked << " at report " << i;
      EXPECT_GT(c, 0u);
      max_tracked = std::max(max_tracked, c);
    });
    ASSERT_EQ(s.max_count(), max_tracked);
    ASSERT_LE(s.size(), kCapacity);
  }
}

// Golden determinism: a fixed report sequence must produce the exact same
// entry set on every platform and build — the planner's cost estimates, the
// hot-set fingerprint and bench/skew_suite's CI gates all assume
// reproducibility.
TEST(TopKSketchTest, DeterministicGoldenStream) {
  TopKSketch<std::string> s(/*capacity=*/3);
  const std::pair<const char*, uint64_t> reports[] = {
      {"a", 1}, {"b", 1}, {"a", 2}, {"c", 1}, {"d", 1}, {"d", 2},
      {"a", 0}, {"e", 3}, {"c", 5}, {"b", 2}, {"b", 3}, {"e", 1}};
  for (const auto& [v, count] : reports) s.Set(v, count);
  std::vector<std::string> got;
  s.ForEach([&](const std::string& v, uint64_t count) {
    got.push_back(v + ":" + std::to_string(count));
  });
  // Hand-traced (ties at the minimum resolve to the lowest slot, a drop
  // shifts later slots down): d(1) ties b(1) and stays out, d(2) displaces
  // b in slot 1; dropping a shifts d to slot 0 and c to slot 1; e fills the
  // free slot 2; b(2) ties d(2) and stays out, b(3) displaces d in slot 0.
  // ForEach yields slot order.
  const std::vector<std::string> want = {"b:3", "c:5", "e:1"};
  EXPECT_EQ(got, want);
  EXPECT_EQ(s.max_count(), 5u);
  EXPECT_EQ(s.min_count(), 1u);
}

}  // namespace
}  // namespace youtopia
