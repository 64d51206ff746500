#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "util/rng.h"
#include "util/span.h"
#include "util/status.h"

namespace youtopia {
namespace {

TEST(SpanTest, ViewsVectorsAndSubranges) {
  std::vector<int> v{1, 2, 3, 4};
  Span<const int> s(v);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0], 1);
  int sum = 0;
  for (int x : s) sum += x;
  EXPECT_EQ(sum, 10);
  Span<const int> sub = s.subspan(1, 2);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub[0], 2);
  EXPECT_TRUE(Span<const int>().empty());
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status err = Status::InvalidArgument("bad input");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.message(), "bad input");
  EXPECT_EQ(err.ToString(), "bad input");
  EXPECT_EQ(Status::Ok().ToString(), "OK");
}

TEST(ResultTest, ValueAndStatusAccess) {
  Result<int> ok_result(42);
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 42);
  Result<int> err_result(Status::NotFound("nope"));
  EXPECT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOut) {
  Result<std::string> r(std::string(1000, 'x'));
  const std::string s = std::move(r).value();
  EXPECT_EQ(s.size(), 1000u);
}

TEST(RngTest, DeterministicInSeed) {
  Rng a(123);
  Rng b(123);
  Rng c(124);
  bool diverged_from_c = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) diverged_from_c = true;
  }
  EXPECT_TRUE(diverged_from_c);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    const double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformCoversDomain) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Chance(0.3) ? 1 : 0;
  const double rate = static_cast<double>(hits) / n;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(ZipfianSamplerTest, StaysInRangeAndSkewsTowardRankZero) {
  const size_t n = 100;
  ZipfianSampler zipf(n, 0.9);
  EXPECT_EQ(zipf.n(), n);
  EXPECT_DOUBLE_EQ(zipf.theta(), 0.9);
  Rng rng(17);
  const int samples = 50000;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < samples; ++i) {
    const size_t rank = zipf.Sample(&rng);
    ASSERT_LT(rank, n);
    ++counts[rank];
  }
  // At theta = 0.9 over 100 ranks, rank 0 carries ~20% of the mass — an
  // order of magnitude above the 1% a uniform draw would give it — and the
  // frequencies are monotone-ish: the head dominates the tail.
  EXPECT_GT(counts[0], samples / 10);
  EXPECT_GT(counts[0], counts[n / 2] * 4);
  EXPECT_GT(counts[1], counts[n - 1]);
}

TEST(ZipfianSamplerTest, ThetaZeroIsUniform) {
  const size_t n = 8;
  ZipfianSampler zipf(n, 0.0);
  Rng rng(23);
  const int samples = 40000;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < samples; ++i) ++counts[zipf.Sample(&rng)];
  for (size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / samples, 1.0 / n, 0.02)
        << "rank " << k;
  }
}

TEST(ZipfianSamplerTest, DeterministicGivenSameRngStream) {
  ZipfianSampler zipf(50, 0.5);
  Rng a(31);
  Rng b(31);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(zipf.Sample(&a), zipf.Sample(&b));
  }
}

}  // namespace
}  // namespace youtopia
