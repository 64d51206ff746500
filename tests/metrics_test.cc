#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace youtopia {
namespace obs {
namespace {

TEST(HistogramBucketTest, PowerOfTwoBoundaries) {
  EXPECT_EQ(HistogramBucket(0), 0u);
  EXPECT_EQ(HistogramBucket(1), 1u);
  EXPECT_EQ(HistogramBucket(2), 2u);
  EXPECT_EQ(HistogramBucket(3), 2u);
  EXPECT_EQ(HistogramBucket(4), 3u);
  EXPECT_EQ(HistogramBucket(7), 3u);
  EXPECT_EQ(HistogramBucket(8), 4u);
  EXPECT_EQ(HistogramBucket(1023), 10u);
  EXPECT_EQ(HistogramBucket(1024), 11u);
  EXPECT_EQ(HistogramBucket(UINT64_MAX), kHistogramBuckets - 1);
}

TEST(HistogramBucketTest, UpperBoundsCoverBuckets) {
  // Every value's bucket upper bound is >= the value (so percentiles never
  // under-report), and the bucket of the upper bound is the bucket itself.
  for (uint64_t v : {1ull, 2ull, 3ull, 4ull, 100ull, 65535ull, 1ull << 40}) {
    const size_t b = HistogramBucket(v);
    EXPECT_GE(HistogramBucketUpper(b), v) << v;
    EXPECT_EQ(HistogramBucket(HistogramBucketUpper(b)), b) << v;
  }
}

TEST(HistogramSnapshotTest, PercentilesOnUniformSamples) {
  MetricsRegistry reg;
  for (uint64_t v = 1; v <= 100; ++v) reg.RecordLatency(Stage::kChase, v);
  const HistogramSnapshot h = reg.Snapshot().stage(Stage::kChase);
  EXPECT_EQ(h.total, 100u);
  EXPECT_EQ(h.sum, 5050u);
  EXPECT_EQ(h.max, 100u);
  // Buckets hold [1], [2,3], [4,7], ... so rank 50 lands in bucket 6
  // (32..63) and reports its upper bound.
  EXPECT_EQ(h.p50(), 63u);
  // Rank 99 lands in the 64..127 bucket, clamped to the observed max.
  EXPECT_EQ(h.p99(), 100u);
  EXPECT_EQ(h.Percentile(1.0), 100u);
  // The percentile is monotone in q.
  uint64_t prev = 0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const uint64_t p = h.Percentile(q);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(HistogramSnapshotTest, EmptyIsZero) {
  const HistogramSnapshot h;
  EXPECT_EQ(h.total, 0u);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.p99(), 0u);
}

TEST(HistogramSnapshotTest, MergeAddsCountsAndKeepsMax) {
  MetricsRegistry a, b;
  a.RecordLatency(Stage::kCommit, 10);
  a.RecordLatency(Stage::kCommit, 20);
  b.RecordLatency(Stage::kCommit, 1000);
  HistogramSnapshot ha = a.Snapshot().stage(Stage::kCommit);
  const HistogramSnapshot hb = b.Snapshot().stage(Stage::kCommit);
  ha.Merge(hb);
  EXPECT_EQ(ha.total, 3u);
  EXPECT_EQ(ha.sum, 1030u);
  EXPECT_EQ(ha.max, 1000u);
  EXPECT_EQ(ha.p99(), 1000u);
}

TEST(MetricsRegistryTest, CountersAggregateAcrossThreads) {
  MetricsRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.Add(Counter::kCommits);
        reg.RecordLatency(Stage::kInboxWait, static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.CounterValue(Counter::kCommits),
            static_cast<uint64_t>(kThreads) * kPerThread);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counter(Counter::kCommits),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.stage(Stage::kInboxWait).total,
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.stage(Stage::kInboxWait).max, kPerThread - 1);
}

TEST(MetricsRegistryTest, GaugeKeepsLatestAndHighWatermark) {
  MetricsRegistry reg;
  reg.SetGauge(Gauge::kInboxDepth, 3);
  reg.SetGauge(Gauge::kInboxDepth, 17);
  reg.SetGauge(Gauge::kInboxDepth, 5);
  const GaugeSnapshot g = reg.Snapshot().gauge(Gauge::kInboxDepth);
  EXPECT_EQ(g.value, 5u);
  EXPECT_EQ(g.max, 17u);
}

TEST(MetricsRegistryTest, ResetZeroesEverything) {
  MetricsRegistry reg;
  reg.Add(Counter::kSubmitted, 7);
  reg.RecordLatency(Stage::kSubmit, 42);
  reg.SetGauge(Gauge::kCrossInboxDepth, 9);
  reg.Reset();
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counter(Counter::kSubmitted), 0u);
  EXPECT_EQ(snap.stage(Stage::kSubmit).total, 0u);
  EXPECT_EQ(snap.gauge(Gauge::kCrossInboxDepth).value, 0u);
  EXPECT_EQ(snap.gauge(Gauge::kCrossInboxDepth).max, 0u);
  // Recording keeps working after a reset (thread blocks survive).
  reg.Add(Counter::kSubmitted);
  EXPECT_EQ(reg.CounterValue(Counter::kSubmitted), 1u);
}

TEST(MetricsRegistryTest, ThreadCacheSurvivesRegistryChurn) {
  // The TLS fast path is keyed by registry id, so destroying a registry
  // this thread recorded into and recording into a fresh one must land the
  // samples in the fresh one (an address-keyed cache could alias them).
  auto first = std::make_unique<MetricsRegistry>();
  first->Add(Counter::kRetired, 5);
  EXPECT_EQ(first->CounterValue(Counter::kRetired), 5u);
  first.reset();
  MetricsRegistry second;
  second.Add(Counter::kRetired, 2);
  EXPECT_EQ(second.CounterValue(Counter::kRetired), 2u);
}

TEST(MetricsRegistryTest, InterleavedRegistriesStaySeparate) {
  MetricsRegistry a, b;
  for (int i = 0; i < 100; ++i) {
    a.Add(Counter::kCommits);
    b.Add(Counter::kCommits, 2);
  }
  EXPECT_EQ(a.CounterValue(Counter::kCommits), 100u);
  EXPECT_EQ(b.CounterValue(Counter::kCommits), 200u);
}

TEST(MetricsRegistryTest, ScopedLatencyRecordsAndNullIsSafe) {
  MetricsRegistry reg;
  { ScopedLatency lat(&reg, Stage::kCrossBatch); }
  { ScopedLatency lat(nullptr, Stage::kCrossBatch); }  // must not crash
  EXPECT_EQ(reg.Snapshot().stage(Stage::kCrossBatch).total, 1u);
}

TEST(MetricsNamesTest, AllEnumeratorsHaveNames) {
  for (size_t i = 0; i < kNumStages; ++i) {
    EXPECT_STRNE(StageName(static_cast<Stage>(i)), "?");
  }
  for (size_t i = 0; i < kNumCounters; ++i) {
    EXPECT_STRNE(CounterName(static_cast<Counter>(i)), "?");
  }
  for (size_t i = 0; i < kNumGauges; ++i) {
    EXPECT_STRNE(GaugeName(static_cast<Gauge>(i)), "?");
  }
}

}  // namespace
}  // namespace obs
}  // namespace youtopia
