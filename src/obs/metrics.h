#ifndef YOUTOPIA_OBS_METRICS_H_
#define YOUTOPIA_OBS_METRICS_H_

// Pipeline metrics registry: per-stage latency histograms, event counters
// and occupancy gauges for the standing ingest pipeline (and the serial
// engine it embeds).
//
// Lock discipline (ROADMAP "Threading model"): recording runs on the
// hottest paths of the concurrency stack — under component locks and the
// queue leaf mutexes — so it must never rank against that hierarchy.
// Recording is wait-free after a thread's first sample against a registry:
// every thread owns a private block of relaxed atomics, and the only mutex
// (registration + snapshot aggregation) is kUnranked — a terminal lock
// that never acquires anything while held, invisible to the
// LockOrderValidator.
//
// Histograms use power-of-two buckets: bucket 0 holds the value 0, bucket
// i >= 1 holds values v with 2^(i-1) <= v < 2^i (i.e. bit-width i).
// Percentiles report the upper bound of the bucket the rank lands in,
// clamped to the observed maximum — deterministic and monotone, which is
// all a latency summary needs.

#include <array>
#include <atomic>
#include <cstdint>
#include <chrono>
#include <memory>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace youtopia {
namespace obs {

// Monotonic nanosecond clock all obs timestamps use.
inline uint64_t MonotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Op-lifecycle stages with a latency histogram each (values in ns).
enum class Stage : uint8_t {
  kSubmit = 0,        // producer-side Submit(), incl. backpressure wait
  kInboxWait,         // shard-inbox enqueue -> popped by a worker
  kAdmission,         // cross-lane enqueue -> its batch begins processing
  kAdmissionBarrier,  // pinned-watermark wait inside a cross batch
  kChase,             // one pinned chase, incl. its component-lock wait
  kCommit,            // whole-op latency: inbox/lane enqueue -> commit
                      // (an escaped op's from its re-route)
  kCrossBatch,        // cross-shard batch: lock acquisition + its ops
  kCrossLockHold,     // ordered component-lock set held by a cross batch
  kProducerStall,     // bounded-queue Push() blocked on a full inbox
  kCount,
};
const char* StageName(Stage s);

enum class Counter : uint8_t {
  kSubmitted = 0,     // ops admitted into the pipeline
  kRetired,           // ops retired (committed or failed) — progress axis
  kCommits,           // commits: every pipeline lane's, and a Scheduler's
                      // when given the registry
  kCrossShardOps,     // ops routed through the cross-shard lane
  kEscapedOps,        // footprint escapes surrendered for re-routing
  kCrossBatches,      // ordered-lock cross-shard batches
  // Doom/abort cause: which read class the invalidating probe hit
  // (ReadQueryKind order), plus cascade victims with no direct conflict.
  // Recorded by a Scheduler's probes (RunQueued's, on the facade); the
  // pipeline runs no concurrency control, so it records none.
  kDoomReadViolation,
  kDoomReadMoreSpecific,
  kDoomReadNullOccurrence,
  kDoomCascade,
  kCount,
};
const char* CounterName(Counter c);

enum class Gauge : uint8_t {
  kInboxDepth = 0,   // latest sampled shard-inbox depth (max = high water)
  kCrossInboxDepth,  // latest sampled cross-lane depth
  kCount,
};
const char* GaugeName(Gauge g);

inline constexpr size_t kNumStages = static_cast<size_t>(Stage::kCount);
inline constexpr size_t kNumCounters = static_cast<size_t>(Counter::kCount);
inline constexpr size_t kNumGauges = static_cast<size_t>(Gauge::kCount);
inline constexpr size_t kHistogramBuckets = 64;

// Returns the bucket index of `v`: 0 for 0, else bit_width(v) clamped to
// the last bucket.
inline size_t HistogramBucket(uint64_t v) {
  if (v == 0) return 0;
  const size_t width = 64 - static_cast<size_t>(__builtin_clzll(v));
  return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
}

// Inclusive upper bound of bucket `i` (0 for bucket 0).
inline uint64_t HistogramBucketUpper(size_t i) {
  if (i == 0) return 0;
  if (i >= 63) return UINT64_MAX;
  return (uint64_t{1} << i) - 1;
}

// Aggregated (plain, single-threaded) histogram, produced by Snapshot().
struct HistogramSnapshot {
  std::array<uint64_t, kHistogramBuckets> counts{};
  uint64_t total = 0;  // sample count
  uint64_t sum = 0;    // sum of samples (mean = sum / total)
  uint64_t max = 0;

  // Value at quantile q in [0, 1]: the upper bound of the bucket the rank
  // ceil(q * total) lands in, clamped to `max`. 0 when empty.
  uint64_t Percentile(double q) const;
  uint64_t p50() const { return Percentile(0.50); }
  uint64_t p90() const { return Percentile(0.90); }
  uint64_t p99() const { return Percentile(0.99); }

  void Merge(const HistogramSnapshot& other);
};

struct GaugeSnapshot {
  uint64_t value = 0;  // latest sample
  uint64_t max = 0;    // high watermark
};

struct MetricsSnapshot {
  std::array<HistogramSnapshot, kNumStages> stages;
  std::array<uint64_t, kNumCounters> counters{};
  std::array<GaugeSnapshot, kNumGauges> gauges;

  const HistogramSnapshot& stage(Stage s) const {
    return stages[static_cast<size_t>(s)];
  }
  uint64_t counter(Counter c) const {
    return counters[static_cast<size_t>(c)];
  }
  const GaugeSnapshot& gauge(Gauge g) const {
    return gauges[static_cast<size_t>(g)];
  }
};

// The registry. One per pipeline (or per facade); instrumented primitives
// hold a nullable pointer and skip recording when it is null.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Wait-free after this thread's first record against this registry (the
  // first allocates the thread's block under the unranked registration
  // mutex). Safe under any lock of the documented hierarchy.
  void RecordLatency(Stage s, uint64_t ns);
  void Add(Counter c, uint64_t delta = 1);
  // Stores the latest value and folds it into the gauge's high watermark.
  void SetGauge(Gauge g, uint64_t v);

  // Aggregates every thread's block. Consistent only at quiescent points;
  // concurrent recording yields a safe (torn-free per counter) but
  // non-atomic view — exactly what a monitoring surface needs.
  MetricsSnapshot Snapshot() const;

  // Sum of one counter across threads (the watchdog's progress axis).
  uint64_t CounterValue(Counter c) const;

  // Zeroes everything. Callers guarantee quiescence (bench arm resets).
  void Reset();

 private:
  struct ThreadBlock;
  ThreadBlock* BlockSlow();
  ThreadBlock* Block() {
    // Single-entry cache in thread-local storage; the common case (a
    // thread recording against one registry) never locks. Keyed by the
    // process-unique id — never by `this`, whose address a later registry
    // could reuse after this one is destroyed.
    return tls_hit_id_ == id_ ? tls_block_ : BlockSlow();
  }

  const uint64_t id_;  // process-unique; keys the TLS cache safely across
                       // registry destruction/reallocation
  // Registration + aggregation only. kUnranked: terminal lock, may be
  // taken while any ranked lock is held (see file comment).
  mutable Mutex mu_{LockRank::kUnranked};
  std::vector<std::unique_ptr<ThreadBlock>> blocks_ GUARDED_BY(mu_);

  // Gauges are set-latest, not per-thread accumulators.
  std::array<std::atomic<uint64_t>, kNumGauges> gauge_value_;
  std::array<std::atomic<uint64_t>, kNumGauges> gauge_max_;

  static thread_local uint64_t tls_hit_id_;
  static thread_local ThreadBlock* tls_block_;
};

// RAII latency sample: records `stage` with the scope's duration.
class ScopedLatency {
 public:
  ScopedLatency(MetricsRegistry* reg, Stage stage)
      : reg_(reg), stage_(stage), start_(reg ? MonotonicNs() : 0) {}
  ~ScopedLatency() {
    if (reg_ != nullptr) reg_->RecordLatency(stage_, MonotonicNs() - start_);
  }

  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  MetricsRegistry* reg_;
  Stage stage_;
  uint64_t start_;
};

}  // namespace obs
}  // namespace youtopia

#endif  // YOUTOPIA_OBS_METRICS_H_
