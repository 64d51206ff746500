#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <unordered_set>

namespace youtopia {
namespace obs {

const char* StageName(Stage s) {
  switch (s) {
    case Stage::kSubmit: return "submit";
    case Stage::kInboxWait: return "inbox_wait";
    case Stage::kAdmission: return "admission";
    case Stage::kAdmissionBarrier: return "admission_barrier";
    case Stage::kChase: return "chase";
    case Stage::kCommit: return "commit";
    case Stage::kCrossBatch: return "cross_batch";
    case Stage::kCrossLockHold: return "cross_lock_hold";
    case Stage::kProducerStall: return "producer_stall";
    case Stage::kCount: break;
  }
  return "?";
}

const char* CounterName(Counter c) {
  switch (c) {
    case Counter::kSubmitted: return "submitted";
    case Counter::kRetired: return "retired";
    case Counter::kCommits: return "commits";
    case Counter::kCrossShardOps: return "cross_shard_ops";
    case Counter::kEscapedOps: return "escaped_ops";
    case Counter::kCrossBatches: return "cross_batches";
    case Counter::kDoomReadViolation: return "doom_read_violation";
    case Counter::kDoomReadMoreSpecific: return "doom_read_more_specific";
    case Counter::kDoomReadNullOccurrence: return "doom_read_null_occurrence";
    case Counter::kDoomCascade: return "doom_cascade";
    case Counter::kCount: break;
  }
  return "?";
}

const char* GaugeName(Gauge g) {
  switch (g) {
    case Gauge::kInboxDepth: return "inbox_depth";
    case Gauge::kCrossInboxDepth: return "cross_inbox_depth";
    case Gauge::kCount: break;
  }
  return "?";
}

uint64_t HistogramSnapshot::Percentile(double q) const {
  if (total == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * total)));
  uint64_t seen = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    seen += counts[i];
    if (seen >= rank) return std::min(HistogramBucketUpper(i), max);
  }
  return max;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  for (size_t i = 0; i < kHistogramBuckets; ++i) counts[i] += other.counts[i];
  total += other.total;
  sum += other.sum;
  max = std::max(max, other.max);
}

// C++17 std::atomic default-construction leaves the value indeterminate, so
// the block zeroes itself explicitly.
struct MetricsRegistry::ThreadBlock {
  struct StageCell {
    std::atomic<uint64_t> counts[kHistogramBuckets];
    std::atomic<uint64_t> sum;
    std::atomic<uint64_t> max;
  };
  StageCell stages[kNumStages];
  std::atomic<uint64_t> counters[kNumCounters];

  ThreadBlock() { Zero(); }

  void Zero() {
    for (auto& cell : stages) {
      for (auto& c : cell.counts) c.store(0, std::memory_order_relaxed);
      cell.sum.store(0, std::memory_order_relaxed);
      cell.max.store(0, std::memory_order_relaxed);
    }
    for (auto& c : counters) c.store(0, std::memory_order_relaxed);
  }
};

namespace {

// Process-unique registry ids, plus the set of the ids still alive: a TLS
// cache entry whose id is not in the live set points into a destroyed
// registry and is pruned (never dereferenced — ids are never reused, so a
// stale entry can never falsely match a new registry).
std::atomic<uint64_t> next_registry_id{1};

std::mutex& LiveMu() {
  static std::mutex mu;
  return mu;
}
std::unordered_set<uint64_t>& LiveIds() {
  static std::unordered_set<uint64_t> ids;
  return ids;
}

struct TlsSlot {
  uint64_t id;
  void* block;
};
thread_local std::vector<TlsSlot> tls_slots;

}  // namespace

thread_local uint64_t MetricsRegistry::tls_hit_id_ = 0;
thread_local MetricsRegistry::ThreadBlock* MetricsRegistry::tls_block_ =
    nullptr;

MetricsRegistry::MetricsRegistry()
    : id_(next_registry_id.fetch_add(1, std::memory_order_relaxed)) {
  for (auto& g : gauge_value_) g.store(0, std::memory_order_relaxed);
  for (auto& g : gauge_max_) g.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> g(LiveMu());
  LiveIds().insert(id_);
}

MetricsRegistry::~MetricsRegistry() {
  std::lock_guard<std::mutex> g(LiveMu());
  LiveIds().erase(id_);
}

MetricsRegistry::ThreadBlock* MetricsRegistry::BlockSlow() {
  // Second-level TLS lookup: this thread may have recorded against this
  // registry before losing the single-entry cache to another registry.
  for (TlsSlot& slot : tls_slots) {
    if (slot.id == id_) {
      tls_hit_id_ = id_;
      tls_block_ = static_cast<ThreadBlock*>(slot.block);
      return tls_block_;
    }
  }
  // First record from this thread: prune entries of destroyed registries
  // (bounds TLS growth across many short-lived pipelines), then register a
  // fresh block.
  {
    std::lock_guard<std::mutex> g(LiveMu());
    auto& live = LiveIds();
    tls_slots.erase(std::remove_if(tls_slots.begin(), tls_slots.end(),
                                   [&](const TlsSlot& s) {
                                     return live.count(s.id) == 0;
                                   }),
                    tls_slots.end());
  }
  auto block = std::make_unique<ThreadBlock>();
  ThreadBlock* raw = block.get();
  {
    MutexLock lock(mu_);
    blocks_.push_back(std::move(block));
  }
  tls_slots.push_back({id_, raw});
  tls_hit_id_ = id_;
  tls_block_ = raw;
  return raw;
}

void MetricsRegistry::RecordLatency(Stage s, uint64_t ns) {
  ThreadBlock::StageCell& cell =
      Block()->stages[static_cast<size_t>(s)];
  cell.counts[HistogramBucket(ns)].fetch_add(1, std::memory_order_relaxed);
  cell.sum.fetch_add(ns, std::memory_order_relaxed);
  uint64_t cur = cell.max.load(std::memory_order_relaxed);
  while (ns > cur && !cell.max.compare_exchange_weak(
                         cur, ns, std::memory_order_relaxed)) {
  }
}

void MetricsRegistry::Add(Counter c, uint64_t delta) {
  Block()->counters[static_cast<size_t>(c)].fetch_add(
      delta, std::memory_order_relaxed);
}

void MetricsRegistry::SetGauge(Gauge g, uint64_t v) {
  const size_t i = static_cast<size_t>(g);
  gauge_value_[i].store(v, std::memory_order_relaxed);
  uint64_t cur = gauge_max_[i].load(std::memory_order_relaxed);
  while (v > cur && !gauge_max_[i].compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot out;
  MutexLock lock(mu_);
  for (const auto& block : blocks_) {
    for (size_t s = 0; s < kNumStages; ++s) {
      const ThreadBlock::StageCell& cell = block->stages[s];
      HistogramSnapshot& h = out.stages[s];
      for (size_t i = 0; i < kHistogramBuckets; ++i) {
        const uint64_t n = cell.counts[i].load(std::memory_order_relaxed);
        h.counts[i] += n;
        h.total += n;
      }
      h.sum += cell.sum.load(std::memory_order_relaxed);
      h.max = std::max(h.max, cell.max.load(std::memory_order_relaxed));
    }
    for (size_t c = 0; c < kNumCounters; ++c) {
      out.counters[c] += block->counters[c].load(std::memory_order_relaxed);
    }
  }
  for (size_t g = 0; g < kNumGauges; ++g) {
    out.gauges[g].value = gauge_value_[g].load(std::memory_order_relaxed);
    out.gauges[g].max = gauge_max_[g].load(std::memory_order_relaxed);
  }
  return out;
}

uint64_t MetricsRegistry::CounterValue(Counter c) const {
  uint64_t sum = 0;
  MutexLock lock(mu_);
  for (const auto& block : blocks_) {
    sum += block->counters[static_cast<size_t>(c)].load(
        std::memory_order_relaxed);
  }
  return sum;
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  for (const auto& block : blocks_) block->Zero();
  for (auto& g : gauge_value_) g.store(0, std::memory_order_relaxed);
  for (auto& g : gauge_max_) g.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace youtopia
