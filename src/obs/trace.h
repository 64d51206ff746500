#ifndef YOUTOPIA_OBS_TRACE_H_
#define YOUTOPIA_OBS_TRACE_H_

// Chrome trace-event / Perfetto recorder for the op lifecycle: per-thread
// fixed-capacity ring buffers of complete ("X") and instant ("i") events,
// merged and sorted into a single JSON file on Dump — loadable directly in
// ui.perfetto.dev or chrome://tracing.
//
// Cost model: tracing is runtime-disabled by default; a disarmed TraceSpan
// is one relaxed atomic load and a branch. When armed, recording an event
// takes the owning thread's ring mutex — a terminal, uncontended-by-design
// std-mutex (the only cross-thread acquirer is Dump/Clear), kept outside
// the LockOrderValidator hierarchy like every other obs lock, so spans may
// be recorded under any combination of component and leaf locks.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace youtopia {
namespace obs {

// Event names, fixed at compile time so a ring slot stores one byte.
enum class TraceName : uint8_t {
  // Spans ("X").
  kSubmit = 0,        // producer-side Submit()
  kOp,                // one worker-side op, pop -> terminal state
  kChase,             // one chase attempt
  kCommit,            // commit point (args.op = final priority number)
  kCrossBatch,        // one cross-shard admission round
  kCrossLockHold,     // ordered component-lock set held
  kAdmissionBarrier,  // pinned-watermark wait
  // Instants ("i").
  kEscape,            // footprint escape surrendered for re-routing
  kAbort,             // serial-engine abort
  kCount,
};
const char* TraceNameStr(TraceName n);

// Process-wide trace recorder. Rings are created per thread on first use
// and live for the process (threads come and go; their events keep their
// stable tid in the merged dump).
class Tracer {
 public:
  static Tracer& Global();

  void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Records one complete event [start_ns, end_ns] on this thread's ring.
  void RecordSpan(TraceName name, uint64_t start_ns, uint64_t end_ns,
                  uint64_t arg);
  // Records one instant event.
  void RecordInstant(TraceName name, uint64_t arg);

  // Merges every ring (sorted by timestamp) into Chrome trace-event JSON.
  // Returns false on I/O failure.
  bool DumpJson(const std::string& path) const;

  // Drops every recorded event (rings stay registered). Tests and bench
  // arms call this at quiescent points between runs.
  void Clear();

  // Total events currently held and total overwritten by ring wraparound.
  uint64_t EventCountForTest() const;
  uint64_t DroppedCountForTest() const;

  // Ring capacity (events per thread) for rings created AFTER the call —
  // tests shrink it to exercise wraparound. Existing rings keep theirs.
  void SetRingCapacity(size_t events);

 private:
  Tracer() = default;

  struct Event {
    uint64_t ts_ns;
    uint64_t dur_ns;  // 0 for instants
    uint64_t arg;
    TraceName name;
    bool instant;
  };
  struct Ring {
    explicit Ring(uint32_t id, size_t capacity) : tid(id), cap(capacity) {}
    const uint32_t tid;
    const size_t cap;
    mutable Mutex mu{LockRank::kUnranked};
    std::vector<Event> events GUARDED_BY(mu);  // ring storage
    size_t next GUARDED_BY(mu) = 0;            // overwrite cursor
    bool wrapped GUARDED_BY(mu) = false;
    uint64_t dropped GUARDED_BY(mu) = 0;
  };

  Ring* MyRing();
  void Record(const Event& e);

  std::atomic<bool> enabled_{false};
  std::atomic<size_t> ring_capacity_{1u << 15};
  mutable Mutex rings_mu_{LockRank::kUnranked};
  std::vector<std::unique_ptr<Ring>> rings_ GUARDED_BY(rings_mu_);

  static thread_local Ring* tls_ring_;
};

// RAII span: arms itself only when tracing is enabled at construction.
class TraceSpan {
 public:
  explicit TraceSpan(TraceName name, uint64_t arg = 0) {
    if (Tracer::Global().enabled()) {
      name_ = name;
      arg_ = arg;
      start_ = MonotonicNs();
      armed_ = true;
    }
  }
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  // Attaches the op number once it is known (claimed mid-span).
  void set_arg(uint64_t arg) { arg_ = arg; }

  void End() {
    if (armed_) {
      armed_ = false;
      Tracer::Global().RecordSpan(name_, start_, MonotonicNs(), arg_);
    }
  }

 private:
  TraceName name_ = TraceName::kOp;
  uint64_t arg_ = 0;
  uint64_t start_ = 0;
  bool armed_ = false;
};

inline void TraceInstant(TraceName name, uint64_t arg = 0) {
  Tracer& t = Tracer::Global();
  if (t.enabled()) t.RecordInstant(name, arg);
}

// Records a commit span for op `number` at the commit point: a minimal-
// duration complete event whose args.op the trace checker keys coverage on.
inline void TraceCommit(uint64_t number) {
  Tracer& t = Tracer::Global();
  if (t.enabled()) {
    const uint64_t now = MonotonicNs();
    t.RecordSpan(TraceName::kCommit, now, now, number);
  }
}

}  // namespace obs
}  // namespace youtopia

#endif  // YOUTOPIA_OBS_TRACE_H_
