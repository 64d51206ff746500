#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace youtopia {
namespace obs {

const char* TraceNameStr(TraceName n) {
  switch (n) {
    case TraceName::kSubmit: return "submit";
    case TraceName::kOp: return "op";
    case TraceName::kChase: return "chase";
    case TraceName::kCommit: return "commit";
    case TraceName::kCrossBatch: return "cross_batch";
    case TraceName::kCrossLockHold: return "cross_lock_hold";
    case TraceName::kAdmissionBarrier: return "admission_barrier";
    case TraceName::kEscape: return "escape";
    case TraceName::kAbort: return "abort";
    case TraceName::kCount: break;
  }
  return "?";
}

thread_local Tracer::Ring* Tracer::tls_ring_ = nullptr;

Tracer& Tracer::Global() {
  // Leaked singleton: rings must outlive every recording thread, including
  // detached late-exiting ones, and static destruction order must never
  // race a worker's last span.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Ring* Tracer::MyRing() {
  if (tls_ring_ != nullptr) return tls_ring_;
  auto ring = std::make_unique<Ring>(
      /*id=*/0, ring_capacity_.load(std::memory_order_relaxed));
  Ring* raw = nullptr;
  {
    MutexLock lock(rings_mu_);
    // tid = registration order, stable for the dump.
    ring = std::make_unique<Ring>(static_cast<uint32_t>(rings_.size() + 1),
                                  ring->cap);
    raw = ring.get();
    rings_.push_back(std::move(ring));
  }
  tls_ring_ = raw;
  return raw;
}

void Tracer::Record(const Event& e) {
  Ring* r = MyRing();
  MutexLock lock(r->mu);
  if (r->events.size() < r->cap) {
    r->events.push_back(e);
    return;
  }
  if (r->cap == 0) {
    ++r->dropped;
    return;
  }
  // Wraparound: overwrite the oldest slot (ring keeps the newest window).
  r->events[r->next] = e;
  r->next = (r->next + 1) % r->cap;
  r->wrapped = true;
  ++r->dropped;
}

void Tracer::RecordSpan(TraceName name, uint64_t start_ns, uint64_t end_ns,
                        uint64_t arg) {
  Record(Event{start_ns, end_ns >= start_ns ? end_ns - start_ns : 0, arg,
               name, /*instant=*/false});
}

void Tracer::RecordInstant(TraceName name, uint64_t arg) {
  Record(Event{MonotonicNs(), 0, arg, name, /*instant=*/true});
}

void Tracer::Clear() {
  MutexLock lock(rings_mu_);
  for (const auto& ring : rings_) {
    MutexLock rl(ring->mu);
    ring->events.clear();
    ring->next = 0;
    ring->wrapped = false;
    ring->dropped = 0;
  }
}

uint64_t Tracer::EventCountForTest() const {
  uint64_t n = 0;
  MutexLock lock(rings_mu_);
  for (const auto& ring : rings_) {
    MutexLock rl(ring->mu);
    n += ring->events.size();
  }
  return n;
}

uint64_t Tracer::DroppedCountForTest() const {
  uint64_t n = 0;
  MutexLock lock(rings_mu_);
  for (const auto& ring : rings_) {
    MutexLock rl(ring->mu);
    n += ring->dropped;
  }
  return n;
}

void Tracer::SetRingCapacity(size_t events) {
  ring_capacity_.store(events, std::memory_order_relaxed);
}

bool Tracer::DumpJson(const std::string& path) const {
  struct Tagged {
    Event e;
    uint32_t tid;
  };
  std::vector<Tagged> all;
  {
    MutexLock lock(rings_mu_);
    for (const auto& ring : rings_) {
      MutexLock rl(ring->mu);
      all.reserve(all.size() + ring->events.size());
      for (const Event& e : ring->events) all.push_back({e, ring->tid});
    }
  }
  // Sort by start time (ties: longer span first, so a zero-duration child
  // at its parent's start keeps nesting order in the file).
  std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    if (a.e.ts_ns != b.e.ts_ns) return a.e.ts_ns < b.e.ts_ns;
    return a.e.dur_ns > b.e.dur_ns;
  });
  const uint64_t t0 = all.empty() ? 0 : all.front().e.ts_ns;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"youtopia\"}}");
  for (const Tagged& t : all) {
    // Microsecond timestamps with nanosecond precision, rebased to the
    // first event so the doubles stay exact.
    const double ts = static_cast<double>(t.e.ts_ns - t0) / 1000.0;
    if (t.e.instant) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"pipeline\",\"ph\":\"i\","
                   "\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"op\":%" PRIu64 "}}",
                   TraceNameStr(t.e.name), ts, t.tid, t.e.arg);
    } else {
      const double dur = static_cast<double>(t.e.dur_ns) / 1000.0;
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"pipeline\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"op\":%" PRIu64 "}}",
                   TraceNameStr(t.e.name), ts, dur, t.tid, t.e.arg);
    }
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::fclose(f) == 0;
  return ok;
}

}  // namespace obs
}  // namespace youtopia
