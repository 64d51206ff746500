#ifndef YOUTOPIA_CCONTROL_PARALLEL_BOUNDED_MPSC_QUEUE_H_
#define YOUTOPIA_CCONTROL_PARALLEL_BOUNDED_MPSC_QUEUE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace youtopia {

// Outcome of a producer-side push against a bounded queue.
enum class QueuePush {
  kOk = 0,
  kWouldBlock,  // queue full and the deadline passed (or was immediate)
  kClosed,      // queue shut down while (or before) the producer waited
};

// A bounded blocking multi-producer inbox — the admission edge of the
// standing ingest pipeline. Capacity works like credits: a producer that
// finds the queue full blocks until the consumer frees a slot, until its
// deadline expires (kWouldBlock), or until shutdown (kClosed). That blocked
// time IS the system's backpressure signal, so the queue accounts it
// (stall_seconds) along with the depth high-watermark.
//
// Single-consumer in use (one worker per shard inbox, one admission thread
// on the cross lane), though the mutex-guarded WaitPop/TryPop would also
// serve several consumers as-is.
//
// The pinned chase hot path never touches the queue mid-update — one pop
// admits one whole update — so queue overhead is per-update, not per-step,
// and a mutex-guarded deque with two condition variables is the whole
// implementation; lock-free cleverness would buy nothing measurable.
//
// ForcePush deliberately ignores the capacity: internal re-routing (escape
// surrender, engine re-queues) may run while holding component locks that
// the consumer needs to make progress, so blocking there could deadlock.
// Only user-facing admission takes the credit path. The queue mutex is a
// leaf of the lock hierarchy for exactly that reason — ForcePush runs with
// component locks held (a worker's own, or a cross batch's whole set).
template <typename T>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(size_t capacity) : capacity_(capacity) {
    CHECK_GT(capacity, 0u);
  }
  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  // Attaches an optional metrics sink: producer-stall latencies plus a
  // depth gauge (latest sampled depth; the gauge's high watermark tracks
  // the deepest any attached queue got). Call before producers start; the
  // recording itself is rank-safe under the leaf queue mutex.
  void SetMetrics(obs::MetricsRegistry* reg, obs::Gauge depth_gauge) {
    metrics_ = reg;
    depth_gauge_ = depth_gauge;
  }

  // Producer. Blocks while the queue is at capacity: forever when `deadline`
  // is nullopt, else until `deadline` (a deadline in the past is the
  // fast-fail mode — the lock is taken but nothing ever waits).
  QueuePush Push(T item,
                 const std::optional<std::chrono::steady_clock::time_point>&
                     deadline = std::nullopt) {
    {
      MutexLock lock(mu_);
      if (items_.size() >= capacity_ && !closed_) {
        const auto stall_start = std::chrono::steady_clock::now();
        while (items_.size() >= capacity_ && !closed_) {
          if (deadline.has_value()) {
            if (can_push_.WaitUntil(mu_, *deadline) ==
                std::cv_status::timeout) {
              break;
            }
          } else {
            can_push_.Wait(mu_);
          }
        }
        const uint64_t stalled = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - stall_start)
                .count());
        stall_ns_.fetch_add(stalled, std::memory_order_relaxed);
        if (metrics_ != nullptr) {
          metrics_->RecordLatency(obs::Stage::kProducerStall, stalled);
        }
        if (!closed_ && items_.size() >= capacity_) {
          return QueuePush::kWouldBlock;
        }
      }
      if (closed_) return QueuePush::kClosed;
      items_.push_back(std::move(item));
      if (items_.size() > high_watermark_) high_watermark_ = items_.size();
      if (metrics_ != nullptr) metrics_->SetGauge(depth_gauge_, items_.size());
    }
    can_pop_.NotifyOne();
    return QueuePush::kOk;
  }

  // Producer, internal lanes only: never blocks and never fails — not even
  // on a full or closed queue (see the class comment). Re-routed work is
  // part of the already-admitted backlog, so it must land during shutdown
  // drain too; callers are responsible for pushing only while the consumer
  // is still guaranteed to drain (the pipeline's join order ensures this).
  void ForcePush(T item) {
    {
      MutexLock lock(mu_);
      items_.push_back(std::move(item));
      if (items_.size() > high_watermark_) high_watermark_ = items_.size();
      if (metrics_ != nullptr) metrics_->SetGauge(depth_gauge_, items_.size());
    }
    can_pop_.NotifyOne();
  }

  // Consumer: blocks until an item arrives or the queue is closed and
  // drained. Returns false only in the latter case (shutdown).
  bool WaitPop(T* out) {
    {
      MutexLock lock(mu_);
      while (items_.empty() && !closed_) can_pop_.Wait(mu_);
      if (items_.empty()) return false;
      *out = std::move(items_.front());
      items_.pop_front();
      if (metrics_ != nullptr) metrics_->SetGauge(depth_gauge_, items_.size());
    }
    can_push_.NotifyOne();
    return true;
  }

  // Consumer: non-blocking variant.
  bool TryPop(T* out) {
    {
      MutexLock lock(mu_);
      if (items_.empty()) return false;
      *out = std::move(items_.front());
      items_.pop_front();
      if (metrics_ != nullptr) metrics_->SetGauge(depth_gauge_, items_.size());
    }
    can_push_.NotifyOne();
    return true;
  }

  // Wakes every blocked producer (they return kClosed without enqueueing)
  // and consumer; subsequent WaitPops drain the backlog, then return false.
  void Close() {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    can_pop_.NotifyAll();
    can_push_.NotifyAll();
  }

  size_t size() const {
    MutexLock lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  // Deepest the queue has ever been. Under credit-only producers this never
  // exceeds capacity(); ForcePush lanes can exceed it.
  size_t high_watermark() const {
    MutexLock lock(mu_);
    return high_watermark_;
  }

  // Cumulative producer time spent blocked waiting for a free slot.
  double stall_seconds() const {
    return static_cast<double>(stall_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

 private:
  mutable Mutex mu_{LockRank::kLeaf};
  CondVar can_pop_;
  CondVar can_push_;
  std::deque<T> items_ GUARDED_BY(mu_);
  const size_t capacity_;
  size_t high_watermark_ GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> stall_ns_{0};
  bool closed_ GUARDED_BY(mu_) = false;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Gauge depth_gauge_ = obs::Gauge::kInboxDepth;
};

}  // namespace youtopia

#endif  // YOUTOPIA_CCONTROL_PARALLEL_BOUNDED_MPSC_QUEUE_H_
