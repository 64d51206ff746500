#ifndef YOUTOPIA_CCONTROL_PARALLEL_WORKER_POOL_H_
#define YOUTOPIA_CCONTROL_PARALLEL_WORKER_POOL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "ccontrol/parallel/bounded_mpsc_queue.h"
#include "ccontrol/parallel/shard_map.h"
#include "ccontrol/scheduler.h"
#include "core/agent.h"
#include "core/update.h"
#include "core/violation_detector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/database.h"
#include "tgd/tgd.h"
#include "util/mutex.h"

namespace youtopia {

// One shard-inbox entry: a pinned operation plus its inbox-entry timestamp
// (MonotonicNs), the start of both its inbox-wait and its whole-op commit
// latency.
struct PinnedItem {
  WriteOp op;
  uint64_t enqueue_ns = 0;
};

// Watchdog-visible execution phase of a worker, published with relaxed
// atomics on every transition (cheap enough for the hot path; the reader
// is a diagnostic dump that tolerates tearing across workers).
enum class WorkerPhase : uint8_t {
  kIdle = 0,   // parked on the inbox
  kExclusive,  // zero-CC chase under the exclusive component lock
};

inline const char* WorkerPhaseName(WorkerPhase p) {
  switch (p) {
    case WorkerPhase::kIdle: return "idle";
    case WorkerPhase::kExclusive: return "exclusive";
  }
  return "?";
}

struct WorkerPoolOptions {
  // Upper bound on shard lanes; the pool creates one lane per shard (at
  // most num_components, see ShardMap).
  size_t num_workers = 2;
  size_t max_steps_per_update = 1u << 20;
  // Credit capacity of each shard inbox. A full inbox is the backpressure
  // signal: Submit blocks (or fast-fails) until the owning worker frees a
  // slot. Per-inbox, so one hot shard cannot starve admission to the rest.
  size_t inbox_capacity = 1024;
  // Per-worker simulated user: agent_factory(shard) when supplied, else a
  // RandomAgent derived from agent_seed and the shard index. Agents with
  // per-call state (RandomAgent's RNG) must never be shared across threads.
  uint64_t agent_seed = 42;
  std::function<std::unique_ptr<FrontierAgent>(size_t)> agent_factory;
  // Sink for surrendered escape ops. Invoked on the worker thread while the
  // op's component lock may still be held, so it MUST NOT block (the
  // pipeline re-routes through a ForcePush lane). Required.
  std::function<void(WriteOp)> escape_sink;
  // Invoked once per inbox op that retires on the pinned path — committed
  // or failed, NOT escaped (an escaped op stays logically in flight; the
  // escape_sink carries it on). Runs on the worker thread after the
  // component lock is released. Optional.
  std::function<void()> on_op_retired;
  // Optional metrics sink threaded through the inboxes and workers
  // (inbox-wait/chase/commit histograms, commit counter, depth gauges).
  obs::MetricsRegistry* metrics = nullptr;
};

// The pinned execution engine of the sharded parallel chase: one long-lived
// thread per shard, owning everything its hot path touches —
//   * a private copy of the tgd vector (the thread's *plan view*: adaptive
//     re-planning swaps plans on the copy, never on a structure another
//     thread reads; the copy is made once, at pool construction, and the
//     thread-persistent ReplanPoller watermark refreshes it in place across
//     flush epochs),
//   * a ViolationDetector whose non-reentrant evaluator pair (and its
//     scratch) amortizes across every update the thread runs, and
//   * a FrontierAgent.
// Each shard owns one bounded inbox (BoundedMpscQueue) the submission
// threads route work into; its worker parks on it between ops instead of
// exiting.
//
// A shard's worker drains the inbox one update at a time: it takes the
// update's component lock, claims a fresh global priority number, and runs
// the chase with concurrency control switched off — serial execution per
// component plus disjointness across components makes the run trivially
// serializable in number order.
//
// Admission is scoped to the op's component: an update whose chase would
// leave it (a unification replacing a cross-component null — even one
// whose other occurrences live in a sibling component of the same shard) is
// undone via its tracked writes and surrendered through the escape sink for
// the cross-shard engine to re-run under the wider lock set.
class WorkerPool {
 public:
  WorkerPool(Database* db, const std::vector<Tgd>& tgds,
             const ShardMap* shards, std::deque<Mutex>* component_locks,
             std::atomic<uint64_t>* next_number, WorkerPoolOptions options);

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Closes every inbox (the backlog still drains) and joins the threads.
  ~WorkerPool();

  // Explicit shutdown: closes every inbox — blocked and future Submits fail
  // with kClosed, already queued ops still drain, escapes still reach the
  // sink — then joins the threads. Idempotent; the destructor calls it.
  // Aggregate accessors stay valid afterwards (the threads are gone but the
  // per-worker state remains).
  void Shutdown();

  size_t num_workers() const { return shards_.size(); }

  // Routes `op` (an insert or delete; null replacements are cross-shard by
  // definition) to the shard owning its relation, blocking on a full inbox
  // until `deadline` (nullopt = forever; a past deadline is the fast-fail
  // mode). Thread-safe.
  QueuePush Submit(WriteOp op,
                   const std::optional<std::chrono::steady_clock::time_point>&
                       deadline = std::nullopt);

  // Blocks until at least `count` inbox ops have been processed (committed,
  // failed, or surrendered as escapes) since construction. The cross-shard
  // admission thread uses this as its per-batch barrier: a batch waits for
  // exactly the pinned ops submitted before it, never for later traffic.
  void WaitProcessedAtLeast(uint64_t count);

  // Monotonic count of inbox ops processed (the WaitProcessedAtLeast axis).
  uint64_t processed() const {
    return processed_.load(std::memory_order_acquire);
  }

  // The following aggregate across workers; call only while idle.
  SchedulerStats MergedStats() const;
  // Per-shard completed pinned counts (throughput attribution).
  std::vector<uint64_t> PinnedPerShard() const;
  // Committed (number, initial op) pairs of every worker, globally sorted
  // by number — the pinned half of the run's serialization order.
  std::vector<std::pair<uint64_t, WriteOp>> CommittedOpsWithNumbers() const;

  // Observability of the bounded inboxes; safe to call any time.
  size_t InboxHighWatermark() const;   // max depth any shard inbox reached
  double AdmissionStallSeconds() const;  // total producer blocked time

  // --- Watchdog diagnostics (any thread, racy-by-design snapshots) ---

  struct WorkerPhaseInfo {
    uint32_t shard = 0;
    uint64_t number = 0;  // number of the op in flight (0 = none)
    WorkerPhase phase = WorkerPhase::kIdle;
  };
  std::vector<WorkerPhaseInfo> PhaseSnapshot() const;

  struct InboxInfo {
    uint32_t shard = 0;
    size_t depth = 0;
    size_t high_watermark = 0;
  };
  std::vector<InboxInfo> InboxSnapshot() const;

  // Stable for the pool's lifetime — the regression axis for "Flush must
  // not recreate threads".
  std::vector<std::thread::id> ThreadIds() const;

 private:
  // Per-thread execution state, one per shard.
  struct Worker {
    explicit Worker(const std::vector<Tgd>& base_tgds)
        : tgds(base_tgds), detector(&tgds) {}

    std::vector<Tgd> tgds;  // private plan view (copies share compiled
                            // plans until this worker replans)
    ViolationDetector detector;
    std::unique_ptr<FrontierAgent> agent;
    ReplanPoller poller;  // thread-persistent staleness watermark

    SchedulerStats stats;
    std::vector<std::pair<uint64_t, WriteOp>> committed;
    std::vector<std::pair<RelationId, RowId>> undo_scratch;

    // Watchdog-visible current work, published relaxed on transitions.
    std::atomic<uint64_t> cur_number{0};
    std::atomic<WorkerPhase> cur_phase{WorkerPhase::kIdle};

    std::thread thread;  // started last, after every field is live
  };

  struct Shard {
    Shard(size_t capacity, const std::vector<Tgd>& tgds)
        : inbox(capacity), worker(tgds) {}
    BoundedMpscQueue<PinnedItem> inbox;
    Worker worker;
  };

  // Terminal state of one pinned op.
  enum class Outcome { kCommitted, kFailed, kEscaped };

  void WorkerLoop(Shard* s);
  // Runs `op` to a terminal state under its component lock with
  // concurrency control off: commits are recorded, escapes are undone and
  // routed through the sink, step-cap failures leave their writes in
  // place. `enqueue_ns` is the op's inbox-entry stamp (0 = unknown) — the
  // start of its whole-op commit latency.
  Outcome RunExclusive(Worker* w, WriteOp op, uint64_t enqueue_ns);
  // Publishes one processed op to the processed barrier; fires
  // on_op_retired when `retired`.
  void Retire(bool retired);

  Database* db_;
  const ShardMap* shard_map_;
  std::deque<Mutex>* component_locks_;
  std::atomic<uint64_t>* next_number_;
  WorkerPoolOptions options_;

  std::vector<std::unique_ptr<Shard>> shards_;

  // Inbox ops processed since construction; the cross-batch barrier.
  std::atomic<uint64_t> processed_{0};
  // Barrier lock: the counter is atomic (lock-free readers), but its
  // increments publish under processed_mu_ so waiters can't miss a wakeup.
  Mutex processed_mu_{LockRank::kLeaf};
  CondVar processed_cv_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_CCONTROL_PARALLEL_WORKER_POOL_H_
