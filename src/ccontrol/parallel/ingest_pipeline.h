#ifndef YOUTOPIA_CCONTROL_PARALLEL_INGEST_PIPELINE_H_
#define YOUTOPIA_CCONTROL_PARALLEL_INGEST_PIPELINE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ccontrol/parallel/bounded_mpsc_queue.h"
#include "ccontrol/parallel/shard_map.h"
#include "ccontrol/parallel/worker_pool.h"
#include "ccontrol/scheduler.h"
#include "core/agent.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "relational/database.h"
#include "tgd/tgd.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace youtopia {

struct IngestOptions {
  // Worker threads requested; effective count is min(this, components).
  size_t num_workers = 2;
  // Cascading-abort algorithm of the embedded cross-shard engine (pinned
  // updates never abort, so the tracker only matters across shards).
  TrackerKind tracker = TrackerKind::kCoarse;
  size_t max_steps_per_update = 1u << 20;
  size_t max_attempts_per_update = 256;
  // First update number to assign (continues an external sequence).
  uint64_t first_number = 1;
  // Per-worker simulated users; see WorkerPoolOptions (pool agents use
  // indexes [0, shards)). The cross-shard engine's agent is
  // agent_factory(num_workers) when a factory is given.
  uint64_t agent_seed = 42;
  std::function<std::unique_ptr<FrontierAgent>(size_t)> agent_factory;
  // Credit capacity of every admission inbox (each shard's, and the
  // cross-shard lane's). A full inbox blocks or fast-fails the submitter —
  // the backpressure contract of the async facade.
  size_t inbox_capacity = 1024;
  // Metrics sink shared with the facade (stage histograms, counters,
  // gauges). nullptr = the pipeline owns a private registry; either way
  // metrics() exposes it. The registry serves monitoring only: it may be
  // shared and reset, so ParallelStats never reads it.
  obs::MetricsRegistry* metrics = nullptr;
  // Stall watchdog: if no op retires for this many milliseconds while work
  // is in flight, dump per-shard inbox depths, per-worker op/phase and
  // (checked builds) every thread's held-lock stack to stderr. 0 disables
  // (default: embedders opt in).
  uint64_t watchdog_deadline_ms = 0;
  // Abort the process after the first watchdog dump — turns a hung test
  // into a failing one (the tsan/asan serializability presets arm this).
  bool watchdog_fatal = false;
};

// Aggregated report of a pipeline's lifetime so far: SchedulerStats totals
// merged across every worker and the cross-shard engine, plus admission-
// and backpressure-level counts. Flush() assembles it from state the
// pipeline owns (the workers' and the engine's own counts), never from the
// metrics registry, so resetting or sharing the registry cannot skew it.
struct ParallelStats {
  SchedulerStats totals;
  uint64_t workers = 0;
  uint64_t pinned_updates = 0;       // ran zero-CC on a shard worker
  uint64_t cross_shard_updates = 0;  // admitted through the footprint-lock
                                     // protocol into the serial engine
  uint64_t escaped_updates = 0;      // pinned/batch attempts re-routed
                                     // (== totals.escaped_updates)
  uint64_t flushes = 0;              // Flush() barriers since construction
  // Backpressure observability: deepest any shard inbox ever got (bounded
  // by inbox_capacity unless escapes re-queued past it) and the cumulative
  // producer time spent blocked on full inboxes.
  uint64_t inbox_high_watermark = 0;
  double admission_stall_seconds = 0;
  // Per-shard completed pinned counts — per-shard throughput attribution.
  std::vector<uint64_t> shard_pinned;
};

// Producer-side outcome of IngestPipeline::Submit.
enum class SubmitResult {
  kOk = 0,
  kWouldBlock,  // target inbox full and the deadline passed
  kShutdown,    // pipeline stopped while (or before) the producer waited
};

// The standing ingest service: admission control layered over two
// long-lived execution engines, alive for the owning facade's lifetime.
//
//   * Single-shard updates (inserts and deletes — their tgd-closure
//     footprint is exactly one component) are pinned to the worker owning
//     that component's shard and run to completion with no concurrency
//     control on the hot path (WorkerPool; workers park on their bounded
//     inbox between ops).
//   * Cross-shard updates (null replacements, whose occurrence footprints
//     span any set of components; plus pinned attempts that escaped their
//     shard mid-chase) run through the existing serial Scheduler — read
//     log, retroactive conflict checks, cascading aborts — under the
//     footprint-lock protocol: each batch acquires its components' locks in
//     ascending representative-relation-id order, so it excludes exactly
//     the overlapping shards while disjoint workers keep draining, and two
//     admissions can never deadlock. A dedicated admission thread runs
//     these batches as ops arrive; each cross op carries the
//     pinned-submission watermark observed at its admission, and its batch
//     waits until the pool has processed that many pinned ops — so a
//     replacement sees every occurrence registered by pinned predecessors
//     it was submitted after, without ever waiting on traffic submitted
//     later (no quiescent point, no livelock under open-loop load).
//
// Priority numbers come from one atomic counter, claimed under the
// respective footprint locks, so number order and execution order agree
// wherever footprints overlap — the serialization-order guarantee of the
// serial scheduler (Theorem 4.4) carries over with "priority number"
// intact; see the proof sketch in RunCrossShardBatch.
//
// Threading contract: Submit may be called from any thread, including
// concurrently. Flush() runs on one thread at a time and must not race
// Stop(). Statistics and committed-op accessors are only meaningful at a
// Flush()/Stop() quiescent point.
class IngestPipeline {
 public:
  IngestPipeline(Database* db, const std::vector<Tgd>* tgds,
                 IngestOptions options);

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  // Stops the pipeline (drains whatever was admitted, then joins).
  ~IngestPipeline();

  // Routes the update: single-component ops go to their shard worker's
  // bounded inbox (workers start executing immediately); null replacements
  // — and inserts referencing a null that already occurs outside the
  // target component, which would otherwise grow a replacement footprint
  // under the wrong lock — go to the cross-shard admission lane. Blocks on
  // a full inbox until `deadline` (nullopt = forever; a past deadline
  // fast-fails with kWouldBlock).
  SubmitResult Submit(WriteOp op,
                      const std::optional<
                          std::chrono::steady_clock::time_point>& deadline =
                          std::nullopt);

  // Pure barrier: waits until every admitted op has retired (committed or
  // failed; escapes retire through their escalated re-run), then returns a
  // snapshot of the pipeline's lifetime statistics. It runs no op itself:
  // the workers and the admission thread do all execution. Under sustained
  // open-loop load from other threads this waits for the traffic admitted
  // at the moment the backlog empties — the usual barrier caveat.
  ParallelStats Flush();

  // Closes every inbox (blocked producers fail with kShutdown, already
  // admitted ops still drain) and joins all threads. Idempotent; the
  // destructor calls it.
  void Stop();

  const ShardMap& shard_map() const { return shard_map_; }

  // One past the highest priority number assigned; exact at a quiescent
  // point, a lower bound while traffic is in flight.
  uint64_t next_number() const {
    return next_number_.load(std::memory_order_relaxed);
  }

  // Claims one priority number from the pipeline's sequence — the facade
  // runs serial (non-pipeline) updates at a quiescent point and keeps the
  // global numbering shared with the standing pool.
  uint64_t ClaimNumber() {
    return next_number_.fetch_add(1, std::memory_order_relaxed);
  }

  // Raises the sequence floor to `n` (monotonic; the facade syncs back
  // after running an external engine over the same database).
  void AdvanceNumberTo(uint64_t n);

  // Stable worker thread ids — the "Flush must not recreate threads"
  // regression axis.
  std::vector<std::thread::id> WorkerThreadIds() const {
    return pool_->ThreadIds();
  }

  // The metrics registry every stage of this pipeline records into (the
  // one passed in IngestOptions, or the pipeline-owned fallback).
  obs::MetricsRegistry* metrics() const { return metrics_; }

  // Appends the stall-diagnostic report: in-flight count, cross-lane and
  // per-shard inbox depth/high-watermark, and each worker's current op
  // number and phase. Callable from any thread (reads atomics and snapshot
  // accessors); the watchdog dumps exactly this plus the held-lock stacks.
  void AppendDiagnostics(std::string* out) const;

  // Initial operations of every committed update in final priority-number
  // order — the serialization order the run is equivalent to. Quiescent
  // points only.
  std::vector<WriteOp> CommittedOpsInOrder() const;

  // Runs `fn` while holding the component lock covering `rel`. Relation
  // storage is mutated only under that lock (by the owning worker or an
  // overlapping cross-shard batch), so this is how a producer thread takes
  // a consistent read of live data — e.g. the facade's delete-by-content
  // row lookup — without quiescing the pipeline. Producer-side only; `fn`
  // must not submit or flush (the lock must stay a leaf here).
  template <typename Fn>
  auto WithComponentLock(RelationId rel, Fn&& fn) {
    MutexLock lock(component_locks_[shard_map_.ComponentOf(rel)]);
    return fn();
  }

 private:
  // One admission-lane item: the op, the pinned-submission watermark its
  // batch must wait for, and whether it re-runs escalated (all locks).
  struct CrossItem {
    WriteOp op;
    uint64_t barrier = 0;
    bool escalated = false;
    // Stamped at admission-lane push; measures the admission latency
    // (queue residency + barrier wait) when its batch starts running.
    uint64_t enqueue_ns = 0;
  };

  bool ClassifiesCross(const WriteOp& op) const;
  void AdmissionLoop();
  // Runs one admission round: `items` split into a normal batch (union
  // footprint locks) and an escalated batch (every lock), in that order.
  void ProcessCrossItems(std::vector<CrossItem> items);
  // Runs `ops` through an embedded serial Scheduler under the ordered
  // footprint locks; escalated batches hold every component lock and run
  // unrestricted (nothing can escape twice). Returns how many ops escaped
  // (they were re-queued through the escape sink and stay in flight).
  size_t RunCrossShardBatch(std::vector<WriteOp> ops, bool escalated);
  void EnqueueEscape(WriteOp op);
  // Marks `n` admitted ops retired and wakes Flush when the count zeroes.
  void RetireOps(uint64_t n);

  Database* db_;
  const std::vector<Tgd>* tgds_;
  IngestOptions options_;

  ShardMap shard_map_;
  // One footprint lock per component, indexed by component id (== ascending
  // representative relation id, the global acquisition order), ranked
  // kComponentLock and keyed by that id for the lock-order validator. A
  // deque, so each Mutex is constructed in place and never moves.
  std::deque<Mutex> component_locks_;
  std::atomic<uint64_t> next_number_;

  // Admitted-but-not-retired ops; the Flush barrier.
  std::atomic<uint64_t> in_flight_{0};
  Mutex flush_mu_{LockRank::kLeaf};
  CondVar flush_cv_;

  // Pinned ops admitted so far — the watermark cross ops capture.
  std::atomic<uint64_t> pinned_submitted_{0};

  // The cross-shard admission lane (user ops take the credit path; escape
  // re-routing ForcePushes — see BoundedMpscQueue).
  BoundedMpscQueue<CrossItem> cross_inbox_;

  // The cross-shard engine's private plan view, agent and bookkeeping.
  // The admission thread is their only owner; Flush() reads them after its
  // barrier, which happens-after the last retirement (see RetireOps).
  std::vector<Tgd> engine_tgds_;
  std::unique_ptr<FrontierAgent> engine_agent_;
  SchedulerStats engine_stats_;
  std::vector<std::pair<uint64_t, WriteOp>> engine_committed_;
  uint64_t engine_cross_ops_ = 0;  // non-escalated items admitted
  uint64_t flushes_ = 0;           // flusher-thread only

  // The registry every stage records into; owned_metrics_ backs it when
  // the embedder passed none.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;

  // Started after all execution threads, stopped first in Stop().
  std::unique_ptr<obs::StallWatchdog> watchdog_;

  bool stopped_ GUARDED_BY(flush_mu_) = false;

  std::unique_ptr<WorkerPool> pool_;  // before admission thread: it submits
  std::thread admission_thread_;      // started last
};

}  // namespace youtopia

#endif  // YOUTOPIA_CCONTROL_PARALLEL_INGEST_PIPELINE_H_
