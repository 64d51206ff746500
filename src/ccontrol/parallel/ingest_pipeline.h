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
#include "ccontrol/scheduler.h"
#include "core/agent.h"
#include "core/violation_detector.h"
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
  // Per-worker simulated users: shard i's worker gets agent_factory(i)
  // when a factory is given, else a RandomAgent derived from agent_seed and
  // i. Agents with per-call state (RandomAgent's RNG) must never be shared
  // across threads. The cross-shard engine's agent is
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
//     control on the hot path (one thread per shard, parked on the shard's
//     bounded inbox between ops; see RunPinned).
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
//     waits until the workers have processed that many pinned ops — so a
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
  // global numbering shared with the standing pipeline.
  uint64_t ClaimNumber() {
    return next_number_.fetch_add(1, std::memory_order_relaxed);
  }

  // Raises the sequence floor to `n` (monotonic; the facade syncs back
  // after running an external engine over the same database).
  void AdvanceNumberTo(uint64_t n);

  // Stable worker thread ids — the "Flush must not recreate threads"
  // regression axis.
  std::vector<std::thread::id> WorkerThreadIds() const;

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
  // One shard-inbox entry: a pinned op plus its inbox-entry timestamp
  // (MonotonicNs), the start of both its inbox wait and its whole-op commit
  // latency.
  struct PinnedItem {
    WriteOp op;
    uint64_t enqueue_ns = 0;
  };

  // One shard lane: its bounded inbox and the worker thread that drains
  // it, with everything the worker's hot path touches. Between Flush()
  // barriers only the worker touches `tgds` through `undo_scratch`.
  struct Shard {
    Shard(size_t capacity, const std::vector<Tgd>& base_tgds)
        : inbox(capacity), tgds(base_tgds), detector(&tgds) {}

    BoundedMpscQueue<PinnedItem> inbox;
    // The worker's private plan view: adaptive re-planning swaps plans on
    // this copy, never on a structure another thread reads. Copies share
    // compiled plans until the worker replans; `poller` keeps its
    // staleness watermark across flush epochs.
    std::vector<Tgd> tgds;
    // Its non-reentrant evaluator pair and their scratch amortize across
    // every update the worker runs.
    ViolationDetector detector;
    std::unique_ptr<FrontierAgent> agent;
    ReplanPoller poller;
    SchedulerStats stats;
    std::vector<std::pair<uint64_t, WriteOp>> committed;
    std::vector<std::pair<RelationId, RowId>> undo_scratch;
    // Watchdog-visible current work, published relaxed on transitions (the
    // dump tolerates tearing across workers): the number of the op in
    // flight (0 = none) and whether the worker has asked for its component
    // lock ("exclusive" with op 0 is a worker waiting on that lock).
    std::atomic<uint64_t> cur_number{0};
    std::atomic<bool> exclusive{false};
    std::thread thread;  // started after every lane is built
  };

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
  // A shard's worker: runs the inbox's ops one at a time until the inbox
  // is closed and empty.
  void WorkerLoop(Shard* s);
  // Runs `op` to a terminal state under its component lock with
  // concurrency control off: commits are recorded, escapes are undone and
  // re-routed through EnqueueEscape, step-cap failures leave their writes
  // in place. Returns false iff the op escaped (it stays in flight).
  // `enqueue_ns` is the op's inbox-entry stamp (0 = unknown).
  bool RunPinned(Shard* s, WriteOp op, uint64_t enqueue_ns);
  void AdmissionLoop();
  // Runs one admission round: `items` split into a normal batch (union
  // footprint locks) and an escalated batch (every lock), in that order.
  void ProcessCrossItems(std::vector<CrossItem> items);
  // Runs `ops` through an embedded serial Scheduler under the ordered
  // footprint locks; escalated batches hold every component lock and run
  // unrestricted (nothing can escape twice). Returns how many ops escaped
  // (they were re-queued through EnqueueEscape and stay in flight).
  size_t RunCrossShardBatch(std::vector<WriteOp> ops, bool escalated);
  // Re-routes an escaped op to the cross lane. Never blocks: callers may
  // hold component locks.
  void EnqueueEscape(WriteOp op);
  // Publishes `ops` admitted ops as retired and `pinned` inbox ops as
  // processed, with one lock and one wake-up for both barriers.
  void Retire(uint64_t ops, uint64_t pinned);

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

  // The retirement barrier. Both counts below change under retire_mu_,
  // except Submit's increment of in_flight_, which never ends a wait. So a
  // waiter between its predicate test and its sleep cannot miss a wake-up,
  // and a waiter that sees its count happens-after everything the retiring
  // thread wrote before it (stats, committed lists). Flush() waits for
  // in_flight_ to reach 0; the admission thread waits for
  // pinned_processed_ to reach its batch's watermark.
  Mutex retire_mu_{LockRank::kLeaf};
  CondVar retire_cv_;
  // Admitted ops not yet retired (committed or failed; an escaped op stays
  // in flight until its re-run retires).
  std::atomic<uint64_t> in_flight_{0};
  // Inbox ops the workers have processed: committed, failed or escaped.
  std::atomic<uint64_t> pinned_processed_{0};
  bool stopped_ GUARDED_BY(retire_mu_) = false;

  // Pinned ops admitted so far — the watermark cross ops capture.
  std::atomic<uint64_t> pinned_submitted_{0};

  // The cross-shard admission lane (user ops take the credit path; escape
  // re-routing ForcePushes — see BoundedMpscQueue).
  BoundedMpscQueue<CrossItem> cross_inbox_;

  // The cross-shard engine's private plan view, agent and bookkeeping.
  // The admission thread is their only owner; Flush() reads them after its
  // barrier, which happens-after the last retirement (see Retire).
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

  // One lane per shard (the shard map clamps the count to the components).
  std::vector<std::unique_ptr<Shard>> shards_;
  std::thread admission_thread_;  // started after the workers
};

}  // namespace youtopia

#endif  // YOUTOPIA_CCONTROL_PARALLEL_INGEST_PIPELINE_H_
