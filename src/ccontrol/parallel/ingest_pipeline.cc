#include "ccontrol/parallel/ingest_pipeline.h"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "core/update.h"
#include "query/plan.h"

namespace youtopia {

namespace {

// Upper bound on cross-lane items admitted into one engine run: enough to
// amortize lock acquisition and conflict tracking over a burst, small
// enough that one batch never holds its footprint locks for long.
constexpr size_t kMaxCrossBatch = 64;

}  // namespace

IngestPipeline::IngestPipeline(Database* db, const std::vector<Tgd>* tgds,
                               IngestOptions options)
    : db_(db),
      tgds_(tgds),
      options_(std::move(options)),
      // Constructed before any worker exists, so the skew-aware balance may
      // read the pre-seeded relations' owner-only statistics (shard_map.h).
      shard_map_(db->num_relations(), *tgds,
                 std::max<size_t>(options_.num_workers, 1), db),
      next_number_(options_.first_number),
      cross_inbox_(options_.inbox_capacity) {
  // Metrics plumbing before any thread exists: every stage below records
  // into one registry (the embedder's or a pipeline-owned fallback).
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  cross_inbox_.SetMetrics(metrics_, obs::Gauge::kCrossInboxDepth);
  // Component locks sit at the top of the lock hierarchy; their validator
  // key is the component id, whose ascending order is exactly the legal
  // multi-acquisition order (cross-shard batches).
  for (size_t c = 0; c < shard_map_.num_components(); ++c) {
    component_locks_.emplace_back(LockRank::kComponentLock, c);
  }
  // Setup-time plan registration, single-threaded: recompile every
  // mapping's plan complement against the live database and register its
  // composite-index demands once. The engine view and the worker plan
  // views copied below share these compiled complements until their own
  // adaptive re-planning diverges them; no engine recompiles at
  // construction again (Scheduler runs with register_plans off).
  for (const Tgd& tgd : *tgds_) {
    tgd.RecompilePlans(db_);
    EnsureTgdPlanIndexes(db_, tgd.plans());
  }
  engine_tgds_ = *tgds_;
  engine_agent_ =
      options_.agent_factory
          ? options_.agent_factory(options_.num_workers)
          : std::make_unique<RandomAgent>(options_.agent_seed ^
                                          0xc2b2ae3d27d4eb4fULL);

  // One lane per shard: the shard map already clamped the shard count to
  // min(requested workers, components). Workers start only once every
  // lane is built: a worker touches only its own lane, but the loop takes
  // `this`.
  const size_t num_shards = shard_map_.num_shards();
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto s = std::make_unique<Shard>(options_.inbox_capacity, *tgds_);
    s->inbox.SetMetrics(metrics_, obs::Gauge::kInboxDepth);
    s->agent = options_.agent_factory
                   ? options_.agent_factory(i)
                   : std::make_unique<RandomAgent>(
                         options_.agent_seed + 0x9e3779b97f4a7c15ULL * (i + 1));
    shards_.push_back(std::move(s));
  }
  for (auto& s : shards_) {
    s->thread = std::thread(&IngestPipeline::WorkerLoop, this, s.get());
  }

  // The admission thread starts after the workers, once every structure
  // it reads is live.
  admission_thread_ = std::thread(&IngestPipeline::AdmissionLoop, this);

  // Watchdog last, once every structure its dump reads is live. Progress
  // axis is the retired-op counter: pinned commits, cross commits, failed
  // and rejected ops all advance it, so the only way it freezes with work
  // in flight is a genuine stall (deadlock, livelock, or a lost wakeup).
  if (options_.watchdog_deadline_ms > 0) {
    obs::WatchdogOptions wd;
    wd.deadline_ms = options_.watchdog_deadline_ms;
    wd.name = "ingest-pipeline";
    wd.fatal = options_.watchdog_fatal;
    wd.progress = [this] {
      return metrics_->CounterValue(obs::Counter::kRetired);
    };
    wd.busy = [this] {
      return in_flight_.load(std::memory_order_acquire) > 0;
    };
    wd.dump = [this](std::string* out) { AppendDiagnostics(out); };
    watchdog_ = std::make_unique<obs::StallWatchdog>(std::move(wd));
    watchdog_->Start();
  }
}

IngestPipeline::~IngestPipeline() { Stop(); }

bool IngestPipeline::ClassifiesCross(const WriteOp& op) const {
  if (op.kind == WriteOp::Kind::kNullReplace) return true;
  if (op.kind != WriteOp::Kind::kInsert) return false;
  // An insert referencing a pre-existing null that already occurs outside
  // the op's component would, if pinned, grow that null's occurrence set
  // under only its own component lock — silently widening the footprint of
  // any concurrent replacement of the null. Such inserts are cross-shard:
  // the batch locks the union footprint and the replacement machinery sees
  // a stable occurrence set. (The registry read is mutex-protected, so
  // classifying while workers run is safe; null-free inserts — the common
  // case — skip it entirely.)
  bool has_null = false;
  for (const Value& v : op.data) has_null |= v.is_null();
  if (!has_null) return false;
  std::vector<uint32_t> fp;
  shard_map_.FootprintOf(op, *db_, &fp);
  return fp.size() > 1;
}

SubmitResult IngestPipeline::Submit(
    WriteOp op,
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  // The op counts as in flight before it can possibly be popped, so a
  // concurrent Flush barrier can never miss it; a rejected push retracts.
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  obs::ScopedLatency submit_latency(metrics_, obs::Stage::kSubmit);
  obs::TraceSpan submit_span(obs::TraceName::kSubmit);
  QueuePush result;
  if (ClassifiesCross(op)) {
    CrossItem item;
    item.op = std::move(op);
    // The watermark: this op's batch will wait until the workers have
    // processed at least this many pinned ops — i.e. every pinned update
    // whose Submit happened-before this one — and nothing newer.
    item.barrier = pinned_submitted_.load(std::memory_order_acquire);
    item.enqueue_ns = obs::MonotonicNs();
    result = cross_inbox_.Push(std::move(item), deadline);
    if (result == QueuePush::kOk) {
      metrics_->Add(obs::Counter::kCrossShardOps);
    }
  } else {
    const uint32_t shard = shard_map_.ShardOfRelation(op.rel);
    result = shards_[shard]->inbox.Push(
        PinnedItem{std::move(op), obs::MonotonicNs()}, deadline);
    // Counted only on success, and only after the push: the watermark must
    // never exceed what the workers will eventually process, or a cross
    // batch could wait forever on a rejected submission.
    if (result == QueuePush::kOk) {
      pinned_submitted_.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  switch (result) {
    case QueuePush::kOk:
      metrics_->Add(obs::Counter::kSubmitted);
      return SubmitResult::kOk;
    case QueuePush::kWouldBlock:
      Retire(1, 0);
      return SubmitResult::kWouldBlock;
    case QueuePush::kClosed:
      Retire(1, 0);
      return SubmitResult::kShutdown;
  }
  CHECK(false);
  return SubmitResult::kShutdown;
}

void IngestPipeline::EnqueueEscape(WriteOp op) {
  // Runs on a worker thread that still holds the op's component lock (or on
  // the admission thread mid-batch, holding the batch's locks), so this
  // must never block: ForcePush bypasses the credit capacity. The op stays
  // in flight — surrender is a re-route, not a retirement.
  metrics_->Add(obs::Counter::kEscapedOps);
  CrossItem item;
  item.op = std::move(op);
  item.barrier = pinned_submitted_.load(std::memory_order_acquire);
  item.escalated = true;
  item.enqueue_ns = obs::MonotonicNs();
  cross_inbox_.ForcePush(std::move(item));
}

void IngestPipeline::Retire(uint64_t ops, uint64_t pinned) {
  if (ops > 0) metrics_->Add(obs::Counter::kRetired, ops);
  {
    MutexLock lock(retire_mu_);
    in_flight_.fetch_sub(ops, std::memory_order_acq_rel);
    pinned_processed_.fetch_add(pinned, std::memory_order_acq_rel);
  }
  retire_cv_.NotifyAll();
}

void IngestPipeline::WorkerLoop(Shard* s) {
  PinnedItem item;
  while (s->inbox.WaitPop(&item)) {
    if (item.enqueue_ns != 0) {
      metrics_->RecordLatency(obs::Stage::kInboxWait,
                              obs::MonotonicNs() - item.enqueue_ns);
    }
    obs::TraceSpan op_span(obs::TraceName::kOp);
    ++s->stats.updates_submitted;
    const bool retired = RunPinned(s, std::move(item.op), item.enqueue_ns);
    // Idle before the op retires, so a dump taken after Flush() returns
    // shows every worker idle.
    s->cur_number.store(0, std::memory_order_relaxed);
    s->exclusive.store(false, std::memory_order_relaxed);
    // An escaped op counts toward the watermark but stays in flight: its
    // re-run on the cross lane retires it.
    Retire(retired ? 1 : 0, 1);
    op_span.End();
  }
}

bool IngestPipeline::RunPinned(Shard* s, WriteOp op, uint64_t enqueue_ns) {
  // Footprint lock: an insert/delete chase stays within one component, so
  // the protocol degenerates to a single uncontended mutex unless a
  // cross-shard admission currently covers this component. The number is
  // claimed under the lock: execution order within a component is then
  // number order, which makes the run serializable with every overlapping
  // cross-shard batch (MVTO visibility sees exactly the writes of
  // lower-numbered, already-finished updates). The chase stage starts
  // before the lock, so a wait behind a cross batch counts as chase time.
  const uint32_t component = shard_map_.ComponentOf(op.rel);
  obs::ScopedLatency chase_latency(metrics_, obs::Stage::kChase);
  obs::TraceSpan chase_span(obs::TraceName::kChase);
  s->exclusive.store(true, std::memory_order_relaxed);
  MutexLock lock(component_locks_[component]);
  const uint64_t number = next_number_.fetch_add(1, std::memory_order_relaxed);
  chase_span.set_arg(number);
  s->cur_number.store(number, std::memory_order_relaxed);

  UpdateOptions uopts;
  uopts.max_steps = options_.max_steps_per_update;
  uopts.detector = &s->detector;
  // Admission at COMPONENT granularity — exactly what the held lock
  // covers. A shard-wide bitmap would let a chase write (or replan over) a
  // sibling component of this shard whose lock a concurrent cross-shard
  // admission may hold.
  uopts.allowed_relations = &shard_map_.ComponentRelations(component);
  uopts.replan_poller = &s->poller;
  Update u(number, std::move(op), &s->tgds, uopts);

  s->undo_scratch.clear();
  while (!u.finished()) {
    StepResult res = u.Step(db_, s->agent.get());
    ++s->stats.total_steps;
    s->stats.physical_writes += res.writes.size();
    for (const PhysicalWrite& pw : res.writes) {
      s->undo_scratch.push_back({pw.rel, pw.row});
    }
  }

  if (u.escaped()) {
    // The chase reached a null whose occurrences leave this component.
    // Undo the attempt's writes (all within the locked component, newest
    // first) and surrender the initial operation to the cross-shard
    // engine — which re-counts the submission, so retract this worker's
    // count to keep merged updates_submitted equal to the ops actually
    // submitted.
    for (auto it = s->undo_scratch.rbegin(); it != s->undo_scratch.rend();
         ++it) {
      db_->RemoveRowVersions(it->first, it->second, number);
    }
    --s->stats.updates_submitted;
    ++s->stats.escaped_updates;
    obs::TraceInstant(obs::TraceName::kEscape, number);
    EnqueueEscape(u.initial_op());
    return false;
  }
  if (u.hit_step_cap()) {
    ++s->stats.updates_failed;
    return true;
  }
  ++s->stats.updates_completed;
  s->stats.frontier_ops += u.frontier_ops_performed();
  s->committed.push_back({number, u.initial_op()});
  metrics_->Add(obs::Counter::kCommits);
  if (enqueue_ns != 0) {
    metrics_->RecordLatency(obs::Stage::kCommit,
                            obs::MonotonicNs() - enqueue_ns);
  }
  obs::TraceCommit(number);
  return true;
}

void IngestPipeline::AdmissionLoop() {
  CrossItem first;
  while (cross_inbox_.WaitPop(&first)) {
    // Opportunistic batching: take whatever else is already queued, up to
    // the cap — one engine run amortizes lock acquisition and conflict
    // tracking across the batch.
    std::vector<CrossItem> items;
    items.push_back(std::move(first));
    CrossItem more;
    while (items.size() < kMaxCrossBatch && cross_inbox_.TryPop(&more)) {
      items.push_back(std::move(more));
    }
    ProcessCrossItems(std::move(items));
  }
}

void IngestPipeline::ProcessCrossItems(std::vector<CrossItem> items) {
  // Wait for the batch's pinned predecessors — the max of the members'
  // watermarks — so every replacement sees every occurrence its
  // predecessors registered. This never waits on pinned traffic submitted
  // after the batch's ops, so sustained open-loop load cannot livelock the
  // cross lane the way waiting for full quiescence would.
  uint64_t barrier = 0;
  for (const CrossItem& i : items) barrier = std::max(barrier, i.barrier);
  {
    obs::ScopedLatency barrier_latency(metrics_,
                                       obs::Stage::kAdmissionBarrier);
    obs::TraceSpan barrier_span(obs::TraceName::kAdmissionBarrier, barrier);
    if (pinned_processed_.load(std::memory_order_acquire) < barrier) {
      MutexLock lock(retire_mu_);
      while (pinned_processed_.load(std::memory_order_acquire) < barrier) {
        retire_cv_.Wait(retire_mu_);
      }
    }
  }

  // Admission latency per op: cross-lane enqueue until its batch starts
  // running (queue residency plus the watermark wait above).
  const uint64_t admitted_ns = obs::MonotonicNs();
  std::vector<WriteOp> normals, escalated;
  for (CrossItem& i : items) {
    if (i.enqueue_ns != 0 && admitted_ns > i.enqueue_ns) {
      metrics_->RecordLatency(obs::Stage::kAdmission,
                              admitted_ns - i.enqueue_ns);
    }
    (i.escalated ? escalated : normals).push_back(std::move(i.op));
  }
  if (!normals.empty()) {
    const size_t n = normals.size();
    // Counted before the retirement below publishes it to Flush.
    engine_cross_ops_ += n;
    const size_t escapes = RunCrossShardBatch(std::move(normals),
                                              /*escalated=*/false);
    // Escapes were re-queued (a later loop iteration runs them escalated)
    // and stay in flight.
    Retire(n - escapes, 0);
  }
  if (!escalated.empty()) {
    const size_t n = escalated.size();
    RunCrossShardBatch(std::move(escalated), /*escalated=*/true);
    Retire(n, 0);  // nothing escapes an escalated run
  }
}

size_t IngestPipeline::RunCrossShardBatch(std::vector<WriteOp> ops,
                                          bool escalated) {
  obs::ScopedLatency batch_latency(metrics_, obs::Stage::kCrossBatch);
  obs::TraceSpan batch_span(obs::TraceName::kCrossBatch, ops.size());
  // Footprint: the union of the batch's component closures (escalated
  // batches take everything). Component ids ascend with their
  // representative relation ids, so this loop IS the ordered relation-id
  // acquisition — any two admissions (and any concurrent pinned update,
  // which holds exactly one of these locks) order their overlap
  // identically, so no cycle can form.
  std::vector<uint32_t> components;
  if (escalated) {
    for (uint32_t c = 0; c < shard_map_.num_components(); ++c) {
      components.push_back(c);
    }
  } else {
    for (const WriteOp& op : ops) {
      shard_map_.FootprintOf(op, *db_, &components);
    }
    std::sort(components.begin(), components.end());
    components.erase(std::unique(components.begin(), components.end()),
                     components.end());
  }
  // The held set is dynamic (footprint-sized), which thread-safety analysis
  // cannot express — std::unique_lock keeps the acquisition out of its
  // sight on purpose; the LockOrderValidator still checks the ascending
  // component order at runtime through Mutex::lock itself.
  std::vector<std::unique_lock<Mutex>> held;
  held.reserve(components.size());
  for (uint32_t c : components) held.emplace_back(component_locks_[c]);
  // Declared after `held`, so both destructors run before the locks
  // release: the span and histogram measure exactly the hold window —
  // the time this batch excluded its overlapping shards.
  obs::ScopedLatency hold_latency(metrics_, obs::Stage::kCrossLockHold);
  obs::TraceSpan hold_span(obs::TraceName::kCrossLockHold,
                           components.size());

  const std::vector<bool> allowed =
      shard_map_.RelationsOfComponents(components);

  SchedulerOptions sopts;
  sopts.tracker = options_.tracker;
  sopts.max_steps_per_update = options_.max_steps_per_update;
  sopts.max_attempts_per_update = options_.max_attempts_per_update;
  sopts.register_plans = false;
  sopts.metrics = metrics_;  // doom causes, cascades, commits
  if (!escalated) sopts.allowed_relations = &allowed;
  // Reserve a number block large enough for every submit and every
  // possible abort-redo, claimed under the held locks. The number-order ==
  // execution-order guarantee (Theorem 4.4) holds while batches run
  // concurrently with pinned traffic because it never depends on
  // quiescence, only on the locks: (a) any pinned update overlapping this
  // footprint either finished before we acquired its component's lock —
  // its number was claimed under that lock, so it is below this block and
  // its writes are visible to the engine — or will start after we release,
  // claiming a number past the block and seeing every batch write; (b) any
  // other cross batch orders against this one wholesale at its first
  // shared lock, and its block is disjoint on the same side as its
  // execution; (c) pinned predecessors of the batch's ops that DON'T share
  // a component need no number ordering at all — but the watermark wait in
  // ProcessCrossItems already sequenced the ones the submitter had
  // observed, so replacement footprints are computed over a registry that
  // contains them. Wherever footprints overlap, number order is execution
  // order; elsewhere the orders are free, exactly as in the serial proof.
  const uint64_t block =
      ops.size() * (options_.max_attempts_per_update + 2) + 1;
  sopts.first_number = next_number_.fetch_add(block);

  Scheduler engine(db_, &engine_tgds_, engine_agent_.get(), sopts);
  for (WriteOp& op : ops) engine.Submit(std::move(op));
  {
    obs::TraceSpan engine_span(obs::TraceName::kEngineRun,
                               sopts.first_number);
    engine.RunToCompletion();
  }
  CHECK_LE(engine.next_number(), sopts.first_number + block);

  engine_stats_.Merge(engine.stats());
  // Commit events (kCommits + commit spans) were recorded by the engine's
  // own TryCommit — sopts.metrics above — so only collect the ops here.
  for (auto& numbered : engine.CommittedOpsWithNumbers()) {
    engine_committed_.push_back(std::move(numbered));
  }
  std::vector<WriteOp> escapes = engine.TakeEscapedOps();
  CHECK(!escalated || escapes.empty());  // nothing escapes an escalated run
  for (WriteOp& op : escapes) EnqueueEscape(std::move(op));
  metrics_->Add(obs::Counter::kCrossBatches);
  return escapes.size();
}

ParallelStats IngestPipeline::Flush() {
  // The barrier: every admitted op has retired. The admission thread
  // drains the cross lane on its own. Observing zero under retire_mu_
  // happens-after the retiring thread's stats writes (see Retire), so the
  // aggregation below reads quiescent state.
  {
    MutexLock lock(retire_mu_);
    while (in_flight_.load(std::memory_order_acquire) != 0 && !stopped_) {
      retire_cv_.Wait(retire_mu_);
    }
  }

  ParallelStats stats;
  for (const auto& s : shards_) {
    stats.totals.Merge(s->stats);
    stats.shard_pinned.push_back(s->stats.updates_completed);
    stats.inbox_high_watermark = std::max<uint64_t>(
        stats.inbox_high_watermark, s->inbox.high_watermark());
    stats.admission_stall_seconds += s->inbox.stall_seconds();
  }
  stats.pinned_updates = stats.totals.updates_completed;
  stats.totals.Merge(engine_stats_);
  stats.workers = shards_.size();
  stats.cross_shard_updates = engine_cross_ops_;
  // Every worker escape and every engine escape is counted in its
  // engine's stats and re-routed once through EnqueueEscape.
  stats.escaped_updates = stats.totals.escaped_updates;
  stats.flushes = ++flushes_;
  stats.admission_stall_seconds += cross_inbox_.stall_seconds();
  return stats;
}

void IngestPipeline::Stop() {
  {
    MutexLock lock(retire_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  retire_cv_.NotifyAll();
  // Watchdog first: the shutdown drain below can legitimately take longer
  // than a stall deadline, and a fatal watchdog must never fire on it.
  if (watchdog_ != nullptr) watchdog_->Stop();
  // Shutdown order is what keeps "already admitted ops still drain" true:
  // the pinned lanes close and join first (each worker drains its backlog),
  // so every worker escape has reached the cross inbox before it closes;
  // the admission thread then drains the remaining cross backlog (escapes
  // it produces itself re-enter before its next WaitPop, so it always sees
  // them) and exits on closed-and-empty. Blocked producers on either lane
  // fail with kClosed as soon as the close lands.
  for (auto& s : shards_) s->inbox.Close();
  for (auto& s : shards_) {
    if (s->thread.joinable()) s->thread.join();
  }
  cross_inbox_.Close();
  if (admission_thread_.joinable()) admission_thread_.join();
}

void IngestPipeline::AdvanceNumberTo(uint64_t n) {
  uint64_t cur = next_number_.load(std::memory_order_relaxed);
  while (cur < n && !next_number_.compare_exchange_weak(
                        cur, n, std::memory_order_relaxed)) {
  }
}

void IngestPipeline::AppendDiagnostics(std::string* out) const {
  char buf[160];
  snprintf(buf, sizeof(buf),
           "in-flight ops: %llu, pinned submitted: %llu, cross inbox "
           "depth: %zu\n",
           static_cast<unsigned long long>(
               in_flight_.load(std::memory_order_acquire)),
           static_cast<unsigned long long>(
               pinned_submitted_.load(std::memory_order_acquire)),
           cross_inbox_.size());
  out->append(buf);
  for (size_t i = 0; i < shards_.size(); ++i) {
    snprintf(buf, sizeof(buf),
             "shard %zu inbox: depth=%zu high-watermark=%zu\n", i,
             shards_[i]->inbox.size(), shards_[i]->inbox.high_watermark());
    out->append(buf);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    snprintf(buf, sizeof(buf), "shard %zu worker: op=%llu phase=%s\n", i,
             static_cast<unsigned long long>(
                 s.cur_number.load(std::memory_order_relaxed)),
             s.exclusive.load(std::memory_order_relaxed) ? "exclusive"
                                                         : "idle");
    out->append(buf);
  }
}

std::vector<std::thread::id> IngestPipeline::WorkerThreadIds() const {
  std::vector<std::thread::id> ids;
  for (const auto& s : shards_) ids.push_back(s->thread.get_id());
  return ids;
}

std::vector<WriteOp> IngestPipeline::CommittedOpsInOrder() const {
  std::vector<std::pair<uint64_t, WriteOp>> numbered = engine_committed_;
  for (const auto& s : shards_) {
    numbered.insert(numbered.end(), s->committed.begin(), s->committed.end());
  }
  std::sort(numbered.begin(), numbered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<WriteOp> out;
  out.reserve(numbered.size());
  for (auto& [number, op] : numbered) out.push_back(std::move(op));
  return out;
}

}  // namespace youtopia
