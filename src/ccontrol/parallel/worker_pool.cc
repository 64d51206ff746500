#include "ccontrol/parallel/worker_pool.h"

#include <algorithm>

namespace youtopia {

WorkerPool::WorkerPool(Database* db, const std::vector<Tgd>& tgds,
                       const ShardMap* shards,
                       std::deque<Mutex>* component_locks,
                       std::atomic<uint64_t>* next_number,
                       WorkerPoolOptions options)
    : db_(db),
      shard_map_(shards),
      component_locks_(component_locks),
      next_number_(next_number),
      options_(std::move(options)) {
  CHECK_EQ(component_locks_->size(), shard_map_->num_components());
  CHECK(options_.escape_sink != nullptr);
  // One shard lane per shard: the shard map already clamped the shard count
  // to min(requested workers, components).
  const size_t n = shard_map_->num_shards();
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Shard>(options_.inbox_capacity, tgds);
    s->inbox.SetMetrics(options_.metrics, obs::Gauge::kInboxDepth);
    s->worker.agent = options_.agent_factory
                          ? options_.agent_factory(i)
                          : std::make_unique<RandomAgent>(
                                options_.agent_seed +
                                0x9e3779b97f4a7c15ULL * (i + 1));
    shards_.push_back(std::move(s));
  }
  // Threads start only after the full structure is built: a worker never
  // touches another worker's state, but the loop does take `this`.
  for (auto& s : shards_) {
    s->worker.thread = std::thread(&WorkerPool::WorkerLoop, this, s.get());
  }
}

WorkerPool::~WorkerPool() { Shutdown(); }

void WorkerPool::Shutdown() {
  for (auto& s : shards_) s->inbox.Close();
  for (auto& s : shards_) {
    if (s->worker.thread.joinable()) s->worker.thread.join();
  }
}

QueuePush WorkerPool::Submit(
    WriteOp op,
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  CHECK(op.kind != WriteOp::Kind::kNullReplace);
  const uint32_t shard = shard_map_->ShardOfRelation(op.rel);
  return shards_[shard]->inbox.Push(
      PinnedItem{std::move(op), obs::MonotonicNs()}, deadline);
}

void WorkerPool::WaitProcessedAtLeast(uint64_t count) {
  if (processed_.load(std::memory_order_acquire) >= count) return;
  MutexLock lock(processed_mu_);
  while (processed_.load(std::memory_order_acquire) < count) {
    processed_cv_.Wait(processed_mu_);
  }
}

void WorkerPool::Retire(bool retired) {
  // Publish under the barrier lock so a cross-batch WaitProcessedAtLeast
  // cannot miss the wakeup between its predicate test and its sleep.
  {
    MutexLock lock(processed_mu_);
    processed_.fetch_add(1, std::memory_order_acq_rel);
  }
  processed_cv_.NotifyAll();
  if (retired && options_.on_op_retired) options_.on_op_retired();
}

void WorkerPool::WorkerLoop(Shard* s) {
  Worker* w = &s->worker;
  PinnedItem item;
  while (s->inbox.WaitPop(&item)) {
    if (options_.metrics != nullptr && item.enqueue_ns != 0) {
      options_.metrics->RecordLatency(obs::Stage::kInboxWait,
                                      obs::MonotonicNs() - item.enqueue_ns);
    }
    obs::TraceSpan op_span(obs::TraceName::kOp);
    ++w->stats.updates_submitted;
    const Outcome out = RunExclusive(w, std::move(item.op), item.enqueue_ns);
    Retire(out != Outcome::kEscaped);
    op_span.End();
    w->cur_number.store(0, std::memory_order_relaxed);
    w->cur_phase.store(WorkerPhase::kIdle, std::memory_order_relaxed);
  }
}

WorkerPool::Outcome WorkerPool::RunExclusive(Worker* w, WriteOp op,
                                             uint64_t enqueue_ns) {
  // Footprint lock: an insert/delete chase stays within one component, so
  // the protocol degenerates to a single uncontended mutex unless a
  // cross-shard admission currently covers this component. The number is
  // claimed under the lock: execution order within a component is then
  // number order, which makes the run serializable with every overlapping
  // cross-shard batch (MVTO visibility sees exactly the writes of
  // lower-numbered, already-finished updates). The chase stage starts
  // before the lock, so a wait behind a cross batch counts as chase time.
  const uint32_t component = shard_map_->ComponentOf(op.rel);
  obs::ScopedLatency chase_latency(options_.metrics, obs::Stage::kChase);
  obs::TraceSpan chase_span(obs::TraceName::kChase);
  w->cur_phase.store(WorkerPhase::kExclusive, std::memory_order_relaxed);
  MutexLock lock((*component_locks_)[component]);
  const uint64_t number = next_number_->fetch_add(1, std::memory_order_relaxed);
  chase_span.set_arg(number);
  w->cur_number.store(number, std::memory_order_relaxed);

  UpdateOptions uopts;
  uopts.max_steps = options_.max_steps_per_update;
  uopts.detector = &w->detector;
  // Admission at COMPONENT granularity — exactly what the held lock
  // covers. A shard-wide bitmap would let a chase write (or replan over) a
  // sibling component of this shard whose lock a concurrent cross-shard
  // admission may hold.
  uopts.allowed_relations = &shard_map_->ComponentRelations(component);
  uopts.replan_poller = &w->poller;
  Update u(number, std::move(op), &w->tgds, uopts);

  w->undo_scratch.clear();
  while (!u.finished()) {
    StepResult res = u.Step(db_, w->agent.get());
    ++w->stats.total_steps;
    w->stats.physical_writes += res.writes.size();
    for (const PhysicalWrite& pw : res.writes) {
      w->undo_scratch.push_back({pw.rel, pw.row});
    }
  }

  if (u.escaped()) {
    // The chase reached a null whose occurrences leave this shard. Undo the
    // attempt's writes (all within the locked component, newest first) and
    // surrender the initial operation to the cross-shard engine — which
    // re-counts the submission, so retract this worker's count to keep
    // merged updates_submitted equal to the ops actually submitted. The
    // sink must not block: this thread still holds the component lock.
    for (auto it = w->undo_scratch.rbegin(); it != w->undo_scratch.rend();
         ++it) {
      db_->RemoveRowVersions(it->first, it->second, number);
    }
    --w->stats.updates_submitted;
    ++w->stats.escaped_updates;
    obs::TraceInstant(obs::TraceName::kEscape, number);
    options_.escape_sink(u.initial_op());
    return Outcome::kEscaped;
  }
  if (u.hit_step_cap()) {
    ++w->stats.updates_failed;
    return Outcome::kFailed;
  }
  ++w->stats.updates_completed;
  w->stats.frontier_ops += u.frontier_ops_performed();
  w->committed.push_back({number, u.initial_op()});
  if (options_.metrics != nullptr) {
    options_.metrics->Add(obs::Counter::kCommits);
    if (enqueue_ns != 0) {
      options_.metrics->RecordLatency(obs::Stage::kCommit,
                                      obs::MonotonicNs() - enqueue_ns);
    }
  }
  obs::TraceCommit(number);
  return Outcome::kCommitted;
}

SchedulerStats WorkerPool::MergedStats() const {
  SchedulerStats out;
  for (const auto& s : shards_) out.Merge(s->worker.stats);
  return out;
}

std::vector<uint64_t> WorkerPool::PinnedPerShard() const {
  std::vector<uint64_t> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) {
    out.push_back(s->worker.stats.updates_completed);
  }
  return out;
}

std::vector<std::pair<uint64_t, WriteOp>> WorkerPool::CommittedOpsWithNumbers()
    const {
  std::vector<std::pair<uint64_t, WriteOp>> out;
  for (const auto& s : shards_) {
    out.insert(out.end(), s->worker.committed.begin(),
               s->worker.committed.end());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

size_t WorkerPool::InboxHighWatermark() const {
  size_t hw = 0;
  for (const auto& s : shards_) {
    hw = std::max(hw, s->inbox.high_watermark());
  }
  return hw;
}

double WorkerPool::AdmissionStallSeconds() const {
  double sum = 0;
  for (const auto& s : shards_) sum += s->inbox.stall_seconds();
  return sum;
}

std::vector<WorkerPool::WorkerPhaseInfo> WorkerPool::PhaseSnapshot() const {
  std::vector<WorkerPhaseInfo> out;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Worker& w = shards_[i]->worker;
    WorkerPhaseInfo info;
    info.shard = static_cast<uint32_t>(i);
    info.number = w.cur_number.load(std::memory_order_relaxed);
    info.phase = w.cur_phase.load(std::memory_order_relaxed);
    out.push_back(info);
  }
  return out;
}

std::vector<WorkerPool::InboxInfo> WorkerPool::InboxSnapshot() const {
  std::vector<InboxInfo> out;
  for (size_t i = 0; i < shards_.size(); ++i) {
    InboxInfo info;
    info.shard = static_cast<uint32_t>(i);
    info.depth = shards_[i]->inbox.size();
    info.high_watermark = shards_[i]->inbox.high_watermark();
    out.push_back(info);
  }
  return out;
}

std::vector<std::thread::id> WorkerPool::ThreadIds() const {
  std::vector<std::thread::id> ids;
  for (const auto& s : shards_) ids.push_back(s->worker.thread.get_id());
  return ids;
}

}  // namespace youtopia
