#include "ccontrol/scheduler.h"

#include <algorithm>

#include "ccontrol/read_query.h"
#include "obs/trace.h"

namespace youtopia {

Scheduler::Scheduler(Database* db, const std::vector<Tgd>* tgds,
                     FrontierAgent* agent, SchedulerOptions options)
    : db_(db),
      tgds_(tgds),
      agent_(agent),
      options_(options),
      detector_(tgds),
      checker_(tgds),
      read_log_(tgds),
      tracker_(options.tracker, tgds, &checker_),
      next_number_(options.first_number) {
  // Registration: unconditionally re-cost every tgd's plan complement
  // against the database this scheduler will run over (matching
  // Youtopia::AddMapping — a recompilation is ~1.5us per mapping, and the
  // staleness trigger alone would let a small pre-seed keep the creation-
  // time statistics-free plans), then build the composite indexes the
  // costed plans probe, so every chase step and retroactive conflict check
  // in this run executes its planned access paths instead of falling back
  // to single-column probes.
  for (const Tgd& tgd : *tgds_) {
    tgd.RecompilePlans(db_);
    EnsureTgdPlanIndexes(db_, tgd.plans());
  }
}

uint64_t Scheduler::Submit(WriteOp initial_op) {
  const uint64_t number = next_number_++;
  UpdateOptions uopts;
  uopts.max_steps = options_.max_steps_per_update;
  uopts.detector = &detector_;
  // StepOne logs each step's reads and checks later writes against them.
  uopts.log_reads = true;
  // All updates share one re-planning watermark: with private pollers every
  // update would re-fire the tgd staleness sweep on its first step.
  // (Separate from replan_poller_, which paces the conflict checker's
  // residual sweep in StepOne — sharing one instance would make the two
  // consumers steal each other's fires.)
  uopts.replan_poller = &update_replan_poller_;
  Slot slot;
  slot.update =
      std::make_unique<Update>(number, std::move(initial_op), tgds_, uopts);
  slots_.push_back(std::move(slot));
  const size_t idx = slots_.size() - 1;
  slot_by_number_[number] = idx;
  active_numbers_.insert(number);
  ++stats_.updates_submitted;
  EnqueueSlot(idx);
  return number;
}

void Scheduler::RunToCompletion() {
  while (!ready_.empty()) {
    const size_t idx = ready_.front();
    ready_.pop_front();
    slots_[idx].queued = false;
    Update* u = slots_[idx].update.get();
    if (slots_[idx].failed || u->finished()) continue;
    if (slots_[idx].cooldown > 0) {
      --slots_[idx].cooldown;
      EnqueueSlot(idx);
      continue;
    }
    StepOne(idx);
    // The step may have aborted/restarted this very update; requeue it in
    // either case as long as it is live.
    if (!slots_[idx].failed && !u->finished()) EnqueueSlot(idx);
    TryCommit();
  }
}

void Scheduler::StepOne(size_t slot_idx) {
  progress_ticks_.fetch_add(1, std::memory_order_relaxed);
  Update* u = slots_[slot_idx].update.get();
  const uint64_t number = u->number();
  StepResult& res = step_scratch_;
  u->Step(db_, agent_, &res);
  ++stats_.total_steps;
  stats_.physical_writes += res.writes.size();
  stats_.read_queries += res.reads.size();

  if (u->finished()) {
    if (u->hit_step_cap()) {
      // Controlled nontermination: the attempt is abandoned; treat like a
      // failure so it cannot block commits forever.
      slots_[slot_idx].failed = true;
      ++stats_.updates_failed;
      active_numbers_.erase(number);
    } else {
      active_numbers_.erase(number);
      uncommitted_finished_.insert(number);
    }
  }

  // The conflict checker's memoized residual plans go stale as the run
  // grows the database; sweep them on the strided mutation-sequence poll
  // (ReplanPoller, plan.h — the stride is provably below the smallest
  // drift).
  if (replan_poller_.ShouldPoll(*db_)) checker_.MaybeReplan(db_);

  // Algorithm 4: the step's writes are checked against the stored read
  // queries of higher-numbered updates; invalidated readers abort. The
  // probe is batched over the whole write set: it visits only the queries
  // listed under the step's relations or nulls, each once per step — not
  // once per write — and skips a doomed reader's remaining queries. The
  // walk offers a query's writes back to back, so each query is prepared
  // once for all of them.
  std::vector<uint64_t>& direct = direct_scratch_;
  direct.clear();
  for (const PhysicalWrite& w : res.writes) write_log_.Record(number, w);
  ConflictChecker::PreparedQuery prepared;
  stats_.read_log_queries_scanned += read_log_.ForEachCandidateBatch(
      res.writes, number,
      [&](uint64_t reader, const ReadQueryRecord& q, const PhysicalWrite& w) {
        ++stats_.read_log_pairs_tested;
        if (prepared.q != &q) prepared = checker_.Prepare(q);
        Snapshot reader_snap(db_, reader);
        if (!checker_.Conflicts(reader_snap, w, &prepared)) return false;
        if (options_.metrics != nullptr) {
          options_.metrics->Add(DoomCauseCounter(q.kind));
        }
        direct.push_back(reader);
        return true;  // doomed: stop probing this reader
      });

  // Register read dependencies for cascades, then move this step's records
  // into the read log (their tuple payloads change hands without copying).
  Snapshot own_snap(db_, number);
  stats_.tracker_writes_tested +=
      tracker_.OnReads(own_snap, number, res.reads, write_log_);
  for (ReadQueryRecord& q : res.reads) read_log_.Record(number, std::move(q));

  if (!direct.empty()) PerformAborts(direct);
}

void Scheduler::PerformAborts(const std::vector<uint64_t>& roots) {
  stats_.direct_conflict_aborts += roots.size();
  // Consolidate: close the root set under cascading dependencies. Each
  // update requested for abort purely by cascade (not in direct conflict
  // with the just-performed writes) counts once per consolidation — the
  // paper's "cascading abort requests" metric; the scheduler acts only on
  // the consolidated set.
  std::set<uint64_t> marked(roots.begin(), roots.end());
  std::vector<uint64_t> pending(roots.begin(), roots.end());
  auto request = [&](uint64_t m) {
    if (marked.insert(m).second) {
      ++stats_.cascading_abort_requests;  // m is never a root here
      pending.push_back(m);
    }
  };
  while (!pending.empty()) {
    const uint64_t i = pending.back();
    pending.pop_back();
    if (tracker_.kind() == TrackerKind::kNaive) {
      // Strawman: request an abort of every live update numbered above i.
      for (auto it = active_numbers_.upper_bound(i);
           it != active_numbers_.end(); ++it) {
        request(*it);
      }
      for (auto it = uncommitted_finished_.upper_bound(i);
           it != uncommitted_finished_.end(); ++it) {
        request(*it);
      }
    } else {
      stats_.cascade_marks_scanned +=
          tracker_.ReadersOf(i, write_log_, &readers_scratch_);
      for (uint64_t m : readers_scratch_) request(m);
    }
  }

  if (options_.metrics != nullptr && marked.size() > roots.size()) {
    options_.metrics->Add(obs::Counter::kDoomCascade,
                          marked.size() - roots.size());
  }
  // Restart youngest first: the fresh numbers go out in descending order of
  // the old ones, so the lowest-numbered member, always a root, restarts
  // last and highest. A fixed rule, so the new numbers (and every count
  // after them) depend on the closure alone, not on the order in which the
  // read-log walk or the tracker found its members.
  for (auto it = marked.rbegin(); it != marked.rend(); ++it) AbortOne(*it);
}

void Scheduler::AbortOne(uint64_t number) {
  auto it = slot_by_number_.find(number);
  CHECK(it != slot_by_number_.end());
  const size_t idx = it->second;
  Slot& slot = slots_[idx];
  CHECK(!slot.committed);  // committed updates are unabortable by design

  // Undo: unlink every version this attempt created (targeted via the
  // write log — no database scan) and forget its logs.
  for (const PhysicalWrite& w : write_log_.WritesOf(number)) {
    db_->RemoveRowVersions(w.rel, w.row, number);
  }
  write_log_.EraseUpdate(number);
  read_log_.EraseUpdate(number);
  tracker_.EraseUpdate(number);
  slot_by_number_.erase(it);
  active_numbers_.erase(number);
  uncommitted_finished_.erase(number);
  ++stats_.aborts;
  obs::TraceInstant(obs::TraceName::kAbort, number);

  if (slot.failed) return;  // already written off
  if (slot.update->attempts() >= options_.max_attempts_per_update) {
    slot.failed = true;
    ++stats_.updates_failed;
    return;
  }
  // MVTO-style redo under a fresh, highest number. After a few failed
  // attempts, exponential backoff keeps the redo from being immediately
  // re-polluted by the same still-running conflicter (livelock guard);
  // early attempts restart eagerly, like the paper's experiments.
  const uint64_t new_number = next_number_++;
  slot.update->Restart(new_number);
  const size_t attempts = slot.update->attempts();
  slot.cooldown =
      attempts <= 3
          ? 0
          : std::min<uint32_t>(1u << std::min<size_t>(attempts - 3, 11), 2048);
  slot_by_number_[new_number] = idx;
  active_numbers_.insert(new_number);
  EnqueueSlot(idx);
}

void Scheduler::TryCommit() {
  // An update can no longer be aborted once every lower-numbered update has
  // finished: finished updates write nothing further (no new direct
  // conflicts), and cascades only flow from lower-numbered aborts.
  const uint64_t floor =
      active_numbers_.empty() ? UINT64_MAX : *active_numbers_.begin();
  while (!uncommitted_finished_.empty() &&
         *uncommitted_finished_.begin() < floor) {
    const uint64_t number = *uncommitted_finished_.begin();
    uncommitted_finished_.erase(uncommitted_finished_.begin());
    auto it = slot_by_number_.find(number);
    CHECK(it != slot_by_number_.end());
    Slot& slot = slots_[it->second];
    slot.committed = true;
    ++stats_.updates_completed;
    if (options_.metrics != nullptr) {
      options_.metrics->Add(obs::Counter::kCommits);
    }
    obs::TraceCommit(number);
    stats_.frontier_ops += slot.update->frontier_ops_performed();
    write_log_.EraseUpdate(number);
    read_log_.EraseUpdate(number);
    tracker_.EraseUpdate(number);
  }
}

void Scheduler::EnqueueSlot(size_t slot_idx) {
  if (slots_[slot_idx].queued) return;
  slots_[slot_idx].queued = true;
  ready_.push_back(slot_idx);
}

const Update* Scheduler::FindUpdate(uint64_t number) const {
  auto it = slot_by_number_.find(number);
  if (it == slot_by_number_.end()) return nullptr;
  return slots_[it->second].update.get();
}

std::vector<WriteOp> Scheduler::CommittedOpsInOrder() const {
  std::vector<WriteOp> out;
  for (auto& [number, op] : CommittedOpsWithNumbers()) {
    out.push_back(std::move(op));
  }
  return out;
}

std::vector<std::pair<uint64_t, WriteOp>> Scheduler::CommittedOpsWithNumbers()
    const {
  std::vector<std::pair<uint64_t, WriteOp>> numbered;
  for (const Slot& slot : slots_) {
    if (slot.committed) {
      numbered.push_back({slot.update->number(), slot.update->initial_op()});
    }
  }
  std::sort(numbered.begin(), numbered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return numbered;
}

size_t Scheduler::num_failed() const {
  size_t n = 0;
  for (const Slot& slot : slots_) n += slot.failed ? 1 : 0;
  return n;
}

}  // namespace youtopia
