#ifndef YOUTOPIA_CCONTROL_SCHEDULER_H_
#define YOUTOPIA_CCONTROL_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "ccontrol/conflict.h"
#include "ccontrol/dependency_tracker.h"
#include "ccontrol/read_log.h"
#include "ccontrol/write_log.h"
#include "core/agent.h"
#include "core/update.h"
#include "core/violation_detector.h"
#include "obs/metrics.h"
#include "relational/database.h"
#include "tgd/tgd.h"

namespace youtopia {

struct SchedulerOptions {
  TrackerKind tracker = TrackerKind::kCoarse;
  // Per-attempt chase step cap (controlled nontermination guard).
  size_t max_steps_per_update = 1u << 20;
  // Livelock guard: an update aborted this many times is marked failed.
  size_t max_attempts_per_update = 256;
  // First update number to assign (lets a caller continue a numbering
  // sequence started outside this scheduler).
  uint64_t first_number = 1;
  // Optional observability sink: doom-cause counters (which read-query
  // class a conflicting write invalidated), cascade counts and commit
  // events. Null = no recording; the engine itself stays serial either
  // way — the registry's cells are thread-local.
  obs::MetricsRegistry* metrics = nullptr;
};

struct SchedulerStats {
  uint64_t updates_submitted = 0;
  uint64_t updates_completed = 0;
  uint64_t updates_failed = 0;

  uint64_t total_steps = 0;
  uint64_t physical_writes = 0;
  uint64_t read_queries = 0;
  uint64_t frontier_ops = 0;

  // Figure 3/4 metrics.
  uint64_t aborts = 0;                   // total aborts performed
  uint64_t direct_conflict_aborts = 0;   // writer invalidated a logged read
  uint64_t cascading_abort_requests = 0; // requests for updates NOT in
                                         // direct conflict (Section 6)

  // Retroactive-check work, deterministic: logged writes the dependency
  // tracker tested against a read query, (query, write) pairs the read-log
  // batch walk handed to a conflict test, logged queries that walk visited,
  // and relation marks COARSE read to close cascades.
  uint64_t tracker_writes_tested = 0;
  uint64_t read_log_pairs_tested = 0;
  uint64_t read_log_queries_scanned = 0;
  uint64_t cascade_marks_scanned = 0;

  // Pipeline-level merge (the ingest pipeline sums its lanes' stats into
  // one report).
  void Merge(const SchedulerStats& other) {
    updates_submitted += other.updates_submitted;
    updates_completed += other.updates_completed;
    updates_failed += other.updates_failed;
    total_steps += other.total_steps;
    physical_writes += other.physical_writes;
    read_queries += other.read_queries;
    frontier_ops += other.frontier_ops;
    aborts += other.aborts;
    direct_conflict_aborts += other.direct_conflict_aborts;
    cascading_abort_requests += other.cascading_abort_requests;
    tracker_writes_tested += other.tracker_writes_tested;
    read_log_pairs_tested += other.read_log_pairs_tested;
    read_log_queries_scanned += other.read_log_queries_scanned;
    cascade_marks_scanned += other.cascade_marks_scanned;
  }
};

// The optimistic concurrency-control scheduler (Algorithm 4 instantiating
// the Algorithm 3 template with the paper's experimental policy: round-robin
// at individual chase-step granularity).
//
// Each scheduled step's writes are checked against the stored read queries
// of higher-numbered updates; any invalidated reader is aborted, together —
// per the configured DependencyTracker — with the updates that read from it.
// Abort information is consolidated per scheduling round and executed once
// control returns to the scheduler; aborted updates restart under fresh
// (highest) numbers, youngest first, MVTO-style. An update commits — and its read/write logs
// are pruned — once every lower-numbered update has finished, since nothing
// can invalidate it anymore.
//
// Threading contract: a Scheduler is a SERIAL engine — no internal locking,
// no GUARDED_BY annotations, because every member is confined to whichever
// single thread is driving it. Do not share an instance across threads.
class Scheduler {
 public:
  Scheduler(Database* db, const std::vector<Tgd>* tgds, FrontierAgent* agent,
            SchedulerOptions options);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Registers an update; returns its (initial) priority number.
  uint64_t Submit(WriteOp initial_op);

  // Round-robin steps all live updates until every update has finished (or
  // failed its attempt/step caps).
  void RunToCompletion();

  const SchedulerStats& stats() const { return stats_; }
  Database* db() { return db_; }

  // Rows examined across the run: the violation detector every update
  // shares plus the retroactive conflict checker, which runs both the
  // read-log walk's checks and the PRECISE tracker's. The planner-quality
  // metric bench/skew_suite gates on — wall time measures the machine,
  // rows measure the plans.
  uint64_t TotalRowsExamined() const {
    return detector_.rows_examined() + checker_.rows_examined();
  }

  // Introspection for tests: the update currently (or finally) registered
  // under `number`, if any.
  const Update* FindUpdate(uint64_t number) const;
  size_t num_failed() const;

  // Initial operations of committed updates, in final priority-number order
  // — the serialization order Theorem 4.4 guarantees equivalence with.
  std::vector<WriteOp> CommittedOpsInOrder() const;

  // Initial operations, paired with their final committed numbers.
  std::vector<std::pair<uint64_t, WriteOp>> CommittedOpsWithNumbers() const;

  // One past the highest number this run assigned (callers continuing the
  // numbering sequence).
  uint64_t next_number() const { return next_number_; }

  // Monotone liveness counter, bumped once per scheduling step. The ONLY
  // member safe to read from another thread: a stall watchdog polls it
  // while RunToCompletion runs to tell "slow" from "hung" (every other
  // member is confined to the driving thread — see the class comment).
  uint64_t ProgressTicks() const {
    return progress_ticks_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::unique_ptr<Update> update;
    bool failed = false;
    bool committed = false;
    bool queued = false;
    // Restart backoff (Section 5.2 scheduling policy): a restarted update
    // skips this many scheduling rounds, giving the conflicting
    // lower-numbered update time to finish instead of killing the redo
    // again and again (livelock prevention).
    uint32_t cooldown = 0;
  };

  void StepOne(size_t slot_idx);
  // Closes `roots` (distinct readers in direct conflict) under cascading
  // dependencies and aborts the closure, youngest first.
  void PerformAborts(const std::vector<uint64_t>& roots);
  void AbortOne(uint64_t number);
  void TryCommit();
  void EnqueueSlot(size_t slot_idx);

  Database* db_;
  const std::vector<Tgd>* tgds_;
  FrontierAgent* agent_;
  SchedulerOptions options_;

  // One detector for every update: they step one at a time, and a
  // detector carries nothing from one call to the next.
  ViolationDetector detector_;
  ConflictChecker checker_;
  ReadLog read_log_;
  WriteLog write_log_;
  DependencyTracker tracker_;
  // Per-step doomed readers (each once), a member so StepOne allocates
  // nothing in steady state.
  std::vector<uint64_t> direct_scratch_;
  // The step StepOne runs, reused so its write and read vectors keep their
  // capacity.
  StepResult step_scratch_;
  // PerformAborts's readers of one closure member.
  std::vector<uint64_t> readers_scratch_;

  std::vector<Slot> slots_;
  std::unordered_map<uint64_t, size_t> slot_by_number_;
  std::deque<size_t> ready_;
  // Numbers of updates that are neither finished nor failed (commit floor).
  std::set<uint64_t> active_numbers_;
  // Finished but not yet committed (still abortable).
  std::set<uint64_t> uncommitted_finished_;

  uint64_t next_number_;
  // Strided residual-plan staleness sweep (see StepOne and plan.h).
  ReplanPoller replan_poller_;
  // Shared watermark for the updates' own tgd staleness polls (see Submit).
  ReplanPoller update_replan_poller_;
  SchedulerStats stats_;
  // See ProgressTicks().
  std::atomic<uint64_t> progress_ticks_{0};
};

}  // namespace youtopia

#endif  // YOUTOPIA_CCONTROL_SCHEDULER_H_
