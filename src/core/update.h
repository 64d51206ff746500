#ifndef YOUTOPIA_CORE_UPDATE_H_
#define YOUTOPIA_CORE_UPDATE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "ccontrol/read_query.h"
#include "core/agent.h"
#include "core/frontier.h"
#include "core/violation.h"
#include "core/violation_detector.h"
#include "relational/database.h"
#include "relational/write.h"
#include "tgd/tgd.h"

namespace youtopia {

// Outcome of one chase step, exposing exactly what the concurrency-control
// layer needs (Algorithm 2's reads and writes).
struct StepResult {
  std::vector<PhysicalWrite> writes;
  std::vector<ReadQueryRecord> reads;  // empty unless UpdateOptions::log_reads
  bool awaiting_frontier = false;  // the step ended at a frontier request
  bool finished = false;
};

struct UpdateOptions {
  // Hard cap on chase steps per attempt; a forward chase under an
  // always-expand agent on cyclic mappings never terminates (by design,
  // Section 2.2), so callers driving such chases must bound them.
  size_t max_steps = 1u << 20;
  // Shared violation detector (and with it the non-reentrant evaluator
  // pair and the batch dedup's vector): each engine — a shard worker, a
  // Scheduler, the facade's serial updates, GenerateInitialData — passes
  // the one it owns, so that scratch amortizes across every update it
  // runs. The updates sharing one must step one at a time; a detector
  // carries nothing from one call to the next. Must be constructed over
  // the same tgd vector as the update. Null: the update owns a private one.
  ViolationDetector* detector = nullptr;
  // Shard-admission guard (ccontrol/parallel/): when set, a step whose
  // pending write set would touch a relation outside this per-relation
  // bitmap applies nothing — the update finishes with escaped() true and
  // the caller undoes its prior writes and re-runs it under locks that
  // cover a wider footprint. Also filters the adaptive re-planning poll to
  // mappings inside the bitmap: pipeline lanes share one tgd vector, so a
  // mapping's plans are re-planned only under the lock that covers its
  // relations.
  // Null: no restriction (serial behavior).
  const std::vector<bool>* allowed_relations = nullptr;
  // Whether to build ReadQueryRecords for the step's reads. Only an engine
  // running concurrency control consumes them (the Scheduler sets it); a
  // serial or pinned single-shard chase skips the per-query content copies
  // and fingerprint hashes entirely.
  bool log_reads = false;
  // Shared re-planning poll watermark. The facade passes its persistent
  // poller so back-to-back updates skip the per-step staleness poll
  // entirely until the database has actually mutated a full stride —
  // a fresh per-update poller would fire on every update's first step.
  // Null: the update owns a private watermark (serial behavior).
  ReplanPoller* replan_poller = nullptr;
};

// A Youtopia update (Definition 2.6): the complete propagation of one
// initial tuple insertion, deletion or null replacement, including all
// frontier operations taken on frontier tuples it generates. Implemented as
// a resumable state machine whose Step() method executes one chase step
// (Algorithm 2):
//
//   1. if the update is at a frontier, consume one frontier operation from
//      the agent (Algorithm 1's "writeSet := result of first frontier op");
//   2. perform the pending write set;
//   3. run violation queries for each write performed;
//   4. choose the next violation — deterministically repairable ones first —
//      and generate its corrective writes, or stop at a frontier.
//
// The forward chase repairs LHS-violations by generating RHS tuples,
// inserting them only when no more specific tuple exists (Definition 2.4);
// otherwise the generated tuples become positive frontier tuples. The
// backward chase repairs RHS-violations by deleting a witness tuple,
// deferring to the user when there is a choice. Both are interleaved within
// one update: frontier operations may create LHS-violations even during a
// backward chase.
class Update {
 public:
  Update(uint64_t number, WriteOp initial_op, const std::vector<Tgd>* tgds,
         UpdateOptions options = {});

  // A repair pseudo-update: starts from a queue of known violations instead
  // of an initial write (used when a new mapping is registered over
  // existing data).
  static Update ForViolations(uint64_t number, std::vector<Violation> viols,
                              const std::vector<Tgd>* tgds,
                              UpdateOptions options = {});

  Update(const Update&) = delete;
  Update& operator=(const Update&) = delete;
  Update(Update&&) = default;

  uint64_t number() const { return number_; }
  const WriteOp& initial_op() const { return initial_op_; }

  // Positive updates start with an insert or null replacement; negative
  // ones with a delete (Definition 2.6).
  bool IsPositive() const {
    return initial_op_.kind != WriteOp::Kind::kDelete;
  }

  bool finished() const { return finished_; }
  bool awaiting_frontier() const {
    return pos_frontier_.has_value() || neg_frontier_.has_value();
  }
  bool hit_step_cap() const { return hit_step_cap_; }
  // True iff the attempt ended because a pending write would have left
  // options.allowed_relations (see there). The escaping write set was NOT
  // applied; writes of earlier steps were, and the caller must undo them
  // before re-routing the initial operation.
  bool escaped() const { return escaped_; }

  // Executes one chase step against `db` on behalf of this update's number
  // into `res`, which is reset first: a caller that steps in a loop keeps
  // one StepResult, and its vectors keep their capacity. `agent` is
  // consulted only when the update is at a frontier.
  void Step(Database* db, FrontierAgent* agent, StepResult* res);
  // The same, returning a fresh StepResult (tests compare several steps').
  StepResult Step(Database* db, FrontierAgent* agent);

  // One chase step split at its storage-mutating middle phase, so a caller
  // can attribute time to frontier work, write application and violation
  // detection separately (ytbench's traced interactive runs do). Step() is
  // the composition of the three; every engine runs Step().
  //
  //   StepPrepare — step bookkeeping plus frontier processing (agent
  //     decisions; reads the database and the internally synchronized null
  //     registry, mutates only this update's own state). Returns false when
  //     the step already terminated (step cap): `res` is final and the
  //     other two phases must not run.
  //   StepApply — the adaptive re-planning poll (mutates plan/index state),
  //     the shard-admission check, and the pending write set's application.
  //     May end the attempt with escaped() set.
  //   StepFinish — violation detection over the step's writes and choice of
  //     the next violation (read-only against the database). No-op when
  //     StepApply escaped.
  //
  // res->reads accumulates across the phases in order.
  bool StepPrepare(Database* db, FrontierAgent* agent, StepResult* res);
  void StepApply(Database* db, StepResult* res);
  void StepFinish(Database* db, StepResult* res);

  // Runs steps until the update terminates (or the step cap is hit).
  // Convenience for single-update (serial) execution.
  void RunToCompletion(Database* db, FrontierAgent* agent);

  // Abort-redo (Section 5): forget all state and requeue the initial
  // operation under a fresh, higher number.
  void Restart(uint64_t new_number);

  // Statistics for the current attempt.
  size_t steps_taken() const { return steps_taken_; }
  size_t frontier_ops_performed() const { return frontier_ops_; }
  size_t violations_repaired() const { return violations_repaired_; }
  size_t attempts() const { return attempts_; }

  // Rows examined by this update's violation detector over its lifetime:
  // this update's rows, across all attempts, only with an owned detector;
  // with options.detector set, the rows of every update that shared it (a
  // Scheduler reports those once, in TotalRowsExamined).
  uint64_t rows_examined() const { return detector_->rows_examined(); }
  // Rows this update's content lookups re-verified, across all attempts:
  // its more-specific correction queries (the forward repair's existence
  // checks and the frontier's candidate lists) and its exact-match checks
  // (the forward repair's Contains and the inserts' set semantics). Apart
  // from rows_examined(), which counts evaluator rows only.
  uint64_t lookup_rows_examined() const { return lookup_rows_examined_; }

 private:
  // What GenerateForwardRepair decided for an LHS-violation.
  enum class ForwardRepair : uint8_t {
    kSatisfied,      // every RHS tuple exists already
    kDeterministic,  // its inserts are in write_set_
    kAmbiguous,      // a frontier, built when the caller asks for it
  };

  // Consumes one frontier operation; appends resulting writes to write_set_.
  void ProcessPositiveFrontier(Database* db, FrontierAgent* agent,
                               StepResult* res);
  void ProcessNegativeFrontier(Database* db, FrontierAgent* agent);

  // Builds the repair for an LHS-violation: instantiates the RHS with fresh
  // nulls and asks the existence form of the more-specific correction query
  // until one tuple is ambiguous. Runs with write_set_ empty, and leaves a
  // deterministic repair's inserts there; an ambiguous repair leaves it
  // empty and fills `frontier` unless that is null.
  ForwardRepair GenerateForwardRepair(
      Database* db, const Snapshot& snap, const Violation& v, StepResult* res,
      std::optional<PositiveFrontier>* frontier);

  // Chooses and prepares the next violation to repair (step 4 above).
  void ChooseNextViolation(Database* db, const Snapshot& snap,
                           StepResult* res);

  // Applies `null_id := value` to the pending tuples of a frontier group.
  static void SubstituteInGroup(PositiveFrontier* pf, const Value& from,
                                const Value& to);

  // Shard-admission check: true iff every op of `writes` stays within
  // options.allowed_relations (null replacements are checked against the
  // null's current — possibly stale, hence conservative — occurrence set).
  // Appends one occurrence snapshot per null-replace op (in op order) to
  // `replace_occs`; Step applies the replacement over exactly that
  // snapshot, so an occurrence registered concurrently between check and
  // apply can never sneak an unvalidated write in.
  bool WritesStayWithin(const Database& db,
                        const std::vector<WriteOp>& writes,
                        std::vector<std::vector<TupleRef>>* replace_occs)
      const;

  uint64_t number_;
  WriteOp initial_op_;
  const std::vector<Tgd>* tgds_;
  // Violation detector: worker-shared when options.detector is set, else
  // owned (heap-held so detector_ survives moves of this Update).
  std::unique_ptr<ViolationDetector> owned_detector_;
  ViolationDetector* detector_;
  UpdateOptions options_;
  // Step-level staging for the batched violation detection (capacity
  // amortizes across the chase).
  std::vector<Violation> detect_scratch_;

  std::vector<WriteOp> write_set_;
  // The write set StepApply is applying (scratch that keeps its capacity).
  std::vector<WriteOp> applying_;
  std::deque<Violation> viol_queue_;
  std::optional<PositiveFrontier> pos_frontier_;
  std::optional<NegativeFrontier> neg_frontier_;
  bool finished_ = false;
  bool hit_step_cap_ = false;
  bool escaped_ = false;
  // Strided adaptive re-planning poll (see Step() and plan.h); superseded
  // by options.replan_poller when the facade shares its own.
  ReplanPoller replan_poller_;

  size_t steps_taken_ = 0;
  size_t frontier_ops_ = 0;
  size_t violations_repaired_ = 0;
  size_t attempts_ = 1;
  uint64_t lookup_rows_examined_ = 0;
};

}  // namespace youtopia

#endif  // YOUTOPIA_CORE_UPDATE_H_
