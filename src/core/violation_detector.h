#ifndef YOUTOPIA_CORE_VIOLATION_DETECTOR_H_
#define YOUTOPIA_CORE_VIOLATION_DETECTOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "ccontrol/read_query.h"
#include "core/violation.h"
#include "query/evaluator.h"
#include "relational/database.h"
#include "relational/write.h"
#include "tgd/tgd.h"
#include "util/span.h"

namespace youtopia {

// Incremental (delta) violation detection: given the physical writes of a
// chase step, finds the new violations they cause by evaluating the paper's
// violation queries (Section 4.2, Example 4.1) with each written tuple
// pinned into the matching atom. Every query posed is reported through
// `reads` so the concurrency-control layer can log it.
//
// The write path is batched: AfterWrites pins a whole step's writes in one
// pass, deduplicating identical pinned queries across the batch by their
// plan-carried fingerprint (confirmed against the full query, since
// fingerprints can collide) before any evaluation, and builds each posed
// query's ReadQueryRecord exactly once (fused with detection). Queries are
// intensional — identified by (tgd, atom, pinned content), not by row — so
// two batch writes with equal content pose one query, mirroring the read
// log's own dedup. Single-write batches skip the dedup bookkeeping
// entirely: within one write every (tgd, atom) pair poses a distinct
// query shape, so no duplicate is possible.
class ViolationDetector {
 public:
  explicit ViolationDetector(const std::vector<Tgd>* tgds)
      : tgds_(tgds),
        lhs_eval_(Snapshot(nullptr, 0)),
        rhs_eval_(Snapshot(nullptr, 0)) {}

  // Appends the violations newly caused by the batch `writes`, as seen by
  // `snap`'s reader (which must already reflect every write of the batch).
  //
  //  * insert  — LHS-violations only: pin the new tuple into each LHS atom
  //              of each tgd over its relation.
  //  * delete  — RHS-violations only: pin the old tuple into each RHS atom;
  //              the LHS assignments that relied on it and now have no
  //              alternative RHS match are violated.
  //  * modify  — null replacement changes all occurrences of a null
  //              consistently, so only LHS-violations can arise (Section 2);
  //              detection pins the *new* content into LHS atoms.
  //
  // A violation — identified by (tgd, assignment, witness rows) — is
  // reported once per batch even when several writes (or several pinned
  // atoms of a self-join) surface it. Witness rows are part of the
  // identity: equal-content rows from different updates may coexist under
  // multiversion visibility and need their own queue entries for
  // row-targeted (backward) repair.
  void AfterWrites(const Snapshot& snap, Span<const PhysicalWrite> writes,
                   std::vector<Violation>* out,
                   std::vector<ReadQueryRecord>* reads) const;

  // Single-write convenience wrapper (a batch of one).
  void AfterWrite(const Snapshot& snap, const PhysicalWrite& w,
                  std::vector<Violation>* out,
                  std::vector<ReadQueryRecord>* reads) const {
    AfterWrites(snap, Span<const PhysicalWrite>(&w, 1), out, reads);
  }

  // Lazy revalidation when a queued violation is popped (implements
  // "violQueue.remove(violations just corrected)"): the witness rows must
  // still be visible with content matching the binding, and the RHS must
  // still have no match. If the revalidation posed a read, it is recorded.
  bool IsStillViolated(const Snapshot& snap, const Violation& v,
                       std::vector<ReadQueryRecord>* reads) const;

  // Full-database violation scan (tests, data generation, assertions).
  void FindAll(const Snapshot& snap, std::vector<Violation>* out) const;

  // True iff the snapshot satisfies every tgd.
  bool SatisfiesAll(const Snapshot& snap) const;

  const std::vector<Tgd>& tgds() const { return *tgds_; }

  // Rows examined by this detector's evaluators across its lifetime
  // (monotone; diff before/after a call to bound the cost of a batch).
  uint64_t rows_examined() const {
    return lhs_eval_.lifetime_rows_examined() +
           rhs_eval_.lifetime_rows_examined();
  }

 private:
  void DetectInsertSide(RelationId rel, RowId row, const TupleData& data,
                        size_t first_new, bool dedup,
                        std::vector<Violation>* out,
                        std::vector<ReadQueryRecord>* reads) const;
  void DetectDeleteSide(RelationId rel, const TupleData& old_data,
                        size_t first_new, bool dedup,
                        std::vector<Violation>* out,
                        std::vector<ReadQueryRecord>* reads) const;

  // A pinned violation query posed by the current batch. `pinned` points
  // into the batch's writes, which outlive the AfterWrites call.
  struct PosedQuery {
    int tgd_id;
    bool pinned_on_lhs;
    size_t atom_index;
    const TupleData* pinned;
  };

  // Whether the batch runs the violation query `q`, planned as `plan`:
  // false when `dedup` is set and an identical query (same tgd, atom and
  // pinned content) already ran for an earlier write of the batch, since
  // its answer and its read record are the same. A fingerprint hit counts
  // only if the full query matches too. A query that runs is logged to
  // `reads` when that is set, marked with whether its pinned tuple can
  // match its atom (ReadQueryRecord::pin_binds), decided once here.
  bool Pose(const QueryPlan& plan, const PosedQuery& q, bool dedup,
            std::vector<ReadQueryRecord>* reads) const;

  // Appends the violation (`tgd_id`, `binding`, `witness`) of `kind` to
  // `out` if the binding leaves the tgd's RHS unsatisfied and no entry from
  // `first_new` on already holds it. Self-joins surface the same violating
  // assignment once per pinned atom, and two deletes of alternative RHS
  // witnesses the same violated premise. The witness rows are part of the
  // identity: equal-content rows written by different updates can coexist
  // under multiversion visibility, and repairs that act on rows (the
  // backward chase) need one queue entry per witness.
  void ReportOnce(int tgd_id, Violation::Kind kind, const Binding& binding,
                  const std::vector<TupleRef>& witness, size_t first_new,
                  std::vector<Violation>* out) const;

  const std::vector<Tgd>* tgds_;
  // Long-lived evaluators, reset to the caller's snapshot per detection
  // call so their scratch buffers amortize across a whole chase. Two
  // instances because the NOT EXISTS probe runs inside the LHS
  // enumeration's callback (evaluators are not reentrant).
  mutable Evaluator lhs_eval_;
  mutable Evaluator rhs_eval_;
  // The queries posed by the current batch, sorted by fingerprint. Emptied
  // when the batch ends but keeps its capacity, so a detector allocates
  // here only when a batch poses more queries than any batch before it.
  mutable std::vector<std::pair<uint64_t, PosedQuery>> posed_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_CORE_VIOLATION_DETECTOR_H_
