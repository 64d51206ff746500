#ifndef YOUTOPIA_QUERY_EVALUATOR_H_
#define YOUTOPIA_QUERY_EVALUATOR_H_

#include <functional>
#include <vector>

#include "query/atom.h"
#include "query/binding.h"
#include "query/plan.h"
#include "relational/database.h"

namespace youtopia {

// Forces one atom of a query to match one specific stored row (delta
// evaluation: "the newly written tuple" in the paper's violation queries).
struct AtomPin {
  size_t atom_index = 0;
  RowId row = 0;
  const TupleData* data = nullptr;  // content to match (may be a deleted
                                    // tuple's old content)
};

// Callback invoked per homomorphism: the full binding and the matched rows
// (one per atom, in atom order). Return true to continue enumeration.
using MatchCallback =
    std::function<bool(const Binding&, const std::vector<TupleRef>&)>;

// Enumerates homomorphisms from a conjunctive query into a database snapshot
// (naive-table semantics: constants match themselves, variables bind to any
// value, join variables must bind to literally equal values).
//
// Execution is plan-driven: a compiled QueryPlan fixes the atom order and
// the per-atom access path (composite-index probe, single-column probe, or
// visible scan). The hot paths — tgd premise, violation and reconfirmation
// queries — pass plans cached at mapping-registration time; the
// ConjunctiveQuery overloads compile a one-shot plan for ad-hoc queries
// (user queries, tests).
//
// Per-depth scratch (binding-undo logs, composite-probe keys) is kept in
// plain vectors that retain their capacity between executions, so a
// long-lived evaluator (the violation detector's, the conflict checker's)
// stops allocating once warm; candidate rows are read in place from the
// index buckets.
//
// Not reentrant: the scratch frames are reused across executions, so a
// callback must not invoke the same Evaluator instance again (nested
// queries construct their own, as all call sites do).
class Evaluator {
 public:
  explicit Evaluator(const Snapshot& snap) : snap_(snap) {}

  // Retargets the evaluator to another snapshot, keeping the scratch
  // buffers. Long-lived owners (the violation detector, the conflict
  // checker) reset per call so allocations amortize across a whole run
  // instead of a single query.
  void Reset(const Snapshot& snap) { snap_ = snap; }

  // Enumerates matches of `plan` extending `binding`. If the plan was
  // compiled with a pinned atom, `pin` must pin that same atom (and vice
  // versa). Returns false iff the callback stopped the enumeration early.
  bool ForEachMatch(const QueryPlan& plan, Binding binding, const AtomPin* pin,
                    const MatchCallback& cb) const;

  // Ad-hoc variant: compiles a plan for `cq` under `binding`'s profile,
  // then executes it. Prefer the QueryPlan overload on repeated queries.
  bool ForEachMatch(const ConjunctiveQuery& cq, Binding binding,
                    const AtomPin* pin, const MatchCallback& cb) const;

  // True if at least one match extending `binding` exists.
  bool Exists(const QueryPlan& plan, const Binding& binding) const;
  bool Exists(const ConjunctiveQuery& cq, const Binding& binding) const;

  // Statistics: rows touched by the last call (for microbenchmarks and the
  // planner's access-path regression tests).
  size_t rows_examined() const { return rows_examined_; }

  // Monotone total across the evaluator's lifetime, for callers that need
  // the cost of a whole multi-query pass (the violation detector's batched
  // write-path regression bounds) rather than one call.
  uint64_t lifetime_rows_examined() const { return lifetime_rows_examined_; }

 private:
  // Tracks which variables a step's match newly bound, for targeted undo
  // (cheaper than copying the whole binding per candidate row).
  struct VarUndo {
    VarId var;
    bool was_bound;
  };

  bool ExecuteStep(const QueryPlan& plan, size_t step_index, Binding& binding,
                   std::vector<TupleRef>& rows, const MatchCallback& cb) const;

  Snapshot snap_;  // by value: a (database pointer, reader) pair
  mutable size_t rows_examined_ = 0;
  mutable uint64_t lifetime_rows_examined_ = 0;
  mutable std::vector<TupleRef> rows_scratch_;
  // Reused buffers, one per plan depth (sibling nodes at one depth reuse
  // the same capacity instead of reallocating): the binding-undo log, and
  // the composite-probe key, the std::vector<Value> that
  // VersionedRelation::CompositeBucket hashes in place.
  mutable std::vector<std::vector<VarUndo>> undo_scratch_;
  mutable std::vector<std::vector<Value>> key_scratch_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_QUERY_EVALUATOR_H_
