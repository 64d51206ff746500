#ifndef YOUTOPIA_QUERY_EVALUATOR_H_
#define YOUTOPIA_QUERY_EVALUATOR_H_

#include <optional>
#include <type_traits>
#include <utility>
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
// The match callback is a template parameter, so a lambda is called
// directly: nothing is type-erased or heap-allocated per query, and a
// move-only callable works. It must not write to the database: candidate
// rows and their contents are read in place, and a write can move them
// (see VersionedRelation's pointer-lifetime rule).
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

  // Enumerates matches of `plan` extending `binding`, calling
  // cb(const Binding&, const std::vector<TupleRef>&) -> bool with the full
  // binding and the matched rows (one per atom, in atom order) for each;
  // the callback returns true to continue. If the plan was compiled with a
  // pinned atom, `pin` must pin that same atom (and vice versa). Returns
  // false iff the callback stopped the enumeration early.
  template <typename Callback>
  bool ForEachMatch(const QueryPlan& plan, Binding binding, const AtomPin* pin,
                    Callback&& cb) const {
    static_assert(
        std::is_same_v<std::invoke_result_t<Callback&, const Binding&,
                                            const std::vector<TupleRef>&>,
                       bool>,
        "ForEachMatch callback must return bool");
    if (!Start(plan, pin, &binding)) return true;  // the pin cannot match
    return ExecuteStep(plan, 0, binding, cb);
  }

  // Ad-hoc variant: compiles a plan for `cq` under `binding`'s profile,
  // then executes it. Prefer the QueryPlan overload on repeated queries.
  template <typename Callback>
  bool ForEachMatch(const ConjunctiveQuery& cq, Binding binding,
                    const AtomPin* pin, Callback&& cb) const {
    // Ad-hoc queries cost their one-shot plan from the target snapshot's
    // live statistics (user queries over skewed data get the same ordering
    // wins as the cached tgd plans).
    const QueryPlan plan = Planner::Compile(
        cq, Planner::MaskOf(binding),
        pin != nullptr ? std::optional<size_t>(pin->atom_index)
                       : std::nullopt,
        snap_.db_or_null());
    return ForEachMatch(plan, std::move(binding), pin, cb);
  }

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

  // Resets the per-execution state, sizes the scratch for `plan` and
  // matches the pinned tuple into `binding`. False if it cannot match.
  bool Start(const QueryPlan& plan, const AtomPin* pin,
             Binding* binding) const;
  // The rows a step walks: the planned probe's bucket (a composite probe
  // degrades to the smallest single-column bucket when a probe column is
  // unbound at runtime or the index is missing), or nullopt for a visible
  // scan. `key` is the step's composite-key scratch.
  std::optional<Span<const RowId>> Candidates(const PlanStep& step,
                                              const Atom& atom,
                                              const Binding& binding,
                                              std::vector<Value>* key) const;
  // Enumerates plan.steps[step_index..] under `binding`, calling `cb` at
  // each full match. False iff `cb` stopped the enumeration.
  template <typename Callback>
  bool ExecuteStep(const QueryPlan& plan, size_t step_index, Binding& binding,
                   Callback& cb) const;

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

template <typename Callback>
bool Evaluator::ExecuteStep(const QueryPlan& plan, size_t step_index,
                            Binding& binding, Callback& cb) const {
  std::vector<TupleRef>& rows = rows_scratch_;
  if (step_index == plan.steps.size()) {
    return cb(static_cast<const Binding&>(binding),
              static_cast<const std::vector<TupleRef>&>(rows));
  }

  const PlanStep& step = plan.steps[step_index];
  const Atom& atom = plan.query.atoms[step.atom_index];
  const VersionedRelation& relation = snap_.db().relation(atom.rel);
  std::vector<VarUndo>& undo = undo_scratch_[step_index];

  // Record the pre-match bound state of this atom's variables once: each
  // try_row below restores the binding exactly, so the list is invariant
  // across the candidate loop.
  undo.clear();
  for (const Term& t : atom.terms) {
    if (t.is_variable()) {
      undo.push_back(VarUndo{t.var(), binding.IsBound(t.var())});
    }
  }
  auto try_row = [&](RowId row, const TupleData& data) -> bool {
    ++rows_examined_;
    ++lifetime_rows_examined_;
    bool cont = true;
    if (MatchAtom(atom, data, &binding)) {
      rows[step.atom_index] = TupleRef{atom.rel, row};
      cont = ExecuteStep(plan, step_index + 1, binding, cb);
    }
    // Undo exactly what MatchAtom bound (it may bind partially on failure).
    for (const VarUndo& u : undo) {
      if (!u.was_bound) binding.Unset(u.var);
    }
    return cont;
  };

  // Buckets are read in place: nothing writes to the database while a
  // match enumeration runs (see VersionedRelation::Bucket).
  const std::optional<Span<const RowId>> candidates =
      Candidates(step, atom, binding, &key_scratch_[step_index]);
  if (candidates.has_value()) {
    for (RowId row : *candidates) {
      // A listed row carries the value in some stored version, not
      // necessarily in the one this reader sees.
      const TupleData* data = relation.VisibleData(row, snap_.reader());
      if (data != nullptr && !try_row(row, *data)) return false;
    }
    return true;
  }
  // Bool-returning callback: a stopped enumeration (e.g. Exists) ends the
  // scan instead of resolving visibility for every remaining row.
  bool keep_going = true;
  relation.ForEachVisible(snap_.reader(),
                          [&](RowId row, const TupleData& data) -> bool {
                            keep_going = try_row(row, data);
                            return keep_going;
                          });
  return keep_going;
}

}  // namespace youtopia

#endif  // YOUTOPIA_QUERY_EVALUATOR_H_
