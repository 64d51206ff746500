#include "query/evaluator.h"

#include <algorithm>
#include <optional>

namespace youtopia {
namespace {

// Resolves the value of a probe column, or nullptr if its variable is
// unbound at runtime (plan compiled for a stronger profile).
const Value* ProbeValue(const Term& term, const Binding& binding) {
  if (term.is_constant()) return &term.constant();
  if (binding.IsBound(term.var())) return &binding.Get(term.var());
  return nullptr;
}

}  // namespace

bool Evaluator::ForEachMatch(const QueryPlan& plan, Binding binding,
                             const AtomPin* pin,
                             const MatchCallback& cb) const {
  rows_examined_ = 0;
  const ConjunctiveQuery& cq = plan.query;
  if (cq.atoms.empty()) {
    std::vector<TupleRef> no_rows;
    return cb(binding, no_rows);
  }
  rows_scratch_.assign(cq.atoms.size(), TupleRef{});
  std::vector<TupleRef>& rows = rows_scratch_;
  // Pre-size the per-depth scratch so recursion never reallocates the outer
  // vectors while inner frames hold references into them.
  const size_t depths = plan.steps.size();
  if (undo_scratch_.size() < depths) undo_scratch_.resize(depths);
  if (key_scratch_.size() < depths) key_scratch_.resize(depths);

  if (pin != nullptr) {
    CHECK(plan.pinned_atom.has_value());
    CHECK_EQ(*plan.pinned_atom, pin->atom_index);
    CHECK_LT(pin->atom_index, cq.atoms.size());
    CHECK(pin->data != nullptr);
    if (!MatchAtom(cq.atoms[pin->atom_index], *pin->data, &binding)) {
      return true;  // pinned tuple cannot match: zero results
    }
    rows[pin->atom_index] = TupleRef{cq.atoms[pin->atom_index].rel, pin->row};
  } else {
    // A plan compiled around a pinned atom never enumerates it; executing
    // such a plan without the pin would silently drop the atom.
    CHECK(!plan.pinned_atom.has_value());
  }
  return ExecuteStep(plan, 0, binding, rows, cb);
}

bool Evaluator::ForEachMatch(const ConjunctiveQuery& cq, Binding binding,
                             const AtomPin* pin,
                             const MatchCallback& cb) const {
  // Ad-hoc queries cost their one-shot plan from the target snapshot's live
  // statistics (user queries over skewed data get the same ordering wins as
  // the cached tgd plans).
  const QueryPlan plan = Planner::Compile(
      cq, Planner::MaskOf(binding),
      pin != nullptr ? std::optional<size_t>(pin->atom_index) : std::nullopt,
      snap_.db_or_null());
  return ForEachMatch(plan, std::move(binding), pin, cb);
}

bool Evaluator::Exists(const QueryPlan& plan, const Binding& binding) const {
  bool found = false;
  ForEachMatch(plan, binding, nullptr,
               [&](const Binding&, const std::vector<TupleRef>&) {
                 found = true;
                 return false;  // stop at first match
               });
  return found;
}

bool Evaluator::Exists(const ConjunctiveQuery& cq,
                       const Binding& binding) const {
  bool found = false;
  ForEachMatch(cq, binding, nullptr,
               [&](const Binding&, const std::vector<TupleRef>&) {
                 found = true;
                 return false;  // stop at first match
               });
  return found;
}

bool Evaluator::ExecuteStep(const QueryPlan& plan, size_t step_index,
                            Binding& binding, std::vector<TupleRef>& rows,
                            const MatchCallback& cb) const {
  if (step_index == plan.steps.size()) return cb(binding, rows);

  const PlanStep& step = plan.steps[step_index];
  const Atom& atom = plan.query.atoms[step.atom_index];
  const VersionedRelation& relation = snap_.db().relation(atom.rel);
  std::vector<VarUndo>& undo = undo_scratch_[step_index];
  std::vector<Value>& key = key_scratch_[step_index];

  // Record the pre-match bound state of this atom's variables once: each
  // try_row below restores the binding exactly, so the list is invariant
  // across the candidate loop.
  undo.clear();
  for (const Term& t : atom.terms) {
    if (t.is_variable()) {
      undo.push_back(VarUndo{t.var(), binding.IsBound(t.var())});
    }
  }
  bool keep_going = true;
  auto try_row = [&](RowId row, const TupleData& data) -> bool {
    bool cont = true;
    if (MatchAtom(atom, data, &binding)) {
      rows[step.atom_index] = TupleRef{atom.rel, row};
      cont = ExecuteStep(plan, step_index + 1, binding, rows, cb);
    }
    // Undo exactly what MatchAtom bound (it may bind partially on failure).
    for (const VarUndo& u : undo) {
      if (!u.was_bound) binding.Unset(u.var);
    }
    return cont;
  };

  // Candidate fetch per the planned access path, degrading gracefully when
  // a planned probe column is unbound at runtime or an index is missing.
  // Buckets are read in place: nothing writes to the database while a
  // match enumeration runs (see VersionedRelation::Bucket).
  std::optional<Span<const RowId>> candidates;
  if (step.access == AccessPath::kCompositeIndex) {
    key.clear();
    for (size_t c : step.probe_columns) {
      const Value* v = ProbeValue(atom.terms[c], binding);
      if (v == nullptr) break;
      key.push_back(*v);
    }
    if (key.size() == step.probe_columns.size()) {
      candidates = relation.CompositeBucket(step.probe_columns, key);
    }
  }
  if (!candidates.has_value()) {
    // Single-column path: probe the smallest bucket among the bound columns.
    for (size_t c : step.probe_columns) {
      const Value* v = ProbeValue(atom.terms[c], binding);
      if (v == nullptr) continue;
      const Span<const RowId> bucket = relation.Bucket(c, *v);
      if (!candidates.has_value() || bucket.size() < candidates->size()) {
        candidates = bucket;
      }
      if (candidates->empty()) break;  // no candidate can match
    }
  }

  if (candidates.has_value()) {
    for (RowId row : *candidates) {
      // A listed row carries the value in some stored version, not
      // necessarily in the one this reader sees.
      const TupleData* data = relation.VisibleData(row, snap_.reader());
      if (data == nullptr) continue;
      ++rows_examined_;
      ++lifetime_rows_examined_;
      if (!try_row(row, *data)) {
        keep_going = false;
        break;
      }
    }
  } else {
    // Bool-returning callback: a stopped enumeration (e.g. Exists) ends the
    // scan instead of resolving visibility for every remaining row.
    relation.ForEachVisible(snap_.reader(),
                            [&](RowId row, const TupleData& data) -> bool {
                              ++rows_examined_;
                              ++lifetime_rows_examined_;
                              if (!try_row(row, data)) {
                                keep_going = false;
                                return false;
                              }
                              return true;
                            });
  }
  return keep_going;
}

}  // namespace youtopia
