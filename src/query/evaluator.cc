#include "query/evaluator.h"

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

bool Evaluator::Start(const QueryPlan& plan, const AtomPin* pin,
                      Binding* binding) const {
  rows_examined_ = 0;
  const ConjunctiveQuery& cq = plan.query;
  rows_scratch_.assign(cq.atoms.size(), TupleRef{});
  // Pre-size the per-depth scratch so recursion never reallocates the outer
  // vectors while inner frames hold references into them.
  const size_t depths = plan.steps.size();
  if (undo_scratch_.size() < depths) undo_scratch_.resize(depths);
  if (key_scratch_.size() < depths) key_scratch_.resize(depths);

  if (pin == nullptr) {
    // A plan compiled around a pinned atom never enumerates it; executing
    // such a plan without the pin would silently drop the atom.
    CHECK(!plan.pinned_atom.has_value());
    return true;
  }
  CHECK(plan.pinned_atom.has_value());
  CHECK_EQ(*plan.pinned_atom, pin->atom_index);
  CHECK_LT(pin->atom_index, cq.atoms.size());
  CHECK(pin->data != nullptr);
  if (!MatchAtom(cq.atoms[pin->atom_index], *pin->data, binding)) {
    return false;  // pinned tuple cannot match: zero results
  }
  rows_scratch_[pin->atom_index] =
      TupleRef{cq.atoms[pin->atom_index].rel, pin->row};
  return true;
}

bool Evaluator::Exists(const QueryPlan& plan, const Binding& binding) const {
  return !ForEachMatch(plan, binding, nullptr,
                       [](const Binding&, const std::vector<TupleRef>&) {
                         return false;  // stop at first match
                       });
}

bool Evaluator::Exists(const ConjunctiveQuery& cq,
                       const Binding& binding) const {
  return !ForEachMatch(cq, binding, nullptr,
                       [](const Binding&, const std::vector<TupleRef>&) {
                         return false;  // stop at first match
                       });
}

std::optional<Span<const RowId>> Evaluator::Candidates(
    const PlanStep& step, const Atom& atom, const Binding& binding,
    std::vector<Value>* key) const {
  const VersionedRelation& relation = snap_.db().relation(atom.rel);
  std::optional<Span<const RowId>> candidates;
  if (step.access == AccessPath::kCompositeIndex) {
    key->clear();
    for (size_t c : step.probe_columns) {
      const Value* v = ProbeValue(atom.terms[c], binding);
      if (v == nullptr) break;
      key->push_back(*v);
    }
    if (key->size() == step.probe_columns.size()) {
      candidates = relation.CompositeBucket(step.probe_columns, *key);
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
  return candidates;
}

}  // namespace youtopia
