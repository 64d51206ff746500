#include "ccontrol/conflict.h"

#include <algorithm>

#include "query/binding.h"
#include "query/evaluator.h"
#include "query/specificity.h"

namespace youtopia {

ConflictChecker::PreparedQuery ConflictChecker::Prepare(
    const ReadQueryRecord& q) const {
  PreparedQuery p;
  p.q = &q;
  if (q.kind != ReadQueryKind::kViolation) return p;
  CHECK_GE(q.tgd_id, 0);
  const Tgd& tgd = (*tgds_)[static_cast<size_t>(q.tgd_id)];
  p.tgd = &tgd;
  // Seed the binding from the query's own pinned tuple. A pin that no
  // longer binds (defensive) conflicts with no write.
  p.seed = Binding(tgd.num_vars());
  if (q.pinned_on_lhs) {
    CHECK_LT(q.atom_index, tgd.lhs().atoms.size());
    p.can_bind = MatchAtom(tgd.lhs().atoms[q.atom_index], q.pinned, &p.seed);
  } else {
    CHECK_LT(q.atom_index, tgd.rhs().atoms.size());
    Binding rhs_binding(tgd.num_vars());
    p.can_bind =
        MatchAtom(tgd.rhs().atoms[q.atom_index], q.pinned, &rhs_binding);
    if (p.can_bind) {
      for (VarId x : tgd.frontier_vars()) {
        if (rhs_binding.IsBound(x)) p.seed.Set(x, rhs_binding.Get(x));
      }
    }
  }
  return p;
}

bool ConflictChecker::Conflicts(const Snapshot& snap, const PhysicalWrite& w,
                                PreparedQuery* p) const {
  const ReadQueryRecord& q = *p->q;
  switch (q.kind) {
    case ReadQueryKind::kMoreSpecific: {
      if (w.rel != q.rel) return false;
      // Inserted/new content may add a more specific candidate; removed/old
      // content may take one away.
      if ((w.kind == WriteKind::kInsert || w.kind == WriteKind::kModify) &&
          IsMoreSpecific(w.data, q.tuple)) {
        return true;
      }
      if ((w.kind == WriteKind::kDelete || w.kind == WriteKind::kModify) &&
          IsMoreSpecific(w.old_data, q.tuple)) {
        return true;
      }
      return false;
    }
    case ReadQueryKind::kNullOccurrence: {
      if (!w.data.empty() && ContainsNull(w.data, q.null_value)) return true;
      if (!w.old_data.empty() && ContainsNull(w.old_data, q.null_value)) {
        return true;
      }
      return false;
    }
    case ReadQueryKind::kViolation:
      return ViolationQueryConflicts(snap, w, p);
  }
  return false;
}

bool ConflictChecker::ViolationQueryConflicts(const Snapshot& snap,
                                              const PhysicalWrite& w,
                                              PreparedQuery* p) const {
  const auto& rels = p->tgd->all_relations();
  if (std::find(rels.begin(), rels.end(), w.rel) == rels.end()) return false;
  if (!p->can_bind) return false;
  // The residual query and its plans are fixed by (tgd, side, atom) and
  // come from the memo, on the first write that gets this far.
  if (p->residual == nullptr) {
    p->residual = &ResidualFor(*p->tgd, *p->q, &snap.db());
  }

  // Contents to test: a modification is conservatively a delete of the old
  // content followed by an insert of the new one.
  const bool adds = w.kind == WriteKind::kInsert || w.kind == WriteKind::kModify;
  const bool removes =
      w.kind == WriteKind::kDelete || w.kind == WriteKind::kModify;

  if (adds) {
    // New LHS tuple: may create a witness — relevant only if the combined
    // match actually violates the tgd (NOT EXISTS refinement). New RHS
    // tuple: may complete an RHS match and remove a witness.
    if (JoinsWithPin(snap, *p, w.rel, w.data, /*on_lhs=*/true,
                     /*require_rhs_unsatisfied=*/true)) {
      return true;
    }
    if (JoinsWithPin(snap, *p, w.rel, w.data, /*on_lhs=*/false,
                     /*require_rhs_unsatisfied=*/false)) {
      return true;
    }
  }
  if (removes) {
    // Removed LHS tuple: a witness may disappear. Removed RHS tuple: a
    // witness may become violated. (The old database state is gone, so the
    // LHS-side check uses join satisfiability without the NOT EXISTS
    // refinement — a slight over-approximation.)
    if (JoinsWithPin(snap, *p, w.rel, w.old_data, /*on_lhs=*/true,
                     /*require_rhs_unsatisfied=*/false)) {
      return true;
    }
    if (JoinsWithPin(snap, *p, w.rel, w.old_data, /*on_lhs=*/false,
                     /*require_rhs_unsatisfied=*/false)) {
      return true;
    }
  }
  return false;
}

bool ConflictChecker::JoinsWithPin(const Snapshot& snap,
                                   const PreparedQuery& p, RelationId rel,
                                   const TupleData& content, bool on_lhs,
                                   bool require_rhs_unsatisfied) const {
  const Tgd& tgd = *p.tgd;
  const ReadQueryRecord& q = *p.q;
  const Binding& seed = p.seed;
  // The query's pinned tuple is a *given* of the intensional query (it was
  // the tuple the reader had just written); it participates in the join
  // through the seed binding but is not required to be stored. When the
  // query is pinned on an LHS atom, that atom is therefore excluded from
  // evaluation against the database.
  const ResidualPlans& rp = *p.residual;
  const ConjunctiveQuery& residual_lhs = rp.residual;

  lhs_eval_.Reset(snap);
  rhs_eval_.Reset(snap);
  Evaluator& eval = lhs_eval_;
  Evaluator& rhs_eval = rhs_eval_;
  if (on_lhs) {
    for (size_t a = 0; a < residual_lhs.atoms.size(); ++a) {
      const Atom& atom = residual_lhs.atoms[a];
      if (atom.rel != rel) continue;
      Binding binding = seed;
      bool found = false;
      if (residual_lhs.atoms.size() == 1) {
        // Only the written atom remains: match it directly.
        found =
            MatchAtom(atom, content, &binding) &&
            (!require_rhs_unsatisfied || !tgd.RhsSatisfiedUnder(binding, rhs_eval));
      } else {
        AtomPin pin{a, /*row=*/0, &content};
        eval.ForEachMatch(rp.pinned_at[a], seed, &pin,
                          [&](const Binding& match,
                              const std::vector<TupleRef>&) {
                            if (!require_rhs_unsatisfied ||
                                !tgd.RhsSatisfiedUnder(match, rhs_eval)) {
                              found = true;
                              return false;
                            }
                            return true;
                          });
      }
      if (found) return true;
    }
    // The written tuple may also coincide with the pinned atom itself.
    if (q.pinned_on_lhs && tgd.lhs().atoms[q.atom_index].rel == rel &&
        content == q.pinned) {
      if (residual_lhs.empty()) {
        return !require_rhs_unsatisfied || !tgd.RhsSatisfiedUnder(seed, rhs_eval);
      }
      bool found = false;
      eval.ForEachMatch(rp.full, seed, nullptr,
                        [&](const Binding& match, const std::vector<TupleRef>&) {
                          if (!require_rhs_unsatisfied ||
                              !tgd.RhsSatisfiedUnder(match, rhs_eval)) {
                            found = true;
                            return false;
                          }
                          return true;
                        });
      return found;
    }
    return false;
  }

  // RHS side: the written tuple must unify with some RHS atom consistently
  // with the pinned frontier values, and the residual LHS must have a match
  // under the combined frontier binding.
  for (size_t a = 0; a < tgd.rhs().atoms.size(); ++a) {
    const Atom& atom = tgd.rhs().atoms[a];
    if (atom.rel != rel) continue;
    Binding rhs_binding(tgd.num_vars());
    if (!MatchAtom(atom, content, &rhs_binding)) continue;
    Binding combined = seed;
    bool consistent = true;
    for (VarId x : tgd.frontier_vars()) {
      if (rhs_binding.IsBound(x) && !combined.Unify(x, rhs_binding.Get(x))) {
        consistent = false;
        break;
      }
    }
    if (!consistent) continue;
    if (residual_lhs.empty() || eval.Exists(rp.rhs_combined[a], combined)) {
      return true;
    }
  }
  return false;
}

const ConflictChecker::ResidualPlans& ConflictChecker::ResidualFor(
    const Tgd& tgd, const ReadQueryRecord& q, const Database* db) const {
  // Key layout: tgd_id:23 | atom_index:8 | side:1. The guards turn a
  // schema large enough to collide (and silently reuse the wrong residual
  // plans) into a crash.
  CHECK_LT(q.atom_index, 256u);
  CHECK_LT(static_cast<uint32_t>(q.tgd_id), 1u << 23);
  const uint32_t key = (static_cast<uint32_t>(q.tgd_id) << 9) |
                       (static_cast<uint32_t>(q.atom_index) << 1) |
                       (q.pinned_on_lhs ? 1u : 0u);
  auto it = residual_memo_.find(key);
  if (it != residual_memo_.end()) return it->second;

  const uint64_t frontier_mask = Planner::MaskOf(tgd.frontier_vars());

  ResidualPlans rp;
  if (q.pinned_on_lhs) {
    // MatchAtom on the pinned atom binds exactly that atom's variables.
    for (size_t a = 0; a < tgd.lhs().atoms.size(); ++a) {
      if (a == q.atom_index) continue;
      rp.residual.atoms.push_back(tgd.lhs().atoms[a]);
    }
    rp.seed_mask = Planner::MaskOfAtom(tgd.lhs().atoms[q.atom_index]);
  } else {
    // RHS pins seed only the frontier variables the pinned atom mentions.
    rp.residual = tgd.lhs();
    rp.seed_mask =
        Planner::MaskOfAtom(tgd.rhs().atoms[q.atom_index]) & frontier_mask;
  }
  if (!rp.residual.atoms.empty()) {
    rp.pinned_at.reserve(rp.residual.atoms.size());
    for (size_t a = 0; a < rp.residual.atoms.size(); ++a) {
      rp.pinned_at.push_back(
          Planner::Compile(rp.residual, rp.seed_mask, a, db));
    }
    rp.full = Planner::Compile(rp.residual, rp.seed_mask, std::nullopt, db);
    rp.rhs_combined.reserve(tgd.rhs().atoms.size());
    for (const Atom& atom : tgd.rhs().atoms) {
      rp.rhs_combined.push_back(Planner::Compile(
          rp.residual,
          rp.seed_mask | (Planner::MaskOfAtom(atom) & frontier_mask),
          std::nullopt, db));
    }
  }
  return residual_memo_.emplace(key, std::move(rp)).first->second;
}

size_t ConflictChecker::MaybeReplan(Database* db) const {
  CHECK(db != nullptr);
  for (auto& [key, rp] : residual_memo_) {
    if (rp.indexes_registered) continue;
    rp.ForEachPlan([&](QueryPlan& plan) { EnsurePlanIndexes(db, plan); });
    rp.indexes_registered = true;
  }
  size_t replanned = 0;
  for (auto& [key, rp] : residual_memo_) {
    rp.ForEachPlan([&](QueryPlan& plan) {
      if (!PlanIsStale(plan, *db)) return;
      plan = Planner::Compile(plan.query, plan.seed_bound_mask,
                              plan.pinned_atom, db);
      EnsurePlanIndexes(db, plan);
      ++replanned;
    });
  }
  return replanned;
}

}  // namespace youtopia
