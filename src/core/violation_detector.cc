#include "core/violation_detector.h"

#include <algorithm>

namespace youtopia {

void ViolationDetector::AfterWrites(const Snapshot& snap,
                                    Span<const PhysicalWrite> writes,
                                    std::vector<Violation>* out,
                                    std::vector<ReadQueryRecord>* reads) const {
  if (writes.empty()) return;
  lhs_eval_.Reset(snap);
  rhs_eval_.Reset(snap);
  // Pinned-query dedup only pays off when duplicates are possible: within
  // one write, every (tgd, atom) poses a distinct query shape, so a
  // single-write batch — the common chase step — skips the bookkeeping.
  const bool dedup = writes.size() > 1;
  // Batch-wide duplicate base: a (tgd, assignment) surfaced by an earlier
  // write of the same step is not reported again.
  const size_t first_new = out->size();
  for (const PhysicalWrite& w : writes) {
    switch (w.kind) {
      case WriteKind::kInsert:
        DetectInsertSide(w.rel, w.row, w.data, first_new, dedup, out, reads);
        break;
      case WriteKind::kDelete:
        DetectDeleteSide(w.rel, w.old_data, first_new, dedup, out, reads);
        break;
      case WriteKind::kModify:
        // A null replacement rewrites every occurrence of the null at once,
        // so RHS matches are preserved under the substitution and only
        // LHS-violations are possible (Section 2). Detect with the new
        // content.
        DetectInsertSide(w.rel, w.row, w.data, first_new, dedup, out, reads);
        break;
    }
  }
  if (dedup) posed_.clear();
}

bool ViolationDetector::Pose(const QueryPlan& plan, const PosedQuery& q,
                             bool dedup,
                             std::vector<ReadQueryRecord>* reads) const {
  uint64_t fp = 0;
  if (dedup || reads != nullptr) {
    fp = FinishViolationFingerprint(plan.shape_hash, q.tgd_id, *q.pinned);
  }
  if (dedup) {
    auto it = std::lower_bound(
        posed_.begin(), posed_.end(), fp,
        [](const auto& entry, uint64_t key) { return entry.first < key; });
    for (; it != posed_.end() && it->first == fp; ++it) {
      const PosedQuery& p = it->second;
      if (p.tgd_id == q.tgd_id && p.pinned_on_lhs == q.pinned_on_lhs &&
          p.atom_index == q.atom_index && *p.pinned == *q.pinned) {
        return false;
      }
    }
    posed_.insert(it, {fp, q});
  }
  if (reads != nullptr) {
    reads->push_back(ReadQueryRecord::Violation(q.tgd_id, q.pinned_on_lhs,
                                                q.atom_index, *q.pinned, fp));
  }
  return true;
}

void ViolationDetector::ReportOnce(int tgd_id, Violation::Kind kind,
                                   const Binding& binding,
                                   const std::vector<TupleRef>& witness,
                                   size_t first_new,
                                   std::vector<Violation>* out) const {
  for (size_t i = first_new; i < out->size(); ++i) {
    if ((*out)[i].tgd_id == tgd_id && (*out)[i].witness == witness &&
        (*out)[i].binding == binding) {
      return;
    }
  }
  const Tgd& tgd = (*tgds_)[static_cast<size_t>(tgd_id)];
  if (tgd.RhsSatisfiedUnder(binding, rhs_eval_)) return;
  Violation v;
  v.tgd_id = tgd_id;
  v.kind = kind;
  v.binding = binding;
  v.witness = witness;
  out->push_back(std::move(v));
}

void ViolationDetector::DetectInsertSide(
    RelationId rel, RowId row, const TupleData& data, size_t first_new,
    bool dedup, std::vector<Violation>* out,
    std::vector<ReadQueryRecord>* reads) const {
  for (size_t t = 0; t < tgds_->size(); ++t) {
    const Tgd& tgd = (*tgds_)[t];
    const int tgd_id = static_cast<int>(t);
    for (size_t a = 0; a < tgd.lhs().atoms.size(); ++a) {
      if (tgd.lhs().atoms[a].rel != rel) continue;
      const QueryPlan& plan = tgd.plans().lhs_pinned[a];
      if (!Pose(plan, PosedQuery{tgd_id, /*pinned_on_lhs=*/true, a, &data},
                dedup, reads)) {
        continue;
      }
      AtomPin pin{a, row, &data};
      lhs_eval_.ForEachMatch(
          plan, Binding(tgd.num_vars()), &pin,
          [&](const Binding& binding, const std::vector<TupleRef>& rows) {
            ReportOnce(tgd_id, Violation::Kind::kLhs, binding, rows,
                       first_new, out);
            return true;
          });
    }
  }
}

void ViolationDetector::DetectDeleteSide(
    RelationId rel, const TupleData& old_data, size_t first_new, bool dedup,
    std::vector<Violation>* out, std::vector<ReadQueryRecord>* reads) const {
  for (size_t t = 0; t < tgds_->size(); ++t) {
    const Tgd& tgd = (*tgds_)[t];
    const int tgd_id = static_cast<int>(t);
    for (size_t a = 0; a < tgd.rhs().atoms.size(); ++a) {
      const Atom& atom = tgd.rhs().atoms[a];
      if (atom.rel != rel) continue;
      const QueryPlan& plan = tgd.plans().lhs_delete[a];
      if (!Pose(plan,
                PosedQuery{tgd_id, /*pinned_on_lhs=*/false, a, &old_data},
                dedup, reads)) {
        continue;
      }
      // Bind the deleted tuple into the RHS atom; keep only frontier-variable
      // bindings when ranging over the LHS (existential bindings constrain
      // nothing there).
      Binding atom_binding(tgd.num_vars());
      if (!MatchAtom(atom, old_data, &atom_binding)) continue;
      Binding lhs_seed(tgd.num_vars());
      for (VarId x : tgd.frontier_vars()) {
        if (atom_binding.IsBound(x)) lhs_seed.Set(x, atom_binding.Get(x));
      }
      lhs_eval_.ForEachMatch(
          plan, lhs_seed, nullptr,
          [&](const Binding& binding, const std::vector<TupleRef>& rows) {
            ReportOnce(tgd_id, Violation::Kind::kRhs, binding, rows,
                       first_new, out);
            return true;
          });
    }
  }
}

bool ViolationDetector::IsStillViolated(
    const Snapshot& snap, const Violation& v,
    std::vector<ReadQueryRecord>* reads) const {
  CHECK_GE(v.tgd_id, 0);
  CHECK_LT(static_cast<size_t>(v.tgd_id), tgds_->size());
  const Tgd& tgd = (*tgds_)[static_cast<size_t>(v.tgd_id)];
  CHECK_EQ(v.witness.size(), tgd.lhs().atoms.size());
  // Witness rows must still be visible with content matching the binding.
  for (size_t a = 0; a < v.witness.size(); ++a) {
    const TupleData* data = snap.VisibleData(v.witness[a].rel, v.witness[a].row);
    if (data == nullptr) return false;
    if (InstantiateAtom(tgd.lhs().atoms[a], v.binding) != *data) return false;
  }
  // The revalidation re-reads the violation region; log it against the first
  // witness tuple so later conflicting writes are caught.
  if (reads != nullptr && !v.witness.empty()) {
    const TupleData* data = snap.VisibleData(v.witness[0].rel, v.witness[0].row);
    reads->push_back(ReadQueryRecord::Violation(
        v.tgd_id, /*pinned_on_lhs=*/true, 0, *data,
        FinishViolationFingerprint(tgd.plans().lhs_pinned[0].shape_hash,
                                   v.tgd_id, *data)));
  }
  rhs_eval_.Reset(snap);
  return !tgd.RhsSatisfiedUnder(v.binding, rhs_eval_);
}

void ViolationDetector::FindAll(const Snapshot& snap,
                                std::vector<Violation>* out) const {
  lhs_eval_.Reset(snap);
  rhs_eval_.Reset(snap);
  for (size_t t = 0; t < tgds_->size(); ++t) {
    const Tgd& tgd = (*tgds_)[t];
    lhs_eval_.ForEachMatch(
        tgd.plans().lhs_full, Binding(tgd.num_vars()), nullptr,
        [&](const Binding& binding, const std::vector<TupleRef>& rows) {
          if (!tgd.RhsSatisfiedUnder(binding, rhs_eval_)) {
            Violation v;
            v.tgd_id = static_cast<int>(t);
            v.kind = Violation::Kind::kLhs;
            v.binding = binding;
            v.witness = rows;
            out->push_back(std::move(v));
          }
          return true;
        });
  }
}

bool ViolationDetector::SatisfiesAll(const Snapshot& snap) const {
  std::vector<Violation> found;
  FindAll(snap, &found);
  return found.empty();
}

}  // namespace youtopia
