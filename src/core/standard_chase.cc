#include "core/standard_chase.h"

#include <deque>

#include "query/binding.h"
#include "tgd/dependency_graph.h"

namespace youtopia {

Result<StandardChase::Report> StandardChase::Run(uint64_t update_number,
                                                 const Options& options) {
  if (options.require_weak_acyclicity) {
    DependencyGraph graph(db_->catalog(), *tgds_);
    if (!graph.IsWeaklyAcyclic()) {
      return Status::FailedPrecondition(
          "standard chase requires a weakly acyclic tgd set");
    }
  }

  Report report;
  Snapshot snap(db_, update_number);
  std::deque<Violation> queue;
  {
    std::vector<Violation> initial;
    detector_.FindAll(snap, &initial);
    for (Violation& v : initial) queue.push_back(std::move(v));
  }

  std::vector<PhysicalWrite> step_writes;
  std::vector<Violation> found;
  while (!queue.empty()) {
    if (report.firings >= options.max_steps) return report;  // cap hit
    // The standard chase is the fastest-growing workload in the system
    // (every violation fires immediately), so the detector's plans must
    // track the exploding cardinalities. Strided mutation-sequence poll,
    // matching Update::Step (ReplanPoller, plan.h).
    if (replan_poller_.ShouldPoll(*db_)) {
      for (const Tgd& tgd : *tgds_) tgd.MaybeReplan(db_);
    }
    Violation v = std::move(queue.front());
    queue.pop_front();
    if (!detector_.IsStillViolated(snap, v, nullptr)) continue;
    ++report.firings;

    const Tgd& tgd = (*tgds_)[static_cast<size_t>(v.tgd_id)];
    Binding full = v.binding;
    full.EnsureSize(tgd.num_vars());
    for (VarId z : tgd.existential_vars()) full.Set(z, db_->FreshNull());
    // Apply the whole instantiated RHS, then detect over the firing's writes
    // in one batched pass (the detector dedups identical pinned queries).
    step_writes.clear();
    for (const Atom& atom : tgd.rhs().atoms) {
      db_->Apply(WriteOp::Insert(atom.rel, InstantiateAtom(atom, full)),
                 update_number, &step_writes);
    }
    report.tuples_added += step_writes.size();
    found.clear();
    detector_.AfterWrites(snap, step_writes, &found, nullptr);
    for (Violation& nv : found) queue.push_back(std::move(nv));
  }
  report.completed = true;
  return report;
}

}  // namespace youtopia
