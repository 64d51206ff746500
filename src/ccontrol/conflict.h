#ifndef YOUTOPIA_CCONTROL_CONFLICT_H_
#define YOUTOPIA_CCONTROL_CONFLICT_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ccontrol/read_query.h"
#include "query/binding.h"
#include "query/evaluator.h"
#include "query/plan.h"
#include "relational/database.h"
#include "relational/write.h"
#include "tgd/tgd.h"

namespace youtopia {

// Decides whether a physical write retroactively changes the answer to a
// previously posed read query (Algorithm 4's core check, Section 5).
//
// Correction queries are decided without touching the database: a write
// changes the answer of a more-specific query iff the tuple written (or
// removed) is itself more specific than the query's tuple, and of a
// null-occurrence query iff the tuple contains the null.
//
// Violation queries require database access: the check combines the original
// violation query's binding (from the tuple it was pinned on) with the new
// tuple and asks whether the two can participate in a common LHS match —
// refined, for inserts on the LHS, by the NOT EXISTS (RHS) condition. An
// insert can change the answer by creating a new witness (LHS join) or by
// completing an RHS match that removes one; deletions symmetrically; a
// modification is conservatively treated as a delete followed by an insert
// (Section 5). Most writes fail that join's first test, the written atom
// against the pinned binding, and are rejected from their content alone,
// before any evaluator runs.
//
// A check has a per-query part (Prepare) and a per-write part (Conflicts on
// the prepared query). Callers that test one query against many writes —
// the PRECISE tracker over a log prefix, the scheduler over a step's write
// batch — prepare it once.
class ConflictChecker {
  struct ResidualPlans;

 public:
  explicit ConflictChecker(const std::vector<Tgd>* tgds)
      : tgds_(tgds),
        lhs_eval_(Snapshot(nullptr, 0)),
        rhs_eval_(Snapshot(nullptr, 0)) {}

  // A read query readied for a run of writes: the part of a check that
  // the query alone fixes, built once per query instead of once per write.
  // For a violation query that is its tgd, the seed binding from the
  // pinned tuple (or that the pin cannot bind, so no write conflicts), and
  // the residual plans, taken from the memo when the first write reaches
  // them. Correction queries need only the query. Refers to `q`, which
  // must outlive it.
  struct PreparedQuery {
    const ReadQueryRecord* q = nullptr;
    const Tgd* tgd = nullptr;
    bool can_bind = false;
    Binding seed;
    const ResidualPlans* residual = nullptr;
  };

  PreparedQuery Prepare(const ReadQueryRecord& q) const;

  // True if `w` changes the answer to the prepared query. `snap` must carry
  // the *reader's* visibility (the update that posed the query).
  bool Conflicts(const Snapshot& snap, const PhysicalWrite& w,
                 PreparedQuery* p) const;

  // A single check: prepares `q` for this write alone.
  bool Conflicts(const Snapshot& snap, const PhysicalWrite& w,
                 const ReadQueryRecord& q) const {
    PreparedQuery p = Prepare(q);
    return Conflicts(snap, w, &p);
  }

  // Adaptive re-planning for the memoized residual plans, polled on the
  // scheduler's strided sweep. First the memo entries compiled since the
  // last sweep register their composite-index demands on `db` (a check
  // sees the database as const). Then every plan whose input relations
  // drifted ~10x from the cardinalities it was costed at (see PlanIsStale)
  // is recompiled where it stands, so PreparedQuery pointers stay valid,
  // and registers its demands. Cheap when nothing is new or stale. Returns
  // the number of plans recompiled.
  size_t MaybeReplan(Database* db) const;

  // Rows examined by this checker's evaluators across its lifetime (the
  // retroactive-check share of a run's row traffic; same contract as
  // ViolationDetector::rows_examined).
  uint64_t rows_examined() const {
    return lhs_eval_.lifetime_rows_examined() +
           rhs_eval_.lifetime_rows_examined();
  }

 private:
  // Everything about a recorded violation query's residual premise that is
  // fixed by (tgd, pinned side, pinned atom): the residual query (the LHS
  // minus the pinned atom for LHS pins, the whole LHS for RHS pins), the
  // statically known seed profile, and the plans for every way JoinsWithPin
  // executes it, compiled against the database of the first check that
  // reaches the entry. Memoized under an integer key so a check neither
  // copies atoms nor rehashes query shapes.
  struct ResidualPlans {
    ConjunctiveQuery residual;
    uint64_t seed_mask = 0;
    // Per residual atom: residual pinned there (empty residual -> empty).
    std::vector<QueryPlan> pinned_at;
    // Residual under the seed profile alone (no steps iff residual is
    // empty).
    QueryPlan full;
    // Per RHS atom a: residual under seed + atom a's frontier variables.
    std::vector<QueryPlan> rhs_combined;
    // Whether MaybeReplan has registered the plans' composite indexes.
    bool indexes_registered = false;

    template <typename Fn>
    void ForEachPlan(Fn&& fn) {
      for (QueryPlan& plan : pinned_at) fn(plan);
      fn(full);
      for (QueryPlan& plan : rhs_combined) fn(plan);
    }
  };

  bool ViolationQueryConflicts(const Snapshot& snap, const PhysicalWrite& w,
                               PreparedQuery* p) const;

  // Can `content`, placed at some atom of `side` over `rel`, join into a
  // match of the tgd's LHS consistent with the pinned binding? When
  // `require_rhs_unsatisfied` is set the match must additionally violate the
  // tgd (the NOT EXISTS refinement). `p` can bind and has its residual.
  bool JoinsWithPin(const Snapshot& snap, const PreparedQuery& p,
                    RelationId rel, const TupleData& content, bool on_lhs,
                    bool require_rhs_unsatisfied) const;

  const ResidualPlans& ResidualFor(const Tgd& tgd, const ReadQueryRecord& q,
                                   const Database* db) const;

  const std::vector<Tgd>* tgds_;
  // (tgd, side, atom) -> residual and its plans. The mappings fix the
  // handful of residuals every retroactive check runs, so each is compiled
  // once; node-based, so PreparedQuery's pointer into it stays valid.
  mutable std::unordered_map<uint32_t, ResidualPlans> residual_memo_;
  // Long-lived evaluators, reset per check (two: the NOT EXISTS probe runs
  // inside the LHS enumeration's callback, and evaluators are not
  // reentrant). Their scratch amortizes across the many checks the
  // read-log reconfirmation and the PRECISE tracker perform.
  mutable Evaluator lhs_eval_;
  mutable Evaluator rhs_eval_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_CCONTROL_CONFLICT_H_
