#include "query/plan.h"

#include <algorithm>
#include <atomic>

#include "util/hash.h"

namespace youtopia {
namespace {

// See Planner::set_sketch_costing.
std::atomic<bool> g_sketch_costing{true};

uint64_t WithVar(uint64_t mask, VarId v) {
  return v < 64 ? (mask | (uint64_t{1} << v)) : mask;
}

bool HasVar(uint64_t mask, VarId v) {
  return v < 64 && (mask & (uint64_t{1} << v)) != 0;
}

uint64_t WithAtomVars(uint64_t mask, const Atom& atom) {
  for (const Term& t : atom.terms) {
    if (t.is_variable()) mask = WithVar(mask, t.var());
  }
  return mask;
}

// Term positions whose value is statically known under `mask`, ascending.
std::vector<size_t> BoundColumns(const Atom& atom, uint64_t mask) {
  std::vector<size_t> cols;
  for (size_t c = 0; c < atom.terms.size(); ++c) {
    const Term& t = atom.terms[c];
    if (t.is_constant() || HasVar(mask, t.var())) cols.push_back(c);
  }
  return cols;
}

// A composite probe must save at least this many examined rows per call over
// the cheapest single-column probe before the planner asks for the index
// (whose materialization and per-write maintenance are not free).
constexpr double kCompositeProbeBreakEven = 4.0;

// Estimated cost of executing one atom next under the binding prefix `mask`
// (see the cost model in plan.h).
struct AtomEstimate {
  double fetch = 0;    // rows examined by this step
  double out = 0;      // bindings produced (multiplies later steps)
  size_t bound = 0;    // statically bound columns (tie-break)
  AccessPath access = AccessPath::kScan;
};

// Per-value probe estimate for one bound column (the est(c) of the cost
// model in plan.h): the uniform bucket, refined by the column's heavy-hitter
// sketch when value-aware costing is on. Sketch reads are owner-thread-only
// like distinct_values — the planner only costs relations its shard owns.
double EstimateBoundColumn(const VersionedRelation& rel, const Term& term,
                           size_t c, double n, bool value_aware) {
  const double distinct =
      std::max<double>(1.0, static_cast<double>(rel.distinct_values(c)));
  const double uniform = n / distinct;
  if (!value_aware) return uniform;
  const TopKSketch<Value>& sketch = rel.sketch(c);
  if (term.is_constant()) {
    // The probe value is known now: price its bucket. Tracked entries are
    // exact bucket sizes; an untracked value's bucket was at most the
    // sketch's minimum tracked count when it last changed, so a cold
    // constant in a skewed column stays cheap — the refinement the retired
    // whole-column max_bucket nudge could not make.
    const double est = static_cast<double>(sketch.Estimate(term.constant()));
    return sketch.Tracks(term.constant()) ? est : std::min(uniform, est);
  }
  // Bound variable: the probe value arrives at runtime. Under the
  // data-frequency draw a bucket of g rows is probed with probability g/n
  // and then examines g rows, so the hot entries alone contribute
  // sum(g^2)/n expected rows; uniform covers the cold tail.
  double hot_expectation = 0;
  sketch.ForEach([&](const Value&, uint64_t count) {
    if (IsHotBucket(count, uniform)) {
      const double g = static_cast<double>(count);
      hot_expectation += g * g / std::max(1.0, n);
    }
  });
  return std::max(uniform, hot_expectation);
}

AtomEstimate EstimateAtom(const Atom& atom, uint64_t mask,
                          const Database& db) {
  const VersionedRelation& rel = db.relation(atom.rel);
  const double n = static_cast<double>(rel.visible_rows());
  const std::vector<size_t> bound = BoundColumns(atom, mask);
  AtomEstimate e;
  e.bound = bound.size();
  if (bound.empty()) {
    e.fetch = e.out = n;
    e.access = AccessPath::kScan;
    return e;
  }
  const bool value_aware = Planner::sketch_costing();
  double out = n;
  double best_single = n;
  for (size_t c : bound) {
    const double per_probe =
        EstimateBoundColumn(rel, atom.terms[c], c, n, value_aware);
    out *= n > 0 ? per_probe / n : 0.0;
    best_single = std::min(best_single, per_probe);
  }
  e.out = out;
  if (bound.size() >= 2 && best_single - out >= kCompositeProbeBreakEven) {
    e.access = AccessPath::kCompositeIndex;
    e.fetch = out;
  } else {
    e.access = AccessPath::kSingleColumn;
    e.fetch = best_single;
  }
  return e;
}

// Cardinality drift test backing PlanIsStale: factor-8 ratio with a +8
// floor, i.e. fires within a decade of growth or shrinkage but never on
// noise around near-empty relations.
constexpr size_t kStaleFloor = 8;
constexpr size_t kStaleFactor = 8;

// The cheapest drift (0 -> n rows) fires at n >= kStaleFloor*(kStaleFactor-1)
// writes; the poll stride must stay below that or a trigger could be
// skipped between polls.
static_assert(kReplanPollWriteStride <= kStaleFloor * (kStaleFactor - 1),
              "re-plan poll stride must not outrun the staleness floor");

bool CardinalityDrifted(size_t costed, size_t now) {
  const size_t a = costed + kStaleFloor;
  const size_t b = now + kStaleFloor;
  return a * kStaleFactor <= b || b * kStaleFactor <= a;
}

// Shared body of the two staleness predicates: drift of any stamped input.
// Both reads (visible_rows, hot_fingerprint) are any-thread relaxed
// atomics, so foreign staleness polls never touch owner-only state.
bool AnyDrifted(const std::vector<CostedCardinality>& costed_at,
                const Database& db) {
  const bool value_aware = Planner::sketch_costing();
  for (const CostedCardinality& e : costed_at) {
    const VersionedRelation& rel = db.relation(e.rel);
    if (CardinalityDrifted(e.visible_rows, rel.visible_rows())) return true;
    // Hot-set rotation: the plan priced specific heavy hitters; if the hot
    // set changed while total cardinality stayed put (e.g. churn moved the
    // skew to a different value), those per-value charges are wrong even
    // though no decade shifted. Skipped when sketch costing is off — the
    // plans then carry no per-value charges to invalidate.
    if (value_aware && e.hot_fingerprint != rel.hot_fingerprint()) {
      return true;
    }
  }
  return false;
}

// Appends one costed_at entry per distinct relation `cq` mentions that
// `out` does not already hold, stamped with the live visible-row count
// (zero when `db` is null). The single definition of "what a plan's
// staleness stamp contains": Compile and CompileTgdPlans both stamp
// through here.
void StampCardinalities(const ConjunctiveQuery& cq, const Database* db,
                        std::vector<CostedCardinality>* out) {
  const bool value_aware = Planner::sketch_costing();
  for (const Atom& atom : cq.atoms) {
    bool seen = false;
    for (const CostedCardinality& e : *out) seen |= e.rel == atom.rel;
    if (!seen) {
      const VersionedRelation* rel =
          db == nullptr ? nullptr : &db->relation(atom.rel);
      out->push_back({atom.rel, rel == nullptr ? 0 : rel->visible_rows(),
                      (rel != nullptr && value_aware) ? rel->hot_fingerprint()
                                                      : 0});
    }
  }
}

}  // namespace

void Planner::set_sketch_costing(bool on) {
  g_sketch_costing.store(on, std::memory_order_relaxed);
}

bool Planner::sketch_costing() {
  return g_sketch_costing.load(std::memory_order_relaxed);
}

uint64_t Planner::MaskOf(const std::vector<VarId>& vars) {
  uint64_t mask = 0;
  for (VarId v : vars) mask = WithVar(mask, v);
  return mask;
}

uint64_t Planner::MaskOf(const Binding& binding) {
  uint64_t mask = 0;
  for (VarId v = 0; v < binding.num_vars() && v < 64; ++v) {
    if (binding.IsBound(v)) mask = WithVar(mask, v);
  }
  return mask;
}

uint64_t Planner::MaskOfAtom(const Atom& atom) {
  return WithAtomVars(0, atom);
}

QueryPlan Planner::Compile(const ConjunctiveQuery& cq, uint64_t seed_bound_mask,
                           std::optional<size_t> pinned_atom) {
  return Compile(cq, seed_bound_mask, pinned_atom, nullptr);
}

QueryPlan Planner::Compile(const ConjunctiveQuery& cq, uint64_t seed_bound_mask,
                           std::optional<size_t> pinned_atom,
                           const Database* db) {
  QueryPlan plan;
  plan.query = cq;
  plan.seed_bound_mask = seed_bound_mask;
  plan.pinned_atom = pinned_atom;

  uint64_t mask = seed_bound_mask;
  std::vector<bool> done(cq.atoms.size(), false);
  size_t remaining = cq.atoms.size();
  if (pinned_atom.has_value()) {
    CHECK_LT(*pinned_atom, cq.atoms.size());
    done[*pinned_atom] = true;
    mask = WithAtomVars(mask, cq.atoms[*pinned_atom]);
    --remaining;
  }

  plan.steps.reserve(remaining);
  while (remaining > 0) {
    size_t best = cq.atoms.size();
    AccessPath best_access = AccessPath::kScan;
    if (db != nullptr) {
      // Cost-based: the atom minimizing this step's examined rows plus the
      // bindings it hands every later step. Ties fall back to the static
      // heuristic (more bound columns, then the earlier atom) so equal-cost
      // plans keep the static shapes.
      double best_score = 0;
      size_t best_bound = 0;
      for (size_t i = 0; i < cq.atoms.size(); ++i) {
        if (done[i]) continue;
        const AtomEstimate e = EstimateAtom(cq.atoms[i], mask, *db);
        const double score = e.fetch + e.out;
        if (best == cq.atoms.size() || score < best_score ||
            (score == best_score && e.bound > best_bound)) {
          best = i;
          best_score = score;
          best_bound = e.bound;
          best_access = e.access;
        }
      }
    } else {
      // Static: the atom with the most statically bound term positions next
      // (ties to the earlier atom, for determinism).
      size_t best_score = 0;
      for (size_t i = 0; i < cq.atoms.size(); ++i) {
        if (done[i]) continue;
        const size_t score = BoundColumns(cq.atoms[i], mask).size();
        if (best == cq.atoms.size() || score > best_score) {
          best = i;
          best_score = score;
        }
      }
    }
    CHECK_LT(best, cq.atoms.size());
    done[best] = true;
    --remaining;

    PlanStep step;
    step.atom_index = best;
    step.probe_columns = BoundColumns(cq.atoms[best], mask);
    if (db != nullptr) {
      step.access = best_access;
    } else if (step.probe_columns.size() >= 2) {
      step.access = AccessPath::kCompositeIndex;
    } else if (step.probe_columns.size() == 1) {
      step.access = AccessPath::kSingleColumn;
    } else {
      step.access = AccessPath::kScan;
    }
    plan.steps.push_back(std::move(step));
    mask = WithAtomVars(mask, cq.atoms[best]);
  }
  if (db != nullptr) StampCardinalities(cq, db, &plan.costed_at);
  return plan;
}

bool PlanIsStale(const QueryPlan& plan, const Database& db) {
  return AnyDrifted(plan.costed_at, db);
}

bool TgdPlansAreStale(const TgdPlans& plans, const Database& db) {
  return AnyDrifted(plans.costed_at, db);
}

std::string QueryPlan::ToString(const Catalog& catalog) const {
  std::string out = "[";
  for (size_t i = 0; i < steps.size(); ++i) {
    if (i > 0) out += " -> ";
    const PlanStep& step = steps[i];
    out += std::to_string(step.atom_index) + ":" +
           catalog.schema(query.atoms[step.atom_index].rel).name + " ";
    switch (step.access) {
      case AccessPath::kCompositeIndex:
        out += "idx(";
        break;
      case AccessPath::kSingleColumn:
        out += "col(";
        break;
      case AccessPath::kScan:
        out += "scan(";
        break;
    }
    for (size_t c = 0; c < step.probe_columns.size(); ++c) {
      if (c > 0) out += ",";
      out += std::to_string(step.probe_columns[c]);
    }
    out += ")";
  }
  out += "]";
  return out;
}

TgdPlans CompileTgdPlans(const ConjunctiveQuery& lhs,
                         const ConjunctiveQuery& rhs,
                         const std::vector<VarId>& frontier_vars,
                         const Database* db) {
  TgdPlans plans;
  const uint64_t frontier_mask = Planner::MaskOf(frontier_vars);
  plans.lhs_pinned.reserve(lhs.atoms.size());
  for (size_t a = 0; a < lhs.atoms.size(); ++a) {
    plans.lhs_pinned.push_back(Planner::Compile(lhs, 0, a, db));
    plans.lhs_pinned.back().shape_hash =
        ViolationQueryShapeHash(/*pinned_on_lhs=*/true, a);
  }
  plans.lhs_delete.reserve(rhs.atoms.size());
  for (size_t a = 0; a < rhs.atoms.size(); ++a) {
    const Atom& atom = rhs.atoms[a];
    uint64_t mask = 0;
    for (const Term& t : atom.terms) {
      if (t.is_variable() && HasVar(frontier_mask, t.var())) {
        mask = WithVar(mask, t.var());
      }
    }
    plans.lhs_delete.push_back(Planner::Compile(lhs, mask, std::nullopt, db));
    plans.lhs_delete.back().shape_hash =
        ViolationQueryShapeHash(/*pinned_on_lhs=*/false, a);
  }
  plans.lhs_full = Planner::Compile(lhs, 0, std::nullopt, db);
  plans.rhs_frontier = Planner::Compile(rhs, frontier_mask, std::nullopt, db);
  // Stamp the union of both sides' relations, zeros included when db is
  // null: a complement compiled without statistics must still go stale once
  // data arrives (see TgdPlans::costed_at).
  StampCardinalities(lhs, db, &plans.costed_at);
  StampCardinalities(rhs, db, &plans.costed_at);
  return plans;
}

uint64_t ViolationQueryShapeHash(bool pinned_on_lhs, size_t atom_index) {
  // Seeded with ReadQueryKind::kViolation's value so the fingerprint spaces
  // of the three read-query forms stay disjoint (see ccontrol/read_query.h).
  size_t seed = 0;
  HashCombine(seed, pinned_on_lhs ? 1u : 2u);
  HashCombine(seed, atom_index);
  return seed;
}

uint64_t FinishViolationFingerprint(uint64_t shape_hash, int tgd_id,
                                    const TupleData& pinned) {
  size_t seed = static_cast<size_t>(shape_hash);
  HashCombine(seed, static_cast<size_t>(tgd_id + 1));
  HashCombine(seed, TupleDataHash{}(pinned));
  return seed;
}

void EnsurePlanIndexes(Database* db, const QueryPlan& plan) {
  for (const PlanStep& step : plan.steps) {
    if (step.access != AccessPath::kCompositeIndex) continue;
    // Deferred: tiny relations keep zero maintenance cost; the index
    // materializes once the relation is large enough for probes to win.
    db->mutable_relation(plan.query.atoms[step.atom_index].rel)
        .RequestCompositeIndex(step.probe_columns);
  }
}

void EnsureTgdPlanIndexes(Database* db, const TgdPlans& plans) {
  for (const QueryPlan& plan : plans.lhs_pinned) EnsurePlanIndexes(db, plan);
  for (const QueryPlan& plan : plans.lhs_delete) EnsurePlanIndexes(db, plan);
  EnsurePlanIndexes(db, plans.lhs_full);
  EnsurePlanIndexes(db, plans.rhs_frontier);
}

}  // namespace youtopia
