#ifndef YOUTOPIA_QUERY_PLAN_H_
#define YOUTOPIA_QUERY_PLAN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "query/atom.h"
#include "query/binding.h"
#include "relational/database.h"

namespace youtopia {

// How a plan step fetches candidate rows for its atom.
enum class AccessPath : uint8_t {
  kCompositeIndex = 0,  // probe one multi-column hash index
  kSingleColumn = 1,    // probe the cheapest single-column hash index
  kScan = 2,            // full visible scan
};

// One atom of a compiled plan: which atom to match next and how to fetch its
// candidates, decided once at compile time from the statically known
// boundness (seed profile, pinned atom, and variables bound by earlier
// steps).
struct PlanStep {
  size_t atom_index = 0;
  AccessPath access = AccessPath::kScan;
  // Columns whose values are known when the step executes (constant terms
  // and bound variables), ascending. kCompositeIndex probes the composite
  // index over exactly these columns; kSingleColumn probes the cheapest of
  // them per call.
  std::vector<size_t> probe_columns;
};

// The live cardinality a cost-based plan was costed at, one entry per
// distinct relation the query mentions. Compared against the relations'
// current visible-row counts — and heavy-hitter fingerprints — by the
// staleness predicate below.
struct CostedCardinality {
  RelationId rel = 0;
  size_t visible_rows = 0;
  // The relation's hot-set fingerprint at costing time (see
  // VersionedRelation::hot_fingerprint); 0 when costed without sketches.
  uint64_t hot_fingerprint = 0;
};

// A compiled physical plan for one conjunctive query under one boundness
// profile (plan-once/execute-many: the workload's queries are a small fixed
// set derived from the registered tgds, executed millions of times).
// Compilation fixes the atom order and per-atom access path; execution is a
// pure walk of `steps` with no per-call planning.
//
// A plan compiled for a weaker profile than the runtime binding is still
// correct (the extra bound columns are verified by the match); a planned
// probe column that happens to be unbound at runtime is skipped, degrading
// the access path for that call but never the result.
struct QueryPlan {
  ConjunctiveQuery query;
  uint64_t seed_bound_mask = 0;  // vars (< 64) assumed bound at entry
  // Atom matched externally (delta evaluation: the freshly written tuple);
  // excluded from `steps`, its variables count as bound.
  std::optional<size_t> pinned_atom;
  std::vector<PlanStep> steps;
  // For violation-query plans: the shape half of the read-log fingerprint
  // (see ViolationQueryShapeHash below), precomputed at tgd creation so the
  // write path finishes a fingerprint with one content hash instead of
  // rehashing every field per posed query. 0 for non-violation plans.
  uint64_t shape_hash = 0;
  // Cardinalities this plan was costed at (empty for plans compiled without
  // statistics, which are therefore never stale).
  std::vector<CostedCardinality> costed_at;

  // Stable rendering for golden tests and diagnostics, e.g.
  //   "[1:T col(0) -> 0:A col(1)]".
  std::string ToString(const Catalog& catalog) const;
};

// Compiles conjunctive queries into QueryPlans.
//
// Without statistics (db == nullptr), atom order is greedy by static
// boundness (most bound term positions first, ties to the earlier atom) and
// the access path per atom is composite-index for two or more bound
// columns, single-column for one, scan for none.
//
// With statistics (db != nullptr), ordering and access paths come from a
// selectivity cost model over the relations' live statistics
// (VersionedRelation::visible_rows / distinct_values / sketch, maintained
// incrementally by the write path). Per candidate atom under the current
// binding prefix, with N = visible rows, each bound column c is priced at a
// per-value estimate est(c):
//
//   rows produced  out   = N * prod_c est(c)/N
//   single probe   fetch = min_c est(c)       (executor picks the cheapest
//                                              actual bucket at runtime)
//   composite      fetch = out                (probe over all bound columns)
//   scan           fetch = N                  (no bound column)
//
// est(c) starts at the uniform bucket N/distinct(c) (attribute
// independence) and is refined by the column's heavy-hitter sketch
// (VersionedRelation::sketch):
//
//   * constant term: the probe value is known at compile time, so the
//     sketch prices that value — its tracked bucket (exact: every bucket
//     change reports its size) when tracked, else at most the sketch's
//     minimum tracked count (an untracked value's bucket was bounded by it
//     when the bucket last changed; see TopKSketch). This replaces the
//     retired max_bucket nudge, which charged the one hot bucket to EVERY
//     probe of a skewed column: a cold constant in a skewed column now
//     keeps its cheap estimate, a hot one is charged its real bucket.
//   * bound variable: the probe value is unknown, so est(c) is the uniform
//     estimate raised to the hot-value expectation sum(g^2)/N over hot
//     entries g (a value drawn by data frequency lands in bucket g with
//     probability g/N and then examines g rows) — columns whose mass sits
//     in heavy hitters are priced at their expected, not best-case, probe.
//
// Planner::set_sketch_costing(false) disables the refinement (pure uniform
// estimates; the skew suite's control arms).
//
// Greedy order: the atom minimizing fetch + out next (fetch is this step's
// rows examined; out multiplies every later step), ties to the statically
// more bound atom, then to the earlier one — so equal-cost plans degrade to
// exactly the static shapes. A composite probe (and hence a composite-index
// materialization demand, see EnsurePlanIndexes) is chosen only when it
// beats the cheapest single-column probe by at least the break-even margin,
// replacing the old fixed 256-row materialization threshold.
//
// Cost-based plans are stamped with the cardinalities and hot-set
// fingerprints they were costed at (QueryPlan::costed_at); PlanIsStale
// reports when any input relation has since drifted by roughly an order of
// magnitude (factor-8 ratio test with a +8 floor on both sides so
// nearly-empty relations do not churn) or rotated its heavy-hitter set
// (the per-value charges priced values that are no longer the hot ones),
// which is the re-planning trigger the chase layers poll — recompilation is
// ~200ns (BM_AdHocPlanCompilation), so re-planning is nearly free relative
// to one mis-ordered join over a grown relation.
class Planner {
 public:
  static QueryPlan Compile(const ConjunctiveQuery& cq, uint64_t seed_bound_mask,
                           std::optional<size_t> pinned_atom);

  // Cost-based variant: orders atoms and picks access paths from `db`'s live
  // statistics and stamps the plan's costed_at. Falls back to the static
  // heuristic when `db` is null.
  static QueryPlan Compile(const ConjunctiveQuery& cq, uint64_t seed_bound_mask,
                           std::optional<size_t> pinned_atom,
                           const Database* db);

  // Kill switch for the sketch-backed per-value refinement (the skew
  // suite's no-sketch control arms and A/B debugging). Default on. Also
  // gates fingerprint stamping and the hot-set staleness trigger, so a
  // disabled run never replans on hot-set rotation. Process-wide; flip only
  // while no planner or staleness poll runs concurrently (benches flip it
  // between arms, single-threaded).
  static void set_sketch_costing(bool on);
  static bool sketch_costing();

  // Bound-profile mask helpers (variables >= 64 are conservatively treated
  // as unbound; plans stay correct, only the access path degrades).
  static uint64_t MaskOf(const std::vector<VarId>& vars);
  static uint64_t MaskOf(const Binding& binding);
  // Mask of an atom's variables: the profile MatchAtom leaves behind after
  // binding the atom against a stored tuple (used to precompute seed masks
  // for pinned queries).
  static uint64_t MaskOfAtom(const Atom& atom);
};

// The full plan complement for one tgd, compiled at tgd creation (and
// recompiled by the adaptive re-planning triggers, see Tgd::MaybeReplan).
// Covers every query shape the chase, violation detection and read-log
// reconfirmation execute:
struct TgdPlans {
  // LHS with atom `a` pinned to a written tuple (insert/modify-side delta
  // violation queries), one per LHS atom.
  std::vector<QueryPlan> lhs_pinned;
  // LHS for delete-side violation queries, one per RHS atom `a`: exactly
  // the frontier variables occurring in that atom are bound (the deleted
  // tuple was matched into it).
  std::vector<QueryPlan> lhs_delete;
  // LHS with nothing bound (full satisfaction scans).
  QueryPlan lhs_full;
  // RHS with the frontier variables bound (the NOT EXISTS probe).
  QueryPlan rhs_frontier;
  // Cardinalities the complement was costed at, one entry per relation the
  // tgd mentions. Always stamped — zeros when compiled without a database —
  // so a complement compiled at registration over an empty repository goes
  // stale (and gets recompiled with real statistics) as soon as the
  // relations grow.
  std::vector<CostedCardinality> costed_at;
};

TgdPlans CompileTgdPlans(const ConjunctiveQuery& lhs,
                         const ConjunctiveQuery& rhs,
                         const std::vector<VarId>& frontier_vars,
                         const Database* db = nullptr);

// --- Staleness (the adaptive re-planning trigger) --------------------------
//
// True when any input relation's live visible-row count has drifted roughly
// an order of magnitude from what the plan was costed at (factor-8 ratio
// with a +8 floor on both sides). Cheap enough to poll per chase step: a
// handful of integer compares against counters the relations maintain
// anyway. Plans with an empty costed_at stamp are never stale.
bool PlanIsStale(const QueryPlan& plan, const Database& db);
bool TgdPlansAreStale(const TgdPlans& plans, const Database& db);

// Poll stride for the re-planning triggers (Update::Step, StandardChase,
// the scheduler's residual-plan sweep): database mutations (writes and
// removals, both of which advance Database::next_seq) are the only
// staleness source, and the predicate's floor+factor mean the smallest
// possible drift needs more mutations than this stride (static_assert in
// plan.cc), so strided polling can never skip past a trigger — it only
// defers it by under one stride of mutations.
inline constexpr uint64_t kReplanPollWriteStride = 32;

// The strided poll watermark the chase layers share: ShouldPoll returns
// true — and advances the watermark — once the database's mutation
// sequence has moved a full stride since the last poll. One instance per
// polling owner (an Update, a StandardChase, a Scheduler); keeping the
// stride logic here pins all three to the same rules and to the
// static_assert tying the stride to the staleness floor.
class ReplanPoller {
 public:
  bool ShouldPoll(const Database& db) {
    if (db.next_seq() < last_seq_ + kReplanPollWriteStride) return false;
    last_seq_ = db.next_seq();
    ++fired_;
    return true;
  }

  // Times ShouldPoll returned true (tests: the facade-level shared
  // watermark must not re-fire for every new update over an unchanged
  // database).
  uint64_t fired() const { return fired_; }

 private:
  uint64_t last_seq_ = 0;
  uint64_t fired_ = 0;
};

// --- Violation-query fingerprints -----------------------------------------
//
// The concurrency-control read log identifies a posed violation query by a
// 64-bit fingerprint with two halves: a *shape* half — which side the
// written tuple was pinned on and at which atom — fixed when the tgd's
// plans are compiled, and an *identity* half — the tgd id and the pinned
// tuple's content — known only when the query is posed. CompileTgdPlans
// stamps the shape half on every violation plan (lhs_pinned, lhs_delete) so
// the chase's hot write path pays exactly one tuple-content hash per posed
// query. ccontrol/read_query.h builds its fallback fingerprints from the
// same two functions, so both paths agree bit for bit.
uint64_t ViolationQueryShapeHash(bool pinned_on_lhs, size_t atom_index);
uint64_t FinishViolationFingerprint(uint64_t shape_hash, int tgd_id,
                                    const TupleData& pinned);

// Builds, on `db`, the composite indexes the plan's steps probe. Idempotent;
// called when plans are registered (AddMapping, scheduler construction) so
// the executor's composite probes hit instead of falling back.
void EnsurePlanIndexes(Database* db, const QueryPlan& plan);
void EnsureTgdPlanIndexes(Database* db, const TgdPlans& plans);

}  // namespace youtopia

#endif  // YOUTOPIA_QUERY_PLAN_H_
