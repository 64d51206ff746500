#include "query/plan.h"

#include <gtest/gtest.h>

#include "core/standard_chase.h"
#include "core/youtopia.h"
#include "query/evaluator.h"
#include "tgd/parser.h"
#include "test_util.h"

namespace youtopia {
namespace {

// --- Plan-shape golden tests -------------------------------------------------
// The paper's sigma3-style mapping: A(l, n) & T(n, co, s) -> exists rv:
// R(co, n, rv). The compiled plan complement must pick the expected atom
// orders and access paths; these shapes are what every chase step executes.

struct Sigma3 {
  Database db;
  RelationId a, t, r;
  Tgd tgd;

  Sigma3()
      : a(*db.CreateRelation("A", {"location", "name"})),
        t(*db.CreateRelation("T", {"attraction", "company", "start"})),
        r(*db.CreateRelation("R", {"company", "attraction", "review"})),
        tgd(*TgdParser(&db.catalog(), &db.symbols())
                 .ParseTgd("A(l, n) & T(n, co, s) -> exists rv: R(co, n, rv)")) {
  }
};

TEST(PlannerTest, PinnedPremisePlansProbeTheJoinColumn) {
  Sigma3 fix;
  const TgdPlans& plans = fix.tgd.plans();
  ASSERT_EQ(plans.lhs_pinned.size(), 2u);
  // Pin A(l, n): n is bound, so T(n, co, s) probes its column 0.
  EXPECT_EQ(plans.lhs_pinned[0].ToString(fix.db.catalog()), "[1:T col(0)]");
  // Pin T(n, co, s): n is bound, so A(l, n) probes its column 1.
  EXPECT_EQ(plans.lhs_pinned[1].ToString(fix.db.catalog()), "[0:A col(1)]");
}

TEST(PlannerTest, FullPremisePlanScansOnceThenProbes) {
  Sigma3 fix;
  EXPECT_EQ(fix.tgd.plans().lhs_full.ToString(fix.db.catalog()),
            "[0:A scan() -> 1:T col(0)]");
}

TEST(PlannerTest, NotExistsProbeUsesCompositeIndex) {
  Sigma3 fix;
  // Frontier variables n and co are bound when the NOT EXISTS probe runs;
  // R(co, n, rv) has two bound columns -> a composite-index probe.
  EXPECT_EQ(fix.tgd.plans().rhs_frontier.ToString(fix.db.catalog()),
            "[0:R idx(0,1)]");
  // Registering the plan's indexes creates exactly that composite index.
  EnsureTgdPlanIndexes(&fix.db, fix.tgd.plans());
  EXPECT_TRUE(fix.db.relation(fix.r).HasCompositeIndex({0, 1}));
  EXPECT_EQ(fix.db.relation(fix.a).num_composite_indexes(), 0u);
}

TEST(PlannerTest, ConstantsCountAsBoundColumns) {
  Sigma3 fix;
  TgdParser parser(&fix.db.catalog(), &fix.db.symbols());
  auto q = parser.ParseQuery("T(n, 'ACME', 'May')");
  ASSERT_TRUE(q.ok());
  const QueryPlan plan = Planner::Compile(q->body, 0, std::nullopt);
  EXPECT_EQ(plan.ToString(fix.db.catalog()), "[0:T idx(1,2)]");
}

TEST(PlannerTest, SeedProfileUpgradesAccessPath) {
  Sigma3 fix;
  TgdParser parser(&fix.db.catalog(), &fix.db.symbols());
  auto q = parser.ParseQuery("A(l, n) & T(n, co, s)");
  ASSERT_TRUE(q.ok());
  // With l and n pre-bound, A leads with a composite probe and T follows
  // on the join column.
  const uint64_t mask =
      Planner::MaskOf({*q->VarByName("l"), *q->VarByName("n")});
  const QueryPlan plan = Planner::Compile(q->body, mask, std::nullopt);
  EXPECT_EQ(plan.ToString(fix.db.catalog()), "[0:A idx(0,1) -> 1:T col(0)]");
}

// --- Access-path regression bounds -------------------------------------------
// A 3-atom join where the last atom has two bound columns whose single-column
// buckets are both large but whose combination is unique. The composite probe
// must examine a constant number of rows where the seed's single-column path
// examined O(N).

class CompositeRegressionTest : public ::testing::Test {
 protected:
  static constexpr size_t kN = 200;

  CompositeRegressionTest() {
    a_ = *db_.CreateRelation("A", {"k"});
    b_ = *db_.CreateRelation("B", {"k", "m"});
    c_ = *db_.CreateRelation("C", {"x", "y", "z"});
    const Value zero = Value::Constant(0);
    db_.Apply(WriteOp::Insert(a_, {zero}), 0);
    db_.Apply(WriteOp::Insert(b_, {zero, zero}), 0);
    // kN rows matching on x only, kN rows matching on y only, one row
    // matching on both.
    for (size_t i = 1; i <= kN; ++i) {
      db_.Apply(WriteOp::Insert(
                    c_, {zero, Value::Constant(i), Value::Constant(i)}),
                0);
      db_.Apply(WriteOp::Insert(
                    c_, {Value::Constant(i), zero, Value::Constant(i)}),
                0);
    }
    db_.Apply(WriteOp::Insert(c_, {zero, zero, Value::Constant(7)}), 0);

    TgdParser parser(&db_.catalog(), &db_.symbols());
    auto q = parser.ParseQuery("A(x) & B(x, y) & C(x, y, z)");
    CHECK(q.ok());
    query_ = q->body;
  }

  size_t RowsExamined(const QueryPlan& plan) {
    Snapshot snap(&db_, kReadLatest);
    Evaluator eval(snap);
    size_t matches = 0;
    eval.ForEachMatch(plan, Binding(), nullptr,
                      [&](const Binding&, const std::vector<TupleRef>&) {
                        ++matches;
                        return true;
                      });
    EXPECT_EQ(matches, 1u);  // exactly the (0, 0, 7) row joins
    return eval.rows_examined();
  }

  Database db_;
  RelationId a_, b_, c_;
  ConjunctiveQuery query_;
};

TEST_F(CompositeRegressionTest, CompositeProbeBeatsSingleColumnPath) {
  const QueryPlan plan = Planner::Compile(query_, 0, std::nullopt);
  // Golden shape: scan the singleton relations, composite-probe C on (x, y).
  EXPECT_EQ(plan.ToString(db_.catalog()),
            "[0:A scan() -> 1:B col(0) -> 2:C idx(0,1)]");

  // Without the composite index the executor falls back to the cheaper of
  // the two single-column buckets: kN + 1 candidates to resolve.
  const size_t fallback_rows = RowsExamined(plan);
  EXPECT_GE(fallback_rows, kN);

  // With the index registered (what AddMapping / the scheduler do), the
  // probe touches just the joining row.
  EnsurePlanIndexes(&db_, plan);
  const size_t composite_rows = RowsExamined(plan);
  EXPECT_LE(composite_rows, 3u);  // A row + B row + the unique C row
  EXPECT_LT(composite_rows * 10, fallback_rows);
}

TEST_F(CompositeRegressionTest, CompositeIndexMaintainedAcrossInserts) {
  const QueryPlan plan = Planner::Compile(query_, 0, std::nullopt);
  EnsurePlanIndexes(&db_, plan);
  // A row inserted after the index was built must be reachable through it.
  db_.Apply(WriteOp::Insert(c_, {Value::Constant(0), Value::Constant(0),
                                 Value::Constant(8)}),
            0);
  Snapshot snap(&db_, kReadLatest);
  Evaluator eval(snap);
  size_t matches = 0;
  eval.ForEachMatch(plan, Binding(), nullptr,
                    [&](const Binding&, const std::vector<TupleRef>&) {
                      ++matches;
                      return true;
                    });
  EXPECT_EQ(matches, 2u);
  EXPECT_LE(eval.rows_examined(), 4u);
}

TEST(PlannerTest, FacadeRebuildQueryPlansKeepsMappingsWorking) {
  // The maintenance hook recompiles every mapping's plan complement and
  // re-registers its index demands; behavior must be unchanged after it.
  Youtopia yt;
  ASSERT_TRUE(yt.CreateRelation("A", {"l", "n"}).ok());
  ASSERT_TRUE(yt.CreateRelation("R", {"n", "r"}).ok());
  ASSERT_TRUE(yt.AddMapping("A(l, n) -> exists r: R(n, r)").ok());
  ASSERT_TRUE(yt.Insert("A", {"Ithaca", "Gorges"}).ok());
  EXPECT_TRUE(yt.AllMappingsSatisfied());
  yt.RebuildQueryPlans();
  EXPECT_TRUE(yt.AllMappingsSatisfied());
  ASSERT_TRUE(yt.Insert("A", {"Geneva", "Winery"}).ok());
  EXPECT_TRUE(yt.AllMappingsSatisfied());
  EXPECT_EQ(*yt.Count("R"), 2u);
}

// --- Cost-based ordering from live statistics --------------------------------

// Executes `plan` from an empty binding and returns (matches, rows_examined).
std::pair<size_t, size_t> Execute(const Database& db, const QueryPlan& plan) {
  Snapshot snap(&db, kReadLatest);
  Evaluator eval(snap);
  size_t matches = 0;
  eval.ForEachMatch(plan, Binding(), nullptr,
                    [&](const Binding&, const std::vector<TupleRef>&) {
                      ++matches;
                      return true;
                    });
  return {matches, eval.rows_examined()};
}

// The acceptance fixture: a skewed join where the static boundness order is
// pathological. Big(v, u) holds 2000 rows whose join column v ranges over a
// 100-value domain (buckets of 20); Small(v) holds 10 distinct rows. Both
// atoms are equally (un)bound, so the static planner ties to the earlier
// atom and scans Big first; the cost model scans Small first and probes
// Big's buckets.
struct SkewFixture {
  Database db;
  RelationId big, small;
  ConjunctiveQuery query;

  SkewFixture() {
    big = *db.CreateRelation("Big", {"v", "u"});
    small = *db.CreateRelation("Small", {"v"});
    for (uint64_t i = 0; i < 2000; ++i) {
      db.Apply(WriteOp::Insert(
                   big, {Value::Constant(i % 100), Value::Constant(i)}),
               0);
    }
    for (uint64_t i = 0; i < 10; ++i) {
      db.Apply(WriteOp::Insert(small, {Value::Constant(i)}), 0);
    }
    TgdParser parser(&db.catalog(), &db.symbols());
    auto q = parser.ParseQuery("Big(v, u) & Small(v)");
    CHECK(q.ok());
    query = q->body;
  }
};

TEST(PlannerStatsTest, StatsOrderingBeatsStaticOnSkewedJoin) {
  SkewFixture fix;
  const QueryPlan static_plan = Planner::Compile(fix.query, 0, std::nullopt);
  const QueryPlan stats_plan =
      Planner::Compile(fix.query, 0, std::nullopt, &fix.db);
  EXPECT_EQ(static_plan.ToString(fix.db.catalog()),
            "[0:Big scan() -> 1:Small col(0)]");
  EXPECT_EQ(stats_plan.ToString(fix.db.catalog()),
            "[1:Small scan() -> 0:Big col(0)]");

  const auto [static_matches, static_rows] = Execute(fix.db, static_plan);
  const auto [stats_matches, stats_rows] = Execute(fix.db, stats_plan);
  EXPECT_EQ(static_matches, stats_matches);  // same answer, different cost
  EXPECT_EQ(stats_matches, 200u);            // 10 values x 20 Big rows
  // The acceptance bound: the stats order examines >= 5x fewer rows.
  EXPECT_GE(static_rows, 5 * stats_rows)
      << "static=" << static_rows << " stats=" << stats_rows;
}

// --- Skew-aware estimate nudge -----------------------------------------------

// Sk(a, b, n): 1000 rows whose column a has 500 distinct values but one hot
// value 'h' covering 501 rows — max bucket 501 >> 4x the uniform estimate of
// 2 — while column b holds two values of 500 rows each (dense but exactly
// uniform: a 500-row bucket the uniform model already predicts). Uni is the
// unskewed control with the same distinct counts; Mid is a 20-row side
// relation for the ordering golden. Column n makes every tuple distinct
// (set-semantics inserts would otherwise collapse the hot bucket).
struct SkewNudgeFixture {
  Database db;
  RelationId sk, uni, mid;

  SkewNudgeFixture() {
    sk = *db.CreateRelation("Sk", {"a", "b", "n"});
    uni = *db.CreateRelation("Uni", {"a", "b", "n"});
    mid = *db.CreateRelation("Mid", {"u"});
    const Value h = db.InternConstant("h");
    const Value x = db.InternConstant("x");
    const Value y = db.InternConstant("y");
    size_t row = 0;
    auto insert3 = [&](RelationId rel, Value a) {
      const Value b = (row % 2 == 0) ? x : y;
      db.Apply(WriteOp::Insert(
                   rel, {a, b, db.InternConstant("n" + std::to_string(row))}),
               0);
      ++row;
    };
    for (size_t i = 0; i < 501; ++i) insert3(sk, h);
    for (size_t i = 0; i < 499; ++i) {
      insert3(sk, db.InternConstant("u" + std::to_string(i)));
    }
    for (size_t i = 0; i < 500; ++i) {
      const Value a = db.InternConstant("c" + std::to_string(i));
      insert3(uni, a);
      insert3(uni, a);
    }
    for (size_t i = 0; i < 20; ++i) {
      db.Apply(WriteOp::Insert(
                   mid, {db.InternConstant("m" + std::to_string(i))}),
               0);
    }
  }

  QueryPlan CompileStats(const char* text) {
    TgdParser parser(&db.catalog(), &db.symbols());
    auto q = parser.ParseQuery(text);
    CHECK(q.ok());
    return Planner::Compile(q->body, 0, std::nullopt, &db);
  }
};

TEST(PlannerSkewTest, HotBucketPushesProbeToCompositeIndex) {
  SkewNudgeFixture fix;
  ASSERT_EQ(fix.db.relation(fix.sk).max_bucket(0), 501u);
  // Uniform cost alone keeps the cheap-looking a-probe (estimate 2 rows);
  // the nudge charges the 501-row hot bucket, making the composite worth
  // its maintenance.
  EXPECT_EQ(fix.CompileStats("Sk('h', 'x', w)").ToString(fix.db.catalog()),
            "[0:Sk idx(0,1)]");
  // The unskewed control with identical distinct counts keeps the single-
  // column probe: its largest a-bucket is the uniform estimate itself.
  EXPECT_EQ(fix.CompileStats("Uni('c0', 'x', w)").ToString(fix.db.catalog()),
            "[0:Uni col(0,1)]");
}

TEST(PlannerSkewTest, ColdConstantOnSkewedColumnStaysSingleColumn) {
  SkewNudgeFixture fix;
  // 'u0' sits in the same skewed column as 'h' but its bucket holds one
  // row; the sketch tracks it (capacity 8 admits the seven coldest early
  // values alongside 'h') and prices the probe at the exact 1 instead of
  // the whole-column 501-row high-water mark, so no composite index is
  // built. This per-value distinction is what the retired max-bucket
  // column nudge could not make: it charged every constant 501.
  ASSERT_TRUE(fix.db.relation(fix.sk).sketch(0).Tracks(
      fix.db.InternConstant("u0")));
  EXPECT_EQ(fix.CompileStats("Sk('u0', 'x', w)").ToString(fix.db.catalog()),
            "[0:Sk col(0,1)]");
}

TEST(PlannerSkewTest, KillSwitchRestoresUniformCosting) {
  SkewNudgeFixture fix;
  // With sketch costing off the hot constant is priced uniformly (2 rows)
  // and the composite upgrade of HotBucketPushesProbeToCompositeIndex
  // disappears — the control arm bench/skew_suite measures against.
  Planner::set_sketch_costing(false);
  const std::string off =
      fix.CompileStats("Sk('h', 'x', w)").ToString(fix.db.catalog());
  Planner::set_sketch_costing(true);
  EXPECT_EQ(off, "[0:Sk col(0,1)]");
  EXPECT_EQ(fix.CompileStats("Sk('h', 'x', w)").ToString(fix.db.catalog()),
            "[0:Sk idx(0,1)]");
}

TEST(PlannerSkewTest, HotBucketReordersJoinAroundTheSkewedProbe) {
  SkewNudgeFixture fix;
  // Statically Sk leads (one bound column beats Mid's zero)...
  TgdParser parser(&fix.db.catalog(), &fix.db.symbols());
  auto q = parser.ParseQuery("Sk('h', u, w) & Mid(u)");
  ASSERT_TRUE(q.ok());
  const QueryPlan static_plan = Planner::Compile(q->body, 0, std::nullopt);
  EXPECT_EQ(static_plan.steps[0].atom_index, 0u);
  // ...but the nudged cost model sees the probe landing in the hot bucket,
  // scans 20-row Mid first and enters Sk with both columns bound through
  // the composite index.
  EXPECT_EQ(fix.CompileStats("Sk('h', u, w) & Mid(u)")
                .ToString(fix.db.catalog()),
            "[1:Mid scan() -> 0:Sk idx(0,1)]");
}

TEST(PlannerStatsTest, CostedPlansCarryCardinalityStamps) {
  SkewFixture fix;
  const QueryPlan stats_plan =
      Planner::Compile(fix.query, 0, std::nullopt, &fix.db);
  ASSERT_EQ(stats_plan.costed_at.size(), 2u);
  EXPECT_FALSE(PlanIsStale(stats_plan, fix.db));
  // Statically compiled plans carry no stamp and are never stale.
  const QueryPlan static_plan = Planner::Compile(fix.query, 0, std::nullopt);
  EXPECT_TRUE(static_plan.costed_at.empty());
  EXPECT_FALSE(PlanIsStale(static_plan, fix.db));
  // A ~10x shift of one input flips the costed plan to stale.
  for (uint64_t i = 0; i < 200; ++i) {
    fix.db.Apply(WriteOp::Insert(fix.small, {Value::Constant(1000 + i)}), 0);
  }
  EXPECT_TRUE(PlanIsStale(stats_plan, fix.db));
  EXPECT_FALSE(PlanIsStale(static_plan, fix.db));
}

// --- Mid-chase adaptive re-planning ------------------------------------------

TEST(ReplanTest, MidChaseGrowthFiresTriggerAndReplannedOrderWins) {
  // A long chase over a cyclic mapping grows Chain from 1 tuple to a few
  // hundred (>= 100x) within one chase run. A second mapping joins the
  // small, static Probe relation with Chain; its premise plan is costed
  // while Chain is tiny (Chain-first) and must be re-planned mid-chase once
  // Chain dwarfs Probe (Probe-first).
  Database db;
  const RelationId chain = *db.CreateRelation("Chain", {"a", "b"});
  const RelationId probe = *db.CreateRelation("Probe", {"p"});
  TgdParser parser(&db.catalog(), &db.symbols());
  std::vector<Tgd> tgds;
  tgds.push_back(*parser.ParseTgd("Chain(x, y) -> exists z: Chain(y, z)"));
  tgds.push_back(*parser.ParseTgd("Probe(p) & Chain(p, q) -> Chain(q, p)"));
  for (uint64_t i = 0; i < 40; ++i) {
    // Constants disjoint from the chase's tuples: tgd 2 never fires, its
    // plans are only (re)costed.
    db.Apply(WriteOp::Insert(probe, {Value::Constant(9000 + i)}), 0);
  }
  db.Apply(WriteOp::Insert(chain, {Value::Constant(1), Value::Constant(2)}),
           0);

  // Cost the plans against the pre-chase state (what registration does):
  // Chain holds 1 row, Probe 40 — Chain leads the join.
  for (Tgd& tgd : tgds) tgd.RecompilePlans(&db);
  const QueryPlan plan_before = tgds[1].plans().lhs_full;
  EXPECT_EQ(plan_before.ToString(db.catalog()),
            "[1:Chain scan() -> 0:Probe col(0)]");
  const size_t replans_before = tgds[1].replan_count();

  // The standard chase always expands, so the cyclic mapping grows Chain by
  // one tuple per firing until the cap.
  StandardChase chase(&db, &tgds);
  StandardChase::Options copts;
  copts.max_steps = 300;
  const auto report = chase.Run(1, copts);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->completed);  // cap hit, by design
  ASSERT_GE(db.relation(chain).visible_rows(), 100u) << "needs ~100x growth";

  // The trigger fired mid-chase and flipped the join order.
  EXPECT_GT(tgds[1].replan_count(), replans_before);
  const QueryPlan& plan_after = tgds[1].plans().lhs_full;
  EXPECT_EQ(plan_after.ToString(db.catalog()),
            "[0:Probe scan() -> 1:Chain col(0)]");

  // And the re-planned order wins where it counts: executing the stale
  // pre-growth plan against the grown database examines >= 5x more rows.
  const auto [matches_stale, rows_stale] = Execute(db, plan_before);
  const auto [matches_fresh, rows_fresh] = Execute(db, plan_after);
  EXPECT_EQ(matches_stale, matches_fresh);
  EXPECT_GE(rows_stale, 5 * rows_fresh)
      << "stale=" << rows_stale << " fresh=" << rows_fresh;
}

// The executor must stay correct when the runtime binding is weaker than
// the plan's compiled profile (a planned probe column can be unbound).
TEST(PlannerExecutorTest, WeakerRuntimeBindingDegradesGracefully) {
  Database db;
  const RelationId r = *db.CreateRelation("R", {"a", "b"});
  for (uint64_t i = 0; i < 8; ++i) {
    db.Apply(WriteOp::Insert(r, {Value::Constant(i % 2), Value::Constant(i)}),
             0);
  }
  TgdParser parser(&db.catalog(), &db.symbols());
  auto q = parser.ParseQuery("R(a, b)");
  ASSERT_TRUE(q.ok());
  // Compile as if both variables were bound; execute with only `a` bound.
  const uint64_t strong_mask =
      Planner::MaskOf({*q->VarByName("a"), *q->VarByName("b")});
  const QueryPlan plan = Planner::Compile(q->body, strong_mask, std::nullopt);
  EXPECT_EQ(plan.steps[0].access, AccessPath::kCompositeIndex);
  EnsurePlanIndexes(&db, plan);

  Snapshot snap(&db, kReadLatest);
  Evaluator eval(snap);
  Binding seed;
  seed.Set(*q->VarByName("a"), Value::Constant(1));
  size_t matches = 0;
  eval.ForEachMatch(plan, seed, nullptr,
                    [&](const Binding&, const std::vector<TupleRef>&) {
                      ++matches;
                      return true;
                    });
  EXPECT_EQ(matches, 4u);  // all odd-i rows, via the single-column fallback
}

}  // namespace
}  // namespace youtopia
