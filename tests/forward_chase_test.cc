#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/update.h"
#include "test_util.h"
#include "tgd/parser.h"

namespace youtopia {
namespace {

using testing_util::Figure2;

TEST(ForwardChaseTest, Example11NewTourGetsReviewPlaceholder) {
  // Example 1.1: inserting T(Niagara Falls, ABC Tours, ...) makes the chase
  // insert R(ABC Tours, Niagara Falls, x) with a fresh labeled null.
  Figure2 fig;
  ScriptedAgent agent;  // must not be consulted: repair is deterministic
  Update update(1,
                WriteOp::Insert(fig.T, fig.Row({"Niagara Falls", "ABC Tours",
                                                "Toronto"})),
                &fig.tgds);
  update.RunToCompletion(&fig.db, &agent);
  EXPECT_TRUE(update.finished());
  EXPECT_EQ(update.frontier_ops_performed(), 0u);

  // The review tuple exists, with a null in the review column.
  Snapshot snap(&fig.db, 1);
  bool found = false;
  snap.ForEachVisible(fig.R, [&](RowId, const TupleData& data) {
    if (data[0] == fig.Const("ABC Tours") &&
        data[1] == fig.Const("Niagara Falls") && data[2].is_null()) {
      found = true;
    }
  });
  EXPECT_TRUE(found);
  EXPECT_TRUE(fig.Satisfied());
}

TEST(ForwardChaseTest, JfkScenarioStopsAtFrontierDespiteCycle) {
  // Section 2.2: S(JFK, NYC, Ithaca) triggers sigma2 -> C(NYC) -> sigma1 ->
  // S(x3, x4, NYC) -> sigma2 -> C(x4), which is blocked because more
  // specific city tuples exist. The user unifies x4 with NYC.
  Figure2 fig;
  ScriptedAgent agent;
  // The one frontier decision: unify C(x4) with C(NYC).
  const RowId nyc_row = 2;  // C rows: Ithaca=0, Syracuse=1, NYC appended=2
  agent.PushPositive(PositiveDecision::Unify(nyc_row));

  Update update(1, WriteOp::Insert(fig.S, fig.Row({"JFK", "NYC", "Ithaca"})),
                &fig.tgds);
  update.RunToCompletion(&fig.db, &agent);
  EXPECT_TRUE(update.finished());
  EXPECT_FALSE(update.hit_step_cap());
  EXPECT_EQ(update.frontier_ops_performed(), 1u);
  EXPECT_TRUE(agent.exhausted());

  // C gained exactly NYC; S gained JFK row and one (x3, NYC, NYC) row.
  EXPECT_EQ(fig.db.CountVisible(fig.C, 1), 3u);
  EXPECT_EQ(fig.db.CountVisible(fig.S, 1), 4u);
  Snapshot snap(&fig.db, 1);
  bool found_unified = false;
  snap.ForEachVisible(fig.S, [&](RowId, const TupleData& data) {
    if (data[0].is_null() && data[1] == fig.Const("NYC") &&
        data[2] == fig.Const("NYC")) {
      found_unified = true;
    }
  });
  EXPECT_TRUE(found_unified);
  EXPECT_TRUE(fig.Satisfied());
}

TEST(ForwardChaseTest, ExpandContinuesTheCycleOneMoreRound) {
  // Same scenario but the user expands C(x4) instead: the chase continues
  // one more stratum and stops at the next frontier.
  Figure2 fig;
  ScriptedAgent agent;
  agent.PushPositive(PositiveDecision::Expand());  // expand C(x4)
  // Expanding C(x4) re-triggers sigma1 for x4: S(x5, x6, x4) generated;
  // more specific S tuples exist (nulls map to anything), so another
  // frontier: unify with the (x3, x4, NYC) row... any candidate; pick via
  // unify with row 3 (the S row the chase inserted earlier).
  agent.PushPositive(PositiveDecision::Unify(3));

  Update update(1, WriteOp::Insert(fig.S, fig.Row({"JFK", "NYC", "Ithaca"})),
                &fig.tgds);
  update.RunToCompletion(&fig.db, &agent);
  EXPECT_TRUE(update.finished());
  EXPECT_GE(update.frontier_ops_performed(), 2u);
  EXPECT_TRUE(fig.Satisfied());
}

TEST(ForwardChaseTest, GenealogyControlledNontermination) {
  // Section 2.2: Person(x) -> exists y: Father(x, y) & Person(y). Under an
  // always-expand agent the chase never terminates — it is nontermination
  // under user control, so the step cap stops it.
  Database db;
  const RelationId person = *db.CreateRelation("Person", {"name"});
  const RelationId father = *db.CreateRelation("Father", {"child", "father"});
  TgdParser parser(&db.catalog(), &db.symbols());
  std::vector<Tgd> tgds;
  auto tgd =
      parser.ParseTgd("Person(x) -> exists y: Father(x, y) & Person(y)");
  ASSERT_TRUE(tgd.ok());
  tgds.push_back(std::move(tgd).value());

  ExpandAgent agent;
  UpdateOptions opts;
  opts.max_steps = 40;
  Update update(1,
                WriteOp::Insert(person, {db.InternConstant("John")}), &tgds,
                opts);
  update.RunToCompletion(&db, &agent);
  EXPECT_TRUE(update.hit_step_cap());
  // An ancestor chain was materialized.
  EXPECT_GT(db.CountVisible(person, 1), 5u);
  EXPECT_GT(db.CountVisible(father, 1), 5u);
}

TEST(ForwardChaseTest, GenealogyUnifyTerminatesImmediately) {
  // A user who unifies ("John's father is already in the database") stops
  // the cycle at once: John becomes his own father here — the unification
  // target is Person(John) itself.
  Database db;
  const RelationId person = *db.CreateRelation("Person", {"name"});
  (void)*db.CreateRelation("Father", {"child", "father"});
  TgdParser parser(&db.catalog(), &db.symbols());
  std::vector<Tgd> tgds;
  auto tgd =
      parser.ParseTgd("Person(x) -> exists y: Father(x, y) & Person(y)");
  ASSERT_TRUE(tgd.ok());
  tgds.push_back(std::move(tgd).value());

  UnifyFirstAgent agent;
  Update update(1, WriteOp::Insert(person, {db.InternConstant("John")}),
                &tgds);
  update.RunToCompletion(&db, &agent);
  EXPECT_TRUE(update.finished());
  EXPECT_FALSE(update.hit_step_cap());
  EXPECT_EQ(db.CountVisible(person, 1), 1u);
  ViolationDetector detector(&tgds);
  Snapshot snap(&db, 1);
  EXPECT_TRUE(detector.SatisfiesAll(snap));
}

TEST(ForwardChaseTest, SharedFreshNullsAcrossRhsAtoms) {
  // The RHS atoms Father(x, y) & Person(y) share the fresh null for y.
  Database db;
  const RelationId person = *db.CreateRelation("Person", {"name"});
  const RelationId father = *db.CreateRelation("Father", {"child", "father"});
  TgdParser parser(&db.catalog(), &db.symbols());
  std::vector<Tgd> tgds;
  auto tgd =
      parser.ParseTgd("Person(x) -> exists y: Father(x, y) & Person(y)");
  ASSERT_TRUE(tgd.ok());
  tgds.push_back(std::move(tgd).value());

  ExpandAgent agent;
  UpdateOptions opts;
  opts.max_steps = 6;  // enough for one full firing
  Update update(1, WriteOp::Insert(person, {db.InternConstant("John")}),
                &tgds, opts);
  update.RunToCompletion(&db, &agent);

  // Find Father(John, n) and check Person(n) exists with the same null.
  Snapshot snap(&db, 1);
  Value father_null;
  bool found_father = false;
  snap.ForEachVisible(father, [&](RowId, const TupleData& data) {
    if (data[0] == db.InternConstant("John") && data[1].is_null() &&
        !found_father) {
      father_null = data[1];
      found_father = true;
    }
  });
  ASSERT_TRUE(found_father);
  EXPECT_TRUE(snap.Contains(person, {father_null}));
}

TEST(ForwardChaseTest, DeterministicStratumTerminates) {
  // Lemma 2.5 in the small: a cyclic full-tgd pair P <-> Q cannot run
  // forever because set semantics exhausts the new tuples.
  Database db;
  const RelationId p = *db.CreateRelation("P", {"x"});
  const RelationId q = *db.CreateRelation("Q", {"x"});
  TgdParser parser(&db.catalog(), &db.symbols());
  std::vector<Tgd> tgds;
  for (const char* text : {"P(x) -> Q(x)", "Q(x) -> P(x)"}) {
    auto tgd = parser.ParseTgd(text);
    ASSERT_TRUE(tgd.ok());
    tgds.push_back(std::move(tgd).value());
  }
  ScriptedAgent agent;  // never consulted
  Update update(1, WriteOp::Insert(p, {db.InternConstant("a")}), &tgds);
  update.RunToCompletion(&db, &agent);
  EXPECT_TRUE(update.finished());
  EXPECT_FALSE(update.hit_step_cap());
  EXPECT_EQ(db.CountVisible(p, 1), 1u);
  EXPECT_EQ(db.CountVisible(q, 1), 1u);
}

TEST(ForwardChaseTest, EqualRhsInstantiationsOverDifferentRelationsBothInsert) {
  // S(x) -> T(x) & U(x): both RHS atoms instantiate to (c), but over
  // different relations they are different tuples, so the firing must
  // insert both rather than dedup them into one.
  Database db;
  const RelationId s = *db.CreateRelation("S", {"x"});
  const RelationId t = *db.CreateRelation("T", {"x"});
  const RelationId u = *db.CreateRelation("U", {"x"});
  TgdParser parser(&db.catalog(), &db.symbols());
  std::vector<Tgd> tgds;
  auto tgd = parser.ParseTgd("S(x) -> T(x) & U(x)");
  ASSERT_TRUE(tgd.ok());
  tgds.push_back(std::move(tgd).value());
  ScriptedAgent agent;  // never consulted: the repair is deterministic
  Update update(1, WriteOp::Insert(s, {db.InternConstant("c")}), &tgds);
  update.RunToCompletion(&db, &agent);
  EXPECT_TRUE(update.finished());
  EXPECT_EQ(db.CountVisible(t, 1), 1u);
  EXPECT_EQ(db.CountVisible(u, 1), 1u);
  EXPECT_TRUE(ViolationDetector(&tgds).SatisfiesAll(Snapshot(&db, 1)));
}

TEST(ForwardChaseTest, AbsentGroundRhsTupleIsInsertedWithoutLookup) {
  // S(x, y) -> T(x, y) over a T that lists 20 rows under c in its first
  // column and 20 under d in its second: the RHS tuple T(c, d) is ground
  // and absent, so nothing can be more specific than it and the repair
  // inserts it without a more-specific lookup. The correction query is
  // still logged.
  Database db;
  const RelationId s = *db.CreateRelation("S", {"x", "y"});
  const RelationId t = *db.CreateRelation("T", {"x", "y"});
  TgdParser parser(&db.catalog(), &db.symbols());
  std::vector<Tgd> tgds;
  auto tgd = parser.ParseTgd("S(x, y) -> T(x, y)");
  ASSERT_TRUE(tgd.ok());
  tgds.push_back(std::move(tgd).value());
  const Value c = db.InternConstant("c");
  const Value d = db.InternConstant("d");
  for (int i = 0; i < 20; ++i) {
    const Value other = db.InternConstant("v" + std::to_string(i));
    db.Apply(WriteOp::Insert(t, {c, other}), 0);
    db.Apply(WriteOp::Insert(t, {other, d}), 0);
  }
  ScriptedAgent agent;  // never consulted: the repair is deterministic
  UpdateOptions opts;
  opts.log_reads = true;
  Update update(1, WriteOp::Insert(s, {c, d}), &tgds, opts);
  const StepResult first = update.Step(&db, &agent);
  EXPECT_FALSE(first.awaiting_frontier);
  const ReadQueryRecord logged = ReadQueryRecord::MoreSpecific(t, {c, d});
  EXPECT_TRUE(std::any_of(first.reads.begin(), first.reads.end(),
                          [&](const ReadQueryRecord& q) {
                            return SameReadQuery(q, logged);
                          }));
  update.RunToCompletion(&db, &agent);
  EXPECT_EQ(update.frontier_ops_performed(), 0u);
  // Only the two exact-match checks re-verify rows, the 20 of T's smallest
  // bucket each: the repair's Contains and the insert's set semantics. A
  // more-specific lookup would walk the same 20 again.
  EXPECT_EQ(update.lookup_rows_examined(), 40u);
  EXPECT_TRUE(Snapshot(&db, 1).Contains(t, {c, d}));
}

TEST(ForwardChaseTest, AllNullRhsAtomStopsAtFirstRowUntilTheFrontier) {
  // S(x) -> exists y: T(y) & U(x, y) over N stored T rows and an empty U:
  // every T row is more specific than T(y), so the repair stops at the
  // first, asks nothing about U(x, y) once the firing is ambiguous, and
  // blocks on a frontier. The agent is then offered all N rows.
  constexpr size_t kRows = 25;
  Database db;
  const RelationId s = *db.CreateRelation("S", {"x"});
  const RelationId t = *db.CreateRelation("T", {"y"});
  const RelationId u = *db.CreateRelation("U", {"x", "y"});
  TgdParser parser(&db.catalog(), &db.symbols());
  std::vector<Tgd> tgds;
  auto tgd = parser.ParseTgd("S(x) -> exists y: T(y) & U(x, y)");
  ASSERT_TRUE(tgd.ok());
  tgds.push_back(std::move(tgd).value());
  for (size_t i = 0; i < kRows; ++i) {
    db.Apply(WriteOp::Insert(t, {db.InternConstant("v" + std::to_string(i))}),
             0);
  }
  class CountingAgent : public FrontierAgent {
   public:
    PositiveDecision DecidePositive(const Snapshot&,
                                    const FrontierTuple& tuple,
                                    const Provenance&) override {
      offered = tuple.more_specific.size();
      return PositiveDecision::Unify(tuple.more_specific[0]);
    }
    std::vector<size_t> DecideNegative(const Snapshot&,
                                       const NegativeFrontier&) override {
      return {0};
    }
    size_t offered = 0;
  };
  CountingAgent agent;
  Update update(1, WriteOp::Insert(s, {db.InternConstant("a")}), &tgds);
  EXPECT_TRUE(update.Step(&db, &agent).awaiting_frontier);
  EXPECT_EQ(update.lookup_rows_examined(), 1u);
  update.RunToCompletion(&db, &agent);
  EXPECT_EQ(update.frontier_ops_performed(), 1u);
  EXPECT_EQ(agent.offered, kRows);
  EXPECT_EQ(update.lookup_rows_examined(), 1u + kRows);
  EXPECT_EQ(db.CountVisible(t, 1), kRows);
  EXPECT_EQ(db.CountVisible(u, 1), 1u);
  EXPECT_TRUE(ViolationDetector(&tgds).SatisfiesAll(Snapshot(&db, 1)));
}

TEST(ForwardChaseTest, FrontierProvenanceIdentifiesTgdAndWitness) {
  Figure2 fig;
  // Capture the provenance passed to the agent.
  class CapturingAgent : public FrontierAgent {
   public:
    PositiveDecision DecidePositive(const Snapshot&, const FrontierTuple& t,
                                    const Provenance& prov) override {
      tgd_id = prov.tgd_id;
      witness_size = prov.witness.size();
      CHECK(!t.more_specific.empty());
      return PositiveDecision::Unify(t.more_specific[0]);
    }
    std::vector<size_t> DecideNegative(const Snapshot&,
                                       const NegativeFrontier&) override {
      return {0};
    }
    int tgd_id = -1;
    size_t witness_size = 0;
  };
  CapturingAgent agent;
  Update update(1, WriteOp::Insert(fig.S, fig.Row({"JFK", "NYC", "Ithaca"})),
                &fig.tgds);
  update.RunToCompletion(&fig.db, &agent);
  // The blocked tuple C(x4) was generated by sigma2 firing on the
  // chase-inserted S(x3, x4, NYC) tuple.
  EXPECT_EQ(agent.tgd_id, 1);
  EXPECT_EQ(agent.witness_size, 1u);
}

}  // namespace
}  // namespace youtopia
