#include "core/update.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "tgd/parser.h"

namespace youtopia {
namespace {

using testing_util::Figure2;

TEST(UpdateTest, PositiveAndNegativeClassification) {
  Figure2 fig;
  Update ins(1, WriteOp::Insert(fig.C, fig.Row({"NYC"})), &fig.tgds);
  Update del(2, WriteOp::Delete(fig.C, 0), &fig.tgds);
  Update repl(3, WriteOp::NullReplace(fig.x1, fig.Const("Z")), &fig.tgds);
  EXPECT_TRUE(ins.IsPositive());
  EXPECT_FALSE(del.IsPositive());
  EXPECT_TRUE(repl.IsPositive());  // null completion is a positive update
}

TEST(UpdateTest, StepReportsWritesAndReads) {
  Figure2 fig;
  UpdateOptions opts;
  opts.log_reads = true;
  Update update(1,
                WriteOp::Insert(fig.T, fig.Row({"Niagara Falls", "ABC",
                                                "Toronto"})),
                &fig.tgds, opts);
  ScriptedAgent agent;
  StepResult first = update.Step(&fig.db, &agent);
  EXPECT_EQ(first.writes.size(), 1u);
  EXPECT_FALSE(first.reads.empty());
  EXPECT_FALSE(first.finished);
  // Second step performs the corrective insert; nothing remains after it.
  StepResult second = update.Step(&fig.db, &agent);
  EXPECT_EQ(second.writes.size(), 1u);
  EXPECT_EQ(second.writes[0].rel, fig.R);
  EXPECT_TRUE(second.finished);
  EXPECT_TRUE(update.finished());
}

TEST(UpdateTest, DefaultOptionsLogNoReads) {
  // Only an engine running concurrency control consumes read records, and
  // it opts in; a default (serial) update builds none.
  Figure2 fig;
  Update update(1,
                WriteOp::Insert(fig.T, fig.Row({"Niagara Falls", "ABC",
                                                "Toronto"})),
                &fig.tgds);
  ScriptedAgent agent;
  StepResult first = update.Step(&fig.db, &agent);
  EXPECT_EQ(first.writes.size(), 1u);
  EXPECT_TRUE(first.reads.empty());
  StepResult second = update.Step(&fig.db, &agent);
  EXPECT_EQ(second.writes.size(), 1u);
  EXPECT_TRUE(second.reads.empty());
  EXPECT_TRUE(second.finished);
}

TEST(UpdateTest, NoOpInsertFinishesImmediately) {
  Figure2 fig;
  Update update(1, WriteOp::Insert(fig.C, fig.Row({"Ithaca"})), &fig.tgds);
  ScriptedAgent agent;
  StepResult res = update.Step(&fig.db, &agent);
  EXPECT_TRUE(res.writes.empty());  // set semantics: duplicate
  EXPECT_TRUE(res.finished);
}

TEST(UpdateTest, RestartResetsState) {
  Figure2 fig;
  ScriptedAgent agent;
  agent.PushNegative({1});
  const RowId review_row = *fig.db.FindRowWithData(
      fig.R, fig.Row({"XYZ", "Geneva Winery", "Great!"}), 0);
  Update update(1, WriteOp::Delete(fig.R, review_row), &fig.tgds);
  // Run one step (delete + violation detection), then abort and restart.
  const StepResult res = update.Step(&fig.db, &agent);
  EXPECT_FALSE(update.finished());
  for (const PhysicalWrite& w : res.writes) {  // the scheduler's undo
    fig.db.RemoveRowVersions(w.rel, w.row, 1);
  }
  update.Restart(9);
  EXPECT_EQ(update.number(), 9u);
  EXPECT_EQ(update.attempts(), 2u);
  EXPECT_EQ(update.steps_taken(), 0u);
  // The redo performs the same chase under the new number.
  agent.PushNegative({1});
  update.RunToCompletion(&fig.db, &agent);
  EXPECT_TRUE(update.finished());
  EXPECT_FALSE(fig.Contains(fig.R, {"XYZ", "Geneva Winery", "Great!"}));
  EXPECT_TRUE(fig.Satisfied());
}

TEST(UpdateTest, RestartedDeleteOfGoneRowIsNoOp) {
  Figure2 fig;
  const RowId review_row = *fig.db.FindRowWithData(
      fig.R, fig.Row({"XYZ", "Geneva Winery", "Great!"}), 0);
  // Another update already deleted the row (and repaired the fallout by
  // removing the tour).
  ScriptedAgent other_agent;
  other_agent.PushNegative({1});
  Update other(1, WriteOp::Delete(fig.R, review_row), &fig.tgds);
  other.RunToCompletion(&fig.db, &other_agent);

  ScriptedAgent agent;
  Update update(2, WriteOp::Delete(fig.R, review_row), &fig.tgds);
  update.RunToCompletion(&fig.db, &agent);
  EXPECT_TRUE(update.finished());
  EXPECT_EQ(update.violations_repaired(), 0u);
}

TEST(UpdateTest, ForViolationsRepairsExistingData) {
  // Register data violating a mapping added later; the repair pseudo-update
  // chases the backlog (Youtopia::AddMapping uses this).
  Database db;
  const RelationId p = *db.CreateRelation("P", {"x"});
  const RelationId q = *db.CreateRelation("Q", {"x"});
  db.Apply(WriteOp::Insert(p, {db.InternConstant("a")}), 0);
  db.Apply(WriteOp::Insert(p, {db.InternConstant("b")}), 0);
  TgdParser parser(&db.catalog(), &db.symbols());
  std::vector<Tgd> tgds;
  tgds.push_back(*parser.ParseTgd("P(x) -> Q(x)"));

  ViolationDetector detector(&tgds);
  Snapshot snap(&db, kReadLatest);
  std::vector<Violation> viols;
  detector.FindAll(snap, &viols);
  ASSERT_EQ(viols.size(), 2u);

  ScriptedAgent agent;
  Update repair = Update::ForViolations(1, std::move(viols), &tgds);
  repair.RunToCompletion(&db, &agent);
  EXPECT_TRUE(repair.finished());
  EXPECT_EQ(db.CountVisible(q, 1), 2u);
  EXPECT_TRUE(detector.SatisfiesAll(Snapshot(&db, 1)));
}

TEST(UpdateTest, StepCapMarksHit) {
  Database db;
  const RelationId person = *db.CreateRelation("Person", {"name"});
  (void)*db.CreateRelation("Father", {"child", "father"});
  TgdParser parser(&db.catalog(), &db.symbols());
  std::vector<Tgd> tgds;
  tgds.push_back(
      *parser.ParseTgd("Person(x) -> exists y: Father(x, y) & Person(y)"));
  ExpandAgent agent;
  UpdateOptions opts;
  opts.max_steps = 10;
  Update update(1, WriteOp::Insert(person, {db.InternConstant("A")}), &tgds,
                opts);
  update.RunToCompletion(&db, &agent);
  EXPECT_TRUE(update.finished());
  EXPECT_TRUE(update.hit_step_cap());
}

TEST(UpdateTest, ViolationsRepairedCountsDistinctRepairs) {
  Figure2 fig;
  // One insert triggering sigma4 (deterministic) and one triggering sigma3
  // (deterministic insert with fresh null).
  ScriptedAgent agent;
  Update u1(1, WriteOp::Insert(fig.V, fig.Row({"Syracuse", "Math Conf"})),
            &fig.tgds);
  u1.RunToCompletion(&fig.db, &agent);
  EXPECT_EQ(u1.violations_repaired(), 1u);
  EXPECT_TRUE(fig.Contains(fig.E, {"Math Conf", "Geneva Winery"}));
}

}  // namespace
}  // namespace youtopia
