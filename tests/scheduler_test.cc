#include "ccontrol/scheduler.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "relational/isomorphism.h"
#include "test_util.h"

namespace youtopia {
namespace {

using testing_util::CrossShardFixture;
using testing_util::Figure2;

TEST(SchedulerTest, SingleUpdateRunsLikeSerialChase) {
  Figure2 fig;
  ScriptedAgent agent;
  SchedulerOptions opts;
  Scheduler sched(&fig.db, &fig.tgds, &agent, opts);
  sched.Submit(WriteOp::Insert(
      fig.T, fig.Row({"Niagara Falls", "ABC Tours", "Toronto"})));
  sched.RunToCompletion();
  EXPECT_EQ(sched.stats().updates_completed, 1u);
  EXPECT_EQ(sched.stats().aborts, 0u);
  EXPECT_TRUE(fig.Satisfied());
}

TEST(SchedulerTest, Example31InterferencePreventedByAbort) {
  // The paper's Example 3.1: u1 deletes the review and eventually deletes
  // the tour; u2 concurrently inserts a convention and prematurely derives
  // an excursion idea from the doomed tour. Algorithm 4 must abort u2, and
  // its redo must NOT insert E(Math Conf, Geneva Winery).
  Figure2 fig;
  ScriptedAgent agent;
  agent.PushNegative({1});  // u1's frontier op: delete the T tuple

  SchedulerOptions opts;
  opts.tracker = TrackerKind::kCoarse;
  Scheduler sched(&fig.db, &fig.tgds, &agent, opts);
  const RowId review_row = *fig.db.FindRowWithData(
      fig.R, fig.Row({"XYZ", "Geneva Winery", "Great!"}), 0);
  const uint64_t u1 = sched.Submit(WriteOp::Delete(fig.R, review_row));
  const uint64_t u2 =
      sched.Submit(WriteOp::Insert(fig.V, fig.Row({"Syracuse", "Math Conf"})));
  EXPECT_EQ(u1, 1u);
  EXPECT_EQ(u2, 2u);
  sched.RunToCompletion();

  EXPECT_GE(sched.stats().aborts, 1u);
  EXPECT_GE(sched.stats().direct_conflict_aborts, 1u);
  EXPECT_EQ(sched.stats().updates_completed, 2u);

  // Serializable outcome: the tour is gone, so no excursion idea exists.
  EXPECT_FALSE(fig.Contains(fig.T, {"Geneva Winery", "XYZ", "Syracuse"}));
  EXPECT_FALSE(fig.Contains(fig.E, {"Math Conf", "Geneva Winery"}));
  EXPECT_TRUE(fig.Contains(fig.V, {"Syracuse", "Math Conf"}));
  EXPECT_TRUE(fig.Satisfied());
}

TEST(SchedulerTest, Example31SerialOrderMatchesConcurrentOutcome) {
  // Reference: running u1 to completion, then u2, yields the same database.
  Figure2 fig;
  ScriptedAgent agent;
  agent.PushNegative({1});
  const RowId review_row = *fig.db.FindRowWithData(
      fig.R, fig.Row({"XYZ", "Geneva Winery", "Great!"}), 0);
  Update u1(1, WriteOp::Delete(fig.R, review_row), &fig.tgds);
  u1.RunToCompletion(&fig.db, &agent);
  Update u2(2, WriteOp::Insert(fig.V, fig.Row({"Syracuse", "Math Conf"})),
            &fig.tgds);
  u2.RunToCompletion(&fig.db, &agent);

  EXPECT_FALSE(fig.Contains(fig.E, {"Math Conf", "Geneva Winery"}));
  EXPECT_TRUE(fig.Contains(fig.V, {"Syracuse", "Math Conf"}));
  EXPECT_TRUE(fig.Satisfied());
}

TEST(SchedulerTest, FootprintEscapeSurrendersOpAndUndoesWrites) {
  // Restrict the scheduler to every relation except C. Inserting S(a, l, c)
  // fires sigma2 (S -> C & C): the repair would write C, so the update must
  // escape — fully undone, op surrendered, no abort counted.
  Figure2 fig;
  std::vector<bool> allowed(fig.db.num_relations(), true);
  allowed[fig.C] = false;
  ScriptedAgent agent;
  SchedulerOptions opts;
  opts.allowed_relations = &allowed;
  Scheduler sched(&fig.db, &fig.tgds, &agent, opts);
  const size_t s_before = fig.db.CountVisible(fig.S, kReadLatest);
  sched.Submit(
      WriteOp::Insert(fig.S, fig.Row({"ITH", "Ithaca", "Trumansburg"})));
  sched.RunToCompletion();

  EXPECT_EQ(sched.stats().escaped_updates, 1u);
  EXPECT_EQ(sched.stats().aborts, 0u);
  EXPECT_EQ(sched.stats().updates_completed, 0u);
  // Surrendered ops are no longer this engine's submissions (the engine
  // that re-runs them counts them), keeping merged submission counts equal
  // to the ops actually submitted.
  EXPECT_EQ(sched.stats().updates_submitted, 0u);
  const std::vector<WriteOp> escaped = sched.TakeEscapedOps();
  ASSERT_EQ(escaped.size(), 1u);
  EXPECT_EQ(escaped[0].rel, fig.S);
  // The partial chase (the S insert itself) was rolled back.
  EXPECT_EQ(fig.db.CountVisible(fig.S, kReadLatest), s_before);
  EXPECT_FALSE(fig.Contains(fig.C, {"Trumansburg"}));
}

TEST(SchedulerTest, NonConflictingUpdatesDoNotAbort) {
  Figure2 fig;
  ScriptedAgent agent;
  SchedulerOptions opts;
  Scheduler sched(&fig.db, &fig.tgds, &agent, opts);
  // Touch disjoint parts of the repository.
  sched.Submit(WriteOp::Insert(fig.A, fig.Row({"Ithaca", "Gorges"})));
  sched.Submit(WriteOp::Insert(fig.V, fig.Row({"Ithaca", "DB Conf"})));
  sched.RunToCompletion();
  EXPECT_EQ(sched.stats().aborts, 0u);
  EXPECT_EQ(sched.stats().updates_completed, 2u);
  EXPECT_TRUE(fig.Satisfied());
}

TEST(SchedulerTest, TotalRowsExaminedCountsTheSharedDetectorOnce) {
  // Every update of a Scheduler runs on its one violation detector, so each
  // update's rows_examined() reads the detector's rows and the run's total
  // counts them once. The two updates chase disjoint mappings, so neither
  // reads what the other writes and no retroactive check adds rows.
  Database db;
  const RelationId a = *db.CreateRelation("A", {"x", "y"});
  const RelationId b = *db.CreateRelation("B", {"y"});
  db.CreateRelation("C", {"x"});
  const RelationId p = *db.CreateRelation("P", {"x", "y"});
  const RelationId q = *db.CreateRelation("Q", {"y"});
  db.CreateRelation("W", {"x"});
  TgdParser parser(&db.catalog(), &db.symbols());
  std::vector<Tgd> tgds;
  tgds.push_back(*parser.ParseTgd("A(x, y) & B(y) -> C(x)"));
  tgds.push_back(*parser.ParseTgd("P(x, y) & Q(y) -> W(x)"));
  const Value one = Value::Constant(1);
  const Value two = Value::Constant(2);
  db.Apply(WriteOp::Insert(b, {two}), 0);
  db.Apply(WriteOp::Insert(q, {two}), 0);

  ScriptedAgent agent;
  Scheduler sched(&db, &tgds, &agent, SchedulerOptions{});
  const uint64_t u1 = sched.Submit(WriteOp::Insert(a, {one, two}));
  const uint64_t u2 = sched.Submit(WriteOp::Insert(p, {one, two}));
  sched.RunToCompletion();

  ASSERT_EQ(sched.stats().updates_completed, 2u);
  EXPECT_EQ(sched.stats().aborts, 0u);
  const uint64_t rows = sched.TotalRowsExamined();
  EXPECT_GT(rows, 0u);
  EXPECT_EQ(sched.FindUpdate(u1)->rows_examined(), rows);
  EXPECT_EQ(sched.FindUpdate(u2)->rows_examined(), rows);
}

TEST(SchedulerTest, NaiveCascadesAbortEverythingYounger) {
  Figure2 fig;
  ScriptedAgent agent;
  agent.PushNegative({1});
  SchedulerOptions opts;
  opts.tracker = TrackerKind::kNaive;
  Scheduler sched(&fig.db, &fig.tgds, &agent, opts);
  const RowId review_row = *fig.db.FindRowWithData(
      fig.R, fig.Row({"XYZ", "Geneva Winery", "Great!"}), 0);
  sched.Submit(WriteOp::Delete(fig.R, review_row));
  sched.Submit(WriteOp::Insert(fig.V, fig.Row({"Syracuse", "Math Conf"})));
  // A bystander with nothing to do with the conflict.
  sched.Submit(WriteOp::Insert(fig.A, fig.Row({"Ithaca", "Gorges"})));
  sched.RunToCompletion();
  // NAIVE requests cascading aborts for innocent bystanders too.
  EXPECT_GE(sched.stats().cascading_abort_requests, 1u);
  EXPECT_GE(sched.stats().aborts, 2u);
  EXPECT_EQ(sched.stats().updates_completed, 3u);
  EXPECT_TRUE(fig.Satisfied());
}

TEST(SchedulerTest, CoarseSparesUnrelatedBystander) {
  Figure2 fig;
  ScriptedAgent agent;
  agent.PushNegative({1});
  SchedulerOptions opts;
  opts.tracker = TrackerKind::kCoarse;
  Scheduler sched(&fig.db, &fig.tgds, &agent, opts);
  const RowId review_row = *fig.db.FindRowWithData(
      fig.R, fig.Row({"XYZ", "Geneva Winery", "Great!"}), 0);
  sched.Submit(WriteOp::Delete(fig.R, review_row));
  sched.Submit(WriteOp::Insert(fig.V, fig.Row({"Syracuse", "Math Conf"})));
  sched.Submit(WriteOp::Insert(fig.V, fig.Row({"Ithaca", "DB Conf"})));
  sched.RunToCompletion();
  // Only the truly conflicting u2 aborts; the bystander V insert does not
  // read from u2 (no tours start in Ithaca) — but COARSE may still cascade
  // it if u2 wrote V... u2's first write is V, and the bystander's
  // violation query touches V and T. Accept either, but require
  // substantially fewer aborts than submitted updates.
  EXPECT_LE(sched.stats().aborts, 2u);
  EXPECT_EQ(sched.stats().updates_completed, 3u);
  EXPECT_TRUE(fig.Satisfied());
}

TEST(SchedulerTest, AbortedUpdateRestartsWithHigherNumber) {
  Figure2 fig;
  ScriptedAgent agent;
  agent.PushNegative({1});
  SchedulerOptions opts;
  Scheduler sched(&fig.db, &fig.tgds, &agent, opts);
  const RowId review_row = *fig.db.FindRowWithData(
      fig.R, fig.Row({"XYZ", "Geneva Winery", "Great!"}), 0);
  sched.Submit(WriteOp::Delete(fig.R, review_row));
  const uint64_t u2 =
      sched.Submit(WriteOp::Insert(fig.V, fig.Row({"Syracuse", "Math Conf"})));
  sched.RunToCompletion();
  // u2's slot is now registered under a fresh number > u2.
  EXPECT_EQ(sched.FindUpdate(u2), nullptr);
  const Update* redone = sched.FindUpdate(3);
  ASSERT_NE(redone, nullptr);
  EXPECT_GE(redone->attempts(), 2u);
}

// The final number each committed op's content was committed under, keyed
// by the op's first value.
std::map<std::string, uint64_t> CommittedNumbers(const Figure2& fig,
                                                 const Scheduler& sched) {
  std::map<std::string, uint64_t> numbers;
  for (const auto& [number, op] : sched.CommittedOpsWithNumbers()) {
    const std::string key =
        op.data.empty() ? "delete"
                        : std::string(fig.db.symbols().Text(op.data[1]));
    numbers[key] = number;
  }
  return numbers;
}

TEST(SchedulerTest, CascadeRestartsYoungestFirst) {
  // Example 3.1 under NAIVE with two bystanders: u1's late T delete dooms
  // u2, and the cascade takes every live update above it, so the closure
  // is {2, 3, 4}. The victims restart in descending number order: the
  // youngest (4) takes the lowest fresh number, and the directly doomed u2
  // the highest.
  Figure2 fig;
  ScriptedAgent agent;
  agent.PushNegative({1});
  SchedulerOptions opts;
  opts.tracker = TrackerKind::kNaive;
  Scheduler sched(&fig.db, &fig.tgds, &agent, opts);
  const RowId review_row = *fig.db.FindRowWithData(
      fig.R, fig.Row({"XYZ", "Geneva Winery", "Great!"}), 0);
  sched.Submit(WriteOp::Delete(fig.R, review_row));
  sched.Submit(WriteOp::Insert(fig.V, fig.Row({"Syracuse", "Math Conf"})));
  sched.Submit(WriteOp::Insert(fig.A, fig.Row({"Ithaca", "Gorges"})));
  sched.Submit(WriteOp::Insert(fig.A, fig.Row({"Ithaca", "Falls"})));
  sched.RunToCompletion();
  EXPECT_EQ(sched.stats().direct_conflict_aborts, 1u);
  EXPECT_EQ(sched.stats().cascading_abort_requests, 2u);
  EXPECT_EQ(sched.stats().aborts, 3u);
  EXPECT_EQ(CommittedNumbers(fig, sched),
            (std::map<std::string, uint64_t>{{"delete", 1},
                                             {"Falls", 5},
                                             {"Gorges", 6},
                                             {"Math Conf", 7}}));
  EXPECT_TRUE(fig.Satisfied());
}

TEST(SchedulerTest, RestartNumbersDependOnTheClosureAlone) {
  // u1's late T delete dooms u2 and u3, which both derived an excursion
  // from the doomed tour. The read-log walk finds them in ascending order;
  // under every tracker the closure {2, 3} restarts youngest first all the
  // same, so u3 takes 4 and u2 takes 5.
  for (TrackerKind kind :
       {TrackerKind::kNaive, TrackerKind::kCoarse, TrackerKind::kPrecise}) {
    Figure2 fig;
    ScriptedAgent agent;
    agent.PushNegative({1});
    SchedulerOptions opts;
    opts.tracker = kind;
    Scheduler sched(&fig.db, &fig.tgds, &agent, opts);
    const RowId review_row = *fig.db.FindRowWithData(
        fig.R, fig.Row({"XYZ", "Geneva Winery", "Great!"}), 0);
    sched.Submit(WriteOp::Delete(fig.R, review_row));
    sched.Submit(WriteOp::Insert(fig.V, fig.Row({"Syracuse", "Math Conf"})));
    sched.Submit(WriteOp::Insert(fig.V, fig.Row({"Syracuse", "Bio Conf"})));
    sched.RunToCompletion();
    EXPECT_EQ(sched.stats().direct_conflict_aborts, 2u)
        << TrackerKindName(kind);
    EXPECT_EQ(sched.stats().aborts, 2u) << TrackerKindName(kind);
    EXPECT_EQ(CommittedNumbers(fig, sched),
              (std::map<std::string, uint64_t>{
                  {"delete", 1}, {"Bio Conf", 4}, {"Math Conf", 5}}))
        << TrackerKindName(kind);
    EXPECT_FALSE(fig.Contains(fig.E, {"Math Conf", "Geneva Winery"}));
    EXPECT_FALSE(fig.Contains(fig.E, {"Bio Conf", "Geneva Winery"}));
    EXPECT_TRUE(fig.Satisfied());
  }
}

TEST(SchedulerTest, ManyIndependentInsertsAllComplete) {
  Figure2 fig;
  RandomAgent agent(3);
  SchedulerOptions opts;
  Scheduler sched(&fig.db, &fig.tgds, &agent, opts);
  for (int i = 0; i < 20; ++i) {
    sched.Submit(WriteOp::Insert(
        fig.A, fig.Row({"Place" + std::to_string(i), "Attraction"})));
  }
  sched.RunToCompletion();
  EXPECT_EQ(sched.stats().updates_completed, 20u);
  EXPECT_EQ(sched.num_failed(), 0u);
  EXPECT_TRUE(fig.Satisfied());
}

TEST(SchedulerTest, FinalDatabaseSatisfiesMappingsUnderContention) {
  // Many updates over the same relations; whatever aborts happen, the final
  // state must satisfy every mapping (Theorem 4.4's practical corollary).
  Figure2 fig;
  RandomAgent agent(11);
  SchedulerOptions opts;
  opts.tracker = TrackerKind::kPrecise;
  Scheduler sched(&fig.db, &fig.tgds, &agent, opts);
  for (int i = 0; i < 10; ++i) {
    sched.Submit(WriteOp::Insert(
        fig.T, fig.Row({"Niagara Falls", "Op" + std::to_string(i),
                        "Syracuse"})));
    sched.Submit(WriteOp::Insert(
        fig.V, fig.Row({"Syracuse", "Conf" + std::to_string(i)})));
  }
  sched.RunToCompletion();
  EXPECT_EQ(sched.stats().updates_completed, 20u);
  EXPECT_TRUE(fig.Satisfied());
}

TEST(SchedulerTest, CrossShardConflictAbortsAndCascades) {
  // The three null replacements the ingest pipeline routes to its
  // cross-shard engine, run here as one deterministic batch: u1's late Dd
  // insert retroactively invalidates u2's logged violation query, and the
  // abort cascades (COARSE) to u3, which read Bb after u2 wrote it.
  CrossShardFixture fix;
  MinContentAgent agent;
  SchedulerOptions opts;
  opts.tracker = TrackerKind::kCoarse;
  Scheduler sched(&fix.db, &fix.tgds, &agent, opts);
  for (const WriteOp& op : fix.Replacements()) sched.Submit(op);
  sched.RunToCompletion();

  EXPECT_EQ(sched.stats().updates_completed, 3u);
  EXPECT_GE(sched.stats().direct_conflict_aborts, 1u);
  EXPECT_GE(sched.stats().aborts, 2u);
  EXPECT_GE(sched.stats().cascading_abort_requests, 1u);
  Snapshot snap(&fix.db, kReadLatest);
  EXPECT_TRUE(ViolationDetector(&fix.tgds).SatisfiesAll(snap));

  // Serial replay in committed order reproduces the instance. The replayed
  // ops reference the same null/constant values because both fixtures
  // intern in identical order.
  CrossShardFixture replay;
  MinContentAgent replay_agent;
  uint64_t number = 1;
  for (const WriteOp& op : sched.CommittedOpsInOrder()) {
    Update u(number++, op, &replay.tgds);
    u.RunToCompletion(&replay.db, &replay_agent);
  }
  EXPECT_TRUE(
      DatabasesIsomorphic(fix.db, kReadLatest, replay.db, kReadLatest));
}

}  // namespace
}  // namespace youtopia
