#include "core/violation_detector.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "tgd/parser.h"

namespace youtopia {
namespace {

using testing_util::Figure2;

TEST(ViolationDetectorTest, Figure2InitiallySatisfied) {
  Figure2 fig;
  EXPECT_TRUE(fig.Satisfied());
}

TEST(ViolationDetectorTest, InsertCausesLhsViolation) {
  // Example 1.1: a new tour with no review violates sigma3.
  Figure2 fig;
  const WriteOp op = WriteOp::Insert(
      fig.T, fig.Row({"Niagara Falls", "ABC Tours", "Toronto"}));
  auto writes = fig.db.Apply(op, 1);
  ASSERT_EQ(writes.size(), 1u);

  ViolationDetector detector(&fig.tgds);
  Snapshot snap(&fig.db, 1);
  std::vector<Violation> viols;
  std::vector<ReadQueryRecord> reads;
  detector.AfterWrite(snap, writes[0], &viols, &reads);
  ASSERT_EQ(viols.size(), 1u);
  EXPECT_EQ(viols[0].tgd_id, 2);  // sigma3
  EXPECT_EQ(viols[0].kind, Violation::Kind::kLhs);
  EXPECT_EQ(viols[0].witness.size(), 2u);  // A and T tuples
  EXPECT_FALSE(reads.empty());
}

TEST(ViolationDetectorTest, DeleteCausesRhsViolation) {
  // Example 2.3: deleting the review violates sigma3 from the RHS.
  Figure2 fig;
  const RowId row = *fig.db.FindRowWithData(
      fig.R, fig.Row({"XYZ", "Geneva Winery", "Great!"}), 0);
  auto writes = fig.db.Apply(WriteOp::Delete(fig.R, row), 1);
  ASSERT_EQ(writes.size(), 1u);

  ViolationDetector detector(&fig.tgds);
  Snapshot snap(&fig.db, 1);
  std::vector<Violation> viols;
  std::vector<ReadQueryRecord> reads;
  detector.AfterWrite(snap, writes[0], &viols, &reads);
  ASSERT_EQ(viols.size(), 1u);
  EXPECT_EQ(viols[0].tgd_id, 2);
  EXPECT_EQ(viols[0].kind, Violation::Kind::kRhs);
  ASSERT_EQ(viols[0].witness.size(), 2u);
  EXPECT_EQ(viols[0].witness[0].rel, fig.A);
  EXPECT_EQ(viols[0].witness[1].rel, fig.T);
}

TEST(ViolationDetectorTest, InsertSatisfyingRhsCausesNothing) {
  Figure2 fig;
  auto writes = fig.db.Apply(
      WriteOp::Insert(fig.E, fig.Row({"Science Conf", "Niagara Falls"})), 1);
  ASSERT_EQ(writes.size(), 1u);
  ViolationDetector detector(&fig.tgds);
  Snapshot snap(&fig.db, 1);
  std::vector<Violation> viols;
  detector.AfterWrite(snap, writes[0], &viols, nullptr);
  EXPECT_TRUE(viols.empty());
}

TEST(ViolationDetectorTest, NullReplacementCausesOnlyLhsViolations) {
  // Replacing x1 by "ABC Tours" changes T and R consistently, so sigma3
  // stays satisfied (Section 2's argument for null replacements).
  Figure2 fig;
  auto writes = fig.db.Apply(
      WriteOp::NullReplace(fig.x1, fig.Const("ABC Tours")), 1);
  ASSERT_EQ(writes.size(), 2u);  // one T row, one R row
  ViolationDetector detector(&fig.tgds);
  Snapshot snap(&fig.db, 1);
  std::vector<Violation> viols;
  for (const PhysicalWrite& w : writes) {
    detector.AfterWrite(snap, w, &viols, nullptr);
  }
  EXPECT_TRUE(viols.empty());
  EXPECT_TRUE(detector.SatisfiesAll(snap));
}

TEST(ViolationDetectorTest, MultipleWitnessesFromOneWrite) {
  Figure2 fig;
  // A second convention in Syracuse requires excursion ideas for every
  // Syracuse-starting tour (there is exactly one such tour).
  auto writes = fig.db.Apply(
      WriteOp::Insert(fig.V, fig.Row({"Syracuse", "Math Conf"})), 1);
  ViolationDetector detector(&fig.tgds);
  Snapshot snap(&fig.db, 1);
  std::vector<Violation> viols;
  detector.AfterWrite(snap, writes[0], &viols, nullptr);
  ASSERT_EQ(viols.size(), 1u);
  EXPECT_EQ(viols[0].tgd_id, 3);  // sigma4
}

TEST(ViolationDetectorTest, IsStillViolatedDetectsRepair) {
  Figure2 fig;
  auto writes = fig.db.Apply(
      WriteOp::Insert(fig.V, fig.Row({"Syracuse", "Math Conf"})), 1);
  ViolationDetector detector(&fig.tgds);
  Snapshot snap(&fig.db, 1);
  std::vector<Violation> viols;
  detector.AfterWrite(snap, writes[0], &viols, nullptr);
  ASSERT_EQ(viols.size(), 1u);
  EXPECT_TRUE(detector.IsStillViolated(snap, viols[0], nullptr));
  // Supplying the RHS repairs it.
  fig.db.Apply(
      WriteOp::Insert(fig.E, fig.Row({"Math Conf", "Geneva Winery"})), 1);
  EXPECT_FALSE(detector.IsStillViolated(snap, viols[0], nullptr));
}

TEST(ViolationDetectorTest, IsStillViolatedDetectsWitnessRemoval) {
  Figure2 fig;
  auto writes = fig.db.Apply(
      WriteOp::Insert(fig.V, fig.Row({"Syracuse", "Math Conf"})), 1);
  ViolationDetector detector(&fig.tgds);
  Snapshot snap(&fig.db, 1);
  std::vector<Violation> viols;
  detector.AfterWrite(snap, writes[0], &viols, nullptr);
  ASSERT_EQ(viols.size(), 1u);
  // Deleting the tour tuple invalidates the witness.
  const RowId t_row = *fig.db.FindRowWithData(
      fig.T, fig.Row({"Geneva Winery", "XYZ", "Syracuse"}), 0);
  fig.db.Apply(WriteOp::Delete(fig.T, t_row), 1);
  EXPECT_FALSE(detector.IsStillViolated(snap, viols[0], nullptr));
}

TEST(ViolationDetectorTest, FindAllAgreesWithDeltaDetection) {
  Figure2 fig;
  auto writes = fig.db.Apply(
      WriteOp::Insert(fig.T, fig.Row({"Niagara Falls", "ABC", "Ithaca"})), 1);
  ViolationDetector detector(&fig.tgds);
  Snapshot snap(&fig.db, 1);
  std::vector<Violation> delta;
  detector.AfterWrite(snap, writes[0], &delta, nullptr);
  std::vector<Violation> full_scan;
  detector.FindAll(snap, &full_scan);
  EXPECT_EQ(delta.size(), full_scan.size());
}

TEST(ViolationDetectorTest, BatchedAfterWritesMatchesSingleCalls) {
  // One batched AfterWrites over a step's writes must find the same
  // violation set as per-write AfterWrite calls, and pose no more queries.
  Figure2 per_write, batched;
  const std::vector<WriteOp> ops = {
      WriteOp::Insert(per_write.T,
                      per_write.Row({"Niagara Falls", "ABC Tours", "Toronto"})),
      WriteOp::Insert(per_write.V, per_write.Row({"Syracuse", "Math Conf"}))};

  std::vector<PhysicalWrite> writes_a, writes_b;
  for (const WriteOp& op : ops) {
    for (auto& w : per_write.db.Apply(op, 1)) writes_a.push_back(std::move(w));
  }
  const std::vector<WriteOp> ops_b = {
      WriteOp::Insert(batched.T,
                      batched.Row({"Niagara Falls", "ABC Tours", "Toronto"})),
      WriteOp::Insert(batched.V, batched.Row({"Syracuse", "Math Conf"}))};
  for (const WriteOp& op : ops_b) {
    for (auto& w : batched.db.Apply(op, 1)) writes_b.push_back(std::move(w));
  }

  ViolationDetector da(&per_write.tgds), db_det(&batched.tgds);
  Snapshot sa(&per_write.db, 1), sb(&batched.db, 1);
  std::vector<Violation> va, vb;
  std::vector<ReadQueryRecord> ra, rb;
  for (const PhysicalWrite& w : writes_a) da.AfterWrite(sa, w, &va, &ra);
  db_det.AfterWrites(sb, writes_b, &vb, &rb);

  ASSERT_EQ(va.size(), vb.size());
  for (size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].tgd_id, vb[i].tgd_id);
    EXPECT_TRUE(va[i].binding == vb[i].binding);
  }
  EXPECT_LE(rb.size(), ra.size());
}

TEST(ViolationDetectorTest, BatchRowsExaminedBoundedBySingleCalls) {
  // Write-path regression bounds for the batched pipeline: a batch of N
  // inserts must examine no more rows than N single AfterWrite calls, and
  // identical tuples in a batch must shrink the work via query dedup.
  Figure2 fig;
  const TupleData tour = fig.Row({"Niagara Falls", "ABC Tours", "Toronto"});
  auto make_insert = [&](RowId row, const TupleData& data) {
    PhysicalWrite w;
    w.kind = WriteKind::kInsert;
    w.rel = fig.T;
    w.row = row;
    w.data = data;
    return w;
  };
  const auto applied = fig.db.Apply(WriteOp::Insert(fig.T, tour), 1);
  ASSERT_EQ(applied.size(), 1u);

  Snapshot snap(&fig.db, 1);
  std::vector<Violation> out;
  std::vector<PhysicalWrite> batch(4, make_insert(applied[0].row, tour));

  ViolationDetector single(&fig.tgds);
  const uint64_t single_before = single.rows_examined();
  for (const PhysicalWrite& w : batch) {
    out.clear();
    single.AfterWrite(snap, w, &out, nullptr);
  }
  const uint64_t single_rows = single.rows_examined() - single_before;

  ViolationDetector whole(&fig.tgds);
  out.clear();
  whole.AfterWrites(snap, batch, &out, nullptr);
  const uint64_t batch_rows = whole.rows_examined();

  ViolationDetector one(&fig.tgds);
  out.clear();
  one.AfterWrite(snap, batch[0], &out, nullptr);
  const uint64_t one_rows = one.rows_examined();

  EXPECT_LE(batch_rows, single_rows);
  // All four writes carry the same tuple: dedup must collapse the batch to
  // the cost of a single detection pass.
  EXPECT_EQ(batch_rows, one_rows);
  EXPECT_GT(one_rows, 0u);
}

TEST(ViolationDetectorTest, BatchedDeletesReportAssignmentOnce) {
  // Two deletes of alternative RHS witnesses in one batch pin different
  // old contents (distinct query fingerprints), but both surface the same
  // violated premise — the batch must report the (tgd, assignment) once.
  Database db;
  const RelationId a = *db.CreateRelation("A", {"x"});
  const RelationId r = *db.CreateRelation("Rw", {"x", "y"});
  TgdParser parser(&db.catalog(), &db.symbols());
  std::vector<Tgd> tgds;
  tgds.push_back(*parser.ParseTgd("A(x) -> exists y: Rw(x, y)"));

  const Value one = db.InternConstant("1");
  db.Apply(WriteOp::Insert(a, {one}), 0);
  const RowId ra =
      db.Apply(WriteOp::Insert(r, {one, db.InternConstant("a")}), 0)[0].row;
  const RowId rb =
      db.Apply(WriteOp::Insert(r, {one, db.InternConstant("b")}), 0)[0].row;

  std::vector<PhysicalWrite> batch;
  for (RowId row : {ra, rb}) {
    auto writes = db.Apply(WriteOp::Delete(r, row), 1);
    ASSERT_EQ(writes.size(), 1u);
    batch.push_back(std::move(writes[0]));
  }

  ViolationDetector detector(&tgds);
  Snapshot snap(&db, 1);
  std::vector<Violation> viols;
  detector.AfterWrites(snap, batch, &viols, nullptr);
  ASSERT_EQ(viols.size(), 1u);
  EXPECT_EQ(viols[0].kind, Violation::Kind::kRhs);
}

TEST(ViolationDetectorTest, ModifyUnsatisfyingPremiseStillSurfacesViolations) {
  // Regression for the modify path, which pins only the *new* content into
  // LHS atoms: a null replacement that un-satisfies a previously matched
  // premise (its witness rows are rewritten) must still surface every
  // violation of the post-replacement state — in particular the RHS-missing
  // violation of a premise match the substitution newly creates.
  Database db;
  const RelationId a = *db.CreateRelation("A", {"x"});
  const RelationId b = *db.CreateRelation("B", {"x"});
  const RelationId r = *db.CreateRelation("Rw", {"x", "y"});
  const RelationId w_rel = *db.CreateRelation("W", {"x"});
  TgdParser parser(&db.catalog(), &db.symbols());
  std::vector<Tgd> tgds;
  tgds.push_back(*parser.ParseTgd("A(x) -> exists y: Rw(x, y)"));
  tgds.push_back(*parser.ParseTgd("A(x) & B(x) -> W(x)"));

  const Value n = db.FreshNull();
  const Value c = db.InternConstant("c");
  const Value wit = db.InternConstant("w");
  db.Apply(WriteOp::Insert(a, {n}), 0);      // premise of sigma0: x = n
  db.Apply(WriteOp::Insert(r, {n, wit}), 0); // its RHS witness, shares n
  db.Apply(WriteOp::Insert(b, {c}), 0);      // joins A only after n -> c

  ViolationDetector detector(&tgds);
  Snapshot pre(&db, 0);
  EXPECT_TRUE(detector.SatisfiesAll(pre));  // A(n) & B(c) do not join

  // Replace n by c everywhere: the old premise match x=n disappears (its
  // witness row A(n) is rewritten), Rw's witness is rewritten consistently
  // (sigma0 stays satisfied), and a brand-new sigma1 match A(c) & B(c)
  // arises with no W(c) — a violation that only delta detection over the
  // modify writes can surface.
  const auto writes = db.Apply(WriteOp::NullReplace(n, c), 1);
  ASSERT_EQ(writes.size(), 2u);  // the A row and the Rw row
  for (const PhysicalWrite& pw : writes) {
    EXPECT_EQ(pw.kind, WriteKind::kModify);
  }

  Snapshot snap(&db, 1);
  std::vector<Violation> delta;
  detector.AfterWrites(snap, writes, &delta, nullptr);
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].tgd_id, 1);
  EXPECT_EQ(delta[0].kind, Violation::Kind::kLhs);

  // Ground truth: delta detection agrees with a full scan, so no violation
  // of the rewritten state (RHS-side or otherwise) was missed.
  std::vector<Violation> full;
  detector.FindAll(snap, &full);
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(full[0].tgd_id, delta[0].tgd_id);
  EXPECT_TRUE(full[0].binding == delta[0].binding);
  (void)w_rel;
}

TEST(ViolationDetectorTest, SelfJoinWitness) {
  Database db;
  const RelationId edge = *db.CreateRelation("Edge", {"src", "dst"});
  const RelationId path = *db.CreateRelation("Path", {"src", "dst"});
  TgdParser parser(&db.catalog(), &db.symbols());
  std::vector<Tgd> tgds;
  auto tgd = parser.ParseTgd("Edge(x, y) & Edge(y, z) -> Path(x, z)");
  ASSERT_TRUE(tgd.ok());
  tgds.push_back(std::move(tgd).value());
  // A self-loop matches both atoms with the same tuple.
  const Value a = db.InternConstant("a");
  auto writes = db.Apply(WriteOp::Insert(edge, {a, a}), 1);
  ViolationDetector detector(&tgds);
  Snapshot snap(&db, 1);
  std::vector<Violation> viols;
  detector.AfterWrite(snap, writes[0], &viols, nullptr);
  ASSERT_EQ(viols.size(), 1u);
  EXPECT_EQ(viols[0].witness[0], viols[0].witness[1]);
  (void)path;
}

TEST(ViolationDetectorTest, BatchPosesFingerprintCollidingQueriesBoth) {
  // The batch dedups pinned queries by fingerprint, and 64-bit fingerprints
  // collide: with tgd 0 pinned at LHS atom 0, the contents (2, 2) and
  // (5, 63) hash alike. They are different queries with different
  // violations, so a two-write step must pose and detect both.
  Database db;
  const RelationId r = *db.CreateRelation("R", {"a", "b"});
  ASSERT_TRUE(db.CreateRelation("S", {"a", "b"}).ok());
  TgdParser parser(&db.catalog(), &db.symbols());
  std::vector<Tgd> tgds;
  auto tgd = parser.ParseTgd("R(x, y) -> S(x, y)");
  ASSERT_TRUE(tgd.ok());
  tgds.push_back(std::move(tgd).value());
  const TupleData first{Value::Constant(2), Value::Constant(2)};
  const TupleData second{Value::Constant(5), Value::Constant(63)};
  const uint64_t shape = tgds[0].plans().lhs_pinned[0].shape_hash;
  ASSERT_EQ(FinishViolationFingerprint(shape, 0, first),
            FinishViolationFingerprint(shape, 0, second))
      << "the fixture needs a fingerprint collision";

  std::vector<PhysicalWrite> writes = db.Apply(WriteOp::Insert(r, first), 1);
  const auto more = db.Apply(WriteOp::Insert(r, second), 1);
  writes.insert(writes.end(), more.begin(), more.end());
  ASSERT_EQ(writes.size(), 2u);

  ViolationDetector detector(&tgds);
  std::vector<Violation> viols;
  std::vector<ReadQueryRecord> reads;
  detector.AfterWrites(Snapshot(&db, 1), writes, &viols, &reads);
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0].pinned, first);
  EXPECT_EQ(reads[1].pinned, second);
  EXPECT_EQ(viols.size(), 2u);
}

}  // namespace
}  // namespace youtopia
