#include "relational/database.h"

#include <gtest/gtest.h>

namespace youtopia {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rel_ = *db_.CreateRelation("Person", {"name", "father"});
  }

  TupleData Row(const std::string& a, const std::string& b) {
    return {db_.InternConstant(a), db_.InternConstant(b)};
  }

  Database db_;
  RelationId rel_ = 0;
};

TEST_F(DatabaseTest, CreateRelationValidates) {
  EXPECT_FALSE(db_.CreateRelation("Person", {"x"}).ok());  // duplicate
  EXPECT_FALSE(db_.CreateRelation("", {"x"}).ok());
  EXPECT_FALSE(db_.CreateRelation("Empty", {}).ok());  // zero arity
  EXPECT_TRUE(db_.CreateRelation("Other", {"x"}).ok());
  EXPECT_EQ(*db_.catalog().Find("Other"), 1u);
  EXPECT_FALSE(db_.catalog().Find("missing").ok());
}

TEST_F(DatabaseTest, InsertHasSetSemantics) {
  auto w1 = db_.Apply(WriteOp::Insert(rel_, Row("john", "jack")), 1);
  ASSERT_EQ(w1.size(), 1u);
  EXPECT_EQ(w1[0].kind, WriteKind::kInsert);
  // Same writer re-inserting the same tuple: no-op.
  EXPECT_TRUE(db_.Apply(WriteOp::Insert(rel_, Row("john", "jack")), 1).empty());
  // A later writer also sees it: no-op.
  EXPECT_TRUE(db_.Apply(WriteOp::Insert(rel_, Row("john", "jack")), 5).empty());
  // An *earlier* reader does not see it, so its insert is real.
  EXPECT_EQ(db_.Apply(WriteOp::Insert(rel_, Row("john", "jack")), 0).size(),
            1u);
}

TEST_F(DatabaseTest, DeleteOfInvisibleRowIsNoOp) {
  auto w = db_.Apply(WriteOp::Insert(rel_, Row("john", "jack")), 5);
  const RowId row = w[0].row;
  // Update 3 does not see update 5's insert.
  EXPECT_TRUE(db_.Apply(WriteOp::Delete(rel_, row), 3).empty());
  auto del = db_.Apply(WriteOp::Delete(rel_, row), 6);
  ASSERT_EQ(del.size(), 1u);
  EXPECT_EQ(del[0].kind, WriteKind::kDelete);
  EXPECT_EQ(del[0].old_data, Row("john", "jack"));
  // Double delete: no-op.
  EXPECT_TRUE(db_.Apply(WriteOp::Delete(rel_, row), 7).empty());
}

TEST_F(DatabaseTest, NullReplaceRewritesAllOccurrences) {
  const Value n = db_.FreshNull();
  db_.Apply(WriteOp::Insert(rel_, {db_.InternConstant("john"), n}), 1);
  db_.Apply(WriteOp::Insert(rel_, {n, db_.InternConstant("adam")}), 1);
  db_.Apply(WriteOp::Insert(rel_, Row("eve", "lilith")), 1);

  auto writes =
      db_.Apply(WriteOp::NullReplace(n, db_.InternConstant("jack")), 2);
  ASSERT_EQ(writes.size(), 2u);
  for (const PhysicalWrite& w : writes) {
    EXPECT_EQ(w.kind, WriteKind::kModify);
  }
  EXPECT_TRUE(db_.FindRowWithData(rel_, Row("john", "jack"), 2).has_value());
  EXPECT_TRUE(db_.FindRowWithData(rel_, Row("jack", "adam"), 2).has_value());
  // The old reader still sees the null versions.
  EXPECT_FALSE(db_.FindRowWithData(rel_, Row("john", "jack"), 1).has_value());
}

TEST_F(DatabaseTest, NullReplaceByAnotherNull) {
  const Value n = db_.FreshNull();
  const Value m = db_.FreshNull();
  db_.Apply(WriteOp::Insert(rel_, {db_.InternConstant("john"), n}), 1);
  auto writes = db_.Apply(WriteOp::NullReplace(n, m), 2);
  ASSERT_EQ(writes.size(), 1u);
  const TupleData expected{db_.InternConstant("john"), m};
  EXPECT_TRUE(db_.FindRowWithData(rel_, expected, 2).has_value());
  // The occurrence index now tracks m too.
  Snapshot snap(&db_, 2);
  size_t hits = 0;
  snap.ForEachOccurrence(m, [&](const TupleRef&, const TupleData&) { ++hits; });
  EXPECT_EQ(hits, 1u);
}

TEST_F(DatabaseTest, NullReplaceRespectsWriterVisibility) {
  const Value n = db_.FreshNull();
  // Update 9 writes a tuple containing n; update 2 replaces n.
  db_.Apply(WriteOp::Insert(rel_, {db_.InternConstant("late"), n}), 9);
  db_.Apply(WriteOp::Insert(rel_, {db_.InternConstant("early"), n}), 1);
  auto writes =
      db_.Apply(WriteOp::NullReplace(n, db_.InternConstant("k")), 2);
  // Only the tuple visible to update 2 is rewritten.
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(writes[0].old_data[0], db_.InternConstant("early"));
}

TEST_F(DatabaseTest, OccurrenceIterationSkipsStaleEntries) {
  const Value n = db_.FreshNull();
  auto w = db_.Apply(WriteOp::Insert(rel_, {db_.InternConstant("john"), n}), 1);
  db_.Apply(WriteOp::Delete(rel_, w[0].row), 2);
  Snapshot before(&db_, 1);
  Snapshot after(&db_, 2);
  size_t hits_before = 0;
  size_t hits_after = 0;
  before.ForEachOccurrence(
      n, [&](const TupleRef&, const TupleData&) { ++hits_before; });
  after.ForEachOccurrence(
      n, [&](const TupleRef&, const TupleData&) { ++hits_after; });
  EXPECT_EQ(hits_before, 1u);
  EXPECT_EQ(hits_after, 0u);
}

TEST_F(DatabaseTest, CountVisibleAndRemoveAbove) {
  db_.Apply(WriteOp::Insert(rel_, Row("a", "b")), 0);
  auto w = db_.Apply(WriteOp::Insert(rel_, Row("c", "d")), 3);
  EXPECT_EQ(db_.CountVisible(kReadLatest), 2u);
  EXPECT_EQ(db_.CountVisible(0), 1u);
  // Undoing update 3 leaves only update 0's row.
  db_.RemoveRowVersions(rel_, w[0].row, 3);
  EXPECT_EQ(db_.CountVisible(kReadLatest), 1u);
}

TEST_F(DatabaseTest, RemovalsAdvanceTheMutationSequence) {
  // The adaptive re-planning polls stride on next_seq(), so every path that
  // can shift cardinalities must advance it — removals (abort undo)
  // included, or a bulk abort would leave stale plans undetected until 32
  // unrelated writes later.
  db_.Apply(WriteOp::Insert(rel_, Row("a", "b")), 0);
  auto writes = db_.Apply(WriteOp::Insert(rel_, Row("c", "d")), 5);
  ASSERT_EQ(writes.size(), 1u);

  const uint64_t seq = db_.next_seq();
  db_.RemoveRowVersions(rel_, writes[0].row, 5);
  EXPECT_GT(db_.next_seq(), seq);
}

}  // namespace
}  // namespace youtopia
