#include "ccontrol/dependency_tracker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "query/specificity.h"
#include "test_util.h"
#include "util/rng.h"

namespace youtopia {
namespace {

using testing_util::Figure2;

class DependencyTrackerTest : public ::testing::Test {
 protected:
  PhysicalWrite Insert(RelationId rel, TupleData data) {
    PhysicalWrite w;
    w.kind = WriteKind::kInsert;
    w.rel = rel;
    w.data = std::move(data);
    return w;
  }

  Figure2 fig_;
  WriteLog wlog_;
};

TEST_F(DependencyTrackerTest, NaiveTracksNothing) {
  DependencyTracker tracker(TrackerKind::kNaive, &fig_.tgds);
  wlog_.Record(1, Insert(fig_.T, fig_.Row({"Geneva Winery", "Q", "S"})));
  Snapshot snap(&fig_.db, kReadLatest);
  tracker.OnReads(snap, 5,
                  {ReadQueryRecord::Violation(
                      2, true, 1, fig_.Row({"Geneva Winery", "Q", "S"}))},
                  wlog_);
  EXPECT_EQ(tracker.num_edges(), 0u);
  EXPECT_TRUE(tracker.ReadersOf(1).empty());
}

TEST_F(DependencyTrackerTest, CoarseUsesRelationGranularity) {
  DependencyTracker tracker(TrackerKind::kCoarse, &fig_.tgds);
  // Update 1 wrote T (in sigma3's relations); update 2 wrote V (not).
  wlog_.Record(1, Insert(fig_.T, fig_.Row({"Z", "Q", "S"})));
  wlog_.Record(2, Insert(fig_.V, fig_.Row({"Z", "Q"})));
  Snapshot snap(&fig_.db, kReadLatest);
  // Reader 5 poses a sigma3 violation query. COARSE: depends on update 1
  // (wrote T) even though the write cannot actually join; not on update 2.
  tracker.OnReads(snap, 5,
                  {ReadQueryRecord::Violation(
                      2, true, 0, fig_.Row({"Geneva", "Geneva Winery"}))},
                  wlog_);
  EXPECT_EQ(tracker.ReadersOf(1).count(5), 1u);
  EXPECT_EQ(tracker.ReadersOf(2).count(5), 0u);
}

TEST_F(DependencyTrackerTest, PreciseRequiresActualInfluence) {
  DependencyTracker tracker(TrackerKind::kPrecise, &fig_.tgds);
  // Update 1's T write joins with Geneva Winery; update 2's does not.
  wlog_.Record(1, Insert(fig_.T, fig_.Row({"Geneva Winery", "Q", "S"})));
  wlog_.Record(2, Insert(fig_.T, fig_.Row({"Elsewhere", "Q", "S"})));
  Snapshot snap(&fig_.db, kReadLatest);
  tracker.OnReads(snap, 5,
                  {ReadQueryRecord::Violation(
                      2, true, 0, fig_.Row({"Geneva", "Geneva Winery"}))},
                  wlog_);
  EXPECT_EQ(tracker.ReadersOf(1).count(5), 1u);
  EXPECT_EQ(tracker.ReadersOf(2).count(5), 0u);
}

TEST_F(DependencyTrackerTest, PreciseSubsetOfCoarse) {
  // On identical inputs, PRECISE's dependency set is contained in COARSE's.
  DependencyTracker coarse(TrackerKind::kCoarse, &fig_.tgds);
  DependencyTracker precise(TrackerKind::kPrecise, &fig_.tgds);
  wlog_.Record(1, Insert(fig_.T, fig_.Row({"Geneva Winery", "Q", "S"})));
  wlog_.Record(2, Insert(fig_.T, fig_.Row({"Elsewhere", "Q", "S"})));
  wlog_.Record(3, Insert(fig_.A, fig_.Row({"Geneva", "Geneva Winery"})));
  wlog_.Record(4, Insert(fig_.E, fig_.Row({"Conf", "Geneva Winery"})));
  Snapshot snap(&fig_.db, kReadLatest);
  const std::vector<ReadQueryRecord> reads{
      ReadQueryRecord::Violation(2, true, 0,
                                 fig_.Row({"Geneva", "Geneva Winery"})),
      ReadQueryRecord::MoreSpecific(
          fig_.T, {fig_.Const("Geneva Winery"), fig_.db.FreshNull(),
                   fig_.db.FreshNull()})};
  coarse.OnReads(snap, 9, reads, wlog_);
  precise.OnReads(snap, 9, reads, wlog_);
  for (uint64_t writer = 1; writer <= 4; ++writer) {
    for (uint64_t reader : precise.ReadersOf(writer)) {
      EXPECT_EQ(coarse.ReadersOf(writer).count(reader), 1u)
          << "PRECISE found a dependency COARSE missed (writer " << writer
          << ")";
    }
  }
  EXPECT_LE(precise.num_edges(), coarse.num_edges());
}

TEST_F(DependencyTrackerTest, CorrectionQueriesExactInBothModes) {
  // Correction-query dependencies are computed exactly regardless of mode.
  for (TrackerKind kind : {TrackerKind::kCoarse, TrackerKind::kPrecise}) {
    DependencyTracker tracker(kind, &fig_.tgds);
    WriteLog wlog;
    wlog.Record(1, Insert(fig_.C, fig_.Row({"NYC"})));
    wlog.Record(2, Insert(fig_.C, fig_.Row({"Boston"})));
    Snapshot snap(&fig_.db, kReadLatest);
    const Value n = fig_.db.FreshNull();
    // More-specific query over C with a constant: only update 1 matches.
    tracker.OnReads(snap, 9,
                    {ReadQueryRecord::MoreSpecific(fig_.C,
                                                   {fig_.Const("NYC")})},
                    wlog);
    EXPECT_EQ(tracker.ReadersOf(1).count(9), 1u);
    EXPECT_EQ(tracker.ReadersOf(2).count(9), 0u);
    (void)n;
  }
}

TEST_F(DependencyTrackerTest, OnlyLowerNumberedWritersCount) {
  DependencyTracker tracker(TrackerKind::kCoarse, &fig_.tgds);
  wlog_.Record(7, Insert(fig_.T, fig_.Row({"Z", "Q", "S"})));
  Snapshot snap(&fig_.db, kReadLatest);
  // Reader 5 < writer 7: no dependency (7's writes are invisible to 5).
  tracker.OnReads(snap, 5,
                  {ReadQueryRecord::Violation(
                      2, true, 0, fig_.Row({"Geneva", "Geneva Winery"}))},
                  wlog_);
  EXPECT_TRUE(tracker.ReadersOf(7).empty());
}

TEST_F(DependencyTrackerTest, EraseUpdateRemovesBothDirections) {
  DependencyTracker tracker(TrackerKind::kCoarse, &fig_.tgds);
  wlog_.Record(1, Insert(fig_.T, fig_.Row({"Z", "Q", "S"})));
  Snapshot snap(&fig_.db, kReadLatest);
  const std::vector<ReadQueryRecord> reads{ReadQueryRecord::Violation(
      2, true, 0, fig_.Row({"Geneva", "Geneva Winery"}))};
  tracker.OnReads(snap, 5, reads, wlog_);
  tracker.OnReads(snap, 6, reads, wlog_);
  EXPECT_EQ(tracker.num_edges(), 2u);
  // Erase the reader: writer's set shrinks.
  tracker.EraseUpdate(5);
  EXPECT_EQ(tracker.num_edges(), 1u);
  EXPECT_EQ(tracker.ReadersOf(1).count(5), 0u);
  // Erase the writer: everything gone.
  tracker.EraseUpdate(1);
  EXPECT_EQ(tracker.num_edges(), 0u);
}

TEST_F(DependencyTrackerTest, TestsOnlyLowerNumberedWritesThatCanConflict) {
  // Reader 10's queries are tested only against writes by updates below 10
  // on the query's relations, or carrying its null. Writes off those
  // relations or above the reader — and whole writers' logs, the way a
  // walk by writer would test them — would raise the counts.
  DependencyTracker tracker(TrackerKind::kPrecise, &fig_.tgds);
  const Value n = fig_.x1;
  wlog_.Record(1, Insert(fig_.C, fig_.Row({"Boston"})));
  wlog_.Record(2, Insert(fig_.T, {fig_.Const("Nowhere"), n, fig_.Const("S")}));
  wlog_.Record(3, Insert(fig_.T, fig_.Row({"Elsewhere", "Q", "S"})));
  wlog_.Record(3, Insert(fig_.C, fig_.Row({"Albany"})));
  wlog_.Record(4, Insert(fig_.R, fig_.Row({"Q", "Elsewhere", "Good"})));
  wlog_.Record(6, Insert(fig_.V, {fig_.Const("Syracuse"), n}));
  PhysicalWrite modify;
  modify.kind = WriteKind::kModify;
  modify.rel = fig_.E;
  modify.data = {n, fig_.Const("Niagara Falls")};
  modify.old_data = {n, fig_.Const("Geneva Winery")};
  wlog_.Record(7, modify);
  wlog_.Record(12, Insert(fig_.T, fig_.Row({"Other", "Q", "S"})));
  wlog_.Record(12, Insert(fig_.C, fig_.Row({"Chicago"})));
  wlog_.Record(12, Insert(fig_.E, {n, fig_.Const("X")}));
  Snapshot snap(&fig_.db, kReadLatest);

  // sigma3 (A, T, R) pinned on A(Geneva, Geneva Winery): the T writes of
  // 2 and 3 and the R write of 4; none joins.
  EXPECT_EQ(tracker.OnReads(snap, 10,
                            {ReadQueryRecord::Violation(
                                2, true, 0,
                                fig_.Row({"Geneva", "Geneva Winery"}))},
                            wlog_),
            3u);
  EXPECT_EQ(tracker.num_edges(), 0u);
  // C(Ithaca): the C writes of 1 and 3; neither is more specific.
  EXPECT_EQ(tracker.OnReads(snap, 10,
                            {ReadQueryRecord::MoreSpecific(
                                fig_.C, fig_.Row({"Ithaca"}))},
                            wlog_),
            2u);
  EXPECT_EQ(tracker.num_edges(), 0u);
  // Null n: the writes of 2, 6 and 7 carry it (7's modify, in both
  // contents, once), and each links its writer.
  EXPECT_EQ(tracker.OnReads(snap, 10, {ReadQueryRecord::NullOccurrence(n)},
                            wlog_),
            3u);
  EXPECT_EQ(tracker.num_edges(), 3u);
  for (uint64_t writer : {2, 6, 7}) {
    EXPECT_EQ(tracker.ReadersOf(writer).count(10), 1u) << writer;
  }
}

TEST_F(DependencyTrackerTest, EdgesMatchReferenceScanOnRandomLogs) {
  // The trackers walk only the writes the log's indexes name for a query
  // (on its relations or carrying its null, by writers numbered below the
  // reader). A reference scan
  // over every logged write must find exactly the same edges, for both
  // trackers, on random logs with inserts, deletes, modifies and erases.
  // Each reader poses one query, so no query's edges hide behind
  // another's.
  const std::vector<RelationId> rels{fig_.C, fig_.S, fig_.A, fig_.T,
                                     fig_.R, fig_.V, fig_.E};
  const std::vector<Value> constants{
      fig_.Const("Geneva Winery"), fig_.Const("Geneva"), fig_.Const("XYZ"),
      fig_.Const("Syracuse"), fig_.Const("Science Conf")};
  constexpr uint64_t kWriters = 16;
  size_t precise_violation_hits = 0;  // the fixture exercises PRECISE checks
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    auto tuple_for = [&](RelationId rel) {
      TupleData t;
      for (size_t c = 0; c < fig_.db.relation(rel).arity(); ++c) {
        t.push_back(rng.Chance(0.1) ? (rng.Chance(0.5) ? fig_.x1 : fig_.x2)
                                    : constants[rng.Uniform(constants.size())]);
      }
      return t;
    };
    WriteLog wlog;
    std::vector<std::pair<uint64_t, PhysicalWrite>> all_writes;
    for (int i = 0; i < 60; ++i) {
      PhysicalWrite w;
      w.rel = rels[rng.Uniform(rels.size())];
      w.kind = static_cast<WriteKind>(rng.Uniform(3));
      if (w.kind != WriteKind::kDelete) w.data = tuple_for(w.rel);
      if (w.kind != WriteKind::kInsert) w.old_data = tuple_for(w.rel);
      const uint64_t writer = 1 + rng.Uniform(kWriters);
      wlog.Record(writer, w);
      all_writes.push_back({writer, std::move(w)});
    }
    for (int i = 0; i < 3; ++i) {
      const uint64_t gone = 1 + rng.Uniform(kWriters);
      wlog.EraseUpdate(gone);
      all_writes.erase(
          std::remove_if(all_writes.begin(), all_writes.end(),
                         [&](const auto& e) { return e.first == gone; }),
          all_writes.end());
    }

    for (TrackerKind kind : {TrackerKind::kCoarse, TrackerKind::kPrecise}) {
      DependencyTracker tracker(kind, &fig_.tgds);
      ConflictChecker checker(&fig_.tgds);
      std::set<std::pair<uint64_t, uint64_t>> expected;  // (writer, reader)
      for (uint64_t reader = 2; reader <= kWriters + 8; ++reader) {
        const int tgd_id = static_cast<int>(rng.Uniform(fig_.tgds.size()));
        const Tgd& tgd = fig_.tgds[static_cast<size_t>(tgd_id)];
        ReadQueryRecord q;
        switch (rng.Uniform(4)) {
          case 0:
          case 1: {
            const bool lhs = rng.Chance(0.5);
            const auto& atoms = lhs ? tgd.lhs().atoms : tgd.rhs().atoms;
            const size_t atom = rng.Uniform(atoms.size());
            q = ReadQueryRecord::Violation(tgd_id, lhs, atom,
                                           tuple_for(atoms[atom].rel));
            break;
          }
          case 2: {
            const RelationId rel = rels[rng.Uniform(rels.size())];
            q = ReadQueryRecord::MoreSpecific(rel, tuple_for(rel));
            break;
          }
          default:
            q = ReadQueryRecord::NullOccurrence(rng.Chance(0.5) ? fig_.x1
                                                                : fig_.x2);
        }
        const Snapshot snap(&fig_.db, reader);
        tracker.OnReads(snap, reader, {q}, wlog);
        for (const auto& [writer, w] : all_writes) {
          if (writer >= reader) continue;
          bool hits = false;
          switch (q.kind) {
            case ReadQueryKind::kViolation: {
              const auto& tgd_rels = tgd.all_relations();
              hits = kind == TrackerKind::kCoarse
                         ? std::find(tgd_rels.begin(), tgd_rels.end(),
                                     w.rel) != tgd_rels.end()
                         : checker.Conflicts(snap, w, q);
              if (kind == TrackerKind::kPrecise && hits) {
                ++precise_violation_hits;
              }
              break;
            }
            case ReadQueryKind::kMoreSpecific:
              hits = w.rel == q.rel &&
                     ((!w.data.empty() && IsMoreSpecific(w.data, q.tuple)) ||
                      (!w.old_data.empty() &&
                       IsMoreSpecific(w.old_data, q.tuple)));
              break;
            case ReadQueryKind::kNullOccurrence:
              hits = (!w.data.empty() && ContainsNull(w.data, q.null_value)) ||
                     (!w.old_data.empty() &&
                      ContainsNull(w.old_data, q.null_value));
              break;
          }
          if (hits) expected.insert({writer, reader});
        }
      }
      for (uint64_t writer = 1; writer <= kWriters; ++writer) {
        const auto& readers = tracker.ReadersOf(writer);
        std::set<uint64_t> want;
        for (const auto& [w, r] : expected) {
          if (w == writer) want.insert(r);
        }
        EXPECT_EQ(std::set<uint64_t>(readers.begin(), readers.end()), want)
            << TrackerKindName(kind) << " seed " << seed << " writer "
            << writer;
      }
      EXPECT_EQ(tracker.num_edges(), expected.size());
    }
  }
  EXPECT_GT(precise_violation_hits, 0u);
}

}  // namespace
}  // namespace youtopia
