#include "ccontrol/dependency_tracker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "query/specificity.h"
#include "test_util.h"
#include "tgd/parser.h"
#include "util/rng.h"

namespace youtopia {
namespace {

using testing_util::Figure2;

// The distinct readers ReadersOf names for `writer`.
std::set<uint64_t> Readers(const DependencyTracker& tracker, uint64_t writer,
                           const WriteLog& wlog) {
  std::vector<uint64_t> readers;
  tracker.ReadersOf(writer, wlog, &readers);
  return std::set<uint64_t>(readers.begin(), readers.end());
}

// The (writer, reader) edges ReadersOf names for writers 1..max_writer.
size_t EdgeCount(const DependencyTracker& tracker, const WriteLog& wlog,
                 uint64_t max_writer) {
  size_t edges = 0;
  for (uint64_t writer = 1; writer <= max_writer; ++writer) {
    edges += Readers(tracker, writer, wlog).size();
  }
  return edges;
}

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
  // The trackers' checker, as a Scheduler shares its own with its tracker.
  ConflictChecker checker_{&fig_.tgds};
  WriteLog wlog_;
};

TEST_F(DependencyTrackerTest, NaiveTracksNothing) {
  DependencyTracker tracker(TrackerKind::kNaive, &fig_.tgds, &checker_);
  wlog_.Record(1, Insert(fig_.T, fig_.Row({"Geneva Winery", "Q", "S"})));
  Snapshot snap(&fig_.db, kReadLatest);
  tracker.OnReads(snap, 5,
                  {ReadQueryRecord::Violation(
                      2, true, 1, fig_.Row({"Geneva Winery", "Q", "S"}))},
                  wlog_);
  EXPECT_TRUE(Readers(tracker, 1, wlog_).empty());
}

TEST_F(DependencyTrackerTest, CoarseUsesRelationGranularity) {
  DependencyTracker tracker(TrackerKind::kCoarse, &fig_.tgds, &checker_);
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
  EXPECT_EQ(Readers(tracker, 1, wlog_).count(5), 1u);
  EXPECT_EQ(Readers(tracker, 2, wlog_).count(5), 0u);
}

TEST_F(DependencyTrackerTest, PreciseRequiresActualInfluence) {
  DependencyTracker tracker(TrackerKind::kPrecise, &fig_.tgds, &checker_);
  // Update 1's T write joins with Geneva Winery; update 2's does not.
  wlog_.Record(1, Insert(fig_.T, fig_.Row({"Geneva Winery", "Q", "S"})));
  wlog_.Record(2, Insert(fig_.T, fig_.Row({"Elsewhere", "Q", "S"})));
  Snapshot snap(&fig_.db, kReadLatest);
  tracker.OnReads(snap, 5,
                  {ReadQueryRecord::Violation(
                      2, true, 0, fig_.Row({"Geneva", "Geneva Winery"}))},
                  wlog_);
  EXPECT_EQ(Readers(tracker, 1, wlog_).count(5), 1u);
  EXPECT_EQ(Readers(tracker, 2, wlog_).count(5), 0u);
}

TEST_F(DependencyTrackerTest, UnbindableViolationQueryLinksOnlyUnderCoarse) {
  // The detector's query pinned on T(Z, Q, Syracuse) for the new mapping
  // cannot bind (its atom fixes Toronto), so it answers nothing in any
  // database: PRECISE tests no logged write against it. COARSE still marks
  // the mapping's relations read, so a lower-numbered writer of either
  // one still names the reader.
  TgdParser parser(&fig_.db.catalog(), &fig_.db.symbols());
  fig_.tgds.push_back(
      *parser.ParseTgd("T(n, co, 'Toronto') -> exists r: R(co, n, r)"));
  const int toronto = static_cast<int>(fig_.tgds.size()) - 1;
  std::vector<ReadQueryRecord> reads =
      fig_.ReadsOfInsert(fig_.T, fig_.Row({"Z", "Q", "Syracuse"}), 5);
  reads.erase(std::remove_if(reads.begin(), reads.end(),
                             [&](const ReadQueryRecord& q) {
                               return q.tgd_id != toronto;
                             }),
              reads.end());
  ASSERT_EQ(reads.size(), 1u);
  ASSERT_FALSE(reads[0].pin_binds);

  wlog_.Record(1, Insert(fig_.T, fig_.Row({"Z", "Q", "Toronto"})));
  wlog_.Record(2, Insert(fig_.R, fig_.Row({"Q", "Z", "Fine"})));
  Snapshot snap(&fig_.db, 5);
  DependencyTracker precise(TrackerKind::kPrecise, &fig_.tgds, &checker_);
  EXPECT_EQ(precise.OnReads(snap, 5, reads, wlog_), 0u);
  EXPECT_TRUE(Readers(precise, 1, wlog_).empty());
  EXPECT_TRUE(Readers(precise, 2, wlog_).empty());
  DependencyTracker coarse(TrackerKind::kCoarse, &fig_.tgds, &checker_);
  coarse.OnReads(snap, 5, reads, wlog_);
  EXPECT_EQ(Readers(coarse, 1, wlog_), std::set<uint64_t>{5});
  EXPECT_EQ(Readers(coarse, 2, wlog_), std::set<uint64_t>{5});
}

TEST_F(DependencyTrackerTest, PreciseChecksCountInTheSharedCheckersRows) {
  // A PRECISE check runs on the checker the tracker was given, so the
  // rows its residual plans examine count in that checker's
  // rows_examined(), which Scheduler::TotalRowsExamined reports. Update
  // 1's R row completes sigma3's RHS for the seeded T(Geneva Winery, XYZ,
  // Syracuse): the check finds that T row through the residual plan.
  DependencyTracker tracker(TrackerKind::kPrecise, &fig_.tgds, &checker_);
  wlog_.Record(1, Insert(fig_.R, fig_.Row({"XYZ", "Geneva Winery", "Fine"})));
  Snapshot snap(&fig_.db, kReadLatest);
  const uint64_t before = checker_.rows_examined();
  EXPECT_EQ(tracker.OnReads(snap, 5,
                            {ReadQueryRecord::Violation(
                                2, true, 0,
                                fig_.Row({"Geneva", "Geneva Winery"}))},
                            wlog_),
            1u);
  EXPECT_EQ(Readers(tracker, 1, wlog_).count(5), 1u);
  EXPECT_GT(checker_.rows_examined(), before);
}

TEST_F(DependencyTrackerTest, PreciseSubsetOfCoarse) {
  // On identical inputs, PRECISE's dependency set is contained in COARSE's.
  DependencyTracker coarse(TrackerKind::kCoarse, &fig_.tgds, &checker_);
  DependencyTracker precise(TrackerKind::kPrecise, &fig_.tgds, &checker_);
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
    for (uint64_t reader : Readers(precise, writer, wlog_)) {
      EXPECT_EQ(Readers(coarse, writer, wlog_).count(reader), 1u)
          << "PRECISE found a dependency COARSE missed (writer " << writer
          << ")";
    }
  }
  EXPECT_LE(EdgeCount(precise, wlog_, 4), EdgeCount(coarse, wlog_, 4));
}

TEST_F(DependencyTrackerTest, CorrectionQueriesExactInBothModes) {
  // Correction-query dependencies are computed exactly regardless of mode.
  for (TrackerKind kind : {TrackerKind::kCoarse, TrackerKind::kPrecise}) {
    DependencyTracker tracker(kind, &fig_.tgds, &checker_);
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
    EXPECT_EQ(Readers(tracker, 1, wlog).count(9), 1u);
    EXPECT_EQ(Readers(tracker, 2, wlog).count(9), 0u);
    (void)n;
  }
}

TEST_F(DependencyTrackerTest, OnlyLowerNumberedWritersCount) {
  DependencyTracker tracker(TrackerKind::kCoarse, &fig_.tgds, &checker_);
  wlog_.Record(7, Insert(fig_.T, fig_.Row({"Z", "Q", "S"})));
  Snapshot snap(&fig_.db, kReadLatest);
  // Reader 5 < writer 7: no dependency (7's writes are invisible to 5).
  tracker.OnReads(snap, 5,
                  {ReadQueryRecord::Violation(
                      2, true, 0, fig_.Row({"Geneva", "Geneva Winery"}))},
                  wlog_);
  EXPECT_TRUE(Readers(tracker, 7, wlog_).empty());
}

TEST_F(DependencyTrackerTest, EraseUpdateRemovesBothDirections) {
  DependencyTracker tracker(TrackerKind::kCoarse, &fig_.tgds, &checker_);
  wlog_.Record(1, Insert(fig_.T, fig_.Row({"Z", "Q", "S"})));
  Snapshot snap(&fig_.db, kReadLatest);
  const std::vector<ReadQueryRecord> reads{ReadQueryRecord::Violation(
      2, true, 0, fig_.Row({"Geneva", "Geneva Winery"}))};
  tracker.OnReads(snap, 5, reads, wlog_);
  tracker.OnReads(snap, 6, reads, wlog_);
  EXPECT_EQ(Readers(tracker, 1, wlog_), (std::set<uint64_t>{5, 6}));
  // Erase the reader: writer's set shrinks.
  tracker.EraseUpdate(5);
  EXPECT_EQ(Readers(tracker, 1, wlog_), (std::set<uint64_t>{6}));
  // Erase the writer, from the log and the tracker as the scheduler does:
  // everything gone.
  wlog_.EraseUpdate(1);
  tracker.EraseUpdate(1);
  EXPECT_TRUE(Readers(tracker, 1, wlog_).empty());
}

TEST_F(DependencyTrackerTest, ErasingEveryUpdateLeavesNoReaderAndNoMark) {
  // COARSE marks and correction edges in one tracker, PRECISE and
  // correction edges in the other, over several readers and writers
  // (update 4 is both). The write log keeps every write, so ReadersOf
  // still walks each writer's relations after the tracker forgets them.
  for (TrackerKind kind : {TrackerKind::kCoarse, TrackerKind::kPrecise}) {
    DependencyTracker tracker(kind, &fig_.tgds, &checker_);
    WriteLog wlog;
    const Value n = fig_.x1;
    wlog.Record(1, Insert(fig_.T, fig_.Row({"Geneva Winery", "Q", "S"})));
    wlog.Record(2, Insert(fig_.C, fig_.Row({"NYC"})));
    wlog.Record(3, Insert(fig_.T, {fig_.Const("Nowhere"), n,
                                   fig_.Const("S")}));
    Snapshot snap(&fig_.db, kReadLatest);
    const std::vector<ReadQueryRecord> reads{
        ReadQueryRecord::Violation(2, true, 0,
                                   fig_.Row({"Geneva", "Geneva Winery"})),
        ReadQueryRecord::MoreSpecific(fig_.C, {fig_.Const("NYC")}),
        ReadQueryRecord::NullOccurrence(n)};
    tracker.OnReads(snap, 4, reads, wlog);
    wlog.Record(4, Insert(fig_.R, fig_.Row({"XYZ", "Geneva Winery", "Fine"})));
    tracker.OnReads(snap, 5, reads, wlog);
    tracker.OnReads(snap, 6, reads, wlog);

    std::vector<uint64_t> readers;
    size_t marks = 0;
    for (uint64_t writer = 1; writer <= 4; ++writer) {
      marks += tracker.ReadersOf(writer, wlog, &readers);
      EXPECT_FALSE(readers.empty()) << TrackerKindName(kind) << " " << writer;
    }
    EXPECT_EQ(marks > 0, kind == TrackerKind::kCoarse);

    for (uint64_t u : {2, 5, 1, 6, 4, 3}) tracker.EraseUpdate(u);
    for (uint64_t writer = 1; writer <= 4; ++writer) {
      EXPECT_EQ(tracker.ReadersOf(writer, wlog, &readers), 0u)
          << TrackerKindName(kind) << " " << writer;
      EXPECT_TRUE(readers.empty()) << TrackerKindName(kind) << " " << writer;
    }
  }
}

TEST_F(DependencyTrackerTest, CoarseLinksOnlyWritesLoggedBeforeTheRead) {
  // Reader 5 reads sigma3's relations (A, T, R) before update 1 writes T:
  // 5 read nothing 1 wrote, so no edge, until 5 reads the relations again.
  DependencyTracker tracker(TrackerKind::kCoarse, &fig_.tgds, &checker_);
  Snapshot snap(&fig_.db, kReadLatest);
  const std::vector<ReadQueryRecord> reads{ReadQueryRecord::Violation(
      2, true, 0, fig_.Row({"Geneva", "Geneva Winery"}))};
  tracker.OnReads(snap, 5, reads, wlog_);
  wlog_.Record(1, Insert(fig_.T, fig_.Row({"Z", "Q", "S"})));
  EXPECT_TRUE(Readers(tracker, 1, wlog_).empty());
  tracker.OnReads(snap, 5, reads, wlog_);
  EXPECT_EQ(Readers(tracker, 1, wlog_), (std::set<uint64_t>{5}));
  // A later write of 1's to a relation 5 read leaves the edge in place.
  wlog_.Record(1, Insert(fig_.A, fig_.Row({"Y", "Z"})));
  EXPECT_EQ(Readers(tracker, 1, wlog_), (std::set<uint64_t>{5}));
}

TEST_F(DependencyTrackerTest, TestsOnlyLowerNumberedWritesThatCanConflict) {
  // Reader 10's queries are tested only against writes by updates below 10
  // on the query's relations, or carrying its null. Writes off those
  // relations or above the reader — and whole writers' logs, the way a
  // walk by writer would test them — would raise the counts.
  DependencyTracker tracker(TrackerKind::kPrecise, &fig_.tgds, &checker_);
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
  EXPECT_EQ(EdgeCount(tracker, wlog_, 12), 0u);
  // C(Ithaca): the C writes of 1 and 3; neither is more specific.
  EXPECT_EQ(tracker.OnReads(snap, 10,
                            {ReadQueryRecord::MoreSpecific(
                                fig_.C, fig_.Row({"Ithaca"}))},
                            wlog_),
            2u);
  EXPECT_EQ(EdgeCount(tracker, wlog_, 12), 0u);
  // Null n: the writes of 2, 6 and 7 carry it (7's modify, in both
  // contents, once), and each links its writer.
  EXPECT_EQ(tracker.OnReads(snap, 10, {ReadQueryRecord::NullOccurrence(n)},
                            wlog_),
            3u);
  EXPECT_EQ(EdgeCount(tracker, wlog_, 12), 3u);
  for (uint64_t writer : {2, 6, 7}) {
    EXPECT_EQ(Readers(tracker, writer, wlog_).count(10), 1u) << writer;
  }
}

TEST_F(DependencyTrackerTest, EdgesMatchReferenceScanOnRandomLogs) {
  // The trackers walk only the writes the log's indexes name for a query
  // (on its relations or carrying its null, by writers numbered below the
  // reader), and COARSE works its violation edges out from relation marks
  // at ReadersOf time. A reference that links, at each read, every writer
  // then logged below the reader whose write hits the query must find
  // exactly the same edges, for both trackers, on random interleavings of
  // inserts, deletes and modifies, reads, and erases. An erased number is
  // retired, as the scheduler never reuses one.
  const std::vector<RelationId> rels{fig_.C, fig_.S, fig_.A, fig_.T,
                                     fig_.R, fig_.V, fig_.E};
  const std::vector<Value> constants{
      fig_.Const("Geneva Winery"), fig_.Const("Geneva"), fig_.Const("XYZ"),
      fig_.Const("Syracuse"), fig_.Const("Science Conf")};
  constexpr uint64_t kUpdates = 24;
  size_t precise_violation_hits = 0;  // the fixture exercises PRECISE checks
  size_t coarse_late_writes = 0;      // writes logged after a reader's read
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
    auto random_query = [&]() {
      const int tgd_id = static_cast<int>(rng.Uniform(fig_.tgds.size()));
      const Tgd& tgd = fig_.tgds[static_cast<size_t>(tgd_id)];
      switch (rng.Uniform(4)) {
        case 0:
        case 1: {
          const bool lhs = rng.Chance(0.5);
          const auto& atoms = lhs ? tgd.lhs().atoms : tgd.rhs().atoms;
          const size_t atom = rng.Uniform(atoms.size());
          return ReadQueryRecord::Violation(tgd_id, lhs, atom,
                                            tuple_for(atoms[atom].rel));
        }
        case 2: {
          const RelationId rel = rels[rng.Uniform(rels.size())];
          return ReadQueryRecord::MoreSpecific(rel, tuple_for(rel));
        }
        default:
          return ReadQueryRecord::NullOccurrence(rng.Chance(0.5) ? fig_.x1
                                                                 : fig_.x2);
      }
    };

    WriteLog wlog;
    DependencyTracker coarse(TrackerKind::kCoarse, &fig_.tgds, &checker_);
    DependencyTracker precise(TrackerKind::kPrecise, &fig_.tgds, &checker_);
    ConflictChecker checker(&fig_.tgds);
    std::vector<std::pair<uint64_t, PhysicalWrite>> logged;
    std::set<uint64_t> retired;
    // (writer, reader) per tracker.
    std::set<std::pair<uint64_t, uint64_t>> want_coarse;
    std::set<std::pair<uint64_t, uint64_t>> want_precise;
    std::set<uint64_t> readers_so_far;
    for (int op = 0; op < 240; ++op) {
      const uint64_t u = 1 + rng.Uniform(kUpdates);
      if (retired.count(u) > 0) continue;
      const uint64_t dice = rng.Uniform(20);
      if (dice < 9) {
        PhysicalWrite w;
        w.rel = rels[rng.Uniform(rels.size())];
        w.kind = static_cast<WriteKind>(rng.Uniform(3));
        if (w.kind != WriteKind::kDelete) w.data = tuple_for(w.rel);
        if (w.kind != WriteKind::kInsert) w.old_data = tuple_for(w.rel);
        for (uint64_t r : readers_so_far) coarse_late_writes += r > u ? 1 : 0;
        wlog.Record(u, w);
        logged.push_back({u, std::move(w)});
      } else if (dice < 19) {
        const ReadQueryRecord q = random_query();
        const Snapshot snap(&fig_.db, u);
        coarse.OnReads(snap, u, {q}, wlog);
        precise.OnReads(snap, u, {q}, wlog);
        readers_so_far.insert(u);
        for (const auto& [writer, w] : logged) {
          if (writer >= u) continue;
          bool coarse_hit = false;
          bool precise_hit = false;
          switch (q.kind) {
            case ReadQueryKind::kViolation: {
              const auto& tgd_rels =
                  fig_.tgds[static_cast<size_t>(q.tgd_id)].all_relations();
              coarse_hit = std::find(tgd_rels.begin(), tgd_rels.end(),
                                     w.rel) != tgd_rels.end();
              precise_hit = checker.Conflicts(snap, w, q);
              precise_violation_hits += precise_hit ? 1 : 0;
              break;
            }
            case ReadQueryKind::kMoreSpecific:
              coarse_hit = precise_hit =
                  w.rel == q.rel &&
                  ((!w.data.empty() && IsMoreSpecific(w.data, q.tuple)) ||
                   (!w.old_data.empty() &&
                    IsMoreSpecific(w.old_data, q.tuple)));
              break;
            case ReadQueryKind::kNullOccurrence:
              coarse_hit = precise_hit =
                  (!w.data.empty() && ContainsNull(w.data, q.null_value)) ||
                  (!w.old_data.empty() &&
                   ContainsNull(w.old_data, q.null_value));
              break;
          }
          if (coarse_hit) want_coarse.insert({writer, u});
          if (precise_hit) want_precise.insert({writer, u});
        }
      } else {
        // Commit or abort: the scheduler erases the number everywhere.
        wlog.EraseUpdate(u);
        coarse.EraseUpdate(u);
        precise.EraseUpdate(u);
        retired.insert(u);
        logged.erase(
            std::remove_if(logged.begin(), logged.end(),
                           [&](const auto& e) { return e.first == u; }),
            logged.end());
        for (auto* want : {&want_coarse, &want_precise}) {
          for (auto it = want->begin(); it != want->end();) {
            it = it->first == u || it->second == u ? want->erase(it)
                                                   : std::next(it);
          }
        }
      }
    }

    for (const auto& [tracker, want] :
         {std::make_pair(&coarse, &want_coarse),
          std::make_pair(&precise, &want_precise)}) {
      for (uint64_t writer = 1; writer <= kUpdates; ++writer) {
        std::set<uint64_t> expected;
        for (const auto& [w, r] : *want) {
          if (w == writer) expected.insert(r);
        }
        EXPECT_EQ(Readers(*tracker, writer, wlog), expected)
            << TrackerKindName(tracker->kind()) << " seed " << seed
            << " writer " << writer;
      }
    }
  }
  EXPECT_GT(precise_violation_hits, 0u);
  EXPECT_GT(coarse_late_writes, 0u);
}

}  // namespace
}  // namespace youtopia
