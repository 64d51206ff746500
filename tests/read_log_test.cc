#include "ccontrol/read_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ccontrol/conflict.h"
#include "ccontrol/write_log.h"
#include "test_util.h"
#include "tgd/parser.h"
#include "util/rng.h"

namespace youtopia {
namespace {

using testing_util::Figure2;

class ReadLogTest : public ::testing::Test {
 protected:
  ReadLogTest() : log_(&fig_.tgds) {}

  PhysicalWrite Insert(RelationId rel, TupleData data) {
    PhysicalWrite w;
    w.kind = WriteKind::kInsert;
    w.rel = rel;
    w.data = std::move(data);
    return w;
  }

  size_t CountCandidates(const PhysicalWrite& w, uint64_t writer) {
    size_t n = 0;
    log_.ForEachCandidate(w, writer,
                          [&](uint64_t, const ReadQueryRecord&) { ++n; });
    return n;
  }

  Figure2 fig_;
  ReadLog log_;
};

TEST_F(ReadLogTest, DeduplicatesIdenticalQueries) {
  const ReadQueryRecord q = ReadQueryRecord::Violation(
      2, true, 0, fig_.Row({"Geneva", "Geneva Winery"}));
  log_.Record(5, q);
  log_.Record(5, q);
  log_.Record(5, q);
  EXPECT_EQ(log_.total_queries(), 1u);
  // A different update may log the same query.
  log_.Record(6, q);
  EXPECT_EQ(log_.total_queries(), 2u);
}

TEST_F(ReadLogTest, DeduplicatesManyQueriesOfOneUpdate) {
  // One update's log holds tens of thousands of distinct queries in a
  // paper-scale round; logging each once more must drop every duplicate.
  constexpr uint64_t kQueries = 30000;
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t i = 0; i < kQueries; ++i) {
      log_.Record(5, ReadQueryRecord::MoreSpecific(
                         fig_.C, {Value::Constant(1000 + i)}));
    }
  }
  EXPECT_EQ(log_.total_queries(), kQueries);
  EXPECT_EQ(log_.QueriesOf(5)->size(), kQueries);
}

TEST_F(ReadLogTest, CandidatesFilteredByWriterNumber) {
  const ReadQueryRecord q = ReadQueryRecord::Violation(
      2, true, 0, fig_.Row({"Geneva", "Geneva Winery"}));
  log_.Record(5, q);
  const PhysicalWrite w = Insert(fig_.T, fig_.Row({"Z", "Q", "S"}));
  EXPECT_EQ(CountCandidates(w, 3), 1u);  // writer 3 < reader 5
  EXPECT_EQ(CountCandidates(w, 5), 0u);  // own writes never conflict
  EXPECT_EQ(CountCandidates(w, 7), 0u);  // writer after reader: reader sees it
}

TEST_F(ReadLogTest, UnbindableViolationQueryIsOfferedNoWrite) {
  // T(Z, Q, Syracuse) contradicts the constant of the new mapping's only
  // LHS atom, so the violation query pinned on it answers nothing in any
  // database. The detector still poses and logs it, marked unbindable, and
  // the log lists it under none of the mapping's relations; sigma3's and
  // sigma4's queries on the same tuple are offered the writes as before.
  TgdParser parser(&fig_.db.catalog(), &fig_.db.symbols());
  fig_.tgds.push_back(
      *parser.ParseTgd("T(n, co, 'Toronto') -> exists r: R(co, n, r)"));
  const int toronto = static_cast<int>(fig_.tgds.size()) - 1;
  const std::vector<ReadQueryRecord> reads =
      fig_.ReadsOfInsert(fig_.T, fig_.Row({"Z", "Q", "Syracuse"}), 5);
  ASSERT_EQ(reads.size(), 3u);
  for (const ReadQueryRecord& q : reads) {
    EXPECT_EQ(q.pin_binds, q.tgd_id != toronto) << q.tgd_id;
    log_.Record(5, q);
  }
  EXPECT_EQ(log_.total_queries(), 3u);

  // Writes to both relations of the new mapping, one of them a Toronto
  // tour, by a lower-numbered update.
  const std::vector<PhysicalWrite> batch{
      Insert(fig_.T, fig_.Row({"Z", "Q", "Toronto"})),
      Insert(fig_.R, fig_.Row({"Q", "Z", "Fine"}))};
  std::multiset<int> offered;
  log_.ForEachCandidateBatch(
      batch, /*writer=*/1,
      [&](uint64_t, const ReadQueryRecord& q, const PhysicalWrite&) {
        offered.insert(q.tgd_id);
        return false;
      });
  // sigma3 (A, T, R) is offered both writes, sigma4 (V, T, E) the T write.
  EXPECT_EQ(offered, (std::multiset<int>{2, 2, 3}));
  log_.EraseUpdate(5);
  EXPECT_EQ(log_.total_queries(), 0u);
}

TEST_F(ReadLogTest, CandidatesFilteredByRelation) {
  // sigma3 touches A, T, R; a write to V yields no candidates.
  log_.Record(5, ReadQueryRecord::Violation(
                     2, true, 0, fig_.Row({"Geneva", "Geneva Winery"})));
  EXPECT_EQ(CountCandidates(Insert(fig_.V, fig_.Row({"X", "Y"})), 1), 0u);
  EXPECT_EQ(CountCandidates(Insert(fig_.R, fig_.Row({"X", "Y", "Z"})), 1), 1u);
}

TEST_F(ReadLogTest, NullOccurrenceIndexedByNull) {
  log_.Record(5, ReadQueryRecord::NullOccurrence(fig_.x1));
  PhysicalWrite with_null =
      Insert(fig_.T, {fig_.Const("Z"), fig_.x1, fig_.Const("S")});
  PhysicalWrite without_null = Insert(fig_.T, fig_.Row({"Z", "Q", "S"}));
  EXPECT_EQ(CountCandidates(with_null, 1), 1u);
  EXPECT_EQ(CountCandidates(without_null, 1), 0u);
}

TEST_F(ReadLogTest, MoreSpecificIndexedByRelation) {
  log_.Record(5, ReadQueryRecord::MoreSpecific(fig_.C, {fig_.db.FreshNull()}));
  EXPECT_EQ(CountCandidates(Insert(fig_.C, fig_.Row({"NYC"})), 1), 1u);
  EXPECT_EQ(CountCandidates(Insert(fig_.A, fig_.Row({"X", "Y"})), 1), 0u);
}

TEST_F(ReadLogTest, EraseUpdateDropsEverything) {
  log_.Record(5, ReadQueryRecord::MoreSpecific(fig_.C, {fig_.db.FreshNull()}));
  log_.Record(5, ReadQueryRecord::NullOccurrence(fig_.x1));
  log_.Record(6, ReadQueryRecord::MoreSpecific(fig_.C, {fig_.db.FreshNull()}));
  EXPECT_EQ(log_.total_queries(), 3u);
  log_.EraseUpdate(5);
  EXPECT_EQ(log_.total_queries(), 1u);
  EXPECT_EQ(CountCandidates(Insert(fig_.C, fig_.Row({"NYC"})), 1), 1u);
  EXPECT_EQ(log_.QueriesOf(5), nullptr);
  ASSERT_NE(log_.QueriesOf(6), nullptr);
  EXPECT_EQ(log_.QueriesOf(6)->size(), 1u);
}

TEST_F(ReadLogTest, CandidateVisitedOncePerWrite) {
  // Update 5 logs both a violation query (relation-indexed over sigma3's
  // A, T, R) and a null-occurrence query for x1 (null-indexed). A T-write
  // whose tuple contains x1 twice reaches the null query through the
  // relation index AND through both occurrences of x1 — the conflict
  // checker must still see each (reader, query) candidate exactly once.
  log_.Record(5, ReadQueryRecord::Violation(
                     2, true, 0, fig_.Row({"Geneva", "Geneva Winery"})));
  log_.Record(5, ReadQueryRecord::NullOccurrence(fig_.x1));
  PhysicalWrite w = Insert(fig_.T, {fig_.x1, fig_.x1, fig_.Const("S")});
  EXPECT_EQ(CountCandidates(w, 1), 2u);  // one per logged query, not more

  // A modify carrying the null in both old and new content is still one
  // visit per query.
  w.kind = WriteKind::kModify;
  w.old_data = {fig_.x1, fig_.Const("Q"), fig_.Const("S")};
  EXPECT_EQ(CountCandidates(w, 1), 2u);
}

TEST_F(ReadLogTest, BatchWalksEachReaderLogOnce) {
  // Two T-writes reach the same readers. The batched walk must offer each
  // (reader, query) pair once per matching write — visiting each reader's
  // log a single time for the whole batch — and must still discover a
  // reader reachable only through the null index.
  log_.Record(5, ReadQueryRecord::Violation(
                     2, true, 0, fig_.Row({"Geneva", "Geneva Winery"})));
  log_.Record(5, ReadQueryRecord::Violation(
                     2, true, 1, fig_.Row({"X", "Y", "Z"})));
  log_.Record(6, ReadQueryRecord::NullOccurrence(fig_.x1));  // null-only reader
  std::vector<PhysicalWrite> batch;
  batch.push_back(Insert(fig_.T, {fig_.x1, fig_.Const("Q"), fig_.Const("S")}));
  batch.push_back(Insert(fig_.T, fig_.Row({"Z2", "Q2", "S2"})));

  // (reader 5: 2 violation queries) x (2 writes) + (reader 6: the null
  // query, offered only for the write that carries x1).
  std::vector<std::tuple<uint64_t, const ReadQueryRecord*, const PhysicalWrite*>>
      offered;
  log_.ForEachCandidateBatch(
      batch, /*writer=*/1,
      [&](uint64_t reader, const ReadQueryRecord& q, const PhysicalWrite& w) {
        offered.push_back({reader, &q, &w});
        return false;  // keep visiting
      });
  EXPECT_EQ(offered.size(), 5u);
  for (size_t i = 0; i < offered.size(); ++i) {
    for (size_t j = i + 1; j < offered.size(); ++j) {
      EXPECT_FALSE(std::get<0>(offered[i]) == std::get<0>(offered[j]) &&
                   std::get<1>(offered[i]) == std::get<1>(offered[j]) &&
                   std::get<2>(offered[i]) == std::get<2>(offered[j]))
          << "candidate offered twice in one batch";
    }
  }

  // fn returning true stops that reader entirely (but not the others):
  // reader 5's first offer suppresses its remaining 3 combinations, while
  // the null-only reader 6 is still visited.
  size_t calls = 0;
  std::unordered_set<uint64_t> readers_seen;
  log_.ForEachCandidateBatch(
      batch, /*writer=*/1,
      [&](uint64_t reader, const ReadQueryRecord&, const PhysicalWrite&) {
        ++calls;
        readers_seen.insert(reader);
        return true;  // doom the reader: stop probing it
      });
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(readers_seen.size(), 2u);
}

TEST_F(ReadLogTest, FingerprintCollisionKeepsBothQueries) {
  // Record dedups by fingerprint, and distinct queries can share one. Two
  // hand-built records with one fingerprint must both be logged, or a
  // write that conflicts only with the second is never checked against it.
  ReadQueryRecord first = ReadQueryRecord::MoreSpecific(fig_.C, fig_.Row({"NYC"}));
  ReadQueryRecord second = ReadQueryRecord::MoreSpecific(
      fig_.A, {fig_.Const("Geneva"), fig_.db.FreshNull()});
  first.fingerprint = second.fingerprint = 42;
  log_.Record(5, first);
  log_.Record(5, second);
  log_.Record(5, second);  // a true duplicate is still dropped
  EXPECT_EQ(log_.total_queries(), 2u);

  const PhysicalWrite w = Insert(fig_.A, fig_.Row({"Geneva", "Lakeside"}));
  ConflictChecker checker(&fig_.tgds);
  const Snapshot reader_snap(&fig_.db, 5);
  ASSERT_FALSE(checker.Conflicts(reader_snap, w, first));
  bool doomed = false;
  log_.ForEachCandidate(w, /*writer=*/1,
                        [&](uint64_t reader, const ReadQueryRecord& q) {
                          doomed |= reader == 5 &&
                                    checker.Conflicts(reader_snap, w, q);
                        });
  EXPECT_TRUE(doomed);
}

TEST_F(ReadLogTest, MultipleReadersSameRelation) {
  for (uint64_t u = 5; u < 10; ++u) {
    log_.Record(u, ReadQueryRecord::MoreSpecific(fig_.C,
                                                 {fig_.db.FreshNull()}));
  }
  EXPECT_EQ(CountCandidates(Insert(fig_.C, fig_.Row({"NYC"})), 1), 5u);
  EXPECT_EQ(CountCandidates(Insert(fig_.C, fig_.Row({"NYC"})), 7), 2u);
}

// One offer of a batch walk: the reader, the query's position in the
// reader's log, and the write's index in the batch.
using Offer = std::tuple<uint64_t, size_t, size_t>;
using OffersByReader = std::map<uint64_t, std::vector<Offer>>;

TEST_F(ReadLogTest, IndexedWalkMatchesWholeLogScanOnRandomLogs) {
  // The reference is the whole-log walk the index lists replaced: every
  // live reader above the writer, each of its queries in log order, each
  // query offered the batch's writes that can touch it — a violation query
  // the writes to each relation of its tgd (tgd relation order, then batch
  // order), a more-specific query the writes to its relation, a
  // null-occurrence query the writes carrying its null. The indexed walk
  // must offer the same (reader, query, write) triples in the same order
  // within each reader, stop a doomed reader at the same triple, and report
  // the queries it visited.
  const std::vector<RelationId> rels{fig_.C, fig_.S, fig_.A, fig_.T,
                                     fig_.R, fig_.V, fig_.E};
  const std::vector<Value> nulls{fig_.x1, fig_.x2, fig_.db.FreshNull(),
                                 fig_.db.FreshNull()};
  const std::vector<Value> constants{fig_.Const("Geneva"),
                                     fig_.Const("Geneva Winery"),
                                     fig_.Const("XYZ"), fig_.Const("Syracuse")};
  constexpr uint64_t kReaders = 20;
  size_t offers_seen = 0;
  size_t dooms_seen = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    auto tuple_for = [&](RelationId rel) {
      TupleData t;
      for (size_t c = 0; c < fig_.db.relation(rel).arity(); ++c) {
        t.push_back(rng.Chance(0.2) ? nulls[rng.Uniform(nulls.size())]
                                    : constants[rng.Uniform(constants.size())]);
      }
      return t;
    };
    ReadLog log(&fig_.tgds);
    std::set<uint64_t> readers;
    for (int i = 0; i < 160; ++i) {
      const uint64_t u = 1 + rng.Uniform(kReaders);
      if (rng.Chance(0.04)) {
        log.EraseUpdate(u);
        readers.erase(u);
        continue;
      }
      const int tgd_id = static_cast<int>(rng.Uniform(fig_.tgds.size()));
      const Tgd& tgd = fig_.tgds[static_cast<size_t>(tgd_id)];
      switch (rng.Uniform(3)) {
        case 0: {
          const bool lhs = rng.Chance(0.5);
          const auto& atoms = lhs ? tgd.lhs().atoms : tgd.rhs().atoms;
          const size_t atom = rng.Uniform(atoms.size());
          log.Record(u, ReadQueryRecord::Violation(tgd_id, lhs, atom,
                                                   tuple_for(atoms[atom].rel)));
          break;
        }
        case 1: {
          const RelationId rel = rels[rng.Uniform(rels.size())];
          log.Record(u, ReadQueryRecord::MoreSpecific(rel, tuple_for(rel)));
          break;
        }
        default:
          log.Record(u, ReadQueryRecord::NullOccurrence(
                            nulls[rng.Uniform(nulls.size())]));
      }
      readers.insert(u);
    }
    std::vector<PhysicalWrite> batch;
    for (size_t n = 1 + rng.Uniform(6); batch.size() < n;) {
      PhysicalWrite w;
      w.rel = rels[rng.Uniform(rels.size())];
      w.kind = static_cast<WriteKind>(rng.Uniform(3));
      if (w.kind != WriteKind::kDelete) w.data = tuple_for(w.rel);
      if (w.kind != WriteKind::kInsert) w.old_data = tuple_for(w.rel);
      batch.push_back(std::move(w));
    }
    const uint64_t writer = 1 + rng.Uniform(kReaders);
    auto carries = [](const PhysicalWrite& w, const Value& null_value) {
      return ContainsNull(w.data, null_value) ||
             ContainsNull(w.old_data, null_value);
    };
    // A fixed pseudo-random choice of the offers that doom their reader.
    auto dooms = [](const Offer& o) {
      return (std::get<0>(o) * 31 + std::get<1>(o) * 7 + std::get<2>(o)) %
                 5 ==
             0;
    };

    for (bool dooming : {false, true}) {
      OffersByReader got;
      const size_t visited = log.ForEachCandidateBatch(
          batch, writer,
          [&](uint64_t reader, const ReadQueryRecord& q,
              const PhysicalWrite& w) {
            const Offer o{reader,
                          static_cast<size_t>(&q - log.QueriesOf(reader)->data()),
                          static_cast<size_t>(&w - batch.data())};
            got[reader].push_back(o);
            return dooming && dooms(o);
          });

      OffersByReader want;
      size_t want_visited = 0;
      for (uint64_t reader : readers) {
        if (reader <= writer) continue;
        const std::vector<ReadQueryRecord>& queries = *log.QueriesOf(reader);
        std::vector<Offer> offers;
        bool doomed = false;
        for (size_t pos = 0; pos < queries.size() && !doomed; ++pos) {
          const ReadQueryRecord& q = queries[pos];
          std::vector<size_t> offered;
          auto to_rel = [&](RelationId rel) {
            for (size_t k = 0; k < batch.size(); ++k) {
              if (batch[k].rel == rel) offered.push_back(k);
            }
          };
          switch (q.kind) {
            case ReadQueryKind::kViolation:
              for (RelationId rel :
                   fig_.tgds[static_cast<size_t>(q.tgd_id)].all_relations()) {
                to_rel(rel);
              }
              break;
            case ReadQueryKind::kMoreSpecific:
              to_rel(q.rel);
              break;
            case ReadQueryKind::kNullOccurrence:
              for (size_t k = 0; k < batch.size(); ++k) {
                if (carries(batch[k], q.null_value)) offered.push_back(k);
              }
              break;
          }
          if (!offered.empty()) ++want_visited;
          for (size_t k : offered) {
            const Offer o{reader, pos, k};
            offers.push_back(o);
            if (dooming && dooms(o)) {
              doomed = true;
              ++dooms_seen;
              break;
            }
          }
        }
        offers_seen += offers.size();
        if (!offers.empty()) want[reader] = std::move(offers);
      }
      EXPECT_EQ(got, want) << "seed " << seed << " dooming " << dooming;
      EXPECT_EQ(visited, want_visited) << "seed " << seed;
    }
  }
  EXPECT_GT(offers_seen, 0u);
  EXPECT_GT(dooms_seen, 0u);
}

// The distinct writers of `rel`, read off its index list.
std::vector<uint64_t> WritersOf(const WriteLog& wlog, RelationId rel) {
  std::vector<uint64_t> writers;
  for (const WriteLog::Entry& e : wlog.WritesTo(rel, UINT64_MAX)) {
    if (writers.empty() || writers.back() != e.writer) {
      writers.push_back(e.writer);
    }
  }
  return writers;
}

TEST(WriteLogTest, RecordAndEraseMaintainWriterSets) {
  Figure2 fig;
  WriteLog wlog;
  PhysicalWrite w;
  w.kind = WriteKind::kInsert;
  w.rel = fig.T;
  w.data = fig.Row({"Z", "Q", "S"});
  wlog.Record(1, w);
  wlog.Record(1, w);
  wlog.Record(2, w);
  EXPECT_EQ(wlog.size(), 3u);
  std::vector<uint64_t> writers = WritersOf(wlog, fig.T);
  EXPECT_EQ(writers.size(), 2u);
  wlog.EraseUpdate(1);
  EXPECT_EQ(wlog.size(), 1u);
  writers = WritersOf(wlog, fig.T);
  EXPECT_EQ(writers.size(), 1u);
  EXPECT_EQ(wlog.WritesOf(2).size(), 1u);
}

PhysicalWrite LoggedInsert(RelationId rel, TupleData data) {
  PhysicalWrite w;
  w.kind = WriteKind::kInsert;
  w.rel = rel;
  w.data = std::move(data);
  return w;
}

// Updates 1 and 2 interleave; 1 writes T, A, T and 2 writes C.
struct WriteLogFixture {
  WriteLogFixture() {
    wlog.Record(1, LoggedInsert(fig.T, fig.Row({"t1", "q", "s"})));
    wlog.Record(2, LoggedInsert(fig.C, fig.Row({"c2"})));
    wlog.Record(1, LoggedInsert(fig.A, fig.Row({"a1", "n"})));
    wlog.Record(1, LoggedInsert(fig.T, fig.Row({"t1b", "q", "s"})));
  }

  // The first value of each of the update's writes, in log order.
  std::vector<std::string> WritesOf(uint64_t update) {
    std::vector<std::string> out;
    for (const PhysicalWrite& w : wlog.WritesOf(update)) {
      out.emplace_back(fig.db.symbols().Text(w.data[0]));
    }
    return out;
  }

  // WritesOf over the writers the relation lists name for `rels`.
  std::vector<std::string> WritesOfWritersOf(std::vector<RelationId> rels) {
    std::vector<uint64_t> writers;
    for (RelationId rel : rels) {
      for (uint64_t writer : WritersOf(wlog, rel)) writers.push_back(writer);
    }
    std::sort(writers.begin(), writers.end());
    writers.erase(std::unique(writers.begin(), writers.end()), writers.end());
    std::vector<std::string> out;
    for (uint64_t writer : writers) {
      for (const std::string& v : WritesOf(writer)) out.push_back(v);
    }
    return out;
  }

  // fn(update, writes) for every update with logged writes, found through
  // the relation lists.
  template <typename Fn>
  void ForEachUpdate(Fn&& fn) {
    std::vector<uint64_t> updates;
    for (RelationId rel = 0; rel < fig.db.num_relations(); ++rel) {
      for (uint64_t writer : WritersOf(wlog, rel)) updates.push_back(writer);
    }
    std::sort(updates.begin(), updates.end());
    updates.erase(std::unique(updates.begin(), updates.end()), updates.end());
    for (uint64_t update : updates) fn(update, wlog.WritesOf(update));
  }

  Figure2 fig;
  WriteLog wlog;
};

using Names = std::vector<std::string>;

TEST(WriteLogTest, KeepsEachUpdatesWritesInLogOrder) {
  WriteLogFixture f;
  EXPECT_EQ(f.WritesOf(1), (Names{"t1", "a1", "t1b"}));
  EXPECT_EQ(f.WritesOf(2), (Names{"c2"}));
  EXPECT_TRUE(f.WritesOf(3).empty());
  EXPECT_EQ(f.wlog.size(), 4u);

  std::vector<uint64_t> updates;
  size_t writes = 0;
  f.ForEachUpdate([&](uint64_t update, Span<const PhysicalWrite> ws) {
    updates.push_back(update);
    writes += ws.size();
  });
  std::sort(updates.begin(), updates.end());
  EXPECT_EQ(updates, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(writes, 4u);
}

TEST(WriteLogTest, RelationIndexNamesExactlyTheWriters) {
  WriteLogFixture f;
  Figure2& fig = f.fig;
  // Update 1 wrote T and A, update 2 wrote C; a writer of two of the
  // relations is named once.
  EXPECT_EQ(f.WritesOfWritersOf({fig.T, fig.A}), (Names{"t1", "a1", "t1b"}));
  EXPECT_EQ(f.WritesOfWritersOf({fig.A}), (Names{"t1", "a1", "t1b"}));
  EXPECT_EQ(f.WritesOfWritersOf({fig.C, fig.V}), (Names{"c2"}));
  EXPECT_EQ(f.WritesOfWritersOf({fig.T, fig.C}),
            (Names{"t1", "a1", "t1b", "c2"}));
  EXPECT_TRUE(f.WritesOfWritersOf({fig.V, fig.E}).empty());
}

TEST(WriteLogTest, EraseDropsOnlyThatUpdate) {
  WriteLogFixture f;
  Figure2& fig = f.fig;
  f.wlog.EraseUpdate(1);
  f.wlog.EraseUpdate(7);  // never logged: no-op
  EXPECT_TRUE(f.WritesOf(1).empty());
  EXPECT_TRUE(f.WritesOfWritersOf({fig.T, fig.A}).empty());
  EXPECT_EQ(f.WritesOfWritersOf({fig.C}), (Names{"c2"}));
  EXPECT_EQ(f.wlog.size(), 1u);
  // A number logged again after its erase starts a fresh list.
  f.wlog.Record(1, LoggedInsert(fig.A, fig.Row({"a1c", "n"})));
  EXPECT_EQ(f.WritesOfWritersOf({fig.T, fig.A}), (Names{"a1c"}));
}

// (writer, first value) of each entry, in list order.
using Listed = std::vector<std::pair<uint64_t, std::string>>;
Listed ListOf(const Figure2& fig, Span<const WriteLog::Entry> entries) {
  Listed out;
  for (const WriteLog::Entry& e : entries) {
    const PhysicalWrite& w = e.write();
    const TupleData& content = w.data.empty() ? w.old_data : w.data;
    out.emplace_back(e.writer, content[0].is_null()
                                   ? "null"
                                   : fig.db.symbols().Text(content[0]));
  }
  return out;
}

TEST(WriteLogTest, IndexListsRunInWriterThenLogOrder) {
  Figure2 fig;
  WriteLog wlog;
  const Value n = fig.x1;
  // Writer numbers out of log order, as when a restarted update logs under
  // a fresh, higher number while lower-numbered updates still write.
  wlog.Record(5, LoggedInsert(fig.T, {fig.Const("t5a"), n, fig.Const("s")}));
  wlog.Record(2, LoggedInsert(fig.T, fig.Row({"t2a", "q", "s"})));
  wlog.Record(9, LoggedInsert(fig.C, {n}));
  wlog.Record(5, LoggedInsert(fig.T, fig.Row({"t5b", "q", "s"})));
  wlog.Record(3, LoggedInsert(fig.T, {fig.Const("t3"), n, fig.Const("s")}));
  wlog.Record(2, LoggedInsert(fig.T, {fig.Const("t2b"), n, fig.Const("s")}));

  EXPECT_EQ(ListOf(fig, wlog.WritesTo(fig.T, UINT64_MAX)),
            (Listed{{2, "t2a"}, {2, "t2b"}, {3, "t3"}, {5, "t5a"},
                    {5, "t5b"}}));
  // Only the prefix below the reader.
  EXPECT_EQ(ListOf(fig, wlog.WritesTo(fig.T, 5)),
            (Listed{{2, "t2a"}, {2, "t2b"}, {3, "t3"}}));
  EXPECT_EQ(ListOf(fig, wlog.WritesTo(fig.T, 3)),
            (Listed{{2, "t2a"}, {2, "t2b"}}));
  EXPECT_TRUE(wlog.WritesTo(fig.T, 2).empty());
  EXPECT_TRUE(wlog.WritesTo(fig.C, 9).empty());
  EXPECT_EQ(ListOf(fig, wlog.WritesTo(fig.C, 10)), (Listed{{9, "null"}}));
  EXPECT_TRUE(wlog.WritesTo(fig.V, UINT64_MAX).empty());

  EXPECT_EQ(ListOf(fig, wlog.WritesCarrying(n, UINT64_MAX)),
            (Listed{{2, "t2b"}, {3, "t3"}, {5, "t5a"}, {9, "null"}}));
  EXPECT_EQ(ListOf(fig, wlog.WritesCarrying(n, 5)),
            (Listed{{2, "t2b"}, {3, "t3"}}));
  EXPECT_TRUE(wlog.WritesCarrying(fig.x2, UINT64_MAX).empty());
}

TEST(WriteLogTest, NullListNamesEachCarryingWriteOnce) {
  Figure2 fig;
  WriteLog wlog;
  const Value n = fig.x1;
  const Value m = fig.x2;
  // The null in both the old and the new content of a modify.
  PhysicalWrite modify;
  modify.kind = WriteKind::kModify;
  modify.rel = fig.E;
  modify.data = {n, fig.Const("Niagara Falls")};
  modify.old_data = {n, fig.Const("Geneva Winery")};
  wlog.Record(4, modify);
  // Twice in one tuple, beside another null.
  wlog.Record(1, LoggedInsert(fig.R, {n, m, n}));
  // Only in the old content of a delete.
  PhysicalWrite del;
  del.kind = WriteKind::kDelete;
  del.rel = fig.V;
  del.old_data = {fig.Const("Syracuse"), n};
  wlog.Record(3, del);
  wlog.Record(2, LoggedInsert(fig.T, fig.Row({"t2", "q", "s"})));

  Span<const WriteLog::Entry> carrying = wlog.WritesCarrying(n, UINT64_MAX);
  ASSERT_EQ(carrying.size(), 3u);
  EXPECT_EQ(carrying[0].writer, 1u);
  EXPECT_EQ(carrying[1].writer, 3u);
  EXPECT_EQ(carrying[2].writer, 4u);
  // Each entry reaches its own write.
  EXPECT_EQ(carrying[0].write().rel, fig.R);
  EXPECT_EQ(carrying[1].write().kind, WriteKind::kDelete);
  EXPECT_EQ(carrying[2].write().kind, WriteKind::kModify);
  ASSERT_EQ(wlog.WritesCarrying(m, UINT64_MAX).size(), 1u);
  EXPECT_EQ(wlog.WritesCarrying(m, UINT64_MAX)[0].writer, 1u);
}

TEST(WriteLogTest, EraseUnlistsOnlyThatUpdate) {
  Figure2 fig;
  WriteLog wlog;
  const Value n = fig.x1;
  for (uint64_t writer : {1, 2, 3}) {
    const std::string tag = "t" + std::to_string(writer);
    wlog.Record(writer, LoggedInsert(fig.T, {fig.Const(tag), n,
                                             fig.Const("s")}));
    wlog.Record(writer, LoggedInsert(fig.T, fig.Row({tag + "b", "q", "s"})));
    wlog.Record(writer, LoggedInsert(fig.C, {n}));
  }
  wlog.EraseUpdate(2);
  EXPECT_EQ(ListOf(fig, wlog.WritesTo(fig.T, UINT64_MAX)),
            (Listed{{1, "t1"}, {1, "t1b"}, {3, "t3"}, {3, "t3b"}}));
  EXPECT_EQ(ListOf(fig, wlog.WritesTo(fig.C, UINT64_MAX)),
            (Listed{{1, "null"}, {3, "null"}}));
  EXPECT_EQ(ListOf(fig, wlog.WritesCarrying(n, UINT64_MAX)),
            (Listed{{1, "t1"}, {1, "null"}, {3, "t3"}, {3, "null"}}));

  wlog.EraseUpdate(1);
  wlog.EraseUpdate(3);
  EXPECT_TRUE(wlog.WritesTo(fig.T, UINT64_MAX).empty());
  EXPECT_TRUE(wlog.WritesTo(fig.C, UINT64_MAX).empty());
  EXPECT_TRUE(wlog.WritesCarrying(n, UINT64_MAX).empty());

  // A number logged again after its erase starts fresh: its entries reach
  // only the new writes.
  wlog.Record(2, LoggedInsert(fig.T, {fig.Const("again"), n,
                                      fig.Const("s")}));
  EXPECT_EQ(ListOf(fig, wlog.WritesTo(fig.T, UINT64_MAX)),
            (Listed{{2, "again"}}));
  EXPECT_EQ(ListOf(fig, wlog.WritesCarrying(n, UINT64_MAX)),
            (Listed{{2, "again"}}));
  EXPECT_EQ(wlog.WritesOf(2).size(), 1u);
}

}  // namespace
}  // namespace youtopia
