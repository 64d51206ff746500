#include "query/evaluator.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "query/query_engine.h"
#include "tgd/parser.h"
#include "test_util.h"
#include "util/rng.h"

namespace youtopia {
namespace {

using testing_util::Figure2;

size_t CountMatches(const Snapshot& snap, const ConjunctiveQuery& cq,
                    const Binding& seed = Binding()) {
  Evaluator eval(snap);
  size_t n = 0;
  eval.ForEachMatch(cq, seed, nullptr,
                    [&](const Binding&, const std::vector<TupleRef>&) {
                      ++n;
                      return true;
                    });
  return n;
}

TEST(EvaluatorTest, SingleAtomScan) {
  Figure2 fig;
  TgdParser parser(&fig.db.catalog(), &fig.db.symbols());
  auto q = parser.ParseQuery("C(c)");
  ASSERT_TRUE(q.ok());
  Snapshot snap(&fig.db, kReadLatest);
  EXPECT_EQ(CountMatches(snap, q->body), 2u);
}

TEST(EvaluatorTest, ConstantTermsFilter) {
  Figure2 fig;
  TgdParser parser(&fig.db.catalog(), &fig.db.symbols());
  auto q = parser.ParseQuery("S(a, l, 'Ithaca')");
  ASSERT_TRUE(q.ok());
  Snapshot snap(&fig.db, kReadLatest);
  EXPECT_EQ(CountMatches(snap, q->body), 1u);
}

TEST(EvaluatorTest, JoinAcrossAtoms) {
  Figure2 fig;
  TgdParser parser(&fig.db.catalog(), &fig.db.symbols());
  // The sigma3 LHS: attractions with tours.
  auto q = parser.ParseQuery("A(l, n) & T(n, co, s)");
  ASSERT_TRUE(q.ok());
  Snapshot snap(&fig.db, kReadLatest);
  EXPECT_EQ(CountMatches(snap, q->body), 2u);
}

TEST(EvaluatorTest, RepeatedVariableWithinAtom) {
  Figure2 fig;
  TgdParser parser(&fig.db.catalog(), &fig.db.symbols());
  // Airports located in the city they serve.
  auto q = parser.ParseQuery("S(a, c, c)");
  ASSERT_TRUE(q.ok());
  Snapshot snap(&fig.db, kReadLatest);
  EXPECT_EQ(CountMatches(snap, q->body), 1u);  // (SYR, Syracuse, Syracuse)
}

TEST(EvaluatorTest, VariablesBindToLabeledNulls) {
  Figure2 fig;
  TgdParser parser(&fig.db.catalog(), &fig.db.symbols());
  auto q = parser.ParseQuery("T(n, co, s)");
  ASSERT_TRUE(q.ok());
  Snapshot snap(&fig.db, kReadLatest);
  size_t null_bindings = 0;
  Evaluator eval(snap);
  eval.ForEachMatch(q->body, Binding(), nullptr,
                    [&](const Binding& b, const std::vector<TupleRef>&) {
                      if (b.Get(*q->VarByName("co")).is_null()) {
                        ++null_bindings;
                      }
                      return true;
                    });
  EXPECT_EQ(null_bindings, 1u);  // the x1 company
}

TEST(EvaluatorTest, NullsJoinOnlyWithThemselves) {
  Figure2 fig;
  TgdParser parser(&fig.db.catalog(), &fig.db.symbols());
  // T.company joins R.company: the x1 tuples join, constants join.
  auto q = parser.ParseQuery("T(n, co, s) & R(co, n2, r)");
  ASSERT_TRUE(q.ok());
  Snapshot snap(&fig.db, kReadLatest);
  EXPECT_EQ(CountMatches(snap, q->body), 2u);
}

TEST(EvaluatorTest, PinForcesAtomToOneTuple) {
  Figure2 fig;
  TgdParser parser(&fig.db.catalog(), &fig.db.symbols());
  auto q = parser.ParseQuery("A(l, n) & T(n, co, s)");
  ASSERT_TRUE(q.ok());
  Snapshot snap(&fig.db, kReadLatest);
  const TupleData pinned = fig.Row({"Geneva", "Geneva Winery"});
  AtomPin pin{0, 0, &pinned};
  Evaluator eval(snap);
  size_t n = 0;
  eval.ForEachMatch(q->body, Binding(), &pin,
                    [&](const Binding&, const std::vector<TupleRef>&) {
                      ++n;
                      return true;
                    });
  EXPECT_EQ(n, 1u);
}

TEST(EvaluatorTest, SeedBindingRestricts) {
  Figure2 fig;
  TgdParser parser(&fig.db.catalog(), &fig.db.symbols());
  auto q = parser.ParseQuery("S(a, l, c)");
  ASSERT_TRUE(q.ok());
  Snapshot snap(&fig.db, kReadLatest);
  Binding seed;
  seed.Set(*q->VarByName("c"), fig.Const("Ithaca"));
  EXPECT_EQ(CountMatches(snap, q->body, seed), 1u);
}

TEST(EvaluatorTest, ExistsShortCircuits) {
  Figure2 fig;
  TgdParser parser(&fig.db.catalog(), &fig.db.symbols());
  auto q = parser.ParseQuery("C(c)");
  ASSERT_TRUE(q.ok());
  Snapshot snap(&fig.db, kReadLatest);
  Evaluator eval(snap);
  EXPECT_TRUE(eval.Exists(q->body, Binding()));
  Binding seed;
  seed.Set(*q->VarByName("c"), fig.Const("Toronto"));
  EXPECT_FALSE(eval.Exists(q->body, seed));
}

TEST(EvaluatorTest, MvccVisibilityInQueries) {
  Figure2 fig;
  // Update 7 deletes C(Ithaca).
  const RowId row = *fig.db.FindRowWithData(fig.C, fig.Row({"Ithaca"}), 0);
  fig.db.Apply(WriteOp::Delete(fig.C, row), 7);
  TgdParser parser(&fig.db.catalog(), &fig.db.symbols());
  auto q = parser.ParseQuery("C(c)");
  ASSERT_TRUE(q.ok());
  Snapshot before(&fig.db, 6);
  Snapshot after(&fig.db, 7);
  EXPECT_EQ(CountMatches(before, q->body), 2u);
  EXPECT_EQ(CountMatches(after, q->body), 1u);
}

// Property check: the index-driven evaluator agrees with a brute-force
// nested-loop oracle on random instances of a triangle join.
class EvaluatorRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvaluatorRandomTest, AgreesWithBruteForceOracle) {
  Rng rng(GetParam());
  Database db;
  const RelationId e = *db.CreateRelation("Edge", {"src", "dst"});
  const size_t domain = 6;
  const size_t tuples = 30;
  for (size_t i = 0; i < tuples; ++i) {
    TupleData data{Value::Constant(rng.Uniform(domain)),
                   Value::Constant(rng.Uniform(domain))};
    db.Apply(WriteOp::Insert(e, std::move(data)), 0);
  }
  TgdParser parser(&db.catalog(), &db.symbols());
  auto q = parser.ParseQuery("Edge(a, b) & Edge(b, c) & Edge(c, a)");
  ASSERT_TRUE(q.ok());
  Snapshot snap(&db, kReadLatest);

  // Oracle: enumerate all visible tuple triples.
  std::vector<TupleData> rows;
  snap.ForEachVisible(e, [&](RowId, const TupleData& d) { rows.push_back(d); });
  size_t oracle = 0;
  for (const auto& t1 : rows) {
    for (const auto& t2 : rows) {
      for (const auto& t3 : rows) {
        if (t1[1] == t2[0] && t2[1] == t3[0] && t3[1] == t1[0]) ++oracle;
      }
    }
  }
  EXPECT_EQ(CountMatches(snap, q->body), oracle);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorRandomTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(EvaluatorTest, ExistsStopsScanningAfterFirstMatch) {
  // Regression: the no-index fallback used to keep resolving visibility for
  // every remaining row after the callback stopped the enumeration, so an
  // existence check paid for a full scan. rows_examined() must reflect the
  // early exit.
  Database db;
  const RelationId r = *db.CreateRelation("R", {"a"});
  for (uint64_t i = 0; i < 100; ++i) {
    db.Apply(WriteOp::Insert(r, {Value::Constant(i)}), 0);
  }
  TgdParser parser(&db.catalog(), &db.symbols());
  auto q = parser.ParseQuery("R(x)");  // no bound term: forces the scan path
  ASSERT_TRUE(q.ok());
  Snapshot snap(&db, kReadLatest);
  Evaluator eval(snap);
  EXPECT_TRUE(eval.Exists(q->body, Binding()));
  EXPECT_EQ(eval.rows_examined(), 1u);
  // A full enumeration still visits every row.
  size_t n = 0;
  eval.ForEachMatch(q->body, Binding(), nullptr,
                    [&](const Binding&, const std::vector<TupleRef>&) {
                      ++n;
                      return true;
                    });
  EXPECT_EQ(n, 100u);
  EXPECT_EQ(eval.rows_examined(), 100u);
}

TEST(EvaluatorTest, DuplicateAndStaleIndexCandidatesYieldOneMatch) {
  // A null replacement writes a row's full content again, but a row
  // re-written with the same value in one column stays listed once in that
  // column's bucket; a deleted row stays listed (its insert version still
  // carries the value). The executor reads the bucket in place and
  // re-verifies, so each surviving row matches exactly once.
  Database db;
  const RelationId r = *db.CreateRelation("R", {"a", "b"});
  const Value a = db.InternConstant("A");
  const Value b = db.InternConstant("B");
  const Value x = db.FreshNull();
  db.Apply(WriteOp::Insert(r, {a, x}), 0);                       // row 0
  const auto w1 =
      db.Apply(WriteOp::Insert(r, {a, db.InternConstant("C")}), 0);  // row 1
  ASSERT_EQ(w1.size(), 1u);
  db.Apply(WriteOp::NullReplace(x, b), 1);  // row 0 -> (A, B), re-written
  db.Apply(WriteOp::Delete(r, w1[0].row), 2);  // row 1 -> invisible at 2+

  // The bucket lists row0 once and row1, which the reader must re-verify.
  const Span<const RowId> bucket = db.relation(r).Bucket(0, a);
  EXPECT_EQ(std::vector<RowId>(bucket.begin(), bucket.end()),
            (std::vector<RowId>{0, w1[0].row}));

  TgdParser parser(&db.catalog(), &db.symbols());
  auto q = parser.ParseQuery("R('A', y)");
  ASSERT_TRUE(q.ok());
  Snapshot snap(&db, kReadLatest);
  Evaluator eval(snap);
  size_t n = 0;
  eval.ForEachMatch(q->body, Binding(), nullptr,
                    [&](const Binding& bind, const std::vector<TupleRef>&) {
                      ++n;
                      EXPECT_EQ(bind.Get(*q->VarByName("y")), b);
                      return true;
                    });
  EXPECT_EQ(n, 1u);
}

TEST(EvaluatorTest, MoveOnlyCallbackStopsAtFirstMatchAndScratchIsReused) {
  // The callback is a template parameter, so a callable that owns a
  // std::unique_ptr (which std::function cannot hold) is accepted. Stopping
  // at the innermost level of a three-atom join ends the whole enumeration.
  Database db;
  const RelationId e = *db.CreateRelation("Edge", {"src", "dst"});
  const size_t nodes = 5;
  for (uint64_t i = 0; i < nodes; ++i) {
    for (uint64_t step : {1, 2}) {
      db.Apply(WriteOp::Insert(e, {Value::Constant(i),
                                   Value::Constant((i + step) % nodes)}),
               0);
    }
  }
  TgdParser parser(&db.catalog(), &db.symbols());
  auto path = parser.ParseQuery("Edge(a, b) & Edge(b, c) & Edge(c, d)");
  auto cycle = parser.ParseQuery("Edge(a, b) & Edge(b, c) & Edge(c, a)");
  ASSERT_TRUE(path.ok());
  ASSERT_TRUE(cycle.ok());
  Snapshot snap(&db, kReadLatest);
  Evaluator eval(snap);

  size_t matches = 0;
  auto stop = [owned = std::make_unique<size_t>(3), &matches](
                  const Binding&, const std::vector<TupleRef>& rows) {
    ++matches;
    EXPECT_EQ(rows.size(), *owned);
    return false;
  };
  EXPECT_FALSE(eval.ForEachMatch(path->body, Binding(), nullptr,
                                 std::move(stop)));
  EXPECT_EQ(matches, 1u);

  // The same evaluator, its per-depth scratch left by the stopped run,
  // answers a different plan: the directed triangles, counted by brute
  // force over the visible edges.
  std::vector<TupleData> edges;
  snap.ForEachVisible(e, [&](RowId, const TupleData& d) { edges.push_back(d); });
  size_t oracle = 0;
  for (const TupleData& t1 : edges) {
    for (const TupleData& t2 : edges) {
      for (const TupleData& t3 : edges) {
        if (t1[1] == t2[0] && t2[1] == t3[0] && t3[1] == t1[0]) ++oracle;
      }
    }
  }
  ASSERT_GT(oracle, 0u);
  size_t triangles = 0;
  EXPECT_TRUE(eval.ForEachMatch(
      cycle->body, Binding(), nullptr,
      [&](const Binding&, const std::vector<TupleRef>&) {
        ++triangles;
        return true;
      }));
  EXPECT_EQ(triangles, oracle);
}

}  // namespace
}  // namespace youtopia
