#include "query/specificity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "test_util.h"
#include "util/rng.h"

namespace youtopia {
namespace {

const Value kA = Value::Constant(1);
const Value kB = Value::Constant(2);
const Value kN1 = Value::Null(1);
const Value kN2 = Value::Null(2);
const Value kN3 = Value::Null(3);

TEST(SpecificityTest, PaperExampleCityTuple) {
  // C(NYC) is more specific than C(x4), not vice versa.
  EXPECT_TRUE(IsMoreSpecific({kA}, {kN1}));
  EXPECT_FALSE(IsMoreSpecific({kN1}, {kA}));
}

TEST(SpecificityTest, Reflexive) {
  EXPECT_TRUE(IsMoreSpecific({kA, kN1}, {kA, kN1}));
}

TEST(SpecificityTest, ConstantsMustMatchExactly) {
  EXPECT_FALSE(IsMoreSpecific({kB}, {kA}));
  EXPECT_TRUE(IsMoreSpecific({kA, kB}, {kA, kN1}));
  EXPECT_FALSE(IsMoreSpecific({kA, kB}, {kB, kN1}));
}

TEST(SpecificityTest, MapMustBeAFunction) {
  // (n1, n1) can map to (a, a) but not to (a, b).
  EXPECT_TRUE(IsMoreSpecific({kA, kA}, {kN1, kN1}));
  EXPECT_FALSE(IsMoreSpecific({kA, kB}, {kN1, kN1}));
}

TEST(SpecificityTest, NullToNullRenamingCounts) {
  // Definition 2.4 allows f to map nulls to nulls.
  EXPECT_TRUE(IsMoreSpecific({kN2}, {kN1}));
  EXPECT_TRUE(IsMoreSpecific({kN2, kN2}, {kN1, kN1}));
  EXPECT_FALSE(IsMoreSpecific({kN2, kN3}, {kN1, kN1}));
}

TEST(SpecificityTest, DifferentArityNeverComparable) {
  EXPECT_FALSE(IsMoreSpecific({kA}, {kA, kB}));
}

TEST(SpecificityTest, DuplicateAndStaleIndexCandidatesReportRowOnce) {
  // FindMoreSpecificRows reads a column bucket in place. The bucket lists
  // a row re-written with the same value once, and still lists a deleted
  // row (its insert version carries the value). Each surviving row must be
  // reported exactly once.
  Database db;
  const RelationId r = *db.CreateRelation("R", {"a", "b"});
  const Value a = db.InternConstant("A");
  const Value b = db.InternConstant("B");
  const Value x = db.FreshNull();
  const auto w0 = db.Apply(WriteOp::Insert(r, {a, x}), 0);  // row 0
  ASSERT_EQ(w0.size(), 1u);
  const auto w1 =
      db.Apply(WriteOp::Insert(r, {a, db.InternConstant("C")}), 0);  // row 1
  ASSERT_EQ(w1.size(), 1u);
  db.Apply(WriteOp::NullReplace(x, b), 1);  // row 0 -> (A, B), re-written
  db.Apply(WriteOp::Delete(r, w1[0].row), 2);  // row 1 -> invisible at 2+

  const Span<const RowId> bucket = db.relation(r).Bucket(0, a);
  ASSERT_EQ(std::vector<RowId>(bucket.begin(), bucket.end()),
            (std::vector<RowId>{w0[0].row, w1[0].row}));

  Snapshot snap(&db, kReadLatest);
  std::vector<RowId> out;
  FindMoreSpecificRows(snap, r, {a, b}, &out);
  ASSERT_EQ(out.size(), 1u);  // row 0 exactly once, row 1 filtered: deleted
  EXPECT_EQ(out[0], w0[0].row);
}

TEST(SpecificityTest, TransitivityOnRandomTuples) {
  // Property sweep: specificity is transitive.
  Rng rng(7);
  auto random_tuple = [&](size_t arity) {
    TupleData t;
    for (size_t i = 0; i < arity; ++i) {
      if (rng.Chance(0.5)) {
        t.push_back(Value::Constant(rng.Uniform(3)));
      } else {
        t.push_back(Value::Null(rng.Uniform(3)));
      }
    }
    return t;
  };
  size_t checked = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const TupleData a = random_tuple(3);
    const TupleData b = random_tuple(3);
    const TupleData c = random_tuple(3);
    if (IsMoreSpecific(c, b) && IsMoreSpecific(b, a)) {
      ++checked;
      EXPECT_TRUE(IsMoreSpecific(c, a))
          << "transitivity violated at iter " << iter;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(FindMoreSpecificTest, UsesConstantColumnIndex) {
  testing_util::Figure2 fig;
  Snapshot snap(&fig.db, kReadLatest);
  // Generated tuple R(ABC, Niagara Falls, z): nothing more specific (the x1
  // row has a different company pattern... x1 is a null, so R(x1, Niagara
  // Falls, x2) is NOT more specific than a tuple with constant ABC).
  const TupleData probe{fig.Const("ABC"), fig.Const("Niagara Falls"),
                        fig.db.FreshNull()};
  std::vector<RowId> rows;
  FindMoreSpecificRows(snap, fig.R, probe, &rows);
  EXPECT_TRUE(rows.empty());
}

TEST(FindMoreSpecificTest, FindsCandidatesForGeneralTuple) {
  testing_util::Figure2 fig;
  Snapshot snap(&fig.db, kReadLatest);
  // C(x) is generalized by every city.
  const TupleData probe{fig.db.FreshNull()};
  std::vector<RowId> rows;
  FindMoreSpecificRows(snap, fig.C, probe, &rows);
  EXPECT_EQ(rows.size(), 2u);
}

TEST(FindMoreSpecificTest, RespectsVisibility) {
  testing_util::Figure2 fig;
  const RowId row = *fig.db.FindRowWithData(fig.C, fig.Row({"Ithaca"}), 0);
  fig.db.Apply(WriteOp::Delete(fig.C, row), 5);
  const TupleData probe{fig.db.FreshNull()};
  std::vector<RowId> rows;
  Snapshot snap(&fig.db, 5);
  FindMoreSpecificRows(snap, fig.C, probe, &rows);
  EXPECT_EQ(rows.size(), 1u);  // only Syracuse remains
}

TEST(ContentLookupTest, IndexedLookupsMatchBruteForceScan) {
  // Property sweep: the index-driven content lookups (smallest bucket,
  // early exit on an empty one) answer exactly what a scan of the visible
  // rows answers. The relations have a hot leading column (the old
  // column-0 probe's worst case), labeled nulls, null replacements that
  // make rows equal, tombstones and writers of several numbers, and each
  // is probed at several reader numbers. Even seeds also build composite
  // indexes, which the lookups may walk instead: before the writes (kept
  // up by every write) on seeds divisible by 4, after them (built from the
  // stored versions) on the others.
  const std::vector<std::vector<size_t>> composites = {{0, 1}, {1, 2},
                                                       {0, 1, 2}};
  size_t duplicate_probes = 0;  // probes equal to two or more visible rows
  size_t composite_walks = 0;   // exact misses that beat every column bucket
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    Database db;
    const RelationId rel = *db.CreateRelation("R", {"a", "b", "c"});
    auto build_composites = [&] {
      for (const std::vector<size_t>& columns : composites) {
        db.mutable_relation(rel).EnsureCompositeIndex(columns);
      }
    };
    if (seed % 4 == 0) build_composites();
    std::vector<Value> nulls;
    auto constant = [&] { return Value::Constant(1 + rng.Uniform(4)); };
    auto value = [&](size_t column) {
      if (column == 0 && rng.Chance(0.8)) return Value::Constant(0);
      if (!nulls.empty() && rng.Chance(0.3)) {
        return nulls[rng.Uniform(nulls.size())];
      }
      if (rng.Chance(0.15)) {
        nulls.push_back(db.FreshNull());
        return nulls.back();
      }
      return constant();
    };
    auto tuple = [&] {
      TupleData t;
      for (size_t c = 0; c < 3; ++c) t.push_back(value(c));
      return t;
    };
    for (int op = 0; op < 250; ++op) {
      const uint64_t writer = 1 + rng.Uniform(40);
      const double pick = rng.UniformDouble();
      if (pick < 0.6 || db.relation(rel).num_rows() == 0) {
        db.Apply(WriteOp::Insert(rel, tuple()), writer);
      } else if (pick < 0.8 && !nulls.empty()) {
        const Value to = rng.Chance(0.7) ? constant()
                                         : nulls[rng.Uniform(nulls.size())];
        db.Apply(WriteOp::NullReplace(nulls[rng.Uniform(nulls.size())], to),
                 writer);
      } else {
        db.Apply(WriteOp::Delete(rel, static_cast<RowId>(rng.Uniform(
                                          db.relation(rel).num_rows()))),
                 writer);
      }
    }
    if (seed % 4 == 2) build_composites();
    ASSERT_EQ(db.relation(rel).num_composite_indexes(),
              seed % 2 == 0 ? composites.size() : 0u);

    // Probes: every stored row's content at the probing reader, plus fresh
    // tuples (some all-null, some over values no row holds).
    for (uint64_t reader : {uint64_t{0}, uint64_t{7}, uint64_t{20},
                            uint64_t{40}, kReadLatest}) {
      const Snapshot snap(&db, reader);
      std::vector<TupleData> probes;
      snap.ForEachVisible(rel, [&](RowId, const TupleData& data) {
        probes.push_back(data);
      });
      for (int i = 0; i < 40; ++i) probes.push_back(tuple());
      probes.push_back({db.FreshNull(), db.FreshNull(), db.FreshNull()});
      probes.push_back({Value::Constant(0), Value::Constant(99), value(2)});
      for (const TupleData& probe : probes) {
        std::vector<RowId> equal;
        std::vector<RowId> more_specific;
        snap.ForEachVisible(rel, [&](RowId row, const TupleData& data) {
          if (data == probe) equal.push_back(row);
          if (IsMoreSpecific(data, probe)) more_specific.push_back(row);
        });
        duplicate_probes += equal.size() > 1 ? 1 : 0;
        uint64_t examined = 0;
        const std::optional<RowId> found =
            db.FindRowWithData(rel, probe, reader, &examined);
        ASSERT_EQ(found.has_value(), !equal.empty()) << "seed " << seed;
        // The lowest-numbered equal row, whichever bucket was walked: the
        // row a delete of this content removes.
        if (found.has_value()) {
          EXPECT_EQ(*found, equal.front()) << "seed " << seed;
        }
        // A miss re-verifies every visible row of the bucket it walks, so
        // one below every column bucket's visible rows walked a composite.
        size_t fewest_in_a_column = SIZE_MAX;
        for (size_t c = 0; c < 3; ++c) {
          size_t visible = 0;
          for (RowId row : db.relation(rel).Bucket(c, probe[c])) {
            visible += snap.VisibleData(rel, row) != nullptr ? 1 : 0;
          }
          fewest_in_a_column = std::min(fewest_in_a_column, visible);
        }
        if (!found.has_value() && examined < fewest_in_a_column) {
          EXPECT_EQ(seed % 2, 0u) << "seed " << seed;
          ++composite_walks;
        }
        std::vector<RowId> out;
        bool exact = equal.empty();  // the wrong answer, to be overwritten
        const size_t listed =
            FindMoreSpecificRows(snap, rel, probe, &out, &exact);
        EXPECT_EQ(out, more_specific) << "seed " << seed;
        // Every exact copy is more specific, so the walk sees each one.
        EXPECT_EQ(exact, !equal.empty()) << "seed " << seed;
        // The existence form answers the same question and re-verifies no
        // more rows than the full list does.
        uint64_t probed = 0;
        EXPECT_EQ(HasMoreSpecificRow(snap, rel, probe, &probed), !out.empty())
            << "seed " << seed;
        EXPECT_LE(probed, listed) << "seed " << seed;
      }
    }
  }
  EXPECT_GT(duplicate_probes, 0u);
  EXPECT_GT(composite_walks, 0u);
}

}  // namespace
}  // namespace youtopia
