#include "relational/relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "util/rng.h"

namespace youtopia {
namespace {

TupleData Row(std::initializer_list<uint64_t> constants) {
  TupleData data;
  for (uint64_t c : constants) data.push_back(Value::Constant(c));
  return data;
}

std::vector<RowId> Rows(Span<const RowId> bucket) {
  return std::vector<RowId>(bucket.begin(), bucket.end());
}

TEST(VersionedRelationTest, InsertVisibleAtAndAfterCreatorNumber) {
  VersionedRelation rel(2);
  const RowId row = rel.AppendInsertRow(/*update=*/5, /*seq=*/1, Row({1, 2}));
  EXPECT_EQ(rel.VisibleData(row, 4), nullptr);  // earlier readers blind
  ASSERT_NE(rel.VisibleData(row, 5), nullptr);
  ASSERT_NE(rel.VisibleData(row, 100), nullptr);
  EXPECT_EQ(*rel.VisibleData(row, 5), Row({1, 2}));
}

TEST(VersionedRelationTest, VisibleVersionIsLargestCreatorAtMostReader) {
  VersionedRelation rel(1);
  const RowId row = rel.AppendInsertRow(1, 1, Row({10}));
  rel.AppendVersion(row, 7, 2, WriteKind::kModify, Row({70}));
  rel.AppendVersion(row, 4, 3, WriteKind::kModify, Row({40}));
  // Reader 5 sees the version by update 4 even though update 7 wrote
  // earlier in physical (seq) order.
  EXPECT_EQ(*rel.VisibleData(row, 5), Row({40}));
  EXPECT_EQ(*rel.VisibleData(row, 7), Row({70}));
  EXPECT_EQ(*rel.VisibleData(row, 1), Row({10}));
}

TEST(VersionedRelationTest, SameUpdateLaterSeqWins) {
  VersionedRelation rel(1);
  const RowId row = rel.AppendInsertRow(3, 1, Row({10}));
  rel.AppendVersion(row, 3, 2, WriteKind::kModify, Row({20}));
  EXPECT_EQ(*rel.VisibleData(row, 3), Row({20}));
}

TEST(VersionedRelationTest, DeleteTombstoneHidesRow) {
  VersionedRelation rel(1);
  const RowId row = rel.AppendInsertRow(1, 1, Row({10}));
  rel.AppendVersion(row, 6, 2, WriteKind::kDelete, Row({10}));
  EXPECT_NE(rel.VisibleData(row, 5), nullptr);  // before the delete
  EXPECT_EQ(rel.VisibleData(row, 6), nullptr);  // deleter sees it gone
  EXPECT_EQ(rel.VisibleData(row, 100), nullptr);
}

TEST(VersionedRelationTest, RemoveVersionsOfUndoesAbortedUpdate) {
  VersionedRelation rel(1);
  const RowId r1 = rel.AppendInsertRow(1, 1, Row({10}));
  const RowId r2 = rel.AppendInsertRow(9, 2, Row({90}));
  rel.AppendVersion(r1, 9, 3, WriteKind::kDelete, Row({10}));
  EXPECT_EQ(rel.VisibleData(r1, 9), nullptr);
  EXPECT_EQ(rel.RemoveVersionsOfRow(r1, 9) + rel.RemoveVersionsOfRow(r2, 9),
            2u);
  // The abort restores r1 and erases r2 entirely.
  ASSERT_NE(rel.VisibleData(r1, 9), nullptr);
  EXPECT_EQ(*rel.VisibleData(r1, 9), Row({10}));
  EXPECT_EQ(rel.VisibleData(r2, 100), nullptr);
}

TEST(VersionedRelationTest, RemoveVersionsAboveRewindsToThreshold) {
  VersionedRelation rel(1);
  const RowId r1 = rel.AppendInsertRow(0, 1, Row({10}));
  rel.AppendInsertRow(3, 2, Row({30}));
  rel.AppendVersion(r1, 4, 3, WriteKind::kModify, Row({11}));
  EXPECT_EQ(rel.RemoveVersionsAbove(0), 2u);
  EXPECT_EQ(*rel.VisibleData(r1, 100), Row({10}));
  size_t visible = 0;
  rel.ForEachVisible(100, [&](RowId, const TupleData&) { ++visible; });
  EXPECT_EQ(visible, 1u);
}

TEST(VersionedRelationTest, CandidateRowsFindsByColumn) {
  VersionedRelation rel(2);
  rel.AppendInsertRow(0, 1, Row({1, 2}));
  rel.AppendInsertRow(0, 2, Row({1, 3}));
  rel.AppendInsertRow(0, 3, Row({4, 2}));
  EXPECT_EQ(Rows(rel.Bucket(0, Value::Constant(1))),
            (std::vector<RowId>{0, 1}));
  EXPECT_EQ(Rows(rel.Bucket(1, Value::Constant(2))),
            (std::vector<RowId>{0, 2}));
  EXPECT_TRUE(rel.Bucket(1, Value::Constant(9)).empty());
}

TEST(VersionedRelationTest, ConstantAndNullOfOneIdNeverShareABucket) {
  // Per-column keys pack the id and the kind exactly, so the constant and
  // the labeled null with one id land in different buckets, also composite
  // ones.
  VersionedRelation rel(2);
  rel.EnsureCompositeIndex({0, 1});
  const std::vector<uint64_t> ids = {0, 1, 2, 1000};
  for (uint64_t k : ids) {
    rel.AppendInsertRow(0, 1, {Value::Constant(k), Value::Constant(k)});
    rel.AppendInsertRow(0, 1, {Value::Null(k), Value::Null(k)});
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    const Value constant = Value::Constant(ids[i]);
    const Value null = Value::Null(ids[i]);
    const RowId constant_row = static_cast<RowId>(2 * i);
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(Rows(rel.Bucket(c, constant)),
                (std::vector<RowId>{constant_row}))
          << "column " << c << " id " << ids[i];
      EXPECT_EQ(Rows(rel.Bucket(c, null)),
                (std::vector<RowId>{constant_row + 1}))
          << "column " << c << " id " << ids[i];
    }
    EXPECT_EQ(Rows(*rel.CompositeBucket({0, 1}, {constant, constant})),
              (std::vector<RowId>{constant_row}));
    EXPECT_EQ(Rows(*rel.CompositeBucket({0, 1}, {null, null})),
              (std::vector<RowId>{constant_row + 1}));
  }
  EXPECT_EQ(rel.distinct_values(0), 8u);
  EXPECT_EQ(rel.distinct_values(1), 8u);
}

TEST(VersionedRelationDeathTest, IdAtOrAbove2To63IsRefused) {
  // An id of 2^63 or more would alias another value's per-column key.
  const uint64_t too_big = uint64_t{1} << 63;
  EXPECT_DEATH(
      {
        VersionedRelation rel(1);
        rel.AppendInsertRow(0, 1, {Value::Null(too_big)});
      },
      "CHECK failed");
  EXPECT_DEATH(
      {
        VersionedRelation rel(1);
        rel.Bucket(0, Value::Constant(UINT64_MAX));
      },
      "CHECK failed");
  VersionedRelation rel(1);
  rel.AppendInsertRow(0, 1, {Value::Null(too_big - 1)});
  EXPECT_EQ(Rows(rel.Bucket(0, Value::Null(too_big - 1))),
            (std::vector<RowId>{0}));
}

TEST(VersionedRelationTest, IndexKeepsModifiedContentReachable) {
  VersionedRelation rel(1);
  const RowId row = rel.AppendInsertRow(0, 1, Row({10}));
  rel.AppendVersion(row, 2, 2, WriteKind::kModify, Row({20}));
  EXPECT_EQ(Rows(rel.Bucket(0, Value::Constant(20))),
            (std::vector<RowId>{row}));
  // The old content stays listed: the insert version still holds it, and
  // readers below update 2 see it (callers re-verify).
  EXPECT_EQ(Rows(rel.Bucket(0, Value::Constant(10))),
            (std::vector<RowId>{row}));
  EXPECT_EQ(*rel.VisibleData(row, 1), Row({10}));
  EXPECT_EQ(*rel.VisibleData(row, 100), Row({20}));
}

TEST(VersionedRelationTest, ForEachVisibleRespectsReader) {
  VersionedRelation rel(1);
  rel.AppendInsertRow(1, 1, Row({1}));
  rel.AppendInsertRow(5, 2, Row({5}));
  rel.AppendInsertRow(9, 3, Row({9}));
  size_t count = 0;
  rel.ForEachVisible(5, [&](RowId, const TupleData&) { ++count; });
  EXPECT_EQ(count, 2u);
}

TEST(VersionedRelationTest, ForEachVisibleStopsWhenCallbackReturnsFalse) {
  VersionedRelation rel(1);
  for (uint64_t i = 0; i < 100; ++i) rel.AppendInsertRow(0, i + 1, Row({i}));
  size_t visited = 0;
  rel.ForEachVisible(100, [&](RowId, const TupleData&) -> bool {
    ++visited;
    return visited < 3;
  });
  EXPECT_EQ(visited, 3u);
}

TEST(VersionedRelationTest, RewritingSameValueDedupedPerProbe) {
  // Re-writing the same value into one column, with another row listed
  // under that value in between, lists each row once: the bucket stays
  // exact at every write, so a probe reads it in place with no dedup.
  VersionedRelation rel(2);
  const RowId r0 = rel.AppendInsertRow(0, 1, Row({7, 100}));
  const RowId r1 = rel.AppendInsertRow(0, 2, Row({7, 200}));
  const size_t entries_before = rel.IndexEntryCount();
  uint64_t seq = 3;
  for (uint64_t u = 1; u <= 4; ++u) {
    rel.AppendVersion(r0, u, seq++, WriteKind::kModify, Row({7, 100 + u}));
    EXPECT_EQ(Rows(rel.Bucket(0, Value::Constant(7))),
              (std::vector<RowId>{r0, r1}));
    rel.AppendVersion(r1, u, seq++, WriteKind::kModify, Row({7, 200 + u}));
    EXPECT_EQ(Rows(rel.Bucket(0, Value::Constant(7))),
              (std::vector<RowId>{r0, r1}));
  }
  // Only the eight new column-1 values added entries.
  EXPECT_EQ(rel.IndexEntryCount(), entries_before + 8);
  EXPECT_EQ(rel.distinct_values(0), 1u);
}

TEST(VersionedRelationTest, IndexEntryCountGrowsMonotonicallyOnRewrites) {
  // Writes only ever add entries: a modify lists the row under each value
  // of its new content that the row was not yet listed under (here the
  // fresh column-1 value; the repeated 7 adds nothing), and only undo
  // removes entries. So IndexEntryCount grows with each such rewrite.
  VersionedRelation rel(2);
  const RowId r0 = rel.AppendInsertRow(0, 1, Row({7, 0}));
  const RowId r1 = rel.AppendInsertRow(0, 2, Row({7, 1}));
  size_t last = rel.IndexEntryCount();
  uint64_t seq = 3;
  for (uint64_t u = 1; u <= 8; ++u) {
    rel.AppendVersion(u % 2 == 0 ? r0 : r1, u, seq++, WriteKind::kModify,
                      Row({7, 2 + u}));
    const size_t now = rel.IndexEntryCount();
    EXPECT_GT(now, last) << "after rewrite by update " << u;
    last = now;
  }
}

TEST(VersionedRelationTest, CompositeIndexProbesColumnCombination) {
  VersionedRelation rel(3);
  const RowId r0 = rel.AppendInsertRow(0, 1, Row({1, 2, 3}));
  rel.AppendInsertRow(0, 2, Row({1, 9, 4}));
  rel.AppendInsertRow(0, 3, Row({9, 2, 5}));
  EXPECT_FALSE(rel.HasCompositeIndex({0, 1}));
  rel.EnsureCompositeIndex({0, 1});
  EXPECT_TRUE(rel.HasCompositeIndex({0, 1}));
  const auto bucket =
      rel.CompositeBucket({0, 1}, {Value::Constant(1), Value::Constant(2)});
  ASSERT_TRUE(bucket.has_value());
  // Only r0 has (1, 2) in columns (0, 1).
  EXPECT_EQ(Rows(*bucket), (std::vector<RowId>{r0}));
  // A built index answers a missing key with an empty bucket...
  const auto miss =
      rel.CompositeBucket({0, 1}, {Value::Constant(2), Value::Constant(2)});
  ASSERT_TRUE(miss.has_value());
  EXPECT_TRUE(miss->empty());
  // ...and an unbuilt column set with nullopt, so the executor falls back.
  EXPECT_FALSE(
      rel.CompositeBucket({1, 2}, {Value::Constant(2), Value::Constant(3)})
          .has_value());
}

TEST(VersionedRelationTest, CompositeIndexCoversPreexistingAndLaterWrites) {
  VersionedRelation rel(2);
  const RowId r0 = rel.AppendInsertRow(0, 1, Row({1, 2}));
  rel.EnsureCompositeIndex({0, 1});
  const RowId r1 = rel.AppendInsertRow(0, 2, Row({1, 2}));
  // A modify lists the new content under the composite key too.
  rel.AppendVersion(r0, 3, 3, WriteKind::kModify, Row({5, 6}));
  // r0's insert version still holds (1, 2) (readers below 3 see it).
  EXPECT_EQ(Rows(*rel.CompositeBucket(
                {0, 1}, {Value::Constant(1), Value::Constant(2)})),
            (std::vector<RowId>{r0, r1}));
  EXPECT_EQ(Rows(*rel.CompositeBucket(
                {0, 1}, {Value::Constant(5), Value::Constant(6)})),
            (std::vector<RowId>{r0}));
  // Undoing the modify unlists r0 from (5, 6) and drops the emptied bucket.
  rel.RemoveVersionsOfRow(r0, 3);
  EXPECT_TRUE(rel.CompositeBucket({0, 1}, {Value::Constant(5),
                                           Value::Constant(6)})
                  ->empty());
  EXPECT_EQ(Rows(*rel.CompositeBucket(
                {0, 1}, {Value::Constant(1), Value::Constant(2)})),
            (std::vector<RowId>{r0, r1}));
}

TEST(VersionedRelationTest, CompactIndexesDropsEntriesOfRemovedVersions) {
  // Undo unlists exactly the entries the removed versions added, row by
  // row, with no compaction pass.
  VersionedRelation rel(2);
  rel.AppendInsertRow(0, 1, Row({1, 10}));
  rel.EnsureCompositeIndex({0, 1});
  const size_t entries_live = rel.IndexEntryCount();
  // Update 9 writes 50 rows, then aborts. Each row adds one entry per
  // column and one composite entry.
  std::vector<RowId> aborted;
  for (uint64_t i = 0; i < 50; ++i) {
    aborted.push_back(rel.AppendInsertRow(9, 2 + i, Row({2, 100 + i})));
    EXPECT_EQ(rel.IndexEntryCount(), entries_live + 3 * (i + 1));
  }
  for (size_t i = 0; i < aborted.size(); ++i) {
    rel.RemoveVersionsOfRow(aborted[i], 9);
    EXPECT_EQ(rel.IndexEntryCount(), entries_live + 3 * (49 - i));
    EXPECT_EQ(rel.Bucket(0, Value::Constant(2)).size(), 49 - i);
  }
  EXPECT_EQ(rel.IndexEntryCount(), entries_live);
  // The aborted rows are gone from the probes.
  EXPECT_TRUE(rel.Bucket(0, Value::Constant(2)).empty());
  EXPECT_EQ(rel.distinct_values(0), 1u);
  EXPECT_EQ(rel.distinct_values(1), 1u);
  // The surviving row is still fully indexed.
  EXPECT_EQ(rel.Bucket(0, Value::Constant(1)).size(), 1u);
  EXPECT_EQ(rel.CompositeBucket({0, 1}, {Value::Constant(1),
                                         Value::Constant(10)})
                ->size(),
            1u);
}

TEST(VersionedRelationTest, SmallRemovalUnlistsAtOnce) {
  VersionedRelation rel(1);
  for (uint64_t i = 0; i < 100; ++i) {
    rel.AppendInsertRow(0, 1 + i, Row({i}));
  }
  const size_t entries_live = rel.IndexEntryCount();
  const RowId row = rel.AppendInsertRow(5, 200, Row({777}));
  EXPECT_EQ(Rows(rel.Bucket(0, Value::Constant(777))),
            (std::vector<RowId>{row}));
  EXPECT_EQ(rel.distinct_values(0), 101u);
  // A single undone version leaves nothing behind: no stale entry, no
  // empty bucket.
  rel.RemoveVersionsOfRow(row, 5);
  EXPECT_TRUE(rel.Bucket(0, Value::Constant(777)).empty());
  EXPECT_EQ(rel.distinct_values(0), 100u);
  EXPECT_EQ(rel.IndexEntryCount(), entries_live);
}

TEST(VersionedRelationTest, NewestVersionFastPathMatchesChainWalk) {
  // The cached newest-version fast path must agree with the full resolution
  // after out-of-order appends and removals.
  VersionedRelation rel(1);
  const RowId row = rel.AppendInsertRow(1, 1, Row({10}));
  rel.AppendVersion(row, 7, 2, WriteKind::kModify, Row({70}));
  rel.AppendVersion(row, 4, 3, WriteKind::kModify, Row({40}));
  EXPECT_EQ(*rel.VisibleData(row, 100), Row({70}));  // fast path: newest
  rel.RemoveVersionsOfRow(row, 7);                   // newest recomputed
  EXPECT_EQ(*rel.VisibleData(row, 100), Row({40}));
  EXPECT_EQ(*rel.VisibleData(row, 5), Row({40}));
  EXPECT_EQ(*rel.VisibleData(row, 1), Row({10}));
  rel.RemoveVersionsOfRow(row, 4);
  EXPECT_EQ(*rel.VisibleData(row, 100), Row({10}));
}

// --- Planner statistics under churn ------------------------------------------
// The incremental planner statistics must agree with a from-
// scratch recount through every mutation the system performs: inserts,
// tombstones, modifies, aborted-update cleanup (RemoveVersionsOfRow) and
// experiment rewind (RemoveVersionsAbove).

// Ground truth for visible_rows(): rows whose newest version is live.
size_t CountVisibleRows(const VersionedRelation& rel) {
  size_t n = 0;
  rel.ForEachVisible(UINT64_MAX, [&](RowId, const TupleData&) { ++n; });
  return n;
}

TEST(VersionedRelationStatsTest, VisibleRowsExactAcrossChurn) {
  VersionedRelation rel(2);
  EXPECT_EQ(rel.visible_rows(), 0u);
  std::vector<RowId> rows;
  for (uint64_t i = 0; i < 40; ++i) {
    rows.push_back(rel.AppendInsertRow(1, 1 + i, Row({i % 4, i})));
  }
  EXPECT_EQ(rel.visible_rows(), CountVisibleRows(rel));

  // Tombstones by a later update.
  for (uint64_t i = 0; i < 10; ++i) {
    rel.AppendVersion(rows[i], 5, 100 + i, WriteKind::kDelete,
                      Row({i % 4, i}));
  }
  EXPECT_EQ(rel.visible_rows(), 30u);
  EXPECT_EQ(rel.visible_rows(), CountVisibleRows(rel));

  // Modifies do not change liveness.
  rel.AppendVersion(rows[20], 6, 200, WriteKind::kModify, Row({9, 9}));
  EXPECT_EQ(rel.visible_rows(), CountVisibleRows(rel));

  // Aborted-update cleanup: removing update 5's tombstones resurrects the
  // ten rows; removing update 6's modify changes nothing visible.
  for (uint64_t i = 0; i < 10; ++i) rel.RemoveVersionsOfRow(rows[i], 5);
  EXPECT_EQ(rel.visible_rows(), 40u);
  EXPECT_EQ(rel.visible_rows(), CountVisibleRows(rel));
  rel.RemoveVersionsOfRow(rows[20], 6);
  EXPECT_EQ(rel.visible_rows(), CountVisibleRows(rel));

  // Experiment rewind: every version above update 0 disappears; the rows
  // remain as invisible orphans and the counter must follow.
  rel.RemoveVersionsAbove(0);
  EXPECT_EQ(rel.visible_rows(), 0u);
  EXPECT_EQ(rel.visible_rows(), CountVisibleRows(rel));
}

TEST(VersionedRelationStatsTest, DistinctAndMaxBucketExactAfterCompaction) {
  VersionedRelation rel(2);
  // Update 1: a skewed column 0 (four values, ten rows each) and an
  // all-distinct column 1.
  for (uint64_t i = 0; i < 40; ++i) {
    rel.AppendInsertRow(1, 1 + i, Row({i % 4, i}));
  }
  EXPECT_EQ(rel.visible_rows(), 40u);
  EXPECT_EQ(rel.distinct_values(0), 4u);
  EXPECT_EQ(rel.max_bucket(0), 10u);
  EXPECT_EQ(rel.distinct_values(1), 40u);
  EXPECT_EQ(rel.max_bucket(1), 1u);

  // Update 9 piles 60 more rows onto one value of column 0, then aborts.
  // The stats follow every undo down, and end exact (no leftovers from the
  // abort).
  std::vector<RowId> aborted;
  for (uint64_t i = 0; i < 60; ++i) {
    aborted.push_back(rel.AppendInsertRow(9, 100 + i, Row({7, 1000 + i})));
  }
  EXPECT_EQ(rel.max_bucket(0), 60u);
  EXPECT_EQ(rel.distinct_values(0), 5u);
  for (size_t i = 0; i < aborted.size(); ++i) {
    rel.RemoveVersionsOfRow(aborted[i], 9);
    EXPECT_EQ(rel.max_bucket(0), std::max<size_t>(59 - i, 10));
    EXPECT_EQ(rel.distinct_values(0), i + 1 < 60 ? 5u : 4u);
    EXPECT_EQ(rel.distinct_values(1), 40 + 59 - i);
  }
  EXPECT_EQ(rel.visible_rows(), 40u);
  EXPECT_EQ(rel.distinct_values(0), 4u);
  EXPECT_EQ(rel.max_bucket(0), 10u);
  EXPECT_EQ(rel.distinct_values(1), 40u);
  EXPECT_EQ(rel.max_bucket(1), 1u);
}

TEST(VersionedRelationStatsTest, SketchRebuiltExactlyByCompaction) {
  VersionedRelation rel(1);
  // Update 1: value v gets 10+v rows, v in 0..5 — six tracked entries
  // (capacity is kRelationSketchCapacity = 8), exact by construction.
  uint64_t seq = 1;
  for (uint64_t v = 0; v < 6; ++v) {
    for (uint64_t i = 0; i <= 10 + v; ++i) {
      rel.AppendInsertRow(1, seq++, Row({v}));
    }
  }
  const TopKSketch<Value>& sk = rel.sketch(0);
  for (uint64_t v = 0; v < 6; ++v) {
    EXPECT_EQ(sk.Estimate(Value::Constant(v)), 11 + v);
  }

  // Update 7 piles rows onto value 9, then the run is rewound. The rewind
  // lowers value 9's count with its bucket to zero and drops the entry:
  // the sketch follows the bucket both ways, with no compaction pass.
  for (uint64_t i = 0; i < 50; ++i) {
    rel.AppendInsertRow(7, 1000 + i, Row({9}));
  }
  EXPECT_EQ(sk.Estimate(Value::Constant(9)), 50u);
  EXPECT_EQ(rel.max_bucket(0), 50u);
  rel.RemoveVersionsAbove(1);
  EXPECT_FALSE(sk.Tracks(Value::Constant(9)));
  EXPECT_EQ(sk.Estimate(Value::Constant(9)), 0u) << "below capacity";
  for (uint64_t v = 0; v < 6; ++v) {
    const Value val = Value::Constant(v);
    EXPECT_EQ(sk.Estimate(val), rel.Bucket(0, val).size());
    EXPECT_EQ(sk.Estimate(val), 11 + v);
  }
  EXPECT_EQ(rel.max_bucket(0), 16u);
}

TEST(VersionedRelationStatsTest, StatsSurviveRewindPlusExplicitCompaction) {
  VersionedRelation rel(1);
  for (uint64_t i = 0; i < 20; ++i) {
    rel.AppendInsertRow(0, 1 + i, Row({i % 2}));
  }
  for (uint64_t i = 0; i < 5; ++i) {
    rel.AppendInsertRow(3, 100 + i, Row({5}));
  }
  EXPECT_EQ(rel.distinct_values(0), 3u);
  EXPECT_EQ(rel.max_bucket(0), 10u);
  rel.RemoveVersionsAbove(2);  // rewind: update 3's rows vanish
  EXPECT_EQ(rel.visible_rows(), 20u);
  // The rewind leaves the index stats exact at once.
  EXPECT_EQ(rel.distinct_values(0), 2u);
  EXPECT_EQ(rel.max_bucket(0), 10u);
}

TEST(VersionedRelationStatsTest, CompositeBuildsAtBreakEvenNotAtSize) {
  // All-distinct columns never justify a composite index no matter how many
  // rows arrive (the old fixed 256-row threshold would have built one)...
  VersionedRelation uniform(2);
  uniform.RequestCompositeIndex({0, 1});
  for (uint64_t i = 0; i < 600; ++i) {
    uniform.AppendInsertRow(0, 1 + i, Row({i, i}));
  }
  EXPECT_TRUE(uniform.HasCompositeIndex({0, 1}));  // registered, deferred
  EXPECT_FALSE(
      uniform.CompositeBucket({0, 1}, {Value::Constant(3), Value::Constant(3)})
          .has_value())
      << "all-distinct columns must not materialize a composite index";

  // ...while a skewed pair crosses the break-even long before 256 rows: the
  // cheapest single-column fallback stops being selective.
  VersionedRelation skewed(2);
  skewed.RequestCompositeIndex({0, 1});
  for (uint64_t i = 0; i < 40; ++i) {
    skewed.AppendInsertRow(0, 1 + i, Row({i % 2, i % 2}));
  }
  const auto bucket =
      skewed.CompositeBucket({0, 1}, {Value::Constant(1), Value::Constant(1)});
  ASSERT_TRUE(bucket.has_value())
      << "skewed buckets must materialize the requested composite index";
  EXPECT_EQ(bucket->size(), 20u);
}

// --- The exact-index invariant under random churn ---------------------------
// Row r is listed in the bucket for (column c, value v) exactly when one of
// r's stored insert or modify versions holds v in c; buckets are ascending
// and duplicate-free, no empty bucket is stored, and a built composite index
// keeps the same invariant over its key. Checked after every operation
// against a brute-force recount from a shadow copy of the stored versions.

struct ShadowVersion {
  uint64_t update;
  WriteKind kind;
  TupleData data;
};
using Shadow = std::vector<std::vector<ShadowVersion>>;  // versions per row

// The buckets the invariant demands for the key `columns` picks out.
std::map<TupleData, std::vector<RowId>> ExpectedBuckets(
    const Shadow& shadow, const std::vector<size_t>& columns) {
  std::map<TupleData, std::vector<RowId>> buckets;
  for (RowId row = 0; row < shadow.size(); ++row) {
    for (const ShadowVersion& v : shadow[row]) {
      if (v.kind == WriteKind::kDelete) continue;
      TupleData key;
      for (size_t c : columns) key.push_back(v.data[c]);
      std::vector<RowId>& bucket = buckets[key];
      if (bucket.empty() || bucket.back() != row) bucket.push_back(row);
    }
  }
  return buckets;
}

void ExpectExactIndexes(const VersionedRelation& rel, const Shadow& shadow,
                        const std::vector<std::vector<size_t>>& composites) {
  size_t entries = 0;
  for (size_t c = 0; c < rel.arity(); ++c) {
    const auto buckets = ExpectedBuckets(shadow, {c});
    // Every expected bucket is stored, so an equal count means no extra
    // and no empty bucket.
    EXPECT_EQ(rel.distinct_values(c), buckets.size()) << "column " << c;
    for (const auto& [key, rows] : buckets) {
      EXPECT_EQ(Rows(rel.Bucket(c, key[0])), rows) << "column " << c;
      entries += rows.size();
    }
    uint64_t max_tracked = 0;
    rel.sketch(c).ForEach([&](const Value& v, uint64_t count) {
      const auto it = buckets.find(TupleData{v});
      ASSERT_NE(it, buckets.end()) << "sketch tracks a value with no bucket";
      EXPECT_EQ(count, it->second.size()) << "column " << c;
      max_tracked = std::max(max_tracked, count);
    });
    EXPECT_EQ(rel.max_bucket(c), max_tracked) << "column " << c;
  }
  for (const std::vector<size_t>& columns : composites) {
    const std::vector<Value> probe(columns.size(), Value::Constant(0));
    if (!rel.CompositeBucket(columns, probe).has_value()) continue;  // deferred
    for (const auto& [key, rows] : ExpectedBuckets(shadow, columns)) {
      EXPECT_EQ(Rows(*rel.CompositeBucket(columns, key)), rows);
      entries += rows.size();
    }
  }
  // No entry beyond the expected ones, in any index.
  EXPECT_EQ(rel.IndexEntryCount(), entries);
}

// The shadow model's visible content of a row's `versions` for `reader`:
// the version with the largest update number at or below the reader, ties
// broken by append order (the later one wins), with a tombstone hiding the
// row.
const TupleData* ShadowVisible(const std::vector<ShadowVersion>& versions,
                               uint64_t reader) {
  const ShadowVersion* best = nullptr;
  for (const ShadowVersion& v : versions) {
    if (v.update <= reader && (best == nullptr || v.update >= best->update)) {
      best = &v;
    }
  }
  if (best == nullptr || best->kind == WriteKind::kDelete) return nullptr;
  return &best->data;
}

// Every row's visible content at readers 0-7 and the latest reader, and the
// version count, agree with the shadow copy. Rows spill past their inline
// version and shrink back, and the row array moves them as it grows.
void ExpectShadowVisibility(const VersionedRelation& rel,
                            const Shadow& shadow) {
  size_t versions = 0;
  for (RowId row = 0; row < shadow.size(); ++row) {
    versions += shadow[row].size();
    for (uint64_t reader : {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{3},
                            uint64_t{4}, uint64_t{5}, uint64_t{6}, uint64_t{7},
                            UINT64_MAX}) {
      const TupleData* want = ShadowVisible(shadow[row], reader);
      const TupleData* got = rel.VisibleData(row, reader);
      ASSERT_EQ(got == nullptr, want == nullptr)
          << "row " << row << " reader " << reader;
      if (want != nullptr) {
        EXPECT_EQ(*got, *want) << "row " << row << " reader " << reader;
      }
    }
  }
  EXPECT_EQ(rel.num_versions(), versions);
}

TEST(VersionedRelationTest, RandomChurnKeepsIndexesExact) {
  constexpr size_t kArity = 3;
  size_t seeds_with_deferred_build = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    VersionedRelation rel(kArity);
    Shadow shadow;
    const std::vector<std::vector<size_t>> composites = {{0, 2}, {0, 1}};
    uint64_t seq = 1;
    // Four values per column, so buckets collide and grow past the deferred
    // composite build's break-even.
    auto random_data = [&] {
      TupleData data;
      for (size_t c = 0; c < kArity; ++c) {
        data.push_back(Value::Constant(rng.Uniform(4)));
      }
      return data;
    };
    // Content of one of the row's stored content versions, if it has any.
    auto stored_content = [&](RowId row) -> const TupleData* {
      std::vector<const TupleData*> contents;
      for (const ShadowVersion& v : shadow[row]) {
        if (v.kind != WriteKind::kDelete) contents.push_back(&v.data);
      }
      if (contents.empty()) return nullptr;
      return contents[rng.Uniform(contents.size())];
    };
    for (int op = 0; op < 300; ++op) {
      if (op == 40) rel.RequestCompositeIndex(composites[0]);  // deferred
      if (op == 150) rel.EnsureCompositeIndex(composites[1]);
      const uint64_t update = rng.Uniform(7);
      const uint64_t pick = rng.Uniform(100);
      if (pick < 35 || shadow.empty()) {
        TupleData data = random_data();
        EXPECT_EQ(rel.AppendInsertRow(update, seq++, data), shadow.size());
        shadow.push_back({{update, WriteKind::kInsert, std::move(data)}});
      } else if (pick < 60) {
        // A modify, often of an older row: fresh content, content repeated
        // from another of the row's versions, or one value in two columns.
        const RowId row = static_cast<RowId>(rng.Uniform(shadow.size()));
        TupleData data = random_data();
        const uint64_t shape = rng.Uniform(3);
        const TupleData* repeated = shape == 1 ? stored_content(row) : nullptr;
        if (repeated != nullptr) {
          data = *repeated;
        } else if (shape == 2) {
          data[1] = data[0];
        }
        rel.AppendVersion(row, update, seq++, WriteKind::kModify, data);
        shadow[row].push_back({update, WriteKind::kModify, std::move(data)});
      } else if (pick < 70) {
        const RowId row = static_cast<RowId>(rng.Uniform(shadow.size()));
        const TupleData* content = stored_content(row);
        TupleData data = content != nullptr ? *content : random_data();
        rel.AppendVersion(row, update, seq++, WriteKind::kDelete, data);
        shadow[row].push_back({update, WriteKind::kDelete, std::move(data)});
      } else if (pick < 96) {
        // Undo one update's versions of a row, usually an update that wrote
        // there.
        const RowId row = static_cast<RowId>(rng.Uniform(shadow.size()));
        std::vector<ShadowVersion>& versions = shadow[row];
        const uint64_t undone =
            versions.empty() ? update
                             : versions[rng.Uniform(versions.size())].update;
        const auto kept = std::remove_if(
            versions.begin(), versions.end(),
            [&](const ShadowVersion& v) { return v.update == undone; });
        const size_t removed = static_cast<size_t>(versions.end() - kept);
        versions.erase(kept, versions.end());
        EXPECT_EQ(rel.RemoveVersionsOfRow(row, undone), removed);
      } else {
        size_t removed = 0;
        for (std::vector<ShadowVersion>& versions : shadow) {
          const auto kept = std::remove_if(
              versions.begin(), versions.end(),
              [&](const ShadowVersion& v) { return v.update > update; });
          removed += static_cast<size_t>(versions.end() - kept);
          versions.erase(kept, versions.end());
        }
        EXPECT_EQ(rel.RemoveVersionsAbove(update), removed);
      }
      ExpectExactIndexes(rel, shadow, composites);
      ExpectShadowVisibility(rel, shadow);
      EXPECT_EQ(rel.visible_rows(), CountVisibleRows(rel));
      if (HasFailure()) return;
    }
    const std::vector<Value> probe(2, Value::Constant(0));
    if (rel.CompositeBucket(composites[0], probe).has_value()) {
      ++seeds_with_deferred_build;
    }
  }
  // The deferred composite index materialized mid-stream somewhere, so its
  // catch-up build and later maintenance were checked too.
  EXPECT_GT(seeds_with_deferred_build, 0u);
}

}  // namespace
}  // namespace youtopia
