// Microbenchmarks for the MVCC storage engine: insert/read throughput,
// version-chain visibility resolution, index lookup vs full scan, content
// lookups on a skewed relation, abort undo cost, and the heap a relation's
// indexes hold.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <memory>

#include "query/specificity.h"
#include "relational/database.h"
#include "util/rng.h"

namespace youtopia {
namespace {

void BM_Insert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    const RelationId rel = *db.CreateRelation("R", {"a", "b", "c"});
    Rng rng(1);
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      db.Apply(WriteOp::Insert(rel, {Value::Constant(rng.Uniform(1u << 20)),
                                     Value::Constant(rng.Uniform(64)),
                                     Value::Constant(rng.Uniform(64))}),
               0);
    }
    benchmark::DoNotOptimize(db.CountVisible(0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Insert)->Range(1024, 65536);

void BM_IndexLookup(benchmark::State& state) {
  Database db;
  const RelationId rel = *db.CreateRelation("R", {"a", "b"});
  Rng rng(1);
  const size_t n = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < n; ++i) {
    db.Apply(WriteOp::Insert(rel, {Value::Constant(i % 256),
                                   Value::Constant(i)}),
             0);
  }
  size_t hits = 0;
  for (auto _ : state) {
    hits +=
        db.relation(rel).Bucket(0, Value::Constant(rng.Uniform(256))).size();
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_IndexLookup)->Range(1024, 65536);

// A relation whose column 0 holds one hot value in every row, beside a
// selective column 1 (distinct per row) and a 64-value column 2: the shape
// where a content lookup that probed column 0 would re-verify every row.
RelationId FillHotLeadingColumn(Database* db, size_t rows) {
  const RelationId rel = *db->CreateRelation("R", {"a", "b", "c"});
  for (size_t i = 0; i < rows; ++i) {
    db->Apply(WriteOp::Insert(rel, {Value::Constant(0), Value::Constant(1 + i),
                                    Value::Constant(1 + i % 64)}),
              0);
  }
  return rel;
}

void BM_FindRowWithDataHotLeadingColumn(benchmark::State& state) {
  // The set-semantics check every chase insert makes. Half the probes hit
  // a stored tuple and half miss (a column-1 value no row holds).
  Database db;
  const size_t n = static_cast<size_t>(state.range(0));
  const RelationId rel = FillHotLeadingColumn(&db, n);
  Rng rng(1);
  size_t hits = 0;
  for (auto _ : state) {
    const uint64_t i = rng.Uniform(2 * n);
    const TupleData probe{Value::Constant(0), Value::Constant(1 + i),
                          Value::Constant(1 + i % 64)};
    hits += db.FindRowWithData(rel, probe, kReadLatest).has_value() ? 1 : 0;
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_FindRowWithDataHotLeadingColumn)->Range(1024, 65536);

void BM_FindMoreSpecificRowsHotLeadingColumn(benchmark::State& state) {
  // The chase's correction query (Section 4.2) on the same relation: the
  // generated tuple has constants in the hot and the selective column and
  // a labeled null in column 2.
  Database db;
  const size_t n = static_cast<size_t>(state.range(0));
  const RelationId rel = FillHotLeadingColumn(&db, n);
  const Value null = db.FreshNull();
  const Snapshot snap(&db, kReadLatest);
  Rng rng(1);
  std::vector<RowId> out;
  for (auto _ : state) {
    out.clear();
    const TupleData probe{Value::Constant(0),
                          Value::Constant(1 + rng.Uniform(2 * n)), null};
    FindMoreSpecificRows(snap, rel, probe, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FindMoreSpecificRowsHotLeadingColumn)->Range(1024, 65536);

void BM_VisibilityWithDeepVersionChains(benchmark::State& state) {
  // One row modified by many successive updates (null replacement chains);
  // visibility must pick the right version for a mid-chain reader.
  Database db;
  const RelationId rel = *db.CreateRelation("R", {"a"});
  Value cur = db.FreshNull();
  auto w = db.Apply(WriteOp::Insert(rel, {cur}), 0);
  const RowId row = w[0].row;
  const uint64_t chain = static_cast<uint64_t>(state.range(0));
  for (uint64_t u = 1; u <= chain; ++u) {
    const Value next = db.FreshNull();
    db.Apply(WriteOp::NullReplace(cur, next), u);
    cur = next;
  }
  for (auto _ : state) {
    const TupleData* data = db.relation(rel).VisibleData(row, chain / 2 + 1);
    benchmark::DoNotOptimize(data);
  }
}
BENCHMARK(BM_VisibilityWithDeepVersionChains)->Range(8, 512);

void BM_CompositeIndexLookup(benchmark::State& state) {
  // Composite-key probe vs the single-column buckets it replaces: column 0
  // has 256 distinct values, column 1 has 64, the pair is far more
  // selective than either.
  Database db;
  const RelationId rel = *db.CreateRelation("R", {"a", "b"});
  Rng rng(1);
  const size_t n = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < n; ++i) {
    db.Apply(WriteOp::Insert(rel, {Value::Constant(i % 256),
                                   Value::Constant(i % 64)}),
             0);
  }
  db.mutable_relation(rel).EnsureCompositeIndex({0, 1});
  const std::vector<size_t> columns{0, 1};
  std::vector<Value> key(2);
  size_t hits = 0;
  for (auto _ : state) {
    key[0] = Value::Constant(rng.Uniform(256));
    key[1] = Value::Constant(rng.Uniform(64));
    hits += db.relation(rel).CompositeBucket(columns, key)->size();
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_CompositeIndexLookup)->Range(1024, 65536);

void BM_IndexEntryDriftUnderAborts(benchmark::State& state) {
  // Undo of an aborted update that wrote half the base volume, row by row
  // over its writes as the scheduler does. The exact indexes unlist every
  // entry the aborted versions added, so drift_entries_after_undo (index
  // entries after the undo minus before the aborted writes) must read 0.
  const size_t base_rows = static_cast<size_t>(state.range(0));
  double drift_after = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    const RelationId rel = *db.CreateRelation("R", {"a", "b"});
    for (size_t i = 0; i < base_rows; ++i) {
      db.Apply(WriteOp::Insert(rel, {Value::Constant(i % 97),
                                     Value::Constant(i)}),
               0);
    }
    const size_t entries_live = db.relation(rel).IndexEntryCount();
    std::vector<PhysicalWrite> aborted;
    for (size_t i = 0; i < base_rows / 2; ++i) {
      for (PhysicalWrite& w :
           db.Apply(WriteOp::Insert(rel, {Value::Constant(i % 97),
                                          Value::Constant(base_rows + i)}),
                    9)) {
        aborted.push_back(std::move(w));
      }
    }
    state.ResumeTiming();
    for (const PhysicalWrite& w : aborted) {
      db.RemoveRowVersions(w.rel, w.row, 9);
    }
    state.PauseTiming();
    drift_after += static_cast<double>(db.relation(rel).IndexEntryCount()) -
                   static_cast<double>(entries_live);
    state.ResumeTiming();
  }
  state.counters["drift_entries_after_undo"] =
      benchmark::Counter(drift_after, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_IndexEntryDriftUnderAborts)->Range(1024, 16384);

void BM_AbortUndoTargeted(benchmark::State& state) {
  // Cost of undoing one update's writes via targeted row removal.
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    const RelationId rel = *db.CreateRelation("R", {"a", "b"});
    for (int64_t i = 0; i < state.range(0); ++i) {
      db.Apply(WriteOp::Insert(rel, {Value::Constant(static_cast<uint64_t>(i)),
                                     Value::Constant(1)}),
               0);
    }
    std::vector<std::pair<RelationId, RowId>> written;
    for (int i = 0; i < 64; ++i) {
      auto w = db.Apply(
          WriteOp::Insert(rel, {Value::Constant(static_cast<uint64_t>(i)),
                                Value::Constant(2)}),
          9);
      if (!w.empty()) written.push_back({w[0].rel, w[0].row});
    }
    state.ResumeTiming();
    for (const auto& [r, row] : written) db.RemoveRowVersions(r, row, 9);
    benchmark::DoNotOptimize(db.CountVisible(kReadLatest));
  }
}
BENCHMARK(BM_AbortUndoTargeted)->Range(1024, 65536);

// Bytes glibc has handed out: heap chunks in use plus mmapped blocks (large
// arrays bypass the heap).
size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

void BM_IndexFootprint(benchmark::State& state) {
  // Heap held by a relation and its indexes: column 0 a fresh value per
  // row, column 1 one of 64 values, column 2 one of n values, and a
  // composite index over columns 1-2 (nearly every composite bucket lists
  // one row, as on interactive-large). heap_bytes_per_row is the memory in
  // use after the build minus before it, per row; single-threaded, it moves
  // by well under 1% between runs. The rows alone take 96 bytes each (a
  // 64-byte row holding its one version inline, and a 32-byte chunk for
  // its three 8-byte values), plus the row array's growth slack. The time
  // is the build's.
  const size_t n = static_cast<size_t>(state.range(0));
  double heap_bytes = 0;
  size_t entries = 0;
  for (auto _ : state) {
    const size_t before = HeapInUse();
    auto rel = std::make_unique<VersionedRelation>(3);
    rel->EnsureCompositeIndex({1, 2});
    Rng rng(1);
    for (size_t i = 0; i < n; ++i) {
      rel->AppendInsertRow(0, 1 + i,
                           {Value::Constant(i), Value::Constant(rng.Uniform(64)),
                            Value::Constant(rng.Uniform(n))});
    }
    heap_bytes = static_cast<double>(HeapInUse() - before);
    entries = rel->IndexEntryCount();
    state.PauseTiming();
    rel.reset();
    state.ResumeTiming();
  }
  state.counters["heap_bytes_per_row"] = heap_bytes / static_cast<double>(n);
  state.counters["index_entries"] = static_cast<double>(entries);
}
BENCHMARK(BM_IndexFootprint)->Arg(1024)->Arg(65536);

}  // namespace
}  // namespace youtopia

// main() lives in bench/micro_main.cc, which also emits BENCH_<name>.json.
