// Microbenchmarks for the concurrency-control machinery (Section 5):
// retroactive conflict checks per read-query form, and the dependency
// computation cost of COARSE vs PRECISE (Section 5.1.2's complexity claims:
// COARSE is linear in the logged writes; PRECISE pays for joins on the
// database).
#include <benchmark/benchmark.h>

#include <algorithm>

#include "ccontrol/conflict.h"
#include "ccontrol/dependency_tracker.h"
#include "ccontrol/read_log.h"
#include "ccontrol/write_log.h"
#include "relational/database.h"
#include "tgd/parser.h"
#include "util/rng.h"

namespace youtopia {
namespace {

struct Fixture {
  Database db;
  std::vector<Tgd> tgds;
  RelationId a, t, r;
  WriteLog wlog;
  PhysicalWrite first_logged;  // the write the single-check arms test

  explicit Fixture(size_t rows, size_t logged_writes) {
    a = *db.CreateRelation("A", {"location", "name"});
    t = *db.CreateRelation("T", {"attraction", "company", "start"});
    r = *db.CreateRelation("R", {"company", "attraction", "review"});
    TgdParser parser(&db.catalog(), &db.symbols());
    tgds.push_back(*parser.ParseTgd(
        "A(l, n) & T(n, co, s) -> exists rv: R(co, n, rv)"));
    Rng rng(3);
    auto constant = [&](const char* p, size_t i) {
      return db.InternConstant(std::string(p) + std::to_string(i));
    };
    for (size_t i = 0; i < rows; ++i) {
      db.Apply(WriteOp::Insert(a, {constant("loc", rng.Uniform(64)),
                                   constant("name", rng.Uniform(64))}),
               0);
      db.Apply(WriteOp::Insert(t, {constant("name", rng.Uniform(64)),
                                   constant("co", rng.Uniform(64)),
                                   constant("city", rng.Uniform(64))}),
               0);
    }
    // Populate the write log with writes from `logged_writes` updates.
    for (size_t i = 0; i < logged_writes; ++i) {
      auto w = db.Apply(
          WriteOp::Insert(t, {constant("name", rng.Uniform(64)),
                              constant("co", rng.Uniform(64)),
                              constant("city", rng.Uniform(64))}),
          /*update_number=*/1 + i);
      if (w.empty()) continue;
      if (first_logged.data.empty()) first_logged = w[0];
      wlog.Record(1 + i, w[0]);
    }
  }

  ReadQueryRecord ViolationRead() const {
    TupleData pinned{db.symbols().Text(Value::Constant(0)).empty()
                         ? Value::Constant(0)
                         : Value::Constant(0),
                     Value::Constant(1)};
    // Pin on the A atom (index 0) with an arbitrary existing A tuple.
    const TupleData* data = db.relation(a).VisibleData(0, kReadLatest);
    return ReadQueryRecord::Violation(0, /*pinned_on_lhs=*/true, 0,
                                      data ? *data : pinned);
  }
};

void BM_ConflictCheckViolationQuery(benchmark::State& state) {
  Fixture fix(static_cast<size_t>(state.range(0)), 16);
  ConflictChecker checker(&fix.tgds);
  Snapshot snap(&fix.db, kReadLatest);
  const ReadQueryRecord q = fix.ViolationRead();
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.Conflicts(snap, fix.first_logged, q));
  }
}
BENCHMARK(BM_ConflictCheckViolationQuery)->Range(256, 16384);

void BM_ConflictCheckCorrectionQueries(benchmark::State& state) {
  // Correction queries are decided without touching the database — the
  // check should be O(tuple width) regardless of database size.
  Fixture fix(static_cast<size_t>(state.range(0)), 16);
  ConflictChecker checker(&fix.tgds);
  Snapshot snap(&fix.db, kReadLatest);
  const Value n = Value::Null(12345);
  const ReadQueryRecord more_specific = ReadQueryRecord::MoreSpecific(
      fix.t, {fix.db.InternConstant("name1"), n, n});
  const ReadQueryRecord occurrence = ReadQueryRecord::NullOccurrence(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        checker.Conflicts(snap, fix.first_logged, more_specific));
    benchmark::DoNotOptimize(
        checker.Conflicts(snap, fix.first_logged, occurrence));
  }
}
BENCHMARK(BM_ConflictCheckCorrectionQueries)->Range(256, 16384);

void BM_ReadLogRecordFingerprint(benchmark::State& state) {
  // Cost of the chase's hottest read-log operation: re-recording a
  // violation query the update already logged (every revalidation re-poses
  // it; Record dedups by fingerprint). state.range(0)==1 measures the
  // plan-carried fingerprint path; 0 strips the fingerprint to force the
  // full per-field rehash the carried hash replaces.
  const bool carried = state.range(0) != 0;
  Fixture fix(256, 4);
  ReadLog log(&fix.tgds);
  ReadQueryRecord q = fix.ViolationRead();
  if (!carried) q.fingerprint = 0;
  log.Record(5, q);  // first pose: stored
  for (auto _ : state) {
    log.Record(5, q);  // steady state: fingerprint + dedup hit
  }
  benchmark::DoNotOptimize(log.total_queries());
  state.SetLabel(carried ? "plan-carried" : "rehash");
}
BENCHMARK(BM_ReadLogRecordFingerprint)->Arg(0)->Arg(1);

void BM_DependencyComputation(benchmark::State& state) {
  // COARSE vs PRECISE cost of computing read dependencies for one violation
  // query against a write log of the given size (state.range(0)). Every
  // logged write is on one of the query's relations.
  const bool precise = state.range(1) != 0;
  Fixture fix(2048, static_cast<size_t>(state.range(0)));
  DependencyTracker tracker(
      precise ? TrackerKind::kPrecise : TrackerKind::kCoarse, &fix.tgds);
  Snapshot snap(&fix.db, kReadLatest);
  const std::vector<ReadQueryRecord> reads{fix.ViolationRead()};
  const uint64_t reader = 1u << 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.OnReads(snap, reader, reads, fix.wlog));
    // As commit does: the edges do not pile up across iterations.
    tracker.EraseUpdate(reader);
  }
  state.SetLabel(precise ? "PRECISE" : "COARSE");
}
BENCHMARK(BM_DependencyComputation)
    ->ArgsProduct({{16, 64, 256, 1024}, {0, 1}});

// A write log shaped like Section 6's runs: a few hundred still-abortable
// updates writing across many relations, a fifth of the writes carrying a
// labeled null, read by an update numbered in the middle of them. Most
// logged writes are on none of a query's relations and carry none of its
// nulls, which is what the log's indexes skip. The same updates also read:
// each logs violation queries over the chained mappings R(i), R(i+1) ->
// R(i+2) that span all 100 relations, one more-specific query and one
// null-occurrence query, so a step's writes reach only a few of the read
// log's queries.
struct Section6Fixture {
  static constexpr size_t kRelations = 100;
  static constexpr uint64_t kWriters = 300;
  static constexpr size_t kWritesPerWriter = 4;
  static constexpr size_t kViolationReadsPerReader = 6;

  Database db;
  std::vector<Tgd> tgds;
  std::vector<RelationId> rels;
  std::vector<Value> nulls;
  WriteLog wlog;
  std::vector<ReadQueryRecord> reads;  // one of each kind
  const uint64_t reader = kWriters / 2;
  // Every writer's reads, indexed by number (slot 0 unused).
  std::vector<std::vector<ReadQueryRecord>> reads_of;

  Section6Fixture() {
    for (size_t i = 0; i < kRelations; ++i) {
      rels.push_back(
          *db.CreateRelation("R" + std::to_string(i), {"a", "b", "c"}));
    }
    TgdParser parser(&db.catalog(), &db.symbols());
    for (size_t i = 0; i < kRelations; ++i) {
      auto rel = [&](size_t k) {
        return "R" + std::to_string((i + k) % kRelations);
      };
      tgds.push_back(*parser.ParseTgd(rel(0) + "(x, y, z) & " + rel(1) +
                                      "(y, w, v) -> exists u: " + rel(2) +
                                      "(x, w, u)"));
    }
    for (int i = 0; i < 32; ++i) nulls.push_back(db.FreshNull());
    Rng rng(6);
    auto tuple = [&](double p_null) {
      TupleData t;
      for (int c = 0; c < 3; ++c) {
        t.push_back(rng.Chance(p_null)
                        ? nulls[rng.Uniform(nulls.size())]
                        : db.InternConstant("c" +
                                            std::to_string(rng.Uniform(64))));
      }
      return t;
    };
    for (int i = 0; i < 512; ++i) {
      db.Apply(WriteOp::Insert(rels[0], tuple(0)), 0);
      db.Apply(WriteOp::Insert(rels[1], tuple(0)), 0);
    }
    for (uint64_t writer = 1; writer <= kWriters; ++writer) {
      for (size_t k = 0; k < kWritesPerWriter; ++k) {
        const RelationId rel = rels[rng.Uniform(rels.size())];
        for (const PhysicalWrite& w :
             db.Apply(WriteOp::Insert(rel, tuple(0.07)), writer)) {
          wlog.Record(writer, w);
        }
      }
    }
    const TupleData* pinned = db.relation(rels[0]).VisibleData(0, reader);
    reads.push_back(ReadQueryRecord::Violation(0, /*pinned_on_lhs=*/true, 0,
                                               *pinned));
    reads.push_back(ReadQueryRecord::MoreSpecific(
        rels[1], {db.InternConstant("c1"), nulls[0], nulls[1]}));
    reads.push_back(ReadQueryRecord::NullOccurrence(nulls[2]));
    reads_of.resize(kWriters + 1);
    for (uint64_t u = 1; u <= kWriters; ++u) {
      for (size_t k = 0; k < kViolationReadsPerReader; ++k) {
        reads_of[u].push_back(ReadQueryRecord::Violation(
            static_cast<int>(rng.Uniform(tgds.size())),
            /*pinned_on_lhs=*/true, 0, tuple(0.07)));
      }
      reads_of[u].push_back(ReadQueryRecord::MoreSpecific(
          rels[rng.Uniform(rels.size())], tuple(0.3)));
      reads_of[u].push_back(
          ReadQueryRecord::NullOccurrence(nulls[rng.Uniform(nulls.size())]));
    }
  }
};

void BM_DependencyComputationSection6(benchmark::State& state) {
  const bool precise = state.range(0) != 0;
  Section6Fixture fix;
  DependencyTracker tracker(
      precise ? TrackerKind::kPrecise : TrackerKind::kCoarse, &fix.tgds);
  Snapshot snap(&fix.db, fix.reader);
  size_t tested = 0;
  for (auto _ : state) {
    tested = tracker.OnReads(snap, fix.reader, fix.reads, fix.wlog);
    benchmark::DoNotOptimize(tested);
    tracker.EraseUpdate(fix.reader);
  }
  state.counters["writes_tested"] = static_cast<double>(tested);
  state.SetLabel(precise ? "PRECISE" : "COARSE");
}
BENCHMARK(BM_DependencyComputationSection6)->Arg(0)->Arg(1);

void BM_ReadLogBatchWalkSection6(benchmark::State& state) {
  // The scheduler's per-step walk: one writer's step (its logged writes)
  // against every logged query of the 300 updates. state.range(0) is the
  // writer's number; only readers above it are candidates.
  Section6Fixture fix;
  ReadLog rlog(&fix.tgds);
  for (uint64_t u = 1; u <= Section6Fixture::kWriters; ++u) {
    for (const ReadQueryRecord& q : fix.reads_of[u]) rlog.Record(u, q);
  }
  const uint64_t writer = static_cast<uint64_t>(state.range(0));
  const Span<const PhysicalWrite> step = fix.wlog.WritesOf(writer);
  size_t scanned = 0;
  size_t pairs = 0;
  for (auto _ : state) {
    pairs = 0;
    scanned = rlog.ForEachCandidateBatch(
        step, writer,
        [&](uint64_t, const ReadQueryRecord&, const PhysicalWrite&) {
          ++pairs;
          return false;
        });
    benchmark::DoNotOptimize(pairs);
  }
  // Brute force: the logged queries of readers above the writer that sit
  // on a relation the step writes or carry a null its contents carry.
  std::vector<RelationId> step_rels;
  std::vector<Value> step_nulls;
  for (const PhysicalWrite& w : step) {
    step_rels.push_back(w.rel);
    for (const TupleData* data : {&w.data, &w.old_data}) {
      for (const Value& v : *data) {
        if (v.is_null()) step_nulls.push_back(v);
      }
    }
  }
  auto has = [](const auto& v, const auto& x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  };
  size_t reachable = 0;
  for (uint64_t u = writer + 1; u <= Section6Fixture::kWriters; ++u) {
    for (const ReadQueryRecord& q : *rlog.QueriesOf(u)) {
      bool hit = false;
      switch (q.kind) {
        case ReadQueryKind::kViolation:
          for (RelationId r :
               fix.tgds[static_cast<size_t>(q.tgd_id)].all_relations()) {
            hit |= has(step_rels, r);
          }
          break;
        case ReadQueryKind::kMoreSpecific:
          hit = has(step_rels, q.rel);
          break;
        case ReadQueryKind::kNullOccurrence:
          hit = has(step_nulls, q.null_value);
          break;
      }
      reachable += hit ? 1 : 0;
    }
  }
  state.counters["queries_logged"] = static_cast<double>(rlog.total_queries());
  state.counters["queries_scanned"] = static_cast<double>(scanned);
  state.counters["queries_scanned_excess"] =
      static_cast<double>(scanned) - static_cast<double>(reachable);
  state.counters["pairs_offered"] = static_cast<double>(pairs);
}
BENCHMARK(BM_ReadLogBatchWalkSection6)->Arg(1)->Arg(150)->Arg(290);

void BM_CoarseCascadeSection6(benchmark::State& state) {
  // A COARSE cascade's per-member cost: ReadersOf over the Section-6 write
  // log, after every update logged its writes and then posed its reads (so
  // each reader's marks postdate the writes of every lower-numbered
  // writer). state.range(0) is the aborted writer.
  Section6Fixture fix;
  DependencyTracker tracker(TrackerKind::kCoarse, &fix.tgds);
  for (uint64_t u = 1; u <= Section6Fixture::kWriters; ++u) {
    tracker.OnReads(Snapshot(&fix.db, u), u, fix.reads_of[u], fix.wlog);
  }
  const uint64_t writer = static_cast<uint64_t>(state.range(0));
  std::vector<uint64_t> readers;
  size_t marks = 0;
  for (auto _ : state) {
    marks = tracker.ReadersOf(writer, fix.wlog, &readers);
    benchmark::DoNotOptimize(readers.data());
  }
  state.counters["marks_scanned"] = static_cast<double>(marks);
  state.counters["readers"] = static_cast<double>(readers.size());
}
BENCHMARK(BM_CoarseCascadeSection6)->Arg(1)->Arg(150);

}  // namespace
}  // namespace youtopia

// main() lives in bench/micro_main.cc, which also emits BENCH_<name>.json.
