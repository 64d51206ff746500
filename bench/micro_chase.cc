// Microbenchmarks for the chase engines: cooperative forward chase
// throughput, backward cascade cost, comparison against the classical
// standard chase on a weakly acyclic set, stratum length vs mapping
// density (the ablation for the frontier-stopping design of Section 2.2),
// and the heap allocations of one interactive insert.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/standard_chase.h"
#include "core/update.h"
#include "core/violation_detector.h"
#include "relational/database.h"
#include "tgd/parser.h"
#include "workload/generators.h"

// Every allocation through the global operator new, counted so that
// BM_InteractiveInsertAllocations can read how many one update makes. This
// replacement is compiled into micro_chase only.
namespace {
std::atomic<uint64_t> heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC cannot see that these frees pair with the malloc above.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace youtopia {
namespace {

void BM_ForwardChaseInsertPropagation(benchmark::State& state) {
  // End-to-end cost of one user insert propagated through a random schema
  // with the given number of mappings.
  const size_t mapping_count = static_cast<size_t>(state.range(0));
  Database db;
  Rng rng(11);
  SchemaGenOptions so;
  so.num_relations = 50;
  (void)GenerateSchema(&db, &rng, so);
  const auto constants = GenerateConstantPool(&db, &rng, 30);
  MappingGenOptions mo;
  mo.count = mapping_count;
  const auto tgds = GenerateMappings(db, constants, &rng, mo);
  RandomAgent seed_agent(5);
  InitialDataOptions io;
  io.num_tuples = 1000;
  GenerateInitialData(&db, &tgds, constants, &rng, &seed_agent, io);

  RandomAgent agent(17);
  uint64_t number = 1;
  for (auto _ : state) {
    const RelationId rel =
        static_cast<RelationId>(rng.Uniform(db.num_relations()));
    TupleData data;
    for (size_t p = 0; p < db.relation(rel).arity(); ++p) {
      data.push_back(constants[rng.Uniform(constants.size())]);
    }
    Update update(number++, WriteOp::Insert(rel, std::move(data)), &tgds);
    update.RunToCompletion(&db, &agent);
    benchmark::DoNotOptimize(update.steps_taken());
  }
}
BENCHMARK(BM_ForwardChaseInsertPropagation)->Arg(10)->Arg(30)->Arg(60);

void BM_AfterWriteBatch(benchmark::State& state) {
  // Cost of the batched violation-detection pass over one chase step's
  // writes (state.range(0) inserts, half of them duplicate content so the
  // fingerprint dedup engages), against the Figure-2-shaped sigma3 schema.
  const size_t batch_size = static_cast<size_t>(state.range(0));
  Database db;
  const RelationId a = *db.CreateRelation("A", {"location", "name"});
  const RelationId t = *db.CreateRelation("T", {"attraction", "company",
                                                "start"});
  (void)*db.CreateRelation("R", {"company", "attraction", "review"});
  TgdParser parser(&db.catalog(), &db.symbols());
  std::vector<Tgd> tgds;
  tgds.push_back(*parser.ParseTgd(
      "A(l, n) & T(n, co, s) -> exists rv: R(co, n, rv)"));
  Rng rng(7);
  auto constant = [&](const char* p, size_t i) {
    return db.InternConstant(std::string(p) + std::to_string(i));
  };
  for (size_t i = 0; i < 512; ++i) {
    db.Apply(WriteOp::Insert(a, {constant("loc", rng.Uniform(64)),
                                 constant("name", rng.Uniform(64))}),
             0);
  }
  std::vector<PhysicalWrite> batch;
  for (size_t i = 0; i < batch_size; ++i) {
    PhysicalWrite w;
    w.kind = WriteKind::kInsert;
    w.rel = t;
    w.row = static_cast<RowId>(i);
    // Every other write repeats the previous tuple's content.
    const size_t key = (i / 2) * 2;
    w.data = {constant("name", key % 64), constant("co", key % 64),
              constant("city", key % 64)};
    batch.push_back(std::move(w));
  }
  ViolationDetector detector(&tgds);
  Snapshot snap(&db, 1);
  std::vector<Violation> out;
  std::vector<ReadQueryRecord> reads;
  for (auto _ : state) {
    out.clear();
    reads.clear();
    detector.AfterWrites(snap, batch, &out, &reads);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch_size));
}
BENCHMARK(BM_AfterWriteBatch)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_BackwardChaseCascade(benchmark::State& state) {
  // Deleting the root of a chain P0 -> P1 -> ... -> Pk cascades k deletes.
  const size_t depth = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    std::vector<RelationId> rels;
    for (size_t i = 0; i <= depth; ++i) {
      rels.push_back(*db.CreateRelation("P" + std::to_string(i), {"x"}));
    }
    TgdParser parser(&db.catalog(), &db.symbols());
    std::vector<Tgd> tgds;
    for (size_t i = 0; i < depth; ++i) {
      tgds.push_back(*parser.ParseTgd("P" + std::to_string(i) + "(x) -> P" +
                                      std::to_string(i + 1) + "(x)"));
    }
    const Value v = db.InternConstant("v");
    RowId last_row = 0;
    for (size_t i = 0; i <= depth; ++i) {
      auto w = db.Apply(WriteOp::Insert(rels[i], {v}), 0);
      last_row = w[0].row;
    }
    ScriptedAgent agent;
    Update update(1, WriteOp::Delete(rels[depth], last_row), &tgds);
    state.ResumeTiming();
    update.RunToCompletion(&db, &agent);
    benchmark::DoNotOptimize(update.steps_taken());
  }
}
BENCHMARK(BM_BackwardChaseCascade)->Range(4, 64);

void BM_StandardVsCooperativeOnAcyclicSet(benchmark::State& state) {
  // Classical vs cooperative chase overhead on a weakly acyclic tgd set.
  // Positive frontiers still arise cooperatively — each W(null) generated
  // for a later P-tuple has the earlier W(null) as a more-specific
  // counterpart under null renaming — so the cooperative run uses the
  // deterministic MinContentAgent to resolve them.
  const bool cooperative = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    const RelationId p = *db.CreateRelation("P", {"x"});
    (void)*db.CreateRelation("Q", {"x", "y"});
    (void)*db.CreateRelation("W", {"y"});
    TgdParser parser(&db.catalog(), &db.symbols());
    std::vector<Tgd> tgds;
    tgds.push_back(*parser.ParseTgd("P(x) -> exists y: Q(x, y)"));
    tgds.push_back(*parser.ParseTgd("Q(x, y) -> W(y)"));
    for (int i = 0; i < 64; ++i) {
      db.Apply(WriteOp::Insert(
                   p, {db.InternConstant("p" + std::to_string(i))}),
               0);
    }
    state.ResumeTiming();
    if (cooperative) {
      MinContentAgent agent;
      ViolationDetector detector(&tgds);
      Snapshot snap(&db, 1);
      std::vector<Violation> viols;
      detector.FindAll(snap, &viols);
      Update update = Update::ForViolations(1, std::move(viols), &tgds);
      update.RunToCompletion(&db, &agent);
      benchmark::DoNotOptimize(update.steps_taken());
    } else {
      StandardChase chase(&db, &tgds);
      auto report = chase.Run(1);
      benchmark::DoNotOptimize(report.ok());
    }
  }
  state.SetLabel(cooperative ? "cooperative" : "standard");
}
BENCHMARK(BM_StandardVsCooperativeOnAcyclicSet)->Arg(0)->Arg(1);

void BM_InteractiveInsertAllocations(benchmark::State& state) {
  // Heap allocations per interactive insert, counted, so the count is
  // deterministic where the time is not. The repository is ytbench's
  // interactive-large one: 40 relations, 56 existential-free mappings in 8
  // islands, 5000 seed inserts chased forward. Each iteration runs one
  // random insert as that workload does (an Update with its own detector,
  // sharing one re-planning watermark, run to completion);
  // heap_allocs_per_update counts the allocations from the update's
  // construction to the end of its chase, and lookup_rows_per_update the
  // rows its content lookups re-verified (Update::lookup_rows_examined()).
  // The iteration count is fixed, so every run chases the same 2000
  // inserts.
  Database db;
  Rng rng(11);
  SchemaGenOptions so;
  so.num_relations = 40;
  (void)GenerateSchema(&db, &rng, so);
  const auto constants = GenerateConstantPool(&db, &rng, 50);
  MappingGenOptions mo;
  mo.count = 56;
  mo.num_islands = 8;
  mo.p_frontier = 1.0;
  mo.p_within_atom_repeat = 1.0;
  const auto tgds = GenerateMappings(db, constants, &rng, mo);
  RandomAgent seed_agent(5);
  InitialDataOptions io;
  io.num_tuples = 5000;
  GenerateInitialData(&db, &tgds, constants, &rng, &seed_agent, io);
  WorkloadOptions wo;
  wo.num_updates = static_cast<size_t>(state.max_iterations);
  std::vector<WriteOp> ops = GenerateWorkload(&db, constants, &rng, wo);

  RandomAgent agent(17);
  ReplanPoller poller;
  uint64_t number = 1;
  uint64_t allocs = 0;
  uint64_t lookup_rows = 0;
  for (auto _ : state) {
    const uint64_t before = heap_allocs.load(std::memory_order_relaxed);
    UpdateOptions options;
    options.replan_poller = &poller;
    Update update(number, std::move(ops[number - 1]), &tgds, options);
    update.RunToCompletion(&db, &agent);
    allocs += heap_allocs.load(std::memory_order_relaxed) - before;
    lookup_rows += update.lookup_rows_examined();
    ++number;
    benchmark::DoNotOptimize(update.steps_taken());
  }
  const double updates = static_cast<double>(number - 1);
  state.counters["heap_allocs_per_update"] =
      static_cast<double>(allocs) / updates;
  state.counters["lookup_rows_per_update"] =
      static_cast<double>(lookup_rows) / updates;
}
BENCHMARK(BM_InteractiveInsertAllocations)->Iterations(2000);

}  // namespace
}  // namespace youtopia

// main() lives in bench/micro_main.cc, which also emits BENCH_<name>.json.
