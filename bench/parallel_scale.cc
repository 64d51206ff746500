// Scaling curves for the parallel chase (ccontrol/parallel/), two workload
// graphs in one harness:
//
//  * graph="islands" — the sharding regime: --islands > 1 decomposes the
//    mapping graph into disjoint tgd-closure components, every update pins
//    to a shard worker, and the curve sweeps shard lanes at 1, 2, 4, ...
//    Two effects add up in the speedup column: pinned updates skip the read
//    log, conflict probes and dependency tracking entirely, and shards
//    chase concurrently (bounded by the host's CPUs — the JSON records
//    hardware_concurrency for exactly this reason).
//
//  * graph="dense" — the one-big-component wall sharding cannot crack: a
//    deterministic mapping chain (--chain/--fan) welds the whole schema
//    into ONE component, so the pipeline collapses to a single shard lane and
//    adding workers buys nothing. The arm measures the serial engine
//    against that one pinned worker: what zero-CC execution under the
//    component lock buys over the optimistic protocol on the same stream.
//
// Each parallel arm run builds a fresh IngestPipeline, submits the whole
// stream (workers start chasing as ops land) and ends at its Flush()
// barrier and shutdown; construction and shutdown are inside the timing.
//
// Throughput is committed updates per second (updates that failed their
// step cap are not counted), so no arm can look good by burning work on
// ops that never commit.
//
// Flags are fig_common's; the defaults here are scaled to a smoke run.
// A full curve: parallel_scale --relations=64 --islands=8 --initial=4000
//                              --updates=800 --workers=8 --runs=3
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/fig_common.h"
#include "ccontrol/parallel/ingest_pipeline.h"
#include "obs/metrics.h"

namespace youtopia {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One workload graph: a chase-seeded repository plus the arms measured
// over it. Each arm replays the same per-run op stream from the same
// initial database (RemoveVersionsAbove(0) rewinds between arms).
struct Fixture {
  Database db;
  std::vector<Value> constants;
  std::vector<Tgd> tgds;
  size_t first_point = 0;  // index of the fixture's arms in `points`
  size_t num_points = 0;
};

// `constants` lives inside the fixture; a free accessor keeps MeasureArms'
// call site readable.
const std::vector<Value>& constants_of(const Fixture& fx) {
  return fx.constants;
}

void MeasureArms(Fixture* fx, const ExperimentConfig& config,
                 std::vector<bench::ParallelScalePoint>* points,
                 bool verbose) {
  // One metrics registry per arm, shared by that arm's schedulers across
  // every measured run: the stage histograms in the JSON accumulate all
  // runs' samples (percentiles over the whole measurement, not the last
  // run). Serial arms record only counters, so their stage block is empty.
  std::vector<std::unique_ptr<obs::MetricsRegistry>> arm_metrics(
      fx->num_points);
  for (auto& reg : arm_metrics) reg = std::make_unique<obs::MetricsRegistry>();

  for (size_t run = 0; run < config.runs; ++run) {
    Rng wl_rng(config.seed + 1000003 + 7919 * (run + 1));
    WorkloadOptions wl_opts;
    wl_opts.num_updates = config.updates_per_run;
    wl_opts.delete_fraction = config.delete_fraction;
    const std::vector<WriteOp> ops =
        GenerateWorkload(&fx->db, constants_of(*fx), &wl_rng, wl_opts);

    for (size_t pi = fx->first_point; pi < fx->first_point + fx->num_points;
         ++pi) {
      bench::ParallelScalePoint& p = (*points)[pi];
      fx->db.RemoveVersionsAbove(0);  // rewind to the initial repository
      const double start = Now();
      if (p.engine == "serial") {
        RandomAgent agent(config.seed + 31 * run);
        SchedulerOptions sopts;
        sopts.max_steps_per_update = config.max_steps_per_update;
        sopts.max_attempts_per_update = config.max_attempts_per_update;
        sopts.metrics = arm_metrics[pi - fx->first_point].get();
        Scheduler scheduler(&fx->db, &fx->tgds, &agent, sopts);
        for (const WriteOp& op : ops) scheduler.Submit(op);
        scheduler.RunToCompletion();
        p.aborts += static_cast<double>(scheduler.stats().aborts);
        p.updates_per_second +=
            static_cast<double>(scheduler.stats().updates_completed);
      } else {
        IngestOptions popts;
        popts.num_workers = p.workers;
        popts.max_steps_per_update = config.max_steps_per_update;
        popts.agent_seed = config.seed + 31 * run;
        popts.metrics = arm_metrics[pi - fx->first_point].get();
        IngestPipeline pipeline(&fx->db, &fx->tgds, popts);
        for (const WriteOp& op : ops) {
          CHECK(pipeline.Submit(op) == SubmitResult::kOk);
        }
        const ParallelStats stats = pipeline.Flush();
        p.aborts += static_cast<double>(stats.totals.aborts);
        p.cross_shard += static_cast<double>(stats.cross_shard_updates);
        p.escaped += static_cast<double>(stats.escaped_updates);
        p.updates_per_second +=
            static_cast<double>(stats.totals.updates_completed);
      }
      p.seconds_per_run += Now() - start;
      if (verbose) {
        std::fprintf(stderr, "[parallel_scale] run=%zu %s/%s w=%zu done\n",
                     run, p.graph.c_str(), p.engine.c_str(), p.workers);
      }
    }
  }
  for (size_t pi = fx->first_point; pi < fx->first_point + fx->num_points;
       ++pi) {
    (*points)[pi].stages = bench::SummarizeStages(
        arm_metrics[pi - fx->first_point]->Snapshot());
  }
  fx->db.RemoveVersionsAbove(0);
}

int Run(int argc, char** argv) {
  // The scaling curve's default shape: fewer, denser islands beat the
  // 100-relation fig sweep, and a contended update stream is the
  // interesting regime — the serial optimistic engine burns thousands of
  // abort-redo executions there, which sharded admission never performs at
  // all. Flags override knobs individually (ParseFlagsOver), so e.g.
  // --verbose or --seed=7 keeps the rest of this shape intact.
  ExperimentConfig defaults;
  defaults.num_relations = 40;
  defaults.num_constants = 50;
  defaults.num_mappings_total = 56;
  defaults.mapping_counts = {56};
  defaults.initial_tuples = 300;
  defaults.updates_per_run = 1200;
  defaults.runs = 3;
  defaults.seed = 1;
  defaults.islands = 8;
  defaults.workers = 4;
  defaults.chain_length = 8;  // dense graph: 8-relation chain, linear
  defaults.fan_out = 1;
  bool verbose = false;
  ExperimentConfig config =
      bench::ParseFlagsOver(std::move(defaults), argc, argv, &verbose);
  config.num_mappings_total = config.mapping_counts.back();
  config.delete_fraction = 0.0;

  std::vector<bench::ParallelScalePoint> points;

  // --- graph="islands": the sharding fixture. ------------------------------
  Fixture islands;
  {
    Rng rng(config.seed);
    SchemaGenOptions schema_opts;
    schema_opts.num_relations = config.num_relations;
    CHECK(GenerateSchema(&islands.db, &rng, schema_opts).ok());
    islands.constants =
        GenerateConstantPool(&islands.db, &rng, config.num_constants);
    MappingGenOptions mapping_opts;
    mapping_opts.count = config.num_mappings_total;
    mapping_opts.num_islands = config.islands;
    islands.tgds = GenerateMappings(islands.db, islands.constants, &rng,
                                    mapping_opts);
    InitialDataOptions data_opts;
    data_opts.num_tuples = config.initial_tuples;
    data_opts.max_steps_per_insert = config.initial_chase_step_cap;
    RandomAgent seed_agent(config.seed ^ 0x9e3779b97f4a7c15ULL);
    const InitialDataReport initial = GenerateInitialData(
        &islands.db, &islands.tgds, islands.constants, &rng, &seed_agent,
        data_opts);
    ShardMap map(islands.db.num_relations(), islands.tgds, config.workers);
    std::printf(
        "=== parallel_scale ===\n"
        "islands graph: relations=%zu mappings=%zu islands=%zu "
        "components=%zu initial=%zu updates/run=%zu runs=%zu seed=%llu\n",
        config.num_relations, config.num_mappings_total, config.islands,
        map.num_components(), initial.total_tuples, config.updates_per_run,
        config.runs, static_cast<unsigned long long>(config.seed));
  }
  islands.first_point = points.size();
  {
    bench::ParallelScalePoint serial;
    serial.engine = "serial";
    serial.graph = "islands";
    points.push_back(serial);
    for (size_t w = 1; w <= config.workers; w *= 2) {
      bench::ParallelScalePoint p;
      p.engine = "parallel";
      p.graph = "islands";
      p.workers = w;
      points.push_back(p);
    }
    if (points.back().workers != config.workers) {
      bench::ParallelScalePoint p = points.back();
      p.workers = config.workers;
      points.push_back(p);
    }
  }
  islands.num_points = points.size() - islands.first_point;

  // --- graph="dense": the one-big-component fixture. -----------------------
  // A chain prefix (--chain) welds the schema into one tgd-closure
  // component; the random fill is generated with islands=1 on top, so the
  // graph stays dense. One component = one shard lane, so the worker axis
  // is pinned at 1.
  Fixture dense;
  {
    Rng rng(config.seed ^ 0x5bf03635ULL);
    SchemaGenOptions schema_opts;
    schema_opts.num_relations = config.num_relations;
    CHECK(GenerateSchema(&dense.db, &rng, schema_opts).ok());
    dense.constants =
        GenerateConstantPool(&dense.db, &rng, config.num_constants);
    MappingGenOptions mapping_opts;
    mapping_opts.count = config.num_mappings_total;
    mapping_opts.num_islands = 1;
    mapping_opts.chain_length =
        config.chain_length > 0 ? config.chain_length : 8;
    mapping_opts.fan_out = config.fan_out;
    dense.tgds =
        GenerateMappings(dense.db, dense.constants, &rng, mapping_opts);
    InitialDataOptions data_opts;
    data_opts.num_tuples = config.initial_tuples;
    data_opts.max_steps_per_insert = config.initial_chase_step_cap;
    RandomAgent seed_agent(config.seed ^ 0x7f4a7c15ULL);
    const InitialDataReport initial = GenerateInitialData(
        &dense.db, &dense.tgds, dense.constants, &rng, &seed_agent,
        data_opts);
    ShardMap map(dense.db.num_relations(), dense.tgds, config.workers);
    std::printf(
        "dense graph:   relations=%zu mappings=%zu chain=%zu fan=%zu "
        "components=%zu initial=%zu\n",
        config.num_relations, config.num_mappings_total,
        mapping_opts.chain_length, config.fan_out, map.num_components(),
        initial.total_tuples);
  }
  dense.first_point = points.size();
  {
    bench::ParallelScalePoint serial;
    serial.engine = "serial";
    serial.graph = "dense";
    points.push_back(serial);
    bench::ParallelScalePoint pinned;
    pinned.engine = "parallel";
    pinned.graph = "dense";
    pinned.workers = 1;  // one component ⇒ one shard lane regardless
    points.push_back(pinned);
  }
  dense.num_points = points.size() - dense.first_point;

  MeasureArms(&islands, config, &points, verbose);
  MeasureArms(&dense, config, &points, verbose);

  for (bench::ParallelScalePoint& p : points) {
    p.seconds_per_run /= static_cast<double>(config.runs);
    p.aborts /= static_cast<double>(config.runs);
    p.cross_shard /= static_cast<double>(config.runs);
    p.escaped /= static_cast<double>(config.runs);
    // updates_per_second accumulated committed-update counts above; divide
    // by total measured time to get committed throughput.
    const double total_seconds =
        p.seconds_per_run * static_cast<double>(config.runs);
    p.updates_per_second =
        total_seconds > 0 ? p.updates_per_second / total_seconds : 0;
  }
  std::printf("%8s %10s %8s %12s %14s %10s %8s\n", "graph", "engine",
              "workers", "s/run", "committed/s", "speedup", "aborts");
  double serial_ups = 0;
  for (bench::ParallelScalePoint& p : points) {
    if (p.engine == "serial") serial_ups = p.updates_per_second;
    // Speedup is against the SAME graph's serial arm (the serial point
    // precedes its parallel arms in `points`).
    p.speedup_vs_serial =
        serial_ups > 0 ? p.updates_per_second / serial_ups : 0;
    std::printf("%8s %10s %8zu %12.4f %14.1f %9.2fx %8.1f\n",
                p.graph.c_str(), p.engine.c_str(), p.workers,
                p.seconds_per_run, p.updates_per_second, p.speedup_vs_serial,
                p.aborts);
  }

  return bench::WriteParallelScaleJson("parallel_scale", config, points) ? 0
                                                                         : 1;
}

}  // namespace
}  // namespace youtopia

int main(int argc, char** argv) { return youtopia::Run(argc, argv); }
