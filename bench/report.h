#ifndef YOUTOPIA_BENCH_REPORT_H_
#define YOUTOPIA_BENCH_REPORT_H_

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "workload/experiment.h"

namespace youtopia {
namespace bench {

// Machine-readable benchmark output. Every harness in bench/ drops a
// `BENCH_<name>.json` next to where it runs (or into $YOUTOPIA_BENCH_DIR)
// so successive PRs can diff throughput, rows examined and storage growth
// against a recorded baseline instead of eyeballing printf tables.

// Resolves "<dir>/BENCH_<name>.json" where dir is $YOUTOPIA_BENCH_DIR when
// set, else the current working directory.
std::string BenchJsonPath(const std::string& name);

// Writes BENCH_<name>.json for a figure harness run: the experiment config
// (including the workers/islands engine axes), initial-database report, one
// record per (mapping count, tracker) cell (aborts, cascading abort
// requests, per-update seconds plus the derived updates/sec throughput) and
// the final storage footprint (row, version and index-entry counts — the
// append-only index cost). Returns false and prints to stderr if the file
// cannot be written.
bool WriteExperimentJson(const std::string& name, const std::string& workload,
                         const ExperimentConfig& config,
                         const ExperimentResult& result, const Database& db);

// One pipeline stage's latency summary, lifted out of an
// obs::MetricsSnapshot histogram at the end of an arm. Values are
// nanoseconds; percentiles carry the power-of-two bucket resolution of the
// registry (upper bucket bound, clamped to the observed max) — stable
// across runs, which is what a diffable report needs.
struct StageSummary {
  std::string stage;
  uint64_t count = 0;
  uint64_t p50_ns = 0;
  uint64_t p90_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t max_ns = 0;
};

// Extracts the non-empty stage histograms of `snap` as StageSummary rows,
// in Stage enumeration order.
std::vector<StageSummary> SummarizeStages(const obs::MetricsSnapshot& snap);

// One arm of the bench/parallel_scale scaling curve.
struct ParallelScalePoint {
  std::string engine;  // "serial" or "parallel"
  // Workload shape the arm ran under: "islands" (disjoint components, the
  // sharding regime) or "dense" (one tgd-closure component, which sharding
  // cannot split).
  std::string graph = "islands";
  size_t workers = 1;  // shard lanes (1 for the serial scheduler)
  double seconds_per_run = 0;
  double updates_per_second = 0;
  double speedup_vs_serial = 0;
  double aborts = 0;
  double cross_shard = 0;
  double escaped = 0;
  // Per-stage latency summaries from the arm's metrics registry,
  // accumulated over every measured run (empty for the serial engine,
  // which records no stage latencies).
  std::vector<StageSummary> stages;
};

// Writes BENCH_<name>.json for the scaling curve (schema_version 5: drops
// the per-arm sub-worker count and intra-shard counters; 4 added the
// per-arm stage latency summaries; 3 added zipf_theta; 2 added the graph
// tag): the generator config, the host's hardware concurrency (a 1-CPU
// container cannot show wall-clock parallel speedup, so readers need this
// to interpret the curve), and one record per engine arm.
bool WriteParallelScaleJson(const std::string& name,
                            const ExperimentConfig& config,
                            const std::vector<ParallelScalePoint>& points);

// One arm of the bench/streaming_ingest open-loop driver.
struct StreamingIngestArm {
  std::string mode;            // "unbounded" (closed loop) or "paced"
  double offered_rate = 0;     // target ops/sec (0 = submit as fast as
                               // the admission path admits)
  double wall_seconds = 0;     // first submit until the Flush barrier
  double sustained_rate = 0;   // retired ops per wall second
  // Producer-observed admission latency per op (routing + any time blocked
  // on a full inbox), in microseconds.
  double stall_p50_us = 0;
  double stall_p99_us = 0;
  double stall_max_us = 0;
  // Pipeline-side counters from ParallelStats.
  double admission_stall_seconds = 0;
  size_t inbox_high_watermark = 0;
  size_t inbox_capacity = 0;
  size_t pinned = 0;
  size_t cross_shard = 0;
  size_t escaped = 0;
  // Per-stage latency summaries from the arm's pipeline registry (submit,
  // inbox-wait, admission, chase, commit, ... — see obs::Stage).
  std::vector<StageSummary> stages;
};

// Writes BENCH_<name>.json for the streaming driver (schema_version 2:
// adds the per-arm stage latency summaries; files without the field are
// version 1): generator config, hardware concurrency, one record per
// offered-rate arm, and the result of the committed-op serial-replay
// equivalence check (byte-identical final database state).
bool WriteStreamingIngestJson(const std::string& name,
                              const ExperimentConfig& config,
                              const std::vector<StreamingIngestArm>& arms,
                              bool replay_identical);

// One arm of the bench/skew_suite adversarial-skew sweep: a (graph shape,
// zipf theta) fixture executed with value-aware sketch costing either ON or
// OFF (Planner::set_sketch_costing), on otherwise identical data, plans and
// workload. rows_examined is the arm's planner-quality metric: total rows
// fetched by every violation query and conflict re-check across the run
// (Scheduler::TotalRowsExamined).
struct SkewSuiteArm {
  std::string graph;       // "chain" or "fanout"
  double zipf_theta = 0;   // workload skew of this fixture
  bool sketch = false;     // value-aware costing on?
  uint64_t rows_examined = 0;
  uint64_t replans = 0;    // mid-run plan recompilations across all tgds
  size_t committed = 0;
  double steps = 0;
  double seconds = 0;
};

// Writes BENCH_<name>.json for the skew suite (schema_version 1): the
// fixture config block and one record per (graph, theta, sketch) arm. CI
// gates on the rows_examined ratio between the sketch-off and sketch-on
// arms of each fixture: >= 2x at high theta, parity (+-10%) at theta 0.
bool WriteSkewSuiteJson(const std::string& name,
                        const ExperimentConfig& config,
                        const std::vector<SkewSuiteArm>& arms);

}  // namespace bench
}  // namespace youtopia

#endif  // YOUTOPIA_BENCH_REPORT_H_
