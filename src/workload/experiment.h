#ifndef YOUTOPIA_WORKLOAD_EXPERIMENT_H_
#define YOUTOPIA_WORKLOAD_EXPERIMENT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "ccontrol/scheduler.h"
#include "relational/database.h"
#include "tgd/tgd.h"
#include "workload/generators.h"

namespace youtopia {

// End-to-end driver for the paper's evaluation (Section 6, Figures 3 and 4):
// builds the shared synthetic repository once, then for every mapping
// density and every cascading-abort algorithm replays the same workloads and
// reports aborts, cascading abort requests and per-update execution time.
struct ExperimentConfig {
  size_t num_relations = 100;
  size_t num_constants = 50;
  size_t num_mappings_total = 100;
  std::vector<size_t> mapping_counts = {20, 40, 60, 80, 100};
  size_t initial_tuples = 10000;
  size_t updates_per_run = 500;
  double delete_fraction = 0.0;  // 0.2 for the mixed workload (Figure 4)
  size_t runs = 100;             // data points are averages over runs
  uint64_t seed = 1;
  // > 0: mapping constants and workload pool values draw Zipf(theta)-skewed
  // by pool rank instead of uniformly (0 = the paper's uniform setup). See
  // MappingGenOptions::zipf_theta for why skew matters to re-planning.
  double zipf_theta = 0.0;
  // Hot-collision knobs forwarded to the generators: probability that a
  // pool draw bypasses its usual distribution and picks rank-uniformly from
  // the first hot_pool_ranks constants instead (see
  // MappingGenOptions::p_hot_constant / WorkloadOptions::p_hot_value).
  double p_hot_value = 0.0;
  size_t hot_pool_ranks = 4;

  // Shard lanes for the ingest-pipeline harnesses (bench/parallel_scale,
  // bench/streaming_ingest; effective parallelism is bounded by the
  // schema's tgd-closure component count — see islands below and
  // ccontrol/parallel/). ExperimentDriver always runs the serial Scheduler
  // (the paper's setup) and requires 1.
  size_t workers = 1;
  // Partition mappings into this many disjoint relation islands
  // (MappingGenOptions::num_islands). 1 keeps the paper's dense connected
  // mapping graph, under which the ingest pipeline degenerates to one
  // shard.
  size_t islands = 1;
  // Deterministic chain-mapping prefix for the dense single-component
  // workload shape (MappingGenOptions::chain_length / fan_out).
  size_t chain_length = 0;
  size_t fan_out = 1;

  // NAIVE is only run up to this mapping count (the paper likewise shows
  // only its first points; its abort counts dwarf the others).
  size_t naive_up_to_mappings = SIZE_MAX;

  // Safety caps.
  size_t max_steps_per_update = 1u << 14;
  size_t max_attempts_per_update = 64;
  size_t initial_chase_step_cap = 1u << 17;
};

// Per-(mapping count, tracker) measurements averaged over runs.
struct CellStats {
  size_t runs = 0;
  double aborts = 0;
  double direct_conflict_aborts = 0;
  double cascading_abort_requests = 0;
  double per_update_seconds = 0;
  double total_seconds = 0;
  double steps = 0;
  double failed = 0;
  double tracker_writes_tested = 0;
  double read_log_pairs_tested = 0;
  double read_log_queries_scanned = 0;
  double cascade_marks_scanned = 0;

  void Accumulate(const SchedulerStats& s, double seconds);
  void FinishAveraging();
};

struct ExperimentResult {
  std::vector<size_t> mapping_counts;
  // cells[i][t]: mapping_counts[i] under tracker t (kNaive=0, kCoarse=1,
  // kPrecise=2). NAIVE cells beyond naive_up_to_mappings have runs == 0.
  std::vector<std::array<CellStats, 3>> cells;
  InitialDataReport initial;

  // Figure 3c/4c series: per-update time PRECISE / per-update time COARSE.
  double SlowdownOfPrecise(size_t mapping_index) const;
};

class ExperimentDriver {
 public:
  explicit ExperimentDriver(ExperimentConfig config);

  // Runs the full sweep. If `verbose`, prints progress lines to stderr.
  ExperimentResult Run(bool verbose);

  const Database& db() const { return db_; }

 private:
  void BuildRepository(bool verbose, InitialDataReport* report);

  ExperimentConfig config_;
  Database db_;
  std::vector<Value> constants_;
  std::vector<Tgd> tgds_;
  Rng rng_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_WORKLOAD_EXPERIMENT_H_
