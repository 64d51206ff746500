#include "workload/experiment.h"

#include <chrono>
#include <cstdio>

#include "core/agent.h"

namespace youtopia {

void CellStats::Accumulate(const SchedulerStats& s, double seconds) {
  ++runs;
  aborts += static_cast<double>(s.aborts);
  direct_conflict_aborts += static_cast<double>(s.direct_conflict_aborts);
  cascading_abort_requests +=
      static_cast<double>(s.cascading_abort_requests);
  const double executions =
      static_cast<double>(s.updates_submitted + s.aborts);
  per_update_seconds += executions > 0 ? seconds / executions : 0;
  total_seconds += seconds;
  steps += static_cast<double>(s.total_steps);
  failed += static_cast<double>(s.updates_failed);
  tracker_writes_tested += static_cast<double>(s.tracker_writes_tested);
  read_log_pairs_tested += static_cast<double>(s.read_log_pairs_tested);
  read_log_queries_scanned +=
      static_cast<double>(s.read_log_queries_scanned);
  cascade_marks_scanned += static_cast<double>(s.cascade_marks_scanned);
}

void CellStats::FinishAveraging() {
  if (runs == 0) return;
  const double n = static_cast<double>(runs);
  aborts /= n;
  direct_conflict_aborts /= n;
  cascading_abort_requests /= n;
  per_update_seconds /= n;
  total_seconds /= n;
  steps /= n;
  failed /= n;
  tracker_writes_tested /= n;
  read_log_pairs_tested /= n;
  read_log_queries_scanned /= n;
  cascade_marks_scanned /= n;
}

double ExperimentResult::SlowdownOfPrecise(size_t mapping_index) const {
  const CellStats& coarse = cells[mapping_index][1];
  const CellStats& precise = cells[mapping_index][2];
  if (coarse.per_update_seconds <= 0) return 0;
  return precise.per_update_seconds / coarse.per_update_seconds;
}

ExperimentDriver::ExperimentDriver(ExperimentConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  CHECK_EQ(config_.workers, 1u);  // the sweep runs the serial Scheduler
}

void ExperimentDriver::BuildRepository(bool verbose,
                                       InitialDataReport* report) {
  SchemaGenOptions schema_opts;
  schema_opts.num_relations = config_.num_relations;
  CHECK(GenerateSchema(&db_, &rng_, schema_opts).ok());
  constants_ = GenerateConstantPool(&db_, &rng_, config_.num_constants);

  MappingGenOptions mapping_opts;
  mapping_opts.count = config_.num_mappings_total;
  mapping_opts.num_islands = config_.islands;
  mapping_opts.zipf_theta = config_.zipf_theta;
  mapping_opts.p_hot_constant = config_.p_hot_value;
  mapping_opts.hot_pool_ranks = config_.hot_pool_ranks;
  mapping_opts.chain_length = config_.chain_length;
  mapping_opts.fan_out = config_.fan_out;
  tgds_ = GenerateMappings(db_, constants_, &rng_, mapping_opts);

  if (verbose) {
    std::fprintf(stderr,
                 "[experiment] schema: %zu relations, %zu constants, %zu "
                 "mappings; seeding %zu tuples...\n",
                 config_.num_relations, config_.num_constants, tgds_.size(),
                 config_.initial_tuples);
  }
  InitialDataOptions data_opts;
  data_opts.num_tuples = config_.initial_tuples;
  data_opts.max_steps_per_insert = config_.initial_chase_step_cap;
  RandomAgent seed_agent(config_.seed ^ 0x9e3779b97f4a7c15ULL);
  *report = GenerateInitialData(&db_, &tgds_, constants_, &rng_, &seed_agent,
                                data_opts);
  if (verbose) {
    std::fprintf(stderr,
                 "[experiment] initial database: %zu visible tuples (%zu "
                 "chase steps, %zu frontier ops, %zu capped)\n",
                 report->total_tuples, report->chase_steps,
                 report->frontier_ops, report->capped_chases);
  }
}

ExperimentResult ExperimentDriver::Run(bool verbose) {
  ExperimentResult result;
  BuildRepository(verbose, &result.initial);
  result.mapping_counts = config_.mapping_counts;
  result.cells.resize(config_.mapping_counts.size());

  constexpr TrackerKind kTrackers[3] = {
      TrackerKind::kNaive, TrackerKind::kCoarse, TrackerKind::kPrecise};

  for (size_t mi = 0; mi < config_.mapping_counts.size(); ++mi) {
    const size_t mapping_count = config_.mapping_counts[mi];
    CHECK_LE(mapping_count, tgds_.size());
    // Monotone prefixes: the run with 40 mappings includes the 20-mapping
    // set plus 20 more, and so on (Section 6).
    const std::vector<Tgd> active(tgds_.begin(),
                                  tgds_.begin() + mapping_count);

    for (size_t run = 0; run < config_.runs; ++run) {
      // One workload per (density, run), replayed identically under every
      // tracker from the same initial database state.
      Rng wl_rng(config_.seed + 1000003 * (mi + 1) + 7919 * (run + 1));
      WorkloadOptions wl_opts;
      wl_opts.num_updates = config_.updates_per_run;
      wl_opts.delete_fraction = config_.delete_fraction;
      wl_opts.zipf_theta = config_.zipf_theta;
      wl_opts.p_hot_value = config_.p_hot_value;
      wl_opts.hot_pool_ranks = config_.hot_pool_ranks;
      const std::vector<WriteOp> ops =
          GenerateWorkload(&db_, constants_, &wl_rng, wl_opts);

      for (size_t t = 0; t < 3; ++t) {
        if (kTrackers[t] == TrackerKind::kNaive &&
            mapping_count > config_.naive_up_to_mappings) {
          continue;
        }
        db_.RemoveVersionsAbove(0);  // rewind to the initial database
        // Same agent seed across trackers: all three algorithms replay
        // identical workloads with identical simulated-user behavior.
        RandomAgent agent(config_.seed + 31 * run);
        SchedulerOptions sched_opts;
        sched_opts.tracker = kTrackers[t];
        sched_opts.max_steps_per_update = config_.max_steps_per_update;
        sched_opts.max_attempts_per_update = config_.max_attempts_per_update;
        Scheduler scheduler(&db_, &active, &agent, sched_opts);
        for (const WriteOp& op : ops) scheduler.Submit(op);

        const auto start = std::chrono::steady_clock::now();
        scheduler.RunToCompletion();
        const double seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        const SchedulerStats& run_stats = scheduler.stats();
        result.cells[mi][t].Accumulate(run_stats, seconds);
        if (verbose) {
          std::fprintf(
              stderr,
              "[experiment] m=%zu run=%zu %s: aborts=%llu cascading_req=%llu "
              "time=%.3fs\n",
              mapping_count, run, TrackerKindName(kTrackers[t]),
              static_cast<unsigned long long>(run_stats.aborts),
              static_cast<unsigned long long>(
                  run_stats.cascading_abort_requests),
              seconds);
        }
      }
    }
    for (size_t t = 0; t < 3; ++t) result.cells[mi][t].FinishAveraging();
  }
  db_.RemoveVersionsAbove(0);
  return result;
}

}  // namespace youtopia
