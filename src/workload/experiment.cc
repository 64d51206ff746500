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

namespace {

StorageFootprint FootprintOf(const Database& db) {
  StorageFootprint storage;
  storage.relations = db.num_relations();
  for (RelationId r = 0; r < db.num_relations(); ++r) {
    storage.rows += db.relation(r).num_rows();
    storage.versions += db.relation(r).num_versions();
    storage.index_entries += db.relation(r).IndexEntryCount();
  }
  return storage;
}

}  // namespace

void BuildRepository(const ExperimentConfig& config,
                     const MappingGenOptions& mapping_opts, uint64_t rng_seed,
                     FrontierAgent* seed_agent, Repository* repo) {
  Rng rng(rng_seed);
  SchemaGenOptions schema_opts;
  schema_opts.num_relations = config.num_relations;
  CHECK(GenerateSchema(&repo->db, &rng, schema_opts).ok());
  repo->constants =
      GenerateConstantPool(&repo->db, &rng, config.num_constants);
  repo->tgds = GenerateMappings(repo->db, repo->constants, &rng, mapping_opts);
  InitialDataOptions data_opts;
  data_opts.num_tuples = config.initial_tuples;
  data_opts.max_steps_per_insert = config.initial_chase_step_cap;
  repo->initial = GenerateInitialData(&repo->db, &repo->tgds, repo->constants,
                                      &rng, seed_agent, data_opts);
}

ExperimentResult RunExperiment(const ExperimentConfig& config, bool verbose) {
  CHECK_EQ(config.workers, 1u);  // the sweep runs the serial Scheduler
  MappingGenOptions mapping_opts;
  mapping_opts.count = config.num_mappings_total;
  mapping_opts.num_islands = config.islands;
  mapping_opts.zipf_theta = config.zipf_theta;
  mapping_opts.p_hot_constant = config.p_hot_value;
  mapping_opts.hot_pool_ranks = config.hot_pool_ranks;
  mapping_opts.chain_length = config.chain_length;
  mapping_opts.fan_out = config.fan_out;
  WorkloadOptions wl_opts;
  wl_opts.num_updates = config.updates_per_run;
  wl_opts.delete_fraction = config.delete_fraction;
  wl_opts.zipf_theta = config.zipf_theta;
  wl_opts.p_hot_value = config.p_hot_value;
  wl_opts.hot_pool_ranks = config.hot_pool_ranks;

  ExperimentResult result;
  result.mapping_counts = config.mapping_counts;
  result.cells.resize(config.mapping_counts.size());

  constexpr TrackerKind kTrackers[3] = {
      TrackerKind::kNaive, TrackerKind::kCoarse, TrackerKind::kPrecise};

  for (size_t mi = 0; mi < config.mapping_counts.size(); ++mi) {
    const size_t mapping_count = config.mapping_counts[mi];
    for (size_t run = 0; run < config.runs; ++run) {
      for (size_t t = 0; t < 3; ++t) {
        // Every cell runs on a repository of its own, built from the same
        // seeds, and draws its workload there from the (density, run)
        // seed: all three algorithms replay one workload from one initial
        // database state, and no cell sees what an earlier cell wrote.
        Repository repo;
        RandomAgent seed_agent(config.seed ^ 0x9e3779b97f4a7c15ULL);
        BuildRepository(config, mapping_opts, config.seed, &seed_agent,
                        &repo);
        result.initial = repo.initial;
        if (verbose && mi == 0 && run == 0 && t == 0) {
          std::fprintf(stderr,
                       "[experiment] schema: %zu relations, %zu constants, "
                       "%zu mappings; initial database: %zu visible tuples "
                       "(%zu chase steps, %zu frontier ops, %zu capped)\n",
                       config.num_relations, config.num_constants,
                       repo.tgds.size(), repo.initial.total_tuples,
                       repo.initial.chase_steps, repo.initial.frontier_ops,
                       repo.initial.capped_chases);
        }
        // Monotone prefixes: the run with 40 mappings includes the
        // 20-mapping set plus 20 more, and so on (Section 6).
        CHECK_LE(mapping_count, repo.tgds.size());
        repo.tgds.erase(repo.tgds.begin() + mapping_count, repo.tgds.end());

        Rng wl_rng(config.seed + 1000003 * (mi + 1) + 7919 * (run + 1));
        const std::vector<WriteOp> ops =
            GenerateWorkload(&repo.db, repo.constants, &wl_rng, wl_opts);

        // Same agent seed across trackers: all three algorithms replay
        // identical workloads with identical simulated-user behavior.
        RandomAgent agent(config.seed + 31 * run);
        SchedulerOptions sched_opts;
        sched_opts.tracker = kTrackers[t];
        sched_opts.max_steps_per_update = config.max_steps_per_update;
        sched_opts.max_attempts_per_update = config.max_attempts_per_update;
        Scheduler scheduler(&repo.db, &repo.tgds, &agent, sched_opts);
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
        result.storage = FootprintOf(repo.db);  // the last cell's stays
      }
    }
    for (size_t t = 0; t < 3; ++t) result.cells[mi][t].FinishAveraging();
  }
  return result;
}

}  // namespace youtopia
