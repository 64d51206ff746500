// Concurrent editing: many community members update a shared repository at
// once. Shows the optimistic scheduler's behavior under the three
// cascading-abort algorithms (NAIVE / COARSE / PRECISE, Section 5.1) on an
// identical workload — a miniature of the paper's evaluation.
//
// Build & run:  cmake --build build && ./build/examples/concurrent_editing
#include <cstdio>

#include "workload/experiment.h"

using namespace youtopia;

namespace {

constexpr uint64_t kSeed = 2009;  // VLDB '09

// A synthetic community repository: 40 relations, 30 mappings, seeded by
// the update-exchange machinery itself, and one workload of 120 concurrent
// updates (80% inserts / 20% deletes) drawn on it. Each algorithm runs on a
// repository of its own built from the same seeds, so all three replay the
// same workload from the same state.
std::vector<WriteOp> BuildCommunity(Repository* repo) {
  ExperimentConfig config;
  config.num_relations = 40;
  config.num_constants = 25;
  config.initial_tuples = 800;
  config.initial_chase_step_cap = InitialDataOptions().max_steps_per_insert;
  MappingGenOptions mapping_opts;
  mapping_opts.count = 30;
  RandomAgent seeding_agent(kSeed);
  BuildRepository(config, mapping_opts, kSeed, &seeding_agent, repo);

  WorkloadOptions wl;
  wl.num_updates = 120;
  wl.delete_fraction = 0.2;
  Rng wl_rng(kSeed + 1);
  return GenerateWorkload(&repo->db, repo->constants, &wl_rng, wl);
}

}  // namespace

int main() {
  for (TrackerKind kind :
       {TrackerKind::kNaive, TrackerKind::kCoarse, TrackerKind::kPrecise}) {
    Repository repo;
    const std::vector<WriteOp> ops = BuildCommunity(&repo);
    if (kind == TrackerKind::kNaive) {
      std::printf("repository: %zu relations, %zu mappings, %zu tuples\n\n",
                  repo.db.num_relations(), repo.tgds.size(),
                  repo.initial.total_tuples);
      std::printf("%-8s %8s %8s %10s %12s %10s\n", "tracker", "aborts",
                  "direct", "cascading", "steps", "completed");
    }
    RandomAgent agent(kSeed + 7);
    SchedulerOptions opts;
    opts.tracker = kind;
    Scheduler sched(&repo.db, &repo.tgds, &agent, opts);
    for (const WriteOp& op : ops) sched.Submit(op);
    sched.RunToCompletion();
    const SchedulerStats& s = sched.stats();
    std::printf("%-8s %8llu %8llu %10llu %12llu %10llu\n",
                TrackerKindName(kind),
                static_cast<unsigned long long>(s.aborts),
                static_cast<unsigned long long>(s.direct_conflict_aborts),
                static_cast<unsigned long long>(s.cascading_abort_requests),
                static_cast<unsigned long long>(s.total_steps),
                static_cast<unsigned long long>(s.updates_completed));
  }

  std::printf(
      "\nNAIVE aborts every younger update on any conflict; COARSE tracks\n"
      "read dependencies at relation granularity; PRECISE tests each logged\n"
      "write against each read query and cascades only true dependencies.\n");
  return 0;
}
