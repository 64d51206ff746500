// Regenerates Figure 4 of the paper: the mixed workload (80% inserts, 20%
// deletes) — (a) total aborts, (b) cascading abort requests, (c) relative
// slowdown of PRECISE — across mapping densities 20..100.
#include "bench/fig_common.h"

int main(int argc, char** argv) {
  bool verbose = false;
  youtopia::ExperimentConfig config =
      youtopia::bench::ParseFlags(argc, argv, &verbose);
  config.delete_fraction = 0.2;
  const youtopia::ExperimentResult result =
      youtopia::RunExperiment(config, verbose);
  return youtopia::bench::Report("fig4_mixed", "Figure 4",
                                 "mixed insert/delete", config, result)
             ? 0
             : 1;
}
