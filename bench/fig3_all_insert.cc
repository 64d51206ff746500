// Regenerates Figure 3 of the paper: NAIVE vs COARSE vs PRECISE on the
// all-insert workload — (a) total aborts, (b) cascading abort requests,
// (c) relative slowdown of PRECISE — across mapping densities 20..100.
//
// Run with --paper for the exact Section 6 parameters (10k initial tuples,
// 500 updates per run, 100 runs per point); the default is a scaled-down
// sweep preserving the figure's shape.
#include "bench/fig_common.h"

int main(int argc, char** argv) {
  bool verbose = false;
  youtopia::ExperimentConfig config =
      youtopia::bench::ParseFlags(argc, argv, &verbose);
  config.delete_fraction = 0.0;
  const youtopia::ExperimentResult result =
      youtopia::RunExperiment(config, verbose);
  return youtopia::bench::Report("fig3_all_insert", "Figure 3", "all-insert",
                                 config, result)
             ? 0
             : 1;
}
