#ifndef YOUTOPIA_BENCH_FIG_COMMON_H_
#define YOUTOPIA_BENCH_FIG_COMMON_H_

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "bench/report.h"
#include "workload/experiment.h"

namespace youtopia {
namespace bench {

// Shared command-line handling, table printing and JSON reporting for the
// figure harnesses.
//
// Flags:
//   --paper             full paper scale (100 relations, 10k initial tuples,
//                       500 updates, 100 runs) — takes a long time
//   --runs=N            override number of runs per data point
//   --initial=N         override initial tuple count
//   --updates=N         override updates per run
//   --relations=N       override relation count
//   --mappings=a,b,c    override the mapping-count sweep
//   --seed=N            RNG seed
//   --workers=N         shard lanes of the ingest pipeline; parallel_scale
//                       and streaming_ingest only (real parallelism needs
//                       --islands > 1, since the paper's dense mapping graph
//                       is one tgd-closure component). The figure harnesses
//                       run the serial Scheduler and reject any N but 1.
//   --islands=N         partition mappings into N disjoint relation islands
//   --chain=L           prepend an L-relation deterministic mapping chain
//                       per island (dense single-component shape; default 0)
//   --fan=F             RHS atoms per chain hop (default 1 = linear chain)
//   --zipf=T            Zipfian theta in [0, 1) for constant-pool draws
//                       (default 0 = the paper's uniform pool)
//   --hotp=P            probability in [0, 1] that a pool draw collides
//                       onto the shared hot prefix instead (default 0; see
//                       WorkloadOptions::p_hot_value)
//   --hotranks=N        size of that shared hot prefix (default 4)
//   --verbose           progress to stderr
// Applies the command-line flags on top of `config` — callers seed it with
// their harness's defaults, so passing one flag overrides one knob instead
// of discarding the whole default shape. --workers above `max_workers` is a
// bad value.
inline ExperimentConfig ParseFlagsOver(ExperimentConfig config, int argc,
                                       char** argv, bool* verbose,
                                       long max_workers = 1024) {
  // Shared validated integer parsing: consumes one number from *p (advancing
  // it), rejecting junk, overflow and out-of-range values with exit(2).
  // Count-like flags use min_value 1 — a 0 would crash or hang deep in the
  // workload generator instead of failing here; --seed alone admits 0.
  auto parse_int = [](const std::string& arg, const char** p, long min_value,
                      long max_value) -> long {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(*p, &end, 10);
    if (end == *p || errno == ERANGE || v < min_value || v > max_value) {
      std::fprintf(stderr, "bad value: %s\n", arg.c_str());
      std::exit(2);
    }
    *p = end;
    return v;
  };
  constexpr long kMaxCount = 1L << 30;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto intval = [&](const char* prefix, long min_value,
                      long max_value) -> long {
      const char* p = arg.c_str() + std::strlen(prefix);
      const long v = parse_int(arg, &p, min_value, max_value);
      if (*p != '\0') {
        std::fprintf(stderr, "bad value: %s\n", arg.c_str());
        std::exit(2);
      }
      return v;
    };
    if (arg == "--paper") {
      config.initial_tuples = 10000;
      config.updates_per_run = 500;
      config.runs = 100;
    } else if (arg.rfind("--runs=", 0) == 0) {
      config.runs = static_cast<size_t>(intval("--runs=", 1, kMaxCount));
    } else if (arg.rfind("--initial=", 0) == 0) {
      config.initial_tuples =
          static_cast<size_t>(intval("--initial=", 0, kMaxCount));
    } else if (arg.rfind("--updates=", 0) == 0) {
      config.updates_per_run =
          static_cast<size_t>(intval("--updates=", 1, kMaxCount));
    } else if (arg.rfind("--relations=", 0) == 0) {
      config.num_relations =
          static_cast<size_t>(intval("--relations=", 1, kMaxCount));
    } else if (arg.rfind("--seed=", 0) == 0) {
      config.seed = static_cast<uint64_t>(
          intval("--seed=", 0, std::numeric_limits<long>::max()));
    } else if (arg.rfind("--workers=", 0) == 0) {
      config.workers =
          static_cast<size_t>(intval("--workers=", 1, max_workers));
    } else if (arg.rfind("--islands=", 0) == 0) {
      config.islands = static_cast<size_t>(intval("--islands=", 1, 1024));
    } else if (arg.rfind("--chain=", 0) == 0) {
      config.chain_length =
          static_cast<size_t>(intval("--chain=", 0, kMaxCount));
    } else if (arg.rfind("--fan=", 0) == 0) {
      config.fan_out = static_cast<size_t>(intval("--fan=", 1, 64));
    } else if (arg.rfind("--zipf=", 0) == 0) {
      const char* p = arg.c_str() + std::strlen("--zipf=");
      char* end = nullptr;
      errno = 0;
      const double v = std::strtod(p, &end);
      // [0, 1): ZipfianSampler's closed-form inversion requires theta < 1.
      if (end == p || *end != '\0' || errno == ERANGE || v < 0.0 || v >= 1.0) {
        std::fprintf(stderr, "bad value: %s\n", arg.c_str());
        std::exit(2);
      }
      config.zipf_theta = v;
    } else if (arg.rfind("--hotp=", 0) == 0) {
      const char* p = arg.c_str() + std::strlen("--hotp=");
      char* end = nullptr;
      errno = 0;
      const double v = std::strtod(p, &end);
      if (end == p || *end != '\0' || errno == ERANGE || v < 0.0 || v > 1.0) {
        std::fprintf(stderr, "bad value: %s\n", arg.c_str());
        std::exit(2);
      }
      config.p_hot_value = v;
    } else if (arg.rfind("--hotranks=", 0) == 0) {
      config.hot_pool_ranks =
          static_cast<size_t>(intval("--hotranks=", 1, kMaxCount));
    } else if (arg.rfind("--mappings=", 0) == 0) {
      config.mapping_counts.clear();
      const char* p = arg.c_str() + std::strlen("--mappings=");
      while (*p != '\0') {
        config.mapping_counts.push_back(
            static_cast<size_t>(parse_int(arg, &p, 1, 1L << 20)));
        if (*p == ',') ++p;
      }
    } else if (arg == "--verbose") {
      *verbose = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  if (config.mapping_counts.empty()) {
    std::fprintf(stderr, "--mappings needs at least one count\n");
    std::exit(2);
  }
  // Generate exactly as many mappings as the largest sweep point needs:
  // the initial-data chase runs under the full generated set, so leaving
  // num_mappings_total at the paper's 100 while sweeping --mappings=10,20
  // over a small --relations count makes seeding intractably dense.
  size_t max_count = 0;
  for (size_t c : config.mapping_counts) max_count = std::max(max_count, c);
  config.num_mappings_total = max_count;
  return config;
}

inline ExperimentConfig ParseFlags(int argc, char** argv, bool* verbose) {
  ExperimentConfig config;
  // Default: the paper's dimensions (100 relations, 50 constants, 10k-tuple
  // chase-seeded initial database, 500 updates per run) averaged over 5
  // runs per point; --paper raises the averaging to the full 100 runs.
  config.num_relations = 100;
  config.num_constants = 50;
  config.num_mappings_total = 100;
  config.mapping_counts = {20, 40, 60, 80, 100};
  config.initial_tuples = 10000;
  config.updates_per_run = 500;
  config.runs = 5;
  config.seed = 1;
  return ParseFlagsOver(std::move(config), argc, argv, verbose,
                        /*max_workers=*/1);
}

inline void PrintResult(const char* figure, const char* workload,
                        const ExperimentConfig& config,
                        const ExperimentResult& result) {
  std::printf("=== %s: %s workload ===\n", figure, workload);
  std::printf(
      "config: relations=%zu constants=%zu initial_tuples=%zu "
      "updates/run=%zu runs=%zu seed=%llu workers=%zu islands=%zu "
      "zipf=%.2f\n",
      config.num_relations, config.num_constants, config.initial_tuples,
      config.updates_per_run, config.runs,
      static_cast<unsigned long long>(config.seed), config.workers,
      config.islands, config.zipf_theta);
  std::printf("initial database: %zu visible tuples\n\n",
              result.initial.total_tuples);

  std::printf("--- Panel (a): total aborts ---\n");
  std::printf("%10s %12s %12s %12s\n", "#mappings", "NAIVE", "COARSE",
              "PRECISE");
  for (size_t i = 0; i < result.mapping_counts.size(); ++i) {
    std::printf("%10zu ", result.mapping_counts[i]);
    for (size_t t = 0; t < 3; ++t) {
      std::printf("%12.1f ", result.cells[i][t].aborts);
    }
    std::printf("\n");
  }

  std::printf("\n--- Panel (b): cascading abort requests ---\n");
  std::printf("%10s %12s %12s %12s\n", "#mappings", "NAIVE", "COARSE",
              "PRECISE");
  for (size_t i = 0; i < result.mapping_counts.size(); ++i) {
    std::printf("%10zu ", result.mapping_counts[i]);
    for (size_t t = 0; t < 3; ++t) {
      std::printf("%12.1f ", result.cells[i][t].cascading_abort_requests);
    }
    std::printf("\n");
  }

  std::printf("\n--- Panel (c): slowdown of PRECISE (vs COARSE) ---\n");
  std::printf("%10s %12s %16s %16s\n", "#mappings", "slowdown",
              "COARSE s/upd", "PRECISE s/upd");
  for (size_t i = 0; i < result.mapping_counts.size(); ++i) {
    std::printf("%10zu %12.2f %16.6f %16.6f\n", result.mapping_counts[i],
                result.SlowdownOfPrecise(i),
                result.cells[i][1].per_update_seconds,
                result.cells[i][2].per_update_seconds);
  }
  std::printf("\n");
}

// Human-readable table to stdout plus machine-readable BENCH_<name>.json
// (see bench/report.h) for baseline tracking across PRs. Returns false if
// the JSON could not be written, so harness mains can exit nonzero.
inline bool Report(const char* name, const char* figure, const char* workload,
                   const ExperimentConfig& config,
                   const ExperimentResult& result) {
  PrintResult(figure, workload, config, result);
  return WriteExperimentJson(name, workload, config, result);
}

}  // namespace bench
}  // namespace youtopia

#endif  // YOUTOPIA_BENCH_FIG_COMMON_H_
