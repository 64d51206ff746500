// Open-loop streaming driver for the standing ingest pipeline
// (ccontrol/parallel/ingest_pipeline.h): instead of the closed-loop
// submit-everything-then-drain story of bench/parallel_scale, ops are
// offered at a target rate against a long-lived pipeline whose workers park
// on bounded inboxes, and the interesting numbers are what a service
// operator would watch:
//
//   * sustained throughput — retired ops per wall second under continuous
//     admission (the Flush barrier closes the measurement window);
//   * admission-stall p50/p99 — producer-observed time per Submit,
//     including any time blocked on a full inbox (the backpressure signal);
//   * inbox high-watermark — memory stays bounded: credit-path admission
//     can never push a shard inbox past its configured capacity.
//
// Two arms: "unbounded" submits as fast as admission allows (a closed loop
// that saturates the inboxes and exercises real producer blocking), then
// "paced" offers ops at half the measured unbounded rate on an open-loop
// schedule (sleep-until timestamps; a service running below capacity, where
// stalls should collapse to routing cost).
//
// Correctness rides along: the last arm's committed ops are replayed
// serially, in final priority-number order, on a freshly built copy of the
// initial repository; the final instances must match byte for byte (mappings are generated with
// p_frontier = 1 so chases introduce no labeled nulls, and the per-worker
// agents are MinContentAgents — decisions are pure functions of visible
// state — so the serialization-order guarantee of Theorem 4.4 makes the
// replay literally identical, not merely isomorphic).
//
// Flags are fig_common's (--relations, --islands, --workers, --updates,
// --zipf, ...). A full-size run:
//   streaming_ingest --relations=64 --islands=8 --initial=2000
//                    --updates=20000 --workers=8
//
// Observability hooks: each arm runs against its own obs::MetricsRegistry
// and lands its per-stage latency percentiles (submit, inbox-wait,
// admission, chase, commit, ...) in the JSON's `stages` block. Setting
// YOUTOPIA_TRACE=<path> enables the global tracer for the whole run and
// dumps a Chrome trace-event / Perfetto JSON there at exit (validated by
// tools/check_trace.py in CI).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/fig_common.h"
#include "ccontrol/parallel/ingest_pipeline.h"
#include "core/update.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/tuple.h"

namespace youtopia {
namespace {

std::unique_ptr<FrontierAgent> MinContentFactory(size_t) {
  return std::make_unique<MinContentAgent>();
}

// Sorted rendering of every relation's visible tuples; byte-identical
// across runs iff the final instances are literally equal.
std::string DumpAll(const Database& db) {
  std::string out;
  Snapshot snap(&db, kReadLatest);
  for (RelationId r = 0; r < db.num_relations(); ++r) {
    std::vector<std::string> rows;
    snap.ForEachVisible(r, [&](RowId, const TupleData& t) {
      rows.push_back(TupleToString(t, db.symbols()));
    });
    std::sort(rows.begin(), rows.end());
    out += db.catalog().schema(r).name + ":";
    for (const std::string& s : rows) out += " " + s + ";";
    out += "\n";
  }
  return out;
}

double PercentileUs(std::vector<double>* sorted_us, double q) {
  if (sorted_us->empty()) return 0;
  const size_t idx = std::min(
      sorted_us->size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_us->size())));
  return (*sorted_us)[idx];
}

// Builds the harness's repository in the empty `*repo` and draws the op
// stream on it. Every arm and the serial replay build their own, from the
// same seeds, so each starts from one initial database with one stream.
std::vector<WriteOp> BuildArmRepository(const ExperimentConfig& config,
                                        Repository* repo) {
  MappingGenOptions mapping_opts;
  mapping_opts.count = config.num_mappings_total;
  mapping_opts.num_islands = config.islands;
  mapping_opts.zipf_theta = config.zipf_theta;
  // No existential RHS positions: chases stay null-free, which is what lets
  // the serial replay below demand byte equality instead of isomorphism.
  // p_frontier = 1 alone is not enough — when every LHS variable is already
  // used in the atom, the generator falls back to a fresh existential, so
  // within-atom repeats must be allowed unconditionally too.
  mapping_opts.p_frontier = 1.0;
  mapping_opts.p_within_atom_repeat = 1.0;
  MinContentAgent seed_agent;
  BuildRepository(config, mapping_opts, config.seed, &seed_agent, repo);

  WorkloadOptions wl_opts;
  wl_opts.num_updates = config.updates_per_run;
  wl_opts.delete_fraction = config.delete_fraction;
  wl_opts.zipf_theta = config.zipf_theta;
  Rng wl_rng(config.seed + 1000003);
  return GenerateWorkload(&repo->db, repo->constants, &wl_rng, wl_opts);
}

// Runs one arm: a fresh pipeline over `repo`, ops offered at `rate` ops/sec
// (0 = closed loop). Fills `arm` and, when `committed` is non-null, leaves
// the arm's committed ops in final number order there.
void RunArm(Repository* repo, const ExperimentConfig& config,
            const std::vector<WriteOp>& ops, double rate,
            bench::StreamingIngestArm* arm, std::vector<WriteOp>* committed) {
  // Per-arm registry (declared before the pipeline: workers record into it
  // until the pipeline's destructor joins them).
  obs::MetricsRegistry metrics;

  IngestOptions popts;
  popts.num_workers = config.workers;
  popts.max_steps_per_update = config.max_steps_per_update;
  popts.agent_factory = MinContentFactory;
  popts.inbox_capacity = 256;
  popts.metrics = &metrics;
  IngestPipeline pipeline(&repo->db, &repo->tgds, popts);

  std::vector<double> stalls_us;
  stalls_us.reserve(ops.size());
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (rate > 0) {
      // Open loop: op i is due at start + i/rate regardless of how long
      // earlier admissions took; a producer running behind does not thin
      // the offered load, it catches up.
      const auto due =
          start + std::chrono::nanoseconds(static_cast<uint64_t>(
                      1e9 * static_cast<double>(i) / rate));
      std::this_thread::sleep_until(due);
    }
    const auto t0 = std::chrono::steady_clock::now();
    const SubmitResult r = pipeline.Submit(ops[i]);
    const auto t1 = std::chrono::steady_clock::now();
    CHECK(r == SubmitResult::kOk);
    stalls_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  const ParallelStats stats = pipeline.Flush();
  arm->wall_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();

  arm->offered_rate = rate;
  arm->sustained_rate =
      arm->wall_seconds > 0
          ? static_cast<double>(ops.size()) / arm->wall_seconds
          : 0;
  std::sort(stalls_us.begin(), stalls_us.end());
  arm->stall_p50_us = PercentileUs(&stalls_us, 0.50);
  arm->stall_p99_us = PercentileUs(&stalls_us, 0.99);
  arm->stall_max_us = stalls_us.empty() ? 0 : stalls_us.back();
  arm->admission_stall_seconds = stats.admission_stall_seconds;
  arm->inbox_high_watermark = stats.inbox_high_watermark;
  arm->inbox_capacity = popts.inbox_capacity;
  arm->pinned = stats.pinned_updates;
  arm->cross_shard = stats.cross_shard_updates;
  arm->escaped = stats.escaped_updates;
  arm->stages = bench::SummarizeStages(metrics.Snapshot());

  // Bounded memory: credit-path admission never overfills a shard inbox.
  CHECK_LE(stats.inbox_high_watermark, popts.inbox_capacity);
  CHECK_EQ(stats.totals.updates_failed, 0u);

  if (committed != nullptr) *committed = pipeline.CommittedOpsInOrder();
}

int Run(int argc, char** argv) {
  ExperimentConfig defaults;
  defaults.num_relations = 40;
  defaults.num_constants = 50;
  defaults.num_mappings_total = 56;
  defaults.mapping_counts = {56};
  defaults.initial_tuples = 300;
  defaults.updates_per_run = 4000;
  defaults.runs = 1;
  defaults.seed = 1;
  defaults.islands = 8;
  defaults.workers = 4;
  bool verbose = false;
  ExperimentConfig config =
      bench::ParseFlagsOver(std::move(defaults), argc, argv, &verbose);
  config.num_mappings_total = config.mapping_counts.back();
  config.delete_fraction = 0.0;

  // YOUTOPIA_TRACE=<path>: trace the whole run (all arms) and dump a
  // Chrome trace-event JSON at exit.
  const char* trace_path = std::getenv("YOUTOPIA_TRACE");
  if (trace_path != nullptr) obs::Tracer::Global().SetEnabled(true);

  std::vector<bench::StreamingIngestArm> arms(2);
  arms[0].mode = "unbounded";
  {
    Repository repo;
    const std::vector<WriteOp> ops = BuildArmRepository(config, &repo);
    std::printf(
        "=== streaming_ingest ===\n"
        "config: relations=%zu mappings=%zu islands=%zu workers=%zu "
        "initial=%zu ops=%zu zipf=%.2f seed=%llu\n",
        config.num_relations, config.num_mappings_total, config.islands,
        config.workers, repo.initial.total_tuples, ops.size(),
        config.zipf_theta, static_cast<unsigned long long>(config.seed));
    RunArm(&repo, config, ops, /*rate=*/0, &arms[0], nullptr);
  }

  // The paced arm offers half the measured capacity — the "service below
  // saturation" regime where admission stalls should be routing-only.
  arms[1].mode = "paced";
  std::vector<WriteOp> committed;
  std::string streamed_dump;
  {
    Repository repo;
    const std::vector<WriteOp> ops = BuildArmRepository(config, &repo);
    RunArm(&repo, config, ops, /*rate=*/arms[0].sustained_rate * 0.5,
           &arms[1], &committed);
    streamed_dump = DumpAll(repo.db);
  }

  // Committed-op replay check: the paced arm's final instance must equal a
  // serial re-execution of its committed ops in priority-number order. The
  // replay's repository draws the stream too, so it interns the stream's
  // fresh constants under the ids the committed ops carry.
  Repository replay;
  const std::vector<WriteOp> ops = BuildArmRepository(config, &replay);
  CHECK_EQ(committed.size(), ops.size());
  MinContentAgent replay_agent;
  uint64_t number = 1;
  for (const WriteOp& op : committed) {
    Update u(number++, op, &replay.tgds);
    u.RunToCompletion(&replay.db, &replay_agent);
  }
  const std::string replay_dump = DumpAll(replay.db);
  const bool replay_identical = replay_dump == streamed_dump;
  if (!replay_identical && std::getenv("YOUTOPIA_STREAMING_DEBUG")) {
    std::ofstream("/tmp/streamed.txt") << streamed_dump;
    std::ofstream("/tmp/replayed.txt") << replay_dump;
  }
  CHECK(replay_identical);

  std::printf("%10s %14s %14s %12s %12s %12s %10s\n", "mode", "offered/s",
              "sustained/s", "p50 us", "p99 us", "max us", "inbox hwm");
  for (const bench::StreamingIngestArm& a : arms) {
    std::printf("%10s %14.1f %14.1f %12.1f %12.1f %12.1f %7zu/%zu\n",
                a.mode.c_str(), a.offered_rate, a.sustained_rate,
                a.stall_p50_us, a.stall_p99_us, a.stall_max_us,
                a.inbox_high_watermark, a.inbox_capacity);
  }
  std::printf("replay check: byte-identical=%s\n",
              replay_identical ? "yes" : "NO");

  if (trace_path != nullptr) {
    obs::Tracer::Global().SetEnabled(false);
    if (!obs::Tracer::Global().DumpJson(trace_path)) {
      std::fprintf(stderr, "trace: cannot write %s\n", trace_path);
      return 1;
    }
    std::printf("trace: wrote %s\n", trace_path);
  }

  return bench::WriteStreamingIngestJson("streaming_ingest", config, arms,
                                         replay_identical)
             ? 0
             : 1;
}

}  // namespace
}  // namespace youtopia

int main(int argc, char** argv) { return youtopia::Run(argc, argv); }
