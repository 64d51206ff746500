#include "bench/report.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "ccontrol/dependency_tracker.h"

namespace youtopia {
namespace bench {

namespace {

// Emits `stages` as a JSON array on one line per stage, using `indent` for
// the array's own indentation. Empty summaries render as "[]".
void WriteStagesJson(std::ofstream& out,
                     const std::vector<StageSummary>& stages,
                     const char* indent) {
  if (stages.empty()) {
    out << "[]";
    return;
  }
  out << "[\n";
  for (size_t i = 0; i < stages.size(); ++i) {
    const StageSummary& s = stages[i];
    out << indent << "  {\"stage\": \"" << s.stage << "\", \"count\": "
        << s.count << ", \"p50_ns\": " << s.p50_ns << ", \"p90_ns\": "
        << s.p90_ns << ", \"p99_ns\": " << s.p99_ns << ", \"max_ns\": "
        << s.max_ns << "}" << (i + 1 < stages.size() ? ",\n" : "\n");
  }
  out << indent << "]";
}

}  // namespace

std::vector<StageSummary> SummarizeStages(const obs::MetricsSnapshot& snap) {
  std::vector<StageSummary> out;
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    const obs::HistogramSnapshot& h = snap.stages[i];
    if (h.total == 0) continue;
    StageSummary s;
    s.stage = obs::StageName(static_cast<obs::Stage>(i));
    s.count = h.total;
    s.p50_ns = h.p50();
    s.p90_ns = h.p90();
    s.p99_ns = h.p99();
    s.max_ns = h.max;
    out.push_back(std::move(s));
  }
  return out;
}

std::string BenchJsonPath(const std::string& name) {
  std::string dir;
  if (const char* env = std::getenv("YOUTOPIA_BENCH_DIR")) dir = env;
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + "BENCH_" + name + ".json";
}

bool WriteExperimentJson(const std::string& name, const std::string& workload,
                         const ExperimentConfig& config,
                         const ExperimentResult& result) {
  const std::string path = BenchJsonPath(name);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }

  out << "{\n";
  out << "  \"name\": \"" << name << "\",\n";
  out << "  \"workload\": \"" << workload << "\",\n";
  out << "  \"config\": {\n";
  out << "    \"relations\": " << config.num_relations << ",\n";
  out << "    \"constants\": " << config.num_constants << ",\n";
  out << "    \"initial_tuples\": " << config.initial_tuples << ",\n";
  out << "    \"updates_per_run\": " << config.updates_per_run << ",\n";
  out << "    \"delete_fraction\": " << config.delete_fraction << ",\n";
  out << "    \"runs\": " << config.runs << ",\n";
  out << "    \"seed\": " << config.seed << ",\n";
  out << "    \"zipf_theta\": " << config.zipf_theta << ",\n";
  // Always 1: the figure sweeps run the serial Scheduler (the key keeps
  // the report schema stable).
  out << "    \"workers\": " << config.workers << ",\n";
  out << "    \"islands\": " << config.islands << "\n";
  out << "  },\n";
  out << "  \"initial\": {\n";
  out << "    \"seed_inserts\": " << result.initial.seed_inserts << ",\n";
  out << "    \"visible_tuples\": " << result.initial.total_tuples << ",\n";
  out << "    \"chase_steps\": " << result.initial.chase_steps << "\n";
  out << "  },\n";

  out << "  \"cells\": [\n";
  bool first = true;
  for (size_t i = 0; i < result.mapping_counts.size(); ++i) {
    for (size_t t = 0; t < 3; ++t) {
      const CellStats& cell = result.cells[i][t];
      if (!first) out << ",\n";
      first = false;
      const double updates_per_second =
          cell.per_update_seconds > 0 ? 1.0 / cell.per_update_seconds : 0.0;
      out << "    {\"mappings\": " << result.mapping_counts[i]
          << ", \"tracker\": \""
          << TrackerKindName(static_cast<TrackerKind>(t)) << "\""
          << ", \"runs\": " << cell.runs << ", \"aborts\": " << cell.aborts
          << ", \"cascading_abort_requests\": "
          << cell.cascading_abort_requests
          << ", \"per_update_seconds\": " << cell.per_update_seconds
          << ", \"updates_per_second\": " << updates_per_second
          << ", \"steps\": " << cell.steps << ", \"failed\": " << cell.failed
          << ", \"tracker_writes_tested\": " << cell.tracker_writes_tested
          << ", \"read_log_pairs_tested\": " << cell.read_log_pairs_tested
          << ", \"read_log_queries_scanned\": "
          << cell.read_log_queries_scanned
          << ", \"cascade_marks_scanned\": " << cell.cascade_marks_scanned
          << "}";
    }
  }
  out << "\n  ],\n";

  // Storage footprint of the last cell's repository after its run (every
  // cell runs on a repository of its own): its seed data plus that one
  // run's versions, with the rows of its aborted inserts.
  const StorageFootprint& storage = result.storage;
  out << "  \"storage\": {\n";
  out << "    \"relations\": " << storage.relations << ",\n";
  out << "    \"rows\": " << storage.rows << ",\n";
  out << "    \"versions\": " << storage.versions << ",\n";
  out << "    \"index_entries\": " << storage.index_entries << "\n";
  out << "  }\n";
  out << "}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "bench: failed writing %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "bench: wrote %s\n", path.c_str());
  return true;
}

bool WriteParallelScaleJson(const std::string& name,
                            const ExperimentConfig& config,
                            const std::vector<ParallelScalePoint>& points) {
  const std::string path = BenchJsonPath(name);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\n";
  out << "  \"name\": \"" << name << "\",\n";
  // Version 5 drops the per-arm sub-worker count and intra-shard counters
  // (one worker per shard); 4 added per-arm stage latency summaries from the
  // pipeline's metrics registry; 3 added zipf_theta to the config block.
  out << "  \"schema_version\": 5,\n";
  out << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n";
  out << "  \"config\": {\n";
  out << "    \"relations\": " << config.num_relations << ",\n";
  out << "    \"mappings\": " << config.num_mappings_total << ",\n";
  out << "    \"islands\": " << config.islands << ",\n";
  out << "    \"chain_length\": " << config.chain_length << ",\n";
  out << "    \"fan_out\": " << config.fan_out << ",\n";
  out << "    \"initial_tuples\": " << config.initial_tuples << ",\n";
  out << "    \"updates_per_run\": " << config.updates_per_run << ",\n";
  out << "    \"runs\": " << config.runs << ",\n";
  out << "    \"zipf_theta\": " << config.zipf_theta << ",\n";
  out << "    \"seed\": " << config.seed << "\n";
  out << "  },\n";
  out << "  \"arms\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const ParallelScalePoint& p = points[i];
    out << "    {\"engine\": \"" << p.engine << "\", \"graph\": \""
        << p.graph << "\", \"workers\": " << p.workers
        << ", \"seconds_per_run\": " << p.seconds_per_run
        << ", \"updates_per_second\": " << p.updates_per_second
        << ", \"speedup_vs_serial\": " << p.speedup_vs_serial
        << ", \"aborts\": " << p.aborts << ", \"cross_shard\": "
        << p.cross_shard << ", \"escaped\": " << p.escaped
        << ",\n     \"stages\": ";
    WriteStagesJson(out, p.stages, "     ");
    out << "}" << (i + 1 < points.size() ? ",\n" : "\n");
  }
  out << "  ]\n";
  out << "}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "bench: failed writing %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "bench: wrote %s\n", path.c_str());
  return true;
}

bool WriteStreamingIngestJson(const std::string& name,
                              const ExperimentConfig& config,
                              const std::vector<StreamingIngestArm>& arms,
                              bool replay_identical) {
  const std::string path = BenchJsonPath(name);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\n";
  out << "  \"name\": \"" << name << "\",\n";
  // Version 2 adds per-arm stage latency summaries; files without the
  // field are version 1.
  out << "  \"schema_version\": 2,\n";
  out << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n";
  out << "  \"config\": {\n";
  out << "    \"relations\": " << config.num_relations << ",\n";
  out << "    \"mappings\": " << config.num_mappings_total << ",\n";
  out << "    \"islands\": " << config.islands << ",\n";
  out << "    \"workers\": " << config.workers << ",\n";
  out << "    \"initial_tuples\": " << config.initial_tuples << ",\n";
  out << "    \"ops\": " << config.updates_per_run << ",\n";
  out << "    \"zipf_theta\": " << config.zipf_theta << ",\n";
  out << "    \"seed\": " << config.seed << "\n";
  out << "  },\n";
  out << "  \"replay_identical\": " << (replay_identical ? "true" : "false")
      << ",\n";
  out << "  \"arms\": [\n";
  for (size_t i = 0; i < arms.size(); ++i) {
    const StreamingIngestArm& a = arms[i];
    out << "    {\"mode\": \"" << a.mode << "\", \"offered_rate\": "
        << a.offered_rate << ", \"wall_seconds\": " << a.wall_seconds
        << ", \"sustained_rate\": " << a.sustained_rate
        << ", \"stall_p50_us\": " << a.stall_p50_us
        << ", \"stall_p99_us\": " << a.stall_p99_us
        << ", \"stall_max_us\": " << a.stall_max_us
        << ", \"admission_stall_seconds\": " << a.admission_stall_seconds
        << ", \"inbox_high_watermark\": " << a.inbox_high_watermark
        << ", \"inbox_capacity\": " << a.inbox_capacity
        << ", \"pinned\": " << a.pinned << ", \"cross_shard\": "
        << a.cross_shard << ", \"escaped\": " << a.escaped
        << ",\n     \"stages\": ";
    WriteStagesJson(out, a.stages, "     ");
    out << "}" << (i + 1 < arms.size() ? ",\n" : "\n");
  }
  out << "  ]\n";
  out << "}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "bench: failed writing %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "bench: wrote %s\n", path.c_str());
  return true;
}

bool WriteSkewSuiteJson(const std::string& name,
                        const ExperimentConfig& config,
                        const std::vector<SkewSuiteArm>& arms) {
  const std::string path = BenchJsonPath(name);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\n";
  out << "  \"name\": \"" << name << "\",\n";
  out << "  \"schema_version\": 1,\n";
  out << "  \"config\": {\n";
  out << "    \"constants\": " << config.num_constants << ",\n";
  out << "    \"updates_per_run\": " << config.updates_per_run << ",\n";
  out << "    \"zipf_theta\": " << config.zipf_theta << ",\n";
  out << "    \"seed\": " << config.seed << "\n";
  out << "  },\n";
  out << "  \"arms\": [\n";
  for (size_t i = 0; i < arms.size(); ++i) {
    const SkewSuiteArm& a = arms[i];
    out << "    {\"graph\": \"" << a.graph << "\", \"zipf_theta\": "
        << a.zipf_theta << ", \"sketch\": " << (a.sketch ? "true" : "false")
        << ", \"rows_examined\": " << a.rows_examined
        << ", \"replans\": " << a.replans
        << ", \"committed\": " << a.committed << ", \"steps\": " << a.steps
        << ", \"seconds\": " << a.seconds << "}"
        << (i + 1 < arms.size() ? ",\n" : "\n");
  }
  out << "  ]\n";
  out << "}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "bench: failed writing %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "bench: wrote %s\n", path.c_str());
  return true;
}

}  // namespace bench
}  // namespace youtopia
