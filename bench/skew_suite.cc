// Adversarial skew suite: does value-aware (heavy-hitter sketch) costing
// actually save work on skewed data, and does it cost anything on uniform
// data? Each fixture pairs a hand-built repository whose statistics lie to
// a uniform cost model with two arms that replay the SAME op stream over
// the SAME initial database — sketch costing ON vs OFF
// (Planner::set_sketch_costing) — and compares rows examined
// (Scheduler::TotalRowsExamined), the planner-quality metric wall time on a
// loaded CI box cannot give. Updates run closed-loop (each completes before
// the next is submitted): batch submission interleaves chase steps across
// in-flight updates, and the arms' different re-plan timing then perturbs
// retry order — concurrency-control noise, not the planner signal.
//
// The trap (see the sigma mapping below): Hot's 'K0' column is Zipf-skewed,
// so its uniform per-value estimate N/distinct says ~30 rows while the real
// 'K0' bucket holds the Zipf head (~20% of the relation at theta 0.99).
// Mid's probe column is genuinely uniform at ~75 rows per value. A uniform
// cost model therefore starts the Probe-pinned violation query at Hot
// (30 < 75) and walks the hot bucket plus one Mid probe per hot row; the
// sketch model prices 'K0' at its tracked (exact) bucket, starts at Mid,
// and examines a fraction of the rows. At theta 0 the 'K0' bucket really
// is ~30 rows, both models order identically, and the arms must tie —
// value-awareness may not tax uniform workloads.
//
// Fixtures: (graph in {chain, fanout}) x (theta in {0, 0.6, <top>}), where
// the tail graph shapes the cascade each repair sets off (a linear
// four-hop chain vs a one-to-three fan-out) and <top> defaults to 0.99
// (--zipf overrides). CI gates on the per-fixture rows_examined ratio:
// off/on >= 2 at the top theta, within +-10% at theta 0 (identical plans
// make the theta-0 arms literally identical runs).
//
// Flags are fig_common's; relevant here: --updates, --runs, --seed, --zipf
// (top theta), --hotp/--hotranks (workload hot-prefix collisions for the
// skewed fixtures), --verbose.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/fig_common.h"
#include "ccontrol/scheduler.h"
#include "query/plan.h"
#include "tgd/parser.h"

namespace youtopia {
namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Seeded repository + mappings for one (graph, theta) fixture. Every arm
// of every run builds its own (BuildFixture), so each starts from the same
// seed data with plans of its own.
struct Fixture {
  Database db;
  std::vector<Value> pool;  // 'K0'..'K49'; rank 0 is the Zipf head
  // Workload draw pool: the K head followed by a long cold tail
  // ('W0'..), so a theta-0 stream spreads too thin to grow new heavy
  // hitters mid-run — emergent hot sets would make the sketch arm replan
  // (hot-set rotation) where the control cannot, and the theta-0 arms
  // must stay plan-identical for the parity gate to be meaningful. The
  // Zipf head and the --hotp collision prefix still land on K0..K3.
  std::vector<Value> workload_pool;
  std::vector<Tgd> tgds;
};

constexpr size_t kPoolSize = 50;
constexpr size_t kHotRows = 1500;   // Hot(h, u): h Zipf(theta) over the pool
constexpr size_t kMidRows = 3000;   // Mid(u, v): v uniform over 40 values
constexpr size_t kProbeRows = 40;   // Probe(v, t): one seed row per v
constexpr size_t kMuValues = 1000;  // join-attribute domain ("mu0"..)
constexpr size_t kWorkloadPool = 500;  // K head + cold 'W' tail (see Fixture)

void BuildFixture(const std::string& graph, double theta, uint64_t seed,
                  bool verbose, Fixture* out) {
  Fixture& fx = *out;
  Database& db = fx.db;
  CHECK(db.CreateRelation("Hot", {"h", "u"}).ok());
  CHECK(db.CreateRelation("Mid", {"u", "v"}).ok());
  CHECK(db.CreateRelation("Probe", {"v", "t"}).ok());
  CHECK(db.CreateRelation("T1", {"v", "z"}).ok());
  if (graph == "chain") {
    CHECK(db.CreateRelation("T2", {"a", "b"}).ok());
    CHECK(db.CreateRelation("T3", {"a", "b"}).ok());
    CHECK(db.CreateRelation("T4", {"a", "b"}).ok());
  } else {
    CHECK(db.CreateRelation("T2a", {"a", "b"}).ok());
    CHECK(db.CreateRelation("T2b", {"a", "b"}).ok());
    CHECK(db.CreateRelation("T2c", {"a", "b"}).ok());
  }

  for (size_t i = 0; i < kPoolSize; ++i) {
    fx.pool.push_back(db.InternConstant("K" + std::to_string(i)));
  }
  fx.workload_pool = fx.pool;
  for (size_t i = kPoolSize; i < kWorkloadPool; ++i) {
    fx.workload_pool.push_back(db.InternConstant("W" + std::to_string(i)));
  }

  TgdParser parser(&db.catalog(), &db.symbols());
  auto add = [&](const std::string& text) {
    Result<Tgd> tgd = parser.ParseTgd(text);
    CHECK(tgd.ok());
    fx.tgds.push_back(std::move(tgd).value());
  };
  // The adversarial mapping: a Probe write pins its atom and leaves
  // Hot('K0', u) & Mid(u, v) as the residual the planner must order.
  add("Hot('K0', u) & Mid(u, v) & Probe(v, t) -> exists z: T1(v, z)");
  if (graph == "chain") {
    add("T1(a, b) -> exists c: T2(b, c)");
    add("T2(a, b) -> exists c: T3(b, c)");
    add("T3(a, b) -> exists c: T4(b, c)");
  } else {
    add("T1(a, b) -> exists c: T2a(b, c)");
    add("T1(a, b) -> exists c: T2b(b, c)");
    add("T1(a, b) -> exists c: T2c(b, c)");
  }

  // Seed directly at update number 0 (visible to every reader). Duplicate
  // draws are absorbed by set semantics, so row counts are approximate —
  // what matters is the shape: Hot piles theta-skewed mass onto 'K0',
  // Mid stays uniform at ~kMidRows/40 rows per v value.
  Rng rng(seed ^ 0x5eed5eedULL);
  const ZipfianSampler zipf(kPoolSize, theta);
  auto mu = [&](uint64_t i) {
    return db.InternConstant("mu" + std::to_string(i));
  };
  const RelationId hot = 0, mid = 1, probe = 2;
  for (size_t i = 0; i < kHotRows; ++i) {
    db.Apply(WriteOp::Insert(
                 hot, {fx.pool[zipf.Sample(&rng)], mu(rng.Uniform(kMuValues))}),
             0);
  }
  for (size_t i = 0; i < kMidRows; ++i) {
    db.Apply(WriteOp::Insert(
                 mid, {mu(rng.Uniform(kMuValues)), fx.pool[rng.Uniform(40)]}),
             0);
  }
  const Value tag = db.InternConstant("t0");
  for (size_t i = 0; i < kProbeRows; ++i) {
    db.Apply(WriteOp::Insert(probe, {fx.pool[i], tag}), 0);
  }
  if (verbose) {
    std::fprintf(stderr,
                 "[skew_suite] fixture %s theta=%.2f: Hot=%zu Mid=%zu "
                 "'K0' bucket=%zu\n",
                 graph.c_str(), theta, db.CountVisible(hot, kReadLatest),
                 db.CountVisible(mid, kReadLatest),
                 db.relation(hot).Bucket(0, fx.pool[0]).size());
  }
}

uint64_t TotalReplans(const std::vector<Tgd>& tgds) {
  uint64_t n = 0;
  for (const Tgd& tgd : tgds) n += tgd.replan_count();
  return n;
}

void MeasureArms(const std::string& graph, double theta,
                 const ExperimentConfig& config,
                 std::vector<bench::SkewSuiteArm>* arms, bool verbose) {
  const size_t first = arms->size();
  for (bool sketch : {false, true}) {
    bench::SkewSuiteArm arm;
    arm.graph = graph;
    arm.zipf_theta = theta;
    arm.sketch = sketch;
    arms->push_back(arm);
  }
  // The hot-prefix collision knob only applies to the skewed fixtures — the
  // theta-0 fixture is the uniform control and must stay uniform.
  WorkloadOptions wl_opts;
  wl_opts.num_updates = config.updates_per_run;
  wl_opts.delete_fraction = 0.0;
  wl_opts.p_fresh_value = 0.0;  // pool values only: keep the joins hot
  wl_opts.zipf_theta = theta;
  wl_opts.p_hot_value = theta > 0 ? config.p_hot_value : 0.0;
  wl_opts.hot_pool_ranks = config.hot_pool_ranks;
  for (size_t run = 0; run < config.runs; ++run) {
    for (size_t a = 0; a < 2; ++a) {
      bench::SkewSuiteArm& arm = (*arms)[first + a];
      // One op stream per run, drawn from one seed on each arm's own
      // fixture, so both arms replay it over the same seeded repository.
      Fixture fx;
      BuildFixture(graph, theta, config.seed, verbose, &fx);
      Rng wl_rng(config.seed + 1000003 + 7919 * (run + 1));
      const std::vector<WriteOp> ops =
          GenerateWorkload(&fx.db, fx.workload_pool, &wl_rng, wl_opts);
      Planner::set_sketch_costing(arm.sketch);
      RandomAgent agent(config.seed + 31 * run);
      SchedulerOptions sopts;
      sopts.max_steps_per_update = config.max_steps_per_update;
      sopts.max_attempts_per_update = config.max_attempts_per_update;
      const double start = Now();
      Scheduler scheduler(&fx.db, &fx.tgds, &agent, sopts);
      // Closed-loop: one update completes before the next is submitted.
      // Batching all ops up front would interleave chase steps across
      // in-flight updates, and the two arms' different re-plan timing then
      // perturbs retry/interleaving order — a concurrency-control effect
      // that swamps the planner signal this suite exists to measure.
      for (const WriteOp& op : ops) {
        scheduler.Submit(op);
        scheduler.RunToCompletion();
      }
      arm.seconds += Now() - start;
      arm.rows_examined += scheduler.TotalRowsExamined();
      arm.replans += TotalReplans(fx.tgds);
      arm.committed += scheduler.stats().updates_completed;
      arm.steps += static_cast<double>(scheduler.stats().total_steps);
      if (verbose) {
        std::fprintf(stderr,
                     "[skew_suite] %s theta=%.2f sketch=%d run=%zu "
                     "rows=%llu\n",
                     arm.graph.c_str(), arm.zipf_theta, arm.sketch ? 1 : 0,
                     run,
                     static_cast<unsigned long long>(arm.rows_examined));
      }
    }
  }
  Planner::set_sketch_costing(true);  // leave the process-wide default on
}

int Run(int argc, char** argv) {
  ExperimentConfig defaults;
  defaults.num_constants = kPoolSize;
  defaults.mapping_counts = {4};  // unused; keeps ParseFlagsOver's check quiet
  defaults.updates_per_run = 500;
  defaults.runs = 2;
  defaults.seed = 1;
  defaults.zipf_theta = 0.99;  // top theta of the sweep (--zipf overrides)
  defaults.p_hot_value = 0.25;
  defaults.hot_pool_ranks = 4;
  bool verbose = false;
  ExperimentConfig config =
      bench::ParseFlagsOver(std::move(defaults), argc, argv, &verbose);

  std::vector<bench::SkewSuiteArm> arms;
  const double thetas[] = {0.0, 0.6, config.zipf_theta};
  for (const std::string graph : {"chain", "fanout"}) {
    for (double theta : thetas) {
      MeasureArms(graph, theta, config, &arms, verbose);
    }
  }

  std::printf("=== skew_suite ===\n");
  std::printf(
      "config: updates/run=%zu runs=%zu seed=%llu top-theta=%.2f hotp=%.2f\n",
      config.updates_per_run, config.runs,
      static_cast<unsigned long long>(config.seed), config.zipf_theta,
      config.p_hot_value);
  std::printf("%8s %7s %8s %14s %8s %10s %12s %10s\n", "graph", "theta",
              "sketch", "rows_examined", "replans", "committed", "steps",
              "ratio");
  for (size_t i = 0; i < arms.size(); ++i) {
    const bench::SkewSuiteArm& a = arms[i];
    // Arms come in (off, on) pairs; print off/on rows ratio on the on-row.
    std::string ratio = "-";
    if (a.sketch && i > 0 && a.rows_examined > 0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2fx",
                    static_cast<double>(arms[i - 1].rows_examined) /
                        static_cast<double>(a.rows_examined));
      ratio = buf;
    }
    std::printf("%8s %7.2f %8s %14llu %8llu %10zu %12.0f %10s\n",
                a.graph.c_str(), a.zipf_theta, a.sketch ? "on" : "off",
                static_cast<unsigned long long>(a.rows_examined),
                static_cast<unsigned long long>(a.replans), a.committed,
                a.steps, ratio.c_str());
  }

  return bench::WriteSkewSuiteJson("skew_suite", config, arms) ? 0 : 1;
}

}  // namespace
}  // namespace youtopia

int main(int argc, char** argv) { return youtopia::Run(argc, argv); }
