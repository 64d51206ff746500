#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "ccontrol/scheduler.h"
#include "core/update.h"
#include "obs/watchdog.h"
#include "workload/generators.h"

namespace youtopia {
namespace {

// Stall-armed engine drive. This sweep is the one that occasionally hangs
// under the sanitizer presets with no output until the ctest timeout kills
// it attribution-free (the open ROADMAP heisenbug). The watchdog polls the
// engine's step counter — the only Scheduler member safe to read from
// another thread — and on a freeze dumps the counter plus every thread's
// held-lock stack (under the checked presets) and aborts, so the next
// occurrence self-reports instead of timing out silently.
void RunToCompletionArmed(Scheduler* scheduler, const char* name) {
  obs::WatchdogOptions wd;
  // Generous: the slowest case runs ~8.5 min under ASan+UBSan but steps
  // continuously; 90 s with zero steps means wedged, not slow.
  wd.deadline_ms = 90000;
  wd.poll_ms = 500;
  wd.fatal = true;
  wd.name = name;
  wd.progress = [scheduler] { return scheduler->ProgressTicks(); };
  wd.dump = [scheduler](std::string* out) {
    out->append("engine step count: " +
                std::to_string(scheduler->ProgressTicks()) + "\n");
  };
  obs::StallWatchdog dog(std::move(wd));
  dog.Start();
  scheduler->RunToCompletion();
  dog.Stop();
}

// Theorem 4.4 property test: a concurrent run under the optimistic
// scheduler must produce the same final database as running the committed
// updates serially, in final priority-number order, with the same
// (content-deterministic) simulated user.
//
// The mappings here are *full* tgds (no existential variables), so all
// chase-generated tuples are ground: the forward chase is deterministic and
// deletes are the only source of frontier choices, which MinContentAgent
// resolves as a pure function of the visible state. Any divergence between
// the concurrent and serial runs therefore indicates a serializability bug.

// Relation contents as a sorted list of tuples (set semantics).
std::map<RelationId, std::vector<TupleData>> Contents(const Database& db) {
  std::map<RelationId, std::vector<TupleData>> out;
  for (RelationId r = 0; r < db.num_relations(); ++r) {
    std::vector<TupleData> rows;
    db.relation(r).ForEachVisible(
        kReadLatest, [&](RowId, const TupleData& d) { rows.push_back(d); });
    std::sort(rows.begin(), rows.end());
    out[r] = std::move(rows);
  }
  return out;
}

// Keeps only tgds without existential variables.
std::vector<Tgd> FullTgdsOnly(std::vector<Tgd> tgds, size_t want) {
  std::vector<Tgd> out;
  for (Tgd& tgd : tgds) {
    if (tgd.existential_vars().empty()) out.push_back(std::move(tgd));
    if (out.size() == want) break;
  }
  return out;
}

struct SerializabilityCase {
  uint64_t seed;
  TrackerKind tracker;
  double delete_fraction;
};

// A case's repository (full tgds only, seeded under MinContentAgent) and
// the workload drawn on it. The concurrent run and the serial replay each
// build their own from the case's seeds, so both start from one initial
// database with one stream.
struct CaseRepository {
  Database db;
  std::vector<Tgd> tgds;
  std::vector<WriteOp> ops;
};

void BuildCase(const SerializabilityCase& param, CaseRepository* repo) {
  Database& db = repo->db;
  Rng rng(param.seed);
  SchemaGenOptions schema_opts;
  schema_opts.num_relations = 16;
  ASSERT_TRUE(GenerateSchema(&db, &rng, schema_opts).ok());
  const std::vector<Value> constants = GenerateConstantPool(&db, &rng, 10);
  MappingGenOptions mapping_opts;
  mapping_opts.count = 40;
  mapping_opts.p_frontier = 1.0;  // bias toward full tgds
  repo->tgds = FullTgdsOnly(
      GenerateMappings(db, constants, &rng, mapping_opts), 12);
  ASSERT_GE(repo->tgds.size(), 6u);

  // Seed the repository (ground tuples only; the chase is deterministic).
  MinContentAgent agent;
  InitialDataOptions data_opts;
  data_opts.num_tuples = 120;
  GenerateInitialData(&db, &repo->tgds, constants, &rng, &agent, data_opts);

  WorkloadOptions wl;
  wl.num_updates = 60;
  wl.delete_fraction = param.delete_fraction;
  wl.p_fresh_value = 0.3;
  Rng wl_rng(param.seed * 31 + 1);
  repo->ops = GenerateWorkload(&db, constants, &wl_rng, wl);
}

class SerializabilityTest
    : public ::testing::TestWithParam<SerializabilityCase> {};

TEST_P(SerializabilityTest, ConcurrentEqualsSerialInFinalOrder) {
  const SerializabilityCase param = GetParam();
  MinContentAgent agent;

  // --- Concurrent run. -----------------------------------------------------
  CaseRepository run;
  ASSERT_NO_FATAL_FAILURE(BuildCase(param, &run));
  SchedulerOptions sched_opts;
  sched_opts.tracker = param.tracker;
  Scheduler scheduler(&run.db, &run.tgds, &agent, sched_opts);
  for (const WriteOp& op : run.ops) scheduler.Submit(op);
  RunToCompletionArmed(&scheduler, "serializability-sweep");
  ASSERT_EQ(scheduler.num_failed(), 0u);
  ASSERT_EQ(scheduler.stats().updates_completed, run.ops.size());
  const auto concurrent = Contents(run.db);
  const std::vector<WriteOp> serial_order = scheduler.CommittedOpsInOrder();
  ASSERT_EQ(serial_order.size(), run.ops.size());

  // --- Serial replay in final priority order. ------------------------------
  CaseRepository replay;
  ASSERT_NO_FATAL_FAILURE(BuildCase(param, &replay));
  uint64_t number = 1;
  for (const WriteOp& op : serial_order) {
    Update update(number++, op, &replay.tgds);
    update.RunToCompletion(&replay.db, &agent);
    ASSERT_TRUE(update.finished());
  }
  const auto serial = Contents(replay.db);

  // --- Equivalence. ---------------------------------------------------------
  ASSERT_EQ(concurrent.size(), serial.size());
  for (const auto& [rel, rows] : serial) {
    EXPECT_EQ(concurrent.at(rel), rows)
        << "relation " << replay.db.catalog().schema(rel).name
        << " diverged (tracker=" << TrackerKindName(param.tracker)
        << ", seed=" << param.seed << ")";
  }
}

// Stable, human-readable ctest names (Seed3_PRECISE_Del0 instead of gtest's
// raw byte dump of the param struct). Each case is registered as its own
// ctest entry by gtest_discover_tests, so `ctest -j` runs the sweep's cases
// in parallel instead of serializing them inside one binary.
std::string CaseName(
    const ::testing::TestParamInfo<SerializabilityCase>& info) {
  return "Seed" + std::to_string(info.param.seed) + "_" +
         TrackerKindName(info.param.tracker) + "_Del" +
         std::to_string(static_cast<int>(info.param.delete_fraction * 100));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SerializabilityTest,
    ::testing::Values(
        SerializabilityCase{1, TrackerKind::kCoarse, 0.0},
        SerializabilityCase{2, TrackerKind::kCoarse, 0.2},
        SerializabilityCase{3, TrackerKind::kPrecise, 0.0},
        SerializabilityCase{4, TrackerKind::kPrecise, 0.2},
        SerializabilityCase{5, TrackerKind::kNaive, 0.2},
        SerializabilityCase{6, TrackerKind::kCoarse, 0.3},
        SerializabilityCase{7, TrackerKind::kPrecise, 0.3},
        SerializabilityCase{8, TrackerKind::kPrecise, 0.1},
        SerializabilityCase{9, TrackerKind::kCoarse, 0.1},
        SerializabilityCase{10, TrackerKind::kNaive, 0.0}),
    CaseName);

// With existentials the concurrent and serial runs are not tuple-identical
// (fresh null identities differ), but every committed run must leave a
// database satisfying all mappings — the weaker invariant that holds
// unconditionally.
class SatisfactionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SatisfactionTest, FinalStateSatisfiesAllMappings) {
  Database db;
  Rng rng(GetParam());
  SchemaGenOptions schema_opts;
  schema_opts.num_relations = 14;
  ASSERT_TRUE(GenerateSchema(&db, &rng, schema_opts).ok());
  const std::vector<Value> constants = GenerateConstantPool(&db, &rng, 8);
  MappingGenOptions mapping_opts;
  mapping_opts.count = 12;
  std::vector<Tgd> tgds = GenerateMappings(db, constants, &rng, mapping_opts);
  RandomAgent agent(GetParam() ^ 0xabcdef);
  InitialDataOptions data_opts;
  data_opts.num_tuples = 80;
  GenerateInitialData(&db, &tgds, constants, &rng, &agent, data_opts);

  WorkloadOptions wl;
  wl.num_updates = 40;
  wl.delete_fraction = 0.25;
  const std::vector<WriteOp> ops = GenerateWorkload(&db, constants, &rng, wl);
  SchedulerOptions sched_opts;
  sched_opts.tracker = TrackerKind::kCoarse;
  Scheduler scheduler(&db, &tgds, &agent, sched_opts);
  for (const WriteOp& op : ops) scheduler.Submit(op);
  RunToCompletionArmed(&scheduler, "satisfaction-sweep");
  ASSERT_EQ(scheduler.num_failed(), 0u);

  ViolationDetector detector(&tgds);
  Snapshot snap(&db, kReadLatest);
  EXPECT_TRUE(detector.SatisfiesAll(snap));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatisfactionTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace youtopia
