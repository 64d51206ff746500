#include "core/youtopia.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace youtopia {
namespace {

class YoutopiaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(repo_.CreateRelation("A", {"location", "name"}).ok());
    ASSERT_TRUE(
        repo_.CreateRelation("T", {"attraction", "company", "start"}).ok());
    ASSERT_TRUE(
        repo_.CreateRelation("R", {"company", "attraction", "review"}).ok());
    ASSERT_TRUE(
        repo_.AddMapping("A(l, n) & T(n, co, s) -> exists r: R(co, n, r)")
            .ok());
  }

  Youtopia repo_;
};

TEST_F(YoutopiaTest, InsertPropagates) {
  ASSERT_TRUE(repo_.Insert("A", {"Geneva", "Winery"}).ok());
  auto report = repo_.Insert("T", {"Winery", "XYZ", "Syracuse"});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->completed);
  EXPECT_EQ(*repo_.Count("R"), 1u);
  EXPECT_TRUE(repo_.AllMappingsSatisfied());
}

TEST_F(YoutopiaTest, SchemaErrorsSurface) {
  EXPECT_FALSE(repo_.CreateRelation("A", {"dup"}).ok());
  EXPECT_FALSE(repo_.Insert("Nope", {"x"}).ok());
  EXPECT_FALSE(repo_.Insert("A", {"too", "many", "values"}).ok());
  EXPECT_FALSE(repo_.AddMapping("A(l) -> R(l, l, l)").ok());  // arity
  EXPECT_FALSE(repo_.Delete("A", {"absent", "tuple"}).ok());
}

TEST_F(YoutopiaTest, NamedNullsRoundTrip) {
  ASSERT_TRUE(repo_.Insert("A", {"Geneva", "Winery"}).ok());
  ASSERT_TRUE(repo_.Insert("T", {"Winery", "?who", "Syracuse"}).ok());
  // The same name refers to the same null.
  ASSERT_TRUE(repo_.Insert("R", {"?who", "Winery", "ok"}).ok());
  ASSERT_TRUE(repo_.ReplaceNull("?who", "XYZ").ok());
  auto q = repo_.Query("T('Winery', co, s)", {"co"},
                       QuerySemantics::kCertain);
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->tuples.size(), 1u);
  EXPECT_EQ(q->rendered[0], "(XYZ)");
  EXPECT_FALSE(repo_.ReplaceNull("?unknown", "x").ok());
}

TEST_F(YoutopiaTest, AnonymousNullsAreFresh) {
  ASSERT_TRUE(repo_.Insert("R", {"_", "Winery", "_"}).ok());
  auto q = repo_.Query("R(co, n, r)", {"co", "r"},
                       QuerySemantics::kBestEffort);
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->tuples.size(), 1u);
  EXPECT_NE(q->tuples[0][0], q->tuples[0][1]);  // two distinct nulls
  // "_" cannot address an existing tuple for deletion.
  EXPECT_FALSE(repo_.Delete("R", {"_", "Winery", "_"}).ok());
}

TEST_F(YoutopiaTest, AddMappingRepairsExistingData) {
  ASSERT_TRUE(repo_.Insert("A", {"Geneva", "Winery"}).ok());
  ASSERT_TRUE(repo_.Insert("T", {"Winery", "XYZ", "Syracuse"}).ok());
  // A second mapping arrives later; the backlog is chased immediately.
  ASSERT_TRUE(repo_.CreateRelation("Seen", {"name"}).ok());
  ASSERT_TRUE(repo_.AddMapping("A(l, n) -> Seen(n)").ok());
  EXPECT_EQ(*repo_.Count("Seen"), 1u);
  EXPECT_TRUE(repo_.AllMappingsSatisfied());
}

TEST_F(YoutopiaTest, DeleteCascadesThroughAgent) {
  ASSERT_TRUE(repo_.Insert("A", {"Geneva", "Winery"}).ok());
  ASSERT_TRUE(repo_.Insert("T", {"Winery", "XYZ", "Syracuse"}).ok());
  ASSERT_TRUE(repo_.ReplaceNull("?r", "ignored").ok() == false);
  // Delete the review; the default RandomAgent picks a victim; mappings
  // hold afterwards either way.
  auto q = repo_.Query("R(co, n, r)", {"co", "n", "r"},
                       QuerySemantics::kBestEffort);
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->tuples.size(), 1u);
  // Address the tuple through its null via a named handle is not possible
  // here (chase-created), so delete via the tour instead.
  ASSERT_TRUE(repo_.Delete("T", {"Winery", "XYZ", "Syracuse"}).ok());
  EXPECT_TRUE(repo_.AllMappingsSatisfied());
}

TEST_F(YoutopiaTest, QueuedBatchRunsConcurrently) {
  ASSERT_TRUE(repo_.Insert("A", {"Geneva", "Winery"}).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(repo_
                    .QueueInsert("T", {"Winery", "Co" + std::to_string(i),
                                       "Syracuse"})
                    .ok());
  }
  const uint64_t before = repo_.next_update_number();
  auto stats = repo_.RunQueued(TrackerKind::kPrecise);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->updates_completed, 8u);
  EXPECT_EQ(*repo_.Count("R"), 8u);
  EXPECT_TRUE(repo_.AllMappingsSatisfied());
  // The facade's sequence continues exactly past the numbers the engine
  // claimed: one per submit plus one per redo. No update was written off,
  // so every abort was a redo.
  ASSERT_EQ(stats->updates_failed, 0u);
  EXPECT_EQ(repo_.next_update_number(),
            before + stats->updates_submitted + stats->aborts);
}

TEST_F(YoutopiaTest, WeakAcyclicityReporting) {
  EXPECT_TRUE(repo_.MappingsWeaklyAcyclic());
  ASSERT_TRUE(repo_.CreateRelation("Person", {"name"}).ok());
  ASSERT_TRUE(repo_.CreateRelation("Father", {"child", "father"}).ok());
  ASSERT_TRUE(
      repo_.AddMapping("Person(x) -> exists y: Father(x, y) & Person(y)")
          .ok());
  EXPECT_FALSE(repo_.MappingsWeaklyAcyclic());
}

TEST_F(YoutopiaTest, AsyncBatchDrainsInParallelAndStaysConsistent) {
  // Two more islands disjoint from the A/T/R component give the pipeline
  // something to actually shard.
  ASSERT_TRUE(repo_.CreateRelation("P", {"x"}).ok());
  ASSERT_TRUE(repo_.CreateRelation("Q", {"x", "y"}).ok());
  ASSERT_TRUE(repo_.AddMapping("P(x) -> exists y: Q(x, y)").ok());
  ASSERT_TRUE(repo_.Insert("A", {"Geneva", "Winery"}).ok());
  for (int i = 0; i < 4; ++i) {
    const std::string n = std::to_string(i);
    ASSERT_TRUE(repo_.InsertAsync("P", {"p" + n}).ok());
    ASSERT_TRUE(
        repo_.InsertAsync("T", {"Winery", "co" + n, "Syracuse"}).ok());
  }
  ASSERT_TRUE(repo_.Start(/*workers=*/2).ok());
  auto stats = repo_.Flush();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->workers, 2u);
  EXPECT_EQ(stats->totals.updates_completed, 8u);
  EXPECT_EQ(stats->pinned_updates, 8u);
  EXPECT_EQ(stats->totals.aborts, 0u);
  EXPECT_EQ(*repo_.Count("P"), 4u);
  EXPECT_EQ(*repo_.Count("Q"), 4u);
  EXPECT_EQ(*repo_.Count("R"), 4u);
  EXPECT_TRUE(repo_.AllMappingsSatisfied());
  // The facade's numbering continues past the flushed updates, so a serial
  // insert after the flush gets a fresh number.
  ASSERT_TRUE(repo_.Insert("A", {"Ithaca", "Gorges"}).ok());
  EXPECT_TRUE(repo_.AllMappingsSatisfied());
}

TEST_F(YoutopiaTest, ReplaceNullAsyncRunsCrossShard) {
  ASSERT_TRUE(repo_.Insert("A", {"Geneva", "Winery"}).ok());
  ASSERT_TRUE(repo_.Insert("T", {"Winery", "?who", "Syracuse"}).ok());
  ASSERT_TRUE(repo_.ReplaceNullAsync("?who", "XYZ").ok());
  EXPECT_FALSE(repo_.ReplaceNullAsync("?unknown", "x").ok());
  ASSERT_TRUE(repo_.Start(/*workers=*/2).ok());
  auto stats = repo_.Flush();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->cross_shard_updates, 1u);
  EXPECT_EQ(stats->totals.updates_completed, 1u);
  auto q = repo_.Query("T('Winery', co, s)", {"co"}, QuerySemantics::kCertain);
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->tuples.size(), 1u);
  EXPECT_EQ(q->rendered[0], "(XYZ)");
  EXPECT_TRUE(repo_.AllMappingsSatisfied());
}

TEST_F(YoutopiaTest, AsyncInsertThenReplaceOfFreshNullInOneDrain) {
  // The replacement depends on occurrences the pinned insert registers in
  // the same flush; the cross-shard batch must run after the pinned
  // backlog, or it would see an empty occurrence set and silently no-op.
  ASSERT_TRUE(repo_.Insert("A", {"Geneva", "Winery"}).ok());
  ASSERT_TRUE(repo_.InsertAsync("T", {"Winery", "?who", "Syracuse"}).ok());
  ASSERT_TRUE(repo_.ReplaceNullAsync("?who", "XYZ").ok());
  ASSERT_TRUE(repo_.Start(/*workers=*/2).ok());
  auto stats = repo_.Flush();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->totals.updates_completed, 2u);
  auto q = repo_.Query("T('Winery', co, s)", {"co"}, QuerySemantics::kCertain);
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->tuples.size(), 1u);
  EXPECT_EQ(q->rendered[0], "(XYZ)");
  EXPECT_TRUE(repo_.AllMappingsSatisfied());
}

TEST_F(YoutopiaTest, StandingPipelineLifecycle) {
  // Start brings the service up; *Async calls execute immediately; Flush
  // is only a barrier; Stop tears the pipeline down and async falls back to
  // buffering.
  EXPECT_FALSE(repo_.running());
  ASSERT_TRUE(repo_.Start(/*workers=*/2).ok());
  EXPECT_TRUE(repo_.running());

  ASSERT_TRUE(repo_.Insert("A", {"Geneva", "Winery"}).ok());
  EXPECT_TRUE(repo_.running());  // serial ops quiesce but keep the pipeline
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(repo_.InsertAsync(
                        "T", {"Winery", "co" + std::to_string(i), "Syracuse"})
                    .ok());
  }
  auto stats = repo_.Flush();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->totals.updates_completed, 4u);
  EXPECT_EQ(*repo_.Count("R"), 4u);
  EXPECT_TRUE(repo_.running());

  // A second Flush on the same pool: lifetime stats accumulate.
  ASSERT_TRUE(repo_.InsertAsync("T", {"Winery", "co4", "Syracuse"}).ok());
  auto stats2 = repo_.Flush();
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(stats2->totals.updates_completed, 5u);
  // Three lifetime flushes on one pool: the serial Insert's quiescing
  // barrier plus the two explicit Flush() calls.
  EXPECT_EQ(stats2->flushes, 3u);

  ASSERT_TRUE(repo_.Stop().ok());
  EXPECT_FALSE(repo_.running());
  // Stopped: async buffers, timeout is ignored, the next Flush replays.
  ASSERT_TRUE(repo_.InsertAsync("T", {"Winery", "co5", "Syracuse"},
                                std::chrono::nanoseconds(0))
                  .ok());
  EXPECT_EQ(*repo_.Count("R"), 5u);  // not yet executed
  ASSERT_TRUE(repo_.Flush().ok());
  EXPECT_EQ(*repo_.Count("R"), 6u);
  EXPECT_TRUE(repo_.AllMappingsSatisfied());
}

TEST_F(YoutopiaTest, ObservabilitySurfaceOnTheFacade) {
  // The whole PR-10 surface through the public facade: a mixed pinned +
  // cross-shard workload must leave p50/p99-capable histograms for every
  // acceptance stage (submit, inbox-wait, admission, chase, commit),
  // correct throughput counters, inbox-depth gauges, and a dumpable trace
  // with commit spans; ResetMetrics then zeroes it all.
  repo_.SetTracing(true);
  ASSERT_TRUE(repo_.Start(/*workers=*/2).ok());
  ASSERT_TRUE(repo_.Insert("A", {"Geneva", "Winery"}).ok());
  ASSERT_TRUE(repo_.Insert("T", {"Winery", "?who", "Syracuse"}).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(repo_.InsertAsync(
                        "T", {"Winery", "co" + std::to_string(i), "Syracuse"})
                    .ok());
  }
  ASSERT_TRUE(repo_.ReplaceNullAsync("?who", "XYZ").ok());
  ASSERT_TRUE(repo_.Flush().ok());
  repo_.SetTracing(false);

  const obs::MetricsSnapshot snap = repo_.MetricsSnapshot();
  EXPECT_GT(snap.counter(obs::Counter::kCommits), 0u);
  EXPECT_GT(snap.counter(obs::Counter::kRetired), 0u);
  EXPECT_EQ(snap.counter(obs::Counter::kCrossShardOps), 1u);
  for (obs::Stage s : {obs::Stage::kSubmit, obs::Stage::kInboxWait,
                       obs::Stage::kAdmission, obs::Stage::kChase,
                       obs::Stage::kCommit}) {
    const obs::HistogramSnapshot& h = snap.stage(s);
    EXPECT_GT(h.total, 0u) << obs::StageName(s);
    EXPECT_LE(h.p50(), h.p99()) << obs::StageName(s);
    EXPECT_LE(h.p99(), h.max) << obs::StageName(s);
  }
  EXPECT_GT(snap.gauge(obs::Gauge::kInboxDepth).max, 0u);

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                           "/youtopia_facade_trace.json";
  ASSERT_TRUE(repo_.DumpTrace(path));
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"name\":\"commit\""), std::string::npos);
  std::remove(path.c_str());

  repo_.ResetMetrics();
  EXPECT_EQ(repo_.MetricsSnapshot().counter(obs::Counter::kCommits), 0u);
}

TEST_F(YoutopiaTest, ResetMetricsLeavesPipelineStatsIntact) {
  // Flush()'s ParallelStats are counted by the pipeline itself, not read
  // off the shared registry: a restarted pipeline whose registry is reset
  // after it started must still report exactly its own lifetime.
  ASSERT_TRUE(repo_.Insert("T", {"Winery", "?who", "Syracuse"}).ok());
  ASSERT_TRUE(repo_.Start(/*workers=*/2).ok());
  ASSERT_TRUE(repo_.ReplaceNullAsync("?who", "XYZ").ok());
  ASSERT_TRUE(repo_.Flush().ok());
  ASSERT_TRUE(repo_.Stop().ok());

  ASSERT_TRUE(repo_.Start(/*workers=*/2).ok());
  repo_.ResetMetrics();
  ASSERT_TRUE(repo_.InsertAsync("T", {"Winery", "co", "Syracuse"}).ok());
  auto stats = repo_.Flush();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->cross_shard_updates, 0u);
  EXPECT_EQ(stats->escaped_updates, 0u);
  EXPECT_EQ(stats->totals.updates_completed, 1u);
}

TEST_F(YoutopiaTest, SchemaChangeInvalidatesTheStandingPipeline) {
  // The shard map and every worker's plan view are compiled against the
  // mapping set; AddMapping/CreateRelation must flush and rebuild.
  ASSERT_TRUE(repo_.Start(/*workers=*/2).ok());
  ASSERT_TRUE(repo_.Insert("A", {"Geneva", "Winery"}).ok());
  ASSERT_TRUE(repo_.InsertAsync("T", {"Winery", "XYZ", "Syracuse"}).ok());
  ASSERT_TRUE(repo_.CreateRelation("Seen", {"name"}).ok());
  EXPECT_FALSE(repo_.running());  // invalidated, restarts lazily
  ASSERT_TRUE(repo_.AddMapping("A(l, n) -> Seen(n)").ok());
  EXPECT_EQ(*repo_.Count("Seen"), 1u);
  // Async traffic admitted before the schema change was flushed with it.
  EXPECT_EQ(*repo_.Count("R"), 1u);
  ASSERT_TRUE(repo_.InsertAsync("A", {"Ithaca", "Gorges"}).ok());
  ASSERT_TRUE(repo_.Flush().ok());
  EXPECT_EQ(*repo_.Count("Seen"), 2u);
  EXPECT_TRUE(repo_.AllMappingsSatisfied());
}

TEST_F(YoutopiaTest, AsyncTimeoutIsHonoredWhileRunning) {
  // With roomy inboxes a zero timeout is a successful fast-fail probe —
  // admission happens immediately, no deadline expires.
  ASSERT_TRUE(repo_.Start(/*workers=*/2).ok());
  ASSERT_TRUE(repo_.Insert("A", {"Geneva", "Winery"}).ok());
  ASSERT_TRUE(repo_.InsertAsync("T", {"Winery", "XYZ", "Syracuse"},
                                std::chrono::nanoseconds(0))
                  .ok());
  auto stats = repo_.Flush();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->totals.updates_completed, 1u);
  EXPECT_EQ(*repo_.Count("R"), 1u);
}

TEST_F(YoutopiaTest, SerialUpdatesShareTheReplanWatermark) {
  // 40+ writes move the mutation sequence past the poll stride at least
  // once, but the facade-shared watermark must fire far fewer times than
  // once per update — a fresh per-update poller would fire on every
  // update's first step once the database holds >= stride rows.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(repo_.Insert("A", {"loc" + std::to_string(i),
                                   "name" + std::to_string(i)})
                    .ok());
  }
  const uint64_t fired = repo_.replan_poller().fired();
  EXPECT_GE(fired, 1u);
  // 60 one-write updates = ~60 mutations = at most a handful of strides.
  EXPECT_LE(fired, 60 / (kReplanPollWriteStride / 2));
}

TEST_F(YoutopiaTest, DumpIsSortedAndStable) {
  ASSERT_TRUE(repo_.Insert("A", {"B", "Beta"}).ok());
  ASSERT_TRUE(repo_.Insert("A", {"A", "Alpha"}).ok());
  auto dump = repo_.Dump("A");
  ASSERT_TRUE(dump.ok());
  const std::string expected = "  (A, Alpha)\n  (B, Beta)\n";
  EXPECT_EQ(*dump, expected);
}

}  // namespace
}  // namespace youtopia
