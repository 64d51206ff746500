#include "ccontrol/parallel/ingest_pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ccontrol/parallel/bounded_mpsc_queue.h"
#include "core/update.h"
#include "relational/tuple.h"
#include "tgd/parser.h"

namespace youtopia {
namespace {

using std::chrono::steady_clock;

// --- BoundedMpscQueue: the admission edge ----------------------------------

TEST(BoundedMpscQueueTest, FifoAndHighWatermark) {
  BoundedMpscQueue<int> q(4);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(q.Push(i), QueuePush::kOk);
  }
  EXPECT_EQ(q.high_watermark(), 3u);
  int out = -1;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(q.WaitPop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.TryPop(&out));
  EXPECT_EQ(q.high_watermark(), 3u);  // watermark is a lifetime maximum
}

TEST(BoundedMpscQueueTest, FullQueueFastFailsOnPastDeadline) {
  BoundedMpscQueue<int> q(1);
  ASSERT_EQ(q.Push(1), QueuePush::kOk);
  // A deadline in the past is the pure fast-fail probe: no wait at all.
  EXPECT_EQ(q.Push(2, steady_clock::now()), QueuePush::kWouldBlock);
  // A short real deadline expires without a consumer.
  EXPECT_EQ(q.Push(2, steady_clock::now() + std::chrono::milliseconds(5)),
            QueuePush::kWouldBlock);
  EXPECT_GT(q.stall_seconds(), 0.0);
  int out = 0;
  ASSERT_TRUE(q.TryPop(&out));
  EXPECT_EQ(out, 1);
}

TEST(BoundedMpscQueueTest, BlockedProducersStress) {
  // 4 producers push 250 items each through a 4-slot queue while one
  // consumer drains; every producer spends most of its life blocked on the
  // credit wait. Everything must arrive, and the credit path must never
  // push the queue past its capacity.
  constexpr size_t kProducers = 4;
  constexpr size_t kPerProducer = 250;
  BoundedMpscQueue<size_t> q(4);
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (size_t i = 0; i < kPerProducer; ++i) {
        ASSERT_EQ(q.Push(p * kPerProducer + i), QueuePush::kOk);
      }
    });
  }
  std::vector<bool> seen(kProducers * kPerProducer, false);
  for (size_t i = 0; i < kProducers * kPerProducer; ++i) {
    size_t item = 0;
    ASSERT_TRUE(q.WaitPop(&item));
    ASSERT_LT(item, seen.size());
    EXPECT_FALSE(seen[item]);
    seen[item] = true;
  }
  for (std::thread& t : producers) t.join();
  EXPECT_LE(q.high_watermark(), q.capacity());
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedMpscQueueTest, CloseWakesBlockedProducerWithClosed) {
  BoundedMpscQueue<int> q(1);
  ASSERT_EQ(q.Push(1), QueuePush::kOk);
  std::atomic<bool> started{false};
  QueuePush result = QueuePush::kOk;
  std::thread producer([&] {
    started.store(true);
    result = q.Push(2);  // no deadline: blocks until Close
  });
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  producer.join();
  EXPECT_EQ(result, QueuePush::kClosed);
  // The backlog admitted before Close still drains, then WaitPop reports
  // shutdown.
  int out = 0;
  ASSERT_TRUE(q.WaitPop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_FALSE(q.WaitPop(&out));
}

TEST(BoundedMpscQueueTest, ForcePushIgnoresCapacityAndClose) {
  BoundedMpscQueue<int> q(1);
  ASSERT_EQ(q.Push(1), QueuePush::kOk);
  q.ForcePush(2);  // over capacity
  q.Close();
  q.ForcePush(3);  // even closed: re-routed work must land in the drain
  EXPECT_EQ(q.Push(4), QueuePush::kClosed);
  int out = 0;
  for (int expect = 1; expect <= 3; ++expect) {
    ASSERT_TRUE(q.WaitPop(&out));
    EXPECT_EQ(out, expect);
  }
  EXPECT_FALSE(q.WaitPop(&out));
  EXPECT_GE(q.high_watermark(), 2u);  // the force lane may exceed capacity
}

// --- IngestPipeline fixtures ------------------------------------------------

// K disjoint islands without existentials (equal workloads produce literally
// equal instances): A_i(x, y) -> B_i(y, x).
struct Islands {
  Database db;
  std::vector<Tgd> tgds;
  std::vector<RelationId> A, B;

  explicit Islands(size_t k) {
    for (size_t i = 0; i < k; ++i) {
      const std::string n = std::to_string(i);
      A.push_back(*db.CreateRelation("A" + n, {"x", "y"}));
      B.push_back(*db.CreateRelation("B" + n, {"x", "y"}));
    }
    TgdParser parser(&db.catalog(), &db.symbols());
    for (size_t i = 0; i < k; ++i) {
      const std::string n = std::to_string(i);
      tgds.push_back(
          *parser.ParseTgd("A" + n + "(x, y) -> B" + n + "(y, x)"));
    }
  }

  TupleData Row(const std::vector<std::string>& values) {
    TupleData data;
    for (const std::string& v : values) data.push_back(db.InternConstant(v));
    return data;
  }
};

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

std::unique_ptr<FrontierAgent> MinContentFactory(size_t) {
  return std::make_unique<MinContentAgent>();
}

// Blocks every positive frontier decision until the test grants a permit —
// the deterministic way to keep a worker busy mid-update while the test
// fills its inbox behind it.
class GateAgent : public FrontierAgent {
 public:
  PositiveDecision DecidePositive(const Snapshot&, const FrontierTuple&,
                                  const Provenance&) override {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_;
    waiting_cv_.notify_all();
    permit_cv_.wait(lock, [&] { return permits_ > 0; });
    --permits_;
    --waiting_;
    return PositiveDecision::Expand();
  }
  std::vector<size_t> DecideNegative(const Snapshot&,
                                     const NegativeFrontier&) override {
    return {0};
  }

  // Blocks until `n` chases are parked inside DecidePositive.
  void AwaitWaiters(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    waiting_cv_.wait(lock, [&] { return waiting_ >= n; });
  }

  void Grant(size_t n) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      permits_ += n;
    }
    permit_cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable waiting_cv_;
  std::condition_variable permit_cv_;
  size_t waiting_ = 0;
  size_t permits_ = 0;
};

// One island whose inserts always stop at an ambiguous frontier. The RHS
// shares its existential across two atoms and C is pre-seeded with a
// more-specific candidate for every key the tests insert, so the repair of
// A(k, y) — no z joins C and D — generates C(k, _z) with C(k, "seed") as a
// unify option, which consults the agent. (A single-atom existential RHS
// could not do this: any more-specific C row would already satisfy the
// mapping, and without candidates the chase inserts deterministically
// without asking.)
struct GatedFixture {
  Database db;
  std::vector<Tgd> tgds;
  RelationId A, C, D;
  GateAgent gate;

  GatedFixture() {
    A = *db.CreateRelation("A", {"x", "y"});
    C = *db.CreateRelation("C", {"x", "z"});
    D = *db.CreateRelation("D", {"z", "y"});
    TgdParser parser(&db.catalog(), &db.symbols());
    tgds.push_back(
        *parser.ParseTgd("A(x, y) -> exists z: C(x, z) & D(z, y)"));
    for (const char* key : {"a", "b", "c", "d"}) {
      TupleData row;
      row.push_back(db.InternConstant(key));
      row.push_back(db.InternConstant("seed"));
      db.Apply(WriteOp::Insert(C, std::move(row)), /*update_number=*/0);
    }
  }

  IngestOptions Options(size_t inbox_capacity) {
    IngestOptions opts;
    opts.num_workers = 1;
    opts.inbox_capacity = inbox_capacity;
    opts.agent_factory = [this](size_t) -> std::unique_ptr<FrontierAgent> {
      return std::make_unique<ForwardingAgent>(&gate);
    };
    return opts;
  }

  WriteOp Insert(const std::string& x, const std::string& y) {
    TupleData data;
    data.push_back(db.InternConstant(x));
    data.push_back(db.InternConstant(y));
    return WriteOp::Insert(A, std::move(data));
  }

 private:
  // The pipeline owns one agent per worker; forward them all to the shared
  // gate so the test holds a single choke point.
  class ForwardingAgent : public FrontierAgent {
   public:
    explicit ForwardingAgent(GateAgent* gate) : gate_(gate) {}
    PositiveDecision DecidePositive(const Snapshot& snap,
                                    const FrontierTuple& tuple,
                                    const Provenance& prov) override {
      return gate_->DecidePositive(snap, tuple, prov);
    }
    std::vector<size_t> DecideNegative(const Snapshot& snap,
                                       const NegativeFrontier& nf) override {
      return gate_->DecideNegative(snap, nf);
    }

   private:
    GateAgent* gate_;
  };
};

// --- Standing-pool lifecycle ------------------------------------------------

TEST(IngestPipelineTest, WorkerThreadsSurviveConsecutiveFlushes) {
  // The tentpole regression axis: Flush is a barrier, not a teardown — the
  // same parked worker threads serve every epoch.
  Islands fix(4);
  IngestOptions opts;
  opts.num_workers = 4;
  opts.agent_factory = MinContentFactory;
  IngestPipeline pipeline(&fix.db, &fix.tgds, opts);

  const std::vector<std::thread::id> ids_before = pipeline.WorkerThreadIds();
  ASSERT_EQ(ids_before.size(), 4u);

  for (uint64_t round = 1; round <= 3; ++round) {
    for (size_t i = 0; i < fix.A.size(); ++i) {
      ASSERT_EQ(pipeline.Submit(WriteOp::Insert(
                    fix.A[i], fix.Row({"r" + std::to_string(round), "v"}))),
                SubmitResult::kOk);
    }
    const ParallelStats stats = pipeline.Flush();
    EXPECT_EQ(stats.flushes, round);
    EXPECT_EQ(pipeline.WorkerThreadIds(), ids_before);
  }
  const ParallelStats stats = pipeline.Flush();
  EXPECT_EQ(stats.pinned_updates, 12u);
  EXPECT_EQ(stats.totals.updates_failed, 0u);
}

TEST(IngestPipelineTest, DiagnosticsAfterFlushShowEveryShardIdle) {
  // The watchdog dump, taken at a Flush() barrier: nothing in flight, one
  // inbox line and one idle worker line per shard.
  Islands fix(2);
  IngestOptions opts;
  opts.num_workers = 2;
  opts.agent_factory = MinContentFactory;
  IngestPipeline pipeline(&fix.db, &fix.tgds, opts);
  ASSERT_EQ(pipeline.shard_map().num_shards(), 2u);
  for (size_t i = 0; i < fix.A.size(); ++i) {
    ASSERT_EQ(pipeline.Submit(WriteOp::Insert(fix.A[i], fix.Row({"x", "y"}))),
              SubmitResult::kOk);
  }
  pipeline.Flush();

  std::string dump;
  pipeline.AppendDiagnostics(&dump);
  auto count = [&dump](const std::string& needle) {
    size_t n = 0;
    for (size_t at = dump.find(needle); at != std::string::npos;
         at = dump.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(dump.rfind("in-flight ops: 0,", 0), 0u) << dump;
  EXPECT_EQ(count(" inbox: "), 2u) << dump;
  EXPECT_EQ(count(" worker: "), 2u) << dump;
  for (int shard = 0; shard < 2; ++shard) {
    const std::string prefix = "shard " + std::to_string(shard);
    EXPECT_EQ(count(prefix + " inbox: depth=0 "), 1u) << dump;
    EXPECT_EQ(count(prefix + " worker: op=0 phase=idle\n"), 1u) << dump;
  }
}

TEST(IngestPipelineTest, ConcurrentProducersMatchSerialExecution) {
  // 4 producer threads hammer a 4-island pipeline through tiny inboxes
  // (capacity 2 — constant blocking), then the final instance must equal a
  // serial single-threaded replay of the same per-island op sequences.
  constexpr size_t kIslands = 4;
  constexpr size_t kOpsPerIsland = 64;

  auto make_ops = [](Islands* fix) {
    std::vector<std::vector<WriteOp>> per_island(kIslands);
    for (size_t i = 0; i < kIslands; ++i) {
      for (size_t j = 0; j < kOpsPerIsland; ++j) {
        per_island[i].push_back(WriteOp::Insert(
            fix->A[i], fix->Row({"x" + std::to_string(j),
                                 "y" + std::to_string(j % 3)})));
      }
    }
    return per_island;
  };

  Islands serial_fix(kIslands);
  const auto serial_ops = make_ops(&serial_fix);
  MinContentAgent serial_agent;
  uint64_t number = 1;
  for (const auto& island_ops : serial_ops) {
    for (const WriteOp& op : island_ops) {
      Update u(number++, op, &serial_fix.tgds);
      u.RunToCompletion(&serial_fix.db, &serial_agent);
    }
  }

  Islands par_fix(kIslands);
  const auto par_ops = make_ops(&par_fix);
  IngestOptions opts;
  opts.num_workers = kIslands;
  opts.inbox_capacity = 2;
  opts.agent_factory = MinContentFactory;
  IngestPipeline pipeline(&par_fix.db, &par_fix.tgds, opts);

  std::vector<std::thread> producers;
  for (size_t i = 0; i < kIslands; ++i) {
    producers.emplace_back([&pipeline, &par_ops, i] {
      for (const WriteOp& op : par_ops[i]) {
        ASSERT_EQ(pipeline.Submit(op), SubmitResult::kOk);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  const ParallelStats stats = pipeline.Flush();

  EXPECT_EQ(stats.pinned_updates, kIslands * kOpsPerIsland);
  EXPECT_EQ(stats.totals.aborts, 0u);
  EXPECT_EQ(stats.totals.updates_failed, 0u);
  EXPECT_LE(stats.inbox_high_watermark, opts.inbox_capacity);
  EXPECT_EQ(DumpAll(par_fix.db), DumpAll(serial_fix.db));
}

// --- Backpressure -----------------------------------------------------------

TEST(IngestPipelineTest, FullInboxFastFailsWithWouldBlock) {
  GatedFixture fix;
  IngestPipeline pipeline(&fix.db, &fix.tgds, fix.Options(2));

  // The worker pops the first op and parks inside the agent; the next two
  // fill its inbox.
  ASSERT_EQ(pipeline.Submit(fix.Insert("a", "1")), SubmitResult::kOk);
  fix.gate.AwaitWaiters(1);
  ASSERT_EQ(pipeline.Submit(fix.Insert("b", "2")), SubmitResult::kOk);
  ASSERT_EQ(pipeline.Submit(fix.Insert("c", "3")), SubmitResult::kOk);

  // Past deadline = pure probe: immediate kWouldBlock, nothing admitted.
  EXPECT_EQ(pipeline.Submit(fix.Insert("d", "4"), steady_clock::now()),
            SubmitResult::kWouldBlock);
  EXPECT_EQ(pipeline.Submit(fix.Insert("d", "4"),
                            steady_clock::now() +
                                std::chrono::milliseconds(5)),
            SubmitResult::kWouldBlock);

  fix.gate.Grant(100);
  const ParallelStats stats = pipeline.Flush();
  EXPECT_EQ(stats.pinned_updates, 3u);  // the kWouldBlock op never entered
  EXPECT_EQ(stats.inbox_high_watermark, 2u);
  EXPECT_GT(stats.admission_stall_seconds, 0.0);
}

TEST(IngestPipelineTest, BlockedProducerAdmittedWhenSlotFrees) {
  GatedFixture fix;
  IngestPipeline pipeline(&fix.db, &fix.tgds, fix.Options(1));

  ASSERT_EQ(pipeline.Submit(fix.Insert("a", "1")), SubmitResult::kOk);
  fix.gate.AwaitWaiters(1);
  ASSERT_EQ(pipeline.Submit(fix.Insert("b", "2")), SubmitResult::kOk);

  std::atomic<bool> submitted{false};
  std::thread producer([&] {
    // Deadline-free Submit: blocks until the worker frees a slot.
    ASSERT_EQ(pipeline.Submit(fix.Insert("c", "3")), SubmitResult::kOk);
    submitted.store(true);
  });
  EXPECT_FALSE(submitted.load());

  // Finishing the gated op pops "b" and frees the producer's slot.
  fix.gate.Grant(100);
  producer.join();
  EXPECT_TRUE(submitted.load());

  const ParallelStats stats = pipeline.Flush();
  EXPECT_EQ(stats.pinned_updates, 3u);
  EXPECT_EQ(stats.totals.updates_failed, 0u);
}

TEST(IngestPipelineTest, StopWakesBlockedProducerWithShutdown) {
  GatedFixture fix;
  IngestPipeline pipeline(&fix.db, &fix.tgds, fix.Options(1));

  ASSERT_EQ(pipeline.Submit(fix.Insert("a", "1")), SubmitResult::kOk);
  fix.gate.AwaitWaiters(1);
  ASSERT_EQ(pipeline.Submit(fix.Insert("b", "2")), SubmitResult::kOk);

  SubmitResult blocked_result = SubmitResult::kOk;
  std::thread producer([&] {
    blocked_result = pipeline.Submit(fix.Insert("c", "3"));
  });

  // Stop closes the inboxes first (waking the blocked producer with
  // kShutdown), then drains the two admitted ops — which needs the gate
  // open — and joins. Run it concurrently so the test can release the gate
  // after the producer has been rejected.
  std::thread stopper([&] { pipeline.Stop(); });
  producer.join();
  EXPECT_EQ(blocked_result, SubmitResult::kShutdown);
  fix.gate.Grant(100);
  stopper.join();

  // Admitted ops drained before the threads joined; later submits fail.
  EXPECT_EQ(pipeline.Submit(fix.Insert("d", "4")), SubmitResult::kShutdown);
  Snapshot snap(&fix.db, kReadLatest);
  size_t c_rows = 0;
  snap.ForEachVisible(fix.C, [&](RowId, const TupleData&) { ++c_rows; });
  // 4 seeds plus the two admitted ops' expands; "c" and "d" never entered.
  EXPECT_EQ(c_rows, 6u);
}

// --- Numbering across engines -----------------------------------------------

TEST(IngestPipelineTest, ClaimAndAdvanceKeepOneNumberSequence) {
  Islands fix(2);
  IngestOptions opts;
  opts.num_workers = 2;
  opts.first_number = 7;
  opts.agent_factory = MinContentFactory;
  IngestPipeline pipeline(&fix.db, &fix.tgds, opts);

  EXPECT_EQ(pipeline.next_number(), 7u);
  EXPECT_EQ(pipeline.ClaimNumber(), 7u);
  pipeline.AdvanceNumberTo(20);
  pipeline.AdvanceNumberTo(5);  // monotonic: never moves backwards
  EXPECT_EQ(pipeline.next_number(), 20u);

  ASSERT_EQ(pipeline.Submit(WriteOp::Insert(fix.A[0], fix.Row({"x", "y"}))),
            SubmitResult::kOk);
  pipeline.Flush();
  EXPECT_EQ(pipeline.next_number(), 21u);
  const std::vector<WriteOp> committed = pipeline.CommittedOpsInOrder();
  EXPECT_EQ(committed.size(), 1u);
}

}  // namespace
}  // namespace youtopia
