// Sharding behaviour of the standing IngestPipeline, driven with Submit +
// Flush: byte-equivalence with the serial Scheduler on disjoint islands,
// committed-order replay, cross-shard classification and escape re-routing.
#include "ccontrol/parallel/ingest_pipeline.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/violation_detector.h"
#include "relational/isomorphism.h"
#include "tgd/parser.h"
#include "test_util.h"

namespace youtopia {
namespace {

using testing_util::CrossShardFixture;

std::unique_ptr<FrontierAgent> MinContentFactory(size_t) {
  return std::make_unique<MinContentAgent>();
}

// Sorted rendering of every relation's visible tuples — byte-identical
// across runs iff the final instances are literally equal (constants only;
// fresh-null-producing workloads compare via DatabasesIsomorphic instead).
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

bool Satisfied(const Database& db, const std::vector<Tgd>& tgds) {
  ViolationDetector detector(&tgds);
  Snapshot snap(&db, kReadLatest);
  return detector.SatisfiesAll(snap);
}

// K disjoint islands, each with a two-hop chase chain and no existentials
// (so equal workloads produce literally equal instances):
//   A_i(x, y) -> B_i(y, x)      (forward insert propagation)
//   B_i(x, y) -> D_i(x)         (second hop; deletes of D cascade backward)
struct Islands {
  Database db;
  std::vector<Tgd> tgds;
  std::vector<RelationId> A, B, D;

  explicit Islands(size_t k) {
    for (size_t i = 0; i < k; ++i) {
      const std::string n = std::to_string(i);
      A.push_back(*db.CreateRelation("A" + n, {"x", "y"}));
      B.push_back(*db.CreateRelation("B" + n, {"x", "y"}));
      D.push_back(*db.CreateRelation("D" + n, {"x"}));
    }
    TgdParser parser(&db.catalog(), &db.symbols());
    for (size_t i = 0; i < k; ++i) {
      const std::string n = std::to_string(i);
      tgds.push_back(
          *parser.ParseTgd("A" + n + "(x, y) -> B" + n + "(y, x)"));
      tgds.push_back(*parser.ParseTgd("B" + n + "(x, y) -> D" + n + "(x)"));
    }
  }

  TupleData Row(const std::vector<std::string>& values) {
    TupleData data;
    for (const std::string& v : values) data.push_back(db.InternConstant(v));
    return data;
  }

  void Seed(RelationId rel, const std::vector<std::string>& values) {
    db.Apply(WriteOp::Insert(rel, Row(values)), /*update_number=*/0);
  }

  // The shared workload: inserts fanning out across islands round-robin,
  // then deletes of seeded D rows whose repair cascades two hops backward.
  std::vector<WriteOp> MakeWorkload(size_t inserts_per_island) {
    std::vector<WriteOp> ops;
    for (size_t j = 0; j < inserts_per_island; ++j) {
      for (size_t i = 0; i < A.size(); ++i) {
        ops.push_back(WriteOp::Insert(
            A[i], Row({"x" + std::to_string(j),
                       "y" + std::to_string(j % 3)})));
      }
    }
    for (size_t i = 0; i < A.size(); ++i) {
      const std::optional<RowId> row =
          db.FindRowWithData(D[i], Row({"seed"}), kReadLatest);
      CHECK(row.has_value());
      ops.push_back(WriteOp::Delete(D[i], *row));
    }
    return ops;
  }

  // Seeds each island with a consistent A -> B -> D chain ending in
  // D_i("seed") so the workload's deletes have a fixed target.
  void SeedChains() {
    for (size_t i = 0; i < A.size(); ++i) {
      Seed(A[i], {"s", "seed"});
      Seed(B[i], {"seed", "s"});
      Seed(D[i], {"seed"});
    }
  }
};

// Runs the workload through the serial Scheduler on one fixture and through
// an IngestPipeline on an identically built fixture; final instances must
// match byte for byte and nothing may abort or escape.
void RunEquivalence(size_t islands, size_t workers) {
  // Two identically built fixtures. Workloads are generated per fixture in
  // the same order so both symbol tables intern the same ids — WriteOps
  // carry raw interned values and are only meaningful against the database
  // whose interning order they came from.
  Islands serial_fix(islands);
  serial_fix.SeedChains();
  const std::vector<WriteOp> serial_ops = serial_fix.MakeWorkload(6);

  MinContentAgent serial_agent;
  Scheduler serial(&serial_fix.db, &serial_fix.tgds, &serial_agent, {});
  for (const WriteOp& op : serial_ops) serial.Submit(op);
  serial.RunToCompletion();
  ASSERT_EQ(serial.stats().updates_failed, 0u);

  Islands par_fix(islands);
  par_fix.SeedChains();
  const std::vector<WriteOp> ops = par_fix.MakeWorkload(6);
  ASSERT_EQ(ops.size(), serial_ops.size());
  IngestOptions popts;
  popts.num_workers = workers;
  popts.agent_factory = MinContentFactory;
  IngestPipeline pipeline(&par_fix.db, &par_fix.tgds, popts);
  for (const WriteOp& op : ops) {
    ASSERT_EQ(pipeline.Submit(op), SubmitResult::kOk);
  }
  const ParallelStats stats = pipeline.Flush();

  EXPECT_EQ(stats.workers, std::min<size_t>(workers, islands));
  EXPECT_EQ(pipeline.shard_map().num_components(), islands);
  EXPECT_EQ(stats.pinned_updates, ops.size());
  EXPECT_EQ(stats.cross_shard_updates, 0u);
  EXPECT_EQ(stats.escaped_updates, 0u);
  EXPECT_EQ(stats.totals.aborts, 0u);
  EXPECT_EQ(stats.totals.updates_completed, ops.size());
  // No read was logged and no conflict machinery ran on the pinned path.
  EXPECT_EQ(stats.totals.read_queries, 0u);

  EXPECT_TRUE(Satisfied(par_fix.db, par_fix.tgds));
  EXPECT_EQ(DumpAll(serial_fix.db), DumpAll(par_fix.db));
}

TEST(IngestPipelineShardingTest, TwoWorkersMatchSerialByteForByte) {
  RunEquivalence(/*islands=*/2, /*workers=*/2);
}

TEST(IngestPipelineShardingTest, FourWorkersMatchSerialByteForByte) {
  RunEquivalence(/*islands=*/4, /*workers=*/4);
}

TEST(IngestPipelineShardingTest, MoreWorkersThanComponentsClampCleanly) {
  RunEquivalence(/*islands=*/2, /*workers=*/8);
}

// Extends an Islands fixture with a cyclic existential hop
//   D_i(x) -> exists z: A_i(x, z)
// and seeds every D value with a more-specific A candidate, so MinContent
// unifies the fresh existential away instead of expanding forever. Returns
// the extended tgd vector.
std::vector<Tgd> ExtendWithExistentialHop(Islands* fix) {
  std::vector<Tgd> tgds = fix->tgds;
  TgdParser parser(&fix->db.catalog(), &fix->db.symbols());
  for (size_t i = 0; i < fix->A.size(); ++i) {
    const std::string n = std::to_string(i);
    tgds.push_back(
        *parser.ParseTgd("D" + n + "(x) -> exists z: A" + n + "(x, z)"));
  }
  for (size_t i = 0; i < fix->A.size(); ++i) {
    // Closure of the seed chains under all three mappings: every D value
    // (seed, h, and the workload's y0..y2) keeps an A(value, h) witness,
    // and the h-cycle closes on itself.
    fix->Seed(fix->A[i], {"s", "seed"});
    fix->Seed(fix->B[i], {"seed", "s"});
    fix->Seed(fix->D[i], {"seed"});
    fix->Seed(fix->A[i], {"seed", "h"});
    fix->Seed(fix->B[i], {"h", "seed"});
    fix->Seed(fix->D[i], {"h"});
    fix->Seed(fix->A[i], {"h", "h"});
    fix->Seed(fix->B[i], {"h", "h"});
    for (size_t y = 0; y < 3; ++y) {
      const std::string yn = "y" + std::to_string(y);
      fix->Seed(fix->A[i], {yn, "h"});
      fix->Seed(fix->B[i], {"h", yn});
    }
  }
  return tgds;
}

TEST(IngestPipelineShardingTest, CommittedOrderReplaysToIsomorphicInstance) {
  // Islands with an existential hop: the chase now mints fresh nulls, so
  // the guarantee is the serial scheduler's — replaying the committed ops
  // serially in final number order reproduces the instance up to null
  // renaming.
  const size_t k = 3;
  Islands fix(k);
  const std::vector<Tgd> tgds = ExtendWithExistentialHop(&fix);
  Islands replay_fix(k);  // identical start state, identical interning
  const std::vector<Tgd> replay_tgds = ExtendWithExistentialHop(&replay_fix);

  const std::vector<WriteOp> ops = fix.MakeWorkload(4);
  const std::vector<WriteOp> replay_interning = replay_fix.MakeWorkload(4);
  ASSERT_EQ(ops.size(), replay_interning.size());

  IngestOptions popts;
  popts.num_workers = k;
  popts.agent_factory = MinContentFactory;
  IngestPipeline pipeline(&fix.db, &tgds, popts);
  for (const WriteOp& op : ops) {
    ASSERT_EQ(pipeline.Submit(op), SubmitResult::kOk);
  }
  const ParallelStats stats = pipeline.Flush();
  EXPECT_EQ(stats.totals.updates_completed, ops.size());
  EXPECT_TRUE(Satisfied(fix.db, tgds));

  MinContentAgent agent;
  uint64_t number = 1;
  for (const WriteOp& op : pipeline.CommittedOpsInOrder()) {
    Update u(number++, op, &replay_tgds);
    u.RunToCompletion(&replay_fix.db, &agent);
  }
  EXPECT_TRUE(DatabasesIsomorphic(fix.db, kReadLatest, replay_fix.db,
                                  kReadLatest));
}

// --- Cross-shard admission: one op at a time under the batch's locks --------

TEST(IngestPipelineShardingTest, CrossShardReplacementsCommitAndReplay) {
  // The fixture's three replacements conflict when a Scheduler interleaves
  // them (SchedulerTest.CrossShardConflictAbortsAndCascades pins that
  // down). The cross lane runs each to completion before the next starts,
  // so none aborts, whether they land in one batch or several: all three
  // run through the cross lane, commit, and serialize in committed number
  // order.
  CrossShardFixture fix;
  IngestOptions popts;
  popts.num_workers = 2;
  popts.agent_factory = MinContentFactory;
  IngestPipeline pipeline(&fix.db, &fix.tgds, popts);
  for (const WriteOp& op : fix.Replacements()) {
    ASSERT_EQ(pipeline.Submit(op), SubmitResult::kOk);
  }
  const ParallelStats stats = pipeline.Flush();

  EXPECT_EQ(stats.cross_shard_updates, 3u);
  EXPECT_EQ(stats.pinned_updates, 0u);
  EXPECT_EQ(stats.totals.updates_completed, 3u);
  EXPECT_EQ(stats.totals.aborts, 0u);
  EXPECT_TRUE(Satisfied(fix.db, fix.tgds));

  // Serial replay in committed order reproduces the instance. The replayed
  // ops reference the same null/constant values because both fixtures
  // intern in identical order.
  CrossShardFixture replay;
  MinContentAgent agent;
  uint64_t number = 1;
  for (const WriteOp& op : pipeline.CommittedOpsInOrder()) {
    Update u(number++, op, &replay.tgds);
    u.RunToCompletion(&replay.db, &agent);
  }
  EXPECT_TRUE(
      DatabasesIsomorphic(fix.db, kReadLatest, replay.db, kReadLatest));
}

// Seeds island 1 of an Islands fixture with `n` chains
//   A1(N_j, k) -> B1(k, N_j) -> D1(k)
// over one fresh labeled null N_j each, and returns the nulls. Every
// occurrence of N_j lies in island 1, so its replacement's footprint is
// island 1's component alone.
std::vector<Value> SeedNullChains(Islands* fix, size_t n) {
  const Value k = fix->db.InternConstant("k");
  std::vector<Value> nulls;
  for (size_t j = 0; j < n; ++j) {
    const Value null = fix->db.FreshNull();
    fix->db.Apply(WriteOp::Insert(fix->A[1], {null, k}), 0);
    fix->db.Apply(WriteOp::Insert(fix->B[1], {k, null}), 0);
    nulls.push_back(null);
  }
  fix->Seed(fix->D[1], {"k"});
  return nulls;
}

// 200 inserts into island 0, with a replacement of the next island-1 null
// after every 10th.
std::vector<WriteOp> InsertsWithReplacements(Islands* fix,
                                             const std::vector<Value>& nulls) {
  std::vector<WriteOp> ops;
  for (size_t j = 0; j < 200; ++j) {
    ops.push_back(WriteOp::Insert(
        fix->A[0],
        fix->Row({"x" + std::to_string(j), "y" + std::to_string(j % 3)})));
    if (j % 10 == 9) {
      ops.push_back(WriteOp::NullReplace(
          nulls[j / 10], fix->db.InternConstant("c" + std::to_string(j))));
    }
  }
  return ops;
}

TEST(IngestPipelineShardingTest, PinnedReplansRunBesideCrossShardBatches) {
  // Every lane runs on the one tgd vector. Island 0's inserts grow its
  // relations far past the staleness floor, so its worker re-plans island
  // 0's mappings under island 0's lock, while null replacements run as
  // cross batches under island 1's lock alone and read island 1's plans.
  Islands fix(2);
  fix.SeedChains();
  const std::vector<Value> nulls = SeedNullChains(&fix, 20);
  const std::vector<WriteOp> ops = InsertsWithReplacements(&fix, nulls);
  Islands replay(2);  // identical start state, identical interning
  replay.SeedChains();
  const std::vector<Value> replay_nulls = SeedNullChains(&replay, 20);
  ASSERT_EQ(InsertsWithReplacements(&replay, replay_nulls).size(),
            ops.size());

  IngestOptions popts;
  popts.num_workers = 2;
  popts.agent_factory = MinContentFactory;
  IngestPipeline pipeline(&fix.db, &fix.tgds, popts);
  ASSERT_NE(pipeline.shard_map().ShardOfRelation(fix.A[0]),
            pipeline.shard_map().ShardOfRelation(fix.A[1]));
  for (const WriteOp& op : ops) {
    ASSERT_EQ(pipeline.Submit(op), SubmitResult::kOk);
  }
  const ParallelStats stats = pipeline.Flush();
  EXPECT_EQ(stats.pinned_updates, 200u);
  EXPECT_EQ(stats.cross_shard_updates, 20u);
  EXPECT_EQ(stats.escaped_updates, 0u);
  EXPECT_EQ(stats.totals.updates_completed, ops.size());
  EXPECT_GT(fix.tgds[0].replan_count(), 0u);  // A0(x, y) -> B0(y, x)
  EXPECT_TRUE(Satisfied(fix.db, fix.tgds));

  MinContentAgent agent;
  uint64_t number = 1;
  for (const WriteOp& op : pipeline.CommittedOpsInOrder()) {
    Update u(number++, op, &replay.tgds);
    u.RunToCompletion(&replay.db, &agent);
  }
  EXPECT_TRUE(
      DatabasesIsomorphic(fix.db, kReadLatest, replay.db, kReadLatest));
}

// --- Escape re-routing -------------------------------------------------------

// One mapped component {P, Q, R} (P(a,b) & Q(b,c) -> R(a,c)) plus the
// standalone {E}. The pre-existing null X lives in a Q tuple (local) and an
// E tuple (cross-component). Inserting the null-free P(m, k) pins to the
// {P,Q,R} worker; its chase binds c = X from Q(k, X), generates the
// frontier tuple R(m, X), and unifies with the more specific stored
// R(m, d) — a global null replacement reaching E — so the attempt must
// escape mid-chase, be undone, and re-run in an escalated cross-shard
// batch. (An *initial op* referencing X would never get here: submission
// classifies it cross-shard from X's occurrence footprint.)
struct EscapeFixture {
  Database db;
  std::vector<Tgd> tgds;
  RelationId p, q, r, e;
  Value x, m, k, d;

  EscapeFixture() {
    p = *db.CreateRelation("P", {"a", "b"});
    q = *db.CreateRelation("Q", {"b", "c"});
    r = *db.CreateRelation("R", {"a", "c"});
    e = *db.CreateRelation("E", {"v"});
    TgdParser parser(&db.catalog(), &db.symbols());
    tgds.push_back(*parser.ParseTgd("P(a, b) & Q(b, c) -> R(a, c)"));
    x = db.FreshNull();
    m = db.InternConstant("m");
    k = db.InternConstant("k");
    d = db.InternConstant("d");
    db.Apply(WriteOp::Insert(q, {k, x}), 0);
    db.Apply(WriteOp::Insert(r, {m, d}), 0);
    db.Apply(WriteOp::Insert(e, {x}), 0);
  }
};

TEST(IngestPipelineShardingTest, EscapedPinnedUpdateIsUndoneAndRerouted) {
  EscapeFixture fix;
  IngestOptions popts;
  popts.num_workers = 2;
  popts.agent_factory = MinContentFactory;
  IngestPipeline pipeline(&fix.db, &fix.tgds, popts);
  ASSERT_EQ(pipeline.Submit(WriteOp::Insert(fix.p, {fix.m, fix.k})),
            SubmitResult::kOk);
  const ParallelStats stats = pipeline.Flush();

  // Exactly one escape: the pinned attempt. Its escalated re-run holds
  // every component lock, so it cannot escape again.
  EXPECT_EQ(stats.escaped_updates, 1u);
  EXPECT_EQ(stats.totals.updates_completed, 1u);
  // The escaped attempt is not counted as a submission: one op submitted,
  // one merged submission.
  EXPECT_EQ(stats.totals.updates_submitted, 1u);
  // The op really did pin first (classification saw a null-free insert).
  EXPECT_EQ(stats.cross_shard_updates, 0u);
  EXPECT_TRUE(Satisfied(fix.db, fix.tgds));
  // The unification went through globally: X is gone from E, replaced by d.
  Snapshot snap(&fix.db, kReadLatest);
  bool saw_d = false, saw_null = false;
  snap.ForEachVisible(fix.e, [&](RowId, const TupleData& t) {
    saw_d |= t[0] == fix.d;
    saw_null |= t[0].is_null();
  });
  EXPECT_TRUE(saw_d);
  EXPECT_FALSE(saw_null);
  EXPECT_TRUE(
      fix.db.FindRowWithData(fix.q, {fix.k, fix.d}, kReadLatest).has_value());
  EXPECT_TRUE(
      fix.db.FindRowWithData(fix.p, {fix.m, fix.k}, kReadLatest).has_value());
}

TEST(IngestPipelineShardingTest, EscapedCrossBatchOpIsUndoneAndRerunEscalated) {
  // The cross lane's side of the escape path. A second null Z occurs in P
  // and in the standalone W, so replacing it by k locks {P,Q,R} and {W}.
  // The replacement completes P(m, k) & Q(k, X), and the chase unifies
  // X := d as in the fixture, which reaches E outside the batch's locks:
  // the op is undone and re-runs in an escalated batch.
  EscapeFixture fix;
  const RelationId w = *fix.db.CreateRelation("W", {"v"});
  const Value z = fix.db.FreshNull();
  fix.db.Apply(WriteOp::Insert(fix.p, {fix.m, z}), 0);
  fix.db.Apply(WriteOp::Insert(w, {z}), 0);

  IngestOptions popts;
  popts.num_workers = 2;
  popts.agent_factory = MinContentFactory;
  IngestPipeline pipeline(&fix.db, &fix.tgds, popts);
  ASSERT_EQ(pipeline.Submit(WriteOp::NullReplace(z, fix.k)),
            SubmitResult::kOk);
  const ParallelStats stats = pipeline.Flush();

  EXPECT_EQ(stats.cross_shard_updates, 1u);
  EXPECT_EQ(stats.escaped_updates, 1u);
  EXPECT_EQ(stats.totals.aborts, 0u);
  EXPECT_EQ(stats.totals.updates_submitted, 1u);
  EXPECT_EQ(stats.totals.updates_completed, 1u);
  EXPECT_TRUE(fix.db.FindRowWithData(fix.e, {fix.d}, kReadLatest).has_value());
  EXPECT_TRUE(fix.db.FindRowWithData(w, {fix.k}, kReadLatest).has_value());
  EXPECT_TRUE(Satisfied(fix.db, fix.tgds));
}

TEST(IngestPipelineShardingTest,
     InsertReferencingForeignNullClassifiesCrossShard) {
  // The complementary admission rule to the escape above: a user insert
  // whose values reference a null already occurring outside the target
  // component must not pin — pinned execution would grow the null's
  // occurrence set under a single component lock, invisibly widening a
  // concurrent replacement's footprint.
  EscapeFixture fix;
  IngestOptions popts;
  popts.num_workers = 2;
  popts.agent_factory = MinContentFactory;
  IngestPipeline pipeline(&fix.db, &fix.tgds, popts);
  // X occurs in Q (the {P,Q,R} component) and E; inserting it into P spans
  // both components.
  ASSERT_EQ(pipeline.Submit(WriteOp::Insert(fix.p, {fix.m, fix.x})),
            SubmitResult::kOk);
  const ParallelStats stats = pipeline.Flush();
  EXPECT_EQ(stats.cross_shard_updates, 1u);
  EXPECT_EQ(stats.pinned_updates, 0u);
  EXPECT_EQ(stats.totals.updates_completed, 1u);
  EXPECT_TRUE(Satisfied(fix.db, fix.tgds));
}

TEST(IngestPipelineShardingTest, SiblingComponentOnSameShardStillEscapes) {
  // Admission must be scoped to the op's component — what the held lock
  // covers — not the worker's whole shard: a chase whose unification
  // reaches a null occurring in a sibling component co-located on the SAME
  // shard still escapes, since a concurrent cross-shard admission may hold
  // that sibling's lock without holding ours.
  Database db;
  std::vector<Tgd> tgds;
  const RelationId p = *db.CreateRelation("P", {"a", "b"});
  const RelationId q = *db.CreateRelation("Q", {"b", "c"});
  const RelationId r = *db.CreateRelation("R", {"a", "c"});
  // Filler component seeded heavy enough (weights are relation count +
  // rows + hot mass) that largest-first balancing puts it alone on one
  // shard and co-locates {P,Q,R} with {E} on the other.
  const RelationId g = *db.CreateRelation("G", {"a"});
  (void)*db.CreateRelation("H", {"a"});
  (void)*db.CreateRelation("I", {"a"});
  (void)*db.CreateRelation("J", {"a"});
  const RelationId e = *db.CreateRelation("E", {"v"});
  TgdParser parser(&db.catalog(), &db.symbols());
  tgds.push_back(*parser.ParseTgd("P(a, b) & Q(b, c) -> R(a, c)"));
  tgds.push_back(*parser.ParseTgd("G(a) & H(a) -> I(a) & J(a)"));
  const Value x = db.FreshNull();
  const Value m = db.InternConstant("m");
  const Value k = db.InternConstant("k");
  const Value d = db.InternConstant("d");
  db.Apply(WriteOp::Insert(q, {k, x}), 0);
  db.Apply(WriteOp::Insert(r, {m, d}), 0);
  db.Apply(WriteOp::Insert(e, {x}), 0);
  for (int i = 0; i < 4; ++i) {
    db.Apply(
        WriteOp::Insert(g, {db.InternConstant("g" + std::to_string(i))}), 0);
  }

  IngestOptions popts;
  popts.num_workers = 2;
  popts.agent_factory = MinContentFactory;
  IngestPipeline pipeline(&db, &tgds, popts);
  ASSERT_EQ(pipeline.shard_map().num_components(), 3u);
  ASSERT_EQ(pipeline.shard_map().ShardOfRelation(p),
            pipeline.shard_map().ShardOfRelation(e));
  ASSERT_NE(pipeline.shard_map().ComponentOf(p),
            pipeline.shard_map().ComponentOf(e));

  // Null-free: pins.
  ASSERT_EQ(pipeline.Submit(WriteOp::Insert(p, {m, k})), SubmitResult::kOk);
  const ParallelStats stats = pipeline.Flush();
  EXPECT_EQ(stats.cross_shard_updates, 0u);
  EXPECT_EQ(stats.escaped_updates, 1u);
  EXPECT_EQ(stats.totals.updates_completed, 1u);
  EXPECT_TRUE(Satisfied(db, tgds));
  EXPECT_TRUE(db.FindRowWithData(q, {k, d}, kReadLatest).has_value());
  EXPECT_TRUE(db.FindRowWithData(e, {d}, kReadLatest).has_value());
}

}  // namespace
}  // namespace youtopia
