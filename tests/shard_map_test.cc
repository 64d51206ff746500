#include "ccontrol/parallel/shard_map.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace youtopia {
namespace {

using testing_util::Figure2;

TEST(ShardMapTest, Figure2SplitsIntoTwoComponents) {
  Figure2 fig;
  ShardMap map(fig.db.num_relations(), fig.tgds, 4);
  // sigma1/sigma2 tie {C, S}; sigma3 ties {A, T, R}; sigma4 ties {V, T, E}
  // into the same component through T.
  ASSERT_EQ(map.num_components(), 2u);
  EXPECT_EQ(map.num_shards(), 2u);  // clamped: 4 workers, 2 components
  EXPECT_EQ(map.ComponentOf(fig.C), map.ComponentOf(fig.S));
  EXPECT_EQ(map.ComponentOf(fig.A), map.ComponentOf(fig.T));
  EXPECT_EQ(map.ComponentOf(fig.A), map.ComponentOf(fig.R));
  EXPECT_EQ(map.ComponentOf(fig.A), map.ComponentOf(fig.V));
  EXPECT_EQ(map.ComponentOf(fig.A), map.ComponentOf(fig.E));
  EXPECT_NE(map.ComponentOf(fig.C), map.ComponentOf(fig.A));
  // Component ids ascend with their representative (minimum) relation ids —
  // the lock-order key: scanning relations in id order meets component c
  // first after components 0..c-1. C is the minimum of its component.
  uint32_t next_new = 0;
  for (RelationId r = 0; r < fig.db.num_relations(); ++r) {
    const uint32_t c = map.ComponentOf(r);
    EXPECT_LE(c, next_new) << "relation " << r;
    if (c == next_new) ++next_new;
    if (c == map.ComponentOf(fig.C)) {
      EXPECT_GE(r, fig.C);
    }
  }
  EXPECT_EQ(next_new, map.num_components());
  // Different components land on different shards here (2 and 2).
  EXPECT_NE(map.ShardOfRelation(fig.C), map.ShardOfRelation(fig.T));
  // The shards partition the relations: every relation lies on one shard,
  // and no shard is empty.
  std::vector<size_t> owned(map.num_shards(), 0);
  for (RelationId r = 0; r < fig.db.num_relations(); ++r) {
    ASSERT_LT(map.ShardOfRelation(r), map.num_shards());
    ++owned[map.ShardOfRelation(r)];
  }
  for (size_t n : owned) EXPECT_GT(n, 0u);
}

TEST(ShardMapTest, InsertAndDeleteFootprintsAreTheirComponent) {
  Figure2 fig;
  ShardMap map(fig.db.num_relations(), fig.tgds, 2);
  std::vector<uint32_t> fp;
  map.FootprintOf(WriteOp::Insert(fig.A, fig.Row({"Geneva", "Winery"})),
                  fig.db, &fp);
  ASSERT_EQ(fp.size(), 1u);
  EXPECT_EQ(fp[0], map.ComponentOf(fig.A));
  fp.clear();
  map.FootprintOf(WriteOp::Delete(fig.V, 0), fig.db, &fp);
  ASSERT_EQ(fp.size(), 1u);
  EXPECT_EQ(fp[0], map.ComponentOf(fig.V));
}

TEST(ShardMapTest, NullReplaceFootprintFollowsOccurrences) {
  Figure2 fig;
  ShardMap map(fig.db.num_relations(), fig.tgds, 2);
  // x1 was seeded into T and R tuples — both in the big component.
  std::vector<uint32_t> fp;
  map.FootprintOf(WriteOp::NullReplace(fig.x1, fig.Const("ACME")), fig.db,
                  &fp);
  ASSERT_EQ(fp.size(), 1u);
  EXPECT_EQ(fp[0], map.ComponentOf(fig.T));
  // Seed the same null into a C tuple: the footprint now spans both
  // components, ascending.
  fig.SeedRow(fig.C, {fig.x1});
  fp.clear();
  map.FootprintOf(WriteOp::NullReplace(fig.x1, fig.Const("ACME")), fig.db,
                  &fp);
  ASSERT_EQ(fp.size(), 2u);
  EXPECT_LT(fp[0], fp[1]);
}

// Two equal-row-count components plus a tiny singleton, two shards. When
// component {A,B}'s rows pile onto one hot value, its sketch-estimated hot
// mass outweighs the uniform sibling {C,D} and the balance isolates it —
// the singleton joins the uniform component's shard. With the same rows
// spread uniformly the weights tie and the singleton lands on {A,B}'s
// shard instead (deterministic tie-break), so the placement difference is
// attributable to hot mass alone, not row count.
TEST(ShardMapTest, HotValueMassIsolatesSkewedComponent) {
  for (const bool skewed : {true, false}) {
    Database db;
    std::vector<Tgd> tgds;
    const RelationId a = *db.CreateRelation("A", {"x", "y"});
    (void)*db.CreateRelation("B", {"x", "y"});
    const RelationId c = *db.CreateRelation("C", {"x", "y"});
    (void)*db.CreateRelation("D", {"x", "y"});
    const RelationId e = *db.CreateRelation("E", {"x"});
    TgdParser parser(&db.catalog(), &db.symbols());
    tgds.push_back(*parser.ParseTgd("A(x, y) -> B(x, y)"));
    tgds.push_back(*parser.ParseTgd("C(x, y) -> D(x, y)"));
    const Value hot = db.InternConstant("hot");
    for (uint64_t i = 0; i < 200; ++i) {
      // Skewed: 160 of A's rows share one x value (a hot bucket: 160 is
      // over 4x the ~4.9-row uniform bucket and past the 32-row floor).
      // Uniform: every x distinct. Column y keeps set semantics from
      // collapsing the pile-up.
      const Value x = (skewed && i < 160)
                          ? hot
                          : db.InternConstant("a" + std::to_string(i));
      db.Apply(WriteOp::Insert(
                   a, {x, db.InternConstant("n" + std::to_string(i))}),
               0);
      db.Apply(WriteOp::Insert(
                   c, {db.InternConstant("c" + std::to_string(i % 40)),
                       db.InternConstant("m" + std::to_string(i))}),
               0);
    }
    ASSERT_EQ(db.relation(a).HotValueMass() > 0, skewed);
    EXPECT_EQ(db.relation(c).HotValueMass(), 0u);

    ShardMap map(db.num_relations(), tgds, 2, &db);
    ASSERT_EQ(map.num_components(), 3u);
    ASSERT_EQ(map.num_shards(), 2u);
    EXPECT_NE(map.ShardOfRelation(a), map.ShardOfRelation(c));
    if (skewed) {
      EXPECT_EQ(map.ShardOfRelation(e), map.ShardOfRelation(c))
          << "singleton must avoid the hot component's shard";
    } else {
      EXPECT_EQ(map.ShardOfRelation(e), map.ShardOfRelation(a))
          << "equal weights tie-break to the first component's shard";
    }
  }
}

TEST(ShardMapTest, UnmappedRelationsAreSingletonComponents) {
  Database db;
  (void)*db.CreateRelation("R0", {"a"});
  (void)*db.CreateRelation("R1", {"a"});
  (void)*db.CreateRelation("R2", {"a"});
  std::vector<Tgd> no_tgds;
  ShardMap map(db.num_relations(), no_tgds, 2);
  EXPECT_EQ(map.num_components(), 3u);
  EXPECT_EQ(map.num_shards(), 2u);
  // Greedy balance: three unit components over two shards -> loads 2 and 1.
  size_t shard0 = 0;
  for (RelationId r = 0; r < db.num_relations(); ++r) {
    shard0 += map.ShardOfRelation(r) == 0 ? 1 : 0;
  }
  EXPECT_TRUE(shard0 == 1 || shard0 == 2);
}

}  // namespace
}  // namespace youtopia
