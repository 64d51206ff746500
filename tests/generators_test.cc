#include "workload/generators.h"

#include <gtest/gtest.h>

#include "core/violation_detector.h"

namespace youtopia {
namespace {

class GeneratorsTest : public ::testing::Test {
 protected:
  void Build(size_t relations, size_t constants, size_t mappings) {
    SchemaGenOptions schema_opts;
    schema_opts.num_relations = relations;
    ASSERT_TRUE(GenerateSchema(&db_, &rng_, schema_opts).ok());
    constants_ = GenerateConstantPool(&db_, &rng_, constants);
    MappingGenOptions mapping_opts;
    mapping_opts.count = mappings;
    tgds_ = GenerateMappings(db_, constants_, &rng_, mapping_opts);
  }

  Database db_;
  Rng rng_{12345};
  std::vector<Value> constants_;
  std::vector<Tgd> tgds_;
};

TEST_F(GeneratorsTest, SchemaHasRequestedShape) {
  Build(50, 20, 0);
  EXPECT_EQ(db_.num_relations(), 50u);
  for (RelationId r = 0; r < 50; ++r) {
    EXPECT_GE(db_.relation(r).arity(), 1u);
    EXPECT_LE(db_.relation(r).arity(), 6u);
  }
  EXPECT_EQ(constants_.size(), 20u);
}

TEST_F(GeneratorsTest, MappingsAreWellFormed) {
  Build(30, 20, 60);
  ASSERT_EQ(tgds_.size(), 60u);
  for (const Tgd& tgd : tgds_) {
    EXPECT_GE(tgd.lhs().atoms.size(), 1u);
    EXPECT_LE(tgd.lhs().atoms.size(), 3u);
    EXPECT_GE(tgd.rhs().atoms.size(), 1u);
    EXPECT_LE(tgd.rhs().atoms.size(), 3u);
    // Every mapping has at least one frontier variable.
    EXPECT_FALSE(tgd.frontier_vars().empty());
    // LHS is join-connected: every atom after the first shares a variable
    // with some earlier atom.
    for (size_t i = 1; i < tgd.lhs().atoms.size(); ++i) {
      bool connected = false;
      for (const Term& t : tgd.lhs().atoms[i].terms) {
        if (!t.is_variable()) continue;
        for (size_t j = 0; j < i && !connected; ++j) {
          for (const Term& u : tgd.lhs().atoms[j].terms) {
            if (u.is_variable() && u.var() == t.var()) connected = true;
          }
        }
      }
      EXPECT_TRUE(connected);
    }
  }
}

TEST_F(GeneratorsTest, MappingsMixJoinsAndConstants) {
  Build(30, 20, 80);
  size_t with_constants = 0;
  size_t with_existentials = 0;
  size_t multi_atom = 0;
  for (const Tgd& tgd : tgds_) {
    bool has_const = false;
    for (const auto* side : {&tgd.lhs(), &tgd.rhs()}) {
      for (const Atom& atom : side->atoms) {
        for (const Term& t : atom.terms) has_const |= t.is_constant();
      }
    }
    with_constants += has_const ? 1 : 0;
    with_existentials += tgd.existential_vars().empty() ? 0 : 1;
    multi_atom += tgd.lhs().atoms.size() > 1 ? 1 : 0;
  }
  EXPECT_GT(with_constants, 10u);
  EXPECT_GT(with_existentials, 10u);
  EXPECT_GT(multi_atom, 10u);
}

TEST_F(GeneratorsTest, InitialDataSatisfiesAllMappings) {
  Build(20, 10, 20);
  RandomAgent agent(99);
  InitialDataOptions opts;
  opts.num_tuples = 60;
  const InitialDataReport report =
      GenerateInitialData(&db_, &tgds_, constants_, &rng_, &agent, opts);
  EXPECT_EQ(report.seed_inserts, 60u);
  EXPECT_GE(report.total_tuples, 1u);
  EXPECT_EQ(report.capped_chases, 0u);
  ViolationDetector detector(&tgds_);
  Snapshot snap(&db_, kReadLatest);
  EXPECT_TRUE(detector.SatisfiesAll(snap));
}

TEST_F(GeneratorsTest, SeedInsertsShareOneReplanWatermark) {
  // The seed chase's inserts share one re-planning watermark, so the
  // mapping sweep fires at most once per stride of database writes; a
  // watermark per insert fired on nearly every insert's first step.
  Build(20, 10, 20);
  RandomAgent agent(99);
  InitialDataOptions opts;
  opts.num_tuples = 500;
  const InitialDataReport report =
      GenerateInitialData(&db_, &tgds_, constants_, &rng_, &agent, opts);
  EXPECT_EQ(report.seed_inserts, 500u);
  EXPECT_GT(report.replan_polls, 0u);
  EXPECT_LE(report.replan_polls, db_.next_seq() / kReplanPollWriteStride);
  EXPECT_LT(report.replan_polls, report.seed_inserts);
}

TEST_F(GeneratorsTest, WorkloadShapesMatchOptions) {
  Build(20, 10, 10);
  RandomAgent agent(99);
  InitialDataOptions data_opts;
  data_opts.num_tuples = 40;
  GenerateInitialData(&db_, &tgds_, constants_, &rng_, &agent, data_opts);

  WorkloadOptions wl;
  wl.num_updates = 100;
  wl.delete_fraction = 0.2;
  const std::vector<WriteOp> ops =
      GenerateWorkload(&db_, constants_, &rng_, wl);
  ASSERT_EQ(ops.size(), 100u);
  size_t deletes = 0;
  for (const WriteOp& op : ops) {
    deletes += op.kind == WriteOp::Kind::kDelete ? 1 : 0;
  }
  EXPECT_EQ(deletes, 20u);
  // Deletes are shuffled, not all up front.
  bool delete_after_insert = false;
  bool seen_insert = false;
  for (const WriteOp& op : ops) {
    if (op.kind == WriteOp::Kind::kInsert) seen_insert = true;
    if (op.kind == WriteOp::Kind::kDelete && seen_insert) {
      delete_after_insert = true;
    }
  }
  EXPECT_TRUE(delete_after_insert);
}

TEST_F(GeneratorsTest, GenerationIsDeterministicInSeed) {
  Build(15, 10, 25);
  Database db2;
  Rng rng2(12345);
  SchemaGenOptions schema_opts;
  schema_opts.num_relations = 15;
  ASSERT_TRUE(GenerateSchema(&db2, &rng2, schema_opts).ok());
  std::vector<Value> constants2 = GenerateConstantPool(&db2, &rng2, 10);
  MappingGenOptions mapping_opts;
  mapping_opts.count = 25;
  std::vector<Tgd> tgds2 =
      GenerateMappings(db2, constants2, &rng2, mapping_opts);
  ASSERT_EQ(tgds_.size(), tgds2.size());
  for (size_t i = 0; i < tgds_.size(); ++i) {
    EXPECT_EQ(tgds_[i].ToString(db_.catalog(), db_.symbols()),
              tgds2[i].ToString(db2.catalog(), db2.symbols()));
  }
}

}  // namespace
}  // namespace youtopia
