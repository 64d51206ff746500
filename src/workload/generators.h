#ifndef YOUTOPIA_WORKLOAD_GENERATORS_H_
#define YOUTOPIA_WORKLOAD_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "core/agent.h"
#include "relational/database.h"
#include "relational/write.h"
#include "tgd/tgd.h"
#include "util/rng.h"
#include "util/status.h"

namespace youtopia {

// Synthetic schema / mapping / data / workload generators reproducing the
// paper's experimental setup (Section 6):
//  * 100 relations with one to six attributes,
//  * mappings over random subsets of one to three relations per side
//    (smaller sets more probable), with inter-atom joins and constants from
//    a fixed pool of 50 random strings,
//  * a 10,000-tuple initial database produced by the update-exchange
//    machinery itself (each seed insert sets off a forward chase with a
//    simulated user), and
//  * workloads of 500 random inserts / mixed inserts+deletes.

struct SchemaGenOptions {
  size_t num_relations = 100;
  size_t min_arity = 1;
  size_t max_arity = 6;
};

// Creates `num_relations` relations named R0..Rn-1 with uniform random arity.
Status GenerateSchema(Database* db, Rng* rng, const SchemaGenOptions& options);

// Interns `count` distinct random strings as the fixed constant pool.
std::vector<Value> GenerateConstantPool(Database* db, Rng* rng, size_t count);

struct MappingGenOptions {
  size_t count = 100;
  // Partition the schema into this many disjoint relation islands
  // (contiguous id blocks) and keep every mapping's relations within one
  // island, round-robining mappings across islands. With islands > 1 the
  // tgd-closure components stay disjoint, which is the workload shape the
  // sharded ingest pipeline pins without cross-shard admission (see
  // ccontrol/parallel/ and bench/parallel_scale.cc). 1 = the paper's
  // unconstrained generator.
  size_t num_islands = 1;
  // P(1 atom), P(2 atoms), P(3 atoms) per side — "smaller sets have higher
  // probability, as humans are highly unlikely to create mappings with more
  // than one or two atoms on either side".
  double size_weights[3] = {0.55, 0.30, 0.15};
  double p_constant_lhs = 0.12;   // per-position constant probability
  double p_constant_rhs = 0.08;
  double p_reuse_var = 0.6;       // LHS position joins with an earlier atom
  double p_frontier = 0.6;        // RHS position picks an LHS (frontier) var
  double p_reuse_existential = 0.4;
  // Chance a variable repeats *within* one atom (the paper's S(a, c, c) is
  // such a pattern, but random tuples rarely match highly self-constrained
  // atoms, so this is kept small).
  double p_within_atom_repeat = 0.05;
  // > 0: constant positions draw from the pool Zipf(theta)-skewed by pool
  // rank instead of uniformly (0 = the paper's uniform setup). Skewed
  // mapping constants concentrate chase matches on the hot constants, so
  // relation cardinalities drift instead of growing evenly — the workload
  // shape that actually trips the mid-chase re-planning nudge.
  double zipf_theta = 0.0;
  // > 0: probability that a constant position bypasses its usual draw
  // (uniform or Zipf) and picks rank-uniformly from the first
  // `hot_pool_ranks` pool constants instead. Mappings generated with the
  // same hot prefix collide on the same constants ACROSS mappings — paired
  // with a Zipfian workload over the same prefix, the hot values every
  // violation query probes are exactly the values the data piles onto (see
  // bench/skew_suite.cc). 0 = off (the paper's independent draws).
  double p_hot_constant = 0.0;
  // Size of the shared hot prefix the collision knob draws from.
  size_t hot_pool_ranks = 4;
  // > 1: prepend deterministic *chain* mappings (they count toward `count`)
  // before the random fill: per island, relation lo+k maps positionally
  // into the next `fan_out` relations for k in [0, chain_length-1). Long
  // chains make every seed insert cascade through deep derivations, and
  // the shared relations weld the island into ONE tgd-closure component —
  // the dense single-component shape that relation-partitioned sharding
  // cannot split (see bench/parallel_scale.cc's dense arm).
  size_t chain_length = 0;
  // RHS atoms per chain hop (breadth of each derivation; clamped to the
  // island edge). 1 = a pure linear chain.
  size_t fan_out = 1;
};

// Generates `options.count` random mappings over the database's schema.
// Every mapping is validated (Tgd::Create); LHS atoms are join-connected and
// every mapping has at least one frontier variable.
std::vector<Tgd> GenerateMappings(const Database& db,
                                  const std::vector<Value>& constants,
                                  Rng* rng, const MappingGenOptions& options);

struct InitialDataOptions {
  size_t num_tuples = 10000;
  // Per-insert chase step cap (defensive; random agents terminate chases
  // with probability 1).
  size_t max_steps_per_insert = 100000;
};

struct InitialDataReport {
  size_t seed_inserts = 0;
  size_t total_tuples = 0;   // visible tuples after generation
  size_t chase_steps = 0;
  size_t frontier_ops = 0;
  size_t capped_chases = 0;  // inserts whose chase hit the step cap
  // Re-planning sweeps the seed chase ran: one shared watermark fires at
  // most once per kReplanPollWriteStride database writes.
  uint64_t replan_polls = 0;
};

// Seeds the database with `num_tuples` random insertions, each propagated by
// a full forward chase under `agent`, on behalf of update number 0 (visible
// to every later reader). The resulting database satisfies all mappings.
InitialDataReport GenerateInitialData(Database* db,
                                      const std::vector<Tgd>* tgds,
                                      const std::vector<Value>& constants,
                                      Rng* rng, FrontierAgent* agent,
                                      const InitialDataOptions& options);

struct WorkloadOptions {
  size_t num_updates = 500;
  double delete_fraction = 0.0;  // exact share of deletes, order shuffled
  double p_fresh_value = 0.5;    // insert values: fresh constant vs pool
  // > 0: pool-constant picks are Zipf(theta)-skewed by pool rank (0 =
  // uniform). See MappingGenOptions::zipf_theta.
  double zipf_theta = 0.0;
  // Hot-collision knob for insert pool draws, mirroring
  // MappingGenOptions::p_hot_constant: with this probability a pool draw
  // picks rank-uniformly from the first `hot_pool_ranks` constants, piling
  // workload mass onto the same hot prefix the mappings' constants share.
  double p_hot_value = 0.0;
  size_t hot_pool_ranks = 4;
};

// Generates the initial operations of one workload run. Insert targets are
// uniform over relations; values are fresh constants or pool constants with
// equal probability. Delete targets are uniform over relations and then
// uniform over the relation's currently visible tuples.
std::vector<WriteOp> GenerateWorkload(Database* db,
                                      const std::vector<Value>& constants,
                                      Rng* rng,
                                      const WorkloadOptions& options);

}  // namespace youtopia

#endif  // YOUTOPIA_WORKLOAD_GENERATORS_H_
