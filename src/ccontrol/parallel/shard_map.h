#ifndef YOUTOPIA_CCONTROL_PARALLEL_SHARD_MAP_H_
#define YOUTOPIA_CCONTROL_PARALLEL_SHARD_MAP_H_

#include <cstdint>
#include <vector>

#include "relational/database.h"
#include "relational/write.h"
#include "tgd/tgd.h"

namespace youtopia {

// Partitions the repository's relations by their tgd-closure footprint.
//
// Two relations are *connected* when some mapping mentions both (on either
// side); a *component* is a connected set under the transitive closure. The
// chase of an insert or delete can only ever read or write relations of the
// initial relation's component: violations of a mapping require writes to
// that mapping's relations, repairs write to that mapping's relations, and
// every mapping's relation set lies within one component by construction.
// Components are therefore the unit of conflict admission — updates in
// different components commute — and the unit of lock footprints for the
// updates that do span components (null replacements, whose occurrence sets
// are not bounded by any mapping; see IngestPipeline).
//
// Component ids ascend with their representative (minimum) relation id, so
// acquiring component locks in component-id order IS the ordered
// relation-id acquisition protocol: every multi-component admission locks
// in the same global order and deadlock is structurally impossible.
//
// Shards group components onto workers: shard_count = min(requested
// workers, components), components assigned largest-first onto the least
// loaded shard. Without a database the weight is the component's relation
// count; with one (`db` non-null) each relation weighs
// 1 + visible_rows + kHotMassWeight * HotValueMass(), so a component whose
// mass sits in Zipfian-hot values — where every probe and violation query
// examines whole hot buckets, not average ones — stops hiding behind
// uniform siblings of equal row count. Construction reads owner-only
// relation statistics and must therefore happen single-threaded, before
// workers exist (pipeline setup does). The map is immutable after
// construction and safe to read from any thread.
class ShardMap {
 public:
  ShardMap(size_t num_relations, const std::vector<Tgd>& tgds,
           size_t num_shards, const Database* db = nullptr);

  // Weight multiplier for hot-value mass in the balance: a hot bucket of g
  // rows is examined in full by each probe that lands on it, and the
  // probability of landing there scales with g itself — the same 4x
  // pessimism the planner's hot thresholds encode (relation.h).
  static constexpr uint64_t kHotMassWeight = 4;

  size_t num_relations() const { return component_of_.size(); }
  size_t num_components() const { return shard_of_.size(); }
  size_t num_shards() const { return num_shards_; }

  uint32_t ComponentOf(RelationId rel) const {
    CHECK_LT(rel, component_of_.size());
    return component_of_[rel];
  }

  uint32_t ShardOfComponent(uint32_t component) const {
    CHECK_LT(component, shard_of_.size());
    return shard_of_[component];
  }

  uint32_t ShardOfRelation(RelationId rel) const {
    return ShardOfComponent(ComponentOf(rel));
  }

  // Per-relation membership bitmap of one component. This — not the
  // shard's relation set — is the admission guard for a pinned update: the
  // update holds exactly its component's footprint lock, so writing (or
  // replanning over) a sibling component of the same shard would race a
  // cross-shard admission that holds that sibling's lock.
  const std::vector<bool>& ComponentRelations(uint32_t component) const {
    CHECK_LT(component, component_relations_.size());
    return component_relations_[component];
  }

  // Appends the distinct component ids `op`'s chase can start from,
  // ascending. Inserts and deletes resolve from the relation alone; a null
  // replacement reads the null's current occurrence set (thread-safe,
  // conservative: stale occurrences widen the footprint, never narrow it).
  void FootprintOf(const WriteOp& op, const Database& db,
                   std::vector<uint32_t>* out) const;

  // Union membership bitmap over the given components' relations.
  std::vector<bool> RelationsOfComponents(
      const std::vector<uint32_t>& components) const;

 private:
  std::vector<uint32_t> component_of_;  // relation -> component
  std::vector<uint32_t> shard_of_;      // component -> shard
  // component -> per-relation membership
  std::vector<std::vector<bool>> component_relations_;
  size_t num_shards_ = 0;
};

}  // namespace youtopia

#endif  // YOUTOPIA_CCONTROL_PARALLEL_SHARD_MAP_H_
