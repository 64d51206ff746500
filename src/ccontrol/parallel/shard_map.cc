#include "ccontrol/parallel/shard_map.h"

#include <algorithm>

namespace youtopia {
namespace {

// Plain path-halving union-find over relation ids.
uint32_t Find(std::vector<uint32_t>& parent, uint32_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

void Union(std::vector<uint32_t>& parent, uint32_t a, uint32_t b) {
  a = Find(parent, a);
  b = Find(parent, b);
  // Rooting at the smaller id keeps every root the minimum of its
  // component, which is exactly the representative/lock-order key below.
  if (a == b) return;
  if (a < b) {
    parent[b] = a;
  } else {
    parent[a] = b;
  }
}

}  // namespace

ShardMap::ShardMap(size_t num_relations, const std::vector<Tgd>& tgds,
                   size_t num_shards, const Database* db) {
  std::vector<uint32_t> parent(num_relations);
  for (uint32_t r = 0; r < num_relations; ++r) parent[r] = r;
  for (const Tgd& tgd : tgds) {
    const std::vector<RelationId>& rels = tgd.all_relations();
    for (size_t i = 1; i < rels.size(); ++i) {
      CHECK_LT(rels[i], num_relations);
      Union(parent, static_cast<uint32_t>(rels[0]),
            static_cast<uint32_t>(rels[i]));
    }
  }

  // Component ids in ascending-representative order: scanning relations in
  // id order meets each root at its minimum member first.
  component_of_.assign(num_relations, 0);
  std::vector<uint64_t> component_weight;  // component -> balance weight
  std::vector<int64_t> id_of_root(num_relations, -1);
  for (uint32_t r = 0; r < num_relations; ++r) {
    const uint32_t root = Find(parent, r);
    if (id_of_root[root] < 0) {
      id_of_root[root] = static_cast<int64_t>(component_weight.size());
      component_weight.push_back(0);
    }
    const auto c = static_cast<uint32_t>(id_of_root[root]);
    component_of_[r] = c;
    // Without statistics every relation weighs 1 (relation count); with
    // them, rows plus the sketch-estimated hot-value mass (owner-only
    // reads — legal here because construction precedes worker start; see
    // the class comment).
    uint64_t weight = 1;
    if (db != nullptr && r < db->num_relations()) {
      const VersionedRelation& rel = db->relation(r);
      weight += rel.visible_rows() + kHotMassWeight * rel.HotValueMass();
    }
    component_weight[c] += weight;
  }

  // Greedy balance: components largest-first onto the least loaded shard.
  // Deterministic (ties resolve to the lower component/shard id), so every
  // run of a given schema+mapping set pins the same work to the same
  // workers.
  const size_t num_components = component_weight.size();
  num_shards_ = std::min(std::max<size_t>(num_shards, 1), num_components);
  shard_of_.assign(num_components, 0);
  std::vector<uint32_t> order(num_components);
  for (uint32_t c = 0; c < order.size(); ++c) order[c] = c;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return component_weight[a] > component_weight[b];
  });
  std::vector<size_t> load(num_shards_, 0);
  for (uint32_t c : order) {
    const size_t shard =
        std::min_element(load.begin(), load.end()) - load.begin();
    shard_of_[c] = static_cast<uint32_t>(shard);
    load[shard] += component_weight[c];
  }

  component_relations_.assign(num_components,
                              std::vector<bool>(num_relations, false));
  for (uint32_t r = 0; r < num_relations; ++r) {
    component_relations_[component_of_[r]][r] = true;
  }
}

void ShardMap::FootprintOf(const WriteOp& op, const Database& db,
                           std::vector<uint32_t>* out) const {
  const size_t first = out->size();
  switch (op.kind) {
    case WriteOp::Kind::kInsert:
      out->push_back(ComponentOf(op.rel));
      // A user-supplied insert may reference pre-existing labeled nulls;
      // writing one adds an occurrence, which widens the lock set any
      // concurrent replacement of that null must be ordered against. The
      // nulls' existing occurrence components therefore join the
      // footprint. (Chase-generated inserts never widen a footprint this
      // way: their nulls are either freshly minted in the component or
      // bound from tuples that already occur there.)
      for (const Value& v : op.data) {
        if (!v.is_null()) continue;
        for (const TupleRef& ref : db.nulls().Occurrences(v)) {
          out->push_back(ComponentOf(ref.rel));
        }
      }
      break;
    case WriteOp::Kind::kDelete:
      // Tombstones add no occurrences; the row's relation bounds the chase.
      out->push_back(ComponentOf(op.rel));
      break;
    case WriteOp::Kind::kNullReplace:
      for (const TupleRef& ref : db.nulls().Occurrences(op.from)) {
        out->push_back(ComponentOf(ref.rel));
      }
      break;
  }
  std::sort(out->begin() + first, out->end());
  out->erase(std::unique(out->begin() + first, out->end()), out->end());
}

std::vector<bool> ShardMap::RelationsOfComponents(
    const std::vector<uint32_t>& components) const {
  std::vector<bool> allowed(component_of_.size(), false);
  for (uint32_t r = 0; r < component_of_.size(); ++r) {
    if (std::find(components.begin(), components.end(), component_of_[r]) !=
        components.end()) {
      allowed[r] = true;
    }
  }
  return allowed;
}

}  // namespace youtopia
