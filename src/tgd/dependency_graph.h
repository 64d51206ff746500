#ifndef YOUTOPIA_TGD_DEPENDENCY_GRAPH_H_
#define YOUTOPIA_TGD_DEPENDENCY_GRAPH_H_

#include <cstdint>
#include <vector>

#include "relational/schema.h"
#include "tgd/tgd.h"

namespace youtopia {

// The classical position dependency graph used to decide *weak acyclicity*
// of a set of tgds (Fagin et al., "Data exchange: semantics and query
// answering"). Nodes are (relation, position) pairs. For every tgd and every
// frontier variable x occurring at LHS position p:
//   * a regular edge p -> q for every RHS position q where x occurs, and
//   * a special edge p -> q* for every RHS position q* holding an
//     existential variable in an atom of the tgd.
// The set is weakly acyclic iff no cycle goes through a special edge; this
// is the standard sufficient condition for termination of the classical
// chase — the restriction that Youtopia's cooperative chase removes
// (Section 1.3). We implement it both as the guard for the StandardChase
// baseline and to demonstrate that the paper's example mappings are cyclic.
class DependencyGraph {
 public:
  DependencyGraph(const Catalog& catalog, const std::vector<Tgd>& tgds);

  // True iff the tgd set is weakly acyclic.
  bool IsWeaklyAcyclic() const;

  // Diagnostics.
  size_t num_regular_edges() const { return regular_edges_; }
  size_t num_special_edges() const { return special_edges_; }

 private:
  struct Edge {
    uint32_t to;
    bool special;
  };

  uint32_t NodeId(RelationId rel, size_t position) const;

  size_t num_nodes_ = 0;
  size_t regular_edges_ = 0;
  size_t special_edges_ = 0;
  std::vector<uint32_t> rel_offset_;
  std::vector<std::vector<Edge>> adj_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_TGD_DEPENDENCY_GRAPH_H_
