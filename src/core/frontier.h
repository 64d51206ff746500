#ifndef YOUTOPIA_CORE_FRONTIER_H_
#define YOUTOPIA_CORE_FRONTIER_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/violation.h"
#include "query/binding.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace youtopia {

// Provenance of a frontier tuple: which tgd fired and on which witness
// (Section 2.2 calls for "meaningful provenance information for the frontier
// tuples" so users can decide).
struct Provenance {
  int tgd_id = -1;
  std::vector<TupleRef> witness;
};

// A positive frontier tuple (Section 2.2): generated by a forward-chase
// firing but *not* inserted because the relation already holds a more
// specific tuple, making the chase nondeterministic at this point.
struct FrontierTuple {
  RelationId rel = 0;
  TupleData data;  // current content; shared-null substitutions from earlier
                   // decisions in the same group are applied in place
  // Candidate rows: filled when the frontier is processed, by the full
  // correction query, just before the agent is asked about this tuple.
  std::vector<RowId> more_specific;
};

// All RHS tuples of one tgd firing form one group; they may share fresh
// labeled nulls, which must be treated consistently across the group's
// frontier operations.
struct PositiveFrontier {
  Provenance prov;
  Binding binding;                    // the violating assignment
  std::vector<FrontierTuple> tuples;  // pending, resolved front to back
  // Nulls freshly generated for this firing (occur nowhere else until an
  // expansion writes them).
  std::unordered_set<uint64_t> fresh_null_ids;
  // Fresh nulls already written to the database by an expansion in this
  // group; a later unification of such a null must be a real NullReplace.
  std::unordered_set<uint64_t> written_fresh_null_ids;
};

// A negative frontier (Section 2.3): the witness tuples of an RHS-violation,
// any of which may be deleted to repair it. The user deletes a non-empty
// subset.
struct NegativeFrontier {
  Provenance prov;
  std::vector<TupleRef> candidates;
};

// The user's answer to a negative frontier. The paper's base operation is
// deleting a non-empty subset of the candidates; Section 2.3 sketches a
// *reconfirmation* counterpart — declaring a proper subset protected from
// deletion — as future work, which this implementation supports: a decision
// may instead reconfirm some candidates, narrowing the choice; the chase
// deletes deterministically once a single candidate remains.
struct NegativeDecision {
  std::vector<size_t> delete_indexes;     // candidates to delete, and/or
  std::vector<size_t> reconfirm_indexes;  // candidates protected (kept)

  static NegativeDecision Delete(std::vector<size_t> idx) {
    NegativeDecision d;
    d.delete_indexes = std::move(idx);
    return d;
  }
  static NegativeDecision Reconfirm(std::vector<size_t> idx) {
    NegativeDecision d;
    d.reconfirm_indexes = std::move(idx);
    return d;
  }
};

// The user's answer to one positive frontier tuple: insert it as new
// (expand), or declare it the same real-world fact as an existing, more
// specific tuple (unify).
struct PositiveDecision {
  enum class Kind : uint8_t { kExpand, kUnify };
  Kind kind = Kind::kExpand;
  RowId unify_with = 0;  // valid when kind == kUnify

  static PositiveDecision Expand() { return PositiveDecision{}; }
  static PositiveDecision Unify(RowId row) {
    PositiveDecision d;
    d.kind = Kind::kUnify;
    d.unify_with = row;
    return d;
  }
};

}  // namespace youtopia

#endif  // YOUTOPIA_CORE_FRONTIER_H_
