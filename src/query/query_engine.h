#ifndef YOUTOPIA_QUERY_QUERY_ENGINE_H_
#define YOUTOPIA_QUERY_QUERY_ENGINE_H_

#include <vector>

#include "query/atom.h"
#include "query/evaluator.h"
#include "relational/database.h"

namespace youtopia {

// Section 1.2: the Youtopia query engine answers conjunctive queries over
// data that may be incomplete (labeled nulls) using two semantics:
//  * kCertain    — only answers guaranteed correct in every completion of
//                  the database (for CQs over naive tables: answers that
//                  contain no labeled nulls).
//  * kBestEffort — all potentially relevant answers, including those that
//                  mention labeled nulls.
enum class QuerySemantics { kCertain, kBestEffort };

class QueryEngine {
 public:
  explicit QueryEngine(const Snapshot& snap) : snap_(snap) {}

  // Evaluates `body` and projects onto `head` variables; returns distinct
  // answer tuples. Every head variable must occur in the body.
  std::vector<TupleData> Evaluate(const ConjunctiveQuery& body,
                                  const std::vector<VarId>& head,
                                  QuerySemantics semantics) const;

  // Boolean query: does the body have a match? Best effort answers yes on
  // any match; certain answers yes only on a match that binds every body
  // variable to a constant.
  bool Ask(const ConjunctiveQuery& body, QuerySemantics semantics) const;

 private:
  const Snapshot& snap_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_QUERY_QUERY_ENGINE_H_
