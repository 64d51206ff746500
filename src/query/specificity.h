#ifndef YOUTOPIA_QUERY_SPECIFICITY_H_
#define YOUTOPIA_QUERY_SPECIFICITY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "relational/database.h"
#include "relational/tuple.h"

namespace youtopia {

// Definition 2.4 (Specificity Relation). `specific` is more specific than
// `general` iff the positionwise map f(general[i]) = specific[i] is a
// well-defined function and is the identity on constants. Intuitively,
// `specific` can be obtained from `general` by consistently substituting
// values for labeled nulls. Every tuple is more specific than itself.
bool IsMoreSpecific(const TupleData& specific, const TupleData& general);

// The paper's correction query "find any t' in R more specific than t":
// appends every visible row of `rel` whose content is more specific than
// `data`, in ascending row order, each once, and sets `*exact` (when given)
// to whether one of them is an exact copy of `data`. Re-verifies the
// smallest index bucket among `data`'s constant columns; an all-null `data`
// scans the relation. Returns the rows it re-verified.
size_t FindMoreSpecificRows(const Snapshot& snap, RelationId rel,
                            const TupleData& data, std::vector<RowId>* out,
                            bool* exact = nullptr);

// The existence form of the same query: whether any visible row of `rel`
// is more specific than `data`. Walks what FindMoreSpecificRows walks and
// stops at the first answer; adds the rows it re-verified to
// `*rows_examined`.
bool HasMoreSpecificRow(const Snapshot& snap, RelationId rel,
                        const TupleData& data, uint64_t* rows_examined);

}  // namespace youtopia

#endif  // YOUTOPIA_QUERY_SPECIFICITY_H_
