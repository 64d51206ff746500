#include "query/specificity.h"

namespace youtopia {

bool IsMoreSpecific(const TupleData& specific, const TupleData& general) {
  if (specific.size() != general.size()) return false;
  for (size_t i = 0; i < general.size(); ++i) {
    const Value& g = general[i];
    if (g.is_constant()) {
      // f must be the identity on constants.
      if (!(specific[i] == g)) return false;
      continue;
    }
    // f must be a function: the null's first position fixes its image.
    // Tuples are a few columns wide, so scanning the earlier positions
    // beats building a map on every call.
    for (size_t j = 0; j < i; ++j) {
      if (general[j] == g) {
        if (!(specific[j] == specific[i])) return false;
        break;
      }
    }
  }
  return true;
}

namespace {

// The walk behind both forms of the correction query: calls
// found(row, stored) on each visible row of `rel` more specific than
// `data`, with its content, in ascending row order, until it returns
// false. Returns the rows re-verified.
template <typename Fn>
size_t WalkMoreSpecificRows(const Snapshot& snap, RelationId rel,
                            const TupleData& data, Fn&& found) {
  size_t examined = 0;
  // f is the identity on constants, so every answer agrees with `data` on
  // its constant columns and is listed in each of their buckets.
  const auto bucket = snap.db().relation(rel).SmallestContentBucket(
      data, [&](size_t c) { return data[c].is_constant(); });
  if (!bucket.has_value()) {
    // All-null tuple: every row is a potential match; scan.
    snap.ForEachVisible(rel, [&](RowId row, const TupleData& stored) {
      ++examined;
      return !IsMoreSpecific(stored, data) || found(row, stored);
    });
    return examined;
  }
  // Read in place: the bucket is ascending and lists each row once, so
  // each answer is reported once and in row order.
  for (RowId row : *bucket) {
    const TupleData* stored = snap.VisibleData(rel, row);
    if (stored == nullptr) continue;
    ++examined;
    if (IsMoreSpecific(*stored, data) && !found(row, *stored)) break;
  }
  return examined;
}

}  // namespace

size_t FindMoreSpecificRows(const Snapshot& snap, RelationId rel,
                            const TupleData& data, std::vector<RowId>* out,
                            bool* exact) {
  if (exact != nullptr) *exact = false;
  return WalkMoreSpecificRows(
      snap, rel, data, [&](RowId row, const TupleData& stored) {
        out->push_back(row);
        if (exact != nullptr && stored == data) *exact = true;
        return true;
      });
}

bool HasMoreSpecificRow(const Snapshot& snap, RelationId rel,
                        const TupleData& data, uint64_t* rows_examined) {
  bool any = false;
  *rows_examined +=
      WalkMoreSpecificRows(snap, rel, data, [&](RowId, const TupleData&) {
        any = true;
        return false;
      });
  return any;
}

}  // namespace youtopia
