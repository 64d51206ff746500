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

void FindMoreSpecificRows(const Snapshot& snap, RelationId rel,
                          const TupleData& data, bool exclude_equal,
                          std::vector<RowId>* out) {
  auto consider = [&](RowId row, const TupleData& stored) {
    if (exclude_equal && stored == data) return;
    if (IsMoreSpecific(stored, data)) out->push_back(row);
  };
  // f is the identity on constants, so every answer agrees with `data` on
  // its constant columns and is listed in each of their buckets.
  const auto bucket = snap.db().relation(rel).SmallestContentBucket(
      data, [&](size_t c) { return data[c].is_constant(); });
  if (!bucket.has_value()) {
    // All-null tuple: every row is a potential match; scan.
    snap.ForEachVisible(
        rel, [&](RowId row, const TupleData& stored) { consider(row, stored); });
    return;
  }
  // Read in place: the bucket is ascending and lists each row once, so
  // each answer is reported once and in row order.
  for (RowId row : *bucket) {
    const TupleData* stored = snap.VisibleData(rel, row);
    if (stored != nullptr) consider(row, *stored);
  }
}

}  // namespace youtopia
