#include "relational/database.h"

#include <utility>

namespace youtopia {

Result<RelationId> Database::CreateRelation(
    std::string name, std::vector<std::string> attributes) {
  const size_t arity = attributes.size();
  Result<RelationId> id =
      catalog_.AddRelation(std::move(name), std::move(attributes));
  if (!id.ok()) return id;
  relations_.emplace_back(arity);
  return id;
}

std::vector<PhysicalWrite> Database::Apply(
    const WriteOp& op, uint64_t update_number,
    const std::vector<TupleRef>* replace_occurrences) {
  std::vector<PhysicalWrite> out;
  switch (op.kind) {
    case WriteOp::Kind::kInsert: {
      CHECK_LT(op.rel, relations_.size());
      CHECK_EQ(op.data.size(), relations_[op.rel].arity());
      // Set semantics: no-op if the writer already sees an equal tuple.
      if (FindRowWithData(op.rel, op.data, update_number).has_value()) {
        return out;
      }
      const RowId row = relations_[op.rel].AppendInsertRow(
          update_number, TakeSeq(), op.data);
      RegisterNullOccurrences(op.rel, row, op.data);
      PhysicalWrite w;
      w.kind = WriteKind::kInsert;
      w.rel = op.rel;
      w.row = row;
      w.data = op.data;
      out.push_back(std::move(w));
      return out;
    }
    case WriteOp::Kind::kDelete: {
      CHECK_LT(op.rel, relations_.size());
      const TupleData* old = relations_[op.rel].VisibleData(op.row,
                                                            update_number);
      if (old == nullptr) return out;  // already gone for this writer
      TupleData old_copy = *old;
      relations_[op.rel].AppendVersion(op.row, update_number, TakeSeq(),
                                       WriteKind::kDelete, old_copy);
      PhysicalWrite w;
      w.kind = WriteKind::kDelete;
      w.rel = op.rel;
      w.row = op.row;
      w.old_data = std::move(old_copy);
      out.push_back(std::move(w));
      return out;
    }
    case WriteOp::Kind::kNullReplace: {
      CHECK(op.from.is_null());
      // Snapshot the occurrence list first: modifying rows appends new
      // occurrences (when `to` is itself a null) and must not be re-visited.
      // A caller-validated snapshot is used in place (it was already
      // copied once by the admission check).
      const std::vector<TupleRef> registry_copy =
          replace_occurrences == nullptr ? nulls_.Occurrences(op.from)
                                         : std::vector<TupleRef>();
      const std::vector<TupleRef>& occurrences =
          replace_occurrences != nullptr ? *replace_occurrences
                                         : registry_copy;
      for (const TupleRef& ref : occurrences) {
        const TupleData* cur =
            relations_[ref.rel].VisibleData(ref.row, update_number);
        if (cur == nullptr || !ContainsNull(*cur, op.from)) continue;
        TupleData next = *cur;
        for (Value& v : next) {
          if (v == op.from) v = op.to;
        }
        if (next == *cur) continue;  // degenerate replacement (from == to)
        PhysicalWrite w;
        w.kind = WriteKind::kModify;
        w.rel = ref.rel;
        w.row = ref.row;
        w.old_data = *cur;
        w.data = next;
        relations_[ref.rel].AppendVersion(ref.row, update_number, TakeSeq(),
                                          WriteKind::kModify, next);
        RegisterNullOccurrences(ref.rel, ref.row, w.data);
        out.push_back(std::move(w));
      }
      return out;
    }
  }
  return out;
}

size_t Database::RemoveVersionsAbove(uint64_t threshold) {
  size_t removed = 0;
  for (VersionedRelation& rel : relations_) {
    removed += rel.RemoveVersionsAbove(threshold);
  }
  NoteMutation(removed);
  return removed;
}

void Database::SkipNumbersTo(uint64_t n) {
  uint64_t cur = next_number_.load(std::memory_order_relaxed);
  while (cur < n && !next_number_.compare_exchange_weak(
                        cur, n, std::memory_order_relaxed)) {
  }
}

std::optional<RowId> Database::FindRowWithData(RelationId rel,
                                               const TupleData& data,
                                               uint64_t reader) const {
  CHECK_LT(rel, relations_.size());
  CHECK(!data.empty());
  const VersionedRelation& relation = relations_[rel];
  if (data.size() != relation.arity()) return std::nullopt;
  // An equal tuple carries every value of `data`, so any column's bucket
  // lists it; walk the smallest, in place.
  const Span<const RowId> bucket =
      *relation.SmallestContentBucket(data, [](size_t) { return true; });
  for (RowId row : bucket) {
    const TupleData* visible = relation.VisibleData(row, reader);
    if (visible != nullptr && *visible == data) return row;
  }
  return std::nullopt;
}

size_t Database::CountVisible(uint64_t reader) const {
  size_t n = 0;
  for (RelationId r = 0; r < relations_.size(); ++r) {
    n += CountVisible(r, reader);
  }
  return n;
}

size_t Database::CountVisible(RelationId rel, uint64_t reader) const {
  size_t n = 0;
  relations_[rel].ForEachVisible(reader,
                                 [&](RowId, const TupleData&) { ++n; });
  return n;
}

void Database::RegisterNullOccurrences(RelationId rel, RowId row,
                                       const TupleData& data) {
  for (const Value& v : data) {
    if (v.is_null()) nulls_.AddOccurrence(v, TupleRef{rel, row});
  }
}

}  // namespace youtopia
