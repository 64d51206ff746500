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

uint64_t Database::Apply(WriteOp op, uint64_t update_number,
                         std::vector<PhysicalWrite>* out,
                         const std::vector<TupleRef>* replace_occurrences) {
  switch (op.kind) {
    case WriteOp::Kind::kInsert: {
      CHECK_LT(op.rel, relations_.size());
      CHECK_EQ(op.data.size(), relations_[op.rel].arity());
      // Set semantics: no-op if the writer already sees an equal tuple.
      uint64_t examined = 0;
      if (FindRowWithData(op.rel, op.data, update_number, &examined)
              .has_value()) {
        return examined;
      }
      PhysicalWrite w;
      w.kind = WriteKind::kInsert;
      w.rel = op.rel;
      w.data = op.data;
      w.row = relations_[op.rel].AppendInsertRow(update_number, TakeSeq(),
                                                 std::move(op.data));
      RegisterNullOccurrences(op.rel, w.row, w.data);
      out->push_back(std::move(w));
      return examined;
    }
    case WriteOp::Kind::kDelete: {
      CHECK_LT(op.rel, relations_.size());
      const TupleData* old = relations_[op.rel].VisibleData(op.row,
                                                            update_number);
      if (old == nullptr) return 0;  // already gone for this writer
      PhysicalWrite w;
      w.kind = WriteKind::kDelete;
      w.rel = op.rel;
      w.row = op.row;
      w.old_data = *old;
      // Appending the tombstone may move `old`, so it is copied first.
      relations_[op.rel].AppendVersion(op.row, update_number, TakeSeq(),
                                       WriteKind::kDelete, w.old_data);
      out->push_back(std::move(w));
      return 0;
    }
    case WriteOp::Kind::kNullReplace: {
      CHECK(op.from.is_null());
      if (op.from == op.to) return 0;  // degenerate: changes no tuple
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
        PhysicalWrite w;
        w.kind = WriteKind::kModify;
        w.rel = ref.rel;
        w.row = ref.row;
        w.old_data = *cur;
        w.data = *cur;
        for (Value& v : w.data) {
          if (v == op.from) v = op.to;
        }
        // Appending the version may move `cur`; it is not read again.
        relations_[ref.rel].AppendVersion(ref.row, update_number, TakeSeq(),
                                          WriteKind::kModify, w.data);
        RegisterNullOccurrences(ref.rel, ref.row, w.data);
        out->push_back(std::move(w));
      }
      return 0;
    }
  }
  return 0;
}

void Database::SkipNumbersTo(uint64_t n) {
  uint64_t cur = next_number_.load(std::memory_order_relaxed);
  while (cur < n && !next_number_.compare_exchange_weak(
                        cur, n, std::memory_order_relaxed)) {
  }
}

std::optional<RowId> Database::FindRowWithData(RelationId rel,
                                               const TupleData& data,
                                               uint64_t reader,
                                               uint64_t* rows_examined) const {
  CHECK_LT(rel, relations_.size());
  CHECK(!data.empty());
  const VersionedRelation& relation = relations_[rel];
  if (data.size() != relation.arity()) return std::nullopt;
  // An equal tuple carries every value of `data`, so every bucket over its
  // columns lists it; walk the smallest, in place. Buckets are ascending,
  // so the first equal row met is the lowest-numbered one.
  const Span<const RowId> bucket =
      *relation.SmallestContentBucket(data, [](size_t) { return true; });
  std::optional<RowId> found;
  uint64_t examined = 0;
  for (RowId row : bucket) {
    const TupleData* visible = relation.VisibleData(row, reader);
    if (visible == nullptr) continue;
    ++examined;
    if (*visible == data) {
      found = row;
      break;
    }
  }
  if (rows_examined != nullptr) *rows_examined += examined;
  return found;
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
