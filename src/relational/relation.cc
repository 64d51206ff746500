#include "relational/relation.h"

#include <algorithm>
#include <utility>

namespace youtopia {
namespace {

// A requested (deferred) composite index materializes once the cheapest
// single-column fallback for its column set can yield this many candidates
// per probe (largest bucket among its columns). Below it, single-column
// probes are cheap and the per-write maintenance would outweigh the probe
// savings; above it, the per-column indexes have stopped being selective for
// this column set — precisely the skew a composite index exists to absorb.
constexpr size_t kCompositeBuildBreakEven = 16;

// Murmur3's 64-bit finalizer (an avalanching bijection). The hot-fingerprint
// fold's per-entry inputs (column, value hash) are structured, so each must
// be scrambled before the order-independent XOR combine or adjacent columns
// would cancel; composite keys scramble each packed value before folding it.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

void VersionList::MoveTo(size_t capacity) {
  TupleVersion* from = data();
  const bool from_heap = !is_inline();
  TupleVersion* to =
      capacity == 1
          ? &inline_
          : static_cast<TupleVersion*>(
                ::operator new(capacity * sizeof(TupleVersion)));
  // Moving to the inline slot happens only from the heap, so `to` never
  // overlaps `from`; heap_ is overwritten only once its value is in `from`.
  for (uint32_t i = 0; i < size_; ++i) {
    new (to + i) TupleVersion(std::move(from[i]));
    from[i].~TupleVersion();
  }
  if (from_heap) ::operator delete(from);
  if (capacity > 1) heap_ = to;
  capacity_ = static_cast<uint32_t>(capacity);
}

template <typename ValueAt>
uint64_t VersionedRelation::CompositeKey(size_t n, ValueAt&& value) {
  uint64_t key = n;
  for (size_t i = 0; i < n; ++i) key = Mix64(key ^ Mix64(IndexKey(value(i))));
  return key;
}

uint64_t VersionedRelation::CompositeKey(const std::vector<size_t>& columns,
                                         const TupleData& data) {
  return CompositeKey(columns.size(),
                      [&](size_t i) { return data[columns[i]]; });
}

VersionedRelation::VersionedRelation(size_t arity) : arity_(arity) {
  CHECK_GT(arity, 0u);
  indexes_.resize(arity);
  sketches_.reserve(arity);
  for (size_t c = 0; c < arity; ++c) {
    sketches_.emplace_back(kRelationSketchCapacity);
  }
}

RowId VersionedRelation::AppendInsertRow(uint64_t update_number, uint64_t seq,
                                         TupleData data) {
  CHECK_EQ(data.size(), arity_);
  const RowId row = static_cast<RowId>(rows_.size());
  rows_.emplace_back();
  IndexData(row, data);
  rows_.back().versions.Append(
      TupleVersion{update_number, seq, WriteKind::kInsert, std::move(data)});
  rows_.back().newest = 0;
  ++num_versions_;
  visible_rows_.fetch_add(1, std::memory_order_relaxed);
  return row;
}

void VersionedRelation::AppendVersion(RowId row, uint64_t update_number,
                                      uint64_t seq, WriteKind kind,
                                      TupleData data) {
  CHECK_LT(row, rows_.size());
  CHECK(kind != WriteKind::kInsert);
  CHECK_EQ(data.size(), arity_);
  if (kind == WriteKind::kModify) IndexData(row, data);
  Row& r = rows_[row];
  MutateTrackingLiveness(r, [&] {
    r.versions.Append(TupleVersion{update_number, seq, kind, std::move(data)});
    const TupleVersion& added = r.versions.back();
    if (r.newest < 0) {
      r.newest = static_cast<int32_t>(r.versions.size()) - 1;
    } else {
      const TupleVersion& top = r.versions[static_cast<size_t>(r.newest)];
      if (added.update_number > top.update_number ||
          (added.update_number == top.update_number && added.seq > top.seq)) {
        r.newest = static_cast<int32_t>(r.versions.size()) - 1;
      }
    }
  });
  ++num_versions_;
}

const TupleVersion* VersionedRelation::OlderVisibleVersion(const Row& row,
                                                           uint64_t reader) {
  const TupleVersion* best = nullptr;
  for (const TupleVersion& v : row.versions) {
    if (v.update_number > reader) continue;
    if (best == nullptr || v.update_number > best->update_number ||
        (v.update_number == best->update_number && v.seq > best->seq)) {
      best = &v;
    }
  }
  return best;
}

VersionedRelation::CompositeIndex* VersionedRelation::FindOrRegisterComposite(
    const std::vector<size_t>& columns) {
  CHECK_GE(columns.size(), 2u);
  for (size_t i = 0; i < columns.size(); ++i) {
    CHECK_LT(columns[i], arity_);
    if (i > 0) CHECK_LT(columns[i - 1], columns[i]);  // distinct, ascending
  }
  for (CompositeIndex& index : composites_) {
    if (index.columns == columns) return &index;
  }
  composites_.emplace_back();
  composites_.back().columns = columns;
  return &composites_.back();
}

void VersionedRelation::BuildCompositeIndex(CompositeIndex& index) {
  // Build from every stored content version (insert and modify data), the
  // same coverage the per-column indexes have: any reader-visible content
  // must be reachable through the index.
  index.built = true;
  for (RowId row = 0; row < rows_.size(); ++row) {
    for (const TupleVersion& v : rows_[row].versions) {
      if (v.kind == WriteKind::kDelete) continue;
      IndexDataComposite(index, row, v.data);
    }
  }
}

void VersionedRelation::EnsureCompositeIndex(
    const std::vector<size_t>& columns) {
  CompositeIndex* index = FindOrRegisterComposite(columns);
  if (!index->built) BuildCompositeIndex(*index);
}

bool VersionedRelation::ShouldBuildComposite(
    const CompositeIndex& index) const {
  // The executor's fallback probes the cheapest single column of the set; a
  // composite index only pays once even the best of those buckets is large.
  size_t cheapest_fallback = SIZE_MAX;
  for (size_t c : index.columns) {
    cheapest_fallback = std::min(cheapest_fallback, max_bucket(c));
  }
  return cheapest_fallback >= kCompositeBuildBreakEven;
}

void VersionedRelation::RequestCompositeIndex(
    const std::vector<size_t>& columns) {
  CompositeIndex* index = FindOrRegisterComposite(columns);
  if (!index->built && ShouldBuildComposite(*index)) {
    BuildCompositeIndex(*index);
  }
}

bool VersionedRelation::HasCompositeIndex(
    const std::vector<size_t>& columns) const {
  for (const CompositeIndex& index : composites_) {
    if (index.columns == columns) return true;
  }
  return false;
}

std::optional<Span<const RowId>> VersionedRelation::CompositeBucket(
    const std::vector<size_t>& columns,
    const std::vector<Value>& values) const {
  CHECK_EQ(columns.size(), values.size());
  for (const CompositeIndex& index : composites_) {
    if (index.columns != columns) continue;
    if (!index.built) return std::nullopt;  // deferred: caller falls back
    return index.buckets.Find(
        CompositeKey(values.size(), [&](size_t i) { return values[i]; }));
  }
  return std::nullopt;
}

size_t VersionedRelation::IndexEntryCount() const {
  size_t n = 0;
  for (const RowBuckets& index : indexes_) n += index.entries();
  for (const CompositeIndex& index : composites_) n += index.buckets.entries();
  return n;
}

uint64_t VersionedRelation::HotValueMass() const {
  const double n = static_cast<double>(visible_rows());
  uint64_t mass = 0;
  for (size_t c = 0; c < arity_; ++c) {
    const double uniform =
        n / static_cast<double>(std::max<size_t>(1, indexes_[c].size()));
    sketches_[c].ForEach([&](const Value&, uint64_t count) {
      if (IsHotBucket(count, uniform)) mass += count;
    });
  }
  return mass;
}

void VersionedRelation::RecomputeHotFingerprint() {
  offers_since_fingerprint_ = 0;
  const double n = static_cast<double>(visible_rows());
  uint64_t fp = 0;
  for (size_t c = 0; c < arity_; ++c) {
    const double uniform =
        n / static_cast<double>(std::max<size_t>(1, indexes_[c].size()));
    sketches_[c].ForEach([&](const Value& v, uint64_t count) {
      if (!IsHotBucket(count, uniform)) return;
      // Membership only, not counts: the fingerprint answers "did the hot
      // SET rotate" — growth of an already-hot value is cardinality drift,
      // which the visible_rows stamp already catches.
      fp ^= Mix64((static_cast<uint64_t>(c) + 1) * 0x9E3779B97F4A7C15ull ^
                  ValueHash{}(v));
    });
  }
  hot_fingerprint_.store(fp, std::memory_order_relaxed);
}

size_t VersionedRelation::RemoveVersionsOfRow(RowId row,
                                              uint64_t update_number) {
  CHECK_LT(row, rows_.size());
  Row& r = rows_[row];
  VersionList& versions = r.versions;
  size_t removed = 0;
  MutateTrackingLiveness(r, [&] {
    // Stable: the kept versions keep their order and the removed ones their
    // content, which names the buckets to unlist the row from.
    const auto cut = std::stable_partition(
        versions.begin(), versions.end(), [&](const TupleVersion& v) {
          return v.update_number != update_number;
        });
    removed = static_cast<size_t>(versions.end() - cut);
    if (removed == 0) return;
    const Span<const TupleVersion> kept(
        versions.data(), static_cast<size_t>(cut - versions.begin()));
    for (auto it = cut; it != versions.end(); ++it) {
      if (it->kind != WriteKind::kDelete) UnindexData(row, it->data, kept);
    }
    versions.Truncate(static_cast<size_t>(cut - versions.begin()));
    RecomputeNewest(r);
  });
  num_versions_ -= removed;
  return removed;
}

void VersionedRelation::IndexData(RowId row, const TupleData& data) {
  for (size_t c = 0; c < arity_; ++c) {
    const size_t size = indexes_[c].Add(IndexKey(data[c]), row);
    if (size != 0) sketches_[c].Set(data[c], size);
  }
  if (++offers_since_fingerprint_ >= kHotFingerprintStride) {
    RecomputeHotFingerprint();
  }
  for (CompositeIndex& index : composites_) {
    if (!index.built) {
      if (!ShouldBuildComposite(index)) continue;
      // Deferred build: materialize now that the single-column fallback has
      // crossed its break-even. The catch-up scan cannot see this write's
      // version (it is appended after indexing), so fall through and index
      // it explicitly.
      BuildCompositeIndex(index);
    }
    IndexDataComposite(index, row, data);
  }
}

void VersionedRelation::IndexDataComposite(CompositeIndex& index, RowId row,
                                           const TupleData& data) {
  index.buckets.Add(CompositeKey(index.columns, data), row);
}

void VersionedRelation::UnindexData(RowId row, const TupleData& data,
                                    Span<const TupleVersion> kept) {
  // Does a kept content version's data satisfy `same`?
  auto kept_any = [&](auto&& same) {
    for (const TupleVersion& v : kept) {
      if (v.kind != WriteKind::kDelete && same(v.data)) return true;
    }
    return false;
  };
  for (size_t c = 0; c < arity_; ++c) {
    if (kept_any([&](const TupleData& d) { return d[c] == data[c]; })) {
      continue;
    }
    size_t size = 0;
    // Not listed: an earlier removed version of the row held the same value.
    if (!indexes_[c].Remove(IndexKey(data[c]), row, &size)) continue;
    sketches_[c].Set(data[c], size);
  }
  for (CompositeIndex& index : composites_) {
    if (!index.built) continue;
    const uint64_t key = CompositeKey(index.columns, data);
    // Kept while a kept version's key hashes the same.
    if (kept_any([&](const TupleData& d) {
          return CompositeKey(index.columns, d) == key;
        })) {
      continue;
    }
    size_t size = 0;
    index.buckets.Remove(key, row, &size);
  }
}

void VersionedRelation::RecomputeNewest(Row& row) {
  row.newest = -1;
  for (size_t i = 0; i < row.versions.size(); ++i) {
    if (row.newest < 0) {
      row.newest = static_cast<int32_t>(i);
      continue;
    }
    const TupleVersion& top = row.versions[static_cast<size_t>(row.newest)];
    const TupleVersion& v = row.versions[i];
    if (v.update_number > top.update_number ||
        (v.update_number == top.update_number && v.seq > top.seq)) {
      row.newest = static_cast<int32_t>(i);
    }
  }
}

}  // namespace youtopia
