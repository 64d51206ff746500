#ifndef YOUTOPIA_RELATIONAL_RELATION_H_
#define YOUTOPIA_RELATIONAL_RELATION_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <new>
#include <optional>
#include <type_traits>
#include <vector>

#include "relational/row_buckets.h"
#include "relational/tuple.h"
#include "relational/value.h"
#include "relational/write.h"
#include "util/span.h"
#include "util/topk_sketch.h"

namespace youtopia {

// --- Heavy-hitter thresholds (shared by the statistics and the planner) ----
//
// A sketch entry counts as confidently "hot" when its bucket is at least
// kHotBucketRatio times the column's uniform expectation AND at least
// kHotBucketFloor rows — the same 4x pessimism ratio the retired max_bucket
// nudge used, with an absolute floor so small buckets never qualify: a
// 4x-over-uniform bucket of a couple dozen rows costs less to probe than
// one hot-set-rotation replan it would trigger, and a uniform stream's
// ordinary multinomial lumps must not read as skew (bench/skew_suite's
// theta-0 parity arms measure exactly that). Hot entries drive the
// planner's per-value probe charges, the relation's hot-set fingerprint
// (plan staleness) and ShardMap's hot-mass weights.
inline constexpr double kHotBucketRatio = 4.0;
inline constexpr size_t kHotBucketFloor = 32;

// Entries per column sketch. Eight heavy hitters per column is enough to
// price every constant the compiled mappings probe (mapping constants are
// few) while keeping the per-insert refresh O(1).
inline constexpr size_t kRelationSketchCapacity = 8;

// Index maintenance calls between hot-fingerprint recomputations. The
// fingerprint is a staleness signal, not a correctness input, so it may lag
// the sketch by up to a stride of writes — the same tolerance the
// kReplanPollWriteStride poll already grants cardinality drift.
inline constexpr size_t kHotFingerprintStride = 64;

// The shared hot predicate: is a bucket of `count` rows hot relative to the
// column's uniform expectation (visible rows / distinct values)?
inline bool IsHotBucket(uint64_t count, double uniform_expectation) {
  return count >= kHotBucketFloor &&
         static_cast<double>(count) >= kHotBucketRatio * uniform_expectation;
}

// One version of a stored tuple. Versions are created by inserts, in-place
// modifications (null replacement / unification) and deletes (tombstones).
struct TupleVersion {
  uint64_t update_number = 0;  // priority number of the creating update
  uint64_t seq = 0;            // global monotone sequence (database-assigned)
  WriteKind kind = WriteKind::kInsert;
  TupleData data;  // tuple content; for kDelete, the content being deleted
};

// The versions of one row, in append order and contiguous. Most rows only
// ever hold the version their insert wrote, so the first version is stored
// inline, in the row itself: reading it costs no load beyond the row's.
// Appending a second version moves every version to one heap array, which
// grows by doubling; an undo that leaves at most one version moves it back
// inline and frees the array.
class VersionList {
 public:
  VersionList() {}
  VersionList(VersionList&& other) noexcept
      : size_(other.size_), capacity_(other.capacity_) {
    if (!other.is_inline()) {
      heap_ = other.heap_;
      other.size_ = 0;
      other.capacity_ = 1;
    } else if (size_ == 1) {
      new (&inline_) TupleVersion(std::move(other.inline_));
    }
  }
  VersionList(const VersionList&) = delete;
  VersionList& operator=(const VersionList&) = delete;
  VersionList& operator=(VersionList&&) = delete;
  ~VersionList() {
    for (TupleVersion& v : *this) v.~TupleVersion();
    if (!is_inline()) ::operator delete(heap_);
  }

  size_t size() const { return size_; }
  const TupleVersion* data() const { return is_inline() ? &inline_ : heap_; }
  TupleVersion* data() { return is_inline() ? &inline_ : heap_; }
  const TupleVersion* begin() const { return data(); }
  const TupleVersion* end() const { return data() + size_; }
  TupleVersion* begin() { return data(); }
  TupleVersion* end() { return data() + size_; }
  const TupleVersion& operator[](size_t i) const { return data()[i]; }
  const TupleVersion& back() const { return data()[size_ - 1]; }

  void Append(TupleVersion v) {
    if (size_ == capacity_) MoveTo(capacity_ * 2);
    new (data() + size_) TupleVersion(std::move(v));
    ++size_;
  }

  // Destroys the versions from position n on.
  void Truncate(size_t n) {
    for (TupleVersion* v = data() + n; v != end(); ++v) v->~TupleVersion();
    size_ = static_cast<uint32_t>(n);
    if (!is_inline() && n <= 1) MoveTo(1);
  }

 private:
  bool is_inline() const { return capacity_ == 1; }
  // Moves the versions to storage for `capacity` of them: the inline slot
  // for 1, else a fresh heap array.
  void MoveTo(size_t capacity);

  // The inline slot holds a version while size_ is 1 and capacity_ is 1;
  // heap_ is live while capacity_ is above 1.
  union {
    TupleVersion inline_;
    TupleVersion* heap_;
  };
  uint32_t size_ = 0;
  uint32_t capacity_ = 1;
};

// Multiversion storage for one relation (paper Section 4.1).
//
// Visibility rule: for a reader with update number j, the visible version of
// a row is the one maximizing (update_number, seq) lexicographically among
// versions with update_number <= j. If that version is a tombstone the row is
// invisible. This implements "the visible version of a tuple t is the one
// with the largest number among those created by any update with number less
// than or equal to j", with seq breaking ties for multiple writes by one
// update. Each row caches the position of its globally newest version; a
// reader at or above that version's number (the common no-conflict case)
// resolves visibility without walking the chain.
//
// Storage: the rows are one array, and each row keeps its first version
// inline (VersionList), so a row that only its insert wrote is read with
// one load for the row and one for its values. A row's second version
// spills all of its versions to one heap array; an undo back to one version
// moves it inline again. Pointer lifetime: a pointer from VisibleVersion or
// VisibleData is valid only until the relation's next write or undo, since
// appending a row can move every row and appending or removing a version
// can move the row's versions. A caller that writes must finish reading, or
// copy, first.
//
// Rows are never physically removed; aborting an update unlinks its versions
// row by row (RemoveVersionsOfRow). Indexes come in two forms, each one
// open-addressing table from a 64-bit key to a bucket of rows (RowBuckets):
//   * one per-column index, always present, keyed exactly by the value's
//     packed 64-bit word (IndexKey), so distinct values never share a
//     bucket;
//   * composite indexes over column sets, built lazily on demand
//     (EnsureCompositeIndex) for the probes compiled query plans ask for,
//     keyed by a 64-bit hash of the key's values (CompositeKey), so no
//     insert or probe builds a key vector.
// The invariant: row r is listed in the bucket for (column c, value v)
// exactly when one of r's stored insert or modify versions holds v in c,
// and in a composite index's bucket for key hash h exactly when one of
// those versions has a key that hashes to h. Delete versions stay
// unindexed. Buckets are ascending and duplicate-free, and no empty bucket
// is stored. A write lists its row; an undo unlists the row from each
// bucket that no remaining content version carries (for a composite, none
// whose key hashes the same). A listed row may still be invisible to a
// given reader, or show it other content (the carrying version is newer
// than the reader, superseded or tombstoned), and a composite bucket may in
// principle list a row whose different key collides, so probes re-verify
// each row against the version visible to the reader.
// Content lookups (exact match, more-specific match) carry no plan: they
// walk the smallest bucket among the per-column buckets of the values they
// fix and the buckets of the built composite indexes whose columns they all
// fix (SmallestContentBucket), so one hot value cannot make them re-verify
// a large share of the relation, and the composites the plans asked for
// serve them at no upkeep of their own.
//
// Threading — the per-shard write ownership invariant: a relation has at
// most one owner thread at a time (the shard worker its tgd-closure
// component is pinned to, or the cross-shard lane holding the component's
// footprint lock), and every row/index/statistics access except
// visible_rows() requires ownership. Ownership hand-offs happen only
// through the footprint mutexes, which provide the happens-before edge.
// visible_rows() and hot_fingerprint() alone are atomic (relaxed) fields:
// they feed the plan staleness predicate, which foreign threads may evaluate
// without taking ownership; distinct_values()/max_bucket()/sketch() are
// container reads and stay owner-only (the planner only ever costs relations
// its own shard owns). The per-column heavy-hitter sketches follow exactly
// the distinct_values() contract: maintained by the owner on the write and
// undo paths (O(1) per bucket change, no lock, GUARDED_BY nothing — there is
// no capability to name), readable only under ownership; the owner folds
// their hot set into hot_fingerprint_ on a stride so foreign staleness polls
// can observe hot-set rotation without touching the containers.
class VersionedRelation {
 public:
  explicit VersionedRelation(size_t arity);
  VersionedRelation(const VersionedRelation&) = delete;
  VersionedRelation& operator=(const VersionedRelation&) = delete;
  // Manual: std::atomic is not movable. Moves happen only during
  // single-threaded schema creation (catalog growth).
  VersionedRelation(VersionedRelation&& other) noexcept
      : arity_(other.arity_),
        num_versions_(other.num_versions_),
        visible_rows_(other.visible_rows_.load(std::memory_order_relaxed)),
        hot_fingerprint_(
            other.hot_fingerprint_.load(std::memory_order_relaxed)),
        offers_since_fingerprint_(other.offers_since_fingerprint_),
        sketches_(std::move(other.sketches_)),
        rows_(std::move(other.rows_)),
        indexes_(std::move(other.indexes_)),
        composites_(std::move(other.composites_)) {}

  size_t arity() const { return arity_; }
  size_t num_rows() const { return rows_.size(); }

  // --- Statistics -----------------------------------------------------------
  //
  // O(1) per call; maintained incrementally by the write and undo paths.
  // These feed the planner's cost model (query/plan.h), so they are on the
  // plan-compilation path but never on the per-row execution path.

  // Rows whose newest version is not a tombstone (exact; the visibility any
  // sufficiently high-numbered reader sees). Safe to read from any thread
  // (relaxed atomic; see the threading note above).
  size_t visible_rows() const {
    return visible_rows_.load(std::memory_order_relaxed);
  }

  // Buckets in the per-column hash index: the distinct values some stored
  // content version holds in the column (exact; no empty bucket is kept).
  size_t distinct_values(size_t column) const {
    CHECK_LT(column, indexes_.size());
    return indexes_[column].size();
  }

  // The largest tracked count of the column's heavy-hitter sketch, i.e. the
  // largest bucket among its tracked values. Tracked counts are exact bucket
  // sizes, so there is no separate counter to keep in sync; an untracked
  // bucket can exceed it once tracked buckets shrink (see TopKSketch).
  size_t max_bucket(size_t column) const {
    CHECK_LT(column, sketches_.size());
    return static_cast<size_t>(sketches_[column].max_count());
  }

  // The column's heavy-hitter sketch (owner-only, like distinct_values()).
  // Every bucket growth and shrinkage reports the bucket's new size, so each
  // tracked count equals its bucket size at all times; an untracked value's
  // bucket was at most min_count() when it last changed. Feeds the
  // planner's per-value probe charges.
  const TopKSketch<Value>& sketch(size_t column) const {
    CHECK_LT(column, sketches_.size());
    return sketches_[column];
  }

  // Sum of sketch counts that clear the hot thresholds across all columns —
  // the relation's skew signal collapsed to one number, used by ShardMap to
  // weigh components by where the hot values actually live. Owner-only.
  uint64_t HotValueMass() const;

  // XOR-fold of the hot sketch entries (column, value-hash) as of the last
  // strided recomputation: a foreign thread comparing two readings observes
  // hot-set rotation without owning the relation. 0 until some value first
  // clears the hot thresholds. Safe to read from any thread (relaxed
  // atomic, like visible_rows()).
  uint64_t hot_fingerprint() const {
    return hot_fingerprint_.load(std::memory_order_relaxed);
  }

  // Creates a new row whose first version is an insert.
  RowId AppendInsertRow(uint64_t update_number, uint64_t seq, TupleData data);

  // Appends a modify/delete version to an existing row. For kDelete, `data`
  // should carry the content being deleted (used for undo/diagnostics).
  void AppendVersion(RowId row, uint64_t update_number, uint64_t seq,
                     WriteKind kind, TupleData data);

  // Returns the version visible to `reader`, or nullptr if none exists.
  // A returned tombstone means the row is deleted for this reader. The
  // pointer is valid until the relation's next write or undo (see the class
  // comment).
  const TupleVersion* VisibleVersion(RowId row, uint64_t reader) const {
    CHECK_LT(row, rows_.size());
    const Row& r = rows_[row];
    // Fast path: the globally newest version is visible to this reader, so
    // it is the maximum over the eligible subset too (no chain walk).
    if (r.newest >= 0) {
      const TupleVersion& top = r.versions[static_cast<size_t>(r.newest)];
      if (top.update_number <= reader) return &top;
    }
    return OlderVisibleVersion(r, reader);
  }

  // Returns the visible tuple content, or nullptr if the row is invisible
  // (no version <= reader, or deleted). Valid as long as VisibleVersion's
  // pointer is.
  const TupleData* VisibleData(RowId row, uint64_t reader) const {
    const TupleVersion* v = VisibleVersion(row, reader);
    if (v == nullptr || v->kind == WriteKind::kDelete) return nullptr;
    return &v->data;
  }

  // Invokes fn(row, data) for every row visible to `reader`. A callback
  // returning bool stops the scan by returning false (existence checks must
  // not pay for a full visibility resolution of every remaining row); a
  // void callback always sees every visible row.
  template <typename Fn>
  void ForEachVisible(uint64_t reader, Fn&& fn) const {
    using FnResult = std::invoke_result_t<Fn&, RowId, const TupleData&>;
    static_assert(std::is_void_v<FnResult> || std::is_same_v<FnResult, bool>,
                  "ForEachVisible callback must return void or bool; a "
                  "merely bool-convertible result would silently lose the "
                  "early-exit contract");
    for (RowId r = 0; r < rows_.size(); ++r) {
      const TupleData* data = VisibleData(r, reader);
      if (data == nullptr) continue;
      if constexpr (std::is_same_v<FnResult, bool>) {
        if (!fn(r, *data)) return;
      } else {
        fn(r, *data);
      }
    }
  }

  // The rows listed under `value` in `column`'s index (ascending, each
  // once; see the class comment's invariant), empty on a miss. The span
  // points into the index: it is valid until the relation's next write,
  // undo or composite-index registration, so a caller must finish iterating
  // before any of those.
  Span<const RowId> Bucket(size_t column, const Value& value) const {
    CHECK_LT(column, indexes_.size());
    return indexes_[column].Find(IndexKey(value));
  }

  // The bucket a content lookup walks. A lookup whose every answer must
  // hold data[c] in column c, for each column c that `fixed(c)` selects
  // (all columns for an exact match, the constant columns for a
  // more-specific match), finds every answer in each of those columns'
  // buckets and in the bucket of each built composite index over columns
  // it all fixes, so it walks the smallest. Every bucket is ascending, so a
  // walk meets the answers in row order whichever bucket it is. The sweep
  // stops at an empty bucket, a definitive miss. Nullopt when `fixed`
  // selects no column. `data` must have the relation's arity. Valid as long
  // as Bucket's spans are.
  template <typename Fixed>
  std::optional<Span<const RowId>> SmallestContentBucket(
      const TupleData& data, Fixed&& fixed) const {
    CHECK_EQ(data.size(), arity_);
    std::optional<Span<const RowId>> best;
    // Keeps the smaller bucket; false once the best is empty.
    auto offer = [&best](Span<const RowId> bucket) {
      if (!best.has_value() || bucket.size() < best->size()) best = bucket;
      return !best->empty();
    };
    for (size_t c = 0; c < arity_; ++c) {
      if (fixed(c) && !offer(Bucket(c, data[c]))) return best;
    }
    if (!best.has_value()) return best;  // nothing fixed, nor any composite
    for (const CompositeIndex& index : composites_) {
      if (!index.built ||
          !std::all_of(index.columns.begin(), index.columns.end(), fixed)) {
        continue;
      }
      if (!offer(index.buckets.Find(CompositeKey(index.columns, data)))) {
        break;
      }
    }
    return best;
  }

  // --- Composite indexes ----------------------------------------------------

  // Registers a composite hash index over `columns` (distinct, ascending,
  // at least two) and builds it from the already-stored versions.
  // Idempotent; subsequent writes maintain it.
  void EnsureCompositeIndex(const std::vector<size_t>& columns);

  // Like EnsureCompositeIndex, but defers the build until the relation's own
  // statistics justify it: the index materializes once the cheapest
  // single-column fallback for its column set stops being selective (largest
  // bucket >= kCompositeBuildBreakEven candidates per probe). Plan
  // registration calls this: relations whose single-column buckets stay
  // small never pay composite maintenance, and skewed ones build the index
  // exactly when probes start hurting — replacing the old fixed 256-row
  // threshold, which built useless indexes over all-distinct columns and
  // left hot skewed buckets unindexed below it.
  void RequestCompositeIndex(const std::vector<size_t>& columns);

  // True if the column set has been registered (built or still deferred).
  bool HasCompositeIndex(const std::vector<size_t>& columns) const;

  // The composite bucket for `values` (parallel to `columns`), like Bucket:
  // empty on a miss, valid until the next write, undo or registration. It
  // lists the rows whose key hashes like `values`, so the caller verifies
  // each against the values. Nullopt while no index over `columns` is built
  // (the caller falls back to a single-column probe).
  std::optional<Span<const RowId>> CompositeBucket(
      const std::vector<size_t>& columns,
      const std::vector<Value>& values) const;

  size_t num_composite_indexes() const { return composites_.size(); }

  // --- Diagnostics and undo --------------------------------------------------

  // Total entries across the per-column and composite indexes (ytbench's
  // index_entries_per_visible_row, the storage microbenchmark's undo check).
  size_t IndexEntryCount() const;

  // Abort undo: removes `update_number`'s versions of one row and unlists
  // the row from each bucket no remaining content version carries. Returns
  // the number of versions removed.
  size_t RemoveVersionsOfRow(RowId row, uint64_t update_number);

  // Removes every version created by updates numbered above `threshold`
  // (experiment reset: rewinds the relation to its pre-run state; rows
  // created by removed versions remain as invisible orphans, unlisted from
  // every index).
  size_t RemoveVersionsAbove(uint64_t threshold);

  // Total number of versions across all rows.
  size_t num_versions() const { return num_versions_; }

 private:
  struct Row {
    VersionList versions;
    // Position of the version maximizing (update_number, seq), or -1 when
    // the row has no versions. Readers at or above its number short-circuit
    // visibility resolution.
    int32_t newest = -1;
  };

  // VisibleVersion's chain walk, for a reader below the row's newest
  // version: the eligible version maximizing (update_number, seq).
  static const TupleVersion* OlderVisibleVersion(const Row& row,
                                                 uint64_t reader);

  struct CompositeIndex {
    std::vector<size_t> columns;  // distinct, ascending
    bool built = false;           // deferred-build indexes probe as misses
    RowBuckets buckets;           // keyed by CompositeKey
  };

  // The exact per-column index key of `value`: its packed word. Distinct
  // values have distinct words, since the Value factories refuse ids of
  // 2^63 or more.
  static uint64_t IndexKey(const Value& value) { return value.bits(); }
  // The composite index key of the values value(0), ..., value(n - 1): a
  // 64-bit hash with each packed value avalanched before it is folded in.
  template <typename ValueAt>
  static uint64_t CompositeKey(size_t n, ValueAt&& value);
  // The composite index key of `data`'s values in `columns`.
  static uint64_t CompositeKey(const std::vector<size_t>& columns,
                               const TupleData& data);

  CompositeIndex* FindOrRegisterComposite(const std::vector<size_t>& columns);
  void BuildCompositeIndex(CompositeIndex& index);
  // Stats-driven break-even for deferred composite builds (see
  // RequestCompositeIndex).
  bool ShouldBuildComposite(const CompositeIndex& index) const;
  // Lists `row` under each value of `data` (a content version being
  // written) in every per-column and built composite index.
  void IndexData(RowId row, const TupleData& data);
  // Folds the currently-hot sketch entries into hot_fingerprint_. Called by
  // the owner every kHotFingerprintStride IndexData calls; O(arity * K).
  void RecomputeHotFingerprint();
  void IndexDataComposite(CompositeIndex& index, RowId row,
                          const TupleData& data);
  // Unlists `row` from each bucket of `data` (a removed content version)
  // that no version in `kept` carries.
  void UnindexData(RowId row, const TupleData& data,
                   Span<const TupleVersion> kept);
  // The undo shared by RemoveVersionsOfRow and RemoveVersionsAbove: removes
  // the row's versions `removes` selects, keeps the indexes exact and
  // reconciles liveness and `newest`. Returns the number removed.
  template <typename Removes>
  size_t RemoveRowVersionsIf(RowId row, Removes&& removes);
  void RecomputeNewest(Row& row);

  // Newest-version visibility of a row (the quantity visible_rows_ counts).
  static bool NewestIsLive(const Row& row) {
    return row.newest >= 0 &&
           row.versions[static_cast<size_t>(row.newest)].kind !=
               WriteKind::kDelete;
  }

  // Runs `mutate` on `row` and reconciles visible_rows_ with the row's
  // liveness change. Every path that appends or removes versions must go
  // through this (or AppendInsertRow's unconditional increment): the
  // counter feeds the planner's cost model and the staleness trigger, so a
  // silent drift means bad join orders with no test failure.
  template <typename Mutate>
  void MutateTrackingLiveness(Row& row, Mutate&& mutate) {
    const bool was_live = NewestIsLive(row);
    mutate();
    if (NewestIsLive(row) != was_live) {
      // Only the owner thread mutates, so relaxed RMW is enough; atomicity
      // is for the foreign staleness-poll readers.
      visible_rows_.fetch_add(was_live ? size_t(-1) : size_t(1),
                              std::memory_order_relaxed);
    }
  }

  // OWNER-ONLY (all fields but visible_rows_ and hot_fingerprint_):
  // protected by the shard ownership protocol, not by a mutex — there is no
  // capability to name in a GUARDED_BY, so the discipline is enforced by the
  // lock-order-validated footprint locks in ccontrol/parallel/ and by TSan,
  // not by clang's static analysis. See the class threading comment.
  size_t arity_;
  size_t num_versions_ = 0;
  // The any-thread fields: relaxed atomics for foreign staleness polls.
  std::atomic<size_t> visible_rows_{0};
  std::atomic<uint64_t> hot_fingerprint_{0};
  // IndexData calls since the owner last folded the sketches into
  // hot_fingerprint_ (strided: see kHotFingerprintStride).
  size_t offers_since_fingerprint_ = 0;
  // Per column: heavy-hitter sketch over indexed values, each tracked count
  // an exact bucket size (see max_bucket()/sketch()).
  std::vector<TopKSketch<Value>> sketches_;
  std::vector<Row> rows_;
  // One index per column: IndexKey(value) -> rows carrying it (exact
  // buckets).
  std::vector<RowBuckets> indexes_;
  std::vector<CompositeIndex> composites_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_RELATIONAL_RELATION_H_
