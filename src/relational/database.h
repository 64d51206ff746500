#ifndef YOUTOPIA_RELATIONAL_DATABASE_H_
#define YOUTOPIA_RELATIONAL_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "relational/null_registry.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/tuple.h"
#include "relational/value.h"
#include "relational/write.h"
#include "util/status.h"

namespace youtopia {

// The Youtopia repository at the storage level: a catalog of relations with
// multiversion rows, an interning table for constants, and the labeled-null
// registry. All mutations go through Apply(), which expands a logical
// WriteOp into physical tuple writes tagged with the issuing update's
// priority number.
//
// Update number 0 is reserved for "pre-existing" data: tuples visible to
// every reader (used when seeding a database directly).
//
// Threading model (see also ccontrol/parallel/ and the README's "Threading
// model" section): the database object itself is not a monitor. Safe
// concurrent use relies on the shard-ownership discipline the parallel
// scheduler enforces —
//   * the catalog and symbol table are frozen before concurrent execution
//     starts (schema DDL and mapping parsing happen at setup time);
//   * each VersionedRelation is read and written by at most one thread at a
//     time (the owning shard worker, or the cross-shard lane holding the
//     component's footprint lock);
//   * the labeled-null registry is shared and internally synchronized
//     (nulls are global identities that may span shards);
//   * next_seq() is a process-wide atomic so writes from any shard advance
//     the mutation sequence the strided re-planning polls watch;
//   * TakeNumbers() is the one update-number sequence, an atomic that any
//     engine running updates over this database claims from.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- Schema -------------------------------------------------------------

  Result<RelationId> CreateRelation(std::string name,
                                    std::vector<std::string> attributes);

  const Catalog& catalog() const { return catalog_; }
  size_t num_relations() const { return catalog_.size(); }

  const VersionedRelation& relation(RelationId id) const {
    CHECK_LT(id, relations_.size());
    return relations_[id];
  }

  // Mutable access for index maintenance (plan registration builds the
  // composite indexes its probes demand).
  VersionedRelation& mutable_relation(RelationId id) {
    CHECK_LT(id, relations_.size());
    return relations_[id];
  }

  // --- Values -------------------------------------------------------------

  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }
  NullRegistry& nulls() { return nulls_; }
  const NullRegistry& nulls() const { return nulls_; }

  Value InternConstant(std::string_view text) { return symbols_.Intern(text); }
  Value FreshNull() { return nulls_.Fresh(); }

  // --- Writes -------------------------------------------------------------

  // Applies `op` on behalf of update `update_number` and appends the
  // physical writes performed to `out` (a chase step's write vector). Set
  // semantics: inserting a tuple that is already visible to the writer
  // performs no physical write. Deleting an invisible row performs no
  // physical write. A null replacement modifies every row whose
  // writer-visible content contains the null.
  //
  // `replace_occurrences` (kNullReplace only): the occurrence snapshot to
  // apply over, instead of re-reading the registry. Callers that validated
  // the replacement's footprint against a snapshot (the shard-admission
  // guard, Update::WritesStayWithin) MUST pass that same snapshot —
  // re-reading here could see occurrences registered after the check and
  // write to relations the check never saw.
  //
  // Returns the rows an insert's set-semantics check re-verified
  // (FindRowWithData), 0 for the other kinds.
  uint64_t Apply(WriteOp op, uint64_t update_number,
                 std::vector<PhysicalWrite>* out,
                 const std::vector<TupleRef>* replace_occurrences = nullptr);

  // The same, returning the physical writes (seeding, tests, benches).
  std::vector<PhysicalWrite> Apply(WriteOp op, uint64_t update_number) {
    std::vector<PhysicalWrite> out;
    Apply(std::move(op), update_number, &out);
    return out;
  }

  // Abort undo for one row: removes `update_number`'s versions of it.
  // Callers undo row by row over the writes they made (the concurrency
  // control's write log, a shard worker's step writes).
  size_t RemoveRowVersions(RelationId rel, RowId row, uint64_t update_number) {
    CHECK_LT(rel, relations_.size());
    const size_t removed = relations_[rel].RemoveVersionsOfRow(row, update_number);
    NoteMutation(removed);
    return removed;
  }

  // Removes every version created by updates numbered above `threshold`
  // across all relations (rewinds the repository to a pre-run state; used
  // between experiment runs over the same initial database).
  size_t RemoveVersionsAbove(uint64_t threshold);

  // Finds the lowest-numbered row whose content visible to `reader` equals
  // `data` exactly. Walks the smallest index bucket that lists every such
  // row in place and re-verifies each listed row; an empty bucket answers
  // at once (VersionedRelation::SmallestContentBucket). Adds the rows whose
  // visible content it compared to `*rows_examined`, when given.
  std::optional<RowId> FindRowWithData(
      RelationId rel, const TupleData& data, uint64_t reader,
      uint64_t* rows_examined = nullptr) const;

  // Total visible tuple count for `reader` (scans; for tests/examples).
  size_t CountVisible(uint64_t reader) const;
  size_t CountVisible(RelationId rel, uint64_t reader) const;

  // Monotone mutation sequence: advanced by every physical write AND by
  // version removals (abort undo, rewind). The adaptive re-planning polls
  // stride on it, so "next_seq moved" must mean "cardinalities may have
  // moved" — removals change visible-row counts just like writes do.
  // Atomic (relaxed): concurrent shard workers bump and poll it; the value
  // is a heuristic watermark, never a synchronization point.
  uint64_t next_seq() const { return next_seq_.load(std::memory_order_relaxed); }

  // --- Update numbers -----------------------------------------------------

  // The repository's one priority-number sequence, starting at 1 (0 is the
  // pre-existing data's). Theorem 4.4 makes number order the serialization
  // order, so every engine running updates over this database takes its
  // numbers here: a pipeline op under the locks covering its footprint (a
  // pinned op's component lock, a cross-shard op's batch lock set), the
  // facade's serial updates at quiescent points. The locks order the
  // claims; the atomic only makes a claim indivisible (relaxed).
  uint64_t next_number() const {
    return next_number_.load(std::memory_order_relaxed);
  }
  // Claims the next number and returns it.
  uint64_t TakeNumbers() {
    return next_number_.fetch_add(1, std::memory_order_relaxed);
  }
  // Moves the sequence up to `n`, never down: a standalone Scheduler numbers
  // its own updates from next_number(), and its caller hands back the
  // numbers it used.
  void SkipNumbersTo(uint64_t n);

 private:
  void RegisterNullOccurrences(RelationId rel, RowId row,
                               const TupleData& data);

  // Claims the next mutation-sequence tick (version stamps are assigned
  // through here).
  uint64_t TakeSeq() { return next_seq_.fetch_add(1, std::memory_order_relaxed); }

  // Accounts removed versions in the mutation sequence (one tick per
  // removed version, mirroring one tick per written version) so the
  // strided staleness polls cannot stay dormant through a bulk abort or
  // rewind that shifted cardinalities without any new write.
  void NoteMutation(size_t removed_versions) {
    next_seq_.fetch_add(removed_versions, std::memory_order_relaxed);
  }

  // catalog_/symbols_ and the relations_ vector's SHAPE freeze before
  // concurrent execution (schema creation is single-threaded; any change
  // goes through Youtopia::InvalidatePipeline). Each element of relations_
  // is then owner-only under the shard protocol (see relation.h); nulls_ is
  // the one internally synchronized member (global identities, own leaf
  // mutex); next_seq_ and next_number_ are any-thread relaxed atomics. None
  // of this is expressible as GUARDED_BY — ownership moves with the
  // footprint locks, which the lock-order validator and TSan police at
  // runtime instead.
  Catalog catalog_;
  std::vector<VersionedRelation> relations_;
  SymbolTable symbols_;
  NullRegistry nulls_;
  std::atomic<uint64_t> next_seq_{1};
  std::atomic<uint64_t> next_number_{1};
};

// A read view of the database for one reader (update priority number).
// Passed throughout the query and chase layers; copying is cheap.
class Snapshot {
 public:
  Snapshot(const Database* db, uint64_t reader) : db_(db), reader_(reader) {}

  const Database& db() const { return *db_; }
  // Nullable form, for callers that may hold a placeholder snapshot (a
  // long-lived evaluator before its first Reset).
  const Database* db_or_null() const { return db_; }
  uint64_t reader() const { return reader_; }

  const TupleData* VisibleData(RelationId rel, RowId row) const {
    return db_->relation(rel).VisibleData(row, reader_);
  }

  bool IsVisible(const TupleRef& ref) const {
    return VisibleData(ref.rel, ref.row) != nullptr;
  }

  template <typename Fn>
  void ForEachVisible(RelationId rel, Fn&& fn) const {
    db_->relation(rel).ForEachVisible(reader_, std::forward<Fn>(fn));
  }

  bool Contains(RelationId rel, const TupleData& data,
                uint64_t* rows_examined = nullptr) const {
    return db_->FindRowWithData(rel, data, reader_, rows_examined)
        .has_value();
  }

  // Invokes fn(ref, data) for every tuple whose visible content contains the
  // labeled null `null_value` (occurrence-index candidates are re-verified).
  template <typename Fn>
  void ForEachOccurrence(const Value& null_value, Fn&& fn) const {
    for (const TupleRef& ref : db_->nulls().Occurrences(null_value)) {
      const TupleData* data = VisibleData(ref.rel, ref.row);
      if (data != nullptr && ContainsNull(*data, null_value)) fn(ref, *data);
    }
  }

 private:
  const Database* db_;
  uint64_t reader_;
};

// Reader number that sees every committed write (used for "latest" queries
// and by tests).
inline constexpr uint64_t kReadLatest = UINT64_MAX;

}  // namespace youtopia

#endif  // YOUTOPIA_RELATIONAL_DATABASE_H_
