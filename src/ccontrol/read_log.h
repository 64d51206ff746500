#ifndef YOUTOPIA_CCONTROL_READ_LOG_H_
#define YOUTOPIA_CCONTROL_READ_LOG_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ccontrol/read_query.h"
#include "relational/write.h"
#include "tgd/tgd.h"
#include "util/span.h"

namespace youtopia {

// Stores the read queries each live update has performed (Algorithm 4:
// "store Q for future checks"), indexed so that a write can cheaply find the
// candidate queries it might invalidate:
//   * by relation — violation queries touch every relation of their tgd,
//     more-specific queries their target relation;
//   * by labeled null — null-occurrence queries.
// Exact duplicates (chases re-pose the same violation query on every
// revalidation) are deduplicated per update, by fingerprint confirmed
// against the full query (fingerprints can collide; a query dropped on a
// collision would escape every later conflict check). EraseUpdate touches
// only the reader sets the update's own queries registered it in.
//
// Threading contract: NOT internally synchronized, and the const candidate
// walks are NOT const-thread-safe — they reuse mutable scratch buffers
// (order_scratch_ et al.) to keep steady-state steps allocation-free, so
// two concurrent "readers" race on the scratch. Every engine that logs
// reads (the serial Scheduler, including the one a cross-shard batch
// embeds) confines its ReadLog to the thread running it.
class ReadLog {
 public:
  explicit ReadLog(const std::vector<Tgd>* tgds) : tgds_(tgds) {}

  // By value: the scheduler moves each step's records in (their TupleData
  // payloads change hands without copying); lvalue callers copy at the call.
  void Record(uint64_t update_number, ReadQueryRecord q);

  // Invokes fn(reader_number, query) for every logged query of an update
  // with number > `writer` that might be affected by `w` (callers run the
  // precise ConflictChecker on these candidates). Each logged query is
  // visited at most once per call. A batch of one: the same discovery and
  // dedup as ForEachCandidateBatch below.
  template <typename Fn>
  void ForEachCandidate(const PhysicalWrite& w, uint64_t writer,
                        Fn&& fn) const {
    ForEachCandidateBatch(
        Span<const PhysicalWrite>(&w, 1), writer,
        [&](uint64_t reader, const ReadQueryRecord& q, const PhysicalWrite&) {
          fn(reader, q);
          return false;  // visit every candidate query of the reader
        });
  }

  // Batched candidate walk over a whole chase step's write set, mirroring
  // the detection side's batching (ViolationDetector::AfterWrites): a step's
  // writes often reach the same readers, and the per-write walk above would
  // re-scan each such reader's whole log once per write. Here every
  // candidate reader is visited exactly once per call — its log scanned
  // once — and each of its queries is tested only against the writes that
  // can touch it (the batch is bucketed by relation up front, so a reader
  // relevant to two of a hundred-write null-replace batch pays for two, not
  // a hundred). fn(reader, q, w) is invoked for each candidate
  // (query, write) combination; returning true stops visiting that reader
  // entirely (the scheduler stops probing a reader the moment one conflict
  // dooms it). Candidate discovery matches the single-write walk:
  // relation-indexed queries via the writes' relations, null-occurrence
  // queries via the distinct nulls of the writes' tuples, with readers
  // reachable both ways visited once (tracked per call, since with several
  // writes the relation pass no longer structurally covers the null pass).
  template <typename Fn>
  void ForEachCandidateBatch(Span<const PhysicalWrite> writes, uint64_t writer,
                             Fn&& fn) const {
    if (writes.empty()) return;
    // Bucket the batch: write indices sorted by relation (contiguous ranges
    // in order_scratch_), plus the null-carrying writes. All scratch
    // retains capacity — steady-state steps allocate nothing.
    order_scratch_.clear();
    for (uint32_t i = 0; i < writes.size(); ++i) order_scratch_.push_back(i);
    std::stable_sort(order_scratch_.begin(), order_scratch_.end(),
                     [&](uint32_t a, uint32_t b) {
                       return writes[a].rel < writes[b].rel;
                     });
    range_scratch_.clear();
    for (uint32_t i = 0; i < order_scratch_.size();) {
      const RelationId rel = writes[order_scratch_[i]].rel;
      uint32_t j = i;
      while (j < order_scratch_.size() &&
             writes[order_scratch_[j]].rel == rel) {
        ++j;
      }
      range_scratch_.push_back(RelRange{rel, i, j});
      i = j;
    }
    nulls_scratch_.clear();
    null_ids_scratch_.clear();
    null_write_scratch_.clear();
    for (uint32_t i = 0; i < writes.size(); ++i) {
      // Bitwise |: both sides must run (gathering must see old and new).
      if (GatherNulls(writes[i].data) | GatherNulls(writes[i].old_data)) {
        null_write_scratch_.push_back(i);
      }
    }
    auto find_range = [&](RelationId rel) -> const RelRange* {
      for (const RelRange& r : range_scratch_) {
        if (r.rel == rel) return &r;
      }
      return nullptr;
    };
    // Offers every write of `range` to `q`; by construction those writes
    // satisfy MayTouch's relation test for relation-indexed queries.
    auto offer_range = [&](uint64_t reader, const ReadQueryRecord& q,
                           const RelRange* range) {
      if (range == nullptr) return false;
      for (uint32_t k = range->begin; k < range->end; ++k) {
        if (fn(reader, q, writes[order_scratch_[k]])) return true;
      }
      return false;
    };

    visited_scratch_.clear();
    auto visit_reader = [&](uint64_t reader) {
      if (reader <= writer) return;
      if (!visited_scratch_.insert(reader).second) return;
      auto it = logs_.find(reader);
      if (it == logs_.end()) return;
      for (const ReadQueryRecord& q : it->second.queries) {
        switch (q.kind) {
          case ReadQueryKind::kViolation: {
            const Tgd& tgd = (*tgds_)[static_cast<size_t>(q.tgd_id)];
            for (RelationId r : tgd.all_relations()) {
              if (offer_range(reader, q, find_range(r))) return;
            }
            break;
          }
          case ReadQueryKind::kMoreSpecific:
            if (offer_range(reader, q, find_range(q.rel))) return;
            break;
          case ReadQueryKind::kNullOccurrence:
            // MayTouch still decides whether this write carries *this*
            // null; the bucket only prunes null-free writes.
            for (uint32_t i : null_write_scratch_) {
              if (MayTouch(q, writes[i]) && fn(reader, q, writes[i])) return;
            }
            break;
        }
      }
    };
    for (const RelRange& r : range_scratch_) {
      auto rel_it = readers_by_relation_.find(r.rel);
      if (rel_it == readers_by_relation_.end()) continue;
      for (uint64_t reader : rel_it->second) visit_reader(reader);
    }
    // Null-occurrence queries are not relation-indexed; look up the distinct
    // nulls across the whole batch. Readers the relation pass already
    // visited are skipped by the per-call visited set, and a visited
    // reader's null queries were already offered there, so nothing is lost.
    for (const Value& v : nulls_scratch_) {
      auto it = readers_by_null_.find(v.id());
      if (it == readers_by_null_.end()) continue;
      for (uint64_t reader : it->second) visit_reader(reader);
    }
  }

  const std::vector<ReadQueryRecord>* QueriesOf(uint64_t update_number) const {
    auto it = logs_.find(update_number);
    return it == logs_.end() ? nullptr : &it->second.queries;
  }

  void EraseUpdate(uint64_t update_number);

  size_t total_queries() const { return total_queries_; }

 private:
  // Fast pre-filter: can `w` possibly affect `q`?
  bool MayTouch(const ReadQueryRecord& q, const PhysicalWrite& w) const;

  // Appends `data`'s labeled nulls to nulls_scratch_, distinct only (the
  // same null may occur several times in one tuple, and in both the old and
  // new content of a modify; dedup is O(1) per null via null_ids_scratch_,
  // keyed like readers_by_null_). Returns whether `data` held any null at
  // all — even an already-gathered one — so the batch walk classifies
  // null-carrying writes in the same pass.
  bool GatherNulls(const TupleData& data) const {
    bool saw_null = false;
    for (const Value& v : data) {
      if (!v.is_null()) continue;
      saw_null = true;
      if (null_ids_scratch_.insert(v.id()).second) nulls_scratch_.push_back(v);
    }
    return saw_null;
  }

  // A contiguous run of same-relation write indices in order_scratch_.
  struct RelRange {
    RelationId rel;
    uint32_t begin;
    uint32_t end;
  };

  const std::vector<Tgd>* tgds_;
  // Candidate-walk scratch, members so the hot per-step path allocates
  // nothing in steady state: distinct nulls of the call's writes, write
  // indices sorted by relation with their per-relation ranges, the
  // null-carrying write indices, and the readers already visited.
  mutable std::vector<Value> nulls_scratch_;
  mutable std::unordered_set<uint64_t> null_ids_scratch_;
  mutable std::vector<uint32_t> order_scratch_;
  mutable std::vector<RelRange> range_scratch_;
  mutable std::vector<uint32_t> null_write_scratch_;
  mutable std::unordered_set<uint64_t> visited_scratch_;
  // One update's logged queries, in recording order, with their positions
  // by fingerprint (Record's dedup).
  struct UpdateLog {
    std::vector<ReadQueryRecord> queries;
    std::unordered_multimap<uint64_t, size_t> by_fingerprint;
  };
  std::unordered_map<uint64_t, UpdateLog> logs_;
  std::unordered_map<RelationId, std::unordered_set<uint64_t>>
      readers_by_relation_;
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> readers_by_null_;
  size_t total_queries_ = 0;
};

}  // namespace youtopia

#endif  // YOUTOPIA_CCONTROL_READ_LOG_H_
