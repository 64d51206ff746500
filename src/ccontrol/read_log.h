#ifndef YOUTOPIA_CCONTROL_READ_LOG_H_
#define YOUTOPIA_CCONTROL_READ_LOG_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ccontrol/numbered_lists.h"
#include "ccontrol/read_query.h"
#include "relational/row_buckets.h"
#include "relational/write.h"
#include "tgd/tgd.h"
#include "util/span.h"

namespace youtopia {

// Stores the read queries each live update has performed (Algorithm 4:
// "store Q for future checks"), indexed so that a write reaches only the
// queries it might invalidate. Two index lists name every logged query a
// write can change:
//   * by relation — violation queries under every relation of their tgd,
//     more-specific queries under their target relation;
//   * by labeled null — null-occurrence queries under their null.
// A violation query whose pin cannot bind (ReadQueryRecord::pin_binds)
// answers nothing in every database; it is logged but listed nowhere.
// Each list is ordered by reader number, then by the query's position in
// its reader's log, so the queries of readers numbered above a writer are
// a suffix of it. Exact duplicates (chases re-pose the same violation
// query on every revalidation) are deduplicated per update, by fingerprint
// confirmed against the full query (fingerprints can collide; a query
// dropped on a collision would escape every later conflict check).
// EraseUpdate touches only the lists the update's own queries entered.
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
  // the detection side's batching (ViolationDetector::AfterWrites). The
  // candidates are the queries listed, above `writer`, under a relation the
  // batch writes or a labeled null its old or new contents carry; their
  // list suffixes are merged by (reader, position), so each candidate is
  // visited once and each reader's candidates in log order. Each query is
  // offered only the writes that can touch it (the batch is bucketed by
  // relation up front): a violation query the writes to each relation of
  // its tgd, in the tgd's relation order; a more-specific query the writes
  // to its relation; a null-occurrence query the writes carrying its null.
  // fn(reader, q, w) is invoked for each such (query, write) combination;
  // returning true skips that reader's remaining candidates (the scheduler
  // stops probing a reader the moment one conflict dooms it). Returns how
  // many logged queries it visited.
  template <typename Fn>
  size_t ForEachCandidateBatch(Span<const PhysicalWrite> writes,
                               uint64_t writer, Fn&& fn) const {
    if (writes.empty()) return 0;
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
    null_write_scratch_.clear();
    for (uint32_t i = 0; i < writes.size(); ++i) {
      // Bitwise |: both sides must run (gathering must see old and new).
      if (GatherNulls(writes[i].data) | GatherNulls(writes[i].old_data)) {
        null_write_scratch_.push_back(i);
      }
    }
    // Distinct nulls only: the same null may occur several times in one
    // tuple, in both the old and new content of a modify, and in several
    // writes. (All are nulls, so Value's order is the id's.)
    std::sort(nulls_scratch_.begin(), nulls_scratch_.end());
    nulls_scratch_.erase(
        std::unique(nulls_scratch_.begin(), nulls_scratch_.end()),
        nulls_scratch_.end());

    // The candidates: each list's suffix above the writer. A single list is
    // already in (reader, position) order; several are merged, and a
    // violation query listed under two written relations is kept once.
    candidates_scratch_.clear();
    size_t lists = 0;
    auto gather = [&](Span<const Entry> suffix) {
      if (suffix.empty()) return;
      ++lists;
      candidates_scratch_.insert(candidates_scratch_.end(), suffix.begin(),
                                 suffix.end());
    };
    for (const RelRange& r : range_scratch_) {
      gather(by_relation_.Above(r.rel, writer));
    }
    for (const Value& v : nulls_scratch_) {
      gather(by_null_.Above(v.id(), writer));
    }
    if (lists > 1) {
      std::sort(candidates_scratch_.begin(), candidates_scratch_.end());
      candidates_scratch_.erase(
          std::unique(candidates_scratch_.begin(), candidates_scratch_.end()),
          candidates_scratch_.end());
    }

    auto find_range = [&](RelationId rel) -> const RelRange* {
      for (const RelRange& r : range_scratch_) {
        if (r.rel == rel) return &r;
      }
      return nullptr;
    };
    // Offers every write of `range` to `q`; true once fn dooms the reader.
    auto offer_range = [&](uint64_t reader, const ReadQueryRecord& q,
                           const RelRange* range) {
      if (range == nullptr) return false;
      for (uint32_t k = range->begin; k < range->end; ++k) {
        if (fn(reader, q, writes[order_scratch_[k]])) return true;
      }
      return false;
    };
    auto offer = [&](uint64_t reader, const ReadQueryRecord& q) {
      switch (q.kind) {
        case ReadQueryKind::kViolation:
          for (RelationId r :
               (*tgds_)[static_cast<size_t>(q.tgd_id)].all_relations()) {
            if (offer_range(reader, q, find_range(r))) return true;
          }
          return false;
        case ReadQueryKind::kMoreSpecific:
          return offer_range(reader, q, find_range(q.rel));
        case ReadQueryKind::kNullOccurrence:
          for (uint32_t i : null_write_scratch_) {
            if (CarriesNull(writes[i], q.null_value) &&
                fn(reader, q, writes[i])) {
              return true;
            }
          }
          return false;
      }
      return false;
    };

    size_t visited = 0;
    const std::vector<ReadQueryRecord>* queries = nullptr;
    uint64_t reader = 0;
    bool doomed = false;
    for (const Entry& e : candidates_scratch_) {
      if (queries == nullptr || e.reader != reader) {
        reader = e.reader;
        queries = &logs_.find(reader)->second.queries;
        doomed = false;
      }
      if (doomed) continue;
      ++visited;
      doomed = offer(reader, (*queries)[e.pos]);
    }
    return visited;
  }

  const std::vector<ReadQueryRecord>* QueriesOf(uint64_t update_number) const {
    auto it = logs_.find(update_number);
    return it == logs_.end() ? nullptr : &it->second.queries;
  }

  void EraseUpdate(uint64_t update_number);

  size_t total_queries() const { return total_queries_; }

 private:
  // One logged query in an index list: its reader, and its position in the
  // reader's log.
  struct Entry {
    uint64_t reader;
    uint32_t pos;

    bool operator<(const Entry& o) const {
      return reader != o.reader ? reader < o.reader : pos < o.pos;
    }
    bool operator==(const Entry& o) const {
      return reader == o.reader && pos == o.pos;
    }
  };
  // Calls fn(lists, key) for each list `q` is listed in. A violation query
  // whose pin cannot bind is in none: no write can change its answer.
  template <typename Fn>
  void ForEachListOf(const ReadQueryRecord& q, Fn&& fn) {
    switch (q.kind) {
      case ReadQueryKind::kViolation:
        if (!q.pin_binds) break;
        for (RelationId r :
             (*tgds_)[static_cast<size_t>(q.tgd_id)].all_relations()) {
          fn(by_relation_, r);
        }
        break;
      case ReadQueryKind::kMoreSpecific:
        fn(by_relation_, q.rel);
        break;
      case ReadQueryKind::kNullOccurrence:
        fn(by_null_, q.null_value.id());
        break;
    }
  }

  static bool CarriesNull(const PhysicalWrite& w, const Value& null_value) {
    return (!w.data.empty() && ContainsNull(w.data, null_value)) ||
           (!w.old_data.empty() && ContainsNull(w.old_data, null_value));
  }

  // Appends `data`'s labeled nulls to nulls_scratch_ (duplicates
  // included; the batch walk sorts and dedups them once). Returns whether
  // `data` held any null, so the walk classifies null-carrying writes in
  // the same pass.
  bool GatherNulls(const TupleData& data) const {
    bool saw_null = false;
    for (const Value& v : data) {
      if (!v.is_null()) continue;
      saw_null = true;
      nulls_scratch_.push_back(v);
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
  // null-carrying write indices, and the merged candidate entries.
  mutable std::vector<Value> nulls_scratch_;
  mutable std::vector<uint32_t> order_scratch_;
  mutable std::vector<RelRange> range_scratch_;
  mutable std::vector<uint32_t> null_write_scratch_;
  mutable std::vector<Entry> candidates_scratch_;
  // One update's logged queries, in recording order, with their positions
  // listed under their fingerprints (Record's dedup).
  struct UpdateLog {
    std::vector<ReadQueryRecord> queries;
    RowBuckets by_fingerprint;
  };
  std::unordered_map<uint64_t, UpdateLog> logs_;
  // The index lists by relation id and by null id.
  NumberedLists<Entry, &Entry::reader> by_relation_;
  NumberedLists<Entry, &Entry::reader> by_null_;
  size_t total_queries_ = 0;
};

}  // namespace youtopia

#endif  // YOUTOPIA_CCONTROL_READ_LOG_H_
