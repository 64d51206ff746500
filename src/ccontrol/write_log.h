#ifndef YOUTOPIA_CCONTROL_WRITE_LOG_H_
#define YOUTOPIA_CCONTROL_WRITE_LOG_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ccontrol/numbered_lists.h"
#include "relational/tuple.h"
#include "relational/value.h"
#include "relational/write.h"
#include "util/span.h"

namespace youtopia {

// The in-memory log of writes performed by updates that may still be
// aborted (Section 5.1). Each update's writes are kept together, in the
// order it performed them, and two indexes list every logged write by the
// relation it wrote and by each labeled null its old or new content
// carries, so no reader of the log walks all of it:
//   * abort undo and EraseUpdate touch one update's writes (WritesOf);
//   * a tracker checking a read query of reader r walks only the writes of
//     updates numbered below r to the query's relations (WritesTo) or
//     carrying its null (WritesCarrying): each index list is ordered by
//     writer number, then log order, so those writes are a prefix of it.
// Every logged write is stamped with a log-wide sequence number, so "was
// w's first write to R logged before this read?" is one comparison: the
// first entry of w's run in R's list (WritesBy) against seq() at the read.
// An update stops paying once it commits (EraseUpdate is called by the
// scheduler when every lower-numbered update has finished) or aborts.
class WriteLog {
 public:
  // One logged write in an index list: its writer, its sequence number,
  // and the write itself, reached through the writer's list without a
  // lookup.
  struct Entry {
    uint64_t writer;
    uint64_t seq;
    const std::vector<PhysicalWrite>* writes;
    uint32_t index;

    const PhysicalWrite& write() const { return (*writes)[index]; }
  };

  void Record(uint64_t update_number, const PhysicalWrite& w);

  // The logged writes of `update_number`, in the order it performed them
  // (empty when it logged none). Valid until the log next changes.
  Span<const PhysicalWrite> WritesOf(uint64_t update_number) const {
    auto it = writes_by_update_.find(update_number);
    if (it == writes_by_update_.end()) return {};
    return it->second;
  }

  // The logged writes to `rel` by updates numbered below `before`, by
  // writer number, then log order. Valid until the log next changes.
  Span<const Entry> WritesTo(RelationId rel, uint64_t before) const {
    return by_relation_.Below(rel, before);
  }

  // The logged writes of `writer` to `rel`, in log order (empty when none).
  // Valid until the log next changes.
  Span<const Entry> WritesBy(uint64_t writer, RelationId rel) const {
    return by_relation_.Run(rel, writer);
  }

  // The sequence number the next logged write gets: every write logged so
  // far has a lower one.
  uint64_t seq() const { return next_seq_; }

  // The logged writes whose old or new content carries labeled null
  // `null`, by updates numbered below `before`, ordered like WritesTo. A
  // write is listed once however often the null occurs in it.
  Span<const Entry> WritesCarrying(const Value& null, uint64_t before) const {
    return by_null_.Below(null.id(), before);
  }

  // Drops every write of `update_number` (commit or abort), touching only
  // the index lists its writes entered.
  void EraseUpdate(uint64_t update_number);

  // Logged writes across all updates (walks the per-update lists).
  size_t size() const;

 private:
  // Calls fn(null id) once for each distinct labeled null of w's old and
  // new content.
  template <typename Fn>
  void ForEachDistinctNull(const PhysicalWrite& w, Fn&& fn);

  std::unordered_map<uint64_t, std::vector<PhysicalWrite>> writes_by_update_;
  // The index lists by relation id and by null id.
  NumberedLists<Entry, &Entry::writer> by_relation_;
  NumberedLists<Entry, &Entry::writer> by_null_;
  // ForEachDistinctNull's dedup scratch.
  std::vector<uint64_t> nulls_scratch_;
  uint64_t next_seq_ = 0;
};

}  // namespace youtopia

#endif  // YOUTOPIA_CCONTROL_WRITE_LOG_H_
