#ifndef YOUTOPIA_CCONTROL_WRITE_LOG_H_
#define YOUTOPIA_CCONTROL_WRITE_LOG_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "relational/tuple.h"
#include "relational/write.h"
#include "util/span.h"

namespace youtopia {

// The in-memory log of writes performed by updates that may still be
// aborted (Section 5.1). Each update's writes are kept together, in the
// order it performed them, beside a relation -> writers index, so no
// reader of the log walks all of it:
//   * abort undo and EraseUpdate touch one update's writes (WritesOf);
//   * COARSE reads the writer sets (WritersOf);
//   * the trackers' exact checks (PRECISE violation queries, more-specific
//     queries) visit the writes of the updates WritersOf names for the
//     query's relations.
// An update stops paying once it commits (EraseUpdate is called by the
// scheduler when every lower-numbered update has finished) or aborts.
class WriteLog {
 public:
  void Record(uint64_t update_number, const PhysicalWrite& w) {
    writes_by_update_[update_number].push_back(w);
    writers_by_relation_[w.rel].insert(update_number);
  }

  // The logged writes of `update_number`, in the order it performed them
  // (empty when it logged none). Valid until the log next changes.
  Span<const PhysicalWrite> WritesOf(uint64_t update_number) const {
    auto it = writes_by_update_.find(update_number);
    if (it == writes_by_update_.end()) return {};
    return it->second;
  }

  // Invokes fn(update_number, writes) for every update with logged writes.
  template <typename Fn>
  void ForEachUpdate(Fn&& fn) const {
    for (const auto& [update, writes] : writes_by_update_) {
      fn(update, Span<const PhysicalWrite>(writes));
    }
  }

  // Appends to `out` the updates (by number) that have written at least
  // one tuple of `rel` — the COARSE tracker's dependency granularity.
  void WritersOf(RelationId rel, std::vector<uint64_t>* out) const {
    auto it = writers_by_relation_.find(rel);
    if (it == writers_by_relation_.end()) return;
    out->insert(out->end(), it->second.begin(), it->second.end());
  }

  // Drops every write of `update_number` (commit or abort).
  void EraseUpdate(uint64_t update_number);

  // Logged writes across all updates (walks the per-update lists).
  size_t size() const;

 private:
  std::unordered_map<uint64_t, std::vector<PhysicalWrite>> writes_by_update_;
  std::unordered_map<RelationId, std::unordered_set<uint64_t>>
      writers_by_relation_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_CCONTROL_WRITE_LOG_H_
