#include "ccontrol/dependency_tracker.h"

#include <algorithm>

#include "query/specificity.h"

namespace youtopia {

const char* TrackerKindName(TrackerKind kind) {
  switch (kind) {
    case TrackerKind::kNaive:
      return "NAIVE";
    case TrackerKind::kCoarse:
      return "COARSE";
    case TrackerKind::kPrecise:
      return "PRECISE";
  }
  return "?";
}

size_t DependencyTracker::OnReads(const Snapshot& snap, uint64_t reader,
                                  const std::vector<ReadQueryRecord>& reads,
                                  const WriteLog& wlog) {
  if (kind_ == TrackerKind::kNaive) return 0;  // nothing tracked

  size_t tested = 0;
  // Tests the entries of a log prefix against one query, skipping writers
  // already linked for it: one hit links a writer, and the rest of its
  // writes could only link it again.
  auto link_hits = [&](Span<const WriteLog::Entry> entries, auto&& hits) {
    for (const WriteLog::Entry& e : entries) {
      if (std::find(linked_scratch_.begin(), linked_scratch_.end(),
                    e.writer) != linked_scratch_.end()) {
        continue;
      }
      ++tested;
      if (hits(e.write())) {
        AddEdge(e.writer, reader);
        linked_scratch_.push_back(e.writer);
      }
    }
  };
  for (const ReadQueryRecord& q : reads) {
    linked_scratch_.clear();
    switch (q.kind) {
      case ReadQueryKind::kViolation: {
        const Tgd& tgd = (*tgds_)[static_cast<size_t>(q.tgd_id)];
        if (kind_ == TrackerKind::kCoarse) {
          // Relation granularity: every lower-numbered writer of any
          // relation of the tgd, linked in writer order.
          writers_scratch_.clear();
          for (RelationId rel : tgd.all_relations()) {
            for (const WriteLog::Entry& e : wlog.WritesTo(rel, reader)) {
              if (writers_scratch_.empty() ||
                  writers_scratch_.back() != e.writer) {
                writers_scratch_.push_back(e.writer);
              }
            }
          }
          std::sort(writers_scratch_.begin(), writers_scratch_.end());
          writers_scratch_.erase(
              std::unique(writers_scratch_.begin(), writers_scratch_.end()),
              writers_scratch_.end());
          for (uint64_t writer : writers_scratch_) AddEdge(writer, reader);
        } else {
          // PRECISE: the retroactive check against each lower-numbered
          // write to the tgd's relations.
          ConflictChecker::PreparedQuery prepared = checker_.Prepare(q);
          for (RelationId rel : tgd.all_relations()) {
            link_hits(wlog.WritesTo(rel, reader), [&](const PhysicalWrite& w) {
              return checker_.Conflicts(snap, w, &prepared);
            });
          }
        }
        break;
      }
      // Correction queries are the easy case for both algorithms: exact
      // dependencies straight off the in-memory write log, no database
      // access (Section 5.1.1).
      case ReadQueryKind::kMoreSpecific:
        link_hits(wlog.WritesTo(q.rel, reader), [&](const PhysicalWrite& w) {
          return (!w.data.empty() && IsMoreSpecific(w.data, q.tuple)) ||
                 (!w.old_data.empty() && IsMoreSpecific(w.old_data, q.tuple));
        });
        break;
      case ReadQueryKind::kNullOccurrence:
        // Every listed write carries the null: each test is a hit.
        link_hits(wlog.WritesCarrying(q.null_value, reader),
                  [](const PhysicalWrite&) { return true; });
        break;
    }
  }
  return tested;
}

const std::unordered_set<uint64_t>& DependencyTracker::ReadersOf(
    uint64_t writer) const {
  auto it = readers_of_.find(writer);
  return it == readers_of_.end() ? empty_ : it->second;
}

void DependencyTracker::EraseUpdate(uint64_t update_number) {
  // As a writer: drop its reader set.
  auto rit = readers_of_.find(update_number);
  if (rit != readers_of_.end()) {
    for (uint64_t reader : rit->second) {
      auto wit = writers_of_.find(reader);
      if (wit != writers_of_.end()) wit->second.erase(update_number);
    }
    num_edges_ -= rit->second.size();
    readers_of_.erase(rit);
  }
  // As a reader: remove it from every writer's reader set.
  auto wit = writers_of_.find(update_number);
  if (wit != writers_of_.end()) {
    for (uint64_t writer : wit->second) {
      auto r = readers_of_.find(writer);
      if (r != readers_of_.end() && r->second.erase(update_number) > 0) {
        --num_edges_;
      }
    }
    writers_of_.erase(wit);
  }
}

void DependencyTracker::AddEdge(uint64_t writer, uint64_t reader) {
  if (readers_of_[writer].insert(reader).second) {
    writers_of_[reader].insert(writer);
    ++num_edges_;
  }
}

}  // namespace youtopia
