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
          // Relation granularity: mark when the reader read each relation
          // of the tgd; ReadersOf links the writers logged before then.
          for (RelationId rel : tgd.all_relations()) {
            MarkRead(reader, rel, wlog.seq());
          }
        } else {
          // PRECISE: the retroactive check against each lower-numbered
          // write to the tgd's relations.
          ConflictChecker::PreparedQuery prepared = checker_->Prepare(q);
          for (RelationId rel : tgd.all_relations()) {
            link_hits(wlog.WritesTo(rel, reader), [&](const PhysicalWrite& w) {
              return checker_->Conflicts(snap, w, &prepared);
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

size_t DependencyTracker::ReadersOf(uint64_t writer, const WriteLog& wlog,
                                   std::vector<uint64_t>* readers) const {
  readers->clear();
  size_t scanned = 0;
  if (!marks_.empty()) {
    rels_scratch_.clear();
    for (const PhysicalWrite& w : wlog.WritesOf(writer)) {
      if (std::find(rels_scratch_.begin(), rels_scratch_.end(), w.rel) ==
          rels_scratch_.end()) {
        rels_scratch_.push_back(w.rel);
      }
    }
    for (RelationId rel : rels_scratch_) {
      auto it = marks_.find(rel);
      if (it == marks_.end()) continue;
      // The writer's first write to rel; a reader that read rel after it
      // was logged depends on the writer.
      const uint64_t first = wlog.WritesBy(writer, rel)[0].seq;
      const std::vector<Mark>& marks = it->second;
      for (auto m = std::partition_point(
               marks.begin(), marks.end(),
               [&](const Mark& mark) { return mark.reader <= writer; });
           m != marks.end(); ++m) {
        ++scanned;
        if (m->seq > first) readers->push_back(m->reader);
      }
    }
  }
  auto it = readers_of_.find(writer);
  if (it != readers_of_.end()) {
    readers->insert(readers->end(), it->second.begin(), it->second.end());
  }
  return scanned;
}

void DependencyTracker::EraseUpdate(uint64_t update_number) {
  // As a COARSE reader: drop its marks.
  auto mit = marked_by_reader_.find(update_number);
  if (mit != marked_by_reader_.end()) {
    for (RelationId rel : mit->second) {
      auto found = marks_.find(rel);
      std::vector<Mark>& marks = found->second;
      marks.erase(std::partition_point(marks.begin(), marks.end(),
                                       [&](const Mark& m) {
                                         return m.reader < update_number;
                                       }));
      if (marks.empty()) marks_.erase(found);
    }
    marked_by_reader_.erase(mit);
  }
  // As a writer: drop its reader set.
  auto rit = readers_of_.find(update_number);
  if (rit != readers_of_.end()) {
    for (uint64_t reader : rit->second) {
      auto wit = writers_of_.find(reader);
      if (wit != writers_of_.end()) wit->second.erase(update_number);
    }
    readers_of_.erase(rit);
  }
  // As a reader: remove it from every writer's reader set.
  auto wit = writers_of_.find(update_number);
  if (wit != writers_of_.end()) {
    for (uint64_t writer : wit->second) {
      auto r = readers_of_.find(writer);
      if (r != readers_of_.end()) r->second.erase(update_number);
    }
    writers_of_.erase(wit);
  }
}

void DependencyTracker::AddEdge(uint64_t writer, uint64_t reader) {
  if (readers_of_[writer].insert(reader).second) {
    writers_of_[reader].insert(writer);
  }
}

void DependencyTracker::MarkRead(uint64_t reader, RelationId rel,
                                 uint64_t seq) {
  std::vector<Mark>& marks = marks_[rel];
  auto it = std::partition_point(
      marks.begin(), marks.end(),
      [&](const Mark& m) { return m.reader < reader; });
  if (it != marks.end() && it->reader == reader) {
    it->seq = seq;  // the latest read decides
    return;
  }
  marks.insert(it, Mark{reader, seq});
  marked_by_reader_[reader].push_back(rel);
}

}  // namespace youtopia
