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
        } else if (q.pin_binds) {
          // PRECISE: the retroactive check against each lower-numbered
          // write to the tgd's relations. A query whose pin cannot bind
          // answers nothing whatever is written, so it tests none.
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
      const Span<const Mark> marks = marks_.Above(rel, writer);
      if (marks.empty()) continue;
      // The writer's first write to rel; a reader that read rel after it
      // was logged depends on the writer.
      const uint64_t first = wlog.WritesBy(writer, rel)[0].seq;
      for (const Mark& m : marks) {
        ++scanned;
        if (m.seq > first) readers->push_back(m.reader);
      }
    }
  }
  for (const Edge& e : readers_of_.Above(writer, writer)) {
    readers->push_back(e.other);
  }
  return scanned;
}

void DependencyTracker::EraseUpdate(uint64_t update_number) {
  // As a COARSE reader: drop its marks.
  auto mit = marked_by_reader_.find(update_number);
  if (mit != marked_by_reader_.end()) {
    for (RelationId rel : mit->second) marks_.EraseRun(rel, update_number);
    marked_by_reader_.erase(mit);
  }
  // As a writer: leave its readers' lists, then drop its own.
  for (const Edge& e : readers_of_.Above(update_number, update_number)) {
    writers_of_.EraseRun(e.other, update_number);
  }
  readers_of_.Drop(update_number);
  // As a reader: likewise from the other side.
  for (const Edge& e : writers_of_.Below(update_number, update_number)) {
    readers_of_.EraseRun(e.other, update_number);
  }
  writers_of_.Drop(update_number);
}

void DependencyTracker::AddEdge(uint64_t writer, uint64_t reader) {
  DCHECK(writer < reader);
  if (!readers_of_.Run(writer, reader).empty()) return;
  readers_of_.Add(writer, Edge{reader});
  writers_of_.Add(reader, Edge{writer});
}

void DependencyTracker::MarkRead(uint64_t reader, RelationId rel,
                                 uint64_t seq) {
  if (Mark* m = marks_.First(rel, reader)) {
    m->seq = seq;  // the latest read decides
    return;
  }
  marks_.Add(rel, Mark{reader, seq});
  marked_by_reader_[reader].push_back(rel);
}

}  // namespace youtopia
