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

void DependencyTracker::OnReads(const Snapshot& snap, uint64_t reader,
                                const std::vector<ReadQueryRecord>& reads,
                                const WriteLog& wlog) {
  if (kind_ == TrackerKind::kNaive) return;  // nothing tracked

  // Fills writers_scratch_ with the distinct logged writers of `rels`.
  auto gather_writers = [&](Span<const RelationId> rels) {
    writers_scratch_.clear();
    for (RelationId rel : rels) wlog.WritersOf(rel, &writers_scratch_);
    std::sort(writers_scratch_.begin(), writers_scratch_.end());
    writers_scratch_.erase(
        std::unique(writers_scratch_.begin(), writers_scratch_.end()),
        writers_scratch_.end());
  };
  // Links `writer` to `reader` if one of its writes hits; the rest of its
  // writes could only link it again.
  auto link_on_hit = [&](uint64_t writer, Span<const PhysicalWrite> writes,
                         auto&& hits) {
    if (writer >= reader) return;
    for (const PhysicalWrite& w : writes) {
      if (hits(w)) {
        AddEdge(writer, reader);
        return;
      }
    }
  };
  for (const ReadQueryRecord& q : reads) {
    switch (q.kind) {
      case ReadQueryKind::kViolation: {
        const Tgd& tgd = (*tgds_)[static_cast<size_t>(q.tgd_id)];
        gather_writers(tgd.all_relations());
        for (uint64_t writer : writers_scratch_) {
          if (kind_ == TrackerKind::kCoarse) {
            // Relation granularity: any writer of any relation of the tgd.
            if (writer < reader) AddEdge(writer, reader);
          } else {
            // PRECISE: the retroactive check against each of the writer's
            // writes (one outside the tgd's relations fails it at once).
            link_on_hit(writer, wlog.WritesOf(writer),
                        [&](const PhysicalWrite& w) {
                          return checker_.Conflicts(snap, w, q);
                        });
          }
        }
        break;
      }
      // Correction queries are the easy case for both algorithms: exact
      // dependencies straight off the in-memory write log, no database
      // access (Section 5.1.1).
      case ReadQueryKind::kMoreSpecific: {
        gather_writers(Span<const RelationId>(&q.rel, 1));
        for (uint64_t writer : writers_scratch_) {
          link_on_hit(writer, wlog.WritesOf(writer),
                      [&](const PhysicalWrite& w) {
                        return w.rel == q.rel &&
                               ((!w.data.empty() &&
                                 IsMoreSpecific(w.data, q.tuple)) ||
                                (!w.old_data.empty() &&
                                 IsMoreSpecific(w.old_data, q.tuple)));
                      });
        }
        break;
      }
      case ReadQueryKind::kNullOccurrence: {
        wlog.ForEachUpdate([&](uint64_t writer,
                               Span<const PhysicalWrite> writes) {
          link_on_hit(writer, writes, [&](const PhysicalWrite& w) {
            return (!w.data.empty() && ContainsNull(w.data, q.null_value)) ||
                   (!w.old_data.empty() &&
                    ContainsNull(w.old_data, q.null_value));
          });
        });
        break;
      }
    }
  }
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
