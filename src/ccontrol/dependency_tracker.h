#ifndef YOUTOPIA_CCONTROL_DEPENDENCY_TRACKER_H_
#define YOUTOPIA_CCONTROL_DEPENDENCY_TRACKER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ccontrol/conflict.h"
#include "ccontrol/numbered_lists.h"
#include "ccontrol/read_query.h"
#include "ccontrol/write_log.h"
#include "relational/database.h"
#include "tgd/tgd.h"

namespace youtopia {

// Section 5.1: when update i aborts, every update that read data affected by
// i's writes must abort too. The three algorithms differ in how read
// dependencies are computed:
//
//  * kNaive   — none are tracked; aborting i cascades to *every* active
//               update numbered above i (the strawman NAI\"VE).
//  * kCoarse  — a violation query over tgd sigma depends on every logged
//               writer of any relation of sigma (relation granularity);
//               correction queries are computed exactly from the in-memory
//               write log (the paper's "easy case").
//  * kPrecise — the logged writes to the query's relations are tested with
//               the full retroactive conflict check; only writes that
//               actually change the query's answer create dependencies.
//
// COARSE stores no violation edges. Its violation queries only mark, per
// relation, that the reader read it and when (the write log's sequence
// number at the read; one mark per reader and relation, the latest).
// ReadersOf(w) works the edges out when a cascade asks: a reader numbered
// above w depends on w through relation R exactly when its mark on R is
// later than w's first logged write to R. Correction queries, and
// PRECISE's violation queries, store exact edges.
//
// Both trackers read only what can conflict: for a query of reader r, the
// writes of updates numbered below r to the query's relations, or carrying
// its null (the WriteLog's index prefixes), and none of a writer's writes
// once one has linked it.
enum class TrackerKind : uint8_t { kNaive = 0, kCoarse = 1, kPrecise = 2 };

const char* TrackerKindName(TrackerKind kind);

class DependencyTracker {
 public:
  // PRECISE runs its retroactive checks on `checker`, which must outlive
  // the tracker. The Scheduler passes its own, so one residual-plan memo
  // serves both the read-log walk and the tracker: the walk's re-planning
  // sweep reaches every plan, and the checker's rows_examined() counts
  // both. Sharing is safe because the two never check at the same time.
  DependencyTracker(TrackerKind kind, const std::vector<Tgd>* tgds,
                    const ConflictChecker* checker)
      : kind_(kind), tgds_(tgds), checker_(checker) {}

  TrackerKind kind() const { return kind_; }

  // Registers the read dependencies created by `reads`, which update
  // `reader` just performed against `snap`. `wlog` holds the writes of
  // still-abortable updates. Returns how many logged writes it tested
  // against a query (COARSE violation queries test none: they only mark
  // their relations).
  size_t OnReads(const Snapshot& snap, uint64_t reader,
                 const std::vector<ReadQueryRecord>& reads,
                 const WriteLog& wlog);

  // Fills `readers` with the updates that have a (direct) read dependency
  // on `writer`, whose writes `wlog` must still hold: first the COARSE
  // readers of the relations `writer` wrote, then the stored edges in
  // ascending order. A reader may be named more than once. Returns how
  // many relation marks it read. Meaningless for kNaive (the scheduler
  // cascades by number instead).
  size_t ReadersOf(uint64_t writer, const WriteLog& wlog,
                   std::vector<uint64_t>* readers) const;

  void EraseUpdate(uint64_t update_number);

 private:
  // A COARSE reader's latest violation read of a relation: the write
  // log's seq() when it read.
  struct Mark {
    uint64_t reader;
    uint64_t seq;
  };
  // A stored edge, listed under one end: the other end's number.
  struct Edge {
    uint64_t other;
  };

  void AddEdge(uint64_t writer, uint64_t reader);
  void MarkRead(uint64_t reader, RelationId rel, uint64_t seq);

  TrackerKind kind_;
  const std::vector<Tgd>* tgds_;
  const ConflictChecker* checker_;
  // Per-query scratch, a member so OnReads allocates nothing in steady
  // state: the writers an exact check has already linked.
  std::vector<uint64_t> linked_scratch_;
  // ReadersOf's distinct relations of the writer.
  mutable std::vector<RelationId> rels_scratch_;
  // COARSE marks by relation, and the relations each reader marked
  // (EraseUpdate's way back to them).
  NumberedLists<Mark, &Mark::reader> marks_;
  std::unordered_map<uint64_t, std::vector<RelationId>> marked_by_reader_;
  // Stored edges, both directions: the readers of each writer (all
  // numbered above it) and the writers of each reader (all below it).
  NumberedLists<Edge, &Edge::other> readers_of_;
  NumberedLists<Edge, &Edge::other> writers_of_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_CCONTROL_DEPENDENCY_TRACKER_H_
