#ifndef YOUTOPIA_CCONTROL_DEPENDENCY_TRACKER_H_
#define YOUTOPIA_CCONTROL_DEPENDENCY_TRACKER_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ccontrol/conflict.h"
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
// Both trackers read only what can conflict: for a query of reader r, the
// writes of updates numbered below r to the query's relations, or carrying
// its null (the WriteLog's index prefixes), and none of a writer's writes
// once one has linked it.
enum class TrackerKind : uint8_t { kNaive = 0, kCoarse = 1, kPrecise = 2 };

const char* TrackerKindName(TrackerKind kind);

class DependencyTracker {
 public:
  // `arena` is forwarded to the internal ConflictChecker (see there).
  DependencyTracker(TrackerKind kind, const std::vector<Tgd>* tgds,
                    Arena* arena = nullptr)
      : kind_(kind), tgds_(tgds), checker_(tgds, arena) {}

  TrackerKind kind() const { return kind_; }

  // Registers the read dependencies created by `reads`, which update
  // `reader` just performed against `snap`. `wlog` holds the writes of
  // still-abortable updates. Returns how many logged writes it tested
  // against a query (COARSE violation queries test none: they read the
  // writers).
  size_t OnReads(const Snapshot& snap, uint64_t reader,
                 const std::vector<ReadQueryRecord>& reads,
                 const WriteLog& wlog);

  // Updates that have a (direct) read dependency on `writer`. Meaningless
  // for kNaive (the scheduler cascades by number instead).
  const std::unordered_set<uint64_t>& ReadersOf(uint64_t writer) const;

  void EraseUpdate(uint64_t update_number);

  size_t num_edges() const { return num_edges_; }

 private:
  void AddEdge(uint64_t writer, uint64_t reader);

  TrackerKind kind_;
  const std::vector<Tgd>* tgds_;
  ConflictChecker checker_;
  // Per-query scratch, members so OnReads allocates nothing in steady
  // state: COARSE's distinct writers, and the writers an exact check has
  // already linked.
  std::vector<uint64_t> writers_scratch_;
  std::vector<uint64_t> linked_scratch_;
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> readers_of_;
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> writers_of_;
  std::unordered_set<uint64_t> empty_;
  size_t num_edges_ = 0;
};

}  // namespace youtopia

#endif  // YOUTOPIA_CCONTROL_DEPENDENCY_TRACKER_H_
