#ifndef YOUTOPIA_CCONTROL_PARALLEL_PARALLEL_SCHEDULER_H_
#define YOUTOPIA_CCONTROL_PARALLEL_PARALLEL_SCHEDULER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "ccontrol/parallel/ingest_pipeline.h"
#include "relational/database.h"
#include "tgd/tgd.h"

namespace youtopia {

// Batch-mode veneer over the standing IngestPipeline: the submit-batch /
// Drain / repeat interface the closed-loop benchmarks and replay
// equivalence tests are written against. The pipeline runs in kOnFlush
// admission mode, which restores the legacy drain phasing — the pinned
// backlog completes, then EVERY queued cross-shard op runs as one batch
// under the union footprint locks (so batch-internal retroactive conflicts
// and cascades still happen deterministically), then escapes re-run
// escalated — while still owning the worker pool for the scheduler's whole
// lifetime: consecutive Drains reuse the same threads, plan views, arenas
// and detectors. IngestOptions and ParallelStats are the pipeline's own
// types (see ingest_pipeline.h).
//
// Threading contract: Submit may be called from any thread, but must not
// race Drain; Drain runs on one thread at a time.
class ParallelScheduler {
 public:
  ParallelScheduler(Database* db, const std::vector<Tgd>* tgds,
                    IngestOptions options)
      : pipeline_(db, tgds,
                  [&options] {
                    options.cross_admission = CrossAdmission::kOnFlush;
                    return std::move(options);
                  }()) {}

  ParallelScheduler(const ParallelScheduler&) = delete;
  ParallelScheduler& operator=(const ParallelScheduler&) = delete;

  // Routes the update: single-component ops go straight to their worker's
  // inbox (workers start executing immediately); null replacements — and
  // inserts referencing a null that already occurs outside the target
  // component — queue for the next Drain's cross-shard batch.
  void Submit(WriteOp op) {
    const SubmitResult r = pipeline_.Submit(std::move(op));
    CHECK(r == SubmitResult::kOk);  // no deadline, and nothing calls Stop
  }

  // Waits for every worker to finish the pinned backlog, then runs the
  // cross-shard batch under its footprint locks, then re-runs escaped
  // updates under the full lock set. Returns the merged statistics of
  // everything processed since construction.
  ParallelStats Drain() { return pipeline_.Flush(); }

  const ShardMap& shard_map() const { return pipeline_.shard_map(); }

  // One past the highest priority number assigned; meaningful after Drain.
  uint64_t next_number() const { return pipeline_.next_number(); }

  // Initial operations of every committed update in final priority-number
  // order — the serialization order the run is equivalent to. Meaningful
  // after Drain.
  std::vector<WriteOp> CommittedOpsInOrder() const {
    return pipeline_.CommittedOpsInOrder();
  }

 private:
  IngestPipeline pipeline_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_CCONTROL_PARALLEL_PARALLEL_SCHEDULER_H_
