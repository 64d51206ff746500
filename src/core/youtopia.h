#ifndef YOUTOPIA_CORE_YOUTOPIA_H_
#define YOUTOPIA_CORE_YOUTOPIA_H_

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ccontrol/parallel/ingest_pipeline.h"
#include "ccontrol/scheduler.h"
#include "core/agent.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/update.h"
#include "core/violation_detector.h"
#include "query/query_engine.h"
#include "relational/database.h"
#include "tgd/parser.h"
#include "tgd/tgd.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace youtopia {

// Outcome of one user operation and the chase it set off.
struct UpdateReport {
  uint64_t number = 0;
  size_t steps = 0;
  size_t frontier_ops = 0;
  size_t violations_repaired = 0;
  bool completed = false;  // false iff the step cap was hit
};

// The top-level public API of the library: a Youtopia repository — logical
// tables tied together by user-supplied mappings, kept consistent by the
// cooperative update exchange machinery. See examples/quickstart.cc for the
// intended usage.
//
// Values in this API are strings:
//   * "Ithaca"  — a constant;
//   * "?name"   — a labeled null; the name is scoped to the repository, so
//                 later operations (ReplaceNull, further inserts) can refer
//                 to the same unknown;
//   * "_"       — a fresh anonymous labeled null.
//
// Threading contract: only the *Async calls may overlap one another (from
// any number of producer threads). No other call may overlap an *Async
// call: the serial updates and Queue*/RunQueued resolve values without
// resolve_mu_, and their chase runs unsynchronized after the quiescing
// flush; schema and mapping changes, Start, Stop and a Flush that has to
// start the pipeline replace pipeline_, which SubmitAsync reads without a
// lock. An *Async call returns once its op is admitted, and the pipeline's
// threads go on writing relations and re-planning mappings after it. So
// Count, Dump, Query, AllMappingsSatisfied, db() and mappings(), which read
// that live storage without quiescing, need Flush() or Stop() first while
// *Async ops may be in flight.
class Youtopia {
 public:
  // `seed` drives the default simulated user (RandomAgent) that answers
  // frontier requests, and the pipeline workers' agents; call SetAgent to
  // supply a different agent for the serial paths (e.g. a ScriptedAgent
  // standing in for a real user interface).
  explicit Youtopia(uint64_t seed = 42);

  Youtopia(const Youtopia&) = delete;
  Youtopia& operator=(const Youtopia&) = delete;

  // --- Schema and mappings ------------------------------------------------

  Status CreateRelation(std::string name, std::vector<std::string> attributes);

  // Registers a mapping given in the parser's text format, e.g.
  //   "A(l, n) & T(n, co, s) -> exists r: R(co, n, r)".
  // If existing data violates the new mapping, a repair chase runs
  // immediately (cooperatively, through the session agent).
  Result<int> AddMapping(std::string_view tgd_text);

  const std::vector<Tgd>& mappings() const { return tgds_; }

  // Maintenance hook: recompiles every mapping's cached query plans and
  // (re)builds the composite indexes they probe. AddMapping registers the
  // new tgd's plans itself (plans depend only on a tgd's own structure);
  // call this manually after out-of-band mutations of the mapping set or
  // schema-evolution experiments. Like the serial updates, it first flushes
  // a running pipeline, whose workers run on these plans.
  void RebuildQueryPlans();

  // True iff the registered mappings are weakly acyclic (i.e. the classical
  // chase would be guaranteed to terminate; Youtopia does not require this).
  bool MappingsWeaklyAcyclic() const;

  // --- Updates (each runs its chase to completion, serially) ---------------

  Result<UpdateReport> Insert(std::string_view relation,
                              const std::vector<std::string>& values);
  // Deletes the tuple whose content equals `values` (named nulls resolve to
  // their labeled nulls).
  Result<UpdateReport> Delete(std::string_view relation,
                              const std::vector<std::string>& values);
  // Replaces every occurrence of the named null by a constant.
  Result<UpdateReport> ReplaceNull(std::string_view null_name,
                                   std::string_view constant);

  // --- Concurrent batches (the optimistic scheduler) ------------------------

  // Queues operations without running them...
  Status QueueInsert(std::string_view relation,
                     const std::vector<std::string>& values);
  Status QueueDelete(std::string_view relation,
                     const std::vector<std::string>& values);
  // ...then interleaves all queued updates at chase-step granularity under
  // the given cascading-abort algorithm and returns the run's statistics.
  Result<SchedulerStats> RunQueued(TrackerKind tracker);

  // --- The standing ingest pipeline (one worker per shard) ------------------

  // Brings up the standing ingest service (see ccontrol/parallel/): worker
  // threads park on bounded per-shard inboxes for the repository's
  // lifetime, and a dedicated admission thread runs cross-shard batches
  // continuously. While it runs, *Async calls feed it directly — executing
  // immediately, subject to the backpressure contract below — and Flush()
  // is the barrier. Starting an already-running pipeline is a no-op if the
  // configuration matches; otherwise the old pipeline flushes and a new one
  // replaces it. Each shard runs on one pinned thread, and cross-shard
  // batches on the admission thread, all with zero concurrency control.
  // `tracker` is ignored: no pipeline lane aborts, so none tracks
  // cascades.
  Status Start(size_t workers = 2, TrackerKind tracker = TrackerKind::kCoarse,
               size_t inbox_capacity = 1024);

  // Flushes whatever was admitted, then tears the pipeline down (threads
  // join). No-op when not running. *Async calls made while stopped are
  // buffered and execute on the next Start()/Flush().
  Status Stop();

  // Barrier: waits until every admitted async operation has retired and
  // returns the pipeline's lifetime statistics. Starts the pipeline (with
  // the most recent — or default — configuration) if needed, submitting
  // any buffered backlog first.
  Result<ParallelStats> Flush();

  bool running() const { return pipeline_ != nullptr; }

  // Submits one operation to the pipeline. Unlike Queue*/RunQueued — which
  // interleave everything through one serial engine — the pipeline
  // partitions updates by tgd-closure footprint and runs disjoint shards
  // on concurrent worker threads (see ccontrol/parallel/).
  //
  // Backpressure: when the target shard's inbox is full, the call blocks
  // until a slot frees — forever when `timeout` is nullopt, else at most
  // `timeout` (zero = pure fast-fail probe), failing with
  // kResourceExhausted when the deadline expires. When the pipeline is not
  // running the op is buffered instead and `timeout` is ignored (a buffer
  // has no backpressure). Safe to call from multiple producer threads.
  Status InsertAsync(std::string_view relation,
                     const std::vector<std::string>& values,
                     std::optional<std::chrono::nanoseconds> timeout =
                         std::nullopt);
  Status DeleteAsync(std::string_view relation,
                     const std::vector<std::string>& values,
                     std::optional<std::chrono::nanoseconds> timeout =
                         std::nullopt);
  // Null replacements are inherently cross-shard; they run on the
  // pipeline's footprint-locked cross-shard lane.
  Status ReplaceNullAsync(std::string_view null_name,
                          std::string_view constant,
                          std::optional<std::chrono::nanoseconds> timeout =
                              std::nullopt);

  // --- Observability --------------------------------------------------------

  // Aggregated per-stage latency histograms (p50/p90/p99/max for inbox
  // wait, admission, chase, commit, ...), doom-cause and throughput
  // counters, and inbox-depth gauges, merged across every thread that
  // recorded into this repository's registry — the standing
  // pipeline's stages and the serial engines behind RunQueued. Callable
  // any time; exact at a quiescent point.
  obs::MetricsSnapshot MetricsSnapshot() { return metrics_.Snapshot(); }

  // Zeroes every histogram, counter and gauge (bench arms isolate runs).
  // Flush()'s ParallelStats are counted by the pipeline itself and are not
  // affected.
  void ResetMetrics() { metrics_.Reset(); }

  // Turns process-wide trace-span recording on or off. Off (the default)
  // costs one relaxed load per span site.
  void SetTracing(bool on) { obs::Tracer::Global().SetEnabled(on); }

  // Writes everything recorded so far as Chrome trace-event JSON —
  // loadable in ui.perfetto.dev / chrome://tracing. False on I/O failure.
  bool DumpTrace(const std::string& path) const {
    return obs::Tracer::Global().DumpJson(path);
  }

  // Arms the stall watchdog on pipelines created from now on (existing
  // pipelines keep their setting until recreated; 0 disables). When the
  // pipeline has admitted-but-unretired ops and none retires for
  // `deadline_ms`, the watchdog dumps per-shard inbox depths, per-worker
  // op/phase and (checked builds) held-lock stacks to stderr; `fatal`
  // additionally aborts, turning a hang into a failing test.
  void SetStallWatchdog(uint64_t deadline_ms, bool fatal = false) {
    pipeline_options_.watchdog_deadline_ms = deadline_ms;
    pipeline_options_.watchdog_fatal = fatal;
  }

  // --- Queries --------------------------------------------------------------

  struct QueryAnswer {
    std::vector<std::string> head;        // head variable names
    std::vector<TupleData> tuples;        // raw values
    std::vector<std::string> rendered;    // printable rows
  };

  // Evaluates a conjunctive query, e.g.
  //   Query("T(n, co, s) & R(co, n, r)", {"n", "r"}, kCertain).
  Result<QueryAnswer> Query(std::string_view body_text,
                            const std::vector<std::string>& head_vars,
                            QuerySemantics semantics);

  // --- Introspection --------------------------------------------------------

  Database& db() { return db_; }
  const Database& db() const { return db_; }

  // Number of tuples currently visible in `relation`.
  Result<size_t> Count(std::string_view relation) const;

  // Renders the visible contents of a relation (sorted, for stable output).
  Result<std::string> Dump(std::string_view relation) const;

  // Does the repository currently satisfy every mapping?
  bool AllMappingsSatisfied() const;

  void SetAgent(std::unique_ptr<FrontierAgent> agent) {
    agent_ = std::move(agent);
  }
  FrontierAgent* agent() { return agent_.get(); }

  // The number the next update will take from the repository's one
  // sequence (Database::TakeNumbers); exact at a quiescent point.
  uint64_t next_update_number() const { return db_.next_number(); }

  // The facade's persistent re-planning watermark (see UpdateOptions::
  // replan_poller): serial updates share it, so an Insert over a database
  // that has not moved a full mutation stride since the previous update
  // skips the per-step staleness poll entirely. Exposed for tests.
  const ReplanPoller& replan_poller() const { return replan_poller_; }

 private:
  Result<TupleData> ResolveValues(RelationId rel,
                                  const std::vector<std::string>& values,
                                  bool allow_new_nulls);
  UpdateReport RunSerial(WriteOp op);
  // Creates the pipeline from pipeline_options_ if it is not running.
  void EnsurePipeline();
  // Flushes the pipeline, if one runs.
  void QuiescePipeline();
  // QuiescePipeline + tear-down; schema/mapping changes call this because
  // the shard map is compiled against the old state, and AddMapping may
  // reallocate the tgd vector the workers run on.
  void InvalidatePipeline();
  // Routes `op` to the running pipeline (mapping SubmitResult to Status)
  // or buffers it when stopped.
  Status SubmitAsync(WriteOp op,
                     const std::optional<std::chrono::nanoseconds>& timeout);
  // Feeds ops buffered while the pipeline was down into the live pipeline.
  void SubmitBacklog();

  Database db_;
  std::vector<Tgd> tgds_;
  // The serial updates' shared detector (see UpdateOptions::detector).
  ViolationDetector detector_{&tgds_};
  std::unique_ptr<FrontierAgent> agent_;
  std::unordered_map<std::string, Value> named_nulls_;  // see resolve_mu_
  std::vector<WriteOp> queued_;
  std::vector<WriteOp> async_queued_;
  ReplanPoller replan_poller_;

  // The standing ingest service, alive until Stop()/invalidation. Facade
  // state above (named_nulls_, the symbol table reached through
  // ResolveValues) is NOT owned by the pipeline; resolve_mu_ makes the
  // resolution step safe for concurrent *Async producers. Worker threads
  // never touch that state, so producers and workers need no common lock.
  // Facade-lifetime metrics registry: pipelines come and go (lazy
  // restarts, reconfiguration), their histograms accumulate here.
  obs::MetricsRegistry metrics_;

  // The configuration of the next pipeline to start: the most recent
  // Start's, the agent seed and the facade's metrics registry.
  IngestOptions pipeline_options_;
  std::unique_ptr<IngestPipeline> pipeline_;
  // Leaf lock: never held across pipeline Submit/WithComponentLock (the
  // *Async resolution scopes release it before routing the op).
  Mutex resolve_mu_{LockRank::kLeaf};
};

}  // namespace youtopia

#endif  // YOUTOPIA_CORE_YOUTOPIA_H_
