#include "core/youtopia.h"

#include <algorithm>

#include "tgd/dependency_graph.h"

namespace youtopia {

Youtopia::Youtopia(uint64_t seed)
    : agent_(std::make_unique<RandomAgent>(seed)) {
  pipeline_options_.agent_seed = seed;
  pipeline_options_.metrics = &metrics_;
}

Status Youtopia::CreateRelation(std::string name,
                                std::vector<std::string> attributes) {
  // The shard map is a partition of the relation set; a new relation means
  // a new partition, so the standing pipeline (if any) must rebuild.
  InvalidatePipeline();
  Result<RelationId> id =
      db_.CreateRelation(std::move(name), std::move(attributes));
  return id.ok() ? Status::Ok() : id.status();
}

Result<int> Youtopia::AddMapping(std::string_view tgd_text) {
  // A new mapping changes the tgd-closure components; it may also
  // reallocate tgds_, which the pipeline's lanes run on. Quiesce and
  // rebuild.
  InvalidatePipeline();
  TgdParser parser(&db_.catalog(), &db_.symbols());
  Result<Tgd> tgd = parser.ParseTgd(tgd_text);
  if (!tgd.ok()) return tgd.status();
  tgds_.push_back(std::move(tgd).value());
  const int id = static_cast<int>(tgds_.size()) - 1;

  // Tgd::Create compiled the plans without statistics (it only sees the
  // catalog); recompile against the repository the mapping now joins over —
  // which may hold years of data — and build the composite indexes the
  // costed probes demand, so the repair chase below (and every later
  // update) executes its planned access paths.
  tgds_.back().RecompilePlans(&db_);
  EnsureTgdPlanIndexes(&db_, tgds_.back().plans());

  // Cooperatively repair any violations the new mapping has over existing
  // data (Section 1.2: mappings are supplied as the repository grows).
  Snapshot snap(&db_, kReadLatest);
  std::vector<Violation> viols;
  detector_.FindAll(snap, &viols);
  if (!viols.empty()) {
    UpdateOptions uopts;
    uopts.detector = &detector_;
    Update repair = Update::ForViolations(db_.TakeNumbers(), std::move(viols),
                                          &tgds_, uopts);
    repair.RunToCompletion(&db_, agent_.get());
  }
  return id;
}

void Youtopia::RebuildQueryPlans() {
  // Swaps plans the pipeline's workers read and may build indexes over
  // relations they write: quiesce first.
  QuiescePipeline();
  for (Tgd& tgd : tgds_) {
    tgd.RecompilePlans(&db_);
    EnsureTgdPlanIndexes(&db_, tgd.plans());
  }
}

bool Youtopia::MappingsWeaklyAcyclic() const {
  DependencyGraph graph(db_.catalog(), tgds_);
  return graph.IsWeaklyAcyclic();
}

Result<TupleData> Youtopia::ResolveValues(
    RelationId rel, const std::vector<std::string>& values,
    bool allow_new_nulls) {
  const RelationSchema& schema = db_.catalog().schema(rel);
  if (values.size() != schema.arity()) {
    return Status::InvalidArgument(
        "relation '" + schema.name + "' expects " +
        std::to_string(schema.arity()) + " values, got " +
        std::to_string(values.size()));
  }
  TupleData data;
  data.reserve(values.size());
  for (const std::string& text : values) {
    if (text == "_") {
      if (!allow_new_nulls) {
        return Status::InvalidArgument(
            "anonymous null '_' not allowed here (it could never match)");
      }
      data.push_back(db_.FreshNull());
    } else if (!text.empty() && text[0] == '?') {
      auto it = named_nulls_.find(text);
      if (it != named_nulls_.end()) {
        data.push_back(it->second);
      } else {
        if (!allow_new_nulls) {
          return Status::InvalidArgument("unknown labeled null '" + text +
                                         "'");
        }
        const Value null_value = db_.FreshNull();
        named_nulls_.emplace(text, null_value);
        data.push_back(null_value);
      }
    } else {
      data.push_back(db_.InternConstant(text));
    }
  }
  return data;
}

UpdateReport Youtopia::RunSerial(WriteOp op) {
  // Serial updates run unsynchronized against the database, so they only
  // execute at a pipeline-quiescent point (the public entry points flushed
  // already). The pipeline stays up: its workers are parked, its threads
  // survive for the next async burst.
  const uint64_t number = db_.TakeNumbers();
  UpdateOptions uopts;
  // Facade-level generation counter (see ReplanPoller): nothing but chase
  // writes mutate this repository between serial updates, so sharing one
  // watermark across them skips the per-step staleness poll entirely until
  // the database has actually moved a stride. Mapping changes need no
  // generation bump: AddMapping/RebuildQueryPlans recompile against the
  // live database at the moment of change.
  uopts.replan_poller = &replan_poller_;
  uopts.detector = &detector_;
  Update update(number, std::move(op), &tgds_, uopts);
  update.RunToCompletion(&db_, agent_.get());
  UpdateReport report;
  report.number = update.number();
  report.steps = update.steps_taken();
  report.frontier_ops = update.frontier_ops_performed();
  report.violations_repaired = update.violations_repaired();
  report.completed = !update.hit_step_cap();
  return report;
}

Result<UpdateReport> Youtopia::Insert(std::string_view relation,
                                      const std::vector<std::string>& values) {
  QuiescePipeline();
  Result<RelationId> rel = db_.catalog().Find(relation);
  if (!rel.ok()) return rel.status();
  Result<TupleData> data = ResolveValues(*rel, values, /*allow_new_nulls=*/true);
  if (!data.ok()) return data.status();
  return RunSerial(WriteOp::Insert(*rel, std::move(data).value()));
}

Result<UpdateReport> Youtopia::Delete(std::string_view relation,
                                      const std::vector<std::string>& values) {
  QuiescePipeline();
  Result<RelationId> rel = db_.catalog().Find(relation);
  if (!rel.ok()) return rel.status();
  Result<TupleData> data =
      ResolveValues(*rel, values, /*allow_new_nulls=*/false);
  if (!data.ok()) return data.status();
  std::optional<RowId> row = db_.FindRowWithData(*rel, *data, kReadLatest);
  if (!row.has_value()) {
    return Status::NotFound("no such tuple in '" + std::string(relation) +
                            "'");
  }
  return RunSerial(WriteOp::Delete(*rel, *row));
}

Result<UpdateReport> Youtopia::ReplaceNull(std::string_view null_name,
                                           std::string_view constant) {
  QuiescePipeline();
  auto it = named_nulls_.find(std::string(null_name));
  if (it == named_nulls_.end()) {
    return Status::NotFound("unknown labeled null '" + std::string(null_name) +
                            "'");
  }
  return RunSerial(
      WriteOp::NullReplace(it->second, db_.InternConstant(constant)));
}

Status Youtopia::QueueInsert(std::string_view relation,
                             const std::vector<std::string>& values) {
  Result<RelationId> rel = db_.catalog().Find(relation);
  if (!rel.ok()) return rel.status();
  Result<TupleData> data = ResolveValues(*rel, values, /*allow_new_nulls=*/true);
  if (!data.ok()) return data.status();
  queued_.push_back(WriteOp::Insert(*rel, std::move(data).value()));
  return Status::Ok();
}

Status Youtopia::QueueDelete(std::string_view relation,
                             const std::vector<std::string>& values) {
  // The row lookup reads a relation a shard worker may still be writing.
  QuiescePipeline();
  Result<RelationId> rel = db_.catalog().Find(relation);
  if (!rel.ok()) return rel.status();
  Result<TupleData> data =
      ResolveValues(*rel, values, /*allow_new_nulls=*/false);
  if (!data.ok()) return data.status();
  std::optional<RowId> row = db_.FindRowWithData(*rel, *data, kReadLatest);
  if (!row.has_value()) {
    return Status::NotFound("no such tuple in '" + std::string(relation) +
                            "'");
  }
  queued_.push_back(WriteOp::Delete(*rel, *row));
  return Status::Ok();
}

Result<SchedulerStats> Youtopia::RunQueued(TrackerKind tracker) {
  QuiescePipeline();
  SchedulerOptions options;
  options.tracker = tracker;
  options.first_number = db_.next_number();
  options.metrics = &metrics_;
  Scheduler scheduler(&db_, &tgds_, agent_.get(), options);
  for (WriteOp& op : queued_) scheduler.Submit(std::move(op));
  queued_.clear();
  scheduler.RunToCompletion();
  // The engine numbered its updates and redos itself, from first_number.
  db_.SkipNumbersTo(scheduler.next_number());
  return scheduler.stats();
}

// --- The standing ingest pipeline ------------------------------------------

void Youtopia::EnsurePipeline() {
  if (pipeline_) return;
  pipeline_ = std::make_unique<IngestPipeline>(&db_, &tgds_, pipeline_options_);
}

void Youtopia::QuiescePipeline() {
  if (pipeline_) pipeline_->Flush();
}

void Youtopia::InvalidatePipeline() {
  QuiescePipeline();
  pipeline_.reset();
}

void Youtopia::SubmitBacklog() {
  for (WriteOp& op : async_queued_) pipeline_->Submit(std::move(op));
  async_queued_.clear();
}

Status Youtopia::Start(size_t workers, TrackerKind /*tracker*/,
                       size_t inbox_capacity) {
  workers = std::max<size_t>(workers, 1);
  if (pipeline_ && (pipeline_options_.num_workers != workers ||
                    pipeline_options_.inbox_capacity != inbox_capacity)) {
    InvalidatePipeline();  // reconfiguration: flush, then rebuild below
  }
  pipeline_options_.num_workers = workers;
  pipeline_options_.inbox_capacity = inbox_capacity;
  EnsurePipeline();
  SubmitBacklog();
  return Status::Ok();
}

Status Youtopia::Stop() {
  InvalidatePipeline();
  return Status::Ok();
}

Result<ParallelStats> Youtopia::Flush() {
  EnsurePipeline();
  SubmitBacklog();
  return pipeline_->Flush();
}

Status Youtopia::SubmitAsync(
    WriteOp op, const std::optional<std::chrono::nanoseconds>& timeout) {
  if (!pipeline_) {
    // Stopped: buffer for the next Start/Flush. A buffer exerts no
    // backpressure, so the timeout does not apply.
    MutexLock lock(resolve_mu_);
    async_queued_.push_back(std::move(op));
    return Status::Ok();
  }
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (timeout.has_value()) {
    deadline = std::chrono::steady_clock::now() + *timeout;
  }
  switch (pipeline_->Submit(std::move(op), deadline)) {
    case SubmitResult::kOk:
      return Status::Ok();
    case SubmitResult::kWouldBlock:
      return Status::ResourceExhausted(
          "shard inbox full: admission deadline expired");
    case SubmitResult::kShutdown:
      return Status::FailedPrecondition("ingest pipeline stopped");
  }
  return Status::Internal("unreachable");
}

Status Youtopia::InsertAsync(std::string_view relation,
                             const std::vector<std::string>& values,
                             std::optional<std::chrono::nanoseconds> timeout) {
  Result<RelationId> rel = db_.catalog().Find(relation);
  if (!rel.ok()) return rel.status();
  WriteOp op;
  {
    // Resolution touches facade-owned shared state (the symbol table, the
    // named-null map, the null registry) that concurrent *Async producers
    // would otherwise race on. Workers never touch that state.
    MutexLock lock(resolve_mu_);
    Result<TupleData> data =
        ResolveValues(*rel, values, /*allow_new_nulls=*/true);
    if (!data.ok()) return data.status();
    op = WriteOp::Insert(*rel, std::move(data).value());
  }
  return SubmitAsync(std::move(op), timeout);
}

Status Youtopia::DeleteAsync(std::string_view relation,
                             const std::vector<std::string>& values,
                             std::optional<std::chrono::nanoseconds> timeout) {
  Result<RelationId> rel = db_.catalog().Find(relation);
  if (!rel.ok()) return rel.status();
  Result<TupleData> data = [&] {
    MutexLock lock(resolve_mu_);
    return ResolveValues(*rel, values, /*allow_new_nulls=*/false);
  }();
  if (!data.ok()) return data.status();
  // Delete-by-content needs a row id, i.e. a read of live relation data.
  // While the pipeline runs, that relation's owning worker may be writing
  // it, so the lookup takes the component lock; the row may still vanish
  // before the delete executes — the same queue-then-run semantics the
  // batch era had.
  std::optional<RowId> row;
  if (pipeline_) {
    row = pipeline_->WithComponentLock(*rel, [&] {
      return db_.FindRowWithData(*rel, *data, kReadLatest);
    });
  } else {
    row = db_.FindRowWithData(*rel, *data, kReadLatest);
  }
  if (!row.has_value()) {
    return Status::NotFound("no such tuple in '" + std::string(relation) +
                            "'");
  }
  return SubmitAsync(WriteOp::Delete(*rel, *row), timeout);
}

Status Youtopia::ReplaceNullAsync(
    std::string_view null_name, std::string_view constant,
    std::optional<std::chrono::nanoseconds> timeout) {
  WriteOp op;
  {
    MutexLock lock(resolve_mu_);
    auto it = named_nulls_.find(std::string(null_name));
    if (it == named_nulls_.end()) {
      return Status::NotFound("unknown labeled null '" +
                              std::string(null_name) + "'");
    }
    op = WriteOp::NullReplace(it->second, db_.InternConstant(constant));
  }
  return SubmitAsync(std::move(op), timeout);
}

Result<Youtopia::QueryAnswer> Youtopia::Query(
    std::string_view body_text, const std::vector<std::string>& head_vars,
    QuerySemantics semantics) {
  TgdParser parser(&db_.catalog(), &db_.symbols());
  Result<TgdParser::ParsedQuery> parsed = parser.ParseQuery(body_text);
  if (!parsed.ok()) return parsed.status();
  std::vector<VarId> head;
  for (const std::string& name : head_vars) {
    Result<VarId> v = parsed->VarByName(name);
    if (!v.ok()) return v.status();
    head.push_back(*v);
  }
  Snapshot snap(&db_, kReadLatest);
  QueryEngine engine(snap);
  QueryAnswer answer;
  answer.head = head_vars;
  answer.tuples = engine.Evaluate(parsed->body, head, semantics);
  std::sort(answer.tuples.begin(), answer.tuples.end());
  for (const TupleData& t : answer.tuples) {
    answer.rendered.push_back(TupleToString(t, db_.symbols()));
  }
  return answer;
}

Result<size_t> Youtopia::Count(std::string_view relation) const {
  Result<RelationId> rel = db_.catalog().Find(relation);
  if (!rel.ok()) return rel.status();
  return db_.CountVisible(*rel, kReadLatest);
}

Result<std::string> Youtopia::Dump(std::string_view relation) const {
  Result<RelationId> rel = db_.catalog().Find(relation);
  if (!rel.ok()) return rel.status();
  std::vector<std::string> rows;
  Snapshot snap(&db_, kReadLatest);
  snap.ForEachVisible(*rel, [&](RowId, const TupleData& data) {
    rows.push_back(TupleToString(data, db_.symbols()));
  });
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& row : rows) {
    out += "  " + row + "\n";
  }
  return out;
}

bool Youtopia::AllMappingsSatisfied() const {
  ViolationDetector detector(&tgds_);
  Snapshot snap(&db_, kReadLatest);
  return detector.SatisfiesAll(snap);
}

}  // namespace youtopia
