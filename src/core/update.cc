#include "core/update.h"

#include <algorithm>
#include <utility>

#include "query/specificity.h"

namespace youtopia {
namespace {

// True iff atoms `a` and `b` instantiate to the same tuple of the same
// relation under `binding`, compared term by term.
bool SameInstantiation(const Atom& a, const Atom& b, const Binding& binding) {
  if (a.rel != b.rel || a.terms.size() != b.terms.size()) return false;
  for (size_t i = 0; i < a.terms.size(); ++i) {
    if (TermValue(a.terms[i], binding) != TermValue(b.terms[i], binding)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Update::Update(uint64_t number, WriteOp initial_op,
               const std::vector<Tgd>* tgds, UpdateOptions options)
    : number_(number),
      initial_op_(std::move(initial_op)),
      tgds_(tgds),
      owned_detector_(options.detector == nullptr
                          ? std::make_unique<ViolationDetector>(tgds)
                          : nullptr),
      detector_(options.detector != nullptr ? options.detector
                                            : owned_detector_.get()),
      options_(options) {
  write_set_.push_back(initial_op_);
}

Update Update::ForViolations(uint64_t number, std::vector<Violation> viols,
                             const std::vector<Tgd>* tgds,
                             UpdateOptions options) {
  // The placeholder initial op is never applied: the write set is cleared
  // and the violation queue seeded directly.
  Update u(number, WriteOp::NullReplace(Value::Null(0), Value::Null(0)), tgds,
           options);
  u.write_set_.clear();
  for (Violation& v : viols) u.viol_queue_.push_back(std::move(v));
  return u;
}

StepResult Update::Step(Database* db, FrontierAgent* agent) {
  StepResult res;
  Step(db, agent, &res);
  return res;
}

void Update::Step(Database* db, FrontierAgent* agent, StepResult* res) {
  res->writes.clear();
  res->reads.clear();
  res->awaiting_frontier = false;
  res->finished = false;
  if (StepPrepare(db, agent, res)) {
    StepApply(db, res);
    StepFinish(db, res);
  }
}

bool Update::StepPrepare(Database* db, FrontierAgent* agent, StepResult* res) {
  CHECK(!finished_);
  if (++steps_taken_ > options_.max_steps) {
    // Controlled nontermination: give up on this attempt but leave the
    // database consistent with a valid (incomplete) chase prefix.
    hit_step_cap_ = true;
    finished_ = true;
    res->finished = true;
    return false;
  }

  // 1. Consume one frontier operation, if one is pending.
  if (pos_frontier_.has_value()) {
    ProcessPositiveFrontier(db, agent, res);
  } else if (neg_frontier_.has_value()) {
    ProcessNegativeFrontier(db, agent);
  }

  // If the frontier is still open (a group with several tuples resolves one
  // per step, and a decision may itself have produced writes), apply writes
  // now and come back for the rest of the group next step.
  return true;
}

void Update::StepApply(Database* db, StepResult* res) {
  // Adaptive re-planning: a long chase grows the very relations its cached
  // violation/premise plans join over, so a plan costed at step 0 can be
  // badly ordered by step N. The poll is strided on the database's mutation
  // sequence (ReplanPoller, plan.h — many-mapping chases with tiny steps
  // must not pay a per-mapping poll every step); a fired recompilation is
  // ~1.5us per mapping, nearly free against one mis-ordered join over a
  // grown relation. The watermark is the facade's persistent one when
  // shared (options.replan_poller), so back-to-back serial updates skip the
  // poll until the database actually moved a stride. Under a shard
  // admission guard, only mappings inside the guard are polled: the engines
  // share one tgd vector, and replanning a foreign mapping would swap plans
  // another thread may be executing and read (and re-register indexes on)
  // relations this thread does not own. The poll lives in the apply phase
  // because a fired recompilation mutates plan and index-demand state —
  // frontier processing (StepPrepare) only runs specificity scans, so
  // polling after it is equivalent to the old step-entry poll.
  ReplanPoller* poller = options_.replan_poller != nullptr
                             ? options_.replan_poller
                             : &replan_poller_;
  if (poller->ShouldPoll(*db)) {
    for (const Tgd& tgd : *tgds_) {
      if (options_.allowed_relations != nullptr) {
        // One membership test covers the whole mapping: a tgd's relations
        // all lie within one shard component by construction. Same
        // conservative out-of-range rule as WritesStayWithin.
        const RelationId rel = tgd.all_relations().front();
        if (rel >= options_.allowed_relations->size() ||
            !(*options_.allowed_relations)[rel]) {
          continue;
        }
      }
      tgd.MaybeReplan(db);
    }
  }

  // 2. Perform the write set. Set-semantics insertion reads the database
  // (is an equal tuple already visible?); that read is logged so a later
  // lower-numbered delete of the duplicate retroactively conflicts.
  // The pending set moves to a scratch vector, and both keep their capacity
  // from step to step.
  std::vector<WriteOp>& writes = applying_;
  writes.clear();
  writes.swap(write_set_);
  // Shard-admission guard: the whole pending write set is checked before
  // any of it applies, so an escaping attempt leaves no partial step behind
  // (earlier steps' writes are the caller's to undo). Null replacements
  // are then applied over the exact occurrence snapshots the check
  // validated — a re-read could see occurrences registered by another
  // shard in between. Check and apply share this phase.
  std::vector<std::vector<TupleRef>> replace_occs;
  if (options_.allowed_relations != nullptr &&
      !WritesStayWithin(*db, writes, &replace_occs)) {
    escaped_ = true;
    finished_ = true;
    res->finished = true;
    return;
  }
  size_t replace_idx = 0;
  for (WriteOp& op : writes) {
    if (op.kind == WriteOp::Kind::kInsert && options_.log_reads) {
      res->reads.push_back(ReadQueryRecord::MoreSpecific(op.rel, op.data));
    }
    const std::vector<TupleRef>* occs =
        op.kind == WriteOp::Kind::kNullReplace &&
                options_.allowed_relations != nullptr
            ? &replace_occs[replace_idx++]
            : nullptr;
    lookup_rows_examined_ +=
        db->Apply(std::move(op), number_, &res->writes, occs);
  }
}

void Update::StepFinish(Database* db, StepResult* res) {
  if (finished_) return;  // StepApply escaped; nothing was applied
  // 3. Violation queries for the whole step's writes, batched: one
  // evaluator retarget, duplicate pinned queries posed once, and no
  // per-write result vector.
  Snapshot snap(db, number_);
  detect_scratch_.clear();
  detector_->AfterWrites(snap, res->writes, &detect_scratch_,
                         options_.log_reads ? &res->reads : nullptr);
  for (Violation& v : detect_scratch_) viol_queue_.push_back(std::move(v));

  // 4. Choose the next violation and generate corrective writes, unless the
  // update is still blocked on an open frontier group.
  if (!awaiting_frontier()) {
    ChooseNextViolation(db, snap, res);
  }

  if (awaiting_frontier()) {
    res->awaiting_frontier = true;
  } else if (write_set_.empty() && viol_queue_.empty()) {
    finished_ = true;
    res->finished = true;
  }
}

void Update::RunToCompletion(Database* db, FrontierAgent* agent) {
  StepResult res;
  while (!finished_) Step(db, agent, &res);
}

void Update::Restart(uint64_t new_number) {
  number_ = new_number;
  write_set_.clear();
  write_set_.push_back(initial_op_);
  viol_queue_.clear();
  pos_frontier_.reset();
  neg_frontier_.reset();
  finished_ = false;
  hit_step_cap_ = false;
  escaped_ = false;
  steps_taken_ = 0;
  frontier_ops_ = 0;
  violations_repaired_ = 0;
  ++attempts_;
}

void Update::ChooseNextViolation(Database* db, const Snapshot& snap,
                                 StepResult* res) {
  if (!write_set_.empty()) return;  // corrective writes already pending
  // Scan the queue for a deterministically repairable violation (Algorithm
  // 2 prefers those); fall back to the first valid nondeterministic one,
  // whose frontier is prepared when it is first seen.
  std::vector<Violation> deferred;
  std::optional<PositiveFrontier> pos_candidate;
  std::optional<NegativeFrontier> neg_candidate;
  while (!viol_queue_.empty()) {
    Violation v = std::move(viol_queue_.front());
    viol_queue_.pop_front();
    if (!detector_->IsStillViolated(
            snap, v, options_.log_reads ? &res->reads : nullptr)) {
      continue;  // corrected in the meantime (lazy queue cleanup)
    }
    if (v.kind == Violation::Kind::kLhs) {
      // Only the first deferred violation's frontier can be the one the
      // update blocks on, so only that one is built.
      const ForwardRepair repair = GenerateForwardRepair(
          db, snap, v, res, deferred.empty() ? &pos_candidate : nullptr);
      if (repair == ForwardRepair::kSatisfied) continue;
      if (repair == ForwardRepair::kDeterministic) {
        ++violations_repaired_;
        break;
      }
      // Nondeterministic: defer; if nothing deterministic shows up, the
      // first deferred violation's frontier is the one we block on.
      deferred.push_back(std::move(v));
      continue;
    }
    // RHS-violation: candidates are the distinct witness rows.
    std::vector<TupleRef> candidates;
    for (const TupleRef& ref : v.witness) {
      if (std::find(candidates.begin(), candidates.end(), ref) ==
          candidates.end()) {
        candidates.push_back(ref);
      }
    }
    CHECK(!candidates.empty());
    if (candidates.size() == 1) {
      write_set_.push_back(WriteOp::Delete(candidates[0].rel,
                                           candidates[0].row));
      ++violations_repaired_;
      break;
    }
    if (deferred.empty()) {
      NegativeFrontier nf;
      nf.prov.tgd_id = v.tgd_id;
      nf.prov.witness = v.witness;
      nf.candidates = std::move(candidates);
      neg_candidate = std::move(nf);
    }
    deferred.push_back(std::move(v));
  }

  if (!write_set_.empty()) {
    // A deterministic repair was found; requeue the deferred violations.
    for (auto it = deferred.rbegin(); it != deferred.rend(); ++it) {
      viol_queue_.push_front(std::move(*it));
    }
    return;
  }
  if (!deferred.empty()) {
    // Block on the first nondeterministic violation; the rest stay queued.
    for (size_t i = deferred.size() - 1; i > 0; --i) {
      viol_queue_.push_front(std::move(deferred[i]));
    }
    if (deferred.front().kind == Violation::Kind::kLhs) {
      CHECK(pos_candidate.has_value());
      pos_frontier_ = std::move(pos_candidate);
    } else {
      CHECK(neg_candidate.has_value());
      neg_frontier_ = std::move(neg_candidate);
    }
  }
}

Update::ForwardRepair Update::GenerateForwardRepair(
    Database* db, const Snapshot& snap, const Violation& v, StepResult* res,
    std::optional<PositiveFrontier>* frontier) {
  const Tgd& tgd = (*tgds_)[static_cast<size_t>(v.tgd_id)];

  // Instantiate the RHS under the violating assignment, with fresh labeled
  // nulls for the existential variables (shared across the RHS atoms).
  Binding full = v.binding;
  full.EnsureSize(tgd.num_vars());
  for (VarId z : tgd.existential_vars()) full.Set(z, db->FreshNull());

  // Each RHS tuple is instantiated into this scratch first: a tuple that
  // exists verbatim already supplies its atom, and only a missing one is
  // copied out. An Update lives for one op, so the scratch is per thread; a
  // member would allocate about as often as the throwaway tuples it saves.
  thread_local TupleData rhs_scratch;
  bool any_ambiguous = false;
  const std::vector<Atom>& atoms = tgd.rhs().atoms;
  for (size_t i = 0; i < atoms.size(); ++i) {
    const Atom& atom = atoms[i];
    // Dedup within the firing, by (relation, content): equal values over
    // different relations are different tuples.
    if (std::any_of(atoms.begin(), atoms.begin() + static_cast<ptrdiff_t>(i),
                    [&](const Atom& earlier) {
                      return SameInstantiation(earlier, atom, full);
                    })) {
      continue;  // duplicate RHS atom instantiation
    }
    TupleData& data = rhs_scratch;
    data.clear();
    data.reserve(atom.terms.size());
    for (const Term& t : atom.terms) data.push_back(TermValue(t, full));
    if (snap.Contains(atom.rel, data, &lookup_rows_examined_)) continue;
    if (options_.log_reads) {
      res->reads.push_back(ReadQueryRecord::MoreSpecific(atom.rel, data));
    }
    // Whether the firing is ambiguous is all the repair decides; the
    // candidate lists are built when the frontier is processed. A ground
    // tuple's only more specific tuple is itself, which Contains has just
    // missed, and after one ambiguous tuple the answer is known.
    if (!any_ambiguous && ContainsAnyNull(data)) {
      any_ambiguous =
          HasMoreSpecificRow(snap, atom.rel, data, &lookup_rows_examined_);
    }
    write_set_.push_back(WriteOp::Insert(atom.rel, data));
  }

  if (write_set_.empty()) {
    // Every RHS atom instantiation already exists: nothing to do. (Possible
    // when distinct atoms are satisfied by existing tuples even though no
    // single consistent RHS match existed before — inserting nothing would
    // be wrong, but this branch is only reachable when the RHS has no
    // existentials and all instantiations are present, in which case the
    // RHS *is* satisfied.)
    return ForwardRepair::kSatisfied;
  }
  if (!any_ambiguous) return ForwardRepair::kDeterministic;
  // Only a frontier the user will see needs the firing's tuples and
  // provenance.
  if (frontier != nullptr) {
    PositiveFrontier& pf = frontier->emplace();
    pf.prov.tgd_id = v.tgd_id;
    pf.prov.witness = v.witness;
    pf.binding = v.binding;
    for (VarId z : tgd.existential_vars()) {
      pf.fresh_null_ids.insert(full.Get(z).id());
    }
    for (WriteOp& op : write_set_) {
      FrontierTuple& ft = pf.tuples.emplace_back();
      ft.rel = op.rel;
      ft.data = std::move(op.data);
    }
  }
  write_set_.clear();
  return ForwardRepair::kAmbiguous;
}

void Update::ProcessPositiveFrontier(Database* db, FrontierAgent* agent,
                                     StepResult* res) {
  CHECK(pos_frontier_.has_value());
  PositiveFrontier& pf = *pos_frontier_;
  Snapshot snap(db, number_);

  // Resolve tuples until one frontier operation produced writes (one user
  // operation per step); tuples that became trivially satisfied in the
  // meantime are dropped without consulting the user.
  while (!pf.tuples.empty() && write_set_.empty()) {
    FrontierTuple& ft = pf.tuples.front();

    // Refresh the correction query: candidates may have changed while the
    // request was waiting for the user.
    ft.more_specific.clear();
    if (options_.log_reads) {
      res->reads.push_back(ReadQueryRecord::MoreSpecific(ft.rel, ft.data));
    }
    // An exact copy in the database satisfies this atom outright.
    bool exact = false;
    lookup_rows_examined_ += FindMoreSpecificRows(snap, ft.rel, ft.data,
                                                  &ft.more_specific, &exact);
    if (exact) {
      pf.tuples.erase(pf.tuples.begin());
      continue;
    }

    PositiveDecision decision = PositiveDecision::Expand();
    if (!ft.more_specific.empty()) {
      decision = agent->DecidePositive(snap, ft, pf.prov);
      ++frontier_ops_;
    }
    // With no more specific tuple there is no ambiguity: expansion is the
    // only chase-consistent move, performed without user involvement.

    if (decision.kind == PositiveDecision::Kind::kExpand) {
      write_set_.push_back(WriteOp::Insert(ft.rel, ft.data));
      for (const Value& value : ft.data) {
        if (value.is_null() && pf.fresh_null_ids.count(value.id()) > 0) {
          pf.written_fresh_null_ids.insert(value.id());
        }
      }
      pf.tuples.erase(pf.tuples.begin());
      continue;
    }

    // Unification (Section 2.2): the user declares ft the same fact as the
    // chosen more specific tuple; every labeled null of ft is bound to the
    // corresponding value and replaced everywhere it occurs.
    CHECK(decision.kind == PositiveDecision::Kind::kUnify);
    const TupleData* target = snap.VisibleData(ft.rel, decision.unify_with);
    CHECK(target != nullptr);
    CHECK(IsMoreSpecific(*target, ft.data));
    TupleData source = ft.data;  // ft invalidated by substitutions below
    for (size_t i = 0; i < source.size(); ++i) {
      const Value from = source[i];
      const Value to = (*target)[i];
      if (!from.is_null() || from == to) continue;
      const bool fresh_unwritten =
          pf.fresh_null_ids.count(from.id()) > 0 &&
          pf.written_fresh_null_ids.count(from.id()) == 0;
      if (!fresh_unwritten) {
        // The null occurs in stored tuples: a real global replacement, with
        // its correction query ("all tuples containing x") logged.
        if (options_.log_reads) {
          res->reads.push_back(ReadQueryRecord::NullOccurrence(from));
        }
        write_set_.push_back(WriteOp::NullReplace(from, to));
      }
      // Keep the rest of the group (and this source tuple) consistent.
      SubstituteInGroup(&pf, from, to);
      for (size_t j = i + 1; j < source.size(); ++j) {
        if (source[j] == from) source[j] = to;
      }
    }
    pf.tuples.erase(pf.tuples.begin());
  }

  if (pf.tuples.empty()) {
    ++violations_repaired_;
    pos_frontier_.reset();
  }
}

void Update::ProcessNegativeFrontier(Database* db, FrontierAgent* agent) {
  CHECK(neg_frontier_.has_value());
  NegativeFrontier& nf = *neg_frontier_;
  Snapshot snap(db, number_);

  // Candidates deleted by others in the meantime have already repaired the
  // violation (lazy revalidation would also catch this).
  std::vector<TupleRef> alive;
  for (const TupleRef& ref : nf.candidates) {
    if (snap.IsVisible(ref)) alive.push_back(ref);
  }
  if (alive.size() < nf.candidates.size()) {
    ++violations_repaired_;
    neg_frontier_.reset();
    return;
  }

  std::vector<size_t> chosen;
  if (alive.size() == 1) {
    chosen.push_back(0);
  } else {
    nf.candidates = alive;
    const NegativeDecision decision = agent->DecideNegativeExtended(snap, nf);
    ++frontier_ops_;
    if (decision.delete_indexes.empty()) {
      // Reconfirmation (Section 2.3 extension): the named candidates are
      // protected; the choice narrows to the rest. A user may not
      // reconfirm everything — the violation would stay unrepaired.
      CHECK(!decision.reconfirm_indexes.empty());
      CHECK_LT(decision.reconfirm_indexes.size(), alive.size());
      std::vector<TupleRef> remaining;
      for (size_t i = 0; i < alive.size(); ++i) {
        if (std::find(decision.reconfirm_indexes.begin(),
                      decision.reconfirm_indexes.end(),
                      i) == decision.reconfirm_indexes.end()) {
          remaining.push_back(alive[i]);
        }
      }
      if (remaining.size() == 1) {
        write_set_.push_back(
            WriteOp::Delete(remaining[0].rel, remaining[0].row));
        ++violations_repaired_;
        neg_frontier_.reset();
      } else {
        nf.candidates = std::move(remaining);  // ask again, narrowed
      }
      return;
    }
    chosen = decision.delete_indexes;
  }
  for (size_t idx : chosen) {
    CHECK_LT(idx, alive.size());
    write_set_.push_back(WriteOp::Delete(alive[idx].rel, alive[idx].row));
  }
  ++violations_repaired_;
  neg_frontier_.reset();
}

void Update::SubstituteInGroup(PositiveFrontier* pf, const Value& from,
                               const Value& to) {
  for (FrontierTuple& ft : pf->tuples) {
    for (Value& v : ft.data) {
      if (v == from) v = to;
    }
  }
}

bool Update::WritesStayWithin(
    const Database& db, const std::vector<WriteOp>& writes,
    std::vector<std::vector<TupleRef>>* replace_occs) const {
  const std::vector<bool>& allowed = *options_.allowed_relations;
  auto in = [&](RelationId rel) {
    return rel < allowed.size() && allowed[rel];
  };
  for (const WriteOp& op : writes) {
    switch (op.kind) {
      case WriteOp::Kind::kInsert:
      case WriteOp::Kind::kDelete:
        if (!in(op.rel)) return false;
        break;
      case WriteOp::Kind::kNullReplace: {
        // A replacement rewrites every tuple the null occurs in, anywhere
        // in the repository. The occurrence set may contain stale entries,
        // so this check is conservative: a spurious occurrence outside the
        // footprint escapes an update that would in fact have stayed in —
        // never the other way around. The snapshot is kept for the apply.
        replace_occs->push_back(db.nulls().Occurrences(op.from));
        for (const TupleRef& ref : replace_occs->back()) {
          if (!in(ref.rel)) return false;
        }
        break;
      }
    }
  }
  return true;
}

}  // namespace youtopia
