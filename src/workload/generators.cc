#include "workload/generators.h"

#include <algorithm>
#include <optional>
#include <string>

#include "core/update.h"
#include "core/violation_detector.h"
#include "query/atom.h"

namespace youtopia {
namespace {

std::string RandomName(Rng* rng, size_t len) {
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>('a' + rng->Uniform(26)));
  }
  return out;
}

size_t PickSize(Rng* rng, const double weights[3]) {
  const double x = rng->UniformDouble();
  if (x < weights[0]) return 1;
  if (x < weights[0] + weights[1]) return 2;
  return 3;
}

// One constant-pool draw: Zipf(theta)-skewed by pool rank when a sampler is
// given, else uniform (the paper's setup). With probability `p_hot` the
// draw is instead redirected to the first `hot_ranks` pool constants
// (rank-uniform) — the hot-collision knob: generators sharing a small hot
// prefix make independently generated mappings (and the workload's inserts)
// collide on the SAME heavy hitters, the adversarial shape where per-value
// costing matters and whole-column nudges do not. p_hot = 0 leaves the
// random stream untouched.
const Value& PickConstant(Rng* rng, const std::vector<Value>& constants,
                          const ZipfianSampler* zipf, double p_hot = 0.0,
                          size_t hot_ranks = 0) {
  if (p_hot > 0 && hot_ranks > 0 && rng->Chance(p_hot)) {
    return constants[rng->Uniform(std::min(hot_ranks, constants.size()))];
  }
  if (zipf != nullptr) return constants[zipf->Sample(rng)];
  return constants[rng->Uniform(constants.size())];
}

// Chooses `k` distinct relation ids uniformly from [lo, hi).
std::vector<RelationId> PickRelations(Rng* rng, size_t k, size_t lo,
                                      size_t hi) {
  CHECK_GE(hi - lo, k);
  std::vector<RelationId> out;
  while (out.size() < k) {
    const RelationId r = static_cast<RelationId>(lo + rng->Uniform(hi - lo));
    if (std::find(out.begin(), out.end(), r) == out.end()) out.push_back(r);
  }
  return out;
}

}  // namespace

Status GenerateSchema(Database* db, Rng* rng,
                      const SchemaGenOptions& options) {
  for (size_t i = 0; i < options.num_relations; ++i) {
    const size_t arity = static_cast<size_t>(
        rng->UniformInt(static_cast<int64_t>(options.min_arity),
                        static_cast<int64_t>(options.max_arity)));
    std::vector<std::string> attrs;
    for (size_t a = 0; a < arity; ++a) attrs.push_back("a" + std::to_string(a));
    Result<RelationId> id =
        db->CreateRelation("R" + std::to_string(i), std::move(attrs));
    if (!id.ok()) return id.status();
  }
  return Status::Ok();
}

std::vector<Value> GenerateConstantPool(Database* db, Rng* rng, size_t count) {
  std::vector<Value> out;
  while (out.size() < count) {
    const Value v = db->InternConstant(RandomName(rng, 8));
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

std::vector<Tgd> GenerateMappings(const Database& db,
                                  const std::vector<Value>& constants,
                                  Rng* rng,
                                  const MappingGenOptions& options) {
  std::vector<Tgd> out;
  const size_t n = db.num_relations();
  const size_t islands = std::max<size_t>(options.num_islands, 1);
  CHECK_GE(n, islands * 3);  // an island must fit a 3-atom side
  std::optional<ZipfianSampler> zipf;
  if (options.zipf_theta > 0) {
    zipf.emplace(constants.size(), options.zipf_theta);
  }
  const ZipfianSampler* zipf_ptr = zipf ? &*zipf : nullptr;

  // --- Deterministic chain prefix (chain_length > 1). ----------------------
  // Relation lo+k maps positionally into the next fan_out relations: shared
  // frontier variables weld the whole chain into one tgd-closure component,
  // and every hop deepens the chase a seed insert sets off.
  if (options.chain_length > 1) {
    const size_t fan = std::max<size_t>(options.fan_out, 1);
    for (size_t island = 0; island < islands && out.size() < options.count;
         ++island) {
      const size_t lo = island * n / islands;
      const size_t hi = (island + 1) * n / islands;
      const size_t chain = std::min(options.chain_length, hi - lo);
      for (size_t k = 0; k + 1 < chain && out.size() < options.count; ++k) {
        const RelationId src = static_cast<RelationId>(lo + k);
        const size_t src_arity = db.catalog().schema(src).arity();
        ConjunctiveQuery lhs;
        Atom latom;
        latom.rel = src;
        for (size_t p = 0; p < src_arity; ++p) {
          latom.terms.push_back(Term::Var(static_cast<VarId>(p)));
        }
        lhs.atoms.push_back(std::move(latom));
        VarId next_var = static_cast<VarId>(src_arity);
        ConjunctiveQuery rhs;
        for (size_t f = 0; f < fan && lo + k + 1 + f < hi; ++f) {
          const RelationId dst = static_cast<RelationId>(lo + k + 1 + f);
          const size_t dst_arity = db.catalog().schema(dst).arity();
          Atom ratom;
          ratom.rel = dst;
          for (size_t p = 0; p < dst_arity; ++p) {
            // Position 0 always carries frontier v0 (arities are >= 1), so
            // Tgd::Create's frontier requirement holds by construction.
            ratom.terms.push_back(p < src_arity
                                      ? Term::Var(static_cast<VarId>(p))
                                      : Term::Var(next_var++));
          }
          rhs.atoms.push_back(std::move(ratom));
        }
        std::vector<std::string> names;
        for (VarId v = 0; v < next_var; ++v) {
          names.push_back("c" + std::to_string(v));
        }
        Result<Tgd> tgd = Tgd::Create(std::move(lhs), std::move(rhs),
                                      std::move(names), db.catalog());
        CHECK(tgd.ok());
        out.push_back(std::move(tgd).value());
      }
    }
  }

  while (out.size() < options.count) {
    // Round-robin the mappings across islands; with islands == 1 the range
    // is the whole schema and this is the paper's unconstrained generator.
    const size_t island = out.size() % islands;
    const size_t lo = island * n / islands;
    const size_t hi = (island + 1) * n / islands;
    const std::vector<RelationId> lhs_rels =
        PickRelations(rng, PickSize(rng, options.size_weights), lo, hi);
    const std::vector<RelationId> rhs_rels =
        PickRelations(rng, PickSize(rng, options.size_weights), lo, hi);

    VarId next_var = 0;
    std::vector<VarId> lhs_vars;

    // --- LHS: join-connected atoms with occasional constants. -------------
    ConjunctiveQuery lhs;
    for (size_t i = 0; i < lhs_rels.size(); ++i) {
      const size_t arity = db.catalog().schema(lhs_rels[i]).arity();
      // Variables introduced by *earlier* atoms: joining with one of these
      // is what makes the LHS connected.
      const std::vector<VarId> earlier_vars = lhs_vars;
      Atom atom;
      atom.rel = lhs_rels[i];
      bool joined_with_earlier = i == 0;
      std::vector<size_t> var_positions;
      std::vector<VarId> used_in_atom;
      for (size_t p = 0; p < arity; ++p) {
        if (rng->Chance(options.p_constant_lhs)) {
          atom.terms.push_back(Term::Const(
              PickConstant(rng, constants, zipf_ptr, options.p_hot_constant,
                           options.hot_pool_ranks)));
          continue;
        }
        var_positions.push_back(p);
        // Joins connect *different* atoms; a variable repeated within one
        // atom (like the paper's S(a, c, c)) is a deliberate rarity —
        // otherwise random tuples would almost never match the atom.
        std::vector<VarId> candidates;
        for (VarId v : earlier_vars) {
          if (rng->Chance(options.p_within_atom_repeat) ||
              std::find(used_in_atom.begin(), used_in_atom.end(), v) ==
                  used_in_atom.end()) {
            candidates.push_back(v);
          }
        }
        if (i > 0 && !candidates.empty() &&
            rng->Chance(options.p_reuse_var)) {
          const VarId v = candidates[rng->Uniform(candidates.size())];
          atom.terms.push_back(Term::Var(v));
          used_in_atom.push_back(v);
          joined_with_earlier = true;
        } else {
          atom.terms.push_back(Term::Var(next_var));
          lhs_vars.push_back(next_var);
          used_in_atom.push_back(next_var);
          ++next_var;
        }
      }
      // Every LHS atom carries at least one variable (an all-constant atom
      // would leave nothing for later atoms to join on).
      if (var_positions.empty()) {
        atom.terms[0] = Term::Var(next_var);
        lhs_vars.push_back(next_var);
        used_in_atom.push_back(next_var);
        ++next_var;
        var_positions.push_back(0);
      }
      // Guarantee inter-atom join connectivity: overwrite a position with a
      // variable of an earlier atom if necessary.
      if (!joined_with_earlier && !earlier_vars.empty()) {
        const size_t p = var_positions.empty()
                             ? 0
                             : var_positions[rng->Uniform(var_positions.size())];
        atom.terms[p] =
            Term::Var(earlier_vars[rng->Uniform(earlier_vars.size())]);
      }
      lhs.atoms.push_back(std::move(atom));
    }
    // Recompute the variables actually used (overwrites may have dropped
    // some fresh ones).
    lhs_vars = lhs.Variables();
    if (lhs_vars.empty()) continue;  // all-constant LHS: uninteresting, retry

    // --- RHS: frontier variables, existentials, occasional constants. -----
    ConjunctiveQuery rhs;
    std::vector<VarId> existentials;
    bool has_frontier = false;
    std::vector<std::pair<size_t, size_t>> rhs_var_positions;  // (atom, pos)
    for (size_t i = 0; i < rhs_rels.size(); ++i) {
      const size_t arity = db.catalog().schema(rhs_rels[i]).arity();
      Atom atom;
      atom.rel = rhs_rels[i];
      std::vector<VarId> used_in_atom;
      auto pick_distinct = [&](const std::vector<VarId>& pool) -> int {
        std::vector<VarId> candidates;
        for (VarId v : pool) {
          if (rng->Chance(options.p_within_atom_repeat) ||
              std::find(used_in_atom.begin(), used_in_atom.end(), v) ==
                  used_in_atom.end()) {
            candidates.push_back(v);
          }
        }
        if (candidates.empty()) return -1;
        return static_cast<int>(candidates[rng->Uniform(candidates.size())]);
      };
      for (size_t p = 0; p < arity; ++p) {
        if (rng->Chance(options.p_constant_rhs)) {
          atom.terms.push_back(Term::Const(
              PickConstant(rng, constants, zipf_ptr, options.p_hot_constant,
                           options.hot_pool_ranks)));
          continue;
        }
        rhs_var_positions.push_back({i, p});
        int picked = -1;
        if (rng->Chance(options.p_frontier)) {
          picked = pick_distinct(lhs_vars);
          if (picked >= 0) has_frontier = true;
        } else if (rng->Chance(options.p_reuse_existential)) {
          picked = pick_distinct(existentials);
        }
        if (picked >= 0) {
          atom.terms.push_back(Term::Var(static_cast<VarId>(picked)));
          used_in_atom.push_back(static_cast<VarId>(picked));
        } else {
          atom.terms.push_back(Term::Var(next_var));
          existentials.push_back(next_var);
          used_in_atom.push_back(next_var);
          ++next_var;
        }
      }
      rhs.atoms.push_back(std::move(atom));
    }
    if (!has_frontier) {
      if (rhs_var_positions.empty()) continue;  // all-constant RHS: retry
      const auto [ai, p] =
          rhs_var_positions[rng->Uniform(rhs_var_positions.size())];
      rhs.atoms[ai].terms[p] =
          Term::Var(lhs_vars[rng->Uniform(lhs_vars.size())]);
    }

    std::vector<std::string> names;
    for (VarId v = 0; v < next_var; ++v) {
      names.push_back("v" + std::to_string(v));
    }
    Result<Tgd> tgd = Tgd::Create(std::move(lhs), std::move(rhs),
                                  std::move(names), db.catalog());
    CHECK(tgd.ok());
    out.push_back(std::move(tgd).value());
  }
  return out;
}

InitialDataReport GenerateInitialData(Database* db,
                                      const std::vector<Tgd>* tgds,
                                      const std::vector<Value>& constants,
                                      Rng* rng, FrontierAgent* agent,
                                      const InitialDataOptions& options) {
  InitialDataReport report;
  ViolationDetector detector(tgds);
  UpdateOptions uopts;
  uopts.max_steps = options.max_steps_per_insert;
  uopts.detector = &detector;
  for (size_t i = 0; i < options.num_tuples; ++i) {
    const RelationId rel =
        static_cast<RelationId>(rng->Uniform(db->num_relations()));
    const size_t arity = db->relation(rel).arity();
    TupleData data;
    for (size_t p = 0; p < arity; ++p) {
      data.push_back(constants[rng->Uniform(constants.size())]);
    }
    Update update(/*number=*/0, WriteOp::Insert(rel, std::move(data)), tgds,
                  uopts);
    update.RunToCompletion(db, agent);
    ++report.seed_inserts;
    report.chase_steps += update.steps_taken();
    report.frontier_ops += update.frontier_ops_performed();
    report.capped_chases += update.hit_step_cap() ? 1 : 0;
  }
  report.total_tuples = db->CountVisible(kReadLatest);
  return report;
}

std::vector<WriteOp> GenerateWorkload(Database* db,
                                      const std::vector<Value>& constants,
                                      Rng* rng,
                                      const WorkloadOptions& options) {
  const size_t num_deletes = static_cast<size_t>(
      static_cast<double>(options.num_updates) * options.delete_fraction);
  std::vector<char> is_delete(options.num_updates, 0);
  for (size_t i = 0; i < num_deletes; ++i) is_delete[i] = 1;
  // Randomize the order so runs do not alternate large batches (Section 6).
  for (size_t i = is_delete.size(); i > 1; --i) {
    std::swap(is_delete[i - 1], is_delete[rng->Uniform(i)]);
  }

  std::optional<ZipfianSampler> zipf;
  if (options.zipf_theta > 0) {
    zipf.emplace(constants.size(), options.zipf_theta);
  }
  const ZipfianSampler* zipf_ptr = zipf ? &*zipf : nullptr;

  std::vector<WriteOp> out;
  out.reserve(options.num_updates);
  for (size_t i = 0; i < options.num_updates; ++i) {
    if (is_delete[i]) {
      // Uniform relation, then uniform visible tuple; retry on empty
      // relations (the initial database is dense, so this terminates).
      for (int attempt = 0; attempt < 1000; ++attempt) {
        const RelationId rel =
            static_cast<RelationId>(rng->Uniform(db->num_relations()));
        std::vector<RowId> rows;
        db->relation(rel).ForEachVisible(
            kReadLatest, [&](RowId row, const TupleData&) {
              rows.push_back(row);
            });
        if (rows.empty()) continue;
        out.push_back(
            WriteOp::Delete(rel, rows[rng->Uniform(rows.size())]));
        break;
      }
      CHECK_EQ(out.size(), i + 1);
    } else {
      const RelationId rel =
          static_cast<RelationId>(rng->Uniform(db->num_relations()));
      const size_t arity = db->relation(rel).arity();
      TupleData data;
      for (size_t p = 0; p < arity; ++p) {
        if (rng->Chance(options.p_fresh_value)) {
          data.push_back(db->InternConstant("f_" + RandomName(rng, 8)));
        } else {
          data.push_back(PickConstant(rng, constants, zipf_ptr,
                                      options.p_hot_value,
                                      options.hot_pool_ranks));
        }
      }
      out.push_back(WriteOp::Insert(rel, std::move(data)));
    }
  }
  return out;
}

}  // namespace youtopia
