#include "ccontrol/conflict.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "query/plan.h"
#include "tgd/parser.h"
#include "test_util.h"
#include "util/rng.h"

namespace youtopia {
namespace {

using testing_util::Figure2;

class ConflictTest : public ::testing::Test {
 protected:
  ConflictTest() : checker_(&fig_.tgds) {}

  PhysicalWrite Insert(RelationId rel, TupleData data) {
    PhysicalWrite w;
    w.kind = WriteKind::kInsert;
    w.rel = rel;
    w.data = std::move(data);
    return w;
  }
  PhysicalWrite Delete(RelationId rel, TupleData old_data) {
    PhysicalWrite w;
    w.kind = WriteKind::kDelete;
    w.rel = rel;
    w.old_data = std::move(old_data);
    return w;
  }

  Figure2 fig_;
  ConflictChecker checker_;
};

TEST_F(ConflictTest, MoreSpecificQueryInsertConflicts) {
  // Query: "anything more specific than C(x)?" — inserting any city
  // changes the answer; inserting into another relation does not.
  const Value n = fig_.db.FreshNull();
  const ReadQueryRecord q = ReadQueryRecord::MoreSpecific(fig_.C, {n});
  Snapshot snap(&fig_.db, kReadLatest);
  EXPECT_TRUE(checker_.Conflicts(snap, Insert(fig_.C, fig_.Row({"NYC"})), q));
  EXPECT_FALSE(checker_.Conflicts(
      snap, Insert(fig_.V, fig_.Row({"NYC", "Conf"})), q));
}

TEST_F(ConflictTest, MoreSpecificQueryRespectsConstants) {
  // Query about R(ABC, Niagara Falls, r): a review for a DIFFERENT company
  // is not more specific and must not conflict.
  const Value n = fig_.db.FreshNull();
  const ReadQueryRecord q = ReadQueryRecord::MoreSpecific(
      fig_.R, {fig_.Const("ABC"), fig_.Const("Niagara Falls"), n});
  Snapshot snap(&fig_.db, kReadLatest);
  EXPECT_TRUE(checker_.Conflicts(
      snap,
      Insert(fig_.R, fig_.Row({"ABC", "Niagara Falls", "Nice"})), q));
  EXPECT_FALSE(checker_.Conflicts(
      snap,
      Insert(fig_.R, fig_.Row({"XYZ", "Niagara Falls", "Nice"})), q));
}

TEST_F(ConflictTest, MoreSpecificQueryDeleteOfCandidateConflicts) {
  const Value n = fig_.db.FreshNull();
  const ReadQueryRecord q = ReadQueryRecord::MoreSpecific(fig_.C, {n});
  Snapshot snap(&fig_.db, kReadLatest);
  EXPECT_TRUE(
      checker_.Conflicts(snap, Delete(fig_.C, fig_.Row({"Ithaca"})), q));
}

TEST_F(ConflictTest, NullOccurrenceQuery) {
  const ReadQueryRecord q = ReadQueryRecord::NullOccurrence(fig_.x1);
  Snapshot snap(&fig_.db, kReadLatest);
  EXPECT_TRUE(checker_.Conflicts(
      snap, Insert(fig_.T, {fig_.Const("Z"), fig_.x1, fig_.Const("Y")}), q));
  EXPECT_FALSE(checker_.Conflicts(
      snap, Insert(fig_.T, fig_.Row({"Z", "Co", "Y"})), q));
  // A delete whose old content held the null also conflicts.
  EXPECT_TRUE(checker_.Conflicts(
      snap, Delete(fig_.R, {fig_.x1, fig_.Const("Niagara Falls"), fig_.x2}),
      q));
}

TEST_F(ConflictTest, ViolationQueryExample31) {
  // u2's violation query for sigma4, pinned on its V(Syracuse, Math Conf)
  // insert. u1's later delete of the Syracuse tour joins with the pin —
  // conflict. Deleting the unrelated Toronto tour does not.
  const ReadQueryRecord q = ReadQueryRecord::Violation(
      /*tgd_id=*/3, /*pinned_on_lhs=*/true, /*atom_index=*/0,
      fig_.Row({"Syracuse", "Math Conf"}));
  Snapshot snap(&fig_.db, kReadLatest);
  EXPECT_TRUE(checker_.Conflicts(
      snap, Delete(fig_.T, fig_.Row({"Geneva Winery", "XYZ", "Syracuse"})),
      q));
  EXPECT_FALSE(checker_.Conflicts(
      snap,
      Delete(fig_.T, {fig_.Const("Niagara Falls"), fig_.x1,
                      fig_.Const("Toronto")}),
      q));
}

TEST_F(ConflictTest, ViolationQueryInsertOnLhsNeedsViolation) {
  // sigma4 pinned on V(Syracuse, Science Conf): inserting a Syracuse tour
  // joins the LHS AND creates a violation (no matching E) -> conflict.
  const ReadQueryRecord q = ReadQueryRecord::Violation(
      3, true, 0, fig_.Row({"Syracuse", "Science Conf"}));
  Snapshot snap(&fig_.db, kReadLatest);
  EXPECT_TRUE(checker_.Conflicts(
      snap, Insert(fig_.T, fig_.Row({"Taughannock", "Hikes", "Syracuse"})),
      q));
  // Inserting the Geneva Winery tour again: the E entry already exists, so
  // the combined match is NOT violating; the NOT EXISTS refinement prunes
  // the conflict.
  EXPECT_FALSE(checker_.Conflicts(
      snap, Insert(fig_.T, fig_.Row({"Geneva Winery", "XYZ2", "Syracuse"})),
      q));
}

TEST_F(ConflictTest, ViolationQueryRhsInsertRemovesWitness) {
  // sigma3 pinned on the ABC tour: inserting the matching review changes
  // the violation query's answer (the witness disappears).
  const ReadQueryRecord q = ReadQueryRecord::Violation(
      2, true, 1, fig_.Row({"Niagara Falls", "ABC", "Toronto"}));
  // Make the pinned situation real: the tour exists.
  fig_.db.Apply(
      WriteOp::Insert(fig_.T, fig_.Row({"Niagara Falls", "ABC", "Toronto"})),
      1);
  Snapshot snap(&fig_.db, kReadLatest);
  EXPECT_TRUE(checker_.Conflicts(
      snap,
      Insert(fig_.R, {fig_.Const("ABC"), fig_.Const("Niagara Falls"),
                      fig_.db.FreshNull()}),
      q));
  // A review for another company does not touch this witness.
  EXPECT_FALSE(checker_.Conflicts(
      snap,
      Insert(fig_.R, {fig_.Const("Other"), fig_.Const("Niagara Falls"),
                      fig_.db.FreshNull()}),
      q));
}

TEST_F(ConflictTest, UnrelatedRelationNeverConflicts) {
  const ReadQueryRecord q = ReadQueryRecord::Violation(
      2, true, 0, fig_.Row({"Geneva", "Geneva Winery"}));
  Snapshot snap(&fig_.db, kReadLatest);
  // sigma3 mentions A, T, R only; writes to V and E are invisible to it.
  EXPECT_FALSE(checker_.Conflicts(
      snap, Insert(fig_.V, fig_.Row({"X", "Y"})), q));
  EXPECT_FALSE(checker_.Conflicts(
      snap, Insert(fig_.E, fig_.Row({"X", "Y"})), q));
}

TEST_F(ConflictTest, ModifyTreatedAsDeletePlusInsert) {
  const ReadQueryRecord q = ReadQueryRecord::NullOccurrence(fig_.x1);
  Snapshot snap(&fig_.db, kReadLatest);
  PhysicalWrite w;
  w.kind = WriteKind::kModify;
  w.rel = fig_.T;
  w.old_data = {fig_.Const("Niagara Falls"), fig_.x1, fig_.Const("Toronto")};
  w.data = fig_.Row({"Niagara Falls", "ABC Tours", "Toronto"});
  // The old content contained x1: conflicts even though the new content
  // does not.
  EXPECT_TRUE(checker_.Conflicts(snap, w, q));
}

// Random violation queries over the Figure 2 mappings plus
// "A(l, l) & T(l, co, c) -> E(c, c)", whose pins on A(l, l) or E(c, c)
// with two different values cannot bind. Queries are pinned on either
// side; tuples draw from a few constants and the nulls x1 and x2.
struct ViolationQueryGen {
  ViolationQueryGen(Figure2* figure, uint64_t seed)
      : fig(figure),
        rng(seed),
        constants{fig->Const("Geneva Winery"), fig->Const("Geneva"),
                  fig->Const("XYZ"), fig->Const("Syracuse"),
                  fig->Const("Science Conf")} {}

  // Adds the mapping with unbindable pins to `fig` (once per fixture).
  static void AddRepeatedVariableTgd(Figure2* fig) {
    TgdParser parser(&fig->db.catalog(), &fig->db.symbols());
    fig->tgds.push_back(
        *parser.ParseTgd("A(l, l) & T(l, co, c) -> E(c, c)"));
  }

  TupleData Tuple(RelationId rel) {
    TupleData t;
    for (size_t c = 0; c < fig->db.relation(rel).arity(); ++c) {
      t.push_back(rng.Chance(0.1) ? (rng.Chance(0.5) ? fig->x1 : fig->x2)
                                  : constants[rng.Uniform(constants.size())]);
    }
    return t;
  }

  ReadQueryRecord Query() {
    const int tgd_id = static_cast<int>(rng.Uniform(fig->tgds.size()));
    const Tgd& tgd = fig->tgds[static_cast<size_t>(tgd_id)];
    const bool lhs = rng.Chance(0.5);
    const auto& atoms = lhs ? tgd.lhs().atoms : tgd.rhs().atoms;
    const size_t atom = rng.Uniform(atoms.size());
    return ReadQueryRecord::Violation(tgd_id, lhs, atom,
                                      Tuple(atoms[atom].rel));
  }

  // Half on the tgd's relations, half on any relation.
  RelationId WrittenRelation(const Tgd& tgd) {
    const std::vector<RelationId> rels{fig->C, fig->S, fig->A, fig->T,
                                       fig->R, fig->V, fig->E};
    const auto& tgd_rels = tgd.all_relations();
    return rng.Chance(0.5) ? tgd_rels[rng.Uniform(tgd_rels.size())]
                           : rels[rng.Uniform(rels.size())];
  }

  Figure2* fig;
  Rng rng;
  const std::vector<Value> constants;
};

TEST_F(ConflictTest, PreparedOnceAnswersLikePreparedPerWrite) {
  // A violation query prepared once and tested against a run of writes
  // must answer each write as a query prepared afresh for that write does
  // (here by a second checker, so no memo or evaluator state is shared):
  // the seed binding and the residual plans the prepared query takes on
  // its first write carry over to the later writes.
  ViolationQueryGen::AddRepeatedVariableTgd(&fig_);
  ConflictChecker fresh(&fig_.tgds);
  const Snapshot snap(&fig_.db, kReadLatest);
  size_t lhs_pins = 0, rhs_pins = 0, unbindable = 0, hits = 0, misses = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ViolationQueryGen gen(&fig_, seed);
    for (int query = 0; query < 40; ++query) {
      const ReadQueryRecord q = gen.Query();
      const Tgd& tgd = fig_.tgds[static_cast<size_t>(q.tgd_id)];
      ConflictChecker::PreparedQuery prepared = checker_.Prepare(q);
      ++(q.pinned_on_lhs ? lhs_pins : rhs_pins);
      unbindable += prepared.can_bind ? 0 : 1;
      for (int i = 0; i < 25; ++i) {
        PhysicalWrite w;
        w.rel = gen.WrittenRelation(tgd);
        w.kind = static_cast<WriteKind>(gen.rng.Uniform(3));
        if (w.kind != WriteKind::kDelete) w.data = gen.Tuple(w.rel);
        if (w.kind != WriteKind::kInsert) w.old_data = gen.Tuple(w.rel);
        const bool want = fresh.Conflicts(snap, w, q);
        EXPECT_EQ(checker_.Conflicts(snap, w, &prepared), want)
            << "seed " << seed << " query " << query << " write " << i;
        ++(want ? hits : misses);
      }
    }
  }
  EXPECT_GT(lhs_pins, 0u);
  EXPECT_GT(rhs_pins, 0u);
  EXPECT_GT(unbindable, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
}

// The answer of violation query `q` as reader `snap` sees it: the LHS
// matches, with the pinned tuple given, that leave the RHS unsatisfied.
// An LHS pin fixes its atom's tuple, an RHS pin the frontier variables its
// atom binds. Each match is keyed by its binding and its stored rows.
std::set<std::vector<uint64_t>> ViolationAnswer(const Snapshot& snap,
                                                const Tgd& tgd,
                                                const ReadQueryRecord& q) {
  std::set<std::vector<uint64_t>> answer;
  Evaluator lhs_eval(snap);
  Evaluator rhs_eval(snap);
  Binding seed(tgd.num_vars());
  AtomPin pin{q.atom_index, /*row=*/0, &q.pinned};
  if (!q.pinned_on_lhs) {
    Binding rhs_binding(tgd.num_vars());
    if (!MatchAtom(tgd.rhs().atoms[q.atom_index], q.pinned, &rhs_binding)) {
      return answer;
    }
    for (VarId x : tgd.frontier_vars()) {
      if (rhs_binding.IsBound(x)) seed.Set(x, rhs_binding.Get(x));
    }
  }
  lhs_eval.ForEachMatch(
      tgd.lhs(), seed, q.pinned_on_lhs ? &pin : nullptr,
      [&](const Binding& match, const std::vector<TupleRef>& rows) {
        if (tgd.RhsSatisfiedUnder(match, rhs_eval)) return true;
        std::vector<uint64_t> key;
        for (VarId v = 0; v < tgd.num_vars(); ++v) {
          const bool bound = match.IsBound(v);
          key.push_back(bound ? 1 + (match.Get(v).is_null() ? 1 : 0) : 0);
          key.push_back(bound ? match.Get(v).id() : 0);
        }
        for (size_t a = 0; a < rows.size(); ++a) {
          if (q.pinned_on_lhs && a == q.atom_index) continue;  // given
          key.push_back(rows[a].rel);
          key.push_back(rows[a].row);
        }
        answer.insert(std::move(key));
        return true;
      });
  return answer;
}

// Whether `content`, written to `rel`, matches an atom of the query's tgd
// under the prepared seed: an LHS pin's own atom only as the pinned tuple,
// the other LHS atoms under the seed, RHS atoms with their frontier
// variables consistent with it. Writes that match none are the ones the
// checker settles from content alone.
bool MatchesSomeAtom(const ConflictChecker::PreparedQuery& p, RelationId rel,
                     const TupleData& content) {
  const Tgd& tgd = *p.tgd;
  for (size_t a = 0; a < tgd.lhs().atoms.size(); ++a) {
    const Atom& atom = tgd.lhs().atoms[a];
    if (atom.rel != rel) continue;
    Binding b = p.seed;
    if (p.q->pinned_on_lhs && a == p.q->atom_index
            ? content == p.q->pinned
            : MatchAtom(atom, content, &b)) {
      return true;
    }
  }
  for (const Atom& atom : tgd.rhs().atoms) {
    if (atom.rel != rel) continue;
    Binding rhs_binding(tgd.num_vars());
    if (!MatchAtom(atom, content, &rhs_binding)) continue;
    Binding combined = p.seed;
    bool consistent = true;
    for (VarId x : tgd.frontier_vars()) {
      consistent = consistent && (!rhs_binding.IsBound(x) ||
                                  combined.Unify(x, rhs_binding.Get(x)));
    }
    if (consistent) return true;
  }
  return false;
}

TEST_F(ConflictTest, EveryWriteThatChangesAViolationAnswerConflicts) {
  // Soundness of the retroactive check (Theorem 4.4 rests on it): a write
  // of an update numbered below the reader that changes the answer of the
  // reader's violation query must be reported. Each generated write is
  // applied to the Figure 2 database, the answer compared with the one
  // before, and the write undone. A null replacement rewrites every row
  // holding the null in one step, so its writes are checked as the
  // scheduler checks a step's batch: one of them must be reported.
  ViolationQueryGen::AddRepeatedVariableTgd(&fig_);
  constexpr uint64_t kWriter = 5;
  constexpr uint64_t kReader = 10;
  const Snapshot writer_snap(&fig_.db, kWriter);
  const Snapshot snap(&fig_.db, kReader);
  size_t changed = 0, hits = 0, content_rejected = 0, evaluated = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ViolationQueryGen gen(&fig_, seed);
    for (int query = 0; query < 40; ++query) {
      const ReadQueryRecord q = gen.Query();
      const Tgd& tgd = fig_.tgds[static_cast<size_t>(q.tgd_id)];
      ConflictChecker::PreparedQuery prepared = checker_.Prepare(q);
      const auto before = ViolationAnswer(snap, tgd, q);
      for (int i = 0; i < 25; ++i) {
        const RelationId rel = gen.WrittenRelation(tgd);
        WriteOp op;
        switch (gen.rng.Uniform(3)) {
          case 0:
            op = WriteOp::Insert(rel, gen.Tuple(rel));
            break;
          case 1: {
            std::vector<RowId> rows;
            writer_snap.ForEachVisible(
                rel, [&](RowId row, const TupleData&) { rows.push_back(row); });
            if (rows.empty()) continue;
            op = WriteOp::Delete(rel, rows[gen.rng.Uniform(rows.size())]);
            break;
          }
          default:
            op = WriteOp::NullReplace(
                gen.rng.Chance(0.5) ? fig_.x1 : fig_.x2,
                gen.constants[gen.rng.Uniform(gen.constants.size())]);
            break;
        }
        const std::vector<PhysicalWrite> writes = fig_.db.Apply(op, kWriter);
        const bool answer_changed = ViolationAnswer(snap, tgd, q) != before;
        bool reported = false;
        for (const PhysicalWrite& w : writes) {
          const uint64_t rows_before = checker_.rows_examined();
          const bool conflict = checker_.Conflicts(snap, w, &prepared);
          reported = reported || conflict;
          hits += conflict ? 1 : 0;
          evaluated += checker_.rows_examined() > rows_before ? 1 : 0;
          const auto& rels = tgd.all_relations();
          if (prepared.can_bind &&
              std::find(rels.begin(), rels.end(), w.rel) != rels.end() &&
              !MatchesSomeAtom(prepared, w.rel, w.data) &&
              !MatchesSomeAtom(prepared, w.rel, w.old_data)) {
            ++content_rejected;
            EXPECT_FALSE(conflict);
          }
        }
        if (answer_changed) {
          ++changed;
          EXPECT_TRUE(reported)
              << "seed " << seed << " query " << query << " write " << i;
        }
        for (const PhysicalWrite& w : writes) {
          fig_.db.RemoveRowVersions(w.rel, w.row, kWriter);
        }
        ASSERT_EQ(ViolationAnswer(snap, tgd, q), before)
            << "undo left the answer changed";
      }
    }
  }
  EXPECT_GT(changed, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(content_rejected, 0u);
  EXPECT_GT(evaluated, 0u);
}

// --- Re-planning the memoized residual plans ---------------------------------

PhysicalWrite InsertOf(RelationId rel, TupleData data) {
  PhysicalWrite w;
  w.kind = WriteKind::kInsert;
  w.rel = rel;
  w.data = std::move(data);
  return w;
}

TEST(ConflictReplanTest, StaleResidualPlansRecompileInPlace) {
  // P(x) & S(y) -> Out(x, y): a query pinned on P(0) leaves the residual
  // S(y), which its plan under the seed profile scans. S then grows ~100x,
  // so the sweep recompiles the entry's three plans (pinned at S, the seed
  // profile alone, seed plus Out's frontier) where they stand, and a query
  // prepared before the sweep keeps answering through them.
  Database db;
  const RelationId p = *db.CreateRelation("P", {"x"});
  const RelationId s = *db.CreateRelation("S", {"y"});
  const RelationId out = *db.CreateRelation("Out", {"x", "y"});
  TgdParser parser(&db.catalog(), &db.symbols());
  std::vector<Tgd> tgds;
  tgds.push_back(*parser.ParseTgd("P(x) & S(y) -> Out(x, y)"));
  auto c = [](uint64_t v) { return Value::Constant(v); };
  db.Apply(WriteOp::Insert(s, {c(1)}), 0);
  db.Apply(WriteOp::Insert(s, {c(2)}), 0);
  db.Apply(WriteOp::Insert(out, {c(0), c(2)}), 0);

  ConflictChecker checker(&tgds);
  const ReadQueryRecord q = ReadQueryRecord::Violation(
      /*tgd_id=*/0, /*pinned_on_lhs=*/true, /*atom_index=*/0, {c(0)});
  ConflictChecker::PreparedQuery prepared = checker.Prepare(q);
  // Out(0, 1) satisfies the pinned premise's match S(1); Out(0, 9) matches
  // nothing stored; P(0) itself still has the violating match S(1).
  const std::vector<PhysicalWrite> writes{InsertOf(out, {c(0), c(1)}),
                                          InsertOf(out, {c(0), c(9)}),
                                          InsertOf(p, {c(0)})};
  const std::vector<bool> want{true, false, true};
  const Snapshot snap(&db, kReadLatest);
  for (size_t i = 0; i < writes.size(); ++i) {
    EXPECT_EQ(checker.Conflicts(snap, writes[i], &prepared), want[i]) << i;
  }
  ASSERT_NE(prepared.residual, nullptr);

  for (uint64_t v = 1000; v < 1200; ++v) {
    db.Apply(WriteOp::Insert(s, {c(v)}), 0);
  }
  EXPECT_EQ(checker.MaybeReplan(&db), 3u);
  EXPECT_EQ(checker.MaybeReplan(&db), 0u);  // fresh again: a no-op

  ConflictChecker fresh(&tgds);
  for (size_t i = 0; i < writes.size(); ++i) {
    EXPECT_EQ(checker.Conflicts(snap, writes[i], &prepared), want[i]) << i;
    EXPECT_EQ(fresh.Conflicts(snap, writes[i], q), want[i]) << i;
  }
}

TEST(ConflictReplanTest, SweepRegistersCompositeIndexesOfNewEntries) {
  // P(x, y) & C(x, y) -> Out(x): a query pinned on P(0, 0) leaves the
  // residual C(x, y) with both columns bound. Each column alone puts 200
  // rows behind the value 0, together they single out one row, so the
  // costed plan probes a composite index. A check compiles the entry with
  // the database read-only; the next sweep registers the index.
  Database db;
  db.CreateRelation("P", {"x", "y"});
  const RelationId cc = *db.CreateRelation("C", {"x", "y"});
  db.CreateRelation("Out", {"x"});
  TgdParser parser(&db.catalog(), &db.symbols());
  std::vector<Tgd> tgds;
  tgds.push_back(*parser.ParseTgd("P(x, y) & C(x, y) -> Out(x)"));
  auto c = [](uint64_t v) { return Value::Constant(v); };
  for (uint64_t i = 1; i <= 200; ++i) {
    db.Apply(WriteOp::Insert(cc, {c(0), c(i)}), 0);
    db.Apply(WriteOp::Insert(cc, {c(i), c(0)}), 0);
  }
  db.Apply(WriteOp::Insert(cc, {c(0), c(0)}), 0);

  auto residual = parser.ParseQuery("C(x, y)");
  ASSERT_TRUE(residual.ok());
  const uint64_t both =
      Planner::MaskOf({*residual->VarByName("x"), *residual->VarByName("y")});
  ASSERT_EQ(Planner::Compile(residual->body, both, std::nullopt, &db)
                .ToString(db.catalog()),
            "[0:C idx(0,1)]");

  ConflictChecker checker(&tgds);
  EXPECT_EQ(checker.MaybeReplan(&db), 0u);  // nothing compiled yet
  const ReadQueryRecord q = ReadQueryRecord::Violation(
      /*tgd_id=*/0, /*pinned_on_lhs=*/true, /*atom_index=*/0, {c(0), c(0)});
  const Snapshot snap(&db, kReadLatest);
  checker.Conflicts(snap, InsertOf(cc, {c(5), c(5)}), q);
  EXPECT_FALSE(db.relation(cc).HasCompositeIndex({0, 1}));
  EXPECT_EQ(checker.MaybeReplan(&db), 0u);
  EXPECT_TRUE(db.relation(cc).HasCompositeIndex({0, 1}));
}

}  // namespace
}  // namespace youtopia
