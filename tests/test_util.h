#ifndef YOUTOPIA_TESTS_TEST_UTIL_H_
#define YOUTOPIA_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "core/violation_detector.h"
#include "relational/database.h"
#include "tgd/parser.h"
#include "tgd/tgd.h"
#include "util/check.h"

namespace youtopia {
namespace testing_util {

// Builds the paper's Figure 2 travel repository: relations C, S, A, T, R, V,
// E with mappings sigma1..sigma4 (cyclic through C and S) and the example
// tuples. Nulls x1 and x2 are exposed for tests.
struct Figure2 {
  Database db;
  std::vector<Tgd> tgds;
  RelationId C, S, A, T, R, V, E;
  Value x1, x2;

  Figure2() {
    C = *db.CreateRelation("C", {"city"});
    S = *db.CreateRelation("S", {"code", "location", "city_served"});
    A = *db.CreateRelation("A", {"location", "name"});
    T = *db.CreateRelation("T", {"attraction", "company", "tour_start"});
    R = *db.CreateRelation("R", {"company", "attraction", "review"});
    V = *db.CreateRelation("V", {"city", "convention"});
    E = *db.CreateRelation("E", {"convention", "attraction"});

    TgdParser parser(&db.catalog(), &db.symbols());
    auto add = [&](const char* text) {
      Result<Tgd> tgd = parser.ParseTgd(text);
      CHECK(tgd.ok());
      tgds.push_back(std::move(tgd).value());
    };
    add("C(c) -> exists a, l: S(a, l, c)");
    add("S(a, l, c) -> C(l) & C(c)");
    add("A(l, n) & T(n, co, s) -> exists r: R(co, n, r)");
    add("V(c, x) & T(n, co, c) -> E(x, n)");

    x1 = db.FreshNull();
    x2 = db.FreshNull();

    Seed(C, {{"Ithaca"}, {"Syracuse"}});
    Seed(S, {{"SYR", "Syracuse", "Syracuse"}, {"SYR", "Syracuse", "Ithaca"}});
    Seed(A, {{"Geneva", "Geneva Winery"},
             {"Niagara Falls", "Niagara Falls"}});
    SeedRow(T, {Const("Geneva Winery"), Const("XYZ"), Const("Syracuse")});
    SeedRow(T, {Const("Niagara Falls"), x1, Const("Toronto")});
    SeedRow(R, {Const("XYZ"), Const("Geneva Winery"), Const("Great!")});
    SeedRow(R, {x1, Const("Niagara Falls"), x2});
    Seed(V, {{"Syracuse", "Science Conf"}});
    Seed(E, {{"Science Conf", "Geneva Winery"}});
  }

  Value Const(const std::string& text) { return db.InternConstant(text); }

  TupleData Row(const std::vector<std::string>& values) {
    TupleData data;
    for (const std::string& v : values) data.push_back(Const(v));
    return data;
  }

  void SeedRow(RelationId rel, TupleData data) {
    const auto writes = db.Apply(WriteOp::Insert(rel, std::move(data)),
                                 /*update_number=*/0);
    CHECK_EQ(writes.size(), 1u);
  }

  void Seed(RelationId rel,
            const std::vector<std::vector<std::string>>& rows) {
    for (const auto& r : rows) SeedRow(rel, Row(r));
  }

  bool Satisfied() const {
    ViolationDetector detector(&tgds);
    Snapshot snap(&db, kReadLatest);
    return detector.SatisfiesAll(snap);
  }

  bool Contains(RelationId rel, const std::vector<std::string>& values) {
    return db.FindRowWithData(rel, Row(values), kReadLatest).has_value();
  }

  // Inserts `data` into `rel` as update `number` and returns the read
  // records the violation detector logs for the insert, as a Scheduler
  // step collects them.
  std::vector<ReadQueryRecord> ReadsOfInsert(RelationId rel, TupleData data,
                                             uint64_t number) {
    const std::vector<PhysicalWrite> writes =
        db.Apply(WriteOp::Insert(rel, std::move(data)), number);
    ViolationDetector detector(&tgds);
    std::vector<Violation> violations;
    std::vector<ReadQueryRecord> reads;
    detector.AfterWrites(Snapshot(&db, number), writes, &violations, &reads);
    return reads;
  }
};

// Two components: {Bb, Cc, Dd} tied by sigma (Bb & Cc -> exists Dd) plus the
// standalone {E}. Nulls X, Y, Z each occur in one big-component tuple AND an
// E tuple, so replacing any of them is a cross-shard update. Submitted in
// one batch in the order X -> a, Y -> b, Z -> d, the three replacements
// conflict: u1's late Dd insert retroactively invalidates u2's logged
// violation query, and u2's abort cascades (COARSE) to u3.
struct CrossShardFixture {
  Database db;
  std::vector<Tgd> tgds;
  RelationId bb, cc, dd, e;
  Value x, y, z;
  Value a, b, d;  // replacement targets, interned in fixture order so two
                  // fixtures agree on every value id

  CrossShardFixture() {
    bb = *db.CreateRelation("Bb", {"x", "y"});
    cc = *db.CreateRelation("Cc", {"y", "z"});
    dd = *db.CreateRelation("Dd", {"x", "w"});
    e = *db.CreateRelation("E", {"v"});
    TgdParser parser(&db.catalog(), &db.symbols());
    tgds.push_back(
        *parser.ParseTgd("Bb(x, y) & Cc(y, z) -> exists w: Dd(x, w)"));
    x = db.FreshNull();
    y = db.FreshNull();
    z = db.FreshNull();
    a = db.InternConstant("a");
    b = db.InternConstant("b");
    d = db.InternConstant("d");
    auto seed = [&](RelationId rel, TupleData data) {
      db.Apply(WriteOp::Insert(rel, std::move(data)), 0);
    };
    const Value m = db.InternConstant("m");
    const Value m3 = db.InternConstant("m3");
    const Value c0 = db.InternConstant("c0");
    const Value c1 = db.InternConstant("c1");
    // u1's replace (X -> a) turns Cc(X, c0) into Cc(a, c0), completing the
    // premise with Bb(m, a) — its repair later inserts Dd(m, _).
    seed(bb, {m, a});
    seed(cc, {x, c0});
    // u2's replace (Y -> b) turns Bb(m, Y) into Bb(m, b); with Cc(b, c1)
    // seeded this is an immediate violation whose answer u1's Dd insert
    // then flips retroactively -> direct conflict, u2 aborts.
    seed(bb, {m, y});
    seed(cc, {b, c1});
    // u3's replace (Z -> d) poses a sigma violation query after u2 wrote
    // Bb, so u2's abort cascades a request to u3 (COARSE granularity).
    seed(bb, {m3, z});
    // The cross-component occurrences.
    seed(e, {x});
    seed(e, {y});
    seed(e, {z});
  }

  // The three conflicting replacements, in submission order.
  std::vector<WriteOp> Replacements() const {
    return {WriteOp::NullReplace(x, a), WriteOp::NullReplace(y, b),
            WriteOp::NullReplace(z, d)};
  }
};

}  // namespace testing_util
}  // namespace youtopia

#endif  // YOUTOPIA_TESTS_TEST_UTIL_H_
