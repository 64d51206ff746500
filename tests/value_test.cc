#include "relational/value.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "relational/tuple.h"
#include "util/hash.h"

namespace youtopia {
namespace {

TEST(ValueTest, ConstantsAndNullsAreDistinct) {
  const Value c = Value::Constant(3);
  const Value n = Value::Null(3);
  EXPECT_TRUE(c.is_constant());
  EXPECT_FALSE(c.is_null());
  EXPECT_TRUE(n.is_null());
  EXPECT_NE(c, n);
  EXPECT_EQ(c.id(), n.id());
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value::Constant(1), Value::Constant(1));
  EXPECT_NE(Value::Constant(1), Value::Constant(2));
  EXPECT_LT(Value::Constant(1), Value::Constant(2));
  // Kind dominates the ordering.
  EXPECT_LT(Value::Constant(99), Value::Null(0));
}

TEST(ValueTest, HashDistinguishesKinds) {
  ValueHash h;
  EXPECT_NE(h(Value::Constant(7)), h(Value::Null(7)));
  EXPECT_EQ(h(Value::Null(7)), h(Value::Null(7)));
}

// Ids the packed encoding must carry for both kinds: the ends of the id
// range and the bit just below the null flag.
constexpr uint64_t kMaxId = Value::kIdLimit - 1;
const uint64_t kSampleIds[] = {0, 1, 2, uint64_t{1} << 62, kMaxId - 1, kMaxId};

TEST(ValueTest, PackedIdsRoundTripForBothKinds) {
  for (uint64_t id : kSampleIds) {
    const Value c = Value::Constant(id);
    const Value n = Value::Null(id);
    EXPECT_EQ(c.kind(), ValueKind::kConstant) << id;
    EXPECT_TRUE(c.is_constant()) << id;
    EXPECT_EQ(c.id(), id);
    EXPECT_EQ(n.kind(), ValueKind::kNull) << id;
    EXPECT_TRUE(n.is_null()) << id;
    EXPECT_EQ(n.id(), id);
    EXPECT_NE(c, n) << id;
  }
}

TEST(ValueTest, ConstantsOrderBeforeNullsThenById) {
  for (uint64_t a : kSampleIds) {
    for (uint64_t b : kSampleIds) {
      EXPECT_LT(Value::Constant(a), Value::Null(b)) << a << " " << b;
      EXPECT_FALSE(Value::Null(b) < Value::Constant(a)) << a << " " << b;
      EXPECT_EQ(Value::Constant(a) < Value::Constant(b), a < b);
      EXPECT_EQ(Value::Null(a) < Value::Null(b), a < b);
      EXPECT_EQ(Value::Constant(a) == Value::Constant(b), a == b);
      EXPECT_EQ(Value::Null(a) == Value::Null(b), a == b);
    }
  }
}

TEST(ValueTest, HashIsTheKindIdCombine) {
  // Fingerprints and sketches hash values through ValueHash, so it must not
  // follow the packed layout: it combines the kind (0 or 1) and the id.
  for (uint64_t id : kSampleIds) {
    for (size_t kind : {size_t{0}, size_t{1}}) {
      size_t expected = kind;
      HashCombine(expected, static_cast<size_t>(id));
      const Value v = kind == 0 ? Value::Constant(id) : Value::Null(id);
      EXPECT_EQ(ValueHash{}(v), expected) << kind << " " << id;
    }
  }
}

TEST(ValueDeathTest, IdAtOrAbove2To63IsRefused) {
  EXPECT_DEATH(Value::Constant(Value::kIdLimit), "CHECK failed");
  EXPECT_DEATH(Value::Null(Value::kIdLimit), "CHECK failed");
  EXPECT_DEATH(Value::Null(UINT64_MAX), "CHECK failed");
}

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable table;
  const Value a1 = table.Intern("Ithaca");
  const Value a2 = table.Intern("Ithaca");
  const Value b = table.Intern("Syracuse");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Text(a1), "Ithaca");
  EXPECT_EQ(table.Text(b), "Syracuse");
}

TEST(SymbolTableTest, ManySymbolsSurviveRehash) {
  SymbolTable table;
  std::vector<Value> values;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(table.Intern("sym" + std::to_string(i)));
  }
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(table.Text(values[static_cast<size_t>(i)]),
              "sym" + std::to_string(i));
    EXPECT_EQ(table.Intern("sym" + std::to_string(i)),
              values[static_cast<size_t>(i)]);
  }
}

TEST(TupleTest, ContainsNull) {
  const Value n1 = Value::Null(1);
  const Value n2 = Value::Null(2);
  const TupleData data{Value::Constant(0), n1};
  EXPECT_TRUE(ContainsNull(data, n1));
  EXPECT_FALSE(ContainsNull(data, n2));
  EXPECT_TRUE(ContainsAnyNull(data));
  EXPECT_FALSE(ContainsAnyNull({Value::Constant(0), Value::Constant(1)}));
}

TEST(TupleTest, ToStringRendersConstantsAndNulls) {
  SymbolTable table;
  const TupleData data{table.Intern("Ithaca"), Value::Null(3)};
  EXPECT_EQ(TupleToString(data, table), "(Ithaca, x3)");
}

}  // namespace
}  // namespace youtopia
