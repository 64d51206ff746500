#ifndef YOUTOPIA_RELATIONAL_VALUE_H_
#define YOUTOPIA_RELATIONAL_VALUE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/check.h"
#include "util/hash.h"

namespace youtopia {

// A database value is either a constant or a labeled null (the paper's
// "variables" x1, x2, ...). Constants are interned symbols, nulls are
// numbered by the NullRegistry; both ids are counters. A Value packs the id
// into the low 63 bits of one 64-bit word and the null flag into the top
// bit, so equality and the (kind, id) order are one integer compare and a
// tuple of k values is 8k bytes. An id of 2^63 or more would alias a value
// of the other kind, so the factories refuse it.
enum class ValueKind : uint8_t { kConstant = 0, kNull = 1 };

class Value {
 public:
  // Every id stays below this bound.
  static constexpr uint64_t kIdLimit = uint64_t{1} << 63;

  // Default-constructed value is the invalid constant; only useful as a
  // placeholder before assignment.
  constexpr Value() = default;

  static constexpr Value Constant(uint64_t symbol_id) {
    CHECK_LT(symbol_id, kIdLimit);
    return Value(symbol_id);
  }
  static constexpr Value Null(uint64_t null_id) {
    CHECK_LT(null_id, kIdLimit);
    return Value(kIdLimit | null_id);
  }

  ValueKind kind() const {
    return is_null() ? ValueKind::kNull : ValueKind::kConstant;
  }
  bool is_constant() const { return bits_ < kIdLimit; }
  bool is_null() const { return bits_ >= kIdLimit; }
  uint64_t id() const { return bits_ & (kIdLimit - 1); }
  // The packed word: distinct values have distinct bits, ordered as the
  // values are (every constant before every null, then by id).
  uint64_t bits() const { return bits_; }

  friend bool operator==(const Value& a, const Value& b) {
    return a.bits_ == b.bits_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator<(const Value& a, const Value& b) {
    return a.bits_ < b.bits_;
  }

 private:
  constexpr explicit Value(uint64_t bits) : bits_(bits) {}

  uint64_t bits_ = 0;
};
static_assert(sizeof(Value) == 8, "a Value is one packed 64-bit word");

struct ValueHash {
  size_t operator()(const Value& v) const {
    size_t seed = static_cast<size_t>(v.kind());
    HashCombine(seed, static_cast<size_t>(v.id()));
    return seed;
  }
};

// Interns constant strings into dense symbol ids. Owned by the Database;
// lookups are by string_view, stored strings are stable for the table's
// lifetime.
class SymbolTable {
 public:
  SymbolTable() = default;
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  // Returns the constant Value for `text`, interning it if new.
  Value Intern(std::string_view text);

  // Returns the text of an interned constant. The Value must be a constant
  // produced by this table.
  std::string_view Text(const Value& v) const;

  size_t size() const { return strings_.size(); }

 private:
  // Deque keeps string objects at stable addresses, so the map's
  // string_view keys stay valid as the table grows.
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, uint64_t> ids_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_RELATIONAL_VALUE_H_
