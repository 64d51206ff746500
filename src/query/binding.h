#ifndef YOUTOPIA_QUERY_BINDING_H_
#define YOUTOPIA_QUERY_BINDING_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

#include "query/atom.h"
#include "relational/value.h"
#include "util/check.h"

namespace youtopia {

// A partial assignment of query variables to database values (constants or
// labeled nulls). Dense over VarIds, which are small and per-tgd/per-query.
//
// Slots are stored inline up to kInlineSlots: the write path constructs a
// Binding per violation query and per NOT EXISTS probe, and almost every
// tgd in practice has fewer variables than the inline capacity, so
// construction and copies never touch the heap (a heap block backs only the
// rare wider query).
class Binding {
 public:
  Binding() = default;
  explicit Binding(size_t num_vars) { EnsureSize(num_vars); }

  Binding(const Binding& other) { CopyFrom(other); }
  Binding& operator=(const Binding& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  // Moves steal the heap block when one exists; inline contents are copied
  // (they cannot be stolen). The source stays valid and empty-equivalent.
  Binding(Binding&& other) noexcept { MoveFrom(std::move(other)); }
  Binding& operator=(Binding&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }

  size_t num_vars() const { return num_vars_; }

  void EnsureSize(size_t num_vars) {
    if (num_vars <= num_vars_) return;
    Reserve(num_vars);
    for (size_t i = num_vars_; i < num_vars; ++i) slots()[i].bound = false;
    num_vars_ = static_cast<uint32_t>(num_vars);
  }

  bool IsBound(VarId v) const { return v < num_vars_ && slots()[v].bound; }

  const Value& Get(VarId v) const {
    DCHECK(IsBound(v));
    return slots()[v].value;
  }

  void Set(VarId v, const Value& value) {
    EnsureSize(v + 1);
    slots()[v].value = value;
    slots()[v].bound = true;
  }

  void Unset(VarId v) {
    if (v < num_vars_) slots()[v].bound = false;
  }

  // Attempts to bind v to value; returns false on inconsistency with an
  // existing binding.
  bool Unify(VarId v, const Value& value) {
    if (IsBound(v)) return Get(v) == value;
    Set(v, value);
    return true;
  }

  friend bool operator==(const Binding& a, const Binding& b) {
    const size_t n = std::max<size_t>(a.num_vars_, b.num_vars_);
    for (size_t i = 0; i < n; ++i) {
      const bool ba = a.IsBound(static_cast<VarId>(i));
      const bool bb = b.IsBound(static_cast<VarId>(i));
      if (ba != bb) return false;
      if (ba && a.Get(static_cast<VarId>(i)) != b.Get(static_cast<VarId>(i))) {
        return false;
      }
    }
    return true;
  }

 private:
  struct Slot {
    Value value;
    bool bound;
  };
  static_assert(std::is_trivially_copyable_v<Slot>,
                "slots are moved around with memcpy");
  static constexpr size_t kInlineSlots = 8;

  Slot* slots() { return heap_ != nullptr ? heap_.get() : inline_; }
  const Slot* slots() const {
    return heap_ != nullptr ? heap_.get() : inline_;
  }

  void Reserve(size_t n) {
    if (n <= capacity_) return;
    const size_t cap = std::max(n, static_cast<size_t>(capacity_) * 2);
    std::unique_ptr<Slot[]> grown(new Slot[cap]);
    std::memcpy(grown.get(), slots(), num_vars_ * sizeof(Slot));
    heap_ = std::move(grown);
    capacity_ = static_cast<uint32_t>(cap);
  }

  void CopyFrom(const Binding& other) {
    Reserve(other.num_vars_);
    std::memcpy(slots(), other.slots(), other.num_vars_ * sizeof(Slot));
    // Shrinking reuses the existing storage; stale tail slots are masked by
    // num_vars_.
    num_vars_ = other.num_vars_;
  }

  void MoveFrom(Binding&& other) {
    if (other.heap_ != nullptr) {
      heap_ = std::move(other.heap_);
      capacity_ = other.capacity_;
      num_vars_ = other.num_vars_;
      other.heap_ = nullptr;
      other.capacity_ = kInlineSlots;
      other.num_vars_ = 0;
    } else {
      CopyFrom(other);
    }
  }

  Slot inline_[kInlineSlots];
  std::unique_ptr<Slot[]> heap_;
  uint32_t num_vars_ = 0;
  uint32_t capacity_ = kInlineSlots;
};

// Attempts to extend `binding` so that `atom` matches `data`. Constant terms
// must equal the stored value exactly (homomorphism semantics: constants map
// to themselves; query variables may bind to constants or labeled nulls).
// Returns false and leaves `binding` in an unspecified-but-restorable state
// only via the caller keeping a copy; on success `binding` is extended.
bool MatchAtom(const Atom& atom, const TupleData& data, Binding* binding);

// The value `term` takes under `binding`: its constant, or its variable's
// value, which must be bound.
inline const Value& TermValue(const Term& term, const Binding& binding) {
  if (term.is_constant()) return term.constant();
  CHECK(binding.IsBound(term.var()));
  return binding.Get(term.var());
}

// Instantiates `atom` under `binding`; every variable must be bound.
TupleData InstantiateAtom(const Atom& atom, const Binding& binding);

}  // namespace youtopia

#endif  // YOUTOPIA_QUERY_BINDING_H_
