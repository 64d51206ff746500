#ifndef YOUTOPIA_RELATIONAL_NULL_REGISTRY_H_
#define YOUTOPIA_RELATIONAL_NULL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "relational/tuple.h"
#include "relational/value.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace youtopia {

// Allocates fresh labeled nulls and maintains an occurrence index mapping a
// null to the stored tuples that have (at some version) contained it.
//
// The occurrence index is add-only and *stale-tolerant*: entries are never
// eagerly removed when a tuple version is superseded or an update aborts.
// Consumers must re-verify against the version visible to their reader; see
// Snapshot::ForEachOccurrence.
//
// Threading: unlike relation storage (owned by exactly one shard worker at a
// time, see relation.h), the registry is shared by every concurrent chase —
// labeled nulls are global identities, and a null seeded into two shards'
// tuples is reachable from both. Fresh() is a lone atomic counter;
// the occurrence index takes a mutex on both paths. Occurrences() therefore
// returns a copy: handing out a reference into the map would race with a
// concurrent AddOccurrence growing the same bucket.
class NullRegistry {
 public:
  NullRegistry() = default;
  NullRegistry(const NullRegistry&) = delete;
  NullRegistry& operator=(const NullRegistry&) = delete;

  // Allocates a fresh labeled null, distinct from all previous ones.
  // Thread-safe (lock-free).
  Value Fresh() {
    return Value::Null(next_id_.fetch_add(1, std::memory_order_relaxed));
  }

  // Records that the tuple `ref` (at some version) contains `null_value`.
  // Thread-safe.
  void AddOccurrence(const Value& null_value, const TupleRef& ref);

  // All tuples that have ever contained `null_value` (possibly stale). By
  // value: see the threading note above.
  std::vector<TupleRef> Occurrences(const Value& null_value) const;

 private:
  std::atomic<uint64_t> next_id_{0};
  // Leaf of the lock hierarchy: occurrence reads/writes happen inside chase
  // steps that already hold component and storage locks.
  mutable Mutex mu_{LockRank::kLeaf};
  std::unordered_map<uint64_t, std::vector<TupleRef>> occurrences_
      GUARDED_BY(mu_);
};

}  // namespace youtopia

#endif  // YOUTOPIA_RELATIONAL_NULL_REGISTRY_H_
