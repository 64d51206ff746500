#ifndef YOUTOPIA_RELATIONAL_ROW_BUCKETS_H_
#define YOUTOPIA_RELATIONAL_ROW_BUCKETS_H_

#include <cstdint>
#include <vector>

#include "relational/tuple.h"
#include "util/span.h"

namespace youtopia {

// An index from 64-bit keys to buckets of rows: one open-addressing table
// (linear probing over a power-of-two slot array, at most 3/4 full) whose
// 16-byte slots hold a key and its bucket. A bucket of one row lives in its
// slot; a longer one spills into a row list the table owns. Each bucket is
// ascending and lists a row at most once, and no empty bucket is kept.
// Removal shifts the rest of a probe run back (no tombstones), and emptied
// spill lists are recycled.
//
// A span from Find points into the table: it is valid until the next Add
// or Remove. Not thread-safe; the owner of the enclosing index serializes
// every call.
class RowBuckets {
 public:
  // The rows listed under `key`, ascending and each once; empty on a miss.
  Span<const RowId> Find(uint64_t key) const {
    if (size_ == 0) return {};
    // A miss ends on a free slot, whose count of 0 gives an empty span.
    const Slot& s = slots_[Locate(key)];
    if (s.count <= 1) return Span<const RowId>(&s.row_or_list, s.count);
    return Span<const RowId>(lists_[s.row_or_list].data(), s.count);
  }

  // Lists `row` under `key`. Returns the bucket's new size, or 0 if the row
  // was already listed.
  size_t Add(uint64_t key, RowId row);

  // Unlists `row` from `key`'s bucket and stores the bucket's new size in
  // `*size` (0 drops the key). False, leaving `*size` alone, if the row was
  // not listed.
  bool Remove(uint64_t key, RowId row, size_t* size);

  // Keys with a non-empty bucket.
  size_t size() const { return size_; }
  // Listed rows, summed over every bucket.
  size_t entries() const { return entries_; }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t count = 0;  // 0: empty slot; 1: the row is inline
    RowId row_or_list = 0;  // the row, or the spill list when count > 1
  };

  // Fibonacci hashing: the key's top bits after a golden-ratio multiply,
  // so dense counters (per-column keys) spread over the slots.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  // The slot holding `key`, or else the free slot that ends its probe run.
  // The array must not be empty.
  size_t Locate(uint64_t key) const {
    const size_t mask = slots_.size() - 1;
    size_t i = Home(key);
    while (slots_[i].count != 0 && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }
  void Grow();
  // Empties slot `hole` and shifts later members of its probe run back.
  void EraseSlot(size_t hole);

  std::vector<Slot> slots_;
  uint32_t shift_ = 64;  // 64 - log2(slots_.size())
  std::vector<std::vector<RowId>> lists_;
  std::vector<uint32_t> free_lists_;  // indexes of empty, reusable lists
  size_t size_ = 0;
  size_t entries_ = 0;
};

}  // namespace youtopia

#endif  // YOUTOPIA_RELATIONAL_ROW_BUCKETS_H_
