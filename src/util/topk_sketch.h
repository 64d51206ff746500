#ifndef YOUTOPIA_UTIL_TOPK_SKETCH_H_
#define YOUTOPIA_UTIL_TOPK_SKETCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace youtopia {

// Fixed-capacity heavy-hitter sketch over exact counts. The caller knows
// each value's exact current count (for relation statistics: an index
// bucket's size) and reports every change of it through Set; the sketch
// keeps at most K (value, count) entries, which makes every operation O(K)
// with K a small constant.
//
// The contract:
//
//  - A tracked entry's count is the count last reported for its value, so
//    when every change is reported, tracked counts are exact at all times.
//    A value reported at zero is dropped.
//  - At capacity a newcomer enters only when its count beats the minimum
//    tracked count, displacing the first minimum entry (first in slot
//    order, so the entry set is deterministic for a fixed report order).
//  - The weaker half: an untracked value's count was at most min_count()
//    when it was last reported, but a tracked entry may have dropped below
//    it since. So min_count() bounds an untracked value only as of that
//    value's last report, and max_count() is the largest tracked count,
//    not necessarily the largest count overall.
//
// Not thread-safe; ownership follows the containing structure's contract
// (for relation statistics: owner-thread-only, like distinct_values()).
template <typename T>
class TopKSketch {
 public:
  explicit TopKSketch(size_t capacity) : capacity_(capacity) {
    CHECK(capacity_ > 0);
    entries_.reserve(capacity_);
  }

  // Reports that `value` now occurs exactly `count` times: raises or lowers
  // a tracked entry, drops it at zero, and admits an untracked value while
  // there is room or when it beats the minimum.
  void Set(const T& value, uint64_t count) {
    const size_t slot = SlotOf(value);
    if (slot < entries_.size()) {
      if (count > 0) {
        entries_[slot].count = count;
      } else {
        // Drop the entry; later slots shift down one, keeping slot order.
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(slot));
      }
      return;
    }
    if (count == 0) return;
    if (entries_.size() < capacity_) {
      entries_.push_back(Entry{value, count});
      return;
    }
    const size_t min_idx = MinIndex();
    if (count > entries_[min_idx].count) {
      entries_[min_idx] = Entry{value, count};
    }
  }

  // A value's tracked count; for an untracked value, the ceiling it last
  // fit under (min_count at capacity, 0 below it — see the class comment
  // for why this bounds the count only as of the value's last report).
  uint64_t Estimate(const T& value) const {
    const size_t slot = SlotOf(value);
    if (slot < entries_.size()) return entries_[slot].count;
    return entries_.size() < capacity_ ? 0 : MinCount();
  }

  bool Tracks(const T& value) const { return SlotOf(value) < entries_.size(); }

  // The largest tracked count (0 when empty).
  uint64_t max_count() const {
    uint64_t m = 0;
    for (const Entry& e : entries_) m = std::max(m, e.count);
    return m;
  }

  // The smallest tracked count (0 when empty).
  uint64_t min_count() const { return MinCount(); }

  size_t size() const { return entries_.size(); }
  bool AtCapacity() const { return entries_.size() >= capacity_; }

  // Invokes fn(value, count) for each tracked entry, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Entry& e : entries_) fn(e.value, e.count);
  }

 private:
  struct Entry {
    T value;
    uint64_t count = 0;
  };

  // The slot tracking `value`, or size() when it is untracked.
  size_t SlotOf(const T& value) const {
    size_t i = 0;
    while (i < entries_.size() && !(entries_[i].value == value)) ++i;
    return i;
  }

  size_t MinIndex() const {
    size_t best = 0;
    for (size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].count < entries_[best].count) best = i;
    }
    return best;
  }

  uint64_t MinCount() const {
    if (entries_.empty()) return 0;
    return entries_[MinIndex()].count;
  }

  size_t capacity_;
  std::vector<Entry> entries_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_UTIL_TOPK_SKETCH_H_
