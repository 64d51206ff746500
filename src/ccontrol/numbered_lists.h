#ifndef YOUTOPIA_CCONTROL_NUMBERED_LISTS_H_
#define YOUTOPIA_CCONTROL_NUMBERED_LISTS_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/span.h"

namespace youtopia {

// Lists of entries under 64-bit keys (relation ids, null ids, update
// numbers), the one shape of the concurrency-control bookkeeping. Each list
// is ordered by its entries' update number (the member kNumber), and one
// update's entries form a contiguous run in the order they were added, so
// the entries of the updates numbered below, above or at n are one binary
// search away. A list that loses its last entry is dropped (null ids are
// never reused, so kept lists would pile up). Spans and pointers stay valid
// until the lists next change.
template <typename Entry, uint64_t Entry::*kNumber>
class NumberedLists {
 public:
  bool empty() const { return lists_.empty(); }

  // Appends `e` to list `key`, at the end of its update's run.
  void Add(uint64_t key, const Entry& e) {
    std::vector<Entry>& list = lists_[key];
    list.insert(list.begin() + Upper(list, e.*kNumber), e);
  }

  // The entries of list `key` numbered below `n`, above `n`, and at `n`.
  Span<const Entry> Below(uint64_t key, uint64_t n) const {
    const Span<const Entry> list = List(key);
    return list.subspan(0, Lower(list, n));
  }
  Span<const Entry> Above(uint64_t key, uint64_t n) const {
    const Span<const Entry> list = List(key);
    const size_t lo = Upper(list, n);
    return list.subspan(lo, list.size() - lo);
  }
  Span<const Entry> Run(uint64_t key, uint64_t n) const {
    const Span<const Entry> list = List(key);
    const size_t lo = Lower(list, n);
    return list.subspan(lo, Upper(list, n, lo) - lo);
  }

  // The first entry of `n`'s run in list `key`, to update in place; null
  // when the run is empty.
  Entry* First(uint64_t key, uint64_t n) {
    auto it = lists_.find(key);
    if (it == lists_.end()) return nullptr;
    std::vector<Entry>& list = it->second;
    const size_t i = Lower(list, n);
    return i < list.size() && list[i].*kNumber == n ? &list[i] : nullptr;
  }

  // Erases `n`'s run from list `key`.
  void EraseRun(uint64_t key, uint64_t n) {
    auto it = lists_.find(key);
    if (it == lists_.end()) return;
    std::vector<Entry>& list = it->second;
    const size_t lo = Lower(list, n);
    list.erase(list.begin() + lo, list.begin() + Upper(list, n, lo));
    if (list.empty()) lists_.erase(it);
  }

  // Drops list `key` whole.
  void Drop(uint64_t key) { lists_.erase(key); }

 private:
  Span<const Entry> List(uint64_t key) const {
    auto it = lists_.find(key);
    if (it == lists_.end()) return {};
    return it->second;
  }

  // The position of the first entry numbered at least `n` (Lower), or
  // above `n` from position `from` on (Upper).
  static size_t Lower(Span<const Entry> list, uint64_t n) {
    return static_cast<size_t>(
        std::partition_point(list.begin(), list.end(),
                             [n](const Entry& e) { return e.*kNumber < n; }) -
        list.begin());
  }
  static size_t Upper(Span<const Entry> list, uint64_t n, size_t from = 0) {
    return static_cast<size_t>(
        std::partition_point(list.begin() + from, list.end(),
                             [n](const Entry& e) { return e.*kNumber <= n; }) -
        list.begin());
  }

  std::unordered_map<uint64_t, std::vector<Entry>> lists_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_CCONTROL_NUMBERED_LISTS_H_
