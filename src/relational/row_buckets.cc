#include "relational/row_buckets.h"

#include <algorithm>
#include <utility>

namespace youtopia {

size_t RowBuckets::Add(uint64_t key, RowId row) {
  if (slots_.empty()) Grow();
  size_t i = Locate(key);
  if (slots_[i].count == 0) {
    // A new key; double the array first if it would pass 3/4 full.
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Grow();
      i = Locate(key);
    }
    slots_[i] = Slot{key, 1, row};
    ++size_;
    ++entries_;
    return 1;
  }
  Slot& s = slots_[i];
  if (s.count == 1) {
    if (s.row_or_list == row) return 0;
    // Spill: the bucket moves to a list, recycled if one is free.
    uint32_t list;
    if (free_lists_.empty()) {
      list = static_cast<uint32_t>(lists_.size());
      lists_.emplace_back();
    } else {
      list = free_lists_.back();
      free_lists_.pop_back();
    }
    lists_[list].push_back(std::min(s.row_or_list, row));
    lists_[list].push_back(std::max(s.row_or_list, row));
    s.row_or_list = list;
  } else {
    // A new row appends (row ids grow); a modify of an older row inserts
    // in order.
    std::vector<RowId>& rows = lists_[s.row_or_list];
    if (rows.back() < row) {
      rows.push_back(row);
    } else {
      const auto it = std::lower_bound(rows.begin(), rows.end(), row);
      if (*it == row) return 0;
      rows.insert(it, row);
    }
  }
  ++entries_;
  return ++s.count;
}

bool RowBuckets::Remove(uint64_t key, RowId row, size_t* size) {
  if (size_ == 0) return false;
  const size_t i = Locate(key);
  Slot& s = slots_[i];
  if (s.count == 0) return false;
  if (s.count == 1) {
    if (s.row_or_list != row) return false;
    EraseSlot(i);
    --size_;
    --entries_;
    *size = 0;
    return true;
  }
  std::vector<RowId>& rows = lists_[s.row_or_list];
  const auto it = std::lower_bound(rows.begin(), rows.end(), row);
  if (it == rows.end() || *it != row) return false;
  rows.erase(it);
  --entries_;
  if (--s.count == 1) {
    // Back inline: the list is emptied and recycled.
    free_lists_.push_back(s.row_or_list);
    s.row_or_list = rows.front();
    rows.clear();
  }
  *size = s.count;
  return true;
}

void RowBuckets::Grow() {
  std::vector<Slot> old = std::move(slots_);
  const size_t slots = old.empty() ? 8 : old.size() * 2;  // 8 to start
  slots_.assign(slots, Slot{});
  shift_ = 64;
  for (size_t n = slots; n > 1; n >>= 1) --shift_;
  for (const Slot& s : old) {
    if (s.count != 0) slots_[Locate(s.key)] = s;
  }
}

void RowBuckets::EraseSlot(size_t hole) {
  const size_t mask = slots_.size() - 1;
  for (size_t j = (hole + 1) & mask; slots_[j].count != 0;
       j = (j + 1) & mask) {
    // The slot at j may move back into the hole when the hole lies on its
    // probe path, i.e. no further from j than its home slot is.
    const size_t home = Home(slots_[j].key);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].count = 0;
}

}  // namespace youtopia
