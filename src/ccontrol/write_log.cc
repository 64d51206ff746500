#include "ccontrol/write_log.h"

#include <algorithm>

namespace youtopia {

Span<const WriteLog::Entry> WriteLog::Below(const Index& index, uint64_t key,
                                            uint64_t before) {
  auto it = index.find(key);
  if (it == index.end()) return {};
  const std::vector<Entry>& entries = it->second;
  const auto end = std::partition_point(
      entries.begin(), entries.end(),
      [&](const Entry& e) { return e.writer < before; });
  return Span<const Entry>(entries.data(),
                           static_cast<size_t>(end - entries.begin()));
}

Span<const WriteLog::Entry> WriteLog::WritesBy(uint64_t writer,
                                               RelationId rel) const {
  auto it = by_relation_.find(rel);
  if (it == by_relation_.end()) return {};
  const std::vector<Entry>& entries = it->second;
  const auto lo = std::partition_point(
      entries.begin(), entries.end(),
      [&](const Entry& e) { return e.writer < writer; });
  const auto hi = std::partition_point(
      lo, entries.end(), [&](const Entry& e) { return e.writer == writer; });
  return Span<const Entry>(entries.data() + (lo - entries.begin()),
                           static_cast<size_t>(hi - lo));
}

template <typename Fn>
void WriteLog::ForEachDistinctNull(const PhysicalWrite& w, Fn&& fn) {
  nulls_scratch_.clear();
  for (const TupleData* data : {&w.data, &w.old_data}) {
    for (const Value& v : *data) {
      if (!v.is_null() ||
          std::find(nulls_scratch_.begin(), nulls_scratch_.end(), v.id()) !=
              nulls_scratch_.end()) {
        continue;
      }
      nulls_scratch_.push_back(v.id());
      fn(v.id());
    }
  }
}

void WriteLog::Record(uint64_t update_number, const PhysicalWrite& w) {
  std::vector<PhysicalWrite>& writes = writes_by_update_[update_number];
  writes.push_back(w);
  const Entry entry{update_number, next_seq_++, &writes,
                    static_cast<uint32_t>(writes.size() - 1)};
  // After the writer's earlier writes, before any higher writer's.
  auto list = [&](std::vector<Entry>& entries) {
    entries.insert(std::partition_point(entries.begin(), entries.end(),
                                        [&](const Entry& e) {
                                          return e.writer <= update_number;
                                        }),
                   entry);
  };
  list(by_relation_[w.rel]);
  ForEachDistinctNull(w, [&](uint64_t null_id) { list(by_null_[null_id]); });
}

void WriteLog::EraseUpdate(uint64_t update_number) {
  auto it = writes_by_update_.find(update_number);
  if (it == writes_by_update_.end()) return;
  // The update's entries are one run of each list it entered; a list
  // reached twice (two writes to one relation) has none left the second
  // time, or is gone.
  auto unlist = [&](Index& index, uint64_t key) {
    auto found = index.find(key);
    if (found == index.end()) return;
    std::vector<Entry>& entries = found->second;
    const auto lo = std::partition_point(
        entries.begin(), entries.end(),
        [&](const Entry& e) { return e.writer < update_number; });
    const auto hi = std::partition_point(
        lo, entries.end(),
        [&](const Entry& e) { return e.writer == update_number; });
    entries.erase(lo, hi);
    if (entries.empty()) index.erase(found);
  };
  for (const PhysicalWrite& w : it->second) {
    unlist(by_relation_, w.rel);
    ForEachDistinctNull(w,
                        [&](uint64_t null_id) { unlist(by_null_, null_id); });
  }
  writes_by_update_.erase(it);
}

size_t WriteLog::size() const {
  size_t n = 0;
  for (const auto& [update, writes] : writes_by_update_) n += writes.size();
  return n;
}

}  // namespace youtopia
