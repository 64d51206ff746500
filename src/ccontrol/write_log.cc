#include "ccontrol/write_log.h"

#include <algorithm>

namespace youtopia {

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
  by_relation_.Add(w.rel, entry);
  ForEachDistinctNull(w,
                      [&](uint64_t null_id) { by_null_.Add(null_id, entry); });
}

void WriteLog::EraseUpdate(uint64_t update_number) {
  auto it = writes_by_update_.find(update_number);
  if (it == writes_by_update_.end()) return;
  // The update's entries are one run of each list it entered; a list
  // reached twice (two writes to one relation) has none left the second
  // time, or is gone.
  for (const PhysicalWrite& w : it->second) {
    by_relation_.EraseRun(w.rel, update_number);
    ForEachDistinctNull(w, [&](uint64_t null_id) {
      by_null_.EraseRun(null_id, update_number);
    });
  }
  writes_by_update_.erase(it);
}

size_t WriteLog::size() const {
  size_t n = 0;
  for (const auto& [update, writes] : writes_by_update_) n += writes.size();
  return n;
}

}  // namespace youtopia
