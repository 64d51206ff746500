#include "ccontrol/write_log.h"

namespace youtopia {

void WriteLog::EraseUpdate(uint64_t update_number) {
  auto it = writes_by_update_.find(update_number);
  if (it == writes_by_update_.end()) return;
  for (const PhysicalWrite& w : it->second) {
    auto rel_it = writers_by_relation_.find(w.rel);
    if (rel_it != writers_by_relation_.end()) {
      rel_it->second.erase(update_number);
    }
  }
  writes_by_update_.erase(it);
}

size_t WriteLog::size() const {
  size_t n = 0;
  for (const auto& [update, writes] : writes_by_update_) n += writes.size();
  return n;
}

}  // namespace youtopia
