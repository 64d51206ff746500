#include "ccontrol/read_log.h"

#include <utility>

#include "util/hash.h"

namespace youtopia {

void ReadLog::Record(uint64_t update_number, ReadQueryRecord q) {
  // The factories stamp fingerprints at construction (violation queries
  // from their plan's precompiled shape hash); only hand-rolled records
  // pay the full rehash here.
  const uint64_t fp =
      q.fingerprint != 0 ? q.fingerprint : ReadQueryFingerprint(q);
  UpdateLog& log = logs_[update_number];
  const uint32_t pos = static_cast<uint32_t>(log.queries.size());
  // A fingerprint hit is a duplicate only if the full query matches: a
  // query dropped on a mere collision would never be checked again.
  for (const uint32_t logged : log.by_fingerprint.Find(fp)) {
    if (SameReadQuery(log.queries[logged], q)) return;  // duplicate
  }
  log.by_fingerprint.Add(fp, pos);
  ++total_queries_;
  const Entry entry{update_number, pos};
  ForEachListOf(q, [&](auto& lists, uint64_t key) { lists.Add(key, entry); });
  log.queries.push_back(std::move(q));
}

void ReadLog::EraseUpdate(uint64_t update_number) {
  auto it = logs_.find(update_number);
  if (it == logs_.end()) return;
  // The update's entries are one run of each list it entered; a list
  // reached again by a later query has none left, or is gone.
  for (const ReadQueryRecord& q : it->second.queries) {
    ForEachListOf(q, [&](auto& lists, uint64_t key) {
      lists.EraseRun(key, update_number);
    });
  }
  total_queries_ -= it->second.queries.size();
  logs_.erase(it);
}

}  // namespace youtopia
