#include "ccontrol/read_log.h"

#include <algorithm>

#include "util/hash.h"

namespace youtopia {

void ReadLog::Record(uint64_t update_number, ReadQueryRecord q) {
  // The factories stamp fingerprints at construction (violation queries
  // from their plan's precompiled shape hash); only hand-rolled records
  // pay the full rehash here.
  const uint64_t fp =
      q.fingerprint != 0 ? q.fingerprint : ReadQueryFingerprint(q);
  UpdateLog& log = logs_[update_number];
  // A fingerprint hit is a duplicate only if the full query matches: a
  // query dropped on a mere collision would never be checked again.
  for (auto [it, end] = log.by_fingerprint.equal_range(fp); it != end; ++it) {
    if (SameReadQuery(log.queries[it->second], q)) return;  // duplicate
  }
  log.by_fingerprint.emplace(fp, log.queries.size());
  ++total_queries_;
  // After the reader's earlier entries, before any higher reader's.
  const Entry entry{update_number, static_cast<uint32_t>(log.queries.size())};
  ForEachListOf(q, [&](Index& index, uint64_t key) {
    std::vector<Entry>& entries = index[key];
    entries.insert(std::partition_point(entries.begin(), entries.end(),
                                        [&](const Entry& e) {
                                          return e.reader <= update_number;
                                        }),
                   entry);
  });
  log.queries.push_back(std::move(q));
}

Span<const ReadLog::Entry> ReadLog::Above(const Index& index, uint64_t key,
                                          uint64_t writer) {
  auto it = index.find(key);
  if (it == index.end()) return {};
  const std::vector<Entry>& entries = it->second;
  const auto begin = std::partition_point(
      entries.begin(), entries.end(),
      [&](const Entry& e) { return e.reader <= writer; });
  return Span<const Entry>(entries.data() + (begin - entries.begin()),
                           static_cast<size_t>(entries.end() - begin));
}

void ReadLog::EraseUpdate(uint64_t update_number) {
  auto it = logs_.find(update_number);
  if (it == logs_.end()) return;
  // The update's entries are one run of each list it entered; a list
  // reached again by a later query has none left, or is gone.
  for (const ReadQueryRecord& q : it->second.queries) {
    ForEachListOf(q, [&](Index& index, uint64_t key) {
      auto found = index.find(key);
      if (found == index.end()) return;
      std::vector<Entry>& entries = found->second;
      const auto lo = std::partition_point(
          entries.begin(), entries.end(),
          [&](const Entry& e) { return e.reader < update_number; });
      const auto hi = std::partition_point(
          lo, entries.end(),
          [&](const Entry& e) { return e.reader == update_number; });
      entries.erase(lo, hi);
      if (entries.empty()) index.erase(found);
    });
  }
  total_queries_ -= it->second.queries.size();
  logs_.erase(it);
}

}  // namespace youtopia
