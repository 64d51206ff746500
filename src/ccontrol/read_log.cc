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
  switch (q.kind) {
    case ReadQueryKind::kViolation: {
      const Tgd& tgd = (*tgds_)[static_cast<size_t>(q.tgd_id)];
      for (RelationId r : tgd.all_relations()) {
        readers_by_relation_[r].insert(update_number);
      }
      break;
    }
    case ReadQueryKind::kMoreSpecific:
      readers_by_relation_[q.rel].insert(update_number);
      break;
    case ReadQueryKind::kNullOccurrence:
      readers_by_null_[q.null_value.id()].insert(update_number);
      break;
  }
  log.queries.push_back(std::move(q));
}

void ReadLog::EraseUpdate(uint64_t update_number) {
  auto it = logs_.find(update_number);
  if (it == logs_.end()) return;
  // Unregister from exactly the reader sets Record put the update in.
  // Emptied sets stay: a recreated set would iterate in another order, and
  // the candidate walk's order decides which doomed reader restarts first.
  auto unregister = [&](auto& index, auto key) {
    auto found = index.find(key);
    if (found != index.end()) found->second.erase(update_number);
  };
  for (const ReadQueryRecord& q : it->second.queries) {
    switch (q.kind) {
      case ReadQueryKind::kViolation:
        for (RelationId r :
             (*tgds_)[static_cast<size_t>(q.tgd_id)].all_relations()) {
          unregister(readers_by_relation_, r);
        }
        break;
      case ReadQueryKind::kMoreSpecific:
        unregister(readers_by_relation_, q.rel);
        break;
      case ReadQueryKind::kNullOccurrence:
        unregister(readers_by_null_, q.null_value.id());
        break;
    }
  }
  total_queries_ -= it->second.queries.size();
  logs_.erase(it);
}

bool ReadLog::MayTouch(const ReadQueryRecord& q, const PhysicalWrite& w) const {
  switch (q.kind) {
    case ReadQueryKind::kViolation: {
      const Tgd& tgd = (*tgds_)[static_cast<size_t>(q.tgd_id)];
      const auto& rels = tgd.all_relations();
      return std::find(rels.begin(), rels.end(), w.rel) != rels.end();
    }
    case ReadQueryKind::kMoreSpecific:
      return q.rel == w.rel;
    case ReadQueryKind::kNullOccurrence:
      return (!w.data.empty() && ContainsNull(w.data, q.null_value)) ||
             (!w.old_data.empty() && ContainsNull(w.old_data, q.null_value));
  }
  return false;
}

}  // namespace youtopia
