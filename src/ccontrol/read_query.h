#ifndef YOUTOPIA_CCONTROL_READ_QUERY_H_
#define YOUTOPIA_CCONTROL_READ_QUERY_H_

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "query/plan.h"
#include "relational/tuple.h"
#include "relational/value.h"
#include "util/hash.h"

namespace youtopia {

// Section 4.2: the reads a chase step performs are represented
// *intensionally*, as parameterized queries. They come in exactly three
// forms, which is what makes retroactive conflict checking tractable
// (Section 5):
//
//  * kViolation      — "which violations of tgd `tgd_id` involve the written
//                       tuple `pinned` (matched at atom `atom_index` of the
//                       LHS or RHS)?" — i.e. SELECT * FROM (LHS) WHERE NOT
//                       EXISTS (RHS) with bindings from the written tuple.
//  * kMoreSpecific   — "find any t' in `rel` more specific than `tuple`"
//                       (the first correction query, Section 4.2).
//  * kNullOccurrence — "find all tuples containing labeled null `null_value`"
//                       (the second correction query).
enum class ReadQueryKind : uint8_t {
  kViolation = 0,
  kMoreSpecific = 1,
  kNullOccurrence = 2,
};

// Maps the read class an invalidating probe hit to its doom-cause counter
// (the serial engine's probe records one per doomed reader).
inline obs::Counter DoomCauseCounter(ReadQueryKind k) {
  switch (k) {
    case ReadQueryKind::kViolation:
      return obs::Counter::kDoomReadViolation;
    case ReadQueryKind::kMoreSpecific:
      return obs::Counter::kDoomReadMoreSpecific;
    case ReadQueryKind::kNullOccurrence:
      return obs::Counter::kDoomReadNullOccurrence;
  }
  return obs::Counter::kDoomReadViolation;
}

struct ReadQueryRecord;

// Canonical fingerprint of a read query, the single definition both the
// factories below and the read log's fallback use (defined after the
// struct). Violation queries assemble the same value faster from their
// plan's precompiled shape half — see FinishViolationFingerprint.
inline uint64_t ReadQueryFingerprint(const ReadQueryRecord& q);

struct ReadQueryRecord {
  ReadQueryKind kind = ReadQueryKind::kViolation;

  // kViolation
  int tgd_id = -1;
  bool pinned_on_lhs = true;  // which side `atom_index` refers to
  // False when `pinned` cannot match its atom (a constant or a repeated
  // variable disagrees). Such a query answers nothing in every database,
  // so no write can change its answer: the read log lists it under no
  // relation and the PRECISE tracker tests no write against it. The
  // violation detector decides it while posing the query; hand-built
  // records keep the conservative default.
  bool pin_binds = true;
  size_t atom_index = 0;
  TupleData pinned;

  // kMoreSpecific
  RelationId rel = 0;
  TupleData tuple;

  // kNullOccurrence
  Value null_value;

  // Identity hash used by the read log for per-update deduplication and by
  // the violation detector to dedup re-posed queries within a batch. Both
  // confirm a hit against the full query (SameReadQuery's fields): distinct
  // queries can share a fingerprint. Filled by the factories (violation
  // queries carry the shape half precompiled into their plan — see
  // query/plan.h); 0 means "not computed" and makes consumers fall back to
  // ReadQueryFingerprint below.
  uint64_t fingerprint = 0;

  // Violation-query factory for callers holding a compiled plan: `fp` is
  // FinishViolationFingerprint(plan.shape_hash, tgd_id, pinned), computed
  // once where the content hash is unavoidable anyway.
  static ReadQueryRecord Violation(int tgd_id, bool pinned_on_lhs,
                                   size_t atom_index, TupleData pinned,
                                   uint64_t fp) {
    ReadQueryRecord r;
    r.kind = ReadQueryKind::kViolation;
    r.tgd_id = tgd_id;
    r.pinned_on_lhs = pinned_on_lhs;
    r.atom_index = atom_index;
    r.pinned = std::move(pinned);
    r.fingerprint = fp;
    return r;
  }
  static ReadQueryRecord Violation(int tgd_id, bool pinned_on_lhs,
                                   size_t atom_index, TupleData pinned) {
    const uint64_t fp = FinishViolationFingerprint(
        ViolationQueryShapeHash(pinned_on_lhs, atom_index), tgd_id, pinned);
    return Violation(tgd_id, pinned_on_lhs, atom_index, std::move(pinned), fp);
  }
  static ReadQueryRecord MoreSpecific(RelationId rel, TupleData tuple) {
    ReadQueryRecord r;
    r.kind = ReadQueryKind::kMoreSpecific;
    r.rel = rel;
    r.tuple = std::move(tuple);
    r.fingerprint = ReadQueryFingerprint(r);
    return r;
  }
  static ReadQueryRecord NullOccurrence(Value null_value) {
    ReadQueryRecord r;
    r.kind = ReadQueryKind::kNullOccurrence;
    r.null_value = null_value;
    r.fingerprint = ReadQueryFingerprint(r);
    return r;
  }
};

// Full identity of a read query, the fields its fingerprint hashes. A
// 64-bit fingerprint can collide, so a dedup that hits on the fingerprint
// confirms the hit with this before treating two queries as one.
inline bool SameReadQuery(const ReadQueryRecord& a, const ReadQueryRecord& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ReadQueryKind::kViolation:
      return a.tgd_id == b.tgd_id && a.pinned_on_lhs == b.pinned_on_lhs &&
             a.atom_index == b.atom_index && a.pinned == b.pinned;
    case ReadQueryKind::kMoreSpecific:
      return a.rel == b.rel && a.tuple == b.tuple;
    case ReadQueryKind::kNullOccurrence:
      return a.null_value == b.null_value;
  }
  return false;
}

inline uint64_t ReadQueryFingerprint(const ReadQueryRecord& q) {
  switch (q.kind) {
    case ReadQueryKind::kViolation:
      return FinishViolationFingerprint(
          ViolationQueryShapeHash(q.pinned_on_lhs, q.atom_index), q.tgd_id,
          q.pinned);
    case ReadQueryKind::kMoreSpecific: {
      size_t seed = static_cast<size_t>(q.kind);
      HashCombine(seed, q.rel);
      HashCombine(seed, TupleDataHash{}(q.tuple));
      return seed;
    }
    case ReadQueryKind::kNullOccurrence: {
      size_t seed = static_cast<size_t>(q.kind);
      HashCombine(seed, ValueHash{}(q.null_value));
      return seed;
    }
  }
  return 0;
}

}  // namespace youtopia

#endif  // YOUTOPIA_CCONTROL_READ_QUERY_H_
