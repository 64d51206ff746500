#ifndef YOUTOPIA_CORE_STANDARD_CHASE_H_
#define YOUTOPIA_CORE_STANDARD_CHASE_H_

#include <cstdint>
#include <vector>

#include "core/violation_detector.h"
#include "relational/database.h"
#include "tgd/tgd.h"
#include "util/status.h"

namespace youtopia {

// The classical (restricted) tgd chase, as used by standard update-exchange
// systems (Fagin et al.; Orchestra): whenever a violation exists, insert the
// instantiated RHS with fresh labeled nulls — immediately, completely and
// without asking anyone. This is the baseline Youtopia's cooperative chase
// is contrasted with (Section 1.3): it requires acyclicity restrictions for
// termination, which this implementation makes explicit via the
// weak-acyclicity guard and a step cap.
class StandardChase {
 public:
  struct Options {
    size_t max_steps = 1u << 20;
    // When set, Run() refuses to start on a non-weakly-acyclic tgd set
    // instead of relying on the step cap.
    bool require_weak_acyclicity = false;
  };

  struct Report {
    size_t firings = 0;       // tgd firings performed
    size_t tuples_added = 0;  // tuples inserted
    bool completed = false;   // false iff the step cap was hit
  };

  StandardChase(Database* db, const std::vector<Tgd>* tgds)
      : db_(db), tgds_(tgds), detector_(tgds) {}

  // Chases all current violations to completion on behalf of
  // `update_number`.
  Result<Report> Run(uint64_t update_number, const Options& options);
  Result<Report> Run(uint64_t update_number) {
    return Run(update_number, Options());
  }

 private:
  Database* db_;
  const std::vector<Tgd>* tgds_;
  ViolationDetector detector_;
  // Strided adaptive re-planning poll (see Run() and plan.h).
  ReplanPoller replan_poller_;
};

}  // namespace youtopia

#endif  // YOUTOPIA_CORE_STANDARD_CHASE_H_
