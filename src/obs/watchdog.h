#ifndef YOUTOPIA_OBS_WATCHDOG_H_
#define YOUTOPIA_OBS_WATCHDOG_H_

// Stall watchdog: a monitor thread that watches a monotonically increasing
// progress counter (committed/retired ops) and, when the counter freezes
// for longer than the deadline WHILE work is in flight, writes a full
// diagnostic snapshot to stderr — the owner's dump callback (inbox depths,
// worker phases) plus, in checked builds, every
// thread's held-lock stack from the LockOrderValidator. With `fatal` set
// it then aborts, turning a silent CI hang into a loud, attributed crash
// (the open SerializabilityTest heisenbug on the ROADMAP).
//
// One dump per stall episode: after dumping, the watchdog stays quiet
// until progress moves again. Idle (not busy) periods never count toward
// the deadline.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace youtopia {
namespace obs {

struct WatchdogOptions {
  // Stall threshold. 0 disables the watchdog (Start() is a no-op).
  uint64_t deadline_ms = 30000;
  // Progress re-check cadence.
  uint64_t poll_ms = 250;
  // Monotonically increasing progress counter (e.g. ops retired).
  std::function<uint64_t()> progress;
  // True while work is in flight. Optional: when unset, the watchdog
  // assumes always-busy (a frozen counter is always suspicious).
  std::function<bool()> busy;
  // Appends owner-specific diagnostics to *out. Optional. Must not
  // acquire any ranked lock above leaf (it runs on the monitor thread
  // with nothing held).
  std::function<void(std::string*)> dump;
  // Label prefixed to the dump so overlapping dumps are attributable.
  std::string name = "pipeline";
  // Abort the process after the first dump (CI/death-test mode).
  bool fatal = false;
};

class StallWatchdog {
 public:
  explicit StallWatchdog(WatchdogOptions options);
  ~StallWatchdog();

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  // Idempotent. No-op when deadline_ms == 0 or no progress callback.
  void Start();
  // Joins the monitor thread. Idempotent; called by the destructor.
  void Stop();

  uint64_t stalls_detected() const {
    return stalls_.load(std::memory_order_relaxed);
  }

  // Builds the diagnostic snapshot exactly as a stall would print it
  // (owner dump + held-lock stacks). Exposed for tests.
  std::string BuildDumpForTest() const { return BuildDump(); }

 private:
  void Loop();
  std::string BuildDump() const;

  WatchdogOptions options_;
  // Monitor-internal lock: terminal, never acquires anything while held.
  mutable Mutex mu_{LockRank::kUnranked};
  CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  bool started_ = false;
  std::atomic<uint64_t> stalls_{0};
  std::thread thread_;
};

}  // namespace obs
}  // namespace youtopia

#endif  // YOUTOPIA_OBS_WATCHDOG_H_
