#ifndef YOUTOPIA_UTIL_LOCK_ORDER_H_
#define YOUTOPIA_UTIL_LOCK_ORDER_H_

// Runtime lock-order validator for the documented lock hierarchy
// (ROADMAP "Threading model"):
//
//     component lock (0)  >  leaf (1)
//
// Locks must be acquired in strictly descending hierarchy order
// (ascending rank number) per thread, with two refinements:
//   - Acquiring a lock of the SAME rank as one already held is an
//     inversion, except for component locks, which may stack if their
//     keys (component ids) are strictly ascending — exactly the
//     cross-shard batch protocol.
//   - Re-acquiring the SAME lock object recursively is always fatal.
//
// The validator keeps a per-thread stack of held locks and aborts
// *before* blocking on a would-be-inverted acquisition, so an engineered
// deadlock dies loudly instead of hanging. Releases may be out of LIFO
// order (the cross-batch path releases its ordered lock vector
// wholesale), so OnRelease searches by lock identity.
//
// The stacks are registered in a process-wide table so the stall
// watchdog can dump EVERY thread's held locks from its monitor thread
// (DumpAllHeldLocks) — each stack is protected by its own std::mutex,
// touched uncontended on the owner's fast path and cross-thread only by
// a dump. The innermost entry of a stack may be a lock the thread is
// still *blocked acquiring* (OnAcquire runs before the block, by
// design), which is exactly what a deadlock dump wants to show.
//
// Compiled out unless YOUTOPIA_LOCK_ORDER_CHECKS=1, which the build sets
// globally (forced ON in the asan/tsan presets) — the macro is a CMake
// option applied to every TU, never a per-file define, so there is no
// ODR hazard.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

namespace youtopia {

// Lower numeric value = acquired earlier (outermost). Ranks mirror the
// ROADMAP hierarchy; kUnranked locks are invisible to the validator (the
// terminal observability mutexes, which never acquire anything while
// held).
enum class LockRank : uint8_t {
  kComponentLock = 0,
  kLeaf = 1,
  kUnranked = 255,
};

inline const char* LockRankName(LockRank r) {
  switch (r) {
    case LockRank::kComponentLock: return "component";
    case LockRank::kLeaf: return "leaf";
    case LockRank::kUnranked: return "unranked";
  }
  return "?";
}

#ifndef YOUTOPIA_LOCK_ORDER_CHECKS
#define YOUTOPIA_LOCK_ORDER_CHECKS 0
#endif

#if YOUTOPIA_LOCK_ORDER_CHECKS

namespace lock_order_internal {

struct Held {
  const void* lock;
  LockRank rank;
  uint64_t key;
};

// One registered stack per live thread. The owner thread takes `mu`
// uncontended on every acquire/release; the watchdog's dump is the only
// cross-thread reader.
struct ThreadEntry {
  explicit ThreadEntry(uint64_t id) : tid(id) {}
  const uint64_t tid;
  std::mutex mu;
  std::vector<Held> stack;  // guarded by mu
};

// Function-local statics: constructed on first use, before any TlsHandle
// that will touch them in its destructor.
inline std::mutex& RegistryMu() {
  static std::mutex mu;
  return mu;
}
inline std::vector<ThreadEntry*>& Registry() {
  static std::vector<ThreadEntry*> entries;
  return entries;
}
inline std::atomic<uint64_t>& NextTid() {
  static std::atomic<uint64_t> next{1};
  return next;
}

// Registers this thread's entry for its lifetime; deregisters (and frees)
// on thread exit, so a dump never walks a dead thread's stack.
struct TlsHandle {
  ThreadEntry* entry;
  TlsHandle()
      : entry(new ThreadEntry(
            NextTid().fetch_add(1, std::memory_order_relaxed))) {
    std::lock_guard<std::mutex> g(RegistryMu());
    Registry().push_back(entry);
  }
  ~TlsHandle() {
    {
      std::lock_guard<std::mutex> g(RegistryMu());
      auto& r = Registry();
      r.erase(std::remove(r.begin(), r.end(), entry), r.end());
    }
    delete entry;
  }
};

inline ThreadEntry& MyEntry() {
  static thread_local TlsHandle handle;
  return *handle.entry;
}

[[noreturn]] inline void Fatal(const char* what, const void* lock,
                               LockRank rank, uint64_t key, LockRank held_rank,
                               uint64_t held_key) {
  std::fprintf(stderr,
               "lock-order violation: %s (lock %p rank %u key %llu; "
               "innermost held rank %u key %llu); hierarchy is "
               "component(0) > leaf(1)\n",
               what, lock, static_cast<unsigned>(rank),
               static_cast<unsigned long long>(key),
               static_cast<unsigned>(held_rank),
               static_cast<unsigned long long>(held_key));
  std::abort();
}

}  // namespace lock_order_internal

class LockOrderValidator {
 public:
  // Call immediately BEFORE blocking on the acquisition, so an ordering
  // violation aborts instead of deadlocking. `key` disambiguates locks
  // of the same rank (component id for component locks; 0 otherwise).
  static void OnAcquire(const void* lock, LockRank rank, uint64_t key) {
    if (rank == LockRank::kUnranked) return;
    auto& entry = lock_order_internal::MyEntry();
    std::lock_guard<std::mutex> g(entry.mu);
    auto& stack = entry.stack;
    for (const auto& h : stack) {
      if (h.lock == lock) {
        lock_order_internal::Fatal("recursive acquisition", lock, rank, key,
                                   h.rank, h.key);
      }
    }
    if (!stack.empty()) {
      const auto& top = stack.back();
      if (rank == LockRank::kComponentLock &&
          top.rank == LockRank::kComponentLock) {
        if (key <= top.key) {
          lock_order_internal::Fatal(
              "component locks must be acquired in ascending component order",
              lock, rank, key, top.rank, top.key);
        }
      } else if (static_cast<uint8_t>(rank) <= static_cast<uint8_t>(top.rank)) {
        lock_order_internal::Fatal("rank inversion", lock, rank, key, top.rank,
                                   top.key);
      }
    }
    stack.push_back({lock, rank, key});
  }

  static void OnRelease(const void* lock, LockRank rank) {
    if (rank == LockRank::kUnranked) return;
    auto& entry = lock_order_internal::MyEntry();
    std::lock_guard<std::mutex> g(entry.mu);
    auto& stack = entry.stack;
    // Releases may be non-LIFO (ordered cross-batch lock vectors), so
    // search from the most recent hold.
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->lock == lock) {
        stack.erase(std::next(it).base());
        return;
      }
    }
    lock_order_internal::Fatal("releasing a lock this thread does not hold",
                               lock, rank, 0, LockRank::kUnranked, 0);
  }

  static size_t HeldCountForTest() {
    auto& entry = lock_order_internal::MyEntry();
    std::lock_guard<std::mutex> g(entry.mu);
    return entry.stack.size();
  }

  // Appends every live thread's held-lock stack to *out (the stall
  // watchdog's diagnostic dump). Safe to call from any thread, including
  // while other threads are blocked mid-acquisition.
  static void DumpAllHeldLocks(std::string* out) {
    std::lock_guard<std::mutex> g(lock_order_internal::RegistryMu());
    bool any = false;
    for (lock_order_internal::ThreadEntry* entry :
         lock_order_internal::Registry()) {
      std::lock_guard<std::mutex> eg(entry->mu);
      if (entry->stack.empty()) continue;
      any = true;
      char line[128];
      std::snprintf(line, sizeof(line),
                    "  thread %llu holds %zu lock(s), outermost first:\n",
                    static_cast<unsigned long long>(entry->tid),
                    entry->stack.size());
      *out += line;
      for (const auto& h : entry->stack) {
        std::snprintf(line, sizeof(line), "    %p rank=%s key=%llu\n",
                      h.lock, LockRankName(h.rank),
                      static_cast<unsigned long long>(h.key));
        *out += line;
      }
    }
    if (!any) *out += "  no ranked locks held by any thread\n";
  }
};

#else  // !YOUTOPIA_LOCK_ORDER_CHECKS

class LockOrderValidator {
 public:
  static void OnAcquire(const void*, LockRank, uint64_t) {}
  static void OnRelease(const void*, LockRank) {}
  static size_t HeldCountForTest() { return 0; }
  static void DumpAllHeldLocks(std::string* out) {
    *out += "  (lock-order checks compiled out; rebuild with "
            "-DYOUTOPIA_LOCK_ORDER_CHECKS=ON for held-lock stacks)\n";
  }
};

#endif  // YOUTOPIA_LOCK_ORDER_CHECKS

}  // namespace youtopia

#endif  // YOUTOPIA_UTIL_LOCK_ORDER_H_
