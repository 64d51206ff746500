#include "obs/watchdog.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "util/lock_order.h"
#include "util/mutex.h"

namespace youtopia {
namespace obs {
namespace {

using std::chrono::milliseconds;

// Polls `pred` until it holds or `limit` passes.
bool EventuallyTrue(const std::function<bool()>& pred, milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(10));
  }
  return pred();
}

TEST(WatchdogTest, SilentWhileProgressAdvances) {
  std::atomic<uint64_t> progress{0};
  WatchdogOptions opts;
  opts.deadline_ms = 100;
  opts.poll_ms = 10;
  opts.progress = [&] { return progress.load(); };
  StallWatchdog dog(std::move(opts));
  dog.Start();
  for (int i = 0; i < 40; ++i) {
    progress.fetch_add(1);
    std::this_thread::sleep_for(milliseconds(10));
  }
  dog.Stop();
  EXPECT_EQ(dog.stalls_detected(), 0u);
}

TEST(WatchdogTest, SilentWhileIdle) {
  // A frozen counter with no work in flight is idleness, not a stall.
  WatchdogOptions opts;
  opts.deadline_ms = 50;
  opts.poll_ms = 10;
  opts.progress = [] { return uint64_t{7}; };
  opts.busy = [] { return false; };
  StallWatchdog dog(std::move(opts));
  dog.Start();
  std::this_thread::sleep_for(milliseconds(300));
  dog.Stop();
  EXPECT_EQ(dog.stalls_detected(), 0u);
}

TEST(WatchdogTest, FiresOnceOnStallAndRearmsAfterProgress) {
  std::atomic<uint64_t> progress{0};
  WatchdogOptions opts;
  opts.deadline_ms = 60;
  opts.poll_ms = 10;
  opts.progress = [&] { return progress.load(); };
  opts.busy = [] { return true; };
  StallWatchdog dog(std::move(opts));
  dog.Start();
  // Episode 1: frozen counter -> exactly one dump, however long it lasts.
  ASSERT_TRUE(EventuallyTrue([&] { return dog.stalls_detected() >= 1; },
                             milliseconds(3000)));
  std::this_thread::sleep_for(milliseconds(200));
  EXPECT_EQ(dog.stalls_detected(), 1u);
  // Progress resets the episode; a second freeze fires a second dump.
  progress.fetch_add(1);
  ASSERT_TRUE(EventuallyTrue([&] { return dog.stalls_detected() >= 2; },
                             milliseconds(3000)));
  dog.Stop();
}

TEST(WatchdogTest, ZeroDeadlineDisables) {
  WatchdogOptions opts;
  opts.deadline_ms = 0;
  opts.progress = [] { return uint64_t{0}; };
  StallWatchdog dog(std::move(opts));
  dog.Start();  // no-op
  dog.Stop();
  EXPECT_EQ(dog.stalls_detected(), 0u);
}

TEST(WatchdogTest, DumpContainsOwnerDiagnosticsAndLockSection) {
  WatchdogOptions opts;
  opts.deadline_ms = 1000;
  opts.progress = [] { return uint64_t{0}; };
  opts.name = "test-pipeline";
  opts.dump = [](std::string* out) {
    out->append("shard 1 worker: op=42 phase=exclusive\n");
  };
  StallWatchdog dog(std::move(opts));
  const std::string dump = dog.BuildDumpForTest();
  EXPECT_NE(dump.find("stall watchdog [test-pipeline]"), std::string::npos);
  EXPECT_NE(dump.find("op=42 phase=exclusive"), std::string::npos);
  EXPECT_NE(dump.find("held-lock stacks:"), std::string::npos);
}

#if YOUTOPIA_LOCK_ORDER_CHECKS
TEST(WatchdogTest, DumpReportsHeldLocksOfOtherThreads) {
  // A thread parked while holding a ranked lock must show up in the dump —
  // the whole point of the watchdog on a deadlocked pipeline.
  Mutex held_lock(LockRank::kLeaf, /*order_key=*/5);
  std::atomic<bool> locked{false}, release{false};
  std::thread holder([&] {
    MutexLock lock(held_lock);
    locked.store(true);
    while (!release.load()) std::this_thread::sleep_for(milliseconds(5));
  });
  while (!locked.load()) std::this_thread::sleep_for(milliseconds(5));

  WatchdogOptions opts;
  opts.deadline_ms = 1000;
  opts.progress = [] { return uint64_t{0}; };
  StallWatchdog dog(std::move(opts));
  const std::string dump = dog.BuildDumpForTest();
  EXPECT_NE(dump.find("rank=leaf"), std::string::npos) << dump;
  EXPECT_NE(dump.find("key=5"), std::string::npos) << dump;

  release.store(true);
  holder.join();
}
#endif  // YOUTOPIA_LOCK_ORDER_CHECKS

TEST(WatchdogDeathTest, FatalStallDumpsPhasesAndAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A synthetic stall with worker-phase diagnostics and (checked builds) a
  // held ranked lock: the fatal watchdog must print the attributed dump and
  // abort — the contract that turns a hung sanitizer run into a failure
  // with a cause attached.
  EXPECT_DEATH(
      {
        Mutex held_lock(LockRank::kLeaf, /*order_key=*/9);
        std::atomic<bool> locked{false};
        std::thread holder([&] {
          MutexLock lock(held_lock);
          locked.store(true);
          // Hold across the abort; the child process dies here.
          std::this_thread::sleep_for(std::chrono::seconds(60));
        });
        while (!locked.load()) {
          std::this_thread::sleep_for(milliseconds(5));
        }
        WatchdogOptions opts;
        opts.deadline_ms = 50;
        opts.poll_ms = 10;
        opts.progress = [] { return uint64_t{123}; };
        opts.busy = [] { return true; };
        opts.fatal = true;
        opts.name = "death-test";
        opts.dump = [](std::string* out) {
          out->append("shard 0 worker: op=77 phase=exclusive\n");
        };
        StallWatchdog dog(std::move(opts));
        dog.Start();
        std::this_thread::sleep_for(std::chrono::seconds(30));
      },
      "no progress for 50 ms.*stuck at 123"
      "(.|\n)*stall watchdog \\[death-test\\]"
      "(.|\n)*op=77 phase=exclusive"
      "(.|\n)*held-lock stacks:");
}

}  // namespace
}  // namespace obs
}  // namespace youtopia
