// Death tests for the runtime lock-order validator (util/lock_order.h).
//
// The validator is compiled in only when YOUTOPIA_LOCK_ORDER_CHECKS=1 (the
// asan/tsan presets force it on); under a plain release build these tests
// reduce to a single check that the no-op stub stays a no-op.

#include <gtest/gtest.h>

#include "util/lock_order.h"
#include "util/mutex.h"

namespace youtopia {
namespace {

#if YOUTOPIA_LOCK_ORDER_CHECKS

// The documented hierarchy, outermost to innermost, must pass untouched.
TEST(LockOrderTest, FullHierarchyChainIsAccepted) {
  Mutex comp(LockRank::kComponentLock, 0);
  Mutex leaf{LockRank::kLeaf};
  {
    MutexLock c(comp);
    MutexLock f(leaf);
    EXPECT_EQ(LockOrderValidator::HeldCountForTest(), 2u);
  }
  EXPECT_EQ(LockOrderValidator::HeldCountForTest(), 0u);
}

// Component locks stack when keys ascend — the cross-shard batch protocol.
TEST(LockOrderTest, AscendingComponentStackingIsAccepted) {
  Mutex a(LockRank::kComponentLock, 0);
  Mutex b(LockRank::kComponentLock, 3);
  Mutex c(LockRank::kComponentLock, 7);
  MutexLock la(a);
  MutexLock lb(b);
  MutexLock lc(c);
  EXPECT_EQ(LockOrderValidator::HeldCountForTest(), 3u);
}

// The cross-batch path releases its ordered lock vector wholesale, which
// is not LIFO; the validator must track identity, not stack position.
TEST(LockOrderTest, NonLifoReleaseIsTracked) {
  Mutex a(LockRank::kComponentLock, 0);
  Mutex b(LockRank::kComponentLock, 1);
  a.lock();
  b.lock();
  a.unlock();  // out of LIFO order
  EXPECT_EQ(LockOrderValidator::HeldCountForTest(), 1u);
  b.unlock();
  EXPECT_EQ(LockOrderValidator::HeldCountForTest(), 0u);
}

// Unranked locks (the terminal obs mutexes) stay invisible.
TEST(LockOrderTest, UnrankedLocksAreInvisible) {
  Mutex unranked{LockRank::kUnranked};
  MutexLock l(unranked);
  EXPECT_EQ(LockOrderValidator::HeldCountForTest(), 0u);
}

// Taking a component lock while holding a leaf reverses the hierarchy and
// must die before blocking.
TEST(LockOrderDeathTest, ComponentLockAfterLeafAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex leaf{LockRank::kLeaf};
        Mutex comp(LockRank::kComponentLock, 0);
        MutexLock inner(leaf);
        comp.lock();
      },
      "lock-order violation: rank inversion");
}

TEST(LockOrderDeathTest, RecursiveAcquisitionAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex leaf{LockRank::kLeaf};
        leaf.lock();
        leaf.lock();
      },
      "lock-order violation: recursive acquisition");
}

TEST(LockOrderDeathTest, DescendingComponentKeysAbort) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex a(LockRank::kComponentLock, 5);
        Mutex b(LockRank::kComponentLock, 2);
        a.lock();
        b.lock();
      },
      "ascending component order");
}

TEST(LockOrderDeathTest, ReleasingUnheldLockAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex comp(LockRank::kComponentLock, 0);
        LockOrderValidator::OnRelease(&comp, LockRank::kComponentLock);
      },
      "does not hold");
}

#else  // !YOUTOPIA_LOCK_ORDER_CHECKS

TEST(LockOrderTest, ValidatorCompiledOutIsNoOp) {
  Mutex leaf{LockRank::kLeaf};
  MutexLock l(leaf);
  EXPECT_EQ(LockOrderValidator::HeldCountForTest(), 0u);
}

#endif  // YOUTOPIA_LOCK_ORDER_CHECKS

}  // namespace
}  // namespace youtopia
