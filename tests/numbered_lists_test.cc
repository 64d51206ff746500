#include "ccontrol/numbered_lists.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace youtopia {
namespace {

struct Item {
  uint64_t update;
  int tag;
};
using Lists = NumberedLists<Item, &Item::update>;

using Pairs = std::vector<std::pair<uint64_t, int>>;

// The (update, tag) pairs of a span, in order.
Pairs Of(Span<const Item> items) {
  Pairs out;
  for (const Item& i : items) out.emplace_back(i.update, i.tag);
  return out;
}

// List 7 holds updates 2, 2, 5, 9 as tags 20, 21, 50, 90.
Lists Sample() {
  Lists lists;
  lists.Add(7, Item{5, 50});
  lists.Add(7, Item{2, 20});
  lists.Add(7, Item{9, 90});
  lists.Add(7, Item{2, 21});
  return lists;
}

TEST(NumberedListsTest, InterleavedAddsKeepRunsContiguousInInsertionOrder) {
  Lists lists;
  const Item adds[] = {{3, 0}, {1, 1}, {3, 2}, {2, 3}, {1, 4}, {3, 5}, {2, 6}};
  for (const Item& i : adds) {
    lists.Add(7, i);
    lists.Add(8, Item{i.update, i.tag + 10});
  }
  EXPECT_EQ(Of(lists.Above(7, 0)),
            (Pairs{{1, 1}, {1, 4}, {2, 3}, {2, 6}, {3, 0}, {3, 2}, {3, 5}}));
  EXPECT_EQ(Of(lists.Run(8, 3)), (Pairs{{3, 10}, {3, 12}, {3, 15}}));
}

TEST(NumberedListsTest, BelowAboveAndRunSpans) {
  const Lists lists = Sample();
  const Pairs all{{2, 20}, {2, 21}, {5, 50}, {9, 90}};
  // Below n: before, at, between and beyond the stored numbers.
  EXPECT_TRUE(lists.Below(7, 1).empty());
  EXPECT_TRUE(lists.Below(7, 2).empty());
  EXPECT_EQ(Of(lists.Below(7, 3)), (Pairs{{2, 20}, {2, 21}}));
  EXPECT_EQ(Of(lists.Below(7, 5)), (Pairs{{2, 20}, {2, 21}}));
  EXPECT_EQ(Of(lists.Below(7, 9)), (Pairs{{2, 20}, {2, 21}, {5, 50}}));
  EXPECT_EQ(Of(lists.Below(7, 100)), all);
  // Above n.
  EXPECT_EQ(Of(lists.Above(7, 1)), all);
  EXPECT_EQ(Of(lists.Above(7, 2)), (Pairs{{5, 50}, {9, 90}}));
  EXPECT_EQ(Of(lists.Above(7, 6)), (Pairs{{9, 90}}));
  EXPECT_TRUE(lists.Above(7, 9).empty());
  EXPECT_TRUE(lists.Above(7, 100).empty());
  // The run of n.
  EXPECT_EQ(Of(lists.Run(7, 2)), (Pairs{{2, 20}, {2, 21}}));
  EXPECT_EQ(Of(lists.Run(7, 9)), (Pairs{{9, 90}}));
  EXPECT_TRUE(lists.Run(7, 1).empty());
  EXPECT_TRUE(lists.Run(7, 3).empty());
  EXPECT_TRUE(lists.Run(7, 100).empty());
  // A key with no list.
  EXPECT_TRUE(lists.Below(8, 100).empty());
  EXPECT_TRUE(lists.Above(8, 0).empty());
  EXPECT_TRUE(lists.Run(8, 2).empty());
}

TEST(NumberedListsTest, EraseRunLeavesTheOtherRuns) {
  Lists lists = Sample();
  lists.Add(8, Item{5, 51});
  lists.EraseRun(7, 5);
  EXPECT_EQ(Of(lists.Above(7, 0)), (Pairs{{2, 20}, {2, 21}, {9, 90}}));
  EXPECT_EQ(Of(lists.Run(8, 5)), (Pairs{{5, 51}}));
  // No run, or no list: nothing changes.
  lists.EraseRun(7, 4);
  lists.EraseRun(9, 2);
  EXPECT_EQ(Of(lists.Above(7, 0)), (Pairs{{2, 20}, {2, 21}, {9, 90}}));
  lists.EraseRun(7, 2);
  EXPECT_EQ(Of(lists.Above(7, 0)), (Pairs{{9, 90}}));
}

TEST(NumberedListsTest, ErasingTheLastRunDropsTheList) {
  Lists lists = Sample();
  lists.Add(8, Item{4, 40});
  for (uint64_t n : {2, 5, 9}) lists.EraseRun(7, n);
  EXPECT_TRUE(lists.Above(7, 0).empty());
  EXPECT_FALSE(lists.empty());  // list 8 is left
  lists.EraseRun(8, 4);
  EXPECT_TRUE(lists.empty());
  // Drop removes a list whole.
  lists.Add(3, Item{1, 10});
  lists.Add(3, Item{6, 60});
  EXPECT_FALSE(lists.empty());
  lists.Drop(3);
  EXPECT_TRUE(lists.empty());
}

TEST(NumberedListsTest, FirstOfRunFindsAndMisses) {
  Lists lists = Sample();
  Item* first = lists.First(7, 2);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->tag, 20);
  first->tag = 22;  // updated in place
  EXPECT_EQ(Of(lists.Run(7, 2)), (Pairs{{2, 22}, {2, 21}}));
  ASSERT_NE(lists.First(7, 9), nullptr);
  EXPECT_EQ(lists.First(7, 9)->tag, 90);
  EXPECT_EQ(lists.First(7, 1), nullptr);
  EXPECT_EQ(lists.First(7, 3), nullptr);
  EXPECT_EQ(lists.First(7, 100), nullptr);
  EXPECT_EQ(lists.First(8, 2), nullptr);
}

}  // namespace
}  // namespace youtopia
