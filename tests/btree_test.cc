#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "btree/btree.h"
#include "btree/btree_traits.h"
#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace peb {
namespace {

// ---------------------------------------------------------------------------
// Structural tests with tiny fanout (4 entries per node) to force deep
// trees, splits, borrows, and merges quickly.
// ---------------------------------------------------------------------------

class TinyBTreeTest : public ::testing::Test {
 protected:
  TinyBTreeTest()
      : pool_(&disk_, BufferPoolOptions{128}), tree_(&pool_) {}

  InMemoryDiskManager disk_;
  BufferPool pool_;
  BTree<TinyFanoutTraits> tree_;
};

TEST_F(TinyBTreeTest, EmptyTree) {
  EXPECT_TRUE(tree_.empty());
  EXPECT_TRUE(tree_.Lookup(1).status().IsNotFound());
  EXPECT_TRUE(tree_.Delete(1).IsNotFound());
  auto cursor = tree_.NewCursor();
  ASSERT_TRUE(cursor.SeekGE(0).ok());
  EXPECT_FALSE(cursor.Valid());
  EXPECT_TRUE(tree_.Validate().ok());
}

TEST_F(TinyBTreeTest, SingleInsertLookup) {
  ASSERT_TRUE(tree_.Insert(5, 50).ok());
  auto v = tree_.Lookup(5);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 50u);
  EXPECT_EQ(tree_.stats().num_entries, 1u);
  EXPECT_EQ(tree_.stats().height, 1u);
  EXPECT_TRUE(tree_.Validate().ok());
}

TEST_F(TinyBTreeTest, DuplicateInsertRejected) {
  ASSERT_TRUE(tree_.Insert(5, 50).ok());
  EXPECT_TRUE(tree_.Insert(5, 51).IsAlreadyExists());
  auto v = tree_.Lookup(5);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 50u);  // Original value kept.
}

TEST_F(TinyBTreeTest, SequentialInsertGrowsHeight) {
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree_.Insert(k, k * 10).ok());
    ASSERT_TRUE(tree_.Validate().ok()) << "after insert " << k;
  }
  EXPECT_EQ(tree_.stats().num_entries, 100u);
  EXPECT_GE(tree_.stats().height, 3u);
  for (uint64_t k = 0; k < 100; ++k) {
    auto v = tree_.Lookup(k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, k * 10);
  }
}

TEST_F(TinyBTreeTest, ReverseInsertAlsoBalanced) {
  for (uint64_t k = 100; k > 0; --k) {
    ASSERT_TRUE(tree_.Insert(k, k).ok());
  }
  ASSERT_TRUE(tree_.Validate().ok());
  EXPECT_EQ(tree_.stats().num_entries, 100u);
}

TEST_F(TinyBTreeTest, DeleteToEmptyAndReuse) {
  for (uint64_t k = 0; k < 50; ++k) ASSERT_TRUE(tree_.Insert(k, k).ok());
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(tree_.Delete(k).ok()) << k;
    ASSERT_TRUE(tree_.Validate().ok()) << "after delete " << k;
  }
  EXPECT_TRUE(tree_.empty());
  EXPECT_EQ(tree_.stats().height, 0u);
  // Tree is usable again after complete emptying.
  ASSERT_TRUE(tree_.Insert(7, 70).ok());
  auto v = tree_.Lookup(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 70u);
}

TEST_F(TinyBTreeTest, DeleteInReverseOrder) {
  for (uint64_t k = 0; k < 60; ++k) ASSERT_TRUE(tree_.Insert(k, k).ok());
  for (uint64_t k = 60; k > 0; --k) {
    ASSERT_TRUE(tree_.Delete(k - 1).ok());
    ASSERT_TRUE(tree_.Validate().ok());
  }
  EXPECT_TRUE(tree_.empty());
}

TEST_F(TinyBTreeTest, DeleteMissingKeyLeavesTreeIntact) {
  for (uint64_t k = 0; k < 20; k += 2) ASSERT_TRUE(tree_.Insert(k, k).ok());
  EXPECT_TRUE(tree_.Delete(3).IsNotFound());
  EXPECT_TRUE(tree_.Delete(21).IsNotFound());
  EXPECT_EQ(tree_.stats().num_entries, 10u);
  EXPECT_TRUE(tree_.Validate().ok());
}

TEST_F(TinyBTreeTest, CursorWalksSortedOrder) {
  std::vector<uint64_t> keys = {42, 7, 99, 3, 56, 12, 77, 31, 8, 64};
  for (uint64_t k : keys) ASSERT_TRUE(tree_.Insert(k, k + 1).ok());
  std::sort(keys.begin(), keys.end());

  auto cursor = tree_.NewCursor();
  ASSERT_TRUE(cursor.SeekGE(0).ok());
  std::vector<uint64_t> seen;
  while (cursor.Valid()) {
    seen.push_back(cursor.key());
    EXPECT_EQ(cursor.value(), cursor.key() + 1);
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_EQ(seen, keys);
}

TEST_F(TinyBTreeTest, SeekGEFindsBoundaries) {
  for (uint64_t k = 10; k <= 100; k += 10) {
    ASSERT_TRUE(tree_.Insert(k, k).ok());
  }
  struct Case {
    uint64_t seek;
    uint64_t expect;
  };
  for (Case c : std::vector<Case>{{5, 10}, {10, 10}, {11, 20}, {95, 100},
                                  {100, 100}}) {
    auto cursor = tree_.NewCursor();  // Fresh: every seek descends.
    ASSERT_TRUE(cursor.SeekGE(c.seek).ok());
    ASSERT_TRUE(cursor.Valid()) << "seek " << c.seek;
    EXPECT_EQ(cursor.key(), c.expect) << "seek " << c.seek;
  }
  auto past = tree_.NewCursor();
  ASSERT_TRUE(past.SeekGE(101).ok());
  EXPECT_FALSE(past.Valid());
}

TEST_F(TinyBTreeTest, RangeScanAcrossLeaves) {
  for (uint64_t k = 0; k < 200; ++k) ASSERT_TRUE(tree_.Insert(k, k).ok());
  const uint64_t fetches_before = pool_.stats().logical_fetches;
  auto cursor = tree_.NewCursor();
  ASSERT_TRUE(cursor.SeekGE(50).ok());
  uint64_t expect = 50;
  while (cursor.Valid() && cursor.key() <= 149) {
    EXPECT_EQ(cursor.key(), expect);
    expect++;
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_EQ(expect, 150u);
  // 100 keys span many 4-entry leaves: the walk followed the leaf chain.
  EXPECT_GE(pool_.stats().logical_fetches - fetches_before,
            100 / BTree<TinyFanoutTraits>::kLeafCapacity);
}

// ---------------------------------------------------------------------------
// Randomized differential test against std::map (the core property suite).
// ---------------------------------------------------------------------------

struct FuzzParams {
  uint64_t seed;
  int ops;
  uint64_t key_space;
  double insert_bias;
};

class BTreeFuzzTest : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(BTreeFuzzTest, MatchesStdMapUnderRandomOps) {
  const FuzzParams p = GetParam();
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{256});
  BTree<TinyFanoutTraits> tree(&pool);
  std::map<uint64_t, uint64_t> model;
  Rng rng(p.seed);

  for (int op = 0; op < p.ops; ++op) {
    uint64_t key = rng.NextBelow(p.key_space);
    if (rng.NextDouble() < p.insert_bias) {
      uint64_t value = rng.Next64();
      Status s = tree.Insert(key, value);
      if (model.contains(key)) {
        EXPECT_TRUE(s.IsAlreadyExists());
      } else {
        ASSERT_TRUE(s.ok());
        model[key] = value;
      }
    } else {
      Status s = tree.Delete(key);
      if (model.contains(key)) {
        ASSERT_TRUE(s.ok());
        model.erase(key);
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    }
    if (op % 64 == 0) {
      ASSERT_TRUE(tree.Validate().ok()) << "op " << op;
    }
  }
  ASSERT_TRUE(tree.Validate().ok());
  ASSERT_EQ(tree.stats().num_entries, model.size());

  // Full-order comparison via a cursor walk.
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.SeekGE(0).ok());
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(cursor.Valid());
    EXPECT_EQ(cursor.key(), k);
    EXPECT_EQ(cursor.value(), v);
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_FALSE(cursor.Valid());

  // Point lookups for hits and misses.
  for (int i = 0; i < 200; ++i) {
    uint64_t key = rng.NextBelow(p.key_space);
    auto v = tree.Lookup(key);
    if (model.contains(key)) {
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(*v, model[key]);
    } else {
      EXPECT_TRUE(v.status().IsNotFound());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorkloads, BTreeFuzzTest,
    ::testing::Values(FuzzParams{1, 2000, 500, 0.7},    // Growing.
                      FuzzParams{2, 2000, 100, 0.5},    // Heavy collisions.
                      FuzzParams{3, 3000, 5000, 0.6},   // Sparse keys.
                      FuzzParams{4, 3000, 300, 0.3},    // Shrinking.
                      FuzzParams{5, 5000, 1000, 0.5},   // Long mixed.
                      FuzzParams{6, 1500, 16, 0.5}));   // Tiny key space.

// ---------------------------------------------------------------------------
// Full-page fanout smoke test (the production ObjectTreeTraits geometry).
// ---------------------------------------------------------------------------

TEST(ObjectBTree, CompositeKeyOrderAndCapacity) {
  // 12-byte key + 28-byte value in a 4 KiB page.
  EXPECT_GE(ObjectBTree::kLeafCapacity, 70u);
  EXPECT_GE(ObjectBTree::kInternalCapacity, 250u);

  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{64});
  ObjectBTree tree(&pool);

  // Same primary, different uid: both coexist and order by uid.
  ObjectRecord rec;
  rec.x = 1.5;
  ASSERT_TRUE(tree.Insert({42, 7}, rec).ok());
  rec.x = 2.5;
  ASSERT_TRUE(tree.Insert({42, 3}, rec).ok());
  rec.x = 3.5;
  ASSERT_TRUE(tree.Insert({41, 9}, rec).ok());

  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.SeekGE(CompositeKey{}).ok());
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key().primary, 41u);
  ASSERT_TRUE(cursor.Next().ok());
  EXPECT_EQ(cursor.key().primary, 42u);
  EXPECT_EQ(cursor.key().uid, 3u);
  ASSERT_TRUE(cursor.Next().ok());
  EXPECT_EQ(cursor.key().uid, 7u);
  EXPECT_DOUBLE_EQ(cursor.value().x, 1.5);
}

TEST(ObjectBTree, TenThousandEntriesValidate) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{64});
  ObjectBTree tree(&pool);
  Rng rng(77);
  ObjectRecord rec;
  for (int i = 0; i < 10000; ++i) {
    CompositeKey key{rng.Next64() >> 20, static_cast<UserId>(i)};
    rec.tu = i;
    ASSERT_TRUE(tree.Insert(key, rec).ok());
  }
  EXPECT_EQ(tree.stats().num_entries, 10000u);
  ASSERT_TRUE(tree.Validate().ok());
  // Height should be small with ~100-entry leaves.
  EXPECT_LE(tree.stats().height, 3u);
}

// ---------------------------------------------------------------------------
// Leaf-chain invariant and LeafCursor fast path
// ---------------------------------------------------------------------------

// Forward walk of the leaf chain visits every key in order after random
// insert/delete batches (the invariant the cursor fast path relies on).
TEST(LeafChain, ForwardWalkVisitsEveryKeyAfterRandomBatches) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{256});
  BTree<TinyFanoutTraits> tree(&pool);
  std::map<uint64_t, uint64_t> model;
  Rng rng(4242);

  for (int batch = 0; batch < 20; ++batch) {
    // Alternate insert-heavy and delete-heavy batches.
    double insert_bias = (batch % 2 == 0) ? 0.85 : 0.3;
    for (int op = 0; op < 150; ++op) {
      uint64_t key = rng.NextBelow(2000);
      if (rng.NextDouble() < insert_bias) {
        if (tree.Insert(key, key * 3).ok()) model[key] = key * 3;
      } else {
        if (tree.Delete(key).ok()) model.erase(key);
      }
    }
    ASSERT_TRUE(tree.Validate().ok()) << "batch " << batch;

    auto cursor = tree.NewCursor();
    ASSERT_TRUE(cursor.SeekGE(0).ok());
    size_t visited = 0;
    uint64_t prev = 0;
    for (const auto& [k, v] : model) {
      ASSERT_TRUE(cursor.Valid()) << "chain ended early in batch " << batch;
      EXPECT_EQ(cursor.key(), k);
      EXPECT_EQ(cursor.value(), v);
      if (visited > 0) {
        EXPECT_GT(cursor.key(), prev);
      }
      prev = cursor.key();
      visited++;
      ASSERT_TRUE(cursor.Next().ok());
    }
    EXPECT_FALSE(cursor.Valid())
        << "chain has extra entries in batch " << batch;
    EXPECT_EQ(visited, model.size());
  }
}

class LeafCursorTest : public ::testing::Test {
 protected:
  LeafCursorTest() : pool_(&disk_, BufferPoolOptions{512}), tree_(&pool_) {}

  void Fill(size_t n, uint64_t stride) {
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_TRUE(tree_.Insert(i * stride, i).ok());
    }
  }

  InMemoryDiskManager disk_;
  BufferPool pool_;
  BTree<U64Traits> tree_;
};

TEST_F(LeafCursorTest, SeekMatchesLowerBoundForArbitraryTargets) {
  Fill(20000, 3);  // Keys 0, 3, ..., with gaps; value i at key 3i.
  std::set<uint64_t> keys;
  for (uint64_t i = 0; i < 20000; ++i) keys.insert(i * 3);
  auto cursor = tree_.NewCursor();
  Rng rng(7);
  for (int probe = 0; probe < 500; ++probe) {
    uint64_t target = rng.NextBelow(3 * 20000 + 10);
    ASSERT_TRUE(cursor.SeekGE(target).ok());
    auto want = keys.lower_bound(target);
    ASSERT_EQ(cursor.Valid(), want != keys.end()) << "target " << target;
    // Walk a few entries to check iteration against the ordered keys too.
    for (int step = 0; step < 5 && want != keys.end(); ++step, ++want) {
      ASSERT_TRUE(cursor.Valid()) << "target " << target;
      EXPECT_EQ(cursor.key(), *want);
      EXPECT_EQ(cursor.value(), *want / 3);
      ASSERT_TRUE(cursor.Next().ok());
    }
    ASSERT_EQ(cursor.Valid(), want != keys.end()) << "target " << target;
  }
}

TEST_F(LeafCursorTest, AscendingSeeksReuseThePositionInsteadOfDescending) {
  Fill(20000, 1);
  auto cursor = tree_.NewCursor();
  size_t probes = 0;
  for (uint64_t target = 0; target < 20000; target += 40, ++probes) {
    ASSERT_TRUE(cursor.SeekGE(target).ok());
    ASSERT_TRUE(cursor.Valid());
    EXPECT_EQ(cursor.key(), target);
  }
  // Nearby ascending probes resolve via the sibling chain: the descent
  // count stays far below one per probe.
  EXPECT_EQ(probes, 500u);
  EXPECT_LT(cursor.descents(), probes / 4);
  EXPECT_GT(cursor.chain_hops(), 0u);
}

TEST_F(LeafCursorTest, BackwardSeekFallsBackToDescent) {
  Fill(10000, 1);
  auto cursor = tree_.NewCursor();
  ASSERT_TRUE(cursor.SeekGE(9000).ok());
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key(), 9000u);
  size_t descents_before = cursor.descents();
  ASSERT_TRUE(cursor.SeekGE(100).ok());  // Behind the cursor.
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key(), 100u);
  EXPECT_EQ(cursor.descents(), descents_before + 1);
}

TEST_F(LeafCursorTest, FarForwardSeekBoundsChainHops) {
  Fill(20000, 1);
  auto cursor = tree_.NewCursor();
  ASSERT_TRUE(cursor.SeekGE(0).ok());
  size_t hops_before = cursor.chain_hops();
  ASSERT_TRUE(cursor.SeekGE(19999).ok());  // Thousands of leaves ahead.
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key(), 19999u);
  EXPECT_LE(cursor.chain_hops() - hops_before,
            BTree<U64Traits>::LeafCursor::kMaxChainHops + 1);
  EXPECT_GE(cursor.descents(), 2u);
}

TEST_F(LeafCursorTest, SeekPastEndInvalidatesAndRecovers) {
  Fill(100, 1);
  auto cursor = tree_.NewCursor();
  ASSERT_TRUE(cursor.SeekGE(1000).ok());
  EXPECT_FALSE(cursor.Valid());
  // An invalid cursor still seeks correctly (fresh descent).
  ASSERT_TRUE(cursor.SeekGE(50).ok());
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.key(), 50u);
}

TEST_F(LeafCursorTest, EmptyTreeSeekIsInvalid) {
  auto cursor = tree_.NewCursor();
  ASSERT_TRUE(cursor.SeekGE(1).ok());
  EXPECT_FALSE(cursor.Valid());
}

TEST(ObjectBTree, RecordRoundtripPreservesAllFields) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{16});
  ObjectBTree tree(&pool);
  ObjectRecord rec;
  rec.x = 123.25;
  rec.y = -7.5;
  rec.vx = 0.125;
  rec.vy = -2.75;
  rec.tu = 9876.5432;
  rec.pntp = 0xCAFE;
  ASSERT_TRUE(tree.Insert({1, 2}, rec).ok());
  auto v = tree.Lookup({1, 2});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->x, rec.x);
  EXPECT_EQ(v->y, rec.y);
  EXPECT_EQ(v->vx, rec.vx);
  EXPECT_EQ(v->vy, rec.vy);
  EXPECT_EQ(v->tu, rec.tu);
  EXPECT_EQ(v->pntp, rec.pntp);
}

}  // namespace
}  // namespace peb
