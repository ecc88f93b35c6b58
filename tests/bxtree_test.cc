#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "bxtree/bx_key.h"
#include "bxtree/bxtree.h"
#include "bxtree/filtering_index.h"
#include "common/rng.h"
#include "motion/uniform_generator.h"
#include "motion/update_stream.h"
#include "policy/policy_generator.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace peb {
namespace {

// ---------------------------------------------------------------------------
// Time partition layout (Eq. 2 semantics)
// ---------------------------------------------------------------------------

TEST(TimePartitionLayout, LabelsAreTwoPhasesAhead) {
  TimePartitionLayout l;  // delta_t_mu = 120, n = 2 -> phase = 60.
  EXPECT_DOUBLE_EQ(l.PhaseLength(), 60.0);
  EXPECT_EQ(l.NumPartitions(), 3u);
  // Updates in [0, 60) are indexed as of t = 120 (the paper's example:
  // objects updated between 0 and delta/2 go to tlab = delta).
  EXPECT_EQ(l.LabelIndexFor(0.0), 2);
  EXPECT_EQ(l.LabelIndexFor(59.9), 2);
  EXPECT_EQ(l.LabelIndexFor(60.0), 3);
  EXPECT_DOUBLE_EQ(l.LabelTimestamp(2), 120.0);
  // Lead time is always in (phase, 2*phase].
  for (double tu : {0.0, 10.0, 59.0, 60.0, 100.0, 119.0, 1234.5}) {
    double lead = l.LabelTimestamp(l.LabelIndexFor(tu)) - tu;
    EXPECT_GT(lead, l.PhaseLength() - 1e9 * 0);  // > 60 - eps
    EXPECT_GT(lead, 60.0 - 1e-9);
    EXPECT_LE(lead, 120.0 + 1e-9);
  }
}

TEST(TimePartitionLayout, PartitionsCycleModNPlusOne) {
  TimePartitionLayout l;
  EXPECT_EQ(l.PartitionOf(2), 1u);  // (2-1) mod 3.
  EXPECT_EQ(l.PartitionOf(3), 2u);
  EXPECT_EQ(l.PartitionOf(4), 0u);
  EXPECT_EQ(l.PartitionOf(5), 1u);
  // Consecutive live labels always land in distinct partitions.
  for (int64_t base = 2; base < 30; ++base) {
    std::set<uint32_t> parts;
    for (int64_t label = base; label < base + 3; ++label) {
      parts.insert(l.PartitionOf(label));
    }
    EXPECT_EQ(parts.size(), 3u);
  }
}

TEST(BxKeyLayout, PackAndUnpack) {
  BxKeyLayout l;  // 4 tid bits, 10 grid bits.
  uint64_t key = l.MakeKey(2, 12345);
  EXPECT_EQ(l.PartitionOfKey(key), 2u);
  EXPECT_EQ(l.ZvOfKey(key), 12345u);
  // Partition dominates the ordering.
  EXPECT_LT(l.MakeKey(1, 0xFFFFF), l.MakeKey(2, 0));
}

// ---------------------------------------------------------------------------
// BxTree basic operations
// ---------------------------------------------------------------------------

class BxTreeTest : public ::testing::Test {
 protected:
  BxTreeTest() : pool_(&disk_, BufferPoolOptions{64}) {
    options_.space_side = 1000.0;
    options_.grid_bits = 8;
    options_.max_speed = 3.0;
    tree_ = std::make_unique<BxTree>(&pool_, options_);
  }

  MovingObject Make(UserId id, double x, double y, double vx, double vy,
                    Timestamp tu) {
    return {id, {x, y}, {vx, vy}, tu};
  }

  InMemoryDiskManager disk_;
  BufferPool pool_;
  MovingIndexOptions options_;
  std::unique_ptr<BxTree> tree_;
};

TEST_F(BxTreeTest, InsertDeleteUpdateLifecycle) {
  ASSERT_TRUE(tree_->Insert(Make(1, 100, 100, 1, 0, 5)).ok());
  EXPECT_EQ(tree_->size(), 1u);
  EXPECT_TRUE(tree_->Insert(Make(1, 200, 200, 0, 0, 5)).IsAlreadyExists());

  auto got = tree_->GetObject(1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->pos, (Point{100, 100}));

  ASSERT_TRUE(tree_->Update(Make(1, 300, 300, 0, 1, 30)).ok());
  got = tree_->GetObject(1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->pos, (Point{300, 300}));
  EXPECT_EQ(tree_->size(), 1u);

  ASSERT_TRUE(tree_->Delete(1).ok());
  EXPECT_EQ(tree_->size(), 0u);
  EXPECT_TRUE(tree_->Delete(1).IsNotFound());
  EXPECT_TRUE(tree_->GetObject(1).status().IsNotFound());
}

TEST_F(BxTreeTest, UpdateActsAsInsertWhenAbsent) {
  ASSERT_TRUE(tree_->Update(Make(9, 10, 10, 0, 0, 0)).ok());
  EXPECT_EQ(tree_->size(), 1u);
}

TEST_F(BxTreeTest, RangeQueryFindsMovingObjects) {
  // Object A is inside the range at tq only because of its motion.
  ASSERT_TRUE(tree_->Insert(Make(1, 90, 100, 2, 0, 0)).ok());   // ->150,100
  // Object B starts inside but leaves by tq.
  ASSERT_TRUE(tree_->Insert(Make(2, 110, 100, -3, 0, 0)).ok()); // ->20,100
  // Object C is static inside.
  ASSERT_TRUE(tree_->Insert(Make(3, 130, 130, 0, 0, 0)).ok());
  // Object D is static far away.
  ASSERT_TRUE(tree_->Insert(Make(4, 800, 800, 0, 0, 0)).ok());

  Rect range{{100, 80}, {200, 180}};
  auto res = tree_->RangeQuery(range, 30.0);
  ASSERT_TRUE(res.ok());
  std::vector<UserId> ids;
  for (const auto& c : *res) ids.push_back(c.uid);
  EXPECT_EQ(ids, (std::vector<UserId>{1, 3}));
}

TEST_F(BxTreeTest, KnnUnfilteredReturnsNearest) {
  for (UserId i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        tree_->Insert(Make(i, 100.0 + 10.0 * i, 500, 0, 0, 0)).ok());
  }
  auto res = tree_->KnnQuery({100, 500}, 3, 10.0);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 3u);
  EXPECT_EQ((*res)[0].uid, 0u);
  EXPECT_EQ((*res)[1].uid, 1u);
  EXPECT_EQ((*res)[2].uid, 2u);
  EXPECT_DOUBLE_EQ((*res)[0].distance, 0.0);
  EXPECT_DOUBLE_EQ((*res)[2].distance, 20.0);
}

TEST_F(BxTreeTest, DkEstimateIsSane) {
  for (UserId i = 0; i < 1000; ++i) {
    double x = (i % 32) * 31.0;
    double y = (i / 32) * 31.0;
    ASSERT_TRUE(tree_->Insert(Make(i, x, y, 0, 0, 0)).ok());
  }
  double d1 = tree_->EstimateKnnDistance(1);
  double d10 = tree_->EstimateKnnDistance(10);
  EXPECT_GT(d1, 0.0);
  EXPECT_LT(d1, d10);       // More neighbors -> larger estimate.
  EXPECT_LT(d10, 1000.0);   // Below the space side.
}

// ---------------------------------------------------------------------------
// Randomized differential test against brute force.
// ---------------------------------------------------------------------------

struct BxFuzzParams {
  uint64_t seed;
  size_t num_objects;
  double max_speed;
  uint32_t grid_bits;
};

class BxTreeFuzzTest : public ::testing::TestWithParam<BxFuzzParams> {};

TEST_P(BxTreeFuzzTest, RangeQueryMatchesBruteForce) {
  const BxFuzzParams p = GetParam();
  UniformGeneratorOptions gen;
  gen.num_objects = p.num_objects;
  gen.max_speed = p.max_speed;
  gen.stagger_window = 120.0;
  gen.seed = p.seed;
  Dataset ds = GenerateUniformDataset(gen);

  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{64});
  MovingIndexOptions opt;
  opt.space_side = 1000.0;
  opt.grid_bits = p.grid_bits;
  opt.max_speed = p.max_speed;
  BxTree tree(&pool, opt);
  for (const auto& o : ds.objects) ASSERT_TRUE(tree.Insert(o).ok());

  Rng rng(p.seed * 37);
  Timestamp tq = 120.0;
  for (int q = 0; q < 30; ++q) {
    Point c{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    double side = rng.Uniform(20, 400);
    Rect range = Rect::CenteredSquare(c, side).ClampedTo(Rect::Space(1000));

    auto res = tree.RangeQuery(range, tq);
    ASSERT_TRUE(res.ok());
    std::vector<UserId> got;
    for (const auto& cand : *res) got.push_back(cand.uid);

    std::vector<UserId> want;
    for (const auto& o : ds.objects) {
      if (range.Contains(o.PositionAt(tq))) want.push_back(o.id);
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "query " << q;
  }
}

TEST_P(BxTreeFuzzTest, KnnMatchesBruteForce) {
  const BxFuzzParams p = GetParam();
  UniformGeneratorOptions gen;
  gen.num_objects = p.num_objects;
  gen.max_speed = p.max_speed;
  gen.stagger_window = 120.0;
  gen.seed = p.seed + 1;
  Dataset ds = GenerateUniformDataset(gen);

  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{64});
  MovingIndexOptions opt;
  opt.grid_bits = p.grid_bits;
  opt.max_speed = p.max_speed;
  BxTree tree(&pool, opt);
  for (const auto& o : ds.objects) ASSERT_TRUE(tree.Insert(o).ok());

  Rng rng(p.seed * 41);
  Timestamp tq = 120.0;
  for (int q = 0; q < 20; ++q) {
    Point qloc{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    size_t k = 1 + rng.NextBelow(10);
    auto res = tree.KnnQuery(qloc, k, tq);
    ASSERT_TRUE(res.ok());

    // Brute force k nearest.
    std::vector<Neighbor> want;
    for (const auto& o : ds.objects) {
      want.push_back({o.id, o.PositionAt(tq).DistanceTo(qloc)});
    }
    std::sort(want.begin(), want.end(),
              [](const Neighbor& a, const Neighbor& b) {
                if (a.distance != b.distance) return a.distance < b.distance;
                return a.uid < b.uid;
              });
    want.resize(std::min(k, want.size()));

    ASSERT_EQ(res->size(), want.size()) << "query " << q;
    for (size_t i = 0; i < want.size(); ++i) {
      // Compare by distance (ties may order differently).
      EXPECT_NEAR((*res)[i].distance, want[i].distance, 1e-6)
          << "query " << q << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, BxTreeFuzzTest,
    ::testing::Values(BxFuzzParams{1, 500, 3.0, 8},
                      BxFuzzParams{2, 2000, 3.0, 10},
                      BxFuzzParams{3, 1000, 0.0, 8},   // Static objects.
                      BxFuzzParams{4, 1000, 6.0, 6},   // Fast + coarse grid.
                      BxFuzzParams{5, 100, 1.0, 10})); // Sparse.

TEST(BxTreeChurn, UpdatesPreserveQueryCorrectness) {
  UniformGeneratorOptions gen;
  gen.num_objects = 800;
  gen.stagger_window = 120.0;
  gen.seed = 71;
  Dataset ds = GenerateUniformDataset(gen);

  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{64});
  MovingIndexOptions opt;
  opt.grid_bits = 8;
  BxTree tree(&pool, opt);
  for (const auto& o : ds.objects) ASSERT_TRUE(tree.Insert(o).ok());

  UniformUpdateStreamOptions us;
  us.seed = 72;
  UniformUpdateStream stream(ds, us);
  Rng rng(73);
  Timestamp now = 120.0;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 400; ++i) {
      UpdateEvent ev = stream.Next();
      ASSERT_TRUE(tree.Update(ev.state).ok());
      ds.objects[ev.state.id] = ev.state;
      now = std::max(now, ev.t);
    }
    Status deep = tree.ValidateInvariants();
    ASSERT_TRUE(deep.ok()) << "round " << round << ": " << deep.ToString();
    Rect range = Rect::CenteredSquare(
        {rng.Uniform(100, 900), rng.Uniform(100, 900)}, 250);
    auto res = tree.RangeQuery(range, now);
    ASSERT_TRUE(res.ok());
    std::vector<UserId> got;
    for (const auto& c : *res) got.push_back(c.uid);
    std::vector<UserId> want;
    for (const auto& o : ds.objects) {
      if (range.Contains(o.PositionAt(now))) want.push_back(o.id);
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// FilteringIndex (the Section 4 baseline) against brute force.
// ---------------------------------------------------------------------------

class FilteringIndexTest : public ::testing::Test {
 protected:
  void Build(size_t users, size_t policies, uint64_t seed) {
    UniformGeneratorOptions gen;
    gen.num_objects = users;
    gen.stagger_window = 120.0;
    gen.seed = seed;
    ds_ = GenerateUniformDataset(gen);

    PolicyGeneratorOptions pg;
    pg.num_users = users;
    pg.policies_per_user = policies;
    pg.grouping_factor = 0.6;
    pg.seed = seed + 7;
    gen_ = GeneratePolicies(pg);

    pool_ = std::make_unique<BufferPool>(&disk_, BufferPoolOptions{64});
    MovingIndexOptions opt;
    opt.grid_bits = 8;
    index_ = std::make_unique<FilteringIndex>(pool_.get(), opt, &gen_.store,
                                              &gen_.roles);
    for (const auto& o : ds_.objects) ASSERT_TRUE(index_->Insert(o).ok());
  }

  Dataset ds_;
  GeneratedPolicies gen_;
  InMemoryDiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<FilteringIndex> index_;
};

TEST_F(FilteringIndexTest, PrqMatchesBruteForce) {
  Build(600, 12, 5);
  Rng rng(55);
  Timestamp tq = 120.0;
  for (int q = 0; q < 25; ++q) {
    UserId issuer = static_cast<UserId>(rng.NextBelow(600));
    Rect range = Rect::CenteredSquare(
        {rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, rng.Uniform(50, 500));
    auto got = index_->RangeQuery(issuer, range, tq);
    ASSERT_TRUE(got.ok());
    auto want = testing::BruteForcePrq(ds_, gen_.store, gen_.roles, issuer,
                                       range, tq);
    EXPECT_EQ(*got, want) << "query " << q;
  }
}

TEST_F(FilteringIndexTest, PknnMatchesBruteForce) {
  Build(600, 12, 6);
  Rng rng(56);
  Timestamp tq = 120.0;
  for (int q = 0; q < 25; ++q) {
    UserId issuer = static_cast<UserId>(rng.NextBelow(600));
    Point qloc = ds_.objects[issuer].PositionAt(tq);
    size_t k = 1 + rng.NextBelow(8);
    auto got = index_->KnnQuery(issuer, qloc, k, tq);
    ASSERT_TRUE(got.ok());
    auto want = testing::BruteForcePknn(ds_, gen_.store, gen_.roles, issuer,
                                        qloc, k, tq);
    ASSERT_EQ(got->size(), want.size()) << "query " << q;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR((*got)[i].distance, want[i].distance, 1e-6)
          << "query " << q << " rank " << i;
    }
  }
}

TEST_F(FilteringIndexTest, IssuerNeverInOwnResult) {
  Build(200, 30, 7);
  // Give user 0 an open policy toward itself to try to trick the query.
  Lpp open = testing::OpenPolicy(gen_.friend_role);
  gen_.store.Add(0, 0, open);
  gen_.roles.AssignRole(0, 0, gen_.friend_role);
  auto got = index_->RangeQuery(0, Rect::Space(1000), 120.0);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(std::find(got->begin(), got->end(), 0u) == got->end());
}

TEST_F(FilteringIndexTest, NoPoliciesMeansEmptyResults) {
  // Fresh store with zero policies: every query comes back empty.
  UniformGeneratorOptions gen;
  gen.num_objects = 100;
  gen.seed = 3;
  Dataset ds = GenerateUniformDataset(gen);
  PolicyStore store;
  RoleRegistry roles;
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{32});
  MovingIndexOptions opt;
  opt.grid_bits = 8;
  FilteringIndex index(&pool, opt, &store, &roles);
  for (const auto& o : ds.objects) ASSERT_TRUE(index.Insert(o).ok());

  auto prq = index.RangeQuery(5, Rect::Space(1000), 0.0);
  ASSERT_TRUE(prq.ok());
  EXPECT_TRUE(prq->empty());
  auto knn = index.KnnQuery(5, {500, 500}, 3, 0.0);
  ASSERT_TRUE(knn.ok());
  EXPECT_TRUE(knn->empty());
}

}  // namespace
}  // namespace peb
