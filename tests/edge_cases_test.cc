// Edge cases across the stack: space-boundary coordinates, degenerate
// query parameters, extreme policies, and clock wrap-around — the places
// real systems break first.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "motion/uniform_generator.h"
#include "peb/peb_tree.h"
#include "policy/policy_generator.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace peb {
namespace {

/// A tiny fully-open world: everyone is everyone's friend, all day, all
/// space — queries reduce to plain spatial semantics.
struct OpenWorld {
  GeneratedPolicies gp;
  std::shared_ptr<const EncodingSnapshot> enc;
  InMemoryDiskManager disk;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<PebTree> tree;
  Dataset ds;

  explicit OpenWorld(std::vector<MovingObject> objects) {
    ds.objects = std::move(objects);
    size_t n = ds.objects.size();
    RoleId r = gp.roles.RegisterRole("friend");
    gp.friend_role = r;
    Lpp open = testing::OpenPolicy(r);
    for (UserId a = 0; a < n; ++a) {
      for (UserId b = 0; b < n; ++b) {
        if (a == b) continue;
        gp.store.Add(a, b, open);
        gp.roles.AssignRole(a, b, r);
      }
    }
    CompatibilityOptions compat;
    SvQuantizer quant(64.0, 26);
    enc = std::make_shared<const EncodingSnapshot>(
        EncodingSnapshot::Build(gp.store, n, compat, {}, quant));
    pool = std::make_unique<BufferPool>(&disk, BufferPoolOptions{32});
    PebTreeOptions opt;
    opt.index.grid_bits = 8;
    tree = std::make_unique<PebTree>(pool.get(), opt, &gp.store, &gp.roles,
                                     enc);
    for (const auto& o : ds.objects) EXPECT_TRUE(tree->Insert(o).ok());
  }
};

TEST(EdgeCases, ObjectsOnSpaceBoundaries) {
  OpenWorld w({
      {0, {0, 0}, {0, 0}, 0},          // Origin corner.
      {1, {1000, 1000}, {0, 0}, 0},    // Far corner.
      {2, {0, 1000}, {0, 0}, 0},
      {3, {1000, 0}, {0, 0}, 0},
      {4, {500, 0}, {0, 0}, 0},        // Edge midpoints.
      {5, {0, 500}, {0, 0}, 0},
  });
  // Whole-space query sees everyone (minus the issuer).
  auto got = w.tree->RangeQuery(0, Rect::Space(1000), 30.0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<UserId>{1, 2, 3, 4, 5}));
  // Corner-pinned window catches the corner object only.
  got = w.tree->RangeQuery(0, {{999, 999}, {1000, 1000}}, 30.0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<UserId>{1}));
}

TEST(EdgeCases, ObjectsDriftingOutOfTheSpace) {
  // An object whose extrapolated position leaves the domain is clamped to
  // border cells in the index but refined against its true position. Note
  // Definition 2: the user must also be inside their policy's locr — a
  // policy covering only the space never discloses an out-of-domain
  // position, so this world's policies cover a larger region.
  Dataset ds;
  ds.objects = {
      {0, {500, 500}, {0, 0}, 0},
      {1, {990, 990}, {3, 3}, 0},  // At t=30: (1080, 1080), outside.
  };
  GeneratedPolicies gp;
  RoleId r = gp.roles.RegisterRole("friend");
  Lpp wide = testing::OpenPolicy(r, /*space_side=*/4000.0);
  wide.locr.lo = {-1000, -1000};
  gp.store.Add(1, 0, wide);
  gp.roles.AssignRole(1, 0, r);
  CompatibilityOptions compat;
  SvQuantizer quant(64.0, 26);
  auto enc = std::make_shared<const EncodingSnapshot>(
      EncodingSnapshot::Build(gp.store, 2, compat, {}, quant));
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{16});
  PebTreeOptions opt;
  opt.index.grid_bits = 8;
  PebTree tree(&pool, opt, &gp.store, &gp.roles, enc);
  for (const auto& o : ds.objects) ASSERT_TRUE(tree.Insert(o).ok());

  // Query window hanging past the border catches it.
  auto got = tree.RangeQuery(0, {{1000, 1000}, {1200, 1200}}, 30.0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<UserId>{1}));
  // In-domain window at the old position does not.
  got = tree.RangeQuery(0, {{950, 950}, {999, 999}}, 30.0);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
  // And the answer agrees with the oracle either way.
  auto want = testing::BruteForcePrq(ds, gp.store, gp.roles, 0,
                                     {{1000, 1000}, {1200, 1200}}, 30.0);
  EXPECT_EQ(want, (std::vector<UserId>{1}));
}

TEST(EdgeCases, DegenerateQueryParameters) {
  OpenWorld w({
      {0, {500, 500}, {0, 0}, 0},
      {1, {510, 500}, {0, 0}, 0},
  });
  // Inverted rectangle: uniformly rejected (see privacy_index.h's
  // validation contract, held identically by every index).
  auto got = w.tree->RangeQuery(0, {{600, 600}, {400, 400}}, 30.0);
  EXPECT_TRUE(got.status().IsInvalidArgument());
  // Point rectangle exactly on the friend.
  got = w.tree->RangeQuery(0, {{510, 500}, {510, 500}}, 30.0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<UserId>{1}));
  // k = 0: uniformly rejected.
  auto knn = w.tree->KnnQuery(0, {500, 500}, 0, 30.0);
  EXPECT_TRUE(knn.status().IsInvalidArgument());
  // Unknown issuer: uniformly NotFound.
  EXPECT_TRUE(
      w.tree->RangeQuery(999, {{400, 400}, {600, 600}}, 30.0).status()
          .IsNotFound());
  // k far beyond the population.
  knn = w.tree->KnnQuery(0, {500, 500}, 1000, 30.0);
  ASSERT_TRUE(knn.ok());
  EXPECT_EQ(knn->size(), 1u);
  // Query location outside the space.
  knn = w.tree->KnnQuery(0, {-200, 1500}, 1, 30.0);
  ASSERT_TRUE(knn.ok());
  EXPECT_EQ(knn->size(), 1u);
  EXPECT_EQ((*knn)[0].uid, 1u);
}

TEST(EdgeCases, ZeroAreaAndZeroDurationPolicies) {
  Dataset ds;
  ds.objects = {
      {0, {500, 500}, {0, 0}, 0},
      {1, {510, 500}, {0, 0}, 0},
      {2, {490, 500}, {0, 0}, 0},
  };
  GeneratedPolicies gp;
  RoleId r = gp.roles.RegisterRole("friend");
  // User 1: zero-area region (a point). Visible only exactly there.
  Lpp point_policy{r, {{510, 500}, {510, 500}}, TimeOfDayInterval::AllDay()};
  gp.store.Add(1, 0, point_policy);
  gp.roles.AssignRole(1, 0, r);
  // User 2: zero-duration instant.
  Lpp instant{r, Rect::Space(1000), {30.0, 30.0}};
  gp.store.Add(2, 0, instant);
  gp.roles.AssignRole(2, 0, r);

  CompatibilityOptions compat;
  SvQuantizer quant(64.0, 26);
  auto enc = std::make_shared<const EncodingSnapshot>(
      EncodingSnapshot::Build(gp.store, 3, compat, {}, quant));
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{16});
  PebTreeOptions opt;
  opt.index.grid_bits = 8;
  PebTree tree(&pool, opt, &gp.store, &gp.roles, enc);
  for (const auto& o : ds.objects) ASSERT_TRUE(tree.Insert(o).ok());

  // t=30: user 1 sits exactly on their point region; user 2's instant
  // matches exactly.
  auto got = tree.RangeQuery(0, Rect::Space(1000), 30.0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<UserId>{1, 2}));
  // t=31: user 2's instant has passed.
  got = tree.RangeQuery(0, Rect::Space(1000), 31.0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<UserId>{1}));
}

TEST(EdgeCases, MidnightWrappingPolicyAcrossDays) {
  Dataset ds;
  ds.objects = {
      {0, {500, 500}, {0, 0}, 1430.0},
      {1, {510, 500}, {0, 0}, 1430.0},
  };
  GeneratedPolicies gp;
  RoleId r = gp.roles.RegisterRole("friend");
  Lpp night{r, Rect::Space(1000), {1380.0, 60.0}};  // 23:00-01:00.
  gp.store.Add(1, 0, night);
  gp.roles.AssignRole(1, 0, r);
  CompatibilityOptions compat;
  SvQuantizer quant(64.0, 26);
  auto enc = std::make_shared<const EncodingSnapshot>(
      EncodingSnapshot::Build(gp.store, 2, compat, {}, quant));
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{16});
  PebTreeOptions opt;
  opt.index.grid_bits = 8;
  PebTree tree(&pool, opt, &gp.store, &gp.roles, enc);
  for (const auto& o : ds.objects) ASSERT_TRUE(tree.Insert(o).ok());

  // 23:50 on day 0 — inside the window.
  auto got = tree.RangeQuery(0, Rect::Space(1000), 1430.0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<UserId>{1}));
  // 00:30 on day 1 (absolute t = 1470) — still inside after the wrap.
  ASSERT_TRUE(tree.Update({1, {510, 500}, {0, 0}, 1470.0}).ok());
  got = tree.RangeQuery(0, Rect::Space(1000), 1470.0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<UserId>{1}));
  // 02:00 on day 1 (t = 1560) — window closed.
  ASSERT_TRUE(tree.Update({1, {510, 500}, {0, 0}, 1560.0}).ok());
  got = tree.RangeQuery(0, Rect::Space(1000), 1560.0);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

TEST(EdgeCases, SingleUserWorld) {
  OpenWorld w({{0, {500, 500}, {0, 0}, 0}});
  auto got = w.tree->RangeQuery(0, Rect::Space(1000), 30.0);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
  auto knn = w.tree->KnnQuery(0, {500, 500}, 3, 30.0);
  ASSERT_TRUE(knn.ok());
  EXPECT_TRUE(knn->empty());
}

TEST(EdgeCases, QueriesAgainstEmptyIndex) {
  Dataset empty;
  GeneratedPolicies gp;
  RoleId r = gp.roles.RegisterRole("friend");
  Lpp open = testing::OpenPolicy(r);
  gp.store.Add(1, 0, open);
  gp.roles.AssignRole(1, 0, r);
  CompatibilityOptions compat;
  SvQuantizer quant(64.0, 26);
  auto enc = std::make_shared<const EncodingSnapshot>(
      EncodingSnapshot::Build(gp.store, 2, compat, {}, quant));
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{16});
  PebTreeOptions opt;
  opt.index.grid_bits = 8;
  PebTree tree(&pool, opt, &gp.store, &gp.roles, enc);

  auto got = tree.RangeQuery(0, Rect::Space(1000), 0.0);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
  auto knn = tree.KnnQuery(0, {1, 1}, 5, 0.0);
  ASSERT_TRUE(knn.ok());
  EXPECT_TRUE(knn->empty());
}

TEST(EdgeCases, IdenticalPositionsManyUsers) {
  // 30 users stacked on the same point with identical keys except uid.
  std::vector<MovingObject> objs;
  for (UserId i = 0; i < 30; ++i) {
    objs.push_back({i, {500, 500}, {0, 0}, 0});
  }
  OpenWorld w(std::move(objs));
  auto got = w.tree->RangeQuery(0, {{499, 499}, {501, 501}}, 10.0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 29u);
  auto knn = w.tree->KnnQuery(0, {500, 500}, 10, 10.0);
  ASSERT_TRUE(knn.ok());
  EXPECT_EQ(knn->size(), 10u);
  for (const auto& n : *knn) EXPECT_DOUBLE_EQ(n.distance, 0.0);
}

}  // namespace
}  // namespace peb
