// Tests for the continuous privacy-aware range query monitor (the paper's
// Section-8 extension) — seeded results, update-driven transitions,
// time-driven transitions, and equivalence with repeated one-shot PRQs.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "motion/uniform_generator.h"
#include "motion/update_stream.h"
#include "peb/continuous.h"
#include "peb/peb_tree.h"
#include "policy/policy_generator.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace peb {
namespace {

/// Hand-built 3-user world: issuer 0; friend 1 (always visible); friend 2
/// (morning-only policy window).
struct TinyWorld {
  GeneratedPolicies gp;
  std::shared_ptr<const EncodingSnapshot> enc;
  InMemoryDiskManager disk;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<PebTree> tree;
  std::unique_ptr<ContinuousQueryMonitor> monitor;

  TinyWorld() {
    RoleId r = gp.roles.RegisterRole("friend");
    gp.friend_role = r;
    Lpp always = testing::OpenPolicy(r);
    Lpp morning = always;
    morning.tint = {0, 60};
    gp.store.Add(1, 0, always);
    gp.roles.AssignRole(1, 0, r);
    gp.store.Add(2, 0, morning);
    gp.roles.AssignRole(2, 0, r);

    CompatibilityOptions compat;
    SvQuantizer quant(64.0, 26);
    enc = std::make_shared<const EncodingSnapshot>(
        EncodingSnapshot::Build(gp.store, 3, compat, {}, quant));
    pool = std::make_unique<BufferPool>(&disk, BufferPoolOptions{16});
    PebTreeOptions opt;
    opt.index.grid_bits = 8;
    tree = std::make_unique<PebTree>(pool.get(), opt, &gp.store, &gp.roles,
                                     enc);
    monitor = std::make_unique<ContinuousQueryMonitor>(
        tree.get(), &gp.store, &gp.roles, enc);
  }
};

TEST(ContinuousQuery, SeedsFromIndexWithoutEvents) {
  TinyWorld w;
  ASSERT_TRUE(w.tree->Insert({0, {500, 500}, {0, 0}, 0}).ok());
  ASSERT_TRUE(w.tree->Insert({1, {510, 500}, {0, 0}, 0}).ok());
  ASSERT_TRUE(w.tree->Insert({2, {490, 500}, {0, 0}, 0}).ok());

  Rect range = Rect::CenteredSquare({500, 500}, 100);
  auto id = w.monitor->Register(0, range, 30.0);  // Morning.
  ASSERT_TRUE(id.ok());
  auto res = w.monitor->ResultOf(*id);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(*res, (std::vector<UserId>{1, 2}));
  EXPECT_TRUE(w.monitor->TakeEvents().empty());  // Seeding is silent.
}

TEST(ContinuousQuery, UpdateMovesFriendInAndOut) {
  TinyWorld w;
  ASSERT_TRUE(w.tree->Insert({0, {500, 500}, {0, 0}, 0}).ok());
  ASSERT_TRUE(w.tree->Insert({1, {900, 900}, {0, 0}, 0}).ok());  // Far away.
  ASSERT_TRUE(w.tree->Insert({2, {490, 500}, {0, 0}, 0}).ok());

  Rect range = Rect::CenteredSquare({500, 500}, 100);
  auto id = w.monitor->Register(0, range, 30.0);
  ASSERT_TRUE(id.ok());
  auto res = w.monitor->ResultOf(*id);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(*res, (std::vector<UserId>{2}));

  // Friend 1 moves into the range.
  MovingObject moved{1, {520, 510}, {0, 0}, 40.0};
  ASSERT_TRUE(w.tree->Update(moved).ok());
  ASSERT_TRUE(w.monitor->OnUpdate(moved, 40.0).ok());
  auto events = w.monitor->TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], (ContinuousQueryEvent{*id, 1, true, 40.0}));
  res = w.monitor->ResultOf(*id);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(*res, (std::vector<UserId>{1, 2}));

  // Friend 1 moves out again.
  MovingObject gone{1, {50, 50}, {0, 0}, 45.0};
  ASSERT_TRUE(w.tree->Update(gone).ok());
  ASSERT_TRUE(w.monitor->OnUpdate(gone, 45.0).ok());
  events = w.monitor->TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].entered);
  EXPECT_EQ(events[0].user, 1u);
}

TEST(ContinuousQuery, AdvanceHandlesPolicyWindowsAndMotion) {
  TinyWorld w;
  ASSERT_TRUE(w.tree->Insert({0, {500, 500}, {0, 0}, 0}).ok());
  ASSERT_TRUE(w.tree->Insert({1, {510, 500}, {0, 0}, 0}).ok());
  // Friend 2 inside the range, morning policy, drifting east slowly.
  ASSERT_TRUE(w.tree->Insert({2, {490, 500}, {1.0, 0}, 0}).ok());

  Rect range = Rect::CenteredSquare({500, 500}, 100);
  auto id = w.monitor->Register(0, range, 30.0);
  ASSERT_TRUE(id.ok());
  auto res0 = w.monitor->ResultOf(*id);
  ASSERT_TRUE(res0.ok());
  EXPECT_EQ(*res0, (std::vector<UserId>{1, 2}));

  // At t=90 user 2's morning window [0, 60] has closed: they drop out with
  // no index update at all.
  ASSERT_TRUE(w.monitor->Advance(90.0).ok());
  auto events = w.monitor->TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].user, 2u);
  EXPECT_FALSE(events[0].entered);
  auto res = w.monitor->ResultOf(*id);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(*res, (std::vector<UserId>{1}));
}

TEST(ContinuousQuery, UnregisterStopsTracking) {
  TinyWorld w;
  ASSERT_TRUE(w.tree->Insert({0, {500, 500}, {0, 0}, 0}).ok());
  ASSERT_TRUE(w.tree->Insert({1, {510, 500}, {0, 0}, 0}).ok());
  ASSERT_TRUE(w.tree->Insert({2, {490, 500}, {0, 0}, 0}).ok());
  auto id = w.monitor->Register(0, Rect::CenteredSquare({500, 500}, 100),
                                30.0);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(w.monitor->num_queries(), 1u);
  ASSERT_TRUE(w.monitor->Unregister(*id).ok());
  EXPECT_EQ(w.monitor->num_queries(), 0u);
  EXPECT_TRUE(w.monitor->Unregister(*id).IsNotFound());
  EXPECT_TRUE(w.monitor->ResultOf(*id).status().IsNotFound());

  MovingObject moved{1, {50, 50}, {0, 0}, 40.0};
  ASSERT_TRUE(w.tree->Update(moved).ok());
  ASSERT_TRUE(w.monitor->OnUpdate(moved, 40.0).ok());
  EXPECT_TRUE(w.monitor->TakeEvents().empty());
}

TEST(ContinuousQuery, MatchesRepeatedOneShotQueriesUnderChurn) {
  // Property: after any prefix of updates + Advance(now), the monitor's
  // answer equals a fresh PRQ at `now`.
  const size_t users = 300;
  UniformGeneratorOptions gen;
  gen.num_objects = users;
  gen.stagger_window = 120.0;
  gen.seed = 5;
  Dataset ds = GenerateUniformDataset(gen);
  PolicyGeneratorOptions pg;
  pg.num_users = users;
  pg.policies_per_user = 10;
  pg.grouping_factor = 0.6;
  pg.seed = 6;
  GeneratedPolicies gp = GeneratePolicies(pg);
  CompatibilityOptions compat;
  SvQuantizer quant(64.0, 26);
  auto enc = std::make_shared<const EncodingSnapshot>(
      EncodingSnapshot::Build(gp.store, users, compat, {}, quant));
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{64});
  PebTreeOptions opt;
  opt.index.grid_bits = 8;
  PebTree tree(&pool, opt, &gp.store, &gp.roles, enc);
  for (const auto& o : ds.objects) ASSERT_TRUE(tree.Insert(o).ok());

  ContinuousQueryMonitor monitor(&tree, &gp.store, &gp.roles, enc);
  Rng rng(7);
  std::vector<ContinuousQueryId> ids;
  std::vector<std::pair<UserId, Rect>> specs;
  for (int i = 0; i < 5; ++i) {
    UserId issuer = static_cast<UserId>(rng.NextBelow(users));
    Rect range = Rect::CenteredSquare(
        {rng.Uniform(100, 900), rng.Uniform(100, 900)}, 350);
    auto id = monitor.Register(issuer, range, 120.0);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    specs.push_back({issuer, range});
  }

  UniformUpdateStreamOptions us;
  us.seed = 8;
  UniformUpdateStream stream(ds, us);
  Timestamp now = 120.0;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 100; ++i) {
      UpdateEvent ev = stream.Next();
      ASSERT_TRUE(tree.Update(ev.state).ok());
      ASSERT_TRUE(monitor.OnUpdate(ev.state, std::max(now, ev.t)).ok());
      ds.objects[ev.state.id] = ev.state;
      now = std::max(now, ev.t);
    }
    ASSERT_TRUE(monitor.Advance(now).ok());
    for (size_t i = 0; i < ids.size(); ++i) {
      auto live = monitor.ResultOf(ids[i]);
      ASSERT_TRUE(live.ok());
      auto fresh = tree.RangeQuery(specs[i].first, specs[i].second, now);
      ASSERT_TRUE(fresh.ok());
      EXPECT_EQ(*live, *fresh) << "round " << round << " query " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// BFS sequence-value strategy (Section 8 "new encoding techniques").
// ---------------------------------------------------------------------------

TEST(BfsEncoding, AssignsEveryoneOneAnchorPerComponent) {
  // Two chains: 0-1-2-3 and 4-5.
  std::vector<std::vector<UserId>> groups(7);
  auto link = [&](UserId a, UserId b) {
    groups[a].push_back(b);
    groups[b].push_back(a);
  };
  link(0, 1);
  link(1, 2);
  link(2, 3);
  link(4, 5);
  // User 6 isolated.
  auto out = AssignSequenceValuesBfsFromGraph(
      7, groups, [](UserId, UserId) { return 0.5; }, {});
  for (double sv : out.sv) EXPECT_GE(sv, 2.0);
  EXPECT_EQ(out.num_anchors, 3u);  // Two components + the isolated user.
  // Chain stays tight: consecutive chain members differ by (1 - 0.5).
  EXPECT_NEAR(std::abs(out.sv[1] - out.sv[0]), 0.5, 1e-12);
  EXPECT_NEAR(std::abs(out.sv[2] - out.sv[1]), 0.5, 1e-12);
}

TEST(BfsEncoding, KeepsTransitiveChainsCloserThanGroupOrder) {
  // Path graph 0-1-2-...-9: Figure 5 assigns the anchor's direct
  // neighbors, then jumps δ for the next unassigned user, so far ends of
  // the chain land δ apart repeatedly. BFS keeps the whole chain within
  // sum of (1-C) offsets.
  const size_t n = 10;
  std::vector<std::vector<UserId>> groups(n);
  for (UserId i = 0; i + 1 < n; ++i) {
    groups[i].push_back(i + 1);
    groups[i + 1].push_back(i);
  }
  auto compat = [](UserId, UserId) { return 0.9; };
  auto fig5 = AssignSequenceValuesFromGraph(n, groups, compat, {});
  auto bfs = AssignSequenceValuesBfsFromGraph(n, groups, compat, {});

  auto span = [&](const SequenceAssignment& a) {
    double lo = 1e18, hi = -1e18;
    for (double v : a.sv) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    return hi - lo;
  };
  EXPECT_LT(span(bfs), span(fig5));
  EXPECT_EQ(bfs.num_anchors, 1u);
  EXPECT_GT(fig5.num_anchors, 1u);
}

TEST(BfsEncoding, QueriesStayCorrectUnderBfsStrategy) {
  const size_t users = 400;
  UniformGeneratorOptions gen;
  gen.num_objects = users;
  gen.stagger_window = 120.0;
  gen.seed = 21;
  Dataset ds = GenerateUniformDataset(gen);
  PolicyGeneratorOptions pg;
  pg.num_users = users;
  pg.policies_per_user = 8;
  pg.grouping_factor = 0.7;
  pg.seed = 22;
  GeneratedPolicies gp = GeneratePolicies(pg);
  CompatibilityOptions compat;
  SvQuantizer quant(64.0, 26);
  auto enc = std::make_shared<const EncodingSnapshot>(
      EncodingSnapshot::Build(gp.store, users, compat, {}, quant,
                              SequenceStrategy::kBfsTraversal));

  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{64});
  PebTreeOptions opt;
  opt.index.grid_bits = 8;
  PebTree tree(&pool, opt, &gp.store, &gp.roles, enc);
  for (const auto& o : ds.objects) ASSERT_TRUE(tree.Insert(o).ok());

  Rng rng(23);
  for (int q = 0; q < 20; ++q) {
    UserId issuer = static_cast<UserId>(rng.NextBelow(users));
    Rect range = Rect::CenteredSquare(
        {rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, 400);
    auto got = tree.RangeQuery(issuer, range, 120.0);
    ASSERT_TRUE(got.ok());
    auto want = testing::BruteForcePrq(ds, gp.store, gp.roles, issuer, range,
                                       120.0);
    EXPECT_EQ(*got, want);

    Point qloc = ds.objects[issuer].PositionAt(120.0);
    auto knn = tree.KnnQuery(issuer, qloc, 5, 120.0);
    ASSERT_TRUE(knn.ok());
    auto want_knn = testing::BruteForcePknn(ds, gp.store, gp.roles, issuer,
                                            qloc, 5, 120.0);
    ASSERT_EQ(knn->size(), want_knn.size());
    for (size_t i = 0; i < want_knn.size(); ++i) {
      EXPECT_NEAR((*knn)[i].distance, want_knn[i].distance, 1e-6);
    }
  }
}

}  // namespace
}  // namespace peb
