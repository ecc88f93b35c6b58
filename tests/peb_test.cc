#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "motion/uniform_generator.h"
#include "motion/update_stream.h"
#include "peb/peb_key.h"
#include "peb/peb_tree.h"
#include "policy/policy_generator.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace peb {
namespace {

// ---------------------------------------------------------------------------
// PEB key layout
// ---------------------------------------------------------------------------

TEST(PebKeyLayout, PackUnpackAndPriorities) {
  PebKeyLayout l;  // 4 + 26 + 20 bits.
  EXPECT_TRUE(l.Fits());
  EXPECT_EQ(l.total_bits(), 50u);
  uint64_t key = l.MakeKey(2, 123456, 54321);
  EXPECT_EQ(l.PartitionOfKey(key), 2u);
  EXPECT_EQ(l.SvOfKey(key), 123456u);
  EXPECT_EQ(l.ZvOfKey(key), 54321u);

  // Priority: TID > SV > ZV (Eq. 5 ordering).
  EXPECT_LT(l.MakeKey(0, 999999, 0xFFFFF), l.MakeKey(1, 0, 0));
  EXPECT_LT(l.MakeKey(1, 5, 0xFFFFF), l.MakeKey(1, 6, 0));
  EXPECT_LT(l.MakeKey(1, 5, 10), l.MakeKey(1, 5, 11));
}

TEST(PebKeyLayout, FitsDetectsOverflow) {
  PebKeyLayout l;
  l.tid_bits = 4;
  l.sv_bits = 26;
  l.grid_bits = 17;  // 4 + 26 + 34 = 64: exactly fits.
  EXPECT_TRUE(l.Fits());
  l.grid_bits = 18;  // 66 bits: too wide.
  EXPECT_FALSE(l.Fits());
}

// ---------------------------------------------------------------------------
// PEB tree fixture: small synthetic world checked against brute force.
// ---------------------------------------------------------------------------

struct PebWorld {
  Dataset dataset;
  GeneratedPolicies policies;
  std::shared_ptr<const EncodingSnapshot> encoding;
  InMemoryDiskManager disk;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<PebTree> tree;

  static PebWorld Build(size_t users, size_t policies_per_user, double theta,
                        uint64_t seed,
                        PrqStrategy prq = PrqStrategy::kPerFriendIntervals,
                        KnnOrder order = KnnOrder::kTriangular) {
    PebWorld w;
    UniformGeneratorOptions gen;
    gen.num_objects = users;
    gen.stagger_window = 120.0;
    gen.seed = seed;
    w.dataset = GenerateUniformDataset(gen);

    PolicyGeneratorOptions pg;
    pg.num_users = users;
    pg.policies_per_user = policies_per_user;
    pg.grouping_factor = theta;
    pg.seed = seed + 13;
    w.policies = GeneratePolicies(pg);

    CompatibilityOptions compat;
    SvQuantizer quant(64.0, 26);
    w.encoding = std::make_shared<const EncodingSnapshot>(
        EncodingSnapshot::Build(w.policies.store, users, compat, {}, quant));

    w.pool = std::make_unique<BufferPool>(&w.disk, BufferPoolOptions{64});
    PebTreeOptions opt;
    opt.index.grid_bits = 8;
    opt.prq_strategy = prq;
    opt.knn_order = order;
    w.tree = std::make_unique<PebTree>(w.pool.get(), opt, &w.policies.store,
                                       &w.policies.roles, w.encoding);
    for (const auto& o : w.dataset.objects) {
      EXPECT_TRUE(w.tree->Insert(o).ok());
    }
    return w;
  }
};

TEST(PebTree, InsertDeleteUpdateLifecycle) {
  PebWorld w = PebWorld::Build(50, 5, 0.7, 1);
  EXPECT_EQ(w.tree->size(), 50u);
  EXPECT_TRUE(w.tree->Insert(w.dataset.objects[0]).IsAlreadyExists());

  MovingObject moved = w.dataset.objects[0];
  moved.pos = {1.0, 2.0};
  moved.tu = 60.0;
  ASSERT_TRUE(w.tree->Update(moved).ok());
  auto got = w.tree->GetObject(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->pos, (Point{1.0, 2.0}));

  ASSERT_TRUE(w.tree->Delete(0).ok());
  EXPECT_EQ(w.tree->size(), 49u);
  EXPECT_TRUE(w.tree->Delete(0).IsNotFound());
}

TEST(PebTree, RejectsObjectsOutsideEncoding) {
  PebWorld w = PebWorld::Build(50, 5, 0.7, 2);
  MovingObject stranger{999, {1, 1}, {0, 0}, 0};
  EXPECT_TRUE(w.tree->Insert(stranger).IsInvalidArgument());
}

TEST(PebTree, KeyClustersBySequenceValue) {
  PebWorld w = PebWorld::Build(100, 8, 1.0, 3);
  // Two users in the same generator group with policies toward each other
  // share nearby SVs, hence nearby keys; users in different groups differ
  // in the SV field first.
  const PebKeyLayout layout{4, 26, 8};
  for (UserId u = 0; u < 100; ++u) {
    MovingObject o = w.dataset.objects[u];
    uint64_t key = w.tree->KeyFor(o);
    EXPECT_EQ(layout.SvOfKey(key), w.encoding->quantized_sv(u));
  }
}

// ---------------------------------------------------------------------------
// PRQ / PkNN differential tests vs brute force, across strategies.
// ---------------------------------------------------------------------------

struct PebFuzzParams {
  uint64_t seed;
  size_t users;
  size_t policies;
  double theta;
  PrqStrategy prq;
  KnnOrder order;
};

class PebFuzzTest : public ::testing::TestWithParam<PebFuzzParams> {};

TEST_P(PebFuzzTest, PrqMatchesBruteForce) {
  const auto p = GetParam();
  PebWorld w = PebWorld::Build(p.users, p.policies, p.theta, p.seed, p.prq,
                               p.order);
  Rng rng(p.seed * 97);
  Timestamp tq = 120.0;
  for (int q = 0; q < 25; ++q) {
    UserId issuer = static_cast<UserId>(rng.NextBelow(p.users));
    Rect range = Rect::CenteredSquare(
        {rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, rng.Uniform(50, 600));
    auto got = w.tree->RangeQuery(issuer, range, tq);
    ASSERT_TRUE(got.ok());
    auto want = testing::BruteForcePrq(w.dataset, w.policies.store,
                                       w.policies.roles, issuer, range, tq);
    EXPECT_EQ(*got, want) << "query " << q << " issuer " << issuer;
  }
}

TEST_P(PebFuzzTest, PknnMatchesBruteForce) {
  const auto p = GetParam();
  PebWorld w = PebWorld::Build(p.users, p.policies, p.theta, p.seed + 1,
                               p.prq, p.order);
  Rng rng(p.seed * 101);
  Timestamp tq = 120.0;
  for (int q = 0; q < 20; ++q) {
    UserId issuer = static_cast<UserId>(rng.NextBelow(p.users));
    Point qloc = w.dataset.objects[issuer].PositionAt(tq);
    size_t k = 1 + rng.NextBelow(8);
    auto got = w.tree->KnnQuery(issuer, qloc, k, tq);
    ASSERT_TRUE(got.ok());
    auto want = testing::BruteForcePknn(w.dataset, w.policies.store,
                                        w.policies.roles, issuer, qloc, k, tq);
    ASSERT_EQ(got->size(), want.size()) << "query " << q;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR((*got)[i].distance, want[i].distance, 1e-6)
          << "query " << q << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, PebFuzzTest,
    ::testing::Values(
        // Default configuration at varying grouping factors.
        PebFuzzParams{1, 500, 10, 0.7, PrqStrategy::kPerFriendIntervals,
                      KnnOrder::kTriangular},
        PebFuzzParams{2, 500, 10, 0.0, PrqStrategy::kPerFriendIntervals,
                      KnnOrder::kTriangular},
        PebFuzzParams{3, 500, 10, 1.0, PrqStrategy::kPerFriendIntervals,
                      KnnOrder::kTriangular},
        // Figure-7 span-scan ablation must agree on results.
        PebFuzzParams{4, 400, 8, 0.7, PrqStrategy::kSpanScan,
                      KnnOrder::kTriangular},
        // Column-major kNN order ablation.
        PebFuzzParams{5, 400, 8, 0.7, PrqStrategy::kPerFriendIntervals,
                      KnnOrder::kColumnMajor},
        // Many policies per user.
        PebFuzzParams{6, 300, 40, 0.5, PrqStrategy::kPerFriendIntervals,
                      KnnOrder::kTriangular},
        // Tiny friend lists.
        PebFuzzParams{7, 600, 2, 0.7, PrqStrategy::kPerFriendIntervals,
                      KnnOrder::kTriangular}));

TEST(PebTree, EmptyFriendListGivesEmptyResults) {
  // Deterministic loner: 20 users, user 19 has outgoing policies removed,
  // so nobody may ever disclose to... careful: the *friend list* is the
  // set of users with a policy TOWARD the issuer. Build policies among
  // users 0..18 only; user 19 has no incoming policies -> empty friends.
  const size_t users = 20;
  UniformGeneratorOptions gen;
  gen.num_objects = users;
  gen.seed = 11;
  Dataset ds = GenerateUniformDataset(gen);
  GeneratedPolicies gp;
  RoleId r = gp.roles.RegisterRole("friend");
  gp.friend_role = r;
  Lpp open = testing::OpenPolicy(r);
  for (UserId owner = 0; owner < 19; ++owner) {
    UserId peer = (owner + 1) % 19;  // Ring among 0..18; never 19.
    gp.store.Add(owner, peer, open);
    gp.roles.AssignRole(owner, peer, r);
  }
  CompatibilityOptions compat;
  SvQuantizer quant(64.0, 26);
  auto enc = std::make_shared<const EncodingSnapshot>(
      EncodingSnapshot::Build(gp.store, users, compat, {}, quant));
  ASSERT_TRUE(enc->FriendsOf(19).empty());

  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{16});
  PebTreeOptions opt;
  opt.index.grid_bits = 8;
  PebTree tree(&pool, opt, &gp.store, &gp.roles, enc);
  for (const auto& o : ds.objects) ASSERT_TRUE(tree.Insert(o).ok());

  QueryStats prq_stats;
  auto prq = tree.RangeQueryWithStats(19, Rect::Space(1000), 120.0,
                                      &prq_stats);
  ASSERT_TRUE(prq.ok());
  EXPECT_TRUE(prq->empty());
  QueryStats knn_stats;
  auto knn = tree.KnnQueryWithStats(19, {500, 500}, 5, 120.0, &knn_stats);
  ASSERT_TRUE(knn.ok());
  EXPECT_TRUE(knn->empty());
  // The friend list prunes to zero before any tree descent: zero probes.
  EXPECT_EQ(prq_stats.counters.range_probes, 0u);
  EXPECT_EQ(knn_stats.counters.range_probes, 0u);
}

TEST(PebTree, MultiplePoliciesPerPairAllUnioned) {
  // The paper's future-work extension: two policies between the same pair
  // (morning-downtown and evening-suburb); the query must honor their
  // union. Exercised through the full index path, not just PolicyStore.
  Dataset ds;
  ds.objects = {
      {0, {500, 500}, {0, 0}, 0},  // Issuer.
      {1, {505, 505}, {0, 0}, 0},  // Friend, downtown.
  };
  GeneratedPolicies gp;
  RoleId r = gp.roles.RegisterRole("friend");
  Lpp morning_downtown{r, {{400, 400}, {600, 600}}, {6 * 60, 12 * 60}};
  Lpp evening_suburb{r, {{800, 800}, {1000, 1000}}, {18 * 60, 23 * 60}};
  gp.store.Add(1, 0, morning_downtown);
  gp.store.Add(1, 0, evening_suburb);
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

  Rect everywhere = Rect::Space(1000);
  // 09:00, friend downtown: first policy applies.
  auto res = tree.RangeQuery(0, everywhere, 9 * 60.0);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(*res, (std::vector<UserId>{1}));
  // 20:00, friend downtown: evening policy covers the suburb only.
  res = tree.RangeQuery(0, everywhere, 20 * 60.0);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->empty());
  // Move the friend to the suburb; now the evening policy applies...
  ASSERT_TRUE(tree.Update({1, {900, 900}, {0, 0}, 20 * 60.0}).ok());
  res = tree.RangeQuery(0, everywhere, 20 * 60.0);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(*res, (std::vector<UserId>{1}));
  // ...but not in the morning window.
  ASSERT_TRUE(tree.Update({1, {900, 900}, {0, 0}, 9 * 60.0}).ok());
  res = tree.RangeQuery(0, everywhere, 9 * 60.0);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->empty());
}

TEST(PebTree, QueriesAfterChurnStayCorrect) {
  PebWorld w = PebWorld::Build(400, 8, 0.7, 21);
  UniformUpdateStreamOptions us;
  us.seed = 22;
  UniformUpdateStream stream(w.dataset, us);
  Rng rng(23);
  Timestamp now = 120.0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 200; ++i) {
      UpdateEvent ev = stream.Next();
      ASSERT_TRUE(w.tree->Update(ev.state).ok());
      w.dataset.objects[ev.state.id] = ev.state;
      now = std::max(now, ev.t);
    }
    for (int q = 0; q < 5; ++q) {
      UserId issuer = static_cast<UserId>(rng.NextBelow(400));
      Rect range = Rect::CenteredSquare(
          {rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, 300);
      auto got = w.tree->RangeQuery(issuer, range, now);
      ASSERT_TRUE(got.ok());
      auto want = testing::BruteForcePrq(w.dataset, w.policies.store,
                                         w.policies.roles, issuer, range,
                                         now);
      EXPECT_EQ(*got, want) << "round " << round << " query " << q;
    }
  }
}

TEST(PebTree, RangeQueryRespectsPolicyTimeWindows) {
  // Hand-built world: 3 users; user 1 and 2 near user 0. User 1 discloses
  // all day, user 2 only during [0, 60) minutes of the day.
  Dataset ds;
  ds.objects = {
      {0, {500, 500}, {0, 0}, 0},
      {1, {510, 500}, {0, 0}, 0},
      {2, {490, 500}, {0, 0}, 0},
  };
  GeneratedPolicies gp;
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
  auto enc = std::make_shared<const EncodingSnapshot>(
      EncodingSnapshot::Build(gp.store, 3, compat, {}, quant));
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{16});
  PebTreeOptions opt;
  opt.index.grid_bits = 8;
  PebTree tree(&pool, opt, &gp.store, &gp.roles, enc);
  for (const auto& o : ds.objects) ASSERT_TRUE(tree.Insert(o).ok());

  Rect range{{480, 490}, {520, 510}};
  // tq = 30 (morning): both friends visible.
  auto got = tree.RangeQuery(0, range, 30.0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<UserId>{1, 2}));
  // tq = 100 (after user 2's window): only user 1.
  got = tree.RangeQuery(0, range, 100.0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<UserId>{1}));
}

TEST(PebTree, SpanScanCostsAtLeastAsMuchAsPerFriend) {
  // The Figure-7 literal span scan reads every user between SVmin and
  // SVmax; the per-friend strategy touches only friend buckets. Candidate
  // counts must reflect that.
  PebWorld per = PebWorld::Build(800, 10, 0.3, 31,
                                 PrqStrategy::kPerFriendIntervals);
  PebWorld span = PebWorld::Build(800, 10, 0.3, 31, PrqStrategy::kSpanScan);
  Rng rng(33);
  double per_cands = 0, span_cands = 0;
  for (int q = 0; q < 20; ++q) {
    UserId issuer = static_cast<UserId>(rng.NextBelow(800));
    Rect range = Rect::CenteredSquare(
        {rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, 300);
    QueryStats per_stats;
    auto a = per.tree->RangeQueryWithStats(issuer, range, 120.0, &per_stats);
    ASSERT_TRUE(a.ok());
    per_cands += static_cast<double>(per_stats.counters.candidates_examined);
    QueryStats span_stats;
    auto b = span.tree->RangeQueryWithStats(issuer, range, 120.0, &span_stats);
    ASSERT_TRUE(b.ok());
    span_cands += static_cast<double>(span_stats.counters.candidates_examined);
    EXPECT_EQ(*a, *b);  // Same answers.
  }
  EXPECT_LE(per_cands, span_cands);
}

TEST(PebTree, QuantizationCollisionsDoNotLoseResults) {
  // A very coarse quantizer (3 bits) forces many users into the same SV
  // bucket; results must still match brute force.
  const size_t users = 300;
  UniformGeneratorOptions gen;
  gen.num_objects = users;
  gen.stagger_window = 120.0;
  gen.seed = 41;
  Dataset ds = GenerateUniformDataset(gen);
  PolicyGeneratorOptions pg;
  pg.num_users = users;
  pg.policies_per_user = 8;
  pg.grouping_factor = 0.7;
  pg.seed = 42;
  GeneratedPolicies gp = GeneratePolicies(pg);
  CompatibilityOptions compat;
  SvQuantizer quant(0.05, 3);  // Nearly everything collides.
  auto enc = std::make_shared<const EncodingSnapshot>(
      EncodingSnapshot::Build(gp.store, users, compat, {}, quant));

  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{64});
  PebTreeOptions opt;
  opt.index.grid_bits = 8;
  opt.sv_bits = 3;
  PebTree tree(&pool, opt, &gp.store, &gp.roles, enc);
  for (const auto& o : ds.objects) ASSERT_TRUE(tree.Insert(o).ok());

  Rng rng(43);
  for (int q = 0; q < 15; ++q) {
    UserId issuer = static_cast<UserId>(rng.NextBelow(users));
    Rect range = Rect::CenteredSquare(
        {rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, 400);
    auto got = tree.RangeQuery(issuer, range, 120.0);
    ASSERT_TRUE(got.ok());
    auto want = testing::BruteForcePrq(ds, gp.store, gp.roles, issuer, range,
                                       120.0);
    EXPECT_EQ(*got, want);
  }
}

TEST(PebTree, KnnWithFewerQualifyingThanK) {
  PebWorld w = PebWorld::Build(200, 3, 0.7, 51);
  Rng rng(52);
  Timestamp tq = 120.0;
  for (int q = 0; q < 10; ++q) {
    UserId issuer = static_cast<UserId>(rng.NextBelow(200));
    Point qloc = w.dataset.objects[issuer].PositionAt(tq);
    // k far larger than any friend list.
    auto got = w.tree->KnnQuery(issuer, qloc, 50, tq);
    ASSERT_TRUE(got.ok());
    auto want = testing::BruteForcePknn(w.dataset, w.policies.store,
                                        w.policies.roles, issuer, qloc, 50,
                                        tq);
    ASSERT_EQ(got->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR((*got)[i].distance, want[i].distance, 1e-6);
    }
  }
}

}  // namespace
}  // namespace peb
