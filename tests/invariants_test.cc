// Configuration-independence properties: query answers are a function of
// the data and policies only — never of tuning knobs. The same workload is
// indexed under sweeps of grid resolution, buffer size, SV quantization,
// interval caps, and encoding strategy, and every configuration must
// return byte-identical answers. Plus semantic invariants of the
// privacy-aware query definitions themselves.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "common/thread_annotations.h"
#include "engine/sharded_engine.h"
#include "eval/workload.h"
#include "motion/uniform_generator.h"
#include "motion/update_stream.h"
#include "peb/peb_tree.h"
#include "policy/policy_generator.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace peb {

/// Test-only corruption injection for the negative validator tests: pokes
/// holes into the pool's guarded replacement state exactly the way a bug
/// would, so the tests prove ValidateInvariants actually detects damage
/// (not merely that healthy pools pass).
struct BufferPoolTestPeer {
  /// Overwrites the pin count of the frame holding `id`; returns the old
  /// value so the test can restore it before teardown.
  static int SetPinCount(BufferPool* pool, PageId id, int value) {
    BufferPool::Shard& shard = pool->ShardOf(id);
    MutexLock lock(&shard.mu);
    return shard.frames[shard.table.at(id)]->pin_count.exchange(value);
  }

  /// Crosses the table entries of two resident pages in the same latch
  /// shard, so each maps to a frame holding the other's bytes.
  static void SwapTableEntries(BufferPool* pool, PageId a, PageId b) {
    BufferPool::Shard& shard = pool->ShardOf(a);
    ASSERT_EQ(&shard, &pool->ShardOf(b)) << "pages in different shards";
    MutexLock lock(&shard.mu);
    std::swap(shard.table.at(a), shard.table.at(b));
  }

  /// Two resident page ids in shard 0 (kInvalidPageId when fewer exist).
  static std::pair<PageId, PageId> TwoResidentPages(BufferPool* pool) {
    BufferPool::Shard& shard = *pool->shards_[0];
    MutexLock lock(&shard.mu);
    std::pair<PageId, PageId> out{kInvalidPageId, kInvalidPageId};
    for (const auto& [id, idx] : shard.table) {
      if (out.first == kInvalidPageId) {
        out.first = id;
      } else {
        out.second = id;
        break;
      }
    }
    return out;
  }
};

namespace {

struct Config {
  uint32_t grid_bits;
  size_t buffer_pages;
  double sv_scale;
  uint32_t sv_bits;
  size_t max_intervals;
  SequenceStrategy strategy;
};

class ConfigSweepTest : public ::testing::TestWithParam<Config> {};

TEST_P(ConfigSweepTest, AnswersIndependentOfTuningKnobs) {
  const Config cfg = GetParam();
  const size_t users = 400;

  UniformGeneratorOptions gen;
  gen.num_objects = users;
  gen.stagger_window = 120.0;
  gen.seed = 31;
  Dataset ds = GenerateUniformDataset(gen);
  PolicyGeneratorOptions pg;
  pg.num_users = users;
  pg.policies_per_user = 10;
  pg.grouping_factor = 0.6;
  pg.seed = 32;
  GeneratedPolicies gp = GeneratePolicies(pg);
  CompatibilityOptions compat;
  SvQuantizer quant(cfg.sv_scale, cfg.sv_bits);
  auto enc = std::make_shared<const EncodingSnapshot>(
      EncodingSnapshot::Build(gp.store, users, compat, {}, quant,
                              cfg.strategy));

  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{cfg.buffer_pages});
  PebTreeOptions opt;
  opt.index.grid_bits = cfg.grid_bits;
  opt.index.zrange.max_intervals = cfg.max_intervals;
  opt.sv_bits = cfg.sv_bits;
  PebTree tree(&pool, opt, &gp.store, &gp.roles, enc);
  for (const auto& o : ds.objects) ASSERT_TRUE(tree.Insert(o).ok());

  Rng rng(33);
  Timestamp tq = 120.0;
  for (int q = 0; q < 15; ++q) {
    UserId issuer = static_cast<UserId>(rng.NextBelow(users));
    Rect range = Rect::CenteredSquare(
        {rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, rng.Uniform(80, 500));
    auto got = tree.RangeQuery(issuer, range, tq);
    ASSERT_TRUE(got.ok());
    // The oracle ignores every knob: identical answers required.
    auto want = testing::BruteForcePrq(ds, gp.store, gp.roles, issuer, range,
                                       tq);
    ASSERT_EQ(*got, want) << "q=" << q;

    // Semantic invariants of Definition 2:
    for (UserId uid : *got) {
      EXPECT_NE(uid, issuer);
      // Every answer is in the issuer's friend list.
      const auto& friends = enc->FriendsOf(issuer);
      bool is_friend = false;
      for (const auto& f : friends) is_friend |= (f.uid == uid);
      EXPECT_TRUE(is_friend) << uid;
    }

    Point qloc = ds.objects[issuer].PositionAt(tq);
    auto knn = tree.KnnQuery(issuer, qloc, 4, tq);
    ASSERT_TRUE(knn.ok());
    auto want_knn =
        testing::BruteForcePknn(ds, gp.store, gp.roles, issuer, qloc, 4, tq);
    ASSERT_EQ(knn->size(), want_knn.size());
    for (size_t i = 0; i < knn->size(); ++i) {
      EXPECT_NEAR((*knn)[i].distance, want_knn[i].distance, 1e-6);
      if (i > 0) {
        // Definition 3: ascending distance.
        EXPECT_GE((*knn)[i].distance, (*knn)[i - 1].distance);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, ConfigSweepTest,
    ::testing::Values(
        // The default configuration.
        Config{10, 50, 64.0, 26, 32, SequenceStrategy::kGroupOrder},
        // Coarse and fine grids.
        Config{6, 50, 64.0, 26, 32, SequenceStrategy::kGroupOrder},
        Config{12, 50, 64.0, 26, 32, SequenceStrategy::kGroupOrder},
        // Tiny and huge buffers.
        Config{10, 4, 64.0, 26, 32, SequenceStrategy::kGroupOrder},
        Config{10, 4096, 64.0, 26, 32, SequenceStrategy::kGroupOrder},
        // Coarse and fine SV quantization.
        Config{10, 50, 1.0, 12, 32, SequenceStrategy::kGroupOrder},
        Config{10, 50, 1024.0, 26, 32, SequenceStrategy::kGroupOrder},
        // Exact (uncapped) and heavily capped window decomposition.
        Config{10, 50, 64.0, 26, 0, SequenceStrategy::kGroupOrder},
        Config{10, 50, 64.0, 26, 2, SequenceStrategy::kGroupOrder},
        // BFS encoding strategy.
        Config{10, 50, 64.0, 26, 32, SequenceStrategy::kBfsTraversal}));

TEST(QueryInvariants, PrqMonotoneInRange) {
  // A larger window can only gain answers, never lose them.
  const size_t users = 300;
  UniformGeneratorOptions gen;
  gen.num_objects = users;
  gen.stagger_window = 120.0;
  gen.seed = 41;
  Dataset ds = GenerateUniformDataset(gen);
  PolicyGeneratorOptions pg;
  pg.num_users = users;
  pg.policies_per_user = 12;
  pg.seed = 42;
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

  Rng rng(43);
  for (int q = 0; q < 10; ++q) {
    UserId issuer = static_cast<UserId>(rng.NextBelow(users));
    Point c{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    std::vector<UserId> prev;
    for (double side : {100.0, 250.0, 500.0, 1000.0, 2000.0}) {
      auto got = tree.RangeQuery(issuer, Rect::CenteredSquare(c, side),
                                 120.0);
      ASSERT_TRUE(got.ok());
      // prev ⊆ got.
      for (UserId u : prev) {
        EXPECT_TRUE(std::find(got->begin(), got->end(), u) != got->end())
            << "side " << side;
      }
      prev = *got;
    }
  }
}

TEST(QueryInvariants, KnnPrefixStability) {
  // The k-NN result is a prefix of the (k+1)-NN result.
  const size_t users = 300;
  UniformGeneratorOptions gen;
  gen.num_objects = users;
  gen.stagger_window = 120.0;
  gen.seed = 51;
  Dataset ds = GenerateUniformDataset(gen);
  PolicyGeneratorOptions pg;
  pg.num_users = users;
  pg.policies_per_user = 15;
  pg.seed = 52;
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

  Rng rng(53);
  for (int q = 0; q < 10; ++q) {
    UserId issuer = static_cast<UserId>(rng.NextBelow(users));
    Point qloc = ds.objects[issuer].PositionAt(120.0);
    std::vector<Neighbor> prev;
    for (size_t k = 1; k <= 6; ++k) {
      auto got = tree.KnnQuery(issuer, qloc, k, 120.0);
      ASSERT_TRUE(got.ok());
      ASSERT_GE(got->size(), prev.size());
      for (size_t i = 0; i < prev.size(); ++i) {
        EXPECT_NEAR((*got)[i].distance, prev[i].distance, 1e-9) << "k=" << k;
      }
      prev = *got;
    }
  }
}

TEST(QueryInvariants, ResultsUnaffectedByUnrelatedChurn) {
  // Updating users outside the issuer's friend list never changes the
  // issuer's answer (at a fixed query time).
  const size_t users = 200;
  UniformGeneratorOptions gen;
  gen.num_objects = users;
  gen.stagger_window = 100.0;
  gen.seed = 61;
  Dataset ds = GenerateUniformDataset(gen);
  PolicyGeneratorOptions pg;
  pg.num_users = users;
  pg.policies_per_user = 6;
  pg.seed = 62;
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

  const UserId issuer = 5;
  std::unordered_set<UserId> friend_set;
  for (const auto& f : enc->FriendsOf(issuer)) friend_set.insert(f.uid);

  Rect range = Rect::CenteredSquare({500, 500}, 600);
  Timestamp tq = 120.0;
  auto before = tree.RangeQuery(issuer, range, tq);
  ASSERT_TRUE(before.ok());

  // Churn every non-friend: move them all to a corner.
  Rng rng(63);
  for (UserId u = 0; u < users; ++u) {
    if (u == issuer || friend_set.contains(u)) continue;
    MovingObject moved{u, {rng.Uniform(0, 50), rng.Uniform(0, 50)}, {0, 0},
                       110.0};
    ASSERT_TRUE(tree.Update(moved).ok());
  }
  auto after = tree.RangeQuery(issuer, range, tq);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
}


// ---------------------------------------------------------------------------
// Deep structural validators under randomized churn
// ---------------------------------------------------------------------------

Lpp EverywherePolicy(RoleId role) {
  Lpp p;
  p.role = role;
  p.locr = Rect{{-1e9, -1e9}, {1e9, 1e9}};
  p.tint = TimeOfDayInterval::AllDay();
  return p;
}

class EngineChurnTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EngineChurnTest, DeepValidatorsHoldUnderRandomizedChurn) {
  // Interleave update batches, policy mutations, and re-key adoptions, with
  // paranoid_checks running the validators inside every exclusive batch
  // section AND an explicit deep check after each round.
  eval::WorkloadParams p;
  p.num_users = 300;
  p.policies_per_user = 8;
  p.grouping_factor = 0.6;
  p.seed = 71;
  eval::Workload w = eval::Workload::Build(p);

  engine::EngineOptions opts;
  opts.num_shards = GetParam();
  opts.num_threads = 2;
  opts.buffer_pages = p.buffer_pages;
  opts.tree = eval::PebOptionsFor(p);
  opts.tree.index.paranoid_checks = true;
  engine::ShardedPebEngine eng(opts, &w.store(), &w.roles(),
                               w.catalog()->snapshot());
  ASSERT_TRUE(eng.LoadDataset(w.dataset()).ok());

  auto stream = eval::CloneUniformUpdateStream(w);
  ASSERT_NE(stream, nullptr);
  RoleId role = w.catalog()->DefineRole("churn");

  Rng rng(72);
  for (int round = 0; round < 4; ++round) {
    std::vector<UpdateEvent> batch;
    for (int i = 0; i < 64; ++i) batch.push_back(stream->Next());
    ASSERT_TRUE(eng.ApplyBatch(batch).ok()) << "round " << round;

    for (int m = 0; m < 6; ++m) {
      UserId owner = static_cast<UserId>(rng.NextBelow(p.num_users));
      UserId peer = static_cast<UserId>(rng.NextBelow(p.num_users));
      if (owner == peer) continue;
      if (m % 3 == 2) {
        ASSERT_TRUE(w.catalog()->RemovePolicies(owner, peer).ok());
      } else {
        ASSERT_TRUE(
            w.catalog()->AddPolicy(owner, peer, EverywherePolicy(role)).ok());
      }
    }
    auto re = w.catalog()->Reencode();
    ASSERT_TRUE(re.ok()) << re.status().ToString();
    ASSERT_TRUE(eng.AdoptSnapshot(re->snapshot, &re->rekeyed).ok())
        << "round " << round;

    Status deep = eng.ValidateInvariants();
    ASSERT_TRUE(deep.ok()) << "round " << round << ": " << deep.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, EngineChurnTest, ::testing::Values(1, 4),
                         [](const auto& param_info) {
                           return param_info.param == 1 ? "OneShard"
                                                        : "FourShards";
                         });

// ---------------------------------------------------------------------------
// Negative validation: the validators must DETECT deliberate damage, not
// merely pass on healthy structures.
// ---------------------------------------------------------------------------

TEST(NegativeValidation, DetectsCorruptedLeafChain) {
  const size_t users = 400;
  UniformGeneratorOptions gen;
  gen.num_objects = users;
  gen.stagger_window = 120.0;
  gen.seed = 81;
  Dataset ds = GenerateUniformDataset(gen);
  PolicyGeneratorOptions pg;
  pg.num_users = users;
  pg.policies_per_user = 8;
  pg.seed = 82;
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
  ASSERT_TRUE(tree.ValidateInvariants().ok());

  // Find a leaf page (node type 1) with a live sibling pointer and point
  // its next-link at itself — a damage pattern no healthy chain contains.
  PageId leaf = kInvalidPageId;
  PageId old_next = kInvalidPageId;
  for (PageId id = 0;; ++id) {
    auto g = pool.FetchPage(id);
    if (!g.ok()) break;
    const Page& page = *g->page();
    if (page.ReadAt<uint8_t>(0) == 1 &&
        page.ReadAt<PageId>(8) != kInvalidPageId) {
      leaf = id;
      old_next = page.ReadAt<PageId>(8);
      g->page()->WriteAt<PageId>(8, id);
      g->MarkDirty();
      break;
    }
  }
  ASSERT_NE(leaf, kInvalidPageId) << "no chained leaf found";

  Status st = tree.ValidateInvariants();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();

  // Repair and re-validate: the detector must go quiet again (proves the
  // failure came from the injected damage, not a latent defect).
  auto g = pool.FetchPage(leaf);
  ASSERT_TRUE(g.ok());
  g->page()->WriteAt<PageId>(8, old_next);
  g->MarkDirty();
  g->Release();
  EXPECT_TRUE(tree.ValidateInvariants().ok());
}

TEST(NegativeValidation, DetectsMissedRekey) {
  eval::WorkloadParams p;
  p.num_users = 300;
  p.policies_per_user = 8;
  p.grouping_factor = 0.6;
  p.grid_bits = 8;
  p.seed = 83;
  eval::Workload w = eval::Workload::Build(p);
  PebTree& tree = w.peb();
  ASSERT_TRUE(tree.ValidateInvariants().ok());

  // Open policies between random pairs until a re-encode moves some hosted
  // user's quantized SV.
  const RoleId role = w.catalog()->DefineRole("rekey");
  Rng rng(84);
  std::shared_ptr<const EncodingSnapshot> before = tree.snapshot();
  ReencodeResult re;
  UserId moved = kInvalidUserId;
  for (int attempt = 0; attempt < 20 && moved == kInvalidUserId; ++attempt) {
    const auto owner = static_cast<UserId>(rng.NextBelow(p.num_users));
    const auto peer = static_cast<UserId>(rng.NextBelow(p.num_users));
    if (owner == peer) continue;
    ASSERT_TRUE(
        w.catalog()->AddPolicy(owner, peer, EverywherePolicy(role)).ok());
    auto result = w.catalog()->Reencode();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    re = *result;
    for (UserId uid : re.rekeyed) {
      if (re.snapshot->quantized_sv(uid) != before->quantized_sv(uid)) {
        moved = uid;
        break;
      }
    }
    if (moved == kInvalidUserId) {
      ASSERT_TRUE(tree.AdoptSnapshot(re.snapshot, &re.rekeyed).ok());
      before = re.snapshot;
    }
  }
  ASSERT_NE(moved, kInvalidUserId) << "no re-encode moved a quantized SV";

  // Adopt with a re-key list that omits the moved user: it stays filed
  // under its old key, which only the key re-derivation check can see.
  std::vector<UserId> partial;
  for (UserId uid : re.rekeyed) {
    if (uid != moved) partial.push_back(uid);
  }
  ASSERT_TRUE(tree.AdoptSnapshot(re.snapshot, &partial).ok());
  Status st = tree.ValidateInvariants();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();

  // A diff-all adopt re-derives every hosted key and repairs the tree.
  ASSERT_TRUE(tree.AdoptSnapshot(re.snapshot, nullptr).ok());
  st = tree.ValidateInvariants();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(NegativeValidation, DetectsCorruptedPinCountAndFrameTable) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{8});
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    ids.push_back(g->id());
  }
  ASSERT_TRUE(pool.ValidateInvariants().ok());

  // A negative pin count can only come from an unbalanced unpin.
  int old_pin = BufferPoolTestPeer::SetPinCount(&pool, ids[0], -3);
  Status st = pool.ValidateInvariants();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  BufferPoolTestPeer::SetPinCount(&pool, ids[0], old_pin);
  ASSERT_TRUE(pool.ValidateInvariants().ok());

  // Crossed table entries: each page id resolves to a frame holding the
  // other page's bytes.
  auto [a, b] = BufferPoolTestPeer::TwoResidentPages(&pool);
  ASSERT_NE(a, kInvalidPageId);
  ASSERT_NE(b, kInvalidPageId);
  BufferPoolTestPeer::SwapTableEntries(&pool, a, b);
  st = pool.ValidateInvariants();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  BufferPoolTestPeer::SwapTableEntries(&pool, a, b);
  EXPECT_TRUE(pool.ValidateInvariants().ok());
}

}  // namespace
}  // namespace peb
