// PkNN tests: the search (cost-model-seeded radius, exact annulus-delta
// scans, qsv-run coalescing, streaming shard merge with retirement) must
// match the Definition 3 brute-force oracle — on a single tree and on the
// engine at any shard count, for adversarial k values at or above the
// number of matching friends, and while policy-encoding epochs transition
// under the queries. The engine must also stay bit-identical to the single
// tree (shard invariance). Runs under the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/sharded_engine.h"
#include "eval/runner.h"
#include "eval/workload.h"
#include "policy/policy_catalog.h"
#include "pknn_expect.h"
#include "test_util.h"

namespace peb {
namespace {

using engine::ShardedPebEngine;
using eval::MakeEngine;
using eval::MakePknnQueries;
using eval::PknnQuery;
using eval::QuerySetOptions;
using eval::Workload;
using eval::WorkloadParams;

WorkloadParams SmallParams(uint64_t seed) {
  WorkloadParams p;
  p.num_users = 800;
  p.policies_per_user = 10;
  p.buffer_pages = 50;
  p.grid_bits = 8;
  p.seed = seed;
  return p;
}

/// A single PEB-tree with the workload's default options on its own pool.
struct SingleTree {
  explicit SingleTree(const Workload& w) {
    pool = std::make_unique<BufferPool>(
        &disk, BufferPoolOptions{w.params().buffer_pages});
    tree = std::make_unique<PebTree>(pool.get(),
                                     eval::PebOptionsFor(w.params()),
                                     &w.store(), &w.roles(),
                                     w.catalog().snapshot());
    for (const MovingObject& o : w.dataset().objects) {
      EXPECT_TRUE(tree->Insert(o).ok());
    }
  }

  InMemoryDiskManager disk;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<PebTree> tree;
};

/// Definition 3 reference answer over the workload's dataset.
std::vector<Neighbor> BruteForce(const Workload& w, const PknnQuery& q,
                                 size_t k) {
  return testing::BruteForcePknn(w.dataset(), w.store(), w.roles(), q.issuer,
                                 q.qloc, k, q.tq, w.params().time_domain);
}

/// Sorts a kNN answer by (distance, uid): distances are continuous, so
/// this only normalizes the order of exact ties, which merges may permute.
std::vector<Neighbor> Normalized(std::vector<Neighbor> v) {
  std::sort(v.begin(), v.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.uid < b.uid;
  });
  return v;
}

/// Shard invariance: the engine scans the same stored records as the
/// single tree, so even floating-point distances match exactly.
void ExpectBitIdentical(const std::vector<Neighbor>& want,
                        const std::vector<Neighbor>& got,
                        const std::string& context) {
  std::vector<Neighbor> wn = Normalized(want);
  std::vector<Neighbor> gn = Normalized(got);
  ASSERT_EQ(gn.size(), wn.size()) << context;
  for (size_t r = 0; r < wn.size(); ++r) {
    EXPECT_EQ(gn[r].uid, wn[r].uid) << context << " rank " << r;
    EXPECT_EQ(gn[r].distance, wn[r].distance) << context << " rank " << r;
  }
}

class PknnWorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new Workload(Workload::Build(SmallParams(17)));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static Workload& world() { return *world_; }

  static Workload* world_;
};

Workload* PknnWorldTest::world_ = nullptr;

TEST_F(PknnWorldTest, SingleTreeMatchesBruteForce) {
  SingleTree single(world());

  QuerySetOptions q;
  q.count = 40;
  q.seed = 2024;
  auto knn = MakePknnQueries(world(), q);
  bool any_results = false;
  for (size_t i = 0; i < knn.size(); ++i) {
    auto got = single.tree->KnnQuery(knn[i].issuer, knn[i].qloc, knn[i].k,
                                     knn[i].tq);
    ASSERT_TRUE(got.ok());
    testing::ExpectSamePknn(BruteForce(world(), knn[i], knn[i].k), *got,
                            "single-tree query " + std::to_string(i));
    any_results |= !got->empty();
  }
  EXPECT_TRUE(any_results);  // The batch exercised non-trivial searches.
}

class PknnShardCountTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PknnShardCountTest, EngineMatchesBruteForceAndSingleTree) {
  const size_t shards = GetParam();
  Workload w = Workload::Build(SmallParams(29));
  SingleTree single(w);
  auto engine = MakeEngine(w, shards, 4);

  QuerySetOptions q;
  q.count = 30;
  q.seed = 3030;
  auto knn = MakePknnQueries(w, q);
  for (size_t i = 0; i < knn.size(); ++i) {
    auto want = single.tree->KnnQuery(knn[i].issuer, knn[i].qloc, knn[i].k,
                                      knn[i].tq);
    auto got =
        engine->KnnQuery(knn[i].issuer, knn[i].qloc, knn[i].k, knn[i].tq);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    const std::string context = "engine query " + std::to_string(i);
    testing::ExpectSamePknn(BruteForce(w, knn[i], knn[i].k), *got, context);
    ExpectBitIdentical(*want, *got, context);
  }
}

TEST_P(PknnShardCountTest, AdversarialKAtOrAboveMatchingFriends) {
  const size_t shards = GetParam();
  Workload w = Workload::Build(SmallParams(31));
  SingleTree single(w);
  auto engine = MakeEngine(w, shards, 2);

  // With 10 policies/user an issuer has far fewer matching friends than
  // these k values, so every search exhausts its rows (the k-candidates
  // early stop never fires) and must still terminate and agree.
  QuerySetOptions q;
  q.count = 8;
  q.seed = 4242;
  auto knn = MakePknnQueries(w, q);
  for (size_t k : {25u, 200u, 800u, 1000u}) {
    for (size_t i = 0; i < knn.size(); ++i) {
      auto one = single.tree->KnnQuery(knn[i].issuer, knn[i].qloc, k,
                                       knn[i].tq);
      auto fanned =
          engine->KnnQuery(knn[i].issuer, knn[i].qloc, k, knn[i].tq);
      ASSERT_TRUE(one.ok());
      ASSERT_TRUE(fanned.ok());
      EXPECT_LE(one->size(), k);
      const std::string context =
          "k=" + std::to_string(k) + " query " + std::to_string(i);
      const std::vector<Neighbor> want = BruteForce(w, knn[i], k);
      testing::ExpectSamePknn(want, *one, "single " + context);
      testing::ExpectSamePknn(want, *fanned, "engine " + context);
      ExpectBitIdentical(*one, *fanned, "engine " + context);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, PknnShardCountTest,
                         ::testing::Values(1, 2, 4, 7));

// ---------------------------------------------------------------------------
// Mid-query epoch stability
// ---------------------------------------------------------------------------

// Queries pin the encoding snapshot at admission, so a streaming PkNN that
// overlaps an epoch transition must answer ENTIRELY under one epoch: its
// response's stamped epoch names which, and the answer must equal a static
// index pinned at that snapshot. The policy store is mutated BEFORE the
// concurrent phase (verification state stays constant; only the snapshot
// flips), so each epoch has one well-defined expected answer set.
TEST(PknnEpochStability, StreamingQueriesSeeExactlyOneEpoch) {
  WorkloadParams p = SmallParams(37);
  p.num_users = 400;
  Workload w = Workload::Build(p);
  PolicyCatalog* catalog = w.catalog();

  std::shared_ptr<const EncodingSnapshot> s0 = catalog->snapshot();

  // One mutation wave -> epoch 1. The store is final from here on.
  Lpp grant;
  grant.role = catalog->DefineRole("epoch-test-role");
  grant.locr = Rect::Space(p.space_side);
  grant.tint = TimeOfDayInterval::AllDay(p.time_domain);
  for (UserId u = 0; u < 12; ++u) {
    ASSERT_TRUE(catalog->AddPolicy(u, u + 40, grant).ok());
  }
  auto re = catalog->Reencode();
  ASSERT_TRUE(re.ok());
  std::shared_ptr<const EncodingSnapshot> s1 = re->snapshot;
  ASSERT_NE(s0->epoch(), s1->epoch());

  // Expected answers per epoch, from single trees pinned at each snapshot
  // (same final store/roles).
  auto make_pinned = [&](std::shared_ptr<const EncodingSnapshot> snap,
                         InMemoryDiskManager* disk,
                         std::unique_ptr<BufferPool>* pool) {
    pool->reset(new BufferPool(disk, BufferPoolOptions{p.buffer_pages}));
    PebTreeOptions opts = eval::PebOptionsFor(p);
    auto tree = std::make_unique<PebTree>(pool->get(), opts, &w.store(),
                                          &w.roles(), std::move(snap));
    for (const MovingObject& o : w.dataset().objects) {
      EXPECT_TRUE(tree->Insert(o).ok());
    }
    return tree;
  };
  InMemoryDiskManager disk0, disk1;
  std::unique_ptr<BufferPool> pool0, pool1;
  auto tree0 = make_pinned(s0, &disk0, &pool0);
  auto tree1 = make_pinned(s1, &disk1, &pool1);

  QuerySetOptions q;
  q.count = 12;
  q.seed = 555;
  auto knn = MakePknnQueries(w, q);
  std::vector<std::vector<Neighbor>> want0, want1;
  for (const PknnQuery& query : knn) {
    auto a = tree0->KnnQuery(query.issuer, query.qloc, query.k, query.tq);
    auto b = tree1->KnnQuery(query.issuer, query.qloc, query.k, query.tq);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    want0.push_back(Normalized(*a));
    want1.push_back(Normalized(*b));
  }

  // The engine (built at the catalog's current epoch) flips s0 <-> s1
  // while query threads hammer it; every response must match the expected
  // answers of the epoch it reports.
  auto engine = MakeEngine(w, 4, 4);
  ASSERT_EQ(engine->encoding_epoch(), s1->epoch());

  std::atomic<bool> stop{false};
  std::atomic<size_t> checked{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      for (int iter = 0; iter < 15; ++iter) {
        size_t i = static_cast<size_t>(t + iter) % knn.size();
        QueryStats stats;
        auto got = engine->KnnQueryWithStats(knn[i].issuer, knn[i].qloc,
                                             knn[i].k, knn[i].tq, &stats);
        ASSERT_TRUE(got.ok());
        const std::vector<std::vector<Neighbor>>& want =
            stats.epoch == s0->epoch() ? want0 : want1;
        ASSERT_TRUE(stats.epoch == s0->epoch() ||
                    stats.epoch == s1->epoch());
        std::vector<Neighbor> gn = Normalized(*got);
        ASSERT_EQ(gn.size(), want[i].size()) << "query " << i;
        for (size_t r = 0; r < gn.size(); ++r) {
          EXPECT_EQ(gn[r].uid, want[i][r].uid) << "query " << i;
          EXPECT_EQ(gn[r].distance, want[i][r].distance) << "query " << i;
        }
        checked++;
      }
    });
  }
  std::thread flipper([&] {
    bool to_s1 = true;
    while (!stop.load()) {
      ASSERT_TRUE(engine->AdoptSnapshot(to_s1 ? s1 : s0, nullptr).ok());
      to_s1 = !to_s1;
    }
  });
  for (auto& r : readers) r.join();
  stop.store(true);
  flipper.join();
  EXPECT_EQ(checked.load(), 3u * 15u);
}

}  // namespace
}  // namespace peb
