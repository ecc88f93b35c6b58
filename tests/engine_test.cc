// ShardedPebEngine tests: the engine must be an observationally equivalent
// drop-in for the single PEB-tree — PRQ and PkNN answers identical for any
// shard count and thread count, with and without batched updates
// interleaved between query batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "engine/shard_router.h"
#include "engine/sharded_engine.h"
#include "engine/thread_pool.h"
#include "eval/runner.h"
#include "eval/workload.h"
#include "pknn_expect.h"
#include "policy/policy_generator.h"
#include "service/service.h"
#include "test_util.h"

namespace peb {
namespace {

using engine::ShardedPebEngine;
using engine::ThreadPool;
using eval::MakeEngine;
using eval::MakePknnQueries;
using eval::MakePrqQueries;
using eval::QuerySetOptions;
using eval::Workload;
using eval::WorkloadParams;

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunAllCompletesEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 1; i <= 100; ++i) {
    tasks.push_back([&sum, i] { sum += i; });
  }
  pool.RunAll(std::move(tasks));
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  int calls = 0;
  pool.Submit([&calls] { calls++; });
  pool.RunAll({[&calls] { calls++; }, [&calls] { calls++; }});
  EXPECT_EQ(calls, 3);
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

class EngineWorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadParams p;
    p.num_users = 800;
    p.policies_per_user = 10;
    p.buffer_pages = 50;
    p.grid_bits = 8;
    p.seed = 7;
    world_ = new Workload(Workload::Build(p));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  static Workload& world() { return *world_; }

  static Workload* world_;
};

Workload* EngineWorldTest::world_ = nullptr;

TEST_F(EngineWorldTest, RoutersAreStableAndInRange) {
  std::vector<size_t> population(7, 0);
  for (UserId u = 0; u < world().params().num_users; ++u) {
    size_t s = engine::ShardOf(u, 7);
    ASSERT_LT(s, 7u);
    EXPECT_EQ(s, engine::ShardOf(u, 7));  // Stable.
    population[s]++;
  }
  // No shard grossly overloaded.
  for (size_t s = 0; s < 7; ++s) {
    EXPECT_LT(population[s], world().params().num_users / 2) << "shard " << s;
  }
  // Routing is part of the database format (a reopened engine must find
  // every user in the shard that saved it), so the assignment is pinned.
  const std::vector<size_t> pinned = {3, 1, 2, 1, 2, 2, 0, 3, 2, 0, 2, 1};
  for (UserId u = 0; u < pinned.size(); ++u) {
    EXPECT_EQ(engine::ShardOf(u, 4), pinned[u]) << "user " << u;
  }
}

// ---------------------------------------------------------------------------
// Result equivalence vs the single PEB-tree
// ---------------------------------------------------------------------------

/// Sorts a kNN answer by (distance, uid): distances are continuous, so this
/// only normalizes the order of exact ties, which the merge may permute.
std::vector<Neighbor> Normalized(std::vector<Neighbor> v) {
  std::sort(v.begin(), v.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.uid < b.uid;
  });
  return v;
}

void ExpectSameAnswers(Workload& w, ShardedPebEngine& engine,
                       const std::vector<eval::PrqQuery>& prq,
                       const std::vector<eval::PknnQuery>& knn,
                       const char* context) {
  for (size_t i = 0; i < prq.size(); ++i) {
    auto want = w.peb().RangeQuery(prq[i].issuer, prq[i].range, prq[i].tq);
    auto got = engine.RangeQuery(prq[i].issuer, prq[i].range, prq[i].tq);
    ASSERT_TRUE(want.ok() && got.ok()) << context << " PRQ " << i;
    EXPECT_EQ(*got, *want) << context << " PRQ " << i;
  }
  for (size_t i = 0; i < knn.size(); ++i) {
    auto want =
        w.peb().KnnQuery(knn[i].issuer, knn[i].qloc, knn[i].k, knn[i].tq);
    auto got =
        engine.KnnQuery(knn[i].issuer, knn[i].qloc, knn[i].k, knn[i].tq);
    ASSERT_TRUE(want.ok() && got.ok()) << context << " PkNN " << i;
    std::vector<Neighbor> wantn = Normalized(*want);
    std::vector<Neighbor> gotn = Normalized(*got);
    ASSERT_EQ(gotn.size(), wantn.size()) << context << " PkNN " << i;
    for (size_t r = 0; r < wantn.size(); ++r) {
      EXPECT_EQ(gotn[r].uid, wantn[r].uid)
          << context << " PkNN " << i << " rank " << r;
      EXPECT_DOUBLE_EQ(gotn[r].distance, wantn[r].distance)
          << context << " PkNN " << i << " rank " << r;
    }
  }
}

struct EquivalenceParams {
  size_t shards;
  size_t threads;
};

class EngineEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceParams> {};

TEST_P(EngineEquivalenceTest, MatchesSingleTree) {
  const auto p = GetParam();
  WorkloadParams wp;
  wp.num_users = 800;
  wp.policies_per_user = 10;
  wp.buffer_pages = 50;
  wp.grid_bits = 8;
  wp.seed = 11;
  Workload w = Workload::Build(wp);
  auto engine = MakeEngine(w, p.shards, p.threads);
  ASSERT_EQ(engine->num_shards(), p.shards);
  ASSERT_EQ(engine->size(), w.peb().size());

  QuerySetOptions q;
  q.count = 30;
  q.window_side = 250.0;
  q.seed = 501;
  ExpectSameAnswers(w, *engine, MakePrqQueries(w, q), MakePknnQueries(w, q),
                    "static");
}

INSTANTIATE_TEST_SUITE_P(
    ShardCounts, EngineEquivalenceTest,
    ::testing::Values(EquivalenceParams{1, 0}, EquivalenceParams{2, 2},
                      EquivalenceParams{4, 4}, EquivalenceParams{7, 3}));

// ---------------------------------------------------------------------------
// Equivalence with batched updates interleaved between query batches
// ---------------------------------------------------------------------------

class EngineUpdateTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EngineUpdateTest, MatchesSingleTreeAcrossUpdateBatches) {
  const size_t shards = GetParam();
  WorkloadParams wp;
  wp.num_users = 600;
  wp.policies_per_user = 10;
  wp.buffer_pages = 50;
  wp.grid_bits = 8;
  wp.seed = 23;
  Workload w = Workload::Build(wp);

  // Identical event sequences: the update session drains a deterministic
  // clone of the stream Workload::ApplyUpdates consumes.
  std::unique_ptr<UpdateStream> stream = eval::CloneUniformUpdateStream(w);
  ASSERT_NE(stream, nullptr);
  auto engine = MakeEngine(w, shards, 4);
  service::MovingObjectService svc(engine.get(), w.catalog());
  auto session = svc.OpenUpdateSession(stream.get(), /*batch_size=*/64);

  QuerySetOptions q;
  q.count = 15;
  q.window_side = 250.0;
  const size_t kUpdatesPerPhase = 150;  // 25% of the users per phase.
  for (int phase = 0; phase < 3; ++phase) {
    q.seed = 900 + static_cast<uint64_t>(phase);
    ExpectSameAnswers(w, *engine, MakePrqQueries(w, q), MakePknnQueries(w, q),
                      "phase");
    ASSERT_TRUE(w.ApplyUpdates(kUpdatesPerPhase).ok());
    ASSERT_TRUE(session.Apply(kUpdatesPerPhase).ok());
    ASSERT_EQ(engine->size(), w.peb().size());
  }
  EXPECT_EQ(session.events_applied(), 3 * kUpdatesPerPhase);
  EXPECT_GT(session.batches_applied(), 0u);
  EXPECT_GT(session.last_event_time(), 0.0);
  // Final check after the last batch.
  q.seed = 999;
  ExpectSameAnswers(w, *engine, MakePrqQueries(w, q), MakePknnQueries(w, q),
                    "final");
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, EngineUpdateTest,
                         ::testing::Values(1, 2, 4, 7));

// ---------------------------------------------------------------------------
// I/O accounting
// ---------------------------------------------------------------------------

TEST_F(EngineWorldTest, AggregateIoIsTheSharedPool) {
  auto engine = MakeEngine(world(), 4, 2);
  // Every shard tree lives on one shared pool whose frame budget is
  // exactly the configured buffer_pages — no per-shard inflation.
  EXPECT_EQ(engine->buffer_frames_total(), world().params().buffer_pages);
  engine->ResetIo();
  IoStats zero = engine->aggregate_io();
  EXPECT_EQ(zero.physical_reads, 0u);
  EXPECT_EQ(zero.logical_fetches, 0u);

  QuerySetOptions q;
  q.count = 10;
  q.seed = 77;
  auto queries = MakePrqQueries(world(), q);
  for (const auto& query : queries) {
    ASSERT_TRUE(engine->RangeQuery(query.issuer, query.range, query.tq).ok());
  }
  IoStats after = engine->aggregate_io();
  EXPECT_GT(after.logical_fetches, 0u);
  // aggregate_io() IS the shared pool's traffic: each shard tree reports
  // the same totals (they share the pool), and the representative pool()
  // agrees.
  for (size_t s = 0; s < engine->num_shards(); ++s) {
    EXPECT_EQ(engine->shard_tree(s).aggregate_io().logical_fetches,
              after.logical_fetches);
  }
  EXPECT_EQ(engine->pool()->stats().logical_fetches, after.logical_fetches);
}

// ---------------------------------------------------------------------------
// Leaf-cursor scans vs the Definition 2/3 brute-force oracles
// ---------------------------------------------------------------------------

// A single PEB-tree on its own pool with a configurable Z-interval
// coalescing gap (0 = exact decomposition, one probe per interval).
struct SingleTree {
  SingleTree(Workload& w, uint64_t coalesce_gap) {
    PebTreeOptions opts = eval::PebOptionsFor(w.params());
    opts.index.zrange.coalesce_gap = coalesce_gap;
    pool = std::make_unique<BufferPool>(
        &disk, BufferPoolOptions{w.params().buffer_pages});
    tree = std::make_unique<PebTree>(pool.get(), opts, &w.store(), &w.roles(),
                                     w.catalog()->snapshot());
    for (const MovingObject& o : w.dataset().objects) {
      EXPECT_TRUE(tree->Insert(o).ok());
    }
  }

  InMemoryDiskManager disk;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<PebTree> tree;
};

/// Runs a PRQ and a PkNN batch against `index` and checks every answer
/// against the brute-force oracles over the world's dataset. Returns the
/// summed PkNN work counters.
QueryCounters ExpectMatchesBruteForce(Workload& w, PrivacyAwareIndex& index,
                                      uint64_t seed, const char* context) {
  QuerySetOptions q;
  q.count = 40;
  q.seed = seed;
  const double td = w.params().time_domain;
  for (const auto& query : MakePrqQueries(w, q)) {
    auto got = index.RangeQuery(query.issuer, query.range, query.tq);
    EXPECT_TRUE(got.ok()) << context;
    if (!got.ok()) continue;
    EXPECT_EQ(*got, testing::BruteForcePrq(w.dataset(), w.store(), w.roles(),
                                           query.issuer, query.range,
                                           query.tq, td))
        << context;
  }
  QueryCounters totals;
  size_t i = 0;
  for (const auto& query : MakePknnQueries(w, q)) {
    QueryStats stats;
    auto got = index.KnnQueryWithStats(query.issuer, query.qloc, query.k,
                                       query.tq, &stats);
    EXPECT_TRUE(got.ok()) << context;
    if (!got.ok()) continue;
    totals += stats.counters;
    testing::ExpectSamePknn(
        testing::BruteForcePknn(w.dataset(), w.store(), w.roles(),
                                query.issuer, query.qloc, query.k, query.tq,
                                td),
        *got, std::string(context) + " PkNN " + std::to_string(i++));
  }
  return totals;
}

TEST_F(EngineWorldTest, LeafCursorScansMatchBruteForce) {
  // Default coalescing and exact decomposition: coalescing only adds
  // scanned cells that query refinement discards.
  for (uint64_t gap : {uint64_t{3}, uint64_t{0}}) {
    SingleTree single(world(), gap);
    const std::string context = "coalesce_gap=" + std::to_string(gap);
    QueryCounters totals =
        ExpectMatchesBruteForce(world(), *single.tree, 1234, context.c_str());
    // The cursor actually engaged: descents far below one per probe.
    EXPECT_GT(totals.range_probes, 0u) << context;
    EXPECT_LT(totals.seek_descents, totals.range_probes) << context;
  }
}

TEST_F(EngineWorldTest, EngineMatchesBruteForce) {
  auto engine = MakeEngine(world(), 4, 4);
  ExpectMatchesBruteForce(world(), *engine, 4321, "engine");
}

// ---------------------------------------------------------------------------
// Ids outside the policy encoding
// ---------------------------------------------------------------------------

// An unknown id must be rejected (or, in a re-key list, skipped) before it
// reaches any per-user state: the presence bytes are indexed by id, and WAL
// replay feeds ids read from disk. Statuses match the single tree's.
TEST_F(EngineWorldTest, OutOfRangeIdsAreRejectedBeforeRouting) {
  auto engine = MakeEngine(world(), 4, 0);
  const size_t before = engine->size();
  for (UserId id : {static_cast<UserId>(world().params().num_users),
                    UserId{4000000000u}}) {
    const std::string context = "id " + std::to_string(id);
    EXPECT_TRUE(engine->GetObject(id).status().IsNotFound()) << context;
    EXPECT_TRUE(engine->Delete(id).IsNotFound()) << context;
    MovingObject obj;
    obj.id = id;
    EXPECT_TRUE(engine->Insert(obj).IsInvalidArgument()) << context;
    EXPECT_TRUE(engine->Update(obj).IsInvalidArgument()) << context;
    EXPECT_TRUE(
        engine->ApplyBatch({UpdateEvent{0.0, obj}}).IsInvalidArgument())
        << context;
    Dataset bulk;
    bulk.objects.push_back(obj);
    EXPECT_TRUE(engine->LoadDataset(bulk).IsInvalidArgument()) << context;
    const std::vector<UserId> rekey = {id};
    EXPECT_TRUE(
        engine->AdoptSnapshot(world().catalog()->snapshot(), &rekey).ok())
        << context;
  }
  EXPECT_EQ(engine->size(), before);
  EXPECT_TRUE(engine->ValidateInvariants().ok());
}

// ---------------------------------------------------------------------------
// Bulk loads
// ---------------------------------------------------------------------------

// A rejected bulk load changes nothing: every id is checked, against the
// engine's users and against repeats in the dataset, before any insert. An
// accepted one is not shadowed by a tombstone still buffered for its user.
TEST_F(EngineWorldTest, LoadDatasetIsAllOrNothing) {
  auto engine = MakeEngine(world(), 4, 2);
  auto five = engine->GetObject(5);
  auto six = engine->GetObject(6);
  ASSERT_TRUE(five.ok() && six.ok());
  ASSERT_TRUE(engine->Delete(5).ok());
  ASSERT_TRUE(engine->MergeDeltas().ok());
  const size_t before = engine->size();
  ASSERT_EQ(before, world().params().num_users - 1);

  const std::vector<std::vector<MovingObject>> rejected = {{*five, *six},
                                                           {*five, *five}};
  for (const auto& objects : rejected) {
    Dataset bulk;
    bulk.objects = objects;
    Status st = engine->LoadDataset(bulk);
    EXPECT_TRUE(st.IsAlreadyExists()) << st.ToString();
    EXPECT_EQ(engine->size(), before);
    EXPECT_TRUE(engine->GetObject(5).status().IsNotFound());
    EXPECT_TRUE(engine->ValidateInvariants().ok());
  }

  // User 5 rejoins and leaves again, both buffered; the load must win.
  ASSERT_TRUE(engine->Insert(*five).ok());
  ASSERT_TRUE(engine->Delete(5).ok());
  Dataset bulk;
  bulk.objects = {*five};
  ASSERT_TRUE(engine->LoadDataset(bulk).ok());
  for (const char* stage : {"loaded", "merged"}) {
    EXPECT_EQ(engine->size(), before + 1) << stage;
    auto got = engine->GetObject(5);
    ASSERT_TRUE(got.ok()) << stage;
    EXPECT_EQ(got->pos.x, five->pos.x) << stage;
    EXPECT_EQ(got->pos.y, five->pos.y) << stage;
    Status deep = engine->ValidateInvariants();
    EXPECT_TRUE(deep.ok()) << stage << ": " << deep.ToString();
    ASSERT_TRUE(engine->MergeDeltas().ok());
  }
}

// ---------------------------------------------------------------------------
// Snapshot adoption
// ---------------------------------------------------------------------------

// A snapshot the engine cannot key by is refused before anything is
// swapped: queries keep answering from the snapshot the engine already had.
TEST_F(EngineWorldTest, RejectedAdoptSnapshotLeavesEngineUnchanged) {
  auto engine = MakeEngine(world(), 4, 2);
  const UserId issuer = 300;
  const Rect range = Rect::CenteredSquare({500, 500}, 600.0);
  const Timestamp tq = world().now();
  auto before = engine->RangeQuery(issuer, range, tq);
  ASSERT_TRUE(before.ok());

  // Too small a population: issuer 300 has no friend list in it.
  PolicyGeneratorOptions pg;
  pg.num_users = 200;
  pg.policies_per_user = 5;
  GeneratedPolicies small = GeneratePolicies(pg);
  const CatalogOptions& co = world().catalog()->options();
  const SvQuantizer quant(co.sv_scale, co.sv_bits);
  auto too_few = std::make_shared<const EncodingSnapshot>(
      EncodingSnapshot::Build(small.store, 200, co.compat, co.sv, quant));
  // Right population, but wider than the key's SV field.
  auto too_wide = std::make_shared<const EncodingSnapshot>(
      EncodingSnapshot::Build(world().store(), world().params().num_users,
                              co.compat, co.sv,
                              SvQuantizer(co.sv_scale, co.sv_bits + 4)));

  for (const auto& rejected : {too_few, too_wide}) {
    EXPECT_TRUE(engine->AdoptSnapshot(rejected, nullptr).IsInvalidArgument());
    auto after = engine->RangeQuery(issuer, range, tq);
    ASSERT_TRUE(after.ok()) << after.status();
    EXPECT_EQ(*after, *before);
    EXPECT_TRUE(engine->ValidateInvariants().ok());
  }
}

}  // namespace
}  // namespace peb
