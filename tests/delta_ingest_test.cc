// Log-structured ingestion tests: every response of the delta-ingesting
// engine — PRQ, PkNN, GetObject, size, continuous-query results and event
// streams — must equal the reference state after the same operations, across
// shard counts, under randomized interleavings of update batches,
// joins/leaves, queries, and explicit merges. The reference is a mirror
// Dataset of the live objects (answered by the Definition 2/3 brute-force
// oracles) plus a plain PebTree fed the same operations (for the
// continuous-query monitor). Two concurrent cases (a merging thread + writers +
// readers) run under the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/sharded_engine.h"
#include "eval/runner.h"
#include "eval/workload.h"
#include "peb/continuous.h"
#include "pknn_expect.h"
#include "test_util.h"

namespace peb {
namespace {

using engine::EngineOptions;
using engine::ShardedPebEngine;
using eval::CloneUniformUpdateStream;
using eval::MakePknnQueries;
using eval::MakePrqQueries;
using eval::QuerySetOptions;
using eval::Workload;
using eval::WorkloadParams;

std::unique_ptr<ShardedPebEngine> MakeDeltaEngine(
    Workload& w, size_t shards, size_t merge_threshold, size_t hard_cap = 0,
    bool paranoid = true) {
  EngineOptions opts;
  opts.num_shards = shards;
  opts.num_threads = shards == 1 ? 0 : 4;
  opts.buffer_pages = w.params().buffer_pages;
  opts.tree = eval::PebOptionsFor(w.params());
  opts.tree.index.paranoid_checks = paranoid;
  opts.delta.merge_threshold = merge_threshold;
  opts.delta.hard_cap = hard_cap;
  auto engine = std::make_unique<ShardedPebEngine>(
      opts, &w.store(), &w.roles(), w.catalog()->snapshot());
  EXPECT_TRUE(engine->LoadDataset(w.dataset()).ok());
  return engine;
}

/// The live objects the engine must expose: a Dataset the brute-force
/// oracles scan, with an id index for membership.
class Mirror {
 public:
  explicit Mirror(const Dataset& initial) : ds_(initial) {
    for (size_t i = 0; i < ds_.objects.size(); ++i) {
      at_[ds_.objects[i].id] = i;
    }
  }

  const Dataset& dataset() const { return ds_; }
  size_t size() const { return ds_.objects.size(); }
  bool Contains(UserId id) const { return at_.contains(id); }
  const MovingObject& Get(UserId id) const { return ds_.objects[at_.at(id)]; }

  void Upsert(const MovingObject& o) {
    auto it = at_.find(o.id);
    if (it != at_.end()) {
      ds_.objects[it->second] = o;
      return;
    }
    at_[o.id] = ds_.objects.size();
    ds_.objects.push_back(o);
  }

  void Remove(UserId id) {
    const size_t i = at_.at(id);
    at_.erase(id);
    if (i + 1 != ds_.objects.size()) {
      ds_.objects[i] = ds_.objects.back();
      at_[ds_.objects[i].id] = i;
    }
    ds_.objects.pop_back();
  }

 private:
  Dataset ds_;
  std::unordered_map<UserId, size_t> at_;
};

/// Every PRQ/PkNN answer of `engine` equal to the brute-force oracles over
/// the mirror's live objects.
void ExpectMatchesMirror(Workload& w, ShardedPebEngine& engine,
                         const Mirror& mirror, uint64_t query_seed,
                         const std::string& context) {
  const double td = w.params().time_domain;
  QuerySetOptions q;
  q.count = 10;
  q.window_side = 250.0;
  q.seed = query_seed;
  for (const auto& prq : MakePrqQueries(w, q)) {
    auto got = engine.RangeQuery(prq.issuer, prq.range, prq.tq);
    ASSERT_TRUE(got.ok()) << context;
    EXPECT_EQ(*got, testing::BruteForcePrq(mirror.dataset(), w.store(),
                                           w.roles(), prq.issuer, prq.range,
                                           prq.tq, td))
        << context;
  }
  for (const auto& knn : MakePknnQueries(w, q)) {
    auto got = engine.KnnQuery(knn.issuer, knn.qloc, knn.k, knn.tq);
    ASSERT_TRUE(got.ok()) << context;
    testing::ExpectSamePknn(
        testing::BruteForcePknn(mirror.dataset(), w.store(), w.roles(),
                                knn.issuer, knn.qloc, knn.k, knn.tq, td),
        *got, context);
  }
  EXPECT_EQ(engine.size(), mirror.size()) << context;
}

/// An id the probes below use: mostly a real user, sometimes one outside
/// the policy encoding (just past it, or far past it), which must be
/// rejected before it indexes any per-user state.
UserId ProbeId(std::mt19937& rng, size_t num_users) {
  switch (rng() % 8) {
    case 0:
      return static_cast<UserId>(num_users + rng() % 16);
    case 1:
      return UserId{4000000000u};
    default:
      return static_cast<UserId>(rng() % num_users);
  }
}

// ---------------------------------------------------------------------------
// Randomized interleaving vs the mirror
// ---------------------------------------------------------------------------

class DeltaIngestOracleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DeltaIngestOracleTest, RandomInterleavingMatchesMirror) {
  const size_t shards = GetParam();
  WorkloadParams wp;
  wp.num_users = 500;
  wp.policies_per_user = 10;
  wp.buffer_pages = 64;
  wp.grid_bits = 8;
  wp.seed = 29;
  Workload w = Workload::Build(wp);

  // Small merge threshold so the interleaving crosses many merge points;
  // paranoid_checks audits delta/tree agreement inside every one of them.
  auto engine = MakeDeltaEngine(w, shards, /*merge_threshold=*/48);
  Mirror mirror(w.dataset());

  // The continuous-query reference: a plain PEB-tree (one update path) fed
  // the same operations, watched by its own monitor.
  InMemoryDiskManager ref_disk;
  BufferPool ref_pool(&ref_disk, BufferPoolOptions{wp.buffer_pages});
  PebTree ref_tree(&ref_pool, eval::PebOptionsFor(w.params()), &w.store(),
                   &w.roles(), w.catalog()->snapshot());
  for (const MovingObject& o : w.dataset().objects) {
    ASSERT_TRUE(ref_tree.Insert(o).ok());
  }

  // One deterministic event sequence, applied to the engine, the mirror and
  // the reference tree.
  auto stream = CloneUniformUpdateStream(w);
  ASSERT_NE(stream, nullptr);

  // Continuous queries over the engine and the reference tree, fed
  // identically in stream order.
  ContinuousQueryMonitor mon_engine(engine.get(), &w.store(), &w.roles(),
                                    w.catalog()->snapshot());
  ContinuousQueryMonitor mon_ref(&ref_tree, &w.store(), &w.roles(),
                                 w.catalog()->snapshot());
  Timestamp now = w.params().delta_t_mu;
  std::vector<ContinuousQueryId> cq_engine;
  std::vector<ContinuousQueryId> cq_ref;
  {
    QuerySetOptions q;
    q.count = 5;
    q.window_side = 300.0;
    q.seed = 4242;
    for (const auto& prq : MakePrqQueries(w, q)) {
      auto a = mon_engine.Register(prq.issuer, prq.range, now);
      auto b = mon_ref.Register(prq.issuer, prq.range, now);
      ASSERT_TRUE(a.ok() && b.ok());
      cq_engine.push_back(*a);
      cq_ref.push_back(*b);
    }
    EXPECT_EQ(mon_engine.TakeEvents(), mon_ref.TakeEvents());
  }

  const std::string tag = std::to_string(shards) + " shards";
  std::mt19937 rng(1000 + shards);

  auto check_continuous = [&](const std::string& context) {
    for (size_t i = 0; i < cq_engine.size(); ++i) {
      auto a = mon_engine.ResultOf(cq_engine[i]);
      auto b = mon_ref.ResultOf(cq_ref[i]);
      ASSERT_TRUE(a.ok() && b.ok()) << context;
      EXPECT_EQ(*a, *b) << context << " continuous query " << i;
    }
  };

  // Insert `obj` everywhere; the status follows from mirror membership.
  size_t rejoins = 0;
  auto insert = [&](const MovingObject& obj) {
    Status got = engine->Insert(obj);
    Status ref = ref_tree.Insert(obj);
    EXPECT_EQ(got.code(), ref.code()) << got.ToString() << " vs "
                                      << ref.ToString();
    if (obj.id >= wp.num_users) {
      EXPECT_TRUE(got.IsInvalidArgument()) << got.ToString();
    } else if (mirror.Contains(obj.id)) {
      EXPECT_TRUE(got.IsAlreadyExists()) << got.ToString();
    } else {
      ASSERT_TRUE(got.ok()) << got.ToString();
      ++rejoins;
      mirror.Upsert(obj);
      ASSERT_TRUE(mon_engine.OnUpdate(obj, now).ok());
      ASSERT_TRUE(mon_ref.OnUpdate(obj, now).ok());
    }
  };

  for (int round = 0; round < 40; ++round) {
    switch (rng() % 6) {
      case 0:
      case 1: {  // Update batch, identically applied and monitor-fed.
        const size_t n = 1 + rng() % 96;
        std::vector<UpdateEvent> batch;
        batch.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          batch.push_back(stream->Next());
        }
        ASSERT_TRUE(engine->ApplyBatch(batch).ok());
        for (const UpdateEvent& ev : batch) {
          now = std::max(now, ev.t);
          // ApplyBatch upserts: a removed user who updates rejoins.
          mirror.Upsert(ev.state);
          ASSERT_TRUE(ref_tree.Update(ev.state).ok());
          ASSERT_TRUE(mon_engine.OnUpdate(ev.state, ev.t).ok());
          ASSERT_TRUE(mon_ref.OnUpdate(ev.state, ev.t).ok());
        }
        break;
      }
      case 2: {  // Leave: a tombstone in the engine's delta.
        const UserId uid = ProbeId(rng, wp.num_users);
        Status got = engine->Delete(uid);
        Status ref = ref_tree.Delete(uid);
        EXPECT_EQ(got.code(), ref.code()) << got.ToString() << " vs "
                                          << ref.ToString();
        if (mirror.Contains(uid)) {
          ASSERT_TRUE(got.ok()) << got.ToString();
          mirror.Remove(uid);
        } else {
          EXPECT_TRUE(got.IsNotFound()) << got.ToString();
        }
        ASSERT_TRUE(mon_engine.Advance(now).ok());
        ASSERT_TRUE(mon_ref.Advance(now).ok());
        break;
      }
      case 3: {  // Join: sparse re-insert of a removed user, whose
                 // tombstone may still sit in the delta; now and then a
                 // probe id instead (live, just past, or far past the
                 // policy encoding).
        std::vector<UserId> removed;
        for (UserId u = 0; u < wp.num_users; ++u) {
          if (!mirror.Contains(u)) removed.push_back(u);
        }
        MovingObject obj;
        obj.id = !removed.empty() && rng() % 4 != 0
                     ? removed[rng() % removed.size()]
                     : ProbeId(rng, wp.num_users);
        obj.pos = {static_cast<double>(rng() % 1000),
                   static_cast<double>(rng() % 1000)};
        obj.vel = {1.0, -1.0};
        obj.tu = now;
        insert(obj);
        break;
      }
      case 4: {  // Explicit merge: must not change any answer.
        ASSERT_TRUE(engine->MergeDeltas().ok());
        break;
      }
      default: {  // Duplicate insert of a (usually) live user.
        MovingObject obj;
        obj.id = ProbeId(rng, wp.num_users);
        obj.tu = now;
        insert(obj);
        break;
      }
    }
    if (round % 4 == 0) {
      const std::string context = tag + " round " + std::to_string(round);
      ExpectMatchesMirror(w, *engine, mirror,
                          2000 + static_cast<uint64_t>(round), context);
      check_continuous(context);
      EXPECT_EQ(mon_engine.TakeEvents(), mon_ref.TakeEvents()) << context;
      // Spot-check GetObject, including removed and unknown users.
      for (int probe = 0; probe < 8; ++probe) {
        const UserId uid = ProbeId(rng, wp.num_users);
        auto got = engine->GetObject(uid);
        ASSERT_EQ(got.ok(), mirror.Contains(uid))
            << context << " GetObject " << uid;
        if (got.ok()) {
          const MovingObject& want = mirror.Get(uid);
          EXPECT_EQ(got->pos.x, want.pos.x);
          EXPECT_EQ(got->pos.y, want.pos.y);
          EXPECT_EQ(got->vel.x, want.vel.x);
          EXPECT_EQ(got->vel.y, want.vel.y);
          EXPECT_EQ(got->tu, want.tu);
        } else {
          EXPECT_TRUE(got.status().IsNotFound()) << context;
        }
      }
    }
    if (round % 8 == 0) {
      ASSERT_TRUE(engine->ValidateInvariants().ok());
    }
  }

  // Settle and compare once more: a fully merged engine must still agree,
  // and its buffers must actually be empty.
  ASSERT_TRUE(engine->MergeDeltas().ok());
  EXPECT_EQ(engine->delta_stats().buffered_records, 0u);
  EXPECT_GT(engine->delta_stats().merges, 0u);
  EXPECT_GT(engine->delta_stats().appended_total, 0u);
  ExpectMatchesMirror(w, *engine, mirror, 9999, tag + " final");
  check_continuous(tag + " final");
  EXPECT_EQ(mon_engine.TakeEvents(), mon_ref.TakeEvents());
  EXPECT_EQ(ref_tree.size(), mirror.size());
  EXPECT_GT(rejoins, 0u) << tag << ": no removed user ever rejoined";
  ASSERT_TRUE(engine->ValidateInvariants().ok());
}

TEST_P(DeltaIngestOracleTest, RejoinOverBufferedTombstone) {
  const size_t shards = GetParam();
  WorkloadParams wp;
  wp.num_users = 300;
  wp.policies_per_user = 8;
  wp.buffer_pages = 64;
  wp.grid_bits = 8;
  wp.seed = 41;
  Workload w = Workload::Build(wp);
  // Threshold high enough that no merge runs until the explicit one, so
  // every Insert below meets its user's tombstone in the delta.
  auto engine = MakeDeltaEngine(w, shards, /*merge_threshold=*/1u << 20);
  Mirror mirror(w.dataset());
  const std::string tag = std::to_string(shards) + " shards";

  const Timestamp now = w.params().delta_t_mu;
  for (UserId uid = 0; uid < 20; ++uid) {
    ASSERT_TRUE(engine->Delete(uid).ok());
    mirror.Remove(uid);
    EXPECT_TRUE(engine->GetObject(uid).status().IsNotFound());
    EXPECT_TRUE(engine->Delete(uid).IsNotFound());
    MovingObject obj;
    obj.id = uid;
    obj.pos = {50.0 * uid, 1000.0 - 50.0 * uid};
    obj.vel = {1.0, -1.0};
    obj.tu = now;
    ASSERT_TRUE(engine->Insert(obj).ok()) << tag << " user " << uid;
    mirror.Upsert(obj);
    EXPECT_TRUE(engine->Insert(obj).IsAlreadyExists());
    auto got = engine->GetObject(uid);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->pos.x, obj.pos.x);
    EXPECT_EQ(got->pos.y, obj.pos.y);
  }
  EXPECT_GT(engine->delta_stats().buffered_records, 0u);
  ExpectMatchesMirror(w, *engine, mirror, 4100, tag + " buffered");
  ASSERT_TRUE(engine->ValidateInvariants().ok());

  ASSERT_TRUE(engine->MergeDeltas().ok());
  EXPECT_EQ(engine->delta_stats().buffered_records, 0u);
  ExpectMatchesMirror(w, *engine, mirror, 4101, tag + " merged");
  ASSERT_TRUE(engine->ValidateInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, DeltaIngestOracleTest,
                         ::testing::Values(size_t{1}, size_t{4}));

// ---------------------------------------------------------------------------
// Backpressure
// ---------------------------------------------------------------------------

TEST(DeltaIngestBackpressure, HardCapForcesInlineMergeOnTheWriter) {
  WorkloadParams wp;
  wp.num_users = 300;
  wp.policies_per_user = 8;
  wp.buffer_pages = 64;
  wp.grid_bits = 8;
  wp.seed = 31;
  Workload w = Workload::Build(wp);
  // Threshold high enough that only the hard cap can trigger merges.
  auto engine = MakeDeltaEngine(w, 2, /*merge_threshold=*/1u << 20,
                                /*hard_cap=*/32);
  Mirror mirror(w.dataset());
  auto stream = CloneUniformUpdateStream(w);
  for (int i = 0; i < 400; ++i) {
    UpdateEvent ev = stream->Next();
    ASSERT_TRUE(engine->Update(ev.state).ok());
    mirror.Upsert(ev.state);
    // The per-shard buffer never grows past the cap plus the one record
    // appended after the forced merge.
    for (size_t s = 0; s < engine->num_shards(); ++s) {
      EXPECT_LE(engine->shard_delta_records(s), 33u);
    }
  }
  const auto stats = engine->delta_stats();
  EXPECT_GT(stats.backpressure_merges, 0u);
  EXPECT_EQ(stats.appended_total, 400u);
  ExpectMatchesMirror(w, *engine, mirror, 777, "backpressure");
}

// ---------------------------------------------------------------------------
// Concurrent smoke: merging thread + writers + readers (TSan)
// ---------------------------------------------------------------------------

TEST(DeltaIngestConcurrency, QueriesRaceUpdatesAndBackgroundMerges) {
  WorkloadParams wp;
  wp.num_users = 300;
  wp.policies_per_user = 8;
  wp.buffer_pages = 64;
  wp.grid_bits = 8;
  wp.seed = 37;
  Workload w = Workload::Build(wp);
  // A merging thread drains every delta each 1ms, racing the foreground
  // traffic; paranoid off so merge sections stay short and the
  // interleaving space stays large.
  auto engine = MakeDeltaEngine(w, 4, /*merge_threshold=*/32, /*hard_cap=*/0,
                                /*paranoid=*/false);
  auto stream = CloneUniformUpdateStream(w);

  constexpr size_t kBatches = 60;
  constexpr size_t kBatchSize = 20;
  std::vector<std::vector<UpdateEvent>> batches(kBatches);
  for (auto& batch : batches) {
    for (size_t i = 0; i < kBatchSize; ++i) {
      batch.push_back(stream->Next());
    }
  }
  // Joins and leaves race too: after batch i the writer deletes leaver(i)
  // and re-inserts the user it deleted after batch i - 1, so size reads
  // (PkNN seeds, size()) see non-zero membership effects in flight.
  auto leaver = [&](size_t i) {
    return static_cast<UserId>((i * 37 + 11) % wp.num_users);
  };
  auto rejoin = [&](size_t i) {
    MovingObject obj;
    obj.id = leaver(i - 1);
    obj.pos = {static_cast<double>(i * 16), 1000.0 - static_cast<double>(i)};
    obj.vel = {1.0, -1.0};
    obj.tu = batches[i].back().t;
    return obj;
  };
  std::vector<StatusCode> deletes(kBatches);
  std::vector<StatusCode> inserts(kBatches);

  // Bounded reader loops with yield gaps: an unbounded 100% shared-lock
  // duty cycle from several readers can starve the merge sections' writer
  // acquisition forever on reader-preferring rwlocks — a test pathology,
  // not an engine property (merges only need the occasional gap real
  // query traffic always has).
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (size_t i = 0; i < kBatches; ++i) {
      EXPECT_TRUE(engine->ApplyBatch(batches[i]).ok());
      deletes[i] = engine->Delete(leaver(i)).code();
      if (i > 0) inserts[i] = engine->Insert(rejoin(i)).code();
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937 rng(100 + r);
      QuerySetOptions q;
      q.count = 4;
      q.window_side = 250.0;
      q.seed = 600 + static_cast<uint64_t>(r);
      auto prqs = MakePrqQueries(w, q);
      auto knns = MakePknnQueries(w, q);
      for (int it = 0; it < 40 && !done.load(std::memory_order_acquire);
           ++it) {
        for (const auto& prq : prqs) {
          EXPECT_TRUE(
              engine->RangeQuery(prq.issuer, prq.range, prq.tq).ok());
        }
        for (const auto& knn : knns) {
          EXPECT_TRUE(
              engine->KnnQuery(knn.issuer, knn.qloc, knn.k, knn.tq).ok());
        }
        (void)engine->GetObject(ProbeId(rng, wp.num_users));
        (void)engine->size();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  std::thread validator([&] {
    for (int it = 0; it < 20 && !done.load(std::memory_order_acquire);
         ++it) {
      EXPECT_TRUE(engine->ValidateInvariants().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::thread merger([&] {
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_TRUE(engine->MergeDeltas().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  writer.join();
  for (auto& t : readers) t.join();
  validator.join();
  merger.join();

  // Settle and compare against the mirror at the same prefix. The writer's
  // statuses follow from membership alone (batches upsert, so a batch may
  // bring a deleted user back before the writer's own Insert does).
  Mirror mirror(w.dataset());
  size_t joins = 0;
  size_t leaves = 0;
  for (size_t i = 0; i < kBatches; ++i) {
    for (const UpdateEvent& ev : batches[i]) mirror.Upsert(ev.state);
    const UserId gone = leaver(i);
    if (mirror.Contains(gone)) {
      EXPECT_EQ(deletes[i], StatusCode::kOk) << "batch " << i;
      mirror.Remove(gone);
      ++leaves;
    } else {
      EXPECT_EQ(deletes[i], StatusCode::kNotFound) << "batch " << i;
    }
    if (i == 0) continue;
    const MovingObject back = rejoin(i);
    if (mirror.Contains(back.id)) {
      EXPECT_EQ(inserts[i], StatusCode::kAlreadyExists) << "batch " << i;
    } else {
      EXPECT_EQ(inserts[i], StatusCode::kOk) << "batch " << i;
      mirror.Upsert(back);
      ++joins;
    }
  }
  EXPECT_GT(joins, kBatches / 2);
  EXPECT_GT(leaves, kBatches / 2);
  EXPECT_EQ(engine->size(), mirror.size());
  ASSERT_TRUE(engine->MergeDeltas().ok());
  ExpectMatchesMirror(w, *engine, mirror, 888, "concurrent-settled");
  ASSERT_TRUE(engine->ValidateInvariants().ok());
}

// Readers share a shard tree with no lock of its own: with one shard every
// query scans the same tree while a writer's moves and a merging thread
// keep splitting and merging its pages. The moves touch only users outside
// every query issuer's friend list, so no query can return them, and every
// answer must equal the brute-force answer over the loaded dataset
// throughout.
TEST(DeltaIngestConcurrency, QueriesStayExactWhileMergesRestructureTrees) {
  WorkloadParams wp;
  wp.num_users = 1500;  // 15+ leaves on one shard, several on each of 4.
  wp.policies_per_user = 20;
  wp.buffer_pages = 64;
  wp.grid_bits = 8;
  wp.seed = 41;
  Workload w = Workload::Build(wp);
  const double td = w.params().time_domain;
  const auto snapshot = w.catalog()->snapshot();

  // Four PRQs and four PkNNs with non-empty answers, from a larger
  // candidate set (most random issuers are answered by nobody).
  constexpr size_t kQueries = 4;
  QuerySetOptions q;
  q.count = 200;
  q.window_side = 500.0;
  q.seed = 901;
  std::vector<eval::PrqQuery> prqs;
  std::vector<std::vector<UserId>> prq_want;
  std::unordered_set<UserId> answerable;
  for (const auto& prq : MakePrqQueries(w, q)) {
    auto want = testing::BruteForcePrq(w.dataset(), w.store(), w.roles(),
                                       prq.issuer, prq.range, prq.tq, td);
    if (want.empty() || prqs.size() == kQueries) continue;
    prqs.push_back(prq);
    prq_want.push_back(std::move(want));
    for (const FriendEntry& f : snapshot->FriendsOf(prq.issuer)) {
      answerable.insert(f.uid);
    }
  }
  std::vector<eval::PknnQuery> knns;
  std::vector<std::vector<Neighbor>> knn_want;
  for (const auto& knn : MakePknnQueries(w, q)) {
    auto want = testing::BruteForcePknn(w.dataset(), w.store(), w.roles(),
                                        knn.issuer, knn.qloc, knn.k, knn.tq,
                                        td);
    if (want.empty() || knns.size() == kQueries) continue;
    knns.push_back(knn);
    knn_want.push_back(std::move(want));
    for (const FriendEntry& f : snapshot->FriendsOf(knn.issuer)) {
      answerable.insert(f.uid);
    }
  }
  ASSERT_EQ(prqs.size(), kQueries);
  ASSERT_EQ(knns.size(), kQueries);
  constexpr size_t kBatches = 60;
  constexpr size_t kBatchSize = 16;
  auto stream = CloneUniformUpdateStream(w);
  std::vector<std::vector<UpdateEvent>> batches(kBatches);
  for (auto& batch : batches) {
    while (batch.size() < kBatchSize) {
      UpdateEvent ev = stream->Next();
      if (!answerable.contains(ev.state.id)) batch.push_back(ev);
    }
  }

  for (size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EngineOptions opts;
    opts.num_shards = shards;
    opts.num_threads = 4;
    opts.buffer_pages = wp.buffer_pages;
    opts.tree = eval::PebOptionsFor(wp);
    opts.delta.merge_threshold = 8;
    ShardedPebEngine engine(opts, &w.store(), &w.roles(), snapshot);
    ASSERT_TRUE(engine.LoadDataset(w.dataset()).ok());

    // Bounded reader loops with sleeps between passes, as above, so the
    // merges' exclusive acquisitions are not starved.
    const uint64_t merges_before = engine.delta_stats().merges;
    std::atomic<bool> reading{true};
    std::thread writer([&] {
      for (size_t i = 0;
           i < kBatches && reading.load(std::memory_order_acquire); ++i) {
        EXPECT_TRUE(engine.ApplyBatch(batches[i]).ok());
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
    std::thread merger([&] {
      while (reading.load(std::memory_order_acquire)) {
        EXPECT_TRUE(engine.MergeDeltas().ok());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    std::vector<std::thread> readers;
    for (int r = 0; r < 4; ++r) {
      readers.emplace_back([&] {
        for (int pass = 0; pass < 15; ++pass) {
          for (size_t i = 0; i < prqs.size(); ++i) {
            auto got =
                engine.RangeQuery(prqs[i].issuer, prqs[i].range, prqs[i].tq);
            ASSERT_TRUE(got.ok());
            EXPECT_EQ(*got, prq_want[i]) << "prq " << i;
          }
          for (size_t i = 0; i < knns.size(); ++i) {
            auto got = engine.KnnQuery(knns[i].issuer, knns[i].qloc,
                                       knns[i].k, knns[i].tq);
            ASSERT_TRUE(got.ok());
            testing::ExpectSamePknn(knn_want[i], *got,
                                    "pknn " + std::to_string(i));
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
    for (auto& t : readers) t.join();
    const uint64_t merges_during = engine.delta_stats().merges - merges_before;
    reading.store(false, std::memory_order_release);
    writer.join();
    merger.join();
    EXPECT_GT(merges_during, 0u);
    ASSERT_TRUE(engine.ValidateInvariants().ok());
  }
}

}  // namespace
}  // namespace peb
