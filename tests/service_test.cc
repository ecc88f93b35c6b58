// MovingObjectService tests: the request/response front-end over every
// PrivacyAwareIndex.
//
//  * Validation conformance: PebTree, FilteringIndex, and ShardedPebEngine
//    reject malformed requests with IDENTICAL status codes (the
//    privacy_index.h contract).
//  * Response-carried observability: counters and per-query IoStats deltas
//    arrive by value, exact — serially, under concurrent submission
//    against interleaved update batches, and under concurrent queries on
//    every index, single trees included.
//  * Async submission: Submit/SubmitBatch answers equal serial Execute.
//  * Engine-wide continuous queries: identical event streams on 1-shard
//    and 4-shard engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "engine/sharded_engine.h"
#include "eval/runner.h"
#include "eval/workload.h"
#include "service/query_request.h"
#include "service/service.h"

namespace peb {
namespace {

using engine::ShardedPebEngine;
using eval::MakeEngine;
using eval::MakePknnQueries;
using eval::MakePrqQueries;
using eval::QuerySetOptions;
using eval::Workload;
using eval::WorkloadParams;
using service::MovingObjectService;
using service::QueryKind;
using service::QueryRequest;
using service::QueryResponse;
using service::ServiceOptions;

WorkloadParams SmallParams(uint64_t seed) {
  WorkloadParams p;
  p.num_users = 600;
  p.policies_per_user = 10;
  p.buffer_pages = 50;
  p.grid_bits = 8;
  p.seed = seed;
  return p;
}

// ---------------------------------------------------------------------------
// Uniform request-validation conformance across all three indexes
// ---------------------------------------------------------------------------

enum class IndexKind { kPebTree, kFiltering, kEngine };

class ConformanceTest : public ::testing::TestWithParam<IndexKind> {
 protected:
  static void SetUpTestSuite() {
    world_ = new Workload(Workload::Build(SmallParams(31)));
    engine_ = MakeEngine(*world_, 4, 2).release();
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
    delete world_;
    world_ = nullptr;
  }

  static PrivacyAwareIndex& index() {
    switch (GetParam()) {
      case IndexKind::kPebTree:
        return world_->peb();
      case IndexKind::kFiltering:
        return world_->spatial();
      case IndexKind::kEngine:
        return *engine_;
    }
    return world_->peb();
  }

  static Workload* world_;
  static ShardedPebEngine* engine_;
};

Workload* ConformanceTest::world_ = nullptr;
ShardedPebEngine* ConformanceTest::engine_ = nullptr;

TEST_P(ConformanceTest, InvertedRectIsInvalidArgument) {
  auto r = index().RangeQuery(0, {{600, 600}, {400, 400}}, world_->now());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
}

TEST_P(ConformanceTest, HalfInvertedRectIsInvalidArgument) {
  auto r = index().RangeQuery(0, {{100, 600}, {400, 400}}, world_->now());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
}

TEST_P(ConformanceTest, KZeroIsInvalidArgument) {
  auto r = index().KnnQuery(0, {500, 500}, 0, world_->now());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
}

TEST_P(ConformanceTest, UnknownIssuerIsNotFound) {
  UserId unknown = static_cast<UserId>(world_->params().num_users) + 7;
  auto prq =
      index().RangeQuery(unknown, {{400, 400}, {600, 600}}, world_->now());
  EXPECT_TRUE(prq.status().IsNotFound()) << prq.status();
  auto knn = index().KnnQuery(unknown, {500, 500}, 5, world_->now());
  EXPECT_TRUE(knn.status().IsNotFound()) << knn.status();
}

TEST_P(ConformanceTest, ValidRequestsSucceed) {
  auto prq = index().RangeQuery(3, {{300, 300}, {700, 700}}, world_->now());
  EXPECT_TRUE(prq.ok()) << prq.status();
  auto knn = index().KnnQuery(3, {500, 500}, 5, world_->now());
  EXPECT_TRUE(knn.ok()) << knn.status();
  // A degenerate point rectangle is legal (not inverted).
  auto point = index().RangeQuery(3, {{500, 500}, {500, 500}}, world_->now());
  EXPECT_TRUE(point.ok()) << point.status();
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, ConformanceTest,
                         ::testing::Values(IndexKind::kPebTree,
                                           IndexKind::kFiltering,
                                           IndexKind::kEngine));

// ---------------------------------------------------------------------------
// Response-carried counters and I/O, serial
// ---------------------------------------------------------------------------

TEST(ServiceExecute, AnswersMatchIndexAndCarryExactStats) {
  Workload w = Workload::Build(SmallParams(32));
  MovingObjectService& svc = w.peb_service();

  QuerySetOptions q;
  q.count = 25;
  q.seed = 71;
  for (const auto& query : MakePrqQueries(w, q)) {
    uint64_t before = w.peb().aggregate_io().physical_reads;
    QueryResponse resp =
        svc.Execute(QueryRequest::Prq(query.issuer, query.range, query.tq));
    uint64_t after = w.peb().aggregate_io().physical_reads;
    ASSERT_TRUE(resp.ok()) << resp.status;

    auto direct = w.peb().RangeQuery(query.issuer, query.range, query.tq);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(resp.ids, *direct);

    // Counters arrive by value and are internally consistent on the
    // serial path.
    EXPECT_EQ(resp.counters.results, resp.ids.size());
    EXPECT_LE(resp.counters.results, resp.counters.candidates_examined);
    // The response's I/O delta equals the pool-level delta (serial).
    EXPECT_EQ(resp.io.physical_reads, after - before);
    EXPECT_EQ(resp.io.logical_fetches,
              resp.io.cache_hits + resp.io.physical_reads);
  }
}

TEST(ServiceExecute, ValidationErrorsSurfaceInResponses) {
  Workload w = Workload::Build(SmallParams(34));
  MovingObjectService& svc = w.peb_service();
  EXPECT_TRUE(svc.Execute(QueryRequest::Prq(1, {{600, 600}, {400, 400}},
                                            w.now()))
                  .status.IsInvalidArgument());
  EXPECT_TRUE(
      svc.Execute(QueryRequest::Pknn(1, {500, 500}, 0, w.now()))
          .status.IsInvalidArgument());
  EXPECT_TRUE(svc.Execute(QueryRequest::Prq(
                              static_cast<UserId>(w.params().num_users) + 1,
                              {{400, 400}, {600, 600}}, w.now()))
                  .status.IsNotFound());
}

// ---------------------------------------------------------------------------
// Async submission
// ---------------------------------------------------------------------------

TEST(ServiceSubmit, FuturesMatchSerialExecution) {
  Workload w = Workload::Build(SmallParams(35));
  auto engine = MakeEngine(w, 4, 2);
  ServiceOptions opts;
  opts.num_workers = 4;
  MovingObjectService svc(engine.get(), w.catalog(), opts);

  QuerySetOptions q;
  q.count = 40;
  q.seed = 81;
  auto prq = MakePrqQueries(w, q);
  std::vector<QueryRequest> requests;
  for (const auto& query : prq) {
    requests.push_back(
        QueryRequest::Prq(query.issuer, query.range, query.tq));
  }
  auto futures = svc.SubmitBatch(std::move(requests));
  ASSERT_EQ(futures.size(), prq.size());
  for (size_t i = 0; i < futures.size(); ++i) {
    QueryResponse resp = futures[i].get();
    ASSERT_TRUE(resp.ok()) << resp.status;
    auto want = w.peb().RangeQuery(prq[i].issuer, prq[i].range, prq[i].tq);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(resp.ids, *want) << "query " << i;
    EXPECT_GE(resp.queue_ms, 0.0);
    EXPECT_GE(resp.exec_ms, 0.0);
  }
}

TEST(ServiceSubmit, InlineModeResolvesImmediately) {
  Workload w = Workload::Build(SmallParams(36));
  // Workload services run inline (num_workers = 0): the future is ready.
  auto future = w.peb_service().Submit(
      QueryRequest::Prq(5, {{300, 300}, {700, 700}}, w.now()));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_TRUE(future.get().ok());
}

TEST(ServiceSubmit, ExpiredDeadlineIsShed) {
  Workload w = Workload::Build(SmallParams(37));
  auto engine = MakeEngine(w, 2, 2);
  ServiceOptions opts;
  opts.num_workers = 1;  // FIFO: later requests wait for the first.
  MovingObjectService svc(engine.get(), w.catalog(), opts);

  // Occupy the single worker, then submit requests whose deadline (10 ns)
  // must already be exceeded by the time the worker reaches them.
  std::vector<std::future<QueryResponse>> futures;
  futures.push_back(svc.Submit(
      QueryRequest::Prq(1, {{0, 0}, {1000, 1000}}, w.now())));
  for (int i = 0; i < 10; ++i) {
    QueryRequest request =
        QueryRequest::Prq(2, {{300, 300}, {700, 700}}, w.now());
    request.options.deadline_ms = 1e-5;
    futures.push_back(svc.Submit(std::move(request)));
  }
  EXPECT_TRUE(futures[0].get().ok());
  for (size_t i = 1; i < futures.size(); ++i) {
    QueryResponse resp = futures[i].get();
    EXPECT_TRUE(resp.status.IsResourceExhausted()) << resp.status;
  }
}

// ---------------------------------------------------------------------------
// Concurrent submission against interleaved update batches
// ---------------------------------------------------------------------------

std::vector<Neighbor> Normalized(std::vector<Neighbor> v) {
  std::sort(v.begin(), v.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.uid < b.uid;
  });
  return v;
}

bool SameNeighbors(const std::vector<Neighbor>& a,
                   const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].uid != b[i].uid) return false;
    if (std::abs(a[i].distance - b[i].distance) > 1e-9) return false;
  }
  return true;
}

TEST(ServiceConcurrency, MixedSubmitAgainstUpdateSessionStaysExact) {
  const size_t kUpdates = 150;
  Workload w = Workload::Build(SmallParams(38));

  QuerySetOptions q;
  q.count = 30;
  q.window_side = 250.0;
  q.seed = 91;
  auto prq = MakePrqQueries(w, q);
  auto knn = MakePknnQueries(w, q);

  // Serial replays on the single tree: answers before (A) and after (B)
  // the update batch. The engine's state lock makes every query atomic
  // with respect to the whole batch, so each concurrent response must
  // equal one of the two.
  std::vector<std::vector<UserId>> prq_a, prq_b;
  std::vector<std::vector<Neighbor>> knn_a, knn_b;
  for (const auto& query : prq) {
    prq_a.push_back(
        *w.peb().RangeQuery(query.issuer, query.range, query.tq));
  }
  for (const auto& query : knn) {
    knn_a.push_back(Normalized(
        *w.peb().KnnQuery(query.issuer, query.qloc, query.k, query.tq)));
  }

  auto engine = MakeEngine(w, 4, 4);
  auto stream = eval::CloneUniformUpdateStream(w);
  ASSERT_NE(stream, nullptr);

  // Advance the reference tree to state B.
  ASSERT_TRUE(w.ApplyUpdates(kUpdates).ok());
  for (const auto& query : prq) {
    prq_b.push_back(
        *w.peb().RangeQuery(query.issuer, query.range, query.tq));
  }
  for (const auto& query : knn) {
    knn_b.push_back(Normalized(
        *w.peb().KnnQuery(query.issuer, query.qloc, query.k, query.tq)));
  }

  ServiceOptions opts;
  opts.num_workers = 4;
  MovingObjectService svc(engine.get(), w.catalog(), opts);
  auto session = svc.OpenUpdateSession(stream.get(), /*batch_size=*/256);

  // Fire the mixed async wave, then apply the whole batch concurrently.
  std::vector<QueryRequest> wave;
  for (const auto& query : prq) {
    wave.push_back(QueryRequest::Prq(query.issuer, query.range, query.tq));
  }
  for (const auto& query : knn) {
    wave.push_back(
        QueryRequest::Pknn(query.issuer, query.qloc, query.k, query.tq));
  }
  auto futures = svc.SubmitBatch(std::move(wave));
  ASSERT_TRUE(session.Apply(kUpdates).ok());
  EXPECT_EQ(session.events_applied(), kUpdates);

  for (size_t i = 0; i < futures.size(); ++i) {
    QueryResponse resp = futures[i].get();
    ASSERT_TRUE(resp.ok()) << "request " << i << ": " << resp.status;

    // Internal consistency of the by-value counters.
    EXPECT_LE(resp.counters.results, resp.counters.candidates_examined)
        << "request " << i;
    EXPECT_GT(resp.counters.range_probes, 0u) << "request " << i;
    // Exact I/O attribution: every fetch this query performed was either
    // a hit or a read — torn or cross-query counts would break this.
    EXPECT_EQ(resp.io.logical_fetches,
              resp.io.cache_hits + resp.io.physical_reads)
        << "request " << i;

    if (i < prq.size()) {
      EXPECT_EQ(resp.counters.results, resp.ids.size());
      bool matches_a = resp.ids == prq_a[i];
      bool matches_b = resp.ids == prq_b[i];
      EXPECT_TRUE(matches_a || matches_b)
          << "PRQ " << i << " matches neither pre- nor post-batch replay";
    } else {
      size_t j = i - prq.size();
      EXPECT_EQ(resp.counters.results, resp.neighbors.size());
      std::vector<Neighbor> got = Normalized(resp.neighbors);
      bool matches_a = SameNeighbors(got, knn_a[j]);
      bool matches_b = SameNeighbors(got, knn_b[j]);
      EXPECT_TRUE(matches_a || matches_b)
          << "PkNN " << j << " matches neither pre- nor post-batch replay";
    }
  }

  // After the batch settles, every answer must equal the B replay.
  for (size_t i = 0; i < prq.size(); ++i) {
    QueryResponse resp = svc.Execute(
        QueryRequest::Prq(prq[i].issuer, prq[i].range, prq[i].tq));
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.ids, prq_b[i]) << "post-batch PRQ " << i;
  }
}

TEST(ServiceConcurrency, ManualThreadsHammerExecute) {
  Workload w = Workload::Build(SmallParams(39));
  auto engine = MakeEngine(w, 4, 2);
  MovingObjectService svc(engine.get(), w.catalog());

  QuerySetOptions q;
  q.count = 24;
  q.seed = 99;
  auto prq = MakePrqQueries(w, q);
  std::vector<std::vector<UserId>> want;
  for (const auto& query : prq) {
    want.push_back(
        *w.peb().RangeQuery(query.issuer, query.range, query.tq));
  }

  constexpr size_t kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < prq.size(); i += kThreads) {
        for (int rep = 0; rep < 3; ++rep) {
          QueryResponse resp = svc.Execute(
              QueryRequest::Prq(prq[i].issuer, prq[i].range, prq[i].tq));
          if (!resp.ok() || resp.ids != want[i] ||
              resp.io.logical_fetches !=
                  resp.io.cache_hits + resp.io.physical_reads) {
            failures[t]++;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
}

// Every index answers queries concurrently: a 4-thread PRQ + PkNN hammer
// over the two single-tree services and a 4-shard engine service. Every
// answer must equal the serial run's, and so must each single-tree
// response's work counts — a counter slot shared between queries would tear
// them. The engine's PkNN retirement, and every index's seek descents and
// I/O, depend on timing or pool residency, so they are not compared.
TEST(ServiceConcurrency, EveryIndexAnswersQueriesConcurrently) {
  Workload w = Workload::Build(SmallParams(40));
  auto engine = MakeEngine(w, 4, 2);
  MovingObjectService engine_svc(engine.get(), w.catalog());

  QuerySetOptions q;
  q.count = 12;
  q.window_side = 250.0;
  q.seed = 101;
  std::vector<QueryRequest> requests;
  for (const auto& query : MakePrqQueries(w, q)) {
    requests.push_back(QueryRequest::Prq(query.issuer, query.range, query.tq));
  }
  for (const auto& query : MakePknnQueries(w, q)) {
    requests.push_back(
        QueryRequest::Pknn(query.issuer, query.qloc, query.k, query.tq));
  }

  struct Case {
    const char* name;
    MovingObjectService* svc;
    bool exact_counts;
  };
  for (const Case& c : {Case{"peb-tree", &w.peb_service(), true},
                        Case{"filtering", &w.spatial_service(), true},
                        Case{"engine", &engine_svc, false}}) {
    std::vector<QueryResponse> serial;
    for (const QueryRequest& request : requests) {
      serial.push_back(c.svc->Execute(request));
      ASSERT_TRUE(serial.back().ok()) << c.name << ": "
                                      << serial.back().status;
    }
    auto matches_serial = [&](const QueryResponse& got, size_t i) {
      const QueryResponse& want = serial[i];
      if (!got.ok() || got.ids != want.ids ||
          !SameNeighbors(Normalized(got.neighbors),
                         Normalized(want.neighbors))) {
        return false;
      }
      return !c.exact_counts ||
             (got.counters.range_probes == want.counters.range_probes &&
              got.counters.candidates_examined ==
                  want.counters.candidates_examined &&
              got.counters.rounds == want.counters.rounds &&
              got.counters.results == want.counters.results);
    };

    constexpr size_t kThreads = 4;
    std::vector<int> failures(kThreads, 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Each thread runs every request, starting at its own offset, so
        // different queries overlap on the same tree.
        const size_t n = requests.size();
        for (int rep = 0; rep < 3; ++rep) {
          for (size_t j = 0; j < n; ++j) {
            const size_t i = (j + t * n / kThreads) % n;
            if (!matches_serial(c.svc->Execute(requests[i]), i)) {
              failures[t]++;
            }
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(failures[t], 0) << c.name << " thread " << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Online policy lifecycle under concurrent traffic
// ---------------------------------------------------------------------------

TEST(ServicePolicyLifecycle, MutationsInterleavedWithQueriesAndUpdates) {
  const size_t kUpdates = 120;
  const size_t kMutations = 8;
  Workload w = Workload::Build(SmallParams(42));

  // The lifecycle instance owns its catalog (the workload's stays frozen
  // as the generator reference).
  PolicyCatalog catalog(w.store(), w.roles(), w.catalog()->options());
  engine::EngineOptions eopts;
  eopts.num_shards = 4;
  eopts.num_threads = 4;
  eopts.buffer_pages = w.params().buffer_pages;
  eopts.tree = eval::PebOptionsFor(w.params());
  ShardedPebEngine engine(eopts, &catalog.store(), &catalog.roles(),
                          catalog.snapshot());
  ASSERT_TRUE(engine.LoadDataset(w.dataset()).ok());

  ServiceOptions opts;
  opts.num_workers = 4;
  MovingObjectService svc(&engine, &catalog, opts);

  auto stream = eval::CloneUniformUpdateStream(w);
  ASSERT_NE(stream, nullptr);
  auto session = svc.OpenUpdateSession(stream.get(), /*batch_size=*/64);

  QuerySetOptions q;
  q.count = 40;
  q.seed = 17;
  auto prq = MakePrqQueries(w, q);
  std::vector<QueryRequest> wave;
  for (const auto& query : prq) {
    wave.push_back(QueryRequest::Prq(query.issuer, query.range, query.tq));
  }

  // Concurrently: an async query wave, an update session, and a stream of
  // policy mutations (each re-encoding + re-keying + publishing an epoch).
  auto futures = svc.SubmitBatch(std::move(wave));
  std::thread churn([&] {
    Lpp policy;
    policy.role = 0;  // The generator's "friend" role.
    policy.locr = Rect{{-1e9, -1e9}, {1e9, 1e9}};
    policy.tint = TimeOfDayInterval::AllDay();
    for (size_t i = 0; i < kMutations; ++i) {
      UserId owner = static_cast<UserId>((i * 37) % w.params().num_users);
      UserId peer = static_cast<UserId>((owner + 113 + i) %
                                        w.params().num_users);
      if (owner == peer) continue;
      QueryResponse resp =
          i % 2 == 0
              ? svc.Execute(QueryRequest::AddPolicy(owner, peer, policy,
                                                    w.now()))
              : svc.Execute(QueryRequest::RemovePolicy(owner, peer,
                                                       w.now()));
      ASSERT_TRUE(resp.ok()) << resp.status;
      EXPECT_GT(resp.epoch, 0u) << "mutation " << i;
    }
  });
  ASSERT_TRUE(session.Apply(kUpdates).ok());
  churn.join();

  uint64_t final_epoch = catalog.epoch();
  EXPECT_GT(final_epoch, 0u);

  // Every concurrent query succeeded, carried consistent by-value stats,
  // and named an epoch that existed while it ran.
  for (auto& future : futures) {
    QueryResponse resp = future.get();
    ASSERT_TRUE(resp.ok()) << resp.status;
    EXPECT_LE(resp.epoch, final_epoch);
    EXPECT_EQ(resp.io.logical_fetches,
              resp.io.cache_hits + resp.io.physical_reads);
  }

  // Settled state: answers are identical to a from-scratch rebuild of the
  // mutated corpus over the same motion state.
  PolicyCatalog rebuilt_catalog(catalog.store(), catalog.roles(),
                                catalog.options());
  ShardedPebEngine rebuilt(eopts, &rebuilt_catalog.store(),
                           &rebuilt_catalog.roles(),
                           rebuilt_catalog.snapshot());
  for (size_t u = 0; u < w.params().num_users; ++u) {
    auto obj = engine.GetObject(static_cast<UserId>(u));
    ASSERT_TRUE(obj.ok());
    ASSERT_TRUE(rebuilt.Insert(*obj).ok());
  }
  for (const auto& query : prq) {
    QueryResponse resp = svc.Execute(
        QueryRequest::Prq(query.issuer, query.range, query.tq));
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.epoch, final_epoch);
    auto want = rebuilt.RangeQuery(query.issuer, query.range, query.tq);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(resp.ids, *want);
  }
}

// ---------------------------------------------------------------------------
// Engine-wide continuous queries
// ---------------------------------------------------------------------------

TEST(ServiceContinuous, IdenticalEventStreamsAcrossShardCounts) {
  const size_t kPhases = 3;
  const size_t kUpdatesPerPhase = 200;
  Workload w = Workload::Build(SmallParams(40));

  struct Instance {
    std::unique_ptr<ShardedPebEngine> engine;
    std::unique_ptr<MovingObjectService> svc;
    std::unique_ptr<UpdateStream> stream;
    ContinuousQueryId query = 0;
  };
  auto make_instance = [&](size_t shards) {
    Instance inst;
    inst.engine = MakeEngine(w, shards, 2);
    inst.svc =
        std::make_unique<MovingObjectService>(inst.engine.get(), w.catalog());
    inst.stream = eval::CloneUniformUpdateStream(w);
    return inst;
  };
  Instance single = make_instance(1);
  Instance sharded = make_instance(4);
  ASSERT_NE(single.stream, nullptr);
  ASSERT_NE(sharded.stream, nullptr);

  Rect district = Rect::CenteredSquare({500, 500}, 350.0);
  for (Instance* inst : {&single, &sharded}) {
    QueryResponse reg = inst->svc->Execute(
        QueryRequest::RegisterContinuous(7, district, w.now()));
    ASSERT_TRUE(reg.ok()) << reg.status;
    inst->query = reg.continuous_id;
  }
  // Identical initial answers.
  ASSERT_EQ(*single.svc->ContinuousResult(single.query),
            *sharded.svc->ContinuousResult(sharded.query));

  for (size_t phase = 0; phase < kPhases; ++phase) {
    std::vector<ContinuousQueryEvent> events_single, events_sharded;
    for (Instance* inst : {&single, &sharded}) {
      auto session = inst->svc->OpenUpdateSession(inst->stream.get(), 64);
      ASSERT_TRUE(session.Apply(kUpdatesPerPhase).ok());
      ASSERT_TRUE(
          inst->svc->AdvanceContinuous(session.last_event_time()).ok());
      auto events = inst->svc->TakeContinuousEvents();
      (inst == &single ? events_single : events_sharded) =
          std::move(events);
    }
    // The monitor is fed in stream order on both instances, so the event
    // streams are identical regardless of shard count.
    EXPECT_EQ(events_single, events_sharded) << "phase " << phase;
    EXPECT_EQ(*single.svc->ContinuousResult(single.query),
              *sharded.svc->ContinuousResult(sharded.query))
        << "phase " << phase;
  }

  // Cancellation through the request API.
  QueryResponse cancel = single.svc->Execute(
      QueryRequest::CancelContinuous(single.query));
  EXPECT_TRUE(cancel.ok()) << cancel.status;
  EXPECT_TRUE(single.svc->Execute(QueryRequest::CancelContinuous(
                            single.query))
                  .status.IsNotFound());
  EXPECT_EQ(single.svc->num_continuous_queries(), 0u);
}

}  // namespace
}  // namespace peb
