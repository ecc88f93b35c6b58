// Engine scaling sweep: shard count x thread count over the Table-1
// default uniform workload, driven exclusively through the
// MovingObjectService request/response API. For every cell the same
// PRQ/PkNN batches run against a service fronting a ShardedPebEngine; the
// table reports wall-clock per batch, per-query I/O (from each
// QueryResponse's own delta — sums of per-shard reads, so the numbers stay
// comparable to the paper's single-tree figures), and the
// query-throughput speedup versus the single PEB-tree baseline.
//
// A second, closed-loop multi-client mode measures the service under
// concurrent submission: C client threads each issue mixed PRQ/PkNN
// requests back to back against a 4-shard engine service, and the run
// reports throughput plus p50/p95/p99 latency per client count.
//
//   PEB_BENCH_SCALE=10 ./bench_engine_scaling                       # smoke
//   ./bench_engine_scaling --json BENCH_engine_scaling.json         # + JSON
//   ./bench_engine_scaling --service-json BENCH_service.json  # closed loop
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "engine/sharded_engine.h"
#include "service/service.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

using namespace peb;
using namespace peb::eval;
using peb::service::MovingObjectService;
using peb::service::QueryRequest;
using peb::service::QueryResponse;

namespace {

/// Builds a service over `index` with the workload's policy world.
MovingObjectService MakeService(Workload& w, PrivacyAwareIndex* index,
                                size_t workers = 0) {
  service::ServiceOptions opts;
  opts.num_workers = workers;
  opts.time_domain = w.params().time_domain;
  return MovingObjectService(index, w.catalog(), opts);
}

struct ClosedLoopPoint {
  size_t clients = 0;
  size_t ops = 0;
  double wall_ms = 0.0;
  double throughput_qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// Closed loop: each of `clients` threads executes its share of the mixed
/// request list back to back (a new request is issued the moment the
/// previous response returns — the classic closed-loop client model).
/// Latencies go through a shared telemetry histogram — the thread-striped
/// recording the live service uses, instead of per-client sorted vectors.
ClosedLoopPoint RunClosedLoop(MovingObjectService& svc,
                              const std::vector<QueryRequest>& mixed,
                              size_t clients) {
  ClosedLoopPoint point;
  point.clients = clients;
  point.ops = mixed.size();
  telemetry::Histogram latency;
  auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = c; i < mixed.size(); i += clients) {
        auto q0 = std::chrono::steady_clock::now();
        QueryResponse resp = svc.Execute(mixed[i]);
        auto q1 = std::chrono::steady_clock::now();
        if (!resp.ok()) {
          std::cerr << "closed-loop query failed: "
                    << resp.status.ToString() << "\n";
          std::abort();
        }
        latency.Record(
            std::chrono::duration<double, std::milli>(q1 - q0).count());
      }
    });
  }
  for (auto& t : threads) t.join();
  auto t1 = std::chrono::steady_clock::now();
  point.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  telemetry::Histogram::Snapshot snap = latency.Snap();
  point.p50_ms = snap.p50;
  point.p95_ms = snap.p95;
  point.p99_ms = snap.p99;
  point.throughput_qps =
      point.wall_ms > 0.0
          ? 1000.0 * static_cast<double>(snap.count) / point.wall_ms
          : 0.0;
  return point;
}

Json ToJson(const ClosedLoopPoint& p) {
  return Json::Object()
      .Set("clients", static_cast<uint64_t>(p.clients))
      .Set("ops", static_cast<uint64_t>(p.ops))
      .Set("wall_ms", p.wall_ms)
      .Set("throughput_qps", p.throughput_qps)
      .Set("p50_ms", p.p50_ms)
      .Set("p95_ms", p.p95_ms)
      .Set("p99_ms", p.p99_ms);
}

void CheckResponse(const QueryResponse& resp, const char* what) {
  if (!resp.ok()) {
    std::cerr << "telemetry smoke " << what
              << " failed: " << resp.status.ToString() << "\n";
    std::abort();
  }
}

/// Telemetry smoke: drives EVERY registered instrument of a 4-shard engine
/// service — query batches, deadline sheds, continuous queries, the full
/// policy lifecycle — then writes the registry snapshot to `snapshot_path`
/// and a forced PkNN Chrome trace to `trace_path`. CI gates on both: every
/// counter and histogram in the snapshot must be non-zero, and the trace
/// must carry per-shard spans. Mutates the workload's catalog — run last.
void RunTelemetrySmoke(Workload& w, const std::string& snapshot_path,
                       const std::string& trace_path) {
  PrintBanner(std::cout, "Telemetry smoke (4-shard engine service)");
  telemetry::MetricsRegistry registry;  // Private: only this smoke's numbers.
  telemetry::TelemetryOptions topts;
  topts.registry = &registry;
  topts.trace_sample_every = 7;  // Sampling path exercised alongside forced.
  topts.slow_query_ms = 0.0;     // Every query is "slow": the log fills.
  topts.slow_log_capacity = 16;

  auto engine = MakeEngine(w, 4, 4, topts);
  service::ServiceOptions so;
  so.num_workers = 2;  // Real queueing: queue_ms, depth gauge, shed path.
  so.time_domain = w.params().time_domain;
  so.telemetry = topts;
  MovingObjectService svc(engine.get(), w.catalog(), so);

  QuerySetOptions q;
  q.count = Scaled(200, 60);
  q.seed = 5150;
  auto prq = MakePrqQueries(w, q);
  auto knn = MakePknnQueries(w, q);

  // PRQ + PkNN batches through Submit: latency histograms, per-shard query
  // counters, PkNN rounds/retirements, pool traffic.
  std::vector<QueryRequest> batch;
  batch.reserve(prq.size() + knn.size());
  for (const auto& query : prq) {
    batch.push_back(QueryRequest::Prq(query.issuer, query.range, query.tq));
  }
  // Half the PkNN batch runs at k=1: issuers at smoke scale often have
  // fewer policy-visible friends than the default k, and a shard only
  // retires once k verified neighbors exist globally — k=1 guarantees the
  // retirement path fires as soon as any shard verifies one friend.
  for (size_t i = 0; i < knn.size(); ++i) {
    const auto& query = knn[i];
    size_t k = (i % 2 == 0) ? query.k : 1;
    batch.push_back(QueryRequest::Pknn(query.issuer, query.qloc, k, query.tq));
  }
  for (auto& f : svc.SubmitBatch(batch)) {
    CheckResponse(f.get(), "batch query");
  }

  // Deadline sheds, one per query kind: an already-elapsed deadline is
  // always exceeded by the time a worker picks the request up.
  QueryRequest shed_prq =
      QueryRequest::Prq(prq[0].issuer, prq[0].range, prq[0].tq);
  shed_prq.options.deadline_ms = 1e-9;
  QueryRequest shed_knn =
      QueryRequest::Pknn(knn[0].issuer, knn[0].qloc, knn[0].k, knn[0].tq);
  shed_knn.options.deadline_ms = 1e-9;
  if (svc.Submit(shed_prq).get().ok() || svc.Submit(shed_knn).get().ok()) {
    std::cerr << "telemetry smoke: expected both sheds to be rejected\n";
    std::abort();
  }

  // Continuous queries: standing PRQs over a central window, fed by an
  // update session, advanced through time so membership actually churns.
  std::vector<ContinuousQueryId> standing;
  Rect region = Rect::CenteredSquare(
      {w.params().space_side / 2, w.params().space_side / 2},
      w.params().space_side * 0.4);
  for (UserId issuer = 0; issuer < 20; ++issuer) {
    QueryResponse reg = svc.Execute(
        QueryRequest::RegisterContinuous(issuer, region, w.now()));
    CheckResponse(reg, "continuous register");
    standing.push_back(reg.continuous_id);
  }
  if (auto stream = CloneUniformUpdateStream(w)) {
    auto session = svc.OpenUpdateSession(stream.get(), 256);
    Status applied = session.Apply(Scaled(4000, 400));
    if (!applied.ok()) {
      std::cerr << "telemetry smoke update session failed: "
                << applied.ToString() << "\n";
      std::abort();
    }
  }
  // Re-run the query batch while the session's updates are still buffered
  // in the shard deltas: the overlay probes fire (engine.delta.probes) and
  // freshly-updated friends answer from their delta state
  // (engine.delta.shadowed). Then drain explicitly — the session's volume
  // sits below the merge threshold by design, so the merge instruments
  // (engine.delta.merges, merged_records, engine.merge.lock_hold_ms) need
  // this deliberate merge to move.
  for (auto& f : svc.SubmitBatch(batch)) {
    CheckResponse(f.get(), "post-update batch query");
  }
  {
    Status merged = engine->MergeDeltas();
    if (!merged.ok()) {
      std::cerr << "telemetry smoke delta merge failed: " << merged.ToString()
                << "\n";
      std::abort();
    }
  }
  (void)svc.AdvanceContinuous(w.now() + 120.0);
  size_t drained = svc.TakeContinuousEvents().size();
  CheckResponse(svc.Execute(QueryRequest::CancelContinuous(standing[0])),
                "continuous cancel");

  // Policy lifecycle: role, grant (re-encode + re-key now), revoke, flush.
  // The peer is the last user so the pair stays inside the population at
  // any PEB_BENCH_SCALE.
  UserId policy_peer = static_cast<UserId>(w.params().num_users - 1);
  QueryResponse role = svc.Execute(QueryRequest::DefineRole("smoke-role"));
  CheckResponse(role, "define role");
  Lpp policy;
  policy.role = role.role_id;
  policy.locr = Rect{{-1e9, -1e9}, {1e9, 1e9}};
  policy.tint = TimeOfDayInterval::AllDay();
  CheckResponse(
      svc.Execute(QueryRequest::AddPolicy(3, policy_peer, policy, w.now())),
      "add policy");
  CheckResponse(svc.Execute(QueryRequest::RemovePolicy(
                    3, policy_peer, w.now(), /*reencode_now=*/false)),
                "remove policy");
  CheckResponse(svc.Execute(QueryRequest::Reencode(w.now())), "reencode");

  // One forced trace: per-shard / per-round PkNN spans for about:tracing.
  QueryRequest traced =
      QueryRequest::Pknn(knn[1].issuer, knn[1].qloc, knn[1].k, knn[1].tq);
  traced.options.trace = true;
  QueryResponse traced_resp = svc.Execute(traced);
  CheckResponse(traced_resp, "traced pknn");

  std::cout << "continuous events drained: " << drained
            << ", slow-log entries: " << svc.SlowQueries().size()
            << ", traced spans: " << traced_resp.trace.spans.size() << "\n";

  if (!trace_path.empty()) {
    std::ofstream f(trace_path);
    f << traced_resp.trace.ChromeJson() << "\n";
    std::cout << (f.good() ? "wrote " : "FAILED to write ") << trace_path
              << "\n";
  }
  if (!snapshot_path.empty()) {
    std::ofstream f(snapshot_path);
    f << registry.SnapshotJson() << "\n";
    std::cout << (f.good() ? "wrote " : "FAILED to write ") << snapshot_path
              << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = JsonPathFromArgs(argc, argv);
  std::string service_json_path =
      FlagPathFromArgs(argc, argv, "--service-json");
  std::string telemetry_json_path =
      FlagPathFromArgs(argc, argv, "--telemetry-json");
  std::string trace_json_path = FlagPathFromArgs(argc, argv, "--trace-json");
  unsigned cores = std::thread::hardware_concurrency();
  std::cout << "hardware threads: " << cores << "\n";
  if (cores < 4) {
    std::cout << "note: shard fan-out is wall-clock parallel only across "
                 "physical cores;\non this machine the table measures the "
                 "engine's total work, not its parallel speedup.\n";
  }
  WorkloadParams p;  // Table 1 defaults.
  p.num_users = Scaled(60000, 1000);
  std::cout << "building workload (" << p.num_users << " users)...\n";
  Workload w = Workload::Build(p);

  QuerySetOptions q;
  q.count = Scaled(200, 20);
  auto prq = MakePrqQueries(w, q);
  auto knn = MakePknnQueries(w, q);

  // Single PEB-tree baseline, through the workload's service.
  RunResult ref_prq = RunPrqBatch(w.peb_service(), prq);
  RunResult ref_knn = RunPknnBatch(w.peb_service(), knn);
  double ref_ms = ref_prq.wall_ms + ref_knn.wall_ms;

  PrintBanner(std::cout,
              "Sharded engine scaling (uniform, Table 1 defaults, " +
                  std::to_string(q.count) + " queries/batch)");
  std::cout << "single PEB-tree: PRQ " << Fmt(ref_prq.wall_ms) << " ms / "
            << Fmt(ref_prq.avg_io) << " I/O, PkNN " << Fmt(ref_knn.wall_ms)
            << " ms / " << Fmt(ref_knn.avg_io) << " I/O\n\n";

  TablePrinter table({"shards", "threads", "frames", "PRQ ms", "PRQ I/O",
                      "PkNN ms", "PkNN I/O", "hit%", "speedup"});
  double cell_4x4_speedup = 0.0;
  Json cells = Json::Array();
  for (size_t shards : {1, 2, 4, 8}) {
    for (size_t threads : {1, 2, 4, 8}) {
      auto engine = MakeEngine(w, shards, threads);
      engine->ResetIo();
      MovingObjectService svc = MakeService(w, engine.get());
      RunResult eprq = RunPrqBatch(svc, prq);
      RunResult eknn = RunPknnBatch(svc, knn);
      IoStats io = svc.aggregate_io();
      double cell_ms = eprq.wall_ms + eknn.wall_ms;
      double speedup = cell_ms > 0.0 ? ref_ms / cell_ms : 0.0;
      if (shards == 4 && threads == 4) cell_4x4_speedup = speedup;
      // All shard trees share one pool, so "frames" is exactly the
      // configured budget and I/O is directly comparable to the single
      // tree.
      size_t frames = engine->buffer_frames_total();
      table.AddRow({std::to_string(shards), std::to_string(threads),
                    std::to_string(frames), Fmt(eprq.wall_ms),
                    Fmt(eprq.avg_io), Fmt(eknn.wall_ms), Fmt(eknn.avg_io),
                    Fmt(io.HitRatio() * 100.0, 1), Fmt(speedup) + "x"});
      cells.Push(Json::Object()
                     .Set("shards", static_cast<uint64_t>(shards))
                     .Set("threads", static_cast<uint64_t>(threads))
                     .Set("frames", static_cast<uint64_t>(frames))
                     .Set("prq", ToJson(eprq))
                     .Set("pknn", ToJson(eknn))
                     .Set("io", ToJson(io))
                     .Set("speedup", speedup));
    }
  }
  table.Print(std::cout);
  std::cout << "\n4 shards / 4 threads: " << Fmt(cell_4x4_speedup)
            << "x query-throughput vs the single PEB-tree\n";

  if (!json_path.empty()) {
    Json doc = Json::Object()
                   .Set("bench", "engine_scaling")
                   .Set("scale", BenchScale())
                   .Set("hardware_threads", static_cast<uint64_t>(cores))
                   .Set("params", ToJson(p))
                   .Set("queries_per_batch", static_cast<uint64_t>(q.count))
                   .Set("baseline", Json::Object()
                                        .Set("prq", ToJson(ref_prq))
                                        .Set("pknn", ToJson(ref_knn)))
                   .Set("cells", std::move(cells));
    if (doc.WriteTo(json_path)) {
      std::cout << "wrote " << json_path << "\n";
    }
  }

  // --- closed-loop multi-client service mode -------------------------------
  {
    // One 4-shard engine service serves every client count; the mixed
    // request list interleaves PRQ and PkNN.
    auto engine = MakeEngine(w, 4, 4);
    MovingObjectService svc = MakeService(w, engine.get());
    std::vector<QueryRequest> mixed;
    mixed.reserve(prq.size() + knn.size());
    for (size_t i = 0; i < prq.size() || i < knn.size(); ++i) {
      if (i < prq.size()) {
        mixed.push_back(
            QueryRequest::Prq(prq[i].issuer, prq[i].range, prq[i].tq));
      }
      if (i < knn.size()) {
        mixed.push_back(QueryRequest::Pknn(knn[i].issuer, knn[i].qloc,
                                           knn[i].k, knn[i].tq));
      }
    }

    PrintBanner(std::cout,
                "Closed-loop service clients (4-shard engine, mixed "
                "PRQ/PkNN)");
    TablePrinter clients_table(
        {"clients", "ops", "wall ms", "qps", "p50 ms", "p95 ms", "p99 ms"});
    Json points = Json::Array();
    for (size_t clients : {1, 2, 4, 8}) {
      ClosedLoopPoint point = RunClosedLoop(svc, mixed, clients);
      clients_table.AddRow(
          {std::to_string(point.clients), std::to_string(point.ops),
           Fmt(point.wall_ms), Fmt(point.throughput_qps, 1),
           Fmt(point.p50_ms, 3), Fmt(point.p95_ms, 3),
           Fmt(point.p99_ms, 3)});
      points.Push(ToJson(point));
    }
    clients_table.Print(std::cout);

    if (!service_json_path.empty()) {
      Json doc =
          Json::Object()
              .Set("bench", "service_closed_loop")
              .Set("scale", BenchScale())
              .Set("hardware_threads", static_cast<uint64_t>(cores))
              .Set("params", ToJson(p))
              .Set("engine", Json::Object()
                                 .Set("shards", static_cast<uint64_t>(4))
                                 .Set("threads", static_cast<uint64_t>(4)))
              .Set("requests", static_cast<uint64_t>(mixed.size()))
              .Set("points", std::move(points));
      if (doc.WriteTo(service_json_path)) {
        std::cout << "wrote " << service_json_path << "\n";
      }
    }
  }

  // Runs last: the smoke's policy-lifecycle requests mutate the catalog.
  if (!telemetry_json_path.empty() || !trace_json_path.empty()) {
    RunTelemetrySmoke(w, telemetry_json_path, trace_json_path);
  }
  return 0;
}
