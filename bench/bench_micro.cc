// Micro-benchmarks (google-benchmark): per-operation costs of the building
// blocks — space-filling curves, PEB key generation, B+-tree operations,
// buffer pool hits, policy compatibility, and end-to-end index updates.
//
// After the google-benchmark suite, two A/B cells always run:
//  * "telemetry overhead cell": the same PRQ batch through two identical
//    4-shard engine services, instrumented vs telemetry disabled. CI fails
//    when the overhead reaches 2%.
//  * "reopen cell": cold ShardedPebEngine::Open() of a checkpointed file
//    (superblock manifest + tree attach, no per-object work) vs a full
//    in-memory rebuild of the same dataset. Answers must be bit-identical
//    and CI fails when the cold open stops beating the rebuild.
// `--json <path>` records the cells in BENCH_micro.json so they are part
// of the perf trajectory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "btree/btree.h"
#include "engine/sharded_engine.h"
#include "btree/btree_traits.h"
#include "bxtree/bxtree.h"
#include "common/rng.h"
#include "motion/uniform_generator.h"
#include "peb/peb_key.h"
#include "policy/compatibility.h"
#include "spatial/hilbert.h"
#include "spatial/zcurve.h"
#include "spatial/zrange.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "telemetry/metrics.h"

namespace peb {
namespace {

void BM_ZEncode(benchmark::State& state) {
  Rng rng(1);
  uint32_t x = static_cast<uint32_t>(rng.Next64());
  uint32_t y = static_cast<uint32_t>(rng.Next64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ZEncode(x, y, 21));
    x += 7;
    y += 13;
  }
}
BENCHMARK(BM_ZEncode);

void BM_ZDecode(benchmark::State& state) {
  uint64_t z = 0x12345678ABCDull;
  uint32_t x, y;
  for (auto _ : state) {
    ZDecode(z, 21, &x, &y);
    benchmark::DoNotOptimize(x + y);
    z += 0x9E37;
  }
}
BENCHMARK(BM_ZDecode);

void BM_HilbertEncode(benchmark::State& state) {
  Rng rng(2);
  uint32_t x = static_cast<uint32_t>(rng.Next64()) & 0x1FFFFF;
  uint32_t y = static_cast<uint32_t>(rng.Next64()) & 0x1FFFFF;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HilbertEncode(x, y, 21));
    x = (x + 7) & 0x1FFFFF;
    y = (y + 13) & 0x1FFFFF;
  }
}
BENCHMARK(BM_HilbertEncode);

void BM_WindowDecomposition(benchmark::State& state) {
  GridMapper grid(1000.0, 10);
  Rect window{{300, 300}, {300.0 + static_cast<double>(state.range(0)),
               300.0 + static_cast<double>(state.range(0))}};
  ZRangeOptions opts;
  opts.max_intervals = 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ZIntervalsForWindow(grid, window, opts));
  }
}
BENCHMARK(BM_WindowDecomposition)->Arg(100)->Arg(300)->Arg(600);

void BM_PebKeyGeneration(benchmark::State& state) {
  PebKeyLayout layout;
  Rng rng(3);
  uint32_t partition = 1;
  for (auto _ : state) {
    uint32_t qsv = static_cast<uint32_t>(rng.Next64() & 0x3FFFFFF);
    uint64_t zv = rng.Next64() & 0xFFFFF;
    benchmark::DoNotOptimize(layout.MakeKey(partition, qsv, zv));
  }
}
BENCHMARK(BM_PebKeyGeneration);

void BM_BTreeInsert(benchmark::State& state) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{1024});
  BTree<U64Traits> tree(&pool);
  Rng rng(4);
  for (auto _ : state) {
    (void)tree.Insert(rng.Next64(), 1);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeLookupHit(benchmark::State& state) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{1024});
  BTree<U64Traits> tree(&pool);
  Rng fill(5);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 100000; ++i) {
    uint64_t k = fill.Next64();
    if (tree.Insert(k, 1).ok()) keys.push_back(k);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup(keys[i % keys.size()]));
    i += 7919;
  }
}
BENCHMARK(BM_BTreeLookupHit);

void BM_BufferPoolHit(benchmark::State& state) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{64});
  auto page = pool.NewPage();
  PageId id = page->id();
  page->Release();
  for (auto _ : state) {
    auto g = pool.FetchPage(id);
    benchmark::DoNotOptimize(g->page());
  }
}
BENCHMARK(BM_BufferPoolHit);

void BM_CompatibilityScore(benchmark::State& state) {
  Lpp a, b;
  a.role = b.role = 1;
  a.locr = {{100, 100}, {600, 700}};
  a.tint = {480, 1020};
  b.locr = {{300, 50}, {900, 500}};
  b.tint = {300, 800};
  CompatibilityOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CompatibilityFromAlpha(ComputeAlpha({&a, 1}, {&b, 1}, opts)));
  }
}
BENCHMARK(BM_CompatibilityScore);

void BM_BxTreeUpdate(benchmark::State& state) {
  UniformGeneratorOptions gen;
  gen.num_objects = 20000;
  gen.stagger_window = 120.0;
  gen.seed = 6;
  Dataset ds = GenerateUniformDataset(gen);
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{256});
  MovingIndexOptions opt;
  BxTree tree(&pool, opt);
  for (const auto& o : ds.objects) (void)tree.Insert(o);
  Rng rng(7);
  Timestamp t = 120.0;
  for (auto _ : state) {
    UserId id = static_cast<UserId>(rng.NextBelow(ds.objects.size()));
    MovingObject o = ds.objects[id];
    t += 0.001;
    o.pos = o.PositionAt(t);
    o.tu = t;
    (void)tree.Update(o);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BxTreeUpdate);

}  // namespace

// ---------------------------------------------------------------------------
// A/B telemetry-overhead cell: instrumented vs disabled service PRQ batch
// ---------------------------------------------------------------------------

namespace {

/// Wall-clock of one PRQ batch through `svc` (every response checked).
double RunTelemetryPrqBatch(service::MovingObjectService& svc,
                            const std::vector<eval::PrqQuery>& queries) {
  auto t0 = std::chrono::steady_clock::now();
  for (const auto& q : queries) {
    service::QueryResponse resp = svc.Execute(
        service::QueryRequest::Prq(q.issuer, q.range, q.tq));
    if (!resp.ok()) {
      std::cerr << "telemetry cell query failed: " << resp.status.ToString()
                << "\n";
      std::abort();
    }
  }
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

/// Measures the telemetry hot-path tax: the same PRQ batch against two
/// identical 4-shard engine services, one fully instrumented (private
/// registry, metrics on), one with TelemetryOptions::Disabled(). Reps
/// alternate sides and the minimum per side is compared, so scheduler
/// noise cancels; CI gates overhead_pct at 2%.
eval::Json RunAndReportTelemetryOverheadCell() {
  eval::WorkloadParams p;  // Table 1 defaults.
  p.num_users = eval::Scaled(40000, 1000);
  size_t num_queries = eval::Scaled(300, 30);
  eval::Workload w = eval::Workload::Build(p);
  eval::QuerySetOptions q;
  q.count = num_queries;
  q.seed = 77;
  auto queries = eval::MakePrqQueries(w, q);

  telemetry::MetricsRegistry registry;  // Private: the cell stays self-contained.
  telemetry::TelemetryOptions on;
  on.registry = &registry;

  // Inline execution (0 engine threads, 0 workers) keeps both sides
  // deterministic: the cell measures instrumentation cost, not scheduling.
  auto engine_on = eval::MakeEngine(w, 4, 0, on);
  auto engine_off =
      eval::MakeEngine(w, 4, 0, telemetry::TelemetryOptions::Disabled());
  service::ServiceOptions svc_on_opts;
  svc_on_opts.time_domain = p.time_domain;
  svc_on_opts.telemetry = on;
  service::ServiceOptions svc_off_opts;
  svc_off_opts.time_domain = p.time_domain;
  svc_off_opts.telemetry = telemetry::TelemetryOptions::Disabled();
  service::MovingObjectService svc_on(engine_on.get(), w.catalog(),
                                      svc_on_opts);
  service::MovingObjectService svc_off(engine_off.get(), w.catalog(),
                                       svc_off_opts);

  constexpr int kReps = 5;
  double best_on = 0.0, best_off = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    double off_ms = RunTelemetryPrqBatch(svc_off, queries);
    double on_ms = RunTelemetryPrqBatch(svc_on, queries);
    if (rep == 0 || off_ms < best_off) best_off = off_ms;
    if (rep == 0 || on_ms < best_on) best_on = on_ms;
  }
  double overhead_pct =
      best_off > 0.0 ? (best_on / best_off - 1.0) * 100.0 : 0.0;

  std::cout << "\n--- telemetry overhead cell (4-shard engine service, "
            << p.num_users << " users, " << num_queries
            << " PRQ/batch, min of " << kReps << ") ---\n"
            << "disabled    : " << eval::Fmt(best_off) << " ms\n"
            << "instrumented: " << eval::Fmt(best_on) << " ms\n"
            << "overhead    : " << eval::Fmt(overhead_pct, 2) << "%\n";

  return eval::Json::Object()
      .Set("num_users", static_cast<uint64_t>(p.num_users))
      .Set("num_queries", static_cast<uint64_t>(num_queries))
      .Set("reps", static_cast<uint64_t>(kReps))
      .Set("disabled_ms", best_off)
      .Set("instrumented_ms", best_on)
      .Set("overhead_pct", overhead_pct);
}

// ---------------------------------------------------------------------------
// A/B reopen cell: cold Open() from superblock + WAL vs full rebuild
// ---------------------------------------------------------------------------

namespace {

std::vector<std::vector<UserId>> RunReopenPrqBatch(
    engine::ShardedPebEngine& engine,
    const std::vector<eval::PrqQuery>& queries) {
  std::vector<std::vector<UserId>> answers;
  answers.reserve(queries.size());
  for (const auto& q : queries) {
    auto res = engine.RangeQuery(q.issuer, q.range, q.tq);
    if (!res.ok()) {
      std::cerr << "reopen cell query failed: " << res.status().ToString()
                << "\n";
      std::abort();
    }
    std::vector<UserId> ans = std::move(*res);
    std::sort(ans.begin(), ans.end());
    answers.push_back(std::move(ans));
  }
  return answers;
}

}  // namespace

/// Times bringing an index back after a clean shutdown: Open() re-attaches
/// the shard trees to the checkpointed file (superblock roots, empty WAL —
/// no tree rebuild) vs constructing a fresh engine and re-inserting the
/// whole dataset. Both must answer the PRQ sample bit-identically; CI
/// fails when the cold open stops beating the rebuild.
eval::Json RunAndReportReopenCell() {
  eval::WorkloadParams p;  // Table 1 defaults.
  p.num_users = eval::Scaled(40000, 2000);
  size_t num_queries = eval::Scaled(100, 20);
  const eval::Workload w = eval::Workload::Build(p);
  eval::QuerySetOptions q;
  q.count = num_queries;
  q.seed = 55;
  auto queries = eval::MakePrqQueries(w, q);

  const std::string path = "bench_reopen_cell.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  engine::EngineOptions opts;
  opts.num_shards = 4;
  opts.num_threads = 0;
  opts.buffer_pages = p.buffer_pages;
  opts.tree = eval::PebOptionsFor(p);
  opts.durability.path = path;
  opts.durability.checkpoint_on_close = true;

  // Seed the durable file: load, checkpoint on close.
  std::vector<std::vector<UserId>> want;
  {
    engine::ShardedPebEngine engine(opts, &w.store(), &w.roles(),
                                    w.catalog().snapshot());
    Status load = engine.LoadDataset(w.dataset());
    if (!load.ok()) {
      std::cerr << "reopen cell load failed: " << load.ToString() << "\n";
      std::abort();
    }
    want = RunReopenPrqBatch(engine, queries);
  }

  // Cold open: superblock manifest + attach, no per-object work.
  auto t0 = std::chrono::steady_clock::now();
  auto reopened = engine::ShardedPebEngine::Open(opts, &w.store(), &w.roles(),
                                                 w.catalog().snapshot());
  auto t1 = std::chrono::steady_clock::now();
  if (!reopened.ok()) {
    std::cerr << "reopen cell open failed: " << reopened.status().ToString()
              << "\n";
    std::abort();
  }
  double open_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  auto got_open = RunReopenPrqBatch(**reopened, queries);
  reopened->reset();

  // Full rebuild: fresh in-memory engine, every object re-inserted.
  engine::EngineOptions mem_opts = opts;
  mem_opts.durability = {};
  t0 = std::chrono::steady_clock::now();
  engine::ShardedPebEngine rebuilt(mem_opts, &w.store(), &w.roles(),
                                   w.catalog().snapshot());
  Status load = rebuilt.LoadDataset(w.dataset());
  t1 = std::chrono::steady_clock::now();
  if (!load.ok()) {
    std::cerr << "reopen cell rebuild failed: " << load.ToString() << "\n";
    std::abort();
  }
  double rebuild_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  auto got_rebuild = RunReopenPrqBatch(rebuilt, queries);

  for (size_t i = 0; i < queries.size(); ++i) {
    if (want[i] != got_open[i] || want[i] != got_rebuild[i]) {
      std::cerr << "reopen cell mismatch at query " << i << "\n";
      std::abort();
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  double speedup = open_ms > 0.0 ? rebuild_ms / open_ms : 0.0;
  std::cout << "\n--- reopen cell (" << p.num_users
            << " users, clean-shutdown file, " << num_queries
            << "-PRQ equivalence sample) ---\n"
            << "cold open   : " << eval::Fmt(open_ms) << " ms\n"
            << "full rebuild: " << eval::Fmt(rebuild_ms) << " ms\n"
            << "answers bit-identical; speedup " << eval::Fmt(speedup)
            << "x\n";

  return eval::Json::Object()
      .Set("num_users", static_cast<uint64_t>(p.num_users))
      .Set("num_queries", static_cast<uint64_t>(num_queries))
      .Set("open_ms", open_ms)
      .Set("rebuild_ms", rebuild_ms)
      .Set("speedup", speedup);
}

}  // namespace peb

int main(int argc, char** argv) {
  // Strip --json <path> before google-benchmark sees the arguments.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int bargc = static_cast<int>(args.size());
  benchmark::Initialize(&bargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  peb::eval::Json telemetry_cell = peb::RunAndReportTelemetryOverheadCell();
  peb::eval::Json reopen_cell = peb::RunAndReportReopenCell();
  if (!json_path.empty()) {
    peb::eval::Json doc =
        peb::eval::Json::Object()
            .Set("bench", "micro")
            .Set("scale", peb::eval::BenchScale())
            .Set("telemetry_overhead_cell", std::move(telemetry_cell))
            .Set("reopen_cell", std::move(reopen_cell));
    if (doc.WriteTo(json_path)) {
      std::cout << "wrote " << json_path << "\n";
    }
  }
  return 0;
}
