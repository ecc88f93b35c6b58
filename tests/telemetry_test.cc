// Telemetry tests: histogram percentiles against a sorted-vector oracle,
// concurrent recording (exercised under the TSan CI job), the span tree a
// traced 4-shard PkNN produces, and slow-query-log ring semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <thread>
#include <vector>

#include "engine/sharded_engine.h"
#include "eval/runner.h"
#include "eval/workload.h"
#include "service/service.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace peb {
namespace {

using eval::MakeEngine;
using eval::MakePknnQueries;
using eval::QuerySetOptions;
using eval::Workload;
using eval::WorkloadParams;
using service::MovingObjectService;
using service::QueryRequest;
using service::QueryResponse;

double ExactPercentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

// Buckets grow ~19% per step, and percentiles interpolate inside the
// landing bucket, so the estimate must sit within one bucket width of the
// exact order statistic.
void ExpectWithinOneBucket(double estimate, double exact) {
  EXPECT_GT(estimate, exact / 1.19);
  EXPECT_LT(estimate, exact * 1.19);
}

TEST(TelemetryHistogram, PercentilesMatchSortedVectorOracle) {
  telemetry::Histogram h;
  std::mt19937_64 rng(7);
  // Latencies spanning several decades, the shape the log-scale buckets
  // are designed for.
  std::lognormal_distribution<double> dist(0.0, 1.5);
  std::vector<double> values;
  for (size_t i = 0; i < 20000; ++i) {
    double v = dist(rng);
    values.push_back(v);
    h.Record(v);
  }
  telemetry::Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, values.size());
  EXPECT_DOUBLE_EQ(snap.max, *std::max_element(values.begin(), values.end()));
  double exact_sum = 0.0;
  for (double v : values) exact_sum += v;
  EXPECT_NEAR(snap.sum, exact_sum, exact_sum * 1e-9);
  ExpectWithinOneBucket(snap.p50, ExactPercentile(values, 0.50));
  ExpectWithinOneBucket(snap.p95, ExactPercentile(values, 0.95));
  ExpectWithinOneBucket(snap.p99, ExactPercentile(values, 0.99));
}

TEST(TelemetryHistogram, OutOfRangeValuesClampToEdgeBuckets) {
  telemetry::Histogram h;
  h.Record(0.0);     // Below the first bound: lands in bucket 0.
  h.Record(-3.0);    // Negative: also bucket 0, counted not dropped.
  h.Record(1e300);   // Beyond the last bound: last bucket, max exact.
  telemetry::Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.max, 1e300);
}

TEST(TelemetryConcurrency, CountersAndHistogramsAreExactUnderThreads) {
  telemetry::MetricsRegistry registry;
  telemetry::Counter* counter = registry.counter("test.hits");
  telemetry::Gauge* gauge = registry.gauge("test.depth");
  telemetry::Histogram* hist = registry.histogram("test.ms");
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        counter->Add(1);
        gauge->Add(1.0);
        gauge->Add(-1.0);
        hist->Record(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(gauge->Value(), 0.0);
  telemetry::Histogram::Snapshot snap = hist->Snap();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(snap.max, static_cast<double>(kThreads));
}

TEST(TelemetryRegistry, InstrumentsAreStableAndSnapshotIsNonEmpty) {
  telemetry::MetricsRegistry registry;
  telemetry::Counter* a = registry.counter("same.name");
  telemetry::Counter* b = registry.counter("same.name");
  EXPECT_EQ(a, b);  // Get-or-create: one instrument per name.
  a->Add(5);
  std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("\"same.name\": 5"), std::string::npos) << json;
  std::string prom = registry.PrometheusText();
  EXPECT_NE(prom.find("same_name 5"), std::string::npos) << prom;
}

size_t SpanDepth(const telemetry::QueryTrace& trace, size_t i) {
  size_t depth = 0;
  while (trace.spans[i].parent != telemetry::TraceSpan::kNoParent) {
    i = trace.spans[i].parent;
    ++depth;
  }
  return depth;
}

TEST(TelemetryTrace, FourShardPknnProducesShardAndRoundSpans) {
  WorkloadParams p;
  p.num_users = 800;
  p.policies_per_user = 10;
  p.grid_bits = 8;
  p.seed = 11;
  Workload w = Workload::Build(p);

  telemetry::MetricsRegistry registry;
  telemetry::TelemetryOptions topts;
  topts.registry = &registry;
  auto engine = MakeEngine(w, /*num_shards=*/4, /*num_threads=*/2, topts);
  service::ServiceOptions so;
  so.time_domain = p.time_domain;
  so.telemetry = topts;
  MovingObjectService svc(engine.get(), w.catalog(), so);

  QuerySetOptions qs;
  qs.count = 8;
  qs.seed = 21;
  auto knn = MakePknnQueries(w, qs);
  ASSERT_FALSE(knn.empty());

  for (const auto& query : knn) {
    QueryRequest request =
        QueryRequest::Pknn(query.issuer, query.qloc, query.k, query.tq);
    request.options.trace = true;  // On-demand tracing, no sampling needed.
    QueryResponse resp = svc.Execute(request);
    ASSERT_TRUE(resp.ok()) << resp.status.ToString();
    const telemetry::QueryTrace& trace = resp.trace;
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(trace.name, "pknn");
    EXPECT_EQ(trace.spans[0].name, "service pknn");
    EXPECT_EQ(trace.spans[0].parent, telemetry::TraceSpan::kNoParent);
    EXPECT_GT(trace.total_ms, 0.0);

    // Depth-1 spans are the engine's per-shard tasks; each shard span's
    // children are its enlargement rounds (or the closing vertical scan).
    size_t shard_spans = 0, round_spans = 0;
    IoStats shard_io;
    size_t shard_candidates = 0;
    for (size_t i = 1; i < trace.spans.size(); ++i) {
      const telemetry::TraceSpan& span = trace.spans[i];
      size_t depth = SpanDepth(trace, i);
      if (depth == 1) {
        EXPECT_EQ(span.name.rfind("shard ", 0), 0u) << span.name;
        ++shard_spans;
        shard_io += span.io;
        shard_candidates += span.counters.candidates_examined;
      } else {
        ASSERT_EQ(depth, 2u);
        EXPECT_TRUE(span.name.rfind("round ", 0) == 0 ||
                    span.name == "vertical")
            << span.name;
        ++round_spans;
      }
    }
    EXPECT_GE(shard_spans, 1u);
    EXPECT_LE(shard_spans, 4u);
    EXPECT_GE(round_spans, 1u);

    // The acceptance invariant: per-shard span attribution sums exactly
    // to the response's by-value totals.
    EXPECT_EQ(shard_io.logical_fetches, resp.io.logical_fetches);
    EXPECT_EQ(shard_io.cache_hits, resp.io.cache_hits);
    EXPECT_EQ(shard_io.physical_reads, resp.io.physical_reads);
    EXPECT_EQ(shard_candidates, resp.counters.candidates_examined);
  }

  // The traced queries also fed the registry's service instruments.
  EXPECT_NE(registry.SnapshotJson().find("service.exec_ms"),
            std::string::npos);
}

TEST(TelemetryTrace, ChromeJsonIsWellFormedForSampledQuery) {
  telemetry::TraceBuilder builder("pknn");
  size_t root = builder.StartSpan("service pknn");
  size_t child = builder.StartSpan("shard 0", root);
  builder.Annotate(child, "runs=3");
  builder.EndSpan(child);
  builder.EndSpan(root);
  telemetry::QueryTrace trace = builder.Finish();
  std::string json = trace.ChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("service pknn"), std::string::npos);
  EXPECT_NE(json.find("shard 0"), std::string::npos);
}

telemetry::QueryTrace NamedTrace(const std::string& name) {
  telemetry::TraceBuilder builder(name);
  size_t root = builder.StartSpan(name);
  builder.EndSpan(root);
  return builder.Finish();
}

TEST(TelemetrySlowLog, RingEvictsOldestFirst) {
  telemetry::SlowQueryLog log(3);
  for (int i = 0; i < 5; ++i) {
    std::string name = "q";
    name += std::to_string(i);
    log.Record(NamedTrace(name), 10.0 + i);
  }
  auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 3u);
  // q0 and q1 were evicted; the survivors are oldest-first.
  EXPECT_EQ(entries[0].trace.name, "q2");
  EXPECT_EQ(entries[1].trace.name, "q3");
  EXPECT_EQ(entries[2].trace.name, "q4");
  EXPECT_LT(entries[0].sequence, entries[1].sequence);
  EXPECT_LT(entries[1].sequence, entries[2].sequence);
  EXPECT_DOUBLE_EQ(entries[2].total_ms, 14.0);
}

TEST(TelemetrySlowLog, ZeroCapacityDropsEverything) {
  telemetry::SlowQueryLog log(0);
  log.Record(NamedTrace("q"), 99.0);
  EXPECT_TRUE(log.Entries().empty());
}

}  // namespace
}  // namespace peb
