// Policy-churn bench: the cost of the ONLINE policy lifecycle.
//
// The paper's encoding is one-shot preprocessing (Figure 11); this bench
// measures what production churn costs instead: a stream of AddPolicy /
// RemovePolicy mutations against a live 4-shard engine, each re-encoding
// incrementally and re-keying only the affected component, with queries
// interleaved to observe service latency during churn.
//
// Reported per run (and emitted as BENCH_policy_churn.json):
//   * re-encode latency per mutation (mean / p95 / max, ms)
//   * users re-keyed per mutation (mean / max, and as a fraction of the
//     population — the incrementality claim: << 1.0)
//   * PRQ latency during churn (p50 / p95 / p99, ms)
//   * one full Figure-5 rebuild time for the incremental-vs-full ratio
//   * a final equivalence check: PRQ answers on the churned engine vs a
//     from-scratch rebuild of the mutated policy corpus.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "policy/policy_catalog.h"
#include "policy/policy_generator.h"
#include "service/service.h"
#include "telemetry/metrics.h"

using namespace peb;
using namespace peb::eval;

namespace {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace

int main(int argc, char** argv) {
  WorkloadParams params;
  params.num_users = Scaled(20000, 400);
  params.policies_per_user = Scaled(30, 5);
  params.grid_bits = 8;
  // Pure in-group policies (θ = 1): the relatedness graph stays partitioned
  // into bounded friend clusters, the production-realistic shape, so the
  // affected component of a mutation is the cluster — the locality the
  // incremental re-encoder exploits. (At θ < 1 the uniform cross-group
  // tail merges everything into one giant component, where incremental
  // degenerates to a full re-encode by construction.)
  params.grouping_factor = 1.0;
  const size_t kMutations = Scaled(200, 20);
  const size_t kQueriesPerMutation = 3;
  // The generator's group span (policy_generator.h: auto group size).
  const size_t kGroupSize = std::max(params.policies_per_user + 1,
                                     size_t{64});

  std::printf("policy churn: %zu users, %zu policies/user, %zu mutations\n",
              params.num_users, params.policies_per_user, kMutations);

  // Private registry: the bench's own series plus every engine/service
  // instrument, embedded verbatim in the JSON report.
  telemetry::MetricsRegistry registry;
  telemetry::TelemetryOptions topts;
  topts.registry = &registry;

  Workload w = Workload::Build(params);
  auto engine = MakeEngine(w, /*num_shards=*/4, /*num_threads=*/4, topts);
  service::ServiceOptions so;
  so.time_domain = params.time_domain;
  so.telemetry = topts;
  service::MovingObjectService svc(engine.get(), w.catalog(), so);

  QuerySetOptions qopt;
  qopt.count = Scaled(200, 30);
  qopt.seed = 4242;
  auto queries = MakePrqQueries(w, qopt);

  PolicyGeneratorOptions lpp_opt;
  lpp_opt.space = Rect::Space(params.space_side);
  lpp_opt.time_domain = params.time_domain;
  Rng rng(params.seed + 0xC0DE);
  RoleId friend_role = w.catalog()->DefineRole("friend");

  telemetry::Histogram& reencode_ms = *registry.histogram("churn.reencode_ms");
  telemetry::Histogram& query_ms = *registry.histogram("churn.prq_ms");
  std::vector<double> rekeyed, component;
  size_t next_query = 0;
  for (size_t m = 0; m < kMutations; ++m) {
    UserId owner = static_cast<UserId>(rng.NextBelow(params.num_users));
    service::QueryResponse resp;
    if (m % 2 == 0) {
      // Grants target the owner's own cluster (as the corpus does), so
      // churn does not bridge clusters into one giant component.
      size_t g_lo = (owner / kGroupSize) * kGroupSize;
      size_t g_len = std::min(kGroupSize, params.num_users - g_lo);
      UserId peer = owner;
      while (peer == owner && g_len > 1) {
        peer = static_cast<UserId>(g_lo + rng.NextBelow(g_len));
      }
      if (peer == owner) continue;
      resp = svc.Execute(service::QueryRequest::AddPolicy(
          owner, peer, RandomLpp(rng, friend_role, lpp_opt), w.now()));
    } else {
      // Revoke an existing grant (walk forward to a user with one).
      UserId u = owner;
      for (size_t probe = 0; probe < params.num_users; ++probe) {
        if (!w.store().PeersOf(u).empty()) break;
        u = static_cast<UserId>((u + 1) % params.num_users);
      }
      auto peers = w.store().PeersOf(u);
      if (peers.empty()) continue;
      UserId peer = peers[rng.NextBelow(peers.size())];
      resp = svc.Execute(
          service::QueryRequest::RemovePolicy(u, peer, w.now()));
    }
    if (!resp.ok()) {
      std::fprintf(stderr, "mutation failed: %s\n",
                   resp.status.ToString().c_str());
      return 1;
    }
    reencode_ms.Record(resp.reencode.seconds * 1e3);
    rekeyed.push_back(static_cast<double>(resp.reencode.rekeyed));
    component.push_back(static_cast<double>(resp.reencode.component_users));

    for (size_t q = 0; q < kQueriesPerMutation; ++q) {
      const auto& query = queries[next_query++ % queries.size()];
      service::QueryResponse r = svc.Execute(
          service::QueryRequest::Prq(query.issuer, query.range, query.tq));
      if (!r.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     r.status.ToString().c_str());
        return 1;
      }
      query_ms.Record(r.exec_ms);
    }
  }

  // Equivalence spot-check: the churned, incrementally re-keyed engine
  // must answer exactly like a from-scratch rebuild of the mutated corpus.
  CatalogOptions cat_opts = w.catalog()->options();
  PolicyCatalog fresh(w.store(), w.roles(), cat_opts);
  engine::EngineOptions eng_opts = engine->options();
  engine::ShardedPebEngine rebuilt(eng_opts, &fresh.store(), &fresh.roles(),
                                   fresh.snapshot());
  if (!rebuilt.LoadDataset(w.dataset()).ok()) {
    std::fprintf(stderr, "rebuild load failed\n");
    return 1;
  }
  size_t checked = 0, mismatches = 0;
  for (size_t i = 0; i < std::min<size_t>(queries.size(), 50); ++i) {
    auto a = engine->RangeQuery(queries[i].issuer, queries[i].range,
                                queries[i].tq);
    auto b = rebuilt.RangeQuery(queries[i].issuer, queries[i].range,
                                queries[i].tq);
    if (!a.ok() || !b.ok() || *a != *b) mismatches++;
    checked++;
  }

  // Full-rebuild reference time (the cost incrementality avoids).
  auto full = w.catalog()->RebuildFull();
  double full_ms = full.ok() ? full->stats.seconds * 1e3 : 0.0;

  double rekey_fraction =
      Mean(rekeyed) / static_cast<double>(params.num_users);
  uint64_t final_epoch = full.ok() ? full->stats.epoch : 0;

  telemetry::Histogram::Snapshot re_snap = reencode_ms.Snap();
  telemetry::Histogram::Snapshot q_snap = query_ms.Snap();
  std::printf("re-encode : %.3f ms mean, %.3f ms p95, %.3f ms max\n",
              re_snap.mean(), re_snap.p95, re_snap.max);
  std::printf("re-keyed  : %.1f users mean (%.4f of population), %.0f max\n",
              Mean(rekeyed), rekey_fraction, Percentile(rekeyed, 1.0));
  std::printf("component : %.1f users mean\n", Mean(component));
  std::printf("PRQ churn : %.3f ms p50, %.3f ms p95, %.3f ms p99\n",
              q_snap.p50, q_snap.p95, q_snap.p99);
  std::printf("full rebuild: %.3f ms (vs %.3f ms mean incremental)\n",
              full_ms, re_snap.mean());
  std::printf("equivalence: %zu/%zu PRQs identical to from-scratch rebuild\n",
              checked - mismatches, checked);
  if (mismatches > 0) {
    std::fprintf(stderr, "FAIL: churned engine diverged from rebuild\n");
    return 1;
  }

  std::string json_path = JsonPathFromArgs(argc, argv);
  if (!json_path.empty()) {
    Json doc = Json::Object()
        .Set("bench", "policy_churn")
        .Set("params", ToJson(params))
        .Set("num_mutations", static_cast<uint64_t>(re_snap.count))
        .Set("queries_during_churn", static_cast<uint64_t>(q_snap.count))
        .Set("reencode_ms",
             Json::Object()
                 .Set("mean", re_snap.mean())
                 .Set("p95", re_snap.p95)
                 .Set("max", re_snap.max))
        .Set("rekeyed_users",
             Json::Object()
                 .Set("mean", Mean(rekeyed))
                 .Set("max", Percentile(rekeyed, 1.0))
                 .Set("fraction_of_population", rekey_fraction))
        .Set("component_users_mean", Mean(component))
        .Set("query_ms",
             Json::Object()
                 .Set("p50", q_snap.p50)
                 .Set("p95", q_snap.p95)
                 .Set("p99", q_snap.p99))
        .Set("full_rebuild_ms", full_ms)
        .Set("equivalence_checked", static_cast<uint64_t>(checked))
        .Set("equivalence_mismatches", static_cast<uint64_t>(mismatches))
        .Set("final_epoch", final_epoch)
        .Set("telemetry", Json::Raw(registry.SnapshotJson()));
    if (!doc.WriteTo(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
