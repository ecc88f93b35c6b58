// Shared scaffolding for the figure-reproduction benches. Each bench binary
// regenerates one figure of Section 7: it sweeps the figure's parameter,
// runs the paper's query batch (Table 1 defaults elsewhere), and prints the
// PEB-tree and spatial-index series side by side.
//
// Environment knobs:
//   PEB_BENCH_SCALE  — divides user counts and query counts (default 1 =
//                      full paper scale; e.g. 10 for a quick smoke run).
//
// CLI knobs:
//   --json <path>    — additionally emit the run as a machine-readable
//                      BENCH_*.json document (see bench_json.h).
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_json.h"
#include "eval/runner.h"
#include "eval/table_printer.h"
#include "eval/workload.h"

namespace peb {
namespace eval {

/// Scale divisor from the environment (>= 1).
inline double BenchScale() {
  const char* s = std::getenv("PEB_BENCH_SCALE");
  if (s == nullptr) return 1.0;
  double v = std::atof(s);
  return v >= 1.0 ? v : 1.0;
}

/// Scales a count down by BenchScale(), keeping a sane floor.
inline size_t Scaled(size_t full, size_t floor_value = 1) {
  auto v = static_cast<size_t>(static_cast<double>(full) / BenchScale());
  return v < floor_value ? floor_value : v;
}

/// One measured point: PEB vs spatial on the same query batch.
struct ComparisonPoint {
  RunResult peb_prq, spatial_prq;
  RunResult peb_knn, spatial_knn;
};

/// Runs the standard PRQ + PkNN batches on a built workload. All queries
/// go through the workload's MovingObjectService front-ends; per-query
/// I/O comes from each QueryResponse's own delta.
inline ComparisonPoint MeasureBoth(Workload& w, const QuerySetOptions& q) {
  ComparisonPoint out;
  auto prq = MakePrqQueries(w, q);
  auto knn = MakePknnQueries(w, q);
  out.peb_prq = RunPrqBatch(w.peb_service(), prq);
  out.peb_knn = RunPknnBatch(w.peb_service(), knn);
  out.spatial_prq = RunPrqBatch(w.spatial_service(), prq);
  out.spatial_knn = RunPknnBatch(w.spatial_service(), knn);
  return out;
}

/// Standard header for the two-series I/O tables.
inline TablePrinter MakeIoTable(const std::string& param) {
  return TablePrinter({param, "PEB-tree I/O", "Spatial-index I/O", "ratio"});
}

inline void AddIoRow(TablePrinter& t, const std::string& x, double peb,
                     double spatial) {
  double ratio = peb > 0.0 ? spatial / peb : 0.0;
  t.AddRow({x, Fmt(peb, 2), Fmt(spatial, 2), Fmt(ratio, 1) + "x"});
}

// --- JSON serialization of the common measurement types --------------------

inline Json ToJson(const RunResult& r) {
  return Json::Object()
      .Set("avg_io", r.avg_io)
      .Set("avg_candidates", r.avg_candidates)
      .Set("avg_results", r.avg_results)
      .Set("avg_probes", r.avg_probes)
      .Set("avg_rounds", r.avg_rounds)
      .Set("avg_seek_descents", r.avg_descents)
      .Set("wall_ms", r.wall_ms);
}

inline Json ToJson(const IoStats& s) {
  return Json::Object()
      .Set("physical_reads", s.physical_reads)
      .Set("physical_writes", s.physical_writes)
      .Set("logical_fetches", s.logical_fetches)
      .Set("cache_hits", s.cache_hits)
      .Set("evictions", s.evictions)
      .Set("hit_ratio", s.HitRatio());
}

inline Json ToJson(const WorkloadParams& p) {
  return Json::Object()
      .Set("num_users", static_cast<uint64_t>(p.num_users))
      .Set("policies_per_user", static_cast<uint64_t>(p.policies_per_user))
      .Set("grouping_factor", p.grouping_factor)
      .Set("space_side", p.space_side)
      .Set("max_speed", p.max_speed)
      .Set("buffer_pages", static_cast<uint64_t>(p.buffer_pages))
      .Set("grid_bits", static_cast<uint64_t>(p.grid_bits))
      .Set("max_z_intervals", static_cast<uint64_t>(p.max_z_intervals))
      .Set("seed", p.seed);
}

}  // namespace eval
}  // namespace peb
