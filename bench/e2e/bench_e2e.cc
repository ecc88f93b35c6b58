// End-to-end benchmark of the durable moving-object service.
//
// One process runs one workload (README.md in this directory explains the
// four of them and every metric):
//
//  1. Generates every input from --seed: the uniform dataset advanced to
//     stream time kStreamStart, the policy corpus, the update stream cut
//     into 10 ms batches, the open-loop op schedule, the policy-mutation
//     plan, and the verification queries.
//  2. Builds the policy catalog once, then sets up a durable
//     ShardedPebEngine behind a MovingObjectService several times
//     (setup_s = catalog time + the median engine set-up).
//  3. Drives an open-loop load: one generator thread releases each op at
//     its due time into a FIFO served by two dispatcher threads calling
//     Execute; one writer thread sends each 10 ms batch of updates through
//     ApplyBatch in stream order and checkpoints every 1,000th batch.
//     Latency runs from an op's due time to its return, so generator and
//     queue stalls count.
//  4. While the writer keeps going: runs the one policy mutation that
//     re-keys the largest relatedness component (policy_churn), or a short
//     closed-loop phase with two clients (read_fit, capacity_qps).
//  5. Quiesces, then checks PRQ/PkNN answers against the Definition 2/3
//     brute-force oracles over the acknowledged states.
//  6. Tears the engine down without a checkpoint (the crash model), times
//     Open() from that crash image several times, and checks every user's
//     recovered state.
//
// Usage: bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                  --out DIR
// Writes DIR/<workload>.json (and, when tracing, the slowest traces as
// Chrome JSON plus a layer table). Exits 1 on a correctness failure and 2
// on an invalid run; run.py turns the document into the report.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "costmodel/cost_model.h"
#include "engine/sharded_engine.h"
#include "eval/workload.h"
#include "motion/uniform_generator.h"
#include "motion/update_stream.h"
#include "policy/policy_catalog.h"
#include "policy/policy_generator.h"
#include "service/service.h"
#include "spatial/zrange.h"
#include "storage/page.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "test_util.h"

namespace peb {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using service::QueryRequest;
using service::QueryResponse;

// ---------------------------------------------------------------------------
// Workloads and fixed run shape
// ---------------------------------------------------------------------------

/// One traffic mix. Everything not listed here is the engine's default.
struct WorkloadSpec {
  const char* name;
  double theta;             ///< Grouping factor of the policy corpus.
  size_t buffer_pages;      ///< Shared buffer-pool frames.
  double query_rate;        ///< Open-loop PRQ + PkNN arrivals per second.
  double replay_speed;      ///< Stream time units per wall second.
  double mutation_rate;     ///< Policy grants + revokes per second.
  size_t standing_queries;  ///< Continuous PRQs registered before the load.
  double continuous_rate;   ///< Continuous registers (and cancels) per second.
  bool capacity_phase;      ///< Closed loop after the window (capacity_qps).
};

constexpr WorkloadSpec kWorkloads[] = {
    {"read_fit", 0.7, 4096, 300.0, 1.0, 0.0, 0, 0.0, true},
    {"read_spill", 0.7, 50, 300.0, 1.0, 0.0, 0, 0.0, false},
    {"ingest_durable", 0.7, 4096, 200.0, 10.0, 0.0, 0, 0.0, false},
    {"policy_churn", 1.0, 4096, 300.0, 1.0, 2.0, 256, 1.0, false},
};

constexpr size_t kUsers = 60000;
constexpr double kWindowSide = 200.0;  // Table 1 PRQ window.
constexpr size_t kK = 5;               // Table 1 PkNN k.
constexpr double kWarmupS = 1.0;
constexpr double kCapacityS = 2.0;
constexpr size_t kCapacityClients = 2;
constexpr size_t kCapacitySlices = 5;
constexpr size_t kDispatchers = 2;
constexpr double kBatchPeriodS = 0.010;
constexpr size_t kCheckpointEvery = 1000;  // Batches.
constexpr size_t kAdvanceEvery = 100;      // Batches (continuous workloads).
constexpr size_t kSetupReps = 3;
constexpr size_t kRecoveryReps = 7;
constexpr size_t kVerifyQueries = 200;  // Per query kind.
constexpr size_t kSlowTraces = 20;
constexpr size_t kTraceSampleEvery = 8;
/// Stream clock the loaded dataset is advanced to: three maximum update
/// intervals, so the update rate has reached its steady state (~N / 90
/// events per stream unit) before the load starts.
constexpr double kStreamStart = 360.0;

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "bench_e2e: %s\n", msg.c_str());
  std::exit(3);
}

void CheckOk(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

double MsSince(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::time_point At(Clock::time_point start, double offset_s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

/// Nearest-rank quantile (0 for an empty sample).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const size_t rank =
      std::clamp<size_t>(static_cast<size_t>(std::ceil(q * n)), 1, v.size());
  return v[rank - 1];
}

/// Median of repeated measurements (mean of the middle two for an even
/// count; 0 for none).
double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// Samples strictly above the nearest-rank q-quantile.
size_t SamplesBeyond(size_t n, double q) {
  return n - std::min(n, static_cast<size_t>(
                             std::ceil(q * static_cast<double>(n))));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Inputs (all generated from the seed before any timing starts)
// ---------------------------------------------------------------------------

enum class OpKind { kPrq, kPknn, kGrant, kRevoke, kRegister, kCancel };

struct Op {
  double due_s = 0.0;  ///< Offset from the start of the load.
  OpKind kind = OpKind::kPrq;
  UserId issuer = kInvalidUserId;  ///< Queries and registrations.
  Rect range;
  Point qloc;
  UserId owner = kInvalidUserId;  ///< Mutations.
  UserId peer = kInvalidUserId;
  Lpp policy;
};

struct Inputs {
  const WorkloadSpec* spec = nullptr;
  eval::WorkloadParams params;
  Dataset dataset;  ///< States at kStreamStart: what setup loads.
  GeneratedPolicies policies;
  /// Update events per 10 ms wall window, in stream order.
  std::vector<std::vector<UpdateEvent>> batches;
  std::vector<Op> ops;       ///< Open-loop schedule, ascending due time.
  std::vector<Op> standing;  ///< Registered before the load.
  std::vector<Op> capacity;  ///< Closed-loop query pool.
  std::vector<Op> verify;    ///< Post-quiesce oracle checks.
  std::optional<Op> large_mutation;  ///< Runs after the window, timed alone.
};

Op RandomQuery(Rng& rng, OpKind kind, double side) {
  Op op;
  op.kind = kind;
  op.issuer = static_cast<UserId>(rng.NextBelow(kUsers));
  Point c{rng.Uniform(0.0, side), rng.Uniform(0.0, side)};
  op.range = Rect::CenteredSquare(c, kWindowSide).ClampedTo(Rect::Space(side));
  op.qloc = Point{rng.Uniform(0.0, side), rng.Uniform(0.0, side)};
  return op;
}

/// Size of each user's connected component in the relatedness graph. Every
/// generated policy has positive weight, so two users are related exactly
/// when either holds a policy for the other.
std::vector<size_t> ComponentSizes(const PolicyStore& store) {
  std::vector<UserId> parent(kUsers);
  for (size_t u = 0; u < kUsers; ++u) parent[u] = static_cast<UserId>(u);
  auto find = [&](UserId u) {
    while (parent[u] != u) u = parent[u] = parent[parent[u]];
    return u;
  };
  for (size_t u = 0; u < kUsers; ++u) {
    for (UserId v : store.PeersOf(static_cast<UserId>(u))) {
      parent[find(static_cast<UserId>(u))] = find(v);
    }
  }
  std::vector<size_t> size(kUsers, 0);
  for (size_t u = 0; u < kUsers; ++u) size[find(static_cast<UserId>(u))]++;
  std::vector<size_t> out(kUsers);
  for (size_t u = 0; u < kUsers; ++u) {
    out[u] = size[find(static_cast<UserId>(u))];
  }
  return out;
}

/// Alternating in-group grants (to a peer the owner has no policy for) and
/// revokes (of a distinct pre-existing policy), planned against the initial
/// corpus so every mutation is valid whenever it executes. Owners come from
/// group-sized components only; the one revoke inside the largest component
/// is planned separately.
std::vector<Op> PlanMutations(const GeneratedPolicies& gp,
                              const PolicyGeneratorOptions& pg,
                              const std::vector<size_t>& component,
                              size_t count, Rng& rng) {
  std::vector<Op> out;
  std::unordered_set<uint64_t> used;
  const size_t g = gp.group_size;
  while (out.size() < count) {
    Op op;
    const UserId owner = static_cast<UserId>(rng.NextBelow(kUsers));
    if (component[owner] > g) continue;
    if (out.size() % 2 == 0) {
      const size_t lo = (owner / g) * g;
      const size_t len = std::min(g, kUsers - lo);
      const UserId peer = static_cast<UserId>(lo + rng.NextBelow(len));
      if (peer == owner || !gp.store.Get(owner, peer).empty() ||
          !used.insert(UserPairKey(owner, peer)).second) {
        continue;
      }
      op.kind = OpKind::kGrant;
      op.owner = owner;
      op.peer = peer;
      op.policy = RandomLpp(rng, gp.friend_role, pg);
    } else {
      auto peers = gp.store.PeersOf(owner);
      if (peers.empty()) continue;
      const UserId peer = peers[rng.NextBelow(peers.size())];
      if (!used.insert(UserPairKey(owner, peer)).second) continue;
      op.kind = OpKind::kRevoke;
      op.owner = owner;
      op.peer = peer;
    }
    out.push_back(op);
  }
  return out;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  Inputs in;
  in.spec = &spec;
  eval::WorkloadParams& p = in.params;
  p.num_users = kUsers;
  p.grouping_factor = spec.theta;
  p.buffer_pages = spec.buffer_pages;
  p.seed = seed;

  UniformGeneratorOptions gen;
  gen.num_objects = kUsers;
  gen.space_side = p.space_side;
  gen.max_speed = p.max_speed;
  gen.stagger_window = p.delta_t_mu;
  gen.seed = seed;
  Dataset initial = GenerateUniformDataset(gen);

  PolicyGeneratorOptions pg;
  pg.num_users = kUsers;
  pg.policies_per_user = p.policies_per_user;
  pg.grouping_factor = p.grouping_factor;
  pg.space = Rect::Space(p.space_side);
  pg.time_domain = p.time_domain;
  pg.seed = seed + 0x9E37;
  in.policies = GeneratePolicies(pg);

  // Updates: advance the stream to kStreamStart (those states are what
  // setup loads), then cut the rest into 10 ms wall windows. The writer
  // keeps going after the open-loop window (capacity phase, large-component
  // mutation); four spare seconds keep it from running dry.
  UniformUpdateStreamOptions us;
  us.max_update_interval = p.delta_t_mu;
  us.seed = seed + 0xABCD;
  UniformUpdateStream stream(initial, us);
  in.dataset = std::move(initial);
  UpdateEvent ev = stream.Next();
  while (ev.t < kStreamStart) {
    in.dataset.objects[ev.state.id] = ev.state;
    ev = stream.Next();
  }
  const double total_s =
      kWarmupS + seconds + (spec.capacity_phase ? kCapacityS : 0.0) + 4.0;
  const size_t windows = static_cast<size_t>(total_s / kBatchPeriodS);
  const double stream_per_window = kBatchPeriodS * spec.replay_speed;
  in.batches.resize(windows);
  for (size_t w = 0; w < windows; ++w) {
    const double end = kStreamStart + static_cast<double>(w + 1) *
                                          stream_per_window;
    while (ev.t < end) {
      in.batches[w].push_back(ev);
      ev = stream.Next();
    }
  }

  // Open-loop schedule over warm-up + measured window.
  Rng rng(seed ^ 0xE2E0);
  const double load_s = kWarmupS + seconds;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.NextDouble()) / spec.query_rate;
    if (t >= load_s) break;
    Op op = RandomQuery(rng, rng.NextBool(0.5) ? OpKind::kPrq : OpKind::kPknn,
                        p.space_side);
    op.due_s = t;
    in.ops.push_back(op);
  }
  if (spec.mutation_rate > 0.0) {
    const std::vector<size_t> component = ComponentSizes(in.policies.store);
    const size_t n = static_cast<size_t>(load_s * spec.mutation_rate);
    std::vector<Op> plan = PlanMutations(in.policies, pg, component, n, rng);
    for (size_t i = 0; i < plan.size(); ++i) {
      plan[i].due_s = (static_cast<double>(i) + 0.5) / spec.mutation_rate;
      in.ops.push_back(plan[i]);
    }
    // One revoke inside the largest component, after the measured window:
    // its re-encode re-keys that whole component (tens of thousands of
    // users) under the service's locks and stalls every op for about a
    // second. Inside the window that single stall would decide the tail,
    // and before it the re-keyed trees would change every later query;
    // after it, it is timed on its own (policy.large_reencode_ms) and the
    // answer and recovery checks still cover it.
    const size_t largest =
        *std::max_element(component.begin(), component.end());
    while (!in.large_mutation) {
      const UserId owner = static_cast<UserId>(rng.NextBelow(kUsers));
      auto peers = in.policies.store.PeersOf(owner);
      if (component[owner] != largest || peers.empty()) continue;
      Op op;
      op.kind = OpKind::kRevoke;
      op.owner = owner;
      op.peer = peers[rng.NextBelow(peers.size())];
      if (std::none_of(plan.begin(), plan.end(), [&](const Op& o) {
            return o.owner == op.owner && o.peer == op.peer;
          })) {
        in.large_mutation = op;
      }
    }
  }
  if (spec.continuous_rate > 0.0) {
    const size_t n = static_cast<size_t>(load_s * spec.continuous_rate);
    for (size_t i = 0; i < n; ++i) {
      const double base = static_cast<double>(i) / spec.continuous_rate;
      Op reg = RandomQuery(rng, OpKind::kRegister, p.space_side);
      reg.due_s = base + 0.25 / spec.continuous_rate;
      in.ops.push_back(reg);
      Op cancel;
      cancel.kind = OpKind::kCancel;
      cancel.due_s = base + 0.75 / spec.continuous_rate;
      in.ops.push_back(cancel);
    }
  }
  std::stable_sort(in.ops.begin(), in.ops.end(),
                   [](const Op& a, const Op& b) { return a.due_s < b.due_s; });

  for (size_t i = 0; i < spec.standing_queries; ++i) {
    in.standing.push_back(RandomQuery(rng, OpKind::kRegister, p.space_side));
  }
  for (size_t i = 0; i < 4096; ++i) {
    in.capacity.push_back(RandomQuery(
        rng, i % 2 == 0 ? OpKind::kPrq : OpKind::kPknn, p.space_side));
  }
  for (size_t i = 0; i < 2 * kVerifyQueries; ++i) {
    in.verify.push_back(RandomQuery(
        rng, i < kVerifyQueries ? OpKind::kPrq : OpKind::kPknn,
        p.space_side));
  }
  return in;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// One serving stack. Members are destroyed bottom-up: the service before
/// the engine it fronts, the engine before the catalog it reads, and the
/// registry after both, which unregister from it. Not assignable: member-
/// wise assignment would free them top-down.
struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Drops the engine and its service; the catalog stays.
  void ResetServing() {
    service.reset();
    engine.reset();
    registry.reset();
  }

  std::unique_ptr<PolicyCatalog> catalog;
  std::unique_ptr<telemetry::MetricsRegistry> registry;
  engine::EngineOptions engine_options;
  std::unique_ptr<engine::ShardedPebEngine> engine;
  std::unique_ptr<service::MovingObjectService> service;
};

CatalogOptions CatalogOptionsFor(const eval::WorkloadParams& p) {
  CatalogOptions cat;
  cat.num_users = p.num_users;
  cat.compat.space = Rect::Space(p.space_side);
  cat.compat.time_domain = p.time_domain;
  cat.sv_scale = p.sv_scale;
  cat.sv_bits = p.sv_bits;
  cat.strategy = p.sequence_strategy;
  return cat;
}

/// Copies `from` over `to` and fsyncs it: after a crash the files are on
/// disk, so the timed recovery must not also flush the copy.
void RestoreDurably(const std::string& from, const std::string& to) {
  fs::copy_file(from, to, fs::copy_options::overwrite_existing);
  const int fd = ::open(to.c_str(), O_RDWR);
  if (fd < 0 || ::fsync(fd) != 0) Die("cannot sync " + to);
  ::close(fd);
}

void RemoveDb(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  fs::remove(path + ".wal", ec);
}

/// Builds the policy catalog (the Figure-11 encode) from the generated
/// corpus, which it takes over, and returns the seconds it took.
double SetUpCatalog(Inputs* in, Stack* stack) {
  const auto t0 = Clock::now();
  stack->catalog = std::make_unique<PolicyCatalog>(
      std::move(in->policies.store), std::move(in->policies.roles),
      CatalogOptionsFor(in->params));
  return MsSince(t0, Clock::now()) / 1e3;
}

/// Builds a loaded engine and its service over the catalog and returns the
/// seconds it took: engine construction, LoadDataset (which ends in the
/// first checkpoint), and the service.
double SetUpServing(const Inputs& in, const std::string& db_path, bool trace,
                    Stack* stack) {
  RemoveDb(db_path);
  stack->registry = std::make_unique<telemetry::MetricsRegistry>();
  telemetry::TelemetryOptions tel;
  tel.registry = stack->registry.get();

  const auto t0 = Clock::now();
  engine::EngineOptions& eo = stack->engine_options;
  eo.buffer_pages = in.spec->buffer_pages;
  eo.tree = eval::PebOptionsFor(in.params);
  eo.durability.path = db_path;
  eo.durability.checkpoint_on_close = false;  // Teardown == crash.
  eo.telemetry = tel;
  stack->engine = std::make_unique<engine::ShardedPebEngine>(
      eo, &stack->catalog->store(), &stack->catalog->roles(),
      stack->catalog->snapshot());
  CheckOk(stack->engine->durability_status(), "engine create");
  CheckOk(stack->engine->LoadDataset(in.dataset), "LoadDataset");
  service::ServiceOptions so;
  so.time_domain = in.params.time_domain;
  so.telemetry = tel;
  if (trace) so.telemetry.trace_sample_every = kTraceSampleEvery;
  stack->service = std::make_unique<service::MovingObjectService>(
      stack->engine.get(), stack->catalog.get(), so);
  return MsSince(t0, Clock::now()) / 1e3;
}

// ---------------------------------------------------------------------------
// Trace folding
// ---------------------------------------------------------------------------

/// Self time per span class, folded from sampled QueryResponse::trace
/// span trees. A span's self time is its duration minus the part of it
/// covered by the union of its children (shard children run in parallel,
/// so they may overlap each other).
struct TraceFold {
  double root_self_ms[2] = {0, 0};  // [prq, pknn]
  size_t traced[2] = {0, 0};
  double shard_ms[2] = {0, 0};
  size_t shard_spans[2] = {0, 0};
  double shard_self_ms = 0.0;
  double round_self_ms = 0.0;
  size_t round_spans = 0;
  double skew_sum = 0.0;
  size_t skew_n = 0;
  double coverage_sum = 0.0;
  double exec_ms = 0.0;

  void Add(const telemetry::QueryTrace& t, bool knn, double exec) {
    const size_t k = knn ? 1 : 0;
    const auto& spans = t.spans;
    std::vector<std::vector<size_t>> kids(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent < spans.size()) kids[spans[i].parent].push_back(i);
    }
    double max_shard = 0.0, sum_shard = 0.0;
    size_t n_shard = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      const telemetry::TraceSpan& s = spans[i];
      const double self = s.dur_ms - CoveredByChildren(spans, i, kids[i]);
      if (s.parent == telemetry::TraceSpan::kNoParent) {
        root_self_ms[k] += self;
        coverage_sum += std::min(1.0, Ratio(s.dur_ms, exec));
      } else if (s.name.rfind("shard", 0) == 0) {
        shard_ms[k] += s.dur_ms;
        shard_spans[k]++;
        shard_self_ms += self;
        max_shard = std::max(max_shard, s.dur_ms);
        sum_shard += s.dur_ms;
        n_shard++;
      } else {
        round_self_ms += self;  // "round N" and "vertical" PkNN steps.
        round_spans++;
      }
    }
    traced[k]++;
    exec_ms += exec;
    if (n_shard > 0 && sum_shard > 0.0) {
      skew_sum += max_shard / (sum_shard / static_cast<double>(n_shard));
      skew_n++;
    }
  }

  void Merge(const TraceFold& o) {
    for (size_t k = 0; k < 2; ++k) {
      root_self_ms[k] += o.root_self_ms[k];
      traced[k] += o.traced[k];
      shard_ms[k] += o.shard_ms[k];
      shard_spans[k] += o.shard_spans[k];
    }
    shard_self_ms += o.shard_self_ms;
    round_self_ms += o.round_self_ms;
    round_spans += o.round_spans;
    skew_sum += o.skew_sum;
    skew_n += o.skew_n;
    coverage_sum += o.coverage_sum;
    exec_ms += o.exec_ms;
  }

  static double CoveredByChildren(const std::vector<telemetry::TraceSpan>& s,
                                  size_t parent,
                                  const std::vector<size_t>& kids) {
    const double lo = s[parent].start_ms;
    const double hi = lo + s[parent].dur_ms;
    std::vector<std::pair<double, double>> iv;
    for (size_t c : kids) {
      double a = std::max(lo, s[c].start_ms);
      double b = std::min(hi, s[c].start_ms + s[c].dur_ms);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, end = lo;
    for (auto [a, b] : iv) {
      a = std::max(a, end);
      if (b > a) {
        covered += b - a;
        end = b;
      }
    }
    return covered;
  }
};

struct SlowTrace {
  double exec_ms = 0.0;
  telemetry::QueryTrace trace;
};

void KeepSlowest(std::vector<SlowTrace>* v) {
  std::sort(v->begin(), v->end(), [](const SlowTrace& a, const SlowTrace& b) {
    return a.exec_ms > b.exec_ms;
  });
  if (v->size() > kSlowTraces) v->resize(kSlowTraces);
}

// ---------------------------------------------------------------------------
// The open-loop run
// ---------------------------------------------------------------------------

/// Ops attempted and failed, with the first few failure messages.
struct Outcomes {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    failed++;
    if (errors.size() < 5) errors.push_back(what);
  }
  void Add(const Outcomes& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string& e : o.errors) {
      if (errors.size() < 5) errors.push_back(e);
    }
  }
};

/// What one dispatcher or client observed. Each thread owns one; they are
/// merged after the threads are joined.
struct OpRecord : Outcomes {
  std::vector<double> prq_ms, pknn_ms, policy_ms, queue_ms;
  std::vector<double> prq_exec_ms, pknn_exec_ms;
  std::vector<double> traced_prq_exec_ms, untraced_prq_exec_ms;
  double busy_ms = 0.0;
  QueryCounters counters[2];  // [prq, pknn]
  IoStats io[2];
  size_t queries[2] = {0, 0};
  std::vector<ReencodeStats> reencodes;
  TraceFold fold;
  std::vector<SlowTrace> slow;

  void Merge(OpRecord&& o) {
    auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    cat(&prq_ms, o.prq_ms);
    cat(&pknn_ms, o.pknn_ms);
    cat(&policy_ms, o.policy_ms);
    cat(&queue_ms, o.queue_ms);
    cat(&prq_exec_ms, o.prq_exec_ms);
    cat(&pknn_exec_ms, o.pknn_exec_ms);
    cat(&traced_prq_exec_ms, o.traced_prq_exec_ms);
    cat(&untraced_prq_exec_ms, o.untraced_prq_exec_ms);
    busy_ms += o.busy_ms;
    for (size_t k = 0; k < 2; ++k) {
      counters[k] += o.counters[k];
      io[k] += o.io[k];
      queries[k] += o.queries[k];
    }
    reencodes.insert(reencodes.end(), o.reencodes.begin(), o.reencodes.end());
    Add(o);
    fold.Merge(o.fold);
    for (auto& s : o.slow) slow.push_back(std::move(s));
    KeepSlowest(&slow);
  }
};

/// What the writer observed.
struct WriteRecord : Outcomes {
  std::vector<double> update_ms, apply_ms, checkpoint_ms, advance_ms;
  size_t acked_windows = 0;
  uint64_t wal_growth_bytes = 0;
  uint64_t wal_events = 0;
  size_t backlog_max = 0;
  uint64_t continuous_events = 0;
};

/// Counters read at the two edges of the measured window.
struct Edge {
  Clock::time_point at;
  IoStats io;
  engine::ShardedPebEngine::DeltaStats delta;
  std::map<std::string, uint64_t> counters;
};

const char* const kEdgeCounters[] = {
    "engine.pknn.retirements", "engine.delta.probes", "engine.delta.shadowed",
    "service.continuous.updates_fed"};

Edge ReadEdge(const Stack& s) {
  Edge e;
  e.at = Clock::now();
  e.io = s.engine->aggregate_io();
  e.delta = s.engine->delta_stats();
  for (const char* name : kEdgeCounters) {
    e.counters[name] = s.registry->counter(name)->Value();
  }
  return e;
}

struct Pending {
  const Op* op = nullptr;
  Clock::time_point due;
};

class LoadRun {
 public:
  LoadRun(const Inputs& in, Stack* stack, double seconds)
      : in_(in), stack_(*stack), seconds_(seconds) {
    stream_clock_.store(kStreamStart);
  }

  LoadRun(const LoadRun&) = delete;
  LoadRun& operator=(const LoadRun&) = delete;

  /// Registers the workload's standing continuous queries.
  void RegisterStanding() {
    for (const Op& op : in_.standing) {
      QueryResponse r = stack_.service->Execute(
          QueryRequest::RegisterContinuous(op.issuer, op.range,
                                           stream_clock_.load()));
      CheckOk(r.status, "standing registration");
      continuous_ids_.push_back(r.continuous_id);
    }
  }

  void Run() {
    start_ = Clock::now() + std::chrono::milliseconds(20);
    window_end_ = At(start_, kWarmupS + seconds_);
    std::thread writer([this] { Writer(); });
    std::vector<std::thread> dispatchers;
    for (size_t i = 0; i < kDispatchers; ++i) {
      dispatchers.emplace_back([this, i] { Dispatcher(&dispatch_[i]); });
    }
    std::thread generator([this] { Generator(); });

    std::this_thread::sleep_until(At(start_, kWarmupS));
    begin_ = ReadEdge(stack_);
    std::this_thread::sleep_until(window_end_);
    end_ = ReadEdge(stack_);

    generator.join();
    {
      std::lock_guard<std::mutex> lock(mu_);
      generator_done_ = true;
    }
    cv_.notify_all();
    for (auto& d : dispatchers) d.join();
    drained_at_ = Clock::now();

    // The largest-component mutation runs alone, while updates continue.
    if (in_.large_mutation) {
      const QueryResponse r =
          stack_.service->Execute(QueryRequest::RemovePolicy(
              in_.large_mutation->owner, in_.large_mutation->peer,
              stream_clock_.load()));
      large_.attempted++;
      if (!r.ok() || r.removed_policies == 0) {
        large_.Fail("large-component revoke: " + r.status.ToString());
      }
      large_reencode_ms_ = r.exec_ms;
      large_component_users_ = r.reencode.component_users;
      // Its re-key ends in a checkpoint; let updates build a WAL suffix
      // again, so that recovery has something to replay.
      std::this_thread::sleep_for(std::chrono::seconds(1));
    }

    if (in_.spec->capacity_phase) RunCapacity();
    stop_writer_.store(true);
    writer.join();
  }

  // --- results -------------------------------------------------------------
  const Inputs& in_;
  Stack& stack_;
  const double seconds_;
  Clock::time_point start_, window_end_, drained_at_;
  Edge begin_, end_;
  OpRecord dispatch_[kDispatchers];
  OpRecord capacity_[kCapacityClients];
  WriteRecord write_;
  std::vector<double> lateness_ms_;
  size_t backlog_at_end_ = 0;
  std::vector<double> capacity_slice_qps_;
  Outcomes large_;
  double large_reencode_ms_ = 0.0;
  size_t large_component_users_ = 0;
  std::atomic<double> stream_clock_{0.0};

 private:
  /// Closed loop: each client sends its next query when the last returns.
  /// Completions are counted per slice; the median slice rate is the
  /// capacity, so one merge stall does not decide it.
  void RunCapacity() {
    std::atomic<size_t> next{0};
    std::vector<std::vector<size_t>> done(
        kCapacityClients, std::vector<size_t>(kCapacitySlices, 0));
    std::vector<std::thread> clients;
    const auto cap_start = Clock::now();
    const auto cap_end = At(cap_start, kCapacityS);
    for (size_t i = 0; i < kCapacityClients; ++i) {
      clients.emplace_back([this, i, &next, &done, cap_start, cap_end] {
        OpRecord& rec = capacity_[i];
        for (auto now = Clock::now(); now < cap_end; now = Clock::now()) {
          const Op& op = in_.capacity[next.fetch_add(1) % in_.capacity.size()];
          const uint64_t failed = rec.failed;
          Execute(op, now, /*measured=*/false, &rec);
          const size_t slice = static_cast<size_t>(
              MsSince(cap_start, Clock::now()) / 1e3 / kCapacityS *
              kCapacitySlices);
          if (rec.failed == failed && slice < kCapacitySlices) {
            done[i][slice]++;
          }
        }
      });
    }
    for (auto& c : clients) c.join();
    for (size_t s = 0; s < kCapacitySlices; ++s) {
      double n = 0;
      for (const auto& d : done) n += static_cast<double>(d[s]);
      capacity_slice_qps_.push_back(n * kCapacitySlices / kCapacityS);
    }
  }

  void Generator() {
    for (const Op& op : in_.ops) {
      const auto due = At(start_, op.due_s);
      std::this_thread::sleep_until(due);
      const auto now = Clock::now();
      if (op.due_s >= kWarmupS) lateness_ms_.push_back(MsSince(due, now));
      {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back({&op, due});
      }
      cv_.notify_one();
    }
    std::this_thread::sleep_until(window_end_);
    std::lock_guard<std::mutex> lock(mu_);
    backlog_at_end_ = queue_.size();
  }

  void Dispatcher(OpRecord* rec) {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return !queue_.empty() || generator_done_; });
        if (queue_.empty()) return;
        p = queue_.front();
        queue_.pop_front();
      }
      const bool measured = p.op->due_s >= kWarmupS;
      if (measured) rec->queue_ms.push_back(MsSince(p.due, Clock::now()));
      Execute(*p.op, p.due, measured, rec);
    }
  }

  /// Executes one op through the service and records it. `due` is when the
  /// op should have been sent: latency runs from there.
  void Execute(const Op& op, Clock::time_point due, bool measured,
               OpRecord* rec) {
    const double tq = stream_clock_.load();
    QueryRequest req;
    switch (op.kind) {
      case OpKind::kPrq:
        req = QueryRequest::Prq(op.issuer, op.range, tq);
        break;
      case OpKind::kPknn:
        req = QueryRequest::Pknn(op.issuer, op.qloc, kK, tq);
        break;
      case OpKind::kGrant:
        req = QueryRequest::AddPolicy(op.owner, op.peer, op.policy, tq);
        break;
      case OpKind::kRevoke:
        req = QueryRequest::RemovePolicy(op.owner, op.peer, tq);
        break;
      case OpKind::kRegister:
        req = QueryRequest::RegisterContinuous(op.issuer, op.range, tq);
        break;
      case OpKind::kCancel: {
        std::lock_guard<std::mutex> lock(ids_mu_);
        if (continuous_ids_.empty()) {
          rec->attempted++;
          rec->Fail("cancel with no registered continuous query");
          return;
        }
        req = QueryRequest::CancelContinuous(continuous_ids_.front());
        continuous_ids_.pop_front();
        break;
      }
    }
    const auto picked = Clock::now();
    QueryResponse r = stack_.service->Execute(req);
    const auto done = Clock::now();
    rec->attempted++;
    if (!r.ok()) {
      rec->Fail(r.status.ToString());
      return;
    }
    if (op.kind == OpKind::kRevoke && r.removed_policies == 0) {
      rec->Fail("revoke removed nothing");
      return;
    }
    if (op.kind == OpKind::kRegister) {
      std::lock_guard<std::mutex> lock(ids_mu_);
      continuous_ids_.push_back(r.continuous_id);
    }
    if (!measured) return;
    const double ms = MsSince(due, done);
    rec->busy_ms += MsSince(picked, done);
    const bool knn = op.kind == OpKind::kPknn;
    if (op.kind == OpKind::kPrq || knn) {
      (knn ? rec->pknn_ms : rec->prq_ms).push_back(ms);
      (knn ? rec->pknn_exec_ms : rec->prq_exec_ms).push_back(r.exec_ms);
      rec->counters[knn] += r.counters;
      rec->io[knn] += r.io;
      rec->queries[knn]++;
      if (!knn) {
        (r.trace.empty() ? rec->untraced_prq_exec_ms
                         : rec->traced_prq_exec_ms)
            .push_back(r.exec_ms);
      }
      if (!r.trace.empty()) {
        rec->fold.Add(r.trace, knn, r.exec_ms);
        rec->slow.push_back({r.exec_ms, std::move(r.trace)});
        if (rec->slow.size() > 2 * kSlowTraces) KeepSlowest(&rec->slow);
      }
    } else if (op.kind == OpKind::kGrant || op.kind == OpKind::kRevoke) {
      rec->policy_ms.push_back(ms);
      rec->reencodes.push_back(r.reencode);
    }
  }

  void Writer() {
    const std::string wal = stack_.engine_options.durability.path + ".wal";
    std::error_code ec;
    uint64_t wal_prev = fs::file_size(wal, ec);
    const double stream_per_window = kBatchPeriodS * in_.spec->replay_speed;
    const bool continuous = in_.spec->standing_queries > 0;
    for (size_t w = 0; w < in_.batches.size() && !stop_writer_.load(); ++w) {
      const double due_s = static_cast<double>(w + 1) * kBatchPeriodS;
      const auto due = At(start_, due_s);
      std::this_thread::sleep_until(due);
      const bool measured = due_s > kWarmupS && due_s <= kWarmupS + seconds_;
      const auto& batch = in_.batches[w];
      if (!batch.empty()) {
        const auto t0 = Clock::now();
        Status st = stack_.service->ApplyBatch(batch);
        const auto t1 = Clock::now();
        write_.attempted++;
        if (!st.ok()) {
          write_.Fail("ApplyBatch: " + st.ToString());
          return;
        }
        if (measured) {
          write_.update_ms.push_back(MsSince(due, t1));
          write_.apply_ms.push_back(MsSince(t0, t1));
        }
        // WAL growth between batches is the batch's own record: checkpoint
        // page images are appended and truncated inside one call.
        const uint64_t wal_now = fs::file_size(wal, ec);
        if (!ec) {
          write_.wal_growth_bytes += wal_now >= wal_prev ? wal_now - wal_prev
                                                         : wal_now;
          write_.wal_events += batch.size();
          wal_prev = wal_now;
        }
      }
      stream_clock_.store(kStreamStart +
                          static_cast<double>(w + 1) * stream_per_window);
      write_.acked_windows = w + 1;
      write_.backlog_max = std::max(
          write_.backlog_max, stack_.engine->delta_stats().buffered_records);
      if ((w + 1) % kCheckpointEvery == 0) {
        const auto t0 = Clock::now();
        Status st = stack_.engine->Checkpoint();
        write_.attempted++;
        if (!st.ok()) {
          write_.Fail("Checkpoint: " + st.ToString());
          return;
        }
        write_.checkpoint_ms.push_back(MsSince(t0, Clock::now()));
        wal_prev = fs::file_size(wal, ec);
      }
      if (continuous && (w + 1) % kAdvanceEvery == 0) {
        const auto t0 = Clock::now();
        Status st = stack_.service->AdvanceContinuous(stream_clock_.load());
        write_.attempted++;
        if (!st.ok()) {
          write_.Fail("AdvanceContinuous: " + st.ToString());
          return;
        }
        write_.continuous_events +=
            stack_.service->TakeContinuousEvents().size();
        if (measured) write_.advance_ms.push_back(MsSince(t0, Clock::now()));
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool generator_done_ = false;
  std::atomic<bool> stop_writer_{false};
  std::mutex ids_mu_;
  std::deque<ContinuousQueryId> continuous_ids_;
};

// ---------------------------------------------------------------------------
// Correctness gates
// ---------------------------------------------------------------------------

struct Verify {
  size_t prq_checked = 0, prq_mismatches = 0;
  size_t pknn_checked = 0, pknn_mismatches = 0;
  size_t recovery_checked = 0, recovery_mismatches = 0;
  std::vector<std::string> reports;

  bool ok() const {
    return prq_mismatches + pknn_mismatches + recovery_mismatches == 0 &&
           prq_checked == kVerifyQueries && pknn_checked == kVerifyQueries &&
           recovery_checked == kUsers;
  }
  void Report(const std::string& s) {
    if (reports.size() < 10) reports.push_back(s);
  }
};

std::string Describe(const Op& op, double tq) {
  std::ostringstream os;
  os << (op.kind == OpKind::kPrq ? "PRQ" : "PkNN") << " issuer=" << op.issuer
     << " tq=" << tq;
  if (op.kind == OpKind::kPrq) {
    os << " range=[" << op.range.lo.x << "," << op.range.lo.y << "]-["
       << op.range.hi.x << "," << op.range.hi.y << "]";
  } else {
    os << " qloc=(" << op.qloc.x << "," << op.qloc.y << ") k=" << kK;
  }
  return os.str();
}

/// Answers at the final clock vs the brute-force oracles over the mirror of
/// acknowledged states and the live (mutated) policy store. The oracle
/// scans run on all cores: the load has stopped.
void VerifyAnswers(const Inputs& in, Stack& s, const Dataset& mirror,
                   double tq, Verify* v) {
  const size_t n = in.verify.size();
  std::vector<QueryResponse> got(n);
  for (size_t i = 0; i < n; ++i) {
    const Op& op = in.verify[i];
    got[i] = s.service->Execute(
        op.kind == OpKind::kPrq
            ? QueryRequest::Prq(op.issuer, op.range, tq)
            : QueryRequest::Pknn(op.issuer, op.qloc, kK, tq));
  }
  std::vector<char> bad(n, 0);
  const PolicyStore& store = s.catalog->store();
  const RoleRegistry& roles = s.catalog->roles();
  const double td = in.params.time_domain;
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency());
       ++t) {
    workers.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) {
        const Op& op = in.verify[i];
        const QueryResponse& r = got[i];
        if (!r.ok()) {
          bad[i] = 1;
          continue;
        }
        if (op.kind == OpKind::kPrq) {
          bad[i] = r.ids != testing::BruteForcePrq(mirror, store, roles,
                                                   op.issuer, op.range, tq, td);
        } else {
          auto want = testing::BruteForcePknn(mirror, store, roles, op.issuer,
                                              op.qloc, kK, tq, td);
          bool same = want.size() == r.neighbors.size();
          for (size_t j = 0; same && j < want.size(); ++j) {
            same = std::abs(want[j].distance - r.neighbors[j].distance) <= 1e-6;
          }
          bad[i] = !same;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (size_t i = 0; i < n; ++i) {
    const bool prq = in.verify[i].kind == OpKind::kPrq;
    (prq ? v->prq_checked : v->pknn_checked)++;
    if (bad[i]) {
      (prq ? v->prq_mismatches : v->pknn_mismatches)++;
      v->Report("answer mismatch: " + Describe(in.verify[i], tq) +
                (got[i].ok() ? "" : " status=" + got[i].status.ToString()));
    }
  }
}

bool SameState(const MovingObject& a, const MovingObject& b) {
  return a.id == b.id && a.pos.x == b.pos.x && a.pos.y == b.pos.y &&
         a.vel.x == b.vel.x && a.vel.y == b.vel.y && a.tu == b.tu;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Flat name -> (value, unit) metric table, in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{";
    for (size_t i = 0; i < rows_.size(); ++i) {
      const double v = std::isfinite(rows_[i].value) ? rows_[i].value : 0.0;
      os << (i ? ",\n    " : "\n    ") << '"' << rows_[i].name
         << "\": {\"value\": " << v << ", \"unit\": \"" << rows_[i].unit
         << "\"}";
    }
    os << "\n  }";
    return os.str();
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string JsonNumbers(const std::vector<double>& v) {
  std::ostringstream os;
  os.precision(17);
  os << "[";
  for (size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  os << "]";
  return os.str();
}

std::string JsonStrings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + JsonString(v[i]);
  }
  return out + "]";
}

/// Peak resident set of this process so far, in MB.
double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

/// Mean microseconds to decompose the workload's PRQ windows into Z
/// intervals with the index's own options.
double ZDecompUsPerWindow(const Inputs& in) {
  const MovingIndexOptions idx = eval::IndexOptionsFor(in.params);
  const GridMapper grid(idx.space_side, idx.grid_bits);
  std::vector<Rect> windows;
  for (const Op& op : in.ops) {
    if (op.kind == OpKind::kPrq) windows.push_back(op.range);
  }
  size_t done = 0, sink = 0;
  const auto t0 = Clock::now();
  while (MsSince(t0, Clock::now()) < 100.0) {
    for (const Rect& w : windows) {
      sink += ZIntervalsForWindow(grid, w, idx.zrange).size();
    }
    done += windows.size();
  }
  const double us = MsSince(t0, Clock::now()) * 1e3;
  if (sink == 0) Die("empty Z decompositions");
  return Ratio(us, static_cast<double>(done));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  std::string out = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value != "0";
    } else if (flag == "--out") {
      a.out = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.seconds <= 0.0) Die("--seconds must be positive");
  return a;
}

[[noreturn]] void Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) Die("unknown workload '" + args.workload + "'");
  fs::create_directories(args.out);
  const std::string prefix = (fs::path(args.out) / spec->name).string();

  const auto began = Clock::now();
  auto log = [&](const char* phase) {
    std::fprintf(stderr, "[%s] %-9s done at %6.2f s, peak RSS %.0f MB\n",
                 spec->name, phase, MsSince(began, Clock::now()) / 1e3,
                 PeakRssMb());
  };
  Inputs in = MakeInputs(*spec, args.seed, args.seconds);
  log("inputs");

  // --- set-up: the catalog once, the engine several times; the last serves -
  Stack stack;
  const double catalog_s = SetUpCatalog(&in, &stack);
  std::vector<double> setups;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) {
      stack.ResetServing();
      RemoveDb(stack.engine_options.durability.path);
    }
    setups.push_back(catalog_s + SetUpServing(in, prefix + ".db" +
                                                      std::to_string(rep),
                                              args.trace, &stack));
  }
  log("setup");

  // --- load ----------------------------------------------------------------
  LoadRun run(in, &stack, args.seconds);
  run.RegisterStanding();
  run.Run();
  log("load");
  OpRecord ops;
  for (auto& d : run.dispatch_) ops.Merge(std::move(d));
  OpRecord cap;
  for (auto& c : run.capacity_) cap.Merge(std::move(c));
  const WriteRecord& wr = run.write_;

  // --- quiesced checks -----------------------------------------------------
  Dataset mirror = in.dataset;
  for (size_t w = 0; w < wr.acked_windows; ++w) {
    for (const UpdateEvent& ev : in.batches[w]) {
      mirror.objects[ev.state.id] = ev.state;
    }
  }
  const double final_tq = run.stream_clock_.load();
  Verify verify;
  VerifyAnswers(in, stack, mirror, final_tq, &verify);
  log("verify");

  size_t leaves = 0;
  for (size_t i = 0; i < stack.engine->num_shards(); ++i) {
    leaves += stack.engine->shard_tree(i).tree_stats().num_leaves;
  }
  const DurableDiskManager* store = stack.engine->durable_store();
  const size_t overlay_pages = store->dirty_page_count();
  const size_t live_pages = store->live_pages();
  const std::string db_path = stack.engine_options.durability.path;
  std::error_code ec;
  const uint64_t wal_bytes = fs::file_size(db_path + ".wal", ec);

  // --- crash and recovery --------------------------------------------------
  // Teardown without a checkpoint leaves the files exactly as a kill -9
  // would. Open() rewrites them (it re-checkpoints), so the crash image is
  // saved once and restored before each timed recovery.
  stack.service.reset();
  stack.engine.reset();  // checkpoint_on_close=false: same as kill -9.
  const std::string wal_path = db_path + ".wal";
  const std::string saved = db_path + ".crash";
  fs::copy_file(db_path, saved, fs::copy_options::overwrite_existing);
  fs::copy_file(wal_path, saved + ".wal", fs::copy_options::overwrite_existing);
  std::vector<double> recoveries;
  for (size_t rep = 0; rep < kRecoveryReps; ++rep) {
    RestoreDurably(saved, db_path);
    RestoreDurably(saved + ".wal", wal_path);
    const auto r0 = Clock::now();
    auto reopened = engine::ShardedPebEngine::Open(
        stack.engine_options, &stack.catalog->store(), &stack.catalog->roles(),
        stack.catalog->snapshot());
    recoveries.push_back(MsSince(r0, Clock::now()) / 1e3);
    if (!reopened.ok()) {
      verify.Report("Open failed: " + reopened.status().ToString());
      break;
    }
    if (rep + 1 == kRecoveryReps) {
      for (const MovingObject& want : mirror.objects) {
        verify.recovery_checked++;
        auto got = (*reopened)->GetObject(want.id);
        if (!got.ok() || !SameState(*got, want)) {
          verify.recovery_mismatches++;
          verify.Report("recovered state differs for user " +
                        std::to_string(want.id));
        }
      }
    }
    reopened->reset();
  }
  const double recovery_s = Median(recoveries);
  RemoveDb(db_path);
  RemoveDb(saved);
  log("recovery");

  // --- metrics -------------------------------------------------------------
  std::vector<double> policy_ms = ops.policy_ms;
  std::vector<double> reencode_ms, component, rekeyed;
  for (const ReencodeStats& r : ops.reencodes) {
    reencode_ms.push_back(r.seconds * 1e3);
    component.push_back(static_cast<double>(r.component_users));
    rekeyed.push_back(static_cast<double>(r.rekeyed));
  }
  const double window_s = MsSince(run.begin_.at, run.end_.at) / 1e3;
  const IoStats& io0 = run.begin_.io;
  const IoStats& io1 = run.end_.io;
  auto edge_delta = [&](const char* name) {
    return static_cast<double>(run.end_.counters.at(name) -
                               run.begin_.counters.at(name));
  };
  const double nq[2] = {static_cast<double>(ops.queries[0]),
                        static_cast<double>(ops.queries[1])};
  const double all_q = nq[0] + nq[1];

  Metrics m;
  // End to end.
  m.Set("setup_s", Median(setups), "s");
  m.Set("prq_p50_ms", Quantile(ops.prq_ms, 0.50), "ms");
  m.Set("prq_p99_ms", Quantile(ops.prq_ms, 0.99), "ms");
  m.Set("pknn_p50_ms", Quantile(ops.pknn_ms, 0.50), "ms");
  m.Set("pknn_p99_ms", Quantile(ops.pknn_ms, 0.99), "ms");
  m.Set("update_p50_ms", Quantile(wr.update_ms, 0.50), "ms");
  m.Set("update_p99_ms", Quantile(wr.update_ms, 0.99), "ms");
  m.Set("capacity_qps", Median(run.capacity_slice_qps_), "1/s");
  m.Set("recovery_s", recovery_s, "s");
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  m.Set("disk_bytes_per_user",
        static_cast<double>(live_pages * kPageSize + wal_bytes) / kUsers, "B");

  // Service front-end (bench-owned FIFO and dispatchers).
  m.Set("service.queue_wait_ms.p50", Quantile(ops.queue_ms, 0.50), "ms");
  m.Set("service.queue_wait_ms.p99", Quantile(ops.queue_ms, 0.99), "ms");
  m.Set("service.exec_ms.prq.p50", Quantile(ops.prq_exec_ms, 0.50), "ms");
  m.Set("service.exec_ms.pknn.p50", Quantile(ops.pknn_exec_ms, 0.50), "ms");
  m.Set("service.dispatch_busy_frac",
        Ratio(ops.busy_ms, 1e3 * args.seconds * kDispatchers), "ratio");
  m.Set("generator.lateness_ms.p99", Quantile(run.lateness_ms_, 0.99), "ms");
  // Engine fan-out and the PEB-tree / B+-tree scans (response counters).
  m.Set("engine.pknn.rounds_per_query",
        Ratio(static_cast<double>(ops.counters[1].rounds), nq[1]), "count");
  m.Set("engine.pknn.retirements_per_query",
        Ratio(edge_delta("engine.pknn.retirements"), nq[1]), "count");
  const char* kind_name[2] = {"prq", "pknn"};
  for (size_t k = 0; k < 2; ++k) {
    const QueryCounters& c = ops.counters[k];
    const std::string sfx = std::string(".") + kind_name[k];
    m.Set("peb.candidates_per_query" + sfx,
          Ratio(static_cast<double>(c.candidates_examined), nq[k]), "count");
    m.Set("peb.results_per_candidate" + sfx,
          Ratio(static_cast<double>(c.results),
                static_cast<double>(c.candidates_examined)),
          "ratio");
    m.Set("peb.probes_per_query" + sfx,
          Ratio(static_cast<double>(c.range_probes), nq[k]), "count");
    m.Set("btree.descents_per_query" + sfx,
          Ratio(static_cast<double>(c.seek_descents), nq[k]), "count");
    m.Set("btree.leaf_hops_per_query" + sfx,
          Ratio(static_cast<double>(c.leaf_hops), nq[k]), "count");
    m.Set("pool.fetches_per_query" + sfx,
          Ratio(static_cast<double>(ops.io[k].logical_fetches), nq[k]),
          "count");
    m.Set("pool.reads_per_query" + sfx,
          Ratio(static_cast<double>(ops.io[k].physical_reads), nq[k]),
          "count");
  }
  // Buffer pool, whole engine over the measured window.
  m.Set("pool.hit_ratio",
        Ratio(static_cast<double>(io1.cache_hits - io0.cache_hits),
              static_cast<double>(io1.logical_fetches - io0.logical_fetches)),
        "ratio");
  m.Set("pool.evictions_per_s",
        Ratio(static_cast<double>(io1.evictions - io0.evictions), window_s),
        "1/s");
  // Cost model (Eq. 7, uniform-data constants).
  CostModelInputs cm;
  cm.num_users = kUsers;
  cm.policies_per_user = static_cast<double>(in.params.policies_per_user);
  cm.grouping_factor = in.params.grouping_factor;
  cm.num_leaves = static_cast<double>(leaves);
  cm.space_side = in.params.space_side;
  const double predicted = CostModel(10.0, 0.3).EstimateIo(cm);
  m.Set("costmodel.prq_io_predicted", predicted, "count");
  m.Set("costmodel.prq_io_ratio",
        Ratio(Ratio(static_cast<double>(ops.io[0].physical_reads), nq[0]),
              predicted),
        "ratio");
  // Ingest, delta overlay and merges.
  m.Set("ingest.apply_ms.p50", Quantile(wr.apply_ms, 0.50), "ms");
  m.Set("ingest.apply_ms.p99", Quantile(wr.apply_ms, 0.99), "ms");
  m.Set("delta.backlog_max", static_cast<double>(wr.backlog_max), "count");
  m.Set("delta.probes_per_query",
        Ratio(edge_delta("engine.delta.probes"), all_q), "count");
  m.Set("delta.shadowed_frac",
        Ratio(edge_delta("engine.delta.shadowed"),
              edge_delta("engine.delta.probes")),
        "ratio");
  m.Set("merge.count",
        static_cast<double>(run.end_.delta.merges - run.begin_.delta.merges),
        "count");
  m.Set("merge.backpressure_count",
        static_cast<double>(run.end_.delta.backpressure_merges -
                            run.begin_.delta.backpressure_merges),
        "count");
  const telemetry::Histogram::Snapshot merge_hold =
      stack.registry->histogram("engine.merge.lock_hold_ms")->Snap();
  m.Set("merge.lock_hold_ms.mean", merge_hold.mean(), "ms");
  m.Set("merge.lock_hold_ms.max", merge_hold.max, "ms");
  // WAL, checkpoints, recovery.
  m.Set("wal.bytes_per_update",
        Ratio(static_cast<double>(wr.wal_growth_bytes),
              static_cast<double>(wr.wal_events)),
        "B");
  m.Set("checkpoint.ms.mean", Mean(wr.checkpoint_ms), "ms");
  m.Set("checkpoint.ms.max", Quantile(wr.checkpoint_ms, 1.0), "ms");
  m.Set("checkpoint.overlay_pages", static_cast<double>(overlay_pages),
        "count");
  m.Set("recovery.wal_bytes", static_cast<double>(wal_bytes), "B");
  // Policy lifecycle.
  m.Set("policy.mutation_ms.p50", Quantile(policy_ms, 0.50), "ms");
  m.Set("policy.reencode_ms.p50", Quantile(reencode_ms, 0.50), "ms");
  m.Set("policy.component_users.p50", Quantile(component, 0.50), "count");
  m.Set("policy.rekeyed.p50", Quantile(rekeyed, 0.50), "count");
  m.Set("policy.large_reencode_ms", run.large_reencode_ms_, "ms");
  m.Set("policy.large_component_users",
        static_cast<double>(run.large_component_users_), "count");
  // Continuous monitor.
  m.Set("continuous.updates_fed_per_s",
        Ratio(edge_delta("service.continuous.updates_fed"), window_s), "1/s");
  m.Set("continuous.events_per_s",
        Ratio(static_cast<double>(wr.continuous_events),
              MsSince(run.start_, run.drained_at_) / 1e3),
        "1/s");
  m.Set("continuous.advance_ms.p50", Quantile(wr.advance_ms, 0.50), "ms");

  if (args.trace) {
    const TraceFold& f = ops.fold;
    const size_t traced = f.traced[0] + f.traced[1];
    m.Set("engine.root_self_ms.prq",
          Ratio(f.root_self_ms[0], static_cast<double>(f.traced[0])), "ms");
    m.Set("engine.root_self_ms.pknn",
          Ratio(f.root_self_ms[1], static_cast<double>(f.traced[1])), "ms");
    m.Set("engine.shard_ms.prq",
          Ratio(f.shard_ms[0], static_cast<double>(f.shard_spans[0])), "ms");
    m.Set("engine.shard_ms.pknn",
          Ratio(f.shard_ms[1], static_cast<double>(f.shard_spans[1])), "ms");
    m.Set("engine.round_self_ms.pknn",
          Ratio(f.round_self_ms, static_cast<double>(f.round_spans)), "ms");
    m.Set("engine.shard_skew",
          Ratio(f.skew_sum, static_cast<double>(f.skew_n)), "ratio");
    m.Set("spatial.zdecomp_us_per_window", ZDecompUsPerWindow(in), "us");
    m.Set("trace.coverage", Ratio(f.coverage_sum, static_cast<double>(traced)),
          "ratio");
    const double traced_p50 = Quantile(ops.traced_prq_exec_ms, 0.5);
    const double untraced_p50 = Quantile(ops.untraced_prq_exec_ms, 0.5);
    m.Set("trace.overhead_pct", 100.0 * (Ratio(traced_p50, untraced_p50) - 1.0),
          "%");

    // Layer table and the slowest traces.
    std::ofstream layers(prefix + ".layers.txt");
    layers << "layer          spans  self_ms_total  self_ms_mean  "
              "share_of_traced_exec\n";
    auto row = [&](const char* name, double self, size_t n) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%-12s %7zu %14.3f %13.4f %21.3f\n", name,
                    n, self, Ratio(self, static_cast<double>(n)),
                    Ratio(self, f.exec_ms));
      layers << buf;
    };
    row("service", f.root_self_ms[0] + f.root_self_ms[1], traced);
    row("shard", f.shard_self_ms, f.shard_spans[0] + f.shard_spans[1]);
    row("round", f.round_self_ms, f.round_spans);
    for (size_t i = 0; i < ops.slow.size(); ++i) {
      char name[32];
      std::snprintf(name, sizeof name, ".trace%02zu.json", i);
      std::ofstream(prefix + name)
          << ops.slow[i].trace.ChromeJson();
    }
  }

  // --- validity ------------------------------------------------------------
  std::vector<std::string> invalid;
  const double arrivals_per_s =
      in.spec->query_rate + in.spec->mutation_rate +
      2 * in.spec->continuous_rate;
  if (static_cast<double>(run.backlog_at_end_) > 0.5 * arrivals_per_s) {
    invalid.push_back("dispatcher backlog " +
                      std::to_string(run.backlog_at_end_) +
                      " ops at the end of the window (limit: 0.5 s of "
                      "arrivals)");
  }
  const std::pair<const char*, size_t> tails[] = {
      {"prq", ops.prq_ms.size()},
      {"pknn", ops.pknn_ms.size()},
      {"update", wr.update_ms.size()},
      {"service.queue_wait", ops.queue_ms.size()},
      {"ingest.apply", wr.apply_ms.size()}};
  for (const auto& [name, n] : tails) {
    if (SamplesBeyond(n, 0.99) < 10) {
      invalid.push_back(std::string(name) + " p99 has " +
                        std::to_string(SamplesBeyond(n, 0.99)) +
                        " samples beyond it (need 10)");
    }
  }
  if (in.spec->mutation_rate > 0.0 &&
      SamplesBeyond(policy_ms.size(), 0.5) < 10) {
    invalid.push_back("policy p50 has too few samples");
  }

  Outcomes all;
  all.Add(ops);
  all.Add(cap);
  all.Add(wr);
  all.Add(run.large_);
  const bool correct = verify.ok() && all.failed == 0;

  std::ofstream out(prefix + ".json");
  out << "{\n  \"workload\": " << JsonString(spec->name)
      << ",\n  \"seed\": " << args.seed << ",\n  \"seconds\": " << args.seconds
      << ",\n  \"trace\": " << (args.trace ? 1 : 0)
      << ",\n  \"valid\": " << (invalid.empty() ? "true" : "false")
      << ",\n  \"invalid\": " << JsonStrings(invalid)
      << ",\n  \"correct\": " << (correct ? "true" : "false")
      << ",\n  \"attempted\": " << all.attempted
      << ",\n  \"failed\": " << all.failed
      << ",\n  \"errors\": " << JsonStrings(all.errors)
      << ",\n  \"verify\": {\"prq.checked\": " << verify.prq_checked
      << ", \"prq.mismatches\": " << verify.prq_mismatches
      << ", \"pknn.checked\": " << verify.pknn_checked
      << ", \"pknn.mismatches\": " << verify.pknn_mismatches
      << ", \"recovery.checked\": " << verify.recovery_checked
      << ", \"recovery.mismatches\": " << verify.recovery_mismatches
      << ", \"reports\": " << JsonStrings(verify.reports) << "}"
      << ",\n  \"samples\": {\"prq\": " << ops.prq_ms.size()
      << ", \"pknn\": " << ops.pknn_ms.size()
      << ", \"update\": " << wr.update_ms.size()
      << ", \"policy\": " << policy_ms.size()
      << ", \"checkpoint\": " << wr.checkpoint_ms.size()
      << ", \"setup\": " << setups.size() << "}"
      << ",\n  \"setup_s\": " << JsonNumbers(setups)
      << ",\n  \"recovery_s\": " << JsonNumbers(recoveries)
      << ",\n  \"metrics\": " << m.Json() << "\n}\n";
  out.close();
  if (!out) Die("cannot write " + prefix + ".json");

  for (const std::string& r : verify.reports) {
    std::fprintf(stderr, "[%s] VERIFY: %s\n", spec->name, r.c_str());
  }
  for (const std::string& e : all.errors) {
    std::fprintf(stderr, "[%s] FAILED OP: %s\n", spec->name, e.c_str());
  }
  for (const std::string& r : invalid) {
    std::fprintf(stderr, "[%s] INVALID: %s\n", spec->name, r.c_str());
  }
  // Every thread has been joined and the databases removed: exit without
  // freeing the multi-gigabyte heap (policy corpus, catalog) node by node,
  // which would take seconds.
  std::fflush(nullptr);
  std::_Exit(!correct ? 1 : !invalid.empty() ? 2 : 0);
}

}  // namespace
}  // namespace peb

int main(int argc, char** argv) { peb::Main(argc, argv); }
