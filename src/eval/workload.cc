#include "eval/workload.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "motion/uniform_generator.h"

namespace peb {
namespace eval {

namespace {

/// Dies loudly on harness errors: experiment setup is not allowed to fail.
void CheckOk(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "workload %s failed: %s\n", what,
                 s.ToString().c_str());
    std::abort();
  }
}

/// Stream options shared by Workload::Build and CloneUniformUpdateStream —
/// one derivation, so the clone's event sequence provably matches.
UniformUpdateStreamOptions UniformStreamOptionsFor(
    const WorkloadParams& params) {
  UniformUpdateStreamOptions us;
  us.max_update_interval = params.delta_t_mu;
  us.seed = params.seed + 0xABCD;
  return us;
}

}  // namespace

MovingIndexOptions IndexOptionsFor(const WorkloadParams& params) {
  MovingIndexOptions idx;
  idx.space_side = params.space_side;
  idx.grid_bits = params.grid_bits;
  idx.partitions.delta_t_mu = params.delta_t_mu;
  idx.partitions.n = params.partitions_n;
  idx.max_speed = params.max_speed;
  idx.zrange.max_intervals = params.max_z_intervals;
  return idx;
}

PebTreeOptions PebOptionsFor(const WorkloadParams& params) {
  PebTreeOptions opts;
  opts.index = IndexOptionsFor(params);
  opts.sv_bits = params.sv_bits;
  opts.prq_strategy = params.prq_strategy;
  opts.knn_order = params.knn_order;
  opts.time_domain = params.time_domain;
  return opts;
}

Workload Workload::Build(const WorkloadParams& params) {
  Workload w;
  w.params_ = params;

  // --- data ---------------------------------------------------------------
  if (params.distribution == Distribution::kUniform) {
    UniformGeneratorOptions gen;
    gen.num_objects = params.num_users;
    gen.space_side = params.space_side;
    gen.max_speed = params.max_speed;
    gen.stagger_window = params.delta_t_mu;
    gen.seed = params.seed;
    w.dataset_ = GenerateUniformDataset(gen);
  } else {
    NetworkWorkloadOptions gen;
    gen.num_objects = params.num_users;
    gen.num_hubs = params.num_hubs;
    gen.space_side = params.space_side;
    gen.seed = params.seed;
    w.network_ = std::make_unique<NetworkWorkload>(gen);
    w.dataset_ = w.network_->initial_dataset();
  }

  // --- policies + encoding (the Figure-11 offline step) --------------------
  PolicyGeneratorOptions pg;
  pg.num_users = params.num_users;
  pg.policies_per_user = params.policies_per_user;
  pg.grouping_factor = params.grouping_factor;
  pg.space = Rect::Space(params.space_side);
  pg.time_domain = params.time_domain;
  pg.seed = params.seed + 0x9E37;
  GeneratedPolicies gen_policies = GeneratePolicies(pg);

  CatalogOptions cat;
  cat.num_users = params.num_users;
  cat.compat.space = Rect::Space(params.space_side);
  cat.compat.time_domain = params.time_domain;
  cat.sv_scale = params.sv_scale;
  cat.sv_bits = params.sv_bits;
  cat.strategy = params.sequence_strategy;
  w.catalog_ = std::make_unique<PolicyCatalog>(
      std::move(gen_policies.store), std::move(gen_policies.roles), cat);
  w.preprocessing_seconds_ = w.catalog_->build_seconds();

  // --- indexes -------------------------------------------------------------
  MovingIndexOptions idx = IndexOptionsFor(params);

  BufferPoolOptions pool_opts;
  pool_opts.capacity = params.buffer_pages;

  w.peb_disk_ = std::make_unique<InMemoryDiskManager>();
  w.peb_pool_ = std::make_unique<BufferPool>(w.peb_disk_.get(), pool_opts);
  PebTreeOptions peb_opts = PebOptionsFor(params);
  w.peb_ = std::make_unique<PebTree>(w.peb_pool_.get(), peb_opts,
                                     &w.catalog_->store(),
                                     &w.catalog_->roles(),
                                     w.catalog_->snapshot());

  w.spatial_disk_ = std::make_unique<InMemoryDiskManager>();
  w.spatial_pool_ =
      std::make_unique<BufferPool>(w.spatial_disk_.get(), pool_opts);
  w.spatial_ = std::make_unique<FilteringIndex>(w.spatial_pool_.get(), idx,
                                                &w.catalog_->store(),
                                                &w.catalog_->roles(),
                                                params.time_domain);
  // The baseline reports epochs too (its keys are encoding-free).
  CheckOk(w.spatial_->AdoptSnapshot(w.catalog_->snapshot(), nullptr),
          "spatial snapshot");

  // Request/response services over both competitors (inline execution so
  // measurement is deterministic; async callers build their own). Both are
  // catalog-backed, so policy-lifecycle requests work out of the box.
  service::ServiceOptions svc;
  svc.time_domain = params.time_domain;
  w.peb_service_ = std::make_unique<service::MovingObjectService>(
      w.peb_.get(), w.catalog_.get(), svc);
  w.spatial_service_ = std::make_unique<service::MovingObjectService>(
      w.spatial_.get(), w.catalog_.get(), svc);

  // --- load ----------------------------------------------------------------
  for (const MovingObject& o : w.dataset_.objects) {
    CheckOk(w.peb_->Insert(o), "peb insert");
    CheckOk(w.spatial_->Insert(o), "spatial insert");
  }

  // --- update stream -------------------------------------------------------
  if (params.distribution == Distribution::kUniform) {
    w.updates_ = std::make_unique<UniformUpdateStream>(
        w.dataset_, UniformStreamOptionsFor(params));
  } else {
    w.updates_ = std::make_unique<NetworkUpdateStream>(w.network_.get(),
                                                       params.delta_t_mu);
  }

  // Queries run as of one maximum update interval after the start, so the
  // staggered initial population is all still "fresh".
  w.now_ = params.delta_t_mu;
  return w;
}

Result<UpdateEvent> Workload::ApplyNextUpdate() {
  UpdateEvent ev = updates_->Next();
  PEB_RETURN_NOT_OK(peb_->Update(ev.state));
  PEB_RETURN_NOT_OK(spatial_->Update(ev.state));
  dataset_.objects[ev.state.id] = ev.state;
  if (ev.t > now_) now_ = ev.t;
  return ev;
}

Status Workload::ApplyUpdates(size_t count) {
  for (size_t i = 0; i < count; ++i) {
    PEB_RETURN_NOT_OK(ApplyNextUpdate().status());
  }
  return Status::OK();
}

Status Workload::SyncIndexesToCatalog() {
  auto snapshot = catalog_->snapshot();
  PEB_RETURN_NOT_OK(peb_->AdoptSnapshot(snapshot, /*rekey=*/nullptr));
  return spatial_->AdoptSnapshot(std::move(snapshot), /*rekey=*/nullptr);
}

std::unique_ptr<engine::ShardedPebEngine> MakeEngine(
    const Workload& workload, size_t num_shards, size_t num_threads,
    telemetry::TelemetryOptions telemetry) {
  const WorkloadParams& params = workload.params();
  engine::EngineOptions opts;
  opts.num_shards = num_shards;
  opts.num_threads = num_threads;
  opts.buffer_pages = params.buffer_pages;
  opts.tree = PebOptionsFor(params);
  opts.telemetry = telemetry;
  auto engine = std::make_unique<engine::ShardedPebEngine>(
      opts, &workload.store(), &workload.roles(),
      workload.catalog().snapshot());
  CheckOk(engine->LoadDataset(workload.dataset()), "engine load");
  return engine;
}

std::unique_ptr<UpdateStream> CloneUniformUpdateStream(
    const Workload& workload) {
  const WorkloadParams& params = workload.params();
  if (params.distribution != Distribution::kUniform) return nullptr;
  return std::make_unique<UniformUpdateStream>(
      workload.dataset(), UniformStreamOptionsFor(params));
}

}  // namespace eval
}  // namespace peb
