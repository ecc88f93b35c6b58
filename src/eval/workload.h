// Experiment workloads following Table 1 (Section 7.1). A Workload bundles
// the dataset, the policy corpus, the policy encoding, and the two
// competitors — the PEB-tree and the Bx-tree+filtering baseline — each on
// its own disk and 50-page LRU buffer pool, mirroring the paper's setup.
#pragma once

#include <memory>
#include <vector>

#include "bxtree/filtering_index.h"
#include "bxtree/privacy_index.h"
#include "common/status.h"
#include "engine/sharded_engine.h"
#include "motion/moving_object.h"
#include "motion/network_generator.h"
#include "motion/update_stream.h"
#include "peb/peb_tree.h"
#include "policy/policy_catalog.h"
#include "policy/policy_generator.h"
#include "policy/sequence_value.h"
#include "service/service.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace peb {
namespace eval {

/// Spatial distribution of the synthetic users.
enum class Distribution { kUniform, kNetwork };

/// All Table-1 knobs (defaults are the paper's bold defaults).
struct WorkloadParams {
  size_t num_users = 60000;
  size_t policies_per_user = 50;
  double grouping_factor = 0.7;
  double space_side = 1000.0;
  double max_speed = 3.0;
  Distribution distribution = Distribution::kUniform;
  size_t num_hubs = 100;          ///< Network data only.
  double delta_t_mu = 120.0;      ///< Maximum update interval [13].
  uint32_t partitions_n = 2;      ///< Bx-tree sub-partitions [13].
  size_t buffer_pages = 50;       ///< "a 50-page LRU buffer is simulated".
  uint32_t grid_bits = 10;
  uint32_t sv_bits = 26;
  double sv_scale = 64.0;         ///< Fixed-point steps per SV unit.
  size_t max_z_intervals = 32;    ///< Window decomposition cap.
  double time_domain = kDefaultTimeDomain;
  PrqStrategy prq_strategy = PrqStrategy::kPerFriendIntervals;
  KnnOrder knn_order = KnnOrder::kTriangular;
  SequenceStrategy sequence_strategy = SequenceStrategy::kGroupOrder;
  uint64_t seed = 1;
};

/// The MovingIndexOptions implied by Table-1 params (shared by every index
/// a workload hosts, including engine shards).
MovingIndexOptions IndexOptionsFor(const WorkloadParams& params);

/// The PEB-tree configuration implied by Table-1 params. Workload::Build
/// and MakeEngine both use this, so the single tree and every engine shard
/// index identically.
PebTreeOptions PebOptionsFor(const WorkloadParams& params);

/// A built experiment: data + policies + encoding + both indexes, loaded.
class Workload {
 public:
  /// Generates everything and bulk-loads both indexes. `now()` afterwards
  /// is delta_t_mu: the initial population's update times are staggered
  /// over [0, delta_t_mu), so objects span the index time partitions.
  static Workload Build(const WorkloadParams& params);

  const WorkloadParams& params() const { return params_; }
  Timestamp now() const { return now_; }
  const Dataset& dataset() const { return dataset_; }

  /// The policy lifecycle owner: live store + roles + current snapshot.
  /// Mutations (catalog()->AddPolicy / service policy requests) must not
  /// run concurrently with queries on indexes the mutating service does
  /// not front — the service only excludes queries on its own index.
  PolicyCatalog* catalog() { return catalog_.get(); }
  const PolicyCatalog& catalog() const { return *catalog_; }

  const PolicyStore& store() const { return catalog_->store(); }
  const RoleRegistry& roles() const { return catalog_->roles(); }
  /// The CURRENT encoding snapshot — valid until the next re-encode.
  const EncodingSnapshot& encoding() const { return catalog_->current(); }

  PebTree& peb() { return *peb_; }
  FilteringIndex& spatial() { return *spatial_; }

  /// Request/response services over the two competitors — the query
  /// surface every bench, tool, and measurement harness drives. Built in
  /// inline mode (no worker threads) so measurement stays deterministic.
  service::MovingObjectService& peb_service() { return *peb_service_; }
  service::MovingObjectService& spatial_service() {
    return *spatial_service_;
  }

  /// Wall-clock seconds spent in policy encoding (Figure 11's metric).
  double preprocessing_seconds() const { return preprocessing_seconds_; }

  /// Applies the next `count` updates from the update stream to the
  /// dataset snapshot and both indexes, advancing now() to the last update
  /// time. Used by the Figure-18 experiment.
  Status ApplyUpdates(size_t count);

  /// Applies a single update and returns it, for callers that mirror
  /// updates into secondary structures (e.g. ContinuousQueryMonitor).
  Result<UpdateEvent> ApplyNextUpdate();

  /// Brings BOTH hosted indexes to the catalog's current snapshot (each
  /// diffs its hosted records and re-keys the moved ones). For drivers —
  /// like peb_shell — that mutate the catalog through one service but keep
  /// the sibling index queryable. Single-threaded callers only.
  Status SyncIndexesToCatalog();

 private:
  Workload() = default;

  WorkloadParams params_;
  Timestamp now_ = 0.0;
  Dataset dataset_;
  std::unique_ptr<NetworkWorkload> network_;  // Network distribution only.
  std::unique_ptr<PolicyCatalog> catalog_;
  double preprocessing_seconds_ = 0.0;

  std::unique_ptr<InMemoryDiskManager> peb_disk_;
  std::unique_ptr<BufferPool> peb_pool_;
  std::unique_ptr<PebTree> peb_;

  std::unique_ptr<InMemoryDiskManager> spatial_disk_;
  std::unique_ptr<BufferPool> spatial_pool_;
  std::unique_ptr<FilteringIndex> spatial_;

  std::unique_ptr<service::MovingObjectService> peb_service_;
  std::unique_ptr<service::MovingObjectService> spatial_service_;

  std::unique_ptr<UpdateStream> updates_;
};

/// Builds a ShardedPebEngine over `workload`'s policies/encoding with the
/// same per-shard tree configuration as its single PEB-tree, and loads the
/// workload's current dataset into it. Every shard tree lives on one
/// shared sharded-clock pool whose budget is exactly the workload's
/// buffer_pages, so engine I/O is directly comparable to the single tree.
std::unique_ptr<engine::ShardedPebEngine> MakeEngine(
    const Workload& workload, size_t num_shards, size_t num_threads,
    telemetry::TelemetryOptions telemetry = {});

/// A deterministic clone of the workload's update stream (same dataset
/// snapshot, same seed), for feeding an update session the exact event
/// sequence Workload::ApplyUpdates will consume. Uniform distribution only
/// (returns nullptr otherwise), and the clone matches only when taken
/// before any ApplyUpdates call on the workload.
std::unique_ptr<UpdateStream> CloneUniformUpdateStream(
    const Workload& workload);

}  // namespace eval
}  // namespace peb
