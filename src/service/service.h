// MovingObjectService — the request/response front-end over any
// PrivacyAwareIndex.
//
// The ROADMAP's target is a system serving heavy traffic from millions of
// users; MOIST (Jiang et al.) drives its scalable moving-object indexer
// through a batched, parallel service front-end rather than one blocking
// virtual call per query. This facade is that layer:
//
//  * Execute(request)      — synchronous; safe from any thread.
//  * Submit(request)       — asynchronous, returns std::future<Response>;
//    SubmitBatch fans a request vector out on the service's own worker
//    pool (its own, NOT the engine's — engine workers must stay free for
//    shard fan-out, or a full service pool could deadlock waiting on
//    itself).
//  * OpenUpdateSession     — batched update ingestion through ApplyBatch,
//    feeding engine-wide continuous queries.
//  * Continuous queries    — registered through QueryRequests, maintained
//    by a ContinuousQueryMonitor lifted over the whole index (sharded
//    engine included), fed from the update path in stream order so event
//    streams are identical for any shard count.
//  * Policy lifecycle      — the service fronts a PolicyCatalog and
//    accepts AddPolicy/RemovePolicy/DefineRole/Reencode requests:
//    mutations run atomically with respect to queries (the engine's
//    exclusive state lock / the service index lock), the catalog derives
//    the next snapshot incrementally, the index re-keys only the users
//    whose quantized SV changed, and standing queries reconcile — all in
//    one request. Every response names the epoch it executed against.
//
// Every response carries its own counters and exact per-query IoStats
// delta by value (see query_request.h); the service never diffs global
// pool stats.
//
// Thread-safety: thread-safe. Queries run genuinely in parallel over every
// index — the sharded engine, a bare PebTree or a FilteringIndex — since no
// index's read path writes shared state. Single-tree mutations (updates,
// policy mutations, re-key adoption) exclude queries through the service's
// index lock; the engine orders its own. Continuous-query maintenance is
// serialized.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "bxtree/privacy_index.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/sharded_engine.h"
#include "engine/thread_pool.h"
#include "motion/update_stream.h"
#include "peb/continuous.h"
#include "policy/policy_catalog.h"
#include "service/query_request.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace peb {
namespace service {

struct ServiceOptions {
  /// Worker threads executing Submit/SubmitBatch requests. 0 executes each
  /// request inline at submission (the returned future is already ready) —
  /// deterministic mode for tests and measurement harnesses.
  size_t num_workers = 0;
  /// Time domain for continuous-query policy evaluation.
  double time_domain = kDefaultTimeDomain;
  /// Service instruments (latency histograms, per-kind query and shed
  /// counters, queue depth, continuous-monitor and re-encode metrics),
  /// trace sampling, and the slow-query log. metrics()->SnapshotJson() is
  /// the live-stats surface.
  telemetry::TelemetryOptions telemetry;
};

class MovingObjectService {
 public:
  /// Queries, continuous queries, AND online policy mutations, all against
  /// `catalog`'s live policy state. The index must have been built from one
  /// of the catalog's snapshots; both must outlive the service.
  ///
  /// A mutation re-keys THIS service's index only. Sibling indexes sharing
  /// the catalog (e.g. a workload's baseline) must re-sync afterwards via
  /// AdoptSnapshot(catalog->snapshot(), nullptr), and must not serve
  /// concurrent queries while the mutation runs — exclusion covers only
  /// the fronted index.
  MovingObjectService(PrivacyAwareIndex* index, PolicyCatalog* catalog,
                      ServiceOptions options = {});

  MovingObjectService(const MovingObjectService&) = delete;
  MovingObjectService& operator=(const MovingObjectService&) = delete;

  // --- queries --------------------------------------------------------------

  /// Executes `request` synchronously and returns its self-contained
  /// response. Never blocks on other queries.
  QueryResponse Execute(const QueryRequest& request);

  /// Enqueues `request` on the service worker pool; the future resolves to
  /// the same response Execute would produce, plus queue timing.
  std::future<QueryResponse> Submit(QueryRequest request);

  /// Submits every request and returns their futures in order.
  std::vector<std::future<QueryResponse>> SubmitBatch(
      std::vector<QueryRequest> requests);

  // --- updates --------------------------------------------------------------

  /// Applies one update and feeds continuous queries.
  Status ApplyUpdate(const MovingObject& state, Timestamp now);

  /// Applies a time-ordered batch atomically with respect to queries (the
  /// engine's batch path when available, else serialized one-by-one) and
  /// feeds continuous queries in stream order.
  Status ApplyBatch(const std::vector<UpdateEvent>& events);

  /// Notifies standing queries that `state` was applied to the index
  /// out-of-band (a caller that updates the index directly instead of
  /// through ApplyUpdate/ApplyBatch/update sessions). No index mutation.
  Status NotifyUpdated(const MovingObject& state, Timestamp now);

  /// A batched update-ingestion session over an UpdateStream: each batch
  /// goes through ApplyBatch, so it is applied atomically with respect to
  /// queries and fed to continuous queries in stream order.
  class UpdateSession {
   public:
    /// Applies `count` events in batches.
    Status Apply(size_t count);

    size_t events_applied() const { return events_applied_; }
    size_t batches_applied() const { return batches_applied_; }
    /// Timestamp of the most recently applied event (0 before any).
    Timestamp last_event_time() const { return last_event_time_; }

   private:
    friend class MovingObjectService;
    UpdateSession() = default;

    MovingObjectService* service_ = nullptr;
    UpdateStream* stream_ = nullptr;
    size_t batch_size_ = 1024;
    size_t events_applied_ = 0;
    size_t batches_applied_ = 0;
    Timestamp last_event_time_ = 0.0;
  };

  /// Opens an update session draining `stream` in batches of `batch_size`.
  /// The stream must outlive the session; one session at a time per stream.
  UpdateSession OpenUpdateSession(UpdateStream* stream,
                                  size_t batch_size = 1024);

  // --- continuous-query observers -------------------------------------------

  /// Current answer of a registered continuous query, sorted by user id.
  Result<std::vector<UserId>> ContinuousResult(ContinuousQueryId id) const;

  /// Drains the accumulated membership events, in order.
  std::vector<ContinuousQueryEvent> TakeContinuousEvents();

  /// Re-evaluates every continuous query at `now` (motion and policy time
  /// windows shift answers even without updates).
  Status AdvanceContinuous(Timestamp now);

  /// Number of registered continuous queries.
  size_t num_continuous_queries() const;

  // --- introspection --------------------------------------------------------

  PrivacyAwareIndex& index() { return *index_; }
  const PrivacyAwareIndex& index() const { return *index_; }
  /// Cumulative pool traffic of the underlying index (for totals; use the
  /// per-response IoStats for per-query accounting).
  IoStats aggregate_io() const { return index_->aggregate_io(); }
  size_t num_workers() const { return workers_.num_threads(); }

  // --- telemetry ------------------------------------------------------------

  /// The registry this service records into (null when telemetry is
  /// disabled). Snapshot with SnapshotJson() / PrometheusText().
  telemetry::MetricsRegistry* metrics() const { return registry_; }

  /// Snapshot of the slow-query log, oldest entry first (empty when the
  /// log is disabled).
  std::vector<telemetry::SlowQueryLog::Entry> SlowQueries() const;

  /// Live control over trace sampling: trace every Nth PRQ/PkNN request
  /// (0 disables sampling; RequestOptions::trace still forces a trace).
  void set_trace_sample_every(size_t every) {
    trace_sample_every_.store(every, std::memory_order_relaxed);
  }
  size_t trace_sample_every() const {
    return trace_sample_every_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Execute with submission timing (queue_ms = pickup - submitted).
  QueryResponse ExecuteTimed(const QueryRequest& request,
                             Clock::time_point submitted);

  QueryResponse DoRange(const QueryRequest& request);
  QueryResponse DoKnn(const QueryRequest& request);
  QueryResponse DoContinuousRegister(const QueryRequest& request);
  QueryResponse DoContinuousCancel(const QueryRequest& request);
  /// kAddPolicy / kRemovePolicy / kDefineRole / kReencode.
  QueryResponse DoPolicyLifecycle(const QueryRequest& request);

  /// Runs a live policy-state mutation atomically with respect to queries:
  /// through the engine's exclusive state lock when fronting an engine,
  /// else under the service's own index lock, held exclusive.
  Status MutateExclusive(const std::function<Status()>& fn);

  /// Re-encodes the catalog's dirty-set, adopts the snapshot on the index
  /// (re-keying only the changed users) and reconciles standing queries at
  /// `now`. Fills `stats`.
  Status ReencodeAndAdopt(Timestamp now, ReencodeStats* stats)
      REQUIRES(continuous_mu_);

  /// Feeds an applied batch to the continuous monitor in stream order
  /// (asserted non-decreasing event time; see last_fed_t_).
  void FeedContinuous(const std::vector<UpdateEvent>& events)
      EXCLUDES(continuous_mu_);

  /// Resolves every service instrument eagerly (a disconnected instrument
  /// then reads zero in snapshots instead of being silently absent).
  /// Called once from the constructor.
  void InitTelemetry();

  /// Whether this request should carry a span tree: forced per-request or
  /// caught by the sampling rate (every Nth PRQ/PkNN).
  bool ShouldTrace(const QueryRequest& request);

  /// Records latency histograms, the per-kind request counter, and the
  /// slow-query log for one finished request. Untraced slow queries get a
  /// synthesized root-only trace from the response's by-value stats.
  void FinishRequest(const QueryRequest& request, const QueryResponse& response);

  PrivacyAwareIndex* index_;
  /// Set when `index_` is a ShardedPebEngine: its mutations order
  /// themselves against queries, so they skip index_mu_ (the engine batch
  /// update path, RunExclusive, AdoptSnapshot).
  engine::ShardedPebEngine* engine_;
  /// The live policy state this service mutates and verifies against.
  PolicyCatalog* catalog_;
  ServiceOptions options_;

  /// Query/mutation coordination: every query holds it shared; mutations
  /// of an index without internal locking (a single tree) hold it
  /// exclusive. Lock order: continuous_mu_ first.
  mutable SharedMutex index_mu_ ACQUIRED_AFTER(continuous_mu_);

  /// Continuous-query state (the monitor is single-threaded by contract;
  /// this mutex IS its serialization). The pointer itself is set once at
  /// construction and never null; only the pointee is guarded.
  mutable Mutex continuous_mu_;
  std::unique_ptr<ContinuousQueryMonitor> monitor_ PT_GUARDED_BY(continuous_mu_);
  /// Stream clock of the last batch event fed to the monitor. FeedContinuous
  /// asserts it never goes backwards: update streams are globally
  /// time-ordered, and under delta ingestion the monitor is fed from the
  /// batch at publication time (never from the engine's later merges), so
  /// the feed order is the stream order in both ingestion modes.
  Timestamp last_fed_t_ GUARDED_BY(continuous_mu_) = 0;

  // --- telemetry state (null / zero when telemetry is disabled) -------------
  telemetry::MetricsRegistry* registry_ = nullptr;
  telemetry::Histogram* submit_ms_ = nullptr;  ///< Submit -> completion.
  telemetry::Histogram* queue_ms_ = nullptr;   ///< Submit -> pickup.
  telemetry::Histogram* exec_ms_ = nullptr;    ///< Pickup -> completion.
  /// service.requests.<kind>, indexed by QueryKind. All eight eager.
  std::array<telemetry::Counter*, 8> kind_requests_{};
  /// service.shed.<kind> for the two query kinds (eager). Sheds of other
  /// kinds resolve their counter lazily — they are rare by construction.
  std::array<telemetry::Counter*, 2> query_sheds_{};
  telemetry::Gauge* queue_depth_ = nullptr;
  /// Updates fed to the continuous monitor / membership events drained.
  telemetry::Counter* continuous_fed_ = nullptr;
  telemetry::Counter* continuous_events_ = nullptr;
  telemetry::Histogram* reencode_ms_ = nullptr;
  telemetry::Counter* reencode_rekeys_ = nullptr;

  std::atomic<size_t> trace_sample_every_{0};
  /// PRQ/PkNN admissions, for the every-Nth sampling decision.
  std::atomic<uint64_t> query_seq_{0};
  std::unique_ptr<telemetry::SlowQueryLog> slow_log_;

  engine::ThreadPool workers_;
};

}  // namespace service
}  // namespace peb
