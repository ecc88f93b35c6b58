#include "service/service.h"

#include <string>
#include <utility>

namespace peb {
namespace service {

namespace {

double MsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Stable instrument-name suffix per request kind.
const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRangeQuery:
      return "prq";
    case QueryKind::kKnnQuery:
      return "pknn";
    case QueryKind::kContinuousRegister:
      return "continuous_register";
    case QueryKind::kContinuousCancel:
      return "continuous_cancel";
    case QueryKind::kAddPolicy:
      return "add_policy";
    case QueryKind::kRemovePolicy:
      return "remove_policy";
    case QueryKind::kDefineRole:
      return "define_role";
    case QueryKind::kReencode:
      return "reencode";
  }
  return "unknown";
}

}  // namespace

MovingObjectService::MovingObjectService(PrivacyAwareIndex* index,
                                         PolicyCatalog* catalog,
                                         ServiceOptions options)
    : index_(index),
      engine_(dynamic_cast<engine::ShardedPebEngine*>(index)),
      catalog_(catalog),
      options_(options),
      monitor_(std::make_unique<ContinuousQueryMonitor>(
          index, &catalog->store(), &catalog->roles(), catalog->snapshot(),
          options.time_domain)),
      workers_(options.num_workers) {
  InitTelemetry();
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

void MovingObjectService::InitTelemetry() {
  const telemetry::TelemetryOptions& t = options_.telemetry;
  if (!t.enabled) return;
  registry_ = t.registry != nullptr ? t.registry
                                    : telemetry::MetricsRegistry::Default();
  submit_ms_ = registry_->histogram("service.submit_ms");
  queue_ms_ = registry_->histogram("service.queue_ms");
  exec_ms_ = registry_->histogram("service.exec_ms");
  for (size_t k = 0; k < kind_requests_.size(); ++k) {
    kind_requests_[k] = registry_->counter(
        std::string("service.requests.") +
        KindName(static_cast<QueryKind>(k)));
  }
  query_sheds_[0] = registry_->counter("service.shed.prq");
  query_sheds_[1] = registry_->counter("service.shed.pknn");
  queue_depth_ = registry_->gauge("service.queue_depth");
  continuous_fed_ = registry_->counter("service.continuous.updates_fed");
  continuous_events_ = registry_->counter("service.continuous.events");
  reencode_ms_ = registry_->histogram("service.reencode_ms");
  reencode_rekeys_ = registry_->counter("service.reencode.rekeys");
  trace_sample_every_.store(t.trace_sample_every, std::memory_order_relaxed);
  if (t.slow_log_capacity > 0) {
    slow_log_ =
        std::make_unique<telemetry::SlowQueryLog>(t.slow_log_capacity);
  }
}

bool MovingObjectService::ShouldTrace(const QueryRequest& request) {
  if (request.options.trace) return true;
  const size_t every = trace_sample_every_.load(std::memory_order_relaxed);
  if (every == 0) return false;
  return query_seq_.fetch_add(1, std::memory_order_relaxed) % every == 0;
}

void MovingObjectService::FinishRequest(const QueryRequest& request,
                                        const QueryResponse& response) {
  if (registry_ == nullptr) return;
  telemetry::Observe(queue_ms_, response.queue_ms);
  telemetry::Observe(exec_ms_, response.exec_ms);
  telemetry::Observe(submit_ms_, response.queue_ms + response.exec_ms);
  if (slow_log_ != nullptr &&
      response.exec_ms > options_.telemetry.slow_query_ms) {
    if (!response.trace.empty()) {
      slow_log_->Record(response.trace, response.exec_ms);
    } else {
      // Untraced slow query: synthesize a root-only trace from the
      // response's by-value stats so it still lands in the log.
      telemetry::TraceBuilder builder(KindName(request.kind));
      size_t root = builder.StartSpan("untraced");
      builder.AddStats(root, response.counters, response.io);
      builder.EndSpan(root);
      builder.set_epoch(response.epoch);
      telemetry::QueryTrace trace = builder.Finish();
      trace.total_ms = response.exec_ms;
      slow_log_->Record(trace, response.exec_ms);
    }
  }
}

std::vector<telemetry::SlowQueryLog::Entry> MovingObjectService::SlowQueries()
    const {
  if (slow_log_ == nullptr) return {};
  return slow_log_->Entries();
}

// ---------------------------------------------------------------------------
// Query path
// ---------------------------------------------------------------------------

QueryResponse MovingObjectService::Execute(const QueryRequest& request) {
  return ExecuteTimed(request, Clock::now());
}

std::future<QueryResponse> MovingObjectService::Submit(QueryRequest request) {
  auto submitted = Clock::now();
  auto promise = std::make_shared<std::promise<QueryResponse>>();
  std::future<QueryResponse> future = promise->get_future();
  if (workers_.num_threads() == 0) {
    // Inline mode: the future is ready on return.
    promise->set_value(ExecuteTimed(request, submitted));
    return future;
  }
  telemetry::GaugeAdd(queue_depth_, 1);
  workers_.Submit(
      [this, promise, submitted, request = std::move(request)]() mutable {
        telemetry::GaugeAdd(queue_depth_, -1);
        promise->set_value(ExecuteTimed(request, submitted));
      });
  return future;
}

std::vector<std::future<QueryResponse>> MovingObjectService::SubmitBatch(
    std::vector<QueryRequest> requests) {
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(requests.size());
  for (QueryRequest& request : requests) {
    futures.push_back(Submit(std::move(request)));
  }
  return futures;
}

QueryResponse MovingObjectService::ExecuteTimed(const QueryRequest& request,
                                                Clock::time_point submitted) {
  auto picked_up = Clock::now();
  QueryResponse response;
  response.kind = request.kind;
  response.queue_ms = MsBetween(submitted, picked_up);
  telemetry::Inc(kind_requests_[static_cast<size_t>(request.kind)]);

  // Admission control: a request that already overstayed its deadline in
  // the queue is shed instead of executed.
  if (request.options.deadline_ms > 0.0 &&
      response.queue_ms > request.options.deadline_ms) {
    response.status = Status::ResourceExhausted(
        "deadline exceeded before execution (queued " +
        std::to_string(response.queue_ms) + " ms)");
    if (registry_ != nullptr) {
      const size_t ki = static_cast<size_t>(request.kind);
      if (ki < query_sheds_.size()) {
        telemetry::Inc(query_sheds_[ki]);
      } else {
        // Non-query sheds are rare; resolve the counter on demand.
        registry_
            ->counter(std::string("service.shed.") + KindName(request.kind))
            ->Add(1);
      }
      telemetry::Observe(queue_ms_, response.queue_ms);
    }
    return response;
  }

  switch (request.kind) {
    case QueryKind::kRangeQuery:
      response = DoRange(request);
      break;
    case QueryKind::kKnnQuery:
      response = DoKnn(request);
      break;
    case QueryKind::kContinuousRegister:
      response = DoContinuousRegister(request);
      break;
    case QueryKind::kContinuousCancel:
      response = DoContinuousCancel(request);
      break;
    case QueryKind::kAddPolicy:
    case QueryKind::kRemovePolicy:
    case QueryKind::kDefineRole:
    case QueryKind::kReencode:
      response = DoPolicyLifecycle(request);
      break;
  }
  response.queue_ms = MsBetween(submitted, picked_up);
  response.exec_ms = MsBetween(picked_up, Clock::now());
  FinishRequest(request, response);
  return response;
}

QueryResponse MovingObjectService::DoRange(const QueryRequest& request) {
  QueryResponse response;
  response.kind = request.kind;
  // Stats are always gathered: the epoch must be pinned while the query
  // holds its lock (reading it afterwards could name an epoch published in
  // between), and the response carries the counters and I/O.
  QueryStats stats;
  std::unique_ptr<telemetry::TraceBuilder> tracer;
  size_t root = telemetry::TraceSpan::kNoParent;
  if (ShouldTrace(request)) {
    tracer = std::make_unique<telemetry::TraceBuilder>("prq");
    root = tracer->StartSpan("service prq");
    stats.trace = tracer.get();
    stats.trace_span = root;
  }

  // Queries share the index; single-tree mutations take it exclusive.
  Result<std::vector<UserId>> result = [&] {
    ReaderMutexLock lock(&index_mu_);
    return index_->RangeQueryWithStats(request.issuer, request.range,
                                       request.tq, &stats);
  }();

  if (result.ok()) {
    response.ids = std::move(*result);
  } else {
    response.status = result.status();
  }
  response.epoch = stats.epoch;
  response.counters = stats.counters;
  response.io = stats.io;
  if (tracer != nullptr) {
    tracer->AddStats(root, stats.counters, stats.io);
    tracer->EndSpan(root);
    tracer->set_epoch(stats.epoch);
    response.trace = tracer->Finish();
  }
  return response;
}

QueryResponse MovingObjectService::DoKnn(const QueryRequest& request) {
  QueryResponse response;
  response.kind = request.kind;
  QueryStats stats;  // Always gathered: see DoRange.
  std::unique_ptr<telemetry::TraceBuilder> tracer;
  size_t root = telemetry::TraceSpan::kNoParent;
  if (ShouldTrace(request)) {
    tracer = std::make_unique<telemetry::TraceBuilder>("pknn");
    root = tracer->StartSpan("service pknn");
    stats.trace = tracer.get();
    stats.trace_span = root;
  }

  Result<std::vector<Neighbor>> result = [&] {
    ReaderMutexLock lock(&index_mu_);
    return index_->KnnQueryWithStats(request.issuer, request.qloc, request.k,
                                     request.tq, &stats);
  }();

  if (result.ok()) {
    response.neighbors = std::move(*result);
  } else {
    response.status = result.status();
  }
  response.epoch = stats.epoch;
  response.counters = stats.counters;
  response.io = stats.io;
  if (tracer != nullptr) {
    tracer->AddStats(root, stats.counters, stats.io);
    tracer->EndSpan(root);
    tracer->set_epoch(stats.epoch);
    response.trace = tracer->Finish();
  }
  return response;
}

QueryResponse MovingObjectService::DoContinuousRegister(
    const QueryRequest& request) {
  QueryResponse response;
  response.kind = request.kind;
  QueryStats stats;  // Always gathered: see DoRange.

  // Lock order: continuous state first, then the index (the seeding PRQ).
  // The seed is a query, so the shared lock suffices — continuous_mu_
  // orders it against monitor feeds — and registration never stalls the
  // concurrent query plane.
  MutexLock continuous_lock(&continuous_mu_);
  ReaderMutexLock index_lock(&index_mu_);
  Result<ContinuousQueryId> id = monitor_->Register(
      request.issuer, request.range, request.tq, &stats);
  if (!id.ok()) {
    response.status = id.status();
    return response;
  }
  response.continuous_id = *id;
  if (auto initial = monitor_->ResultOf(*id); initial.ok()) {
    response.ids = std::move(*initial);
  }
  response.epoch = stats.epoch;
  response.counters = stats.counters;
  response.io = stats.io;
  return response;
}

QueryResponse MovingObjectService::DoContinuousCancel(
    const QueryRequest& request) {
  QueryResponse response;
  response.kind = request.kind;
  MutexLock continuous_lock(&continuous_mu_);
  response.status = monitor_->Unregister(request.continuous_id);
  // Cancellation touches no index keys; the current epoch suffices.
  response.epoch = index_->encoding_epoch();
  return response;
}

// ---------------------------------------------------------------------------
// Policy lifecycle
// ---------------------------------------------------------------------------

Status MovingObjectService::MutateExclusive(
    const std::function<Status()>& fn) {
  // The live PolicyStore/RoleRegistry are read by query verification, so a
  // mutation must exclude queries: through the engine's state lock when
  // fronting an engine, else through the service's own index lock (every
  // query holds it shared, so exclusive here excludes them).
  if (engine_ != nullptr) return engine_->RunExclusive(fn);
  WriterMutexLock lock(&index_mu_);
  return fn();
}

Status MovingObjectService::ReencodeAndAdopt(Timestamp now,
                                             ReencodeStats* stats) {
  const auto started = Clock::now();
  PEB_ASSIGN_OR_RETURN(ReencodeResult result, catalog_->Reencode());
  *stats = result.stats;
  // Adopt on the index: the engine swaps all shards and re-keys under one
  // exclusive section; single-tree indexes are serialized here. The
  // catalog has already published the epoch, so an adoption failure must
  // not strand the index at mismatched keys: retry in self-sufficient
  // diff-all mode (which re-establishes key consistency from any partial
  // state), then surface the original error — a later re-encode of the
  // now-clean catalog would carry an empty re-key list and never repair.
  auto adopt = [&](const std::vector<UserId>* rekey) {
    if (engine_ != nullptr) {
      return engine_->AdoptSnapshot(result.snapshot, rekey);
    }
    WriterMutexLock lock(&index_mu_);
    return index_->AdoptSnapshot(result.snapshot, rekey);
  };
  Status adopted = adopt(&result.rekeyed);
  if (!adopted.ok()) {
    (void)adopt(nullptr);
    return adopted;
  }
  // Standing queries reconcile against the new epoch. Same locking shape
  // as AdvanceContinuous (the caller already holds continuous_mu_): the
  // monitor re-reads object states through the index.
  {
    ReaderMutexLock index_lock(&index_mu_);
    PEB_RETURN_NOT_OK(monitor_->AdoptSnapshot(result.snapshot, now));
  }
  telemetry::Inc(reencode_rekeys_, result.rekeyed.size());
  telemetry::Observe(reencode_ms_, MsBetween(started, Clock::now()));
  return Status::OK();
}

QueryResponse MovingObjectService::DoPolicyLifecycle(
    const QueryRequest& request) {
  QueryResponse response;
  response.kind = request.kind;

  // Lock order (as for continuous registration): continuous state first,
  // then the index. Serializes lifecycle requests against each other and
  // against monitor feeds; queries keep flowing until the brief exclusive
  // sections inside.
  MutexLock continuous_lock(&continuous_mu_);

  bool run_reencode = false;
  switch (request.kind) {
    case QueryKind::kAddPolicy:
      response.status = MutateExclusive([&] {
        return catalog_->AddPolicy(request.owner, request.peer,
                                   request.policy);
      });
      run_reencode = response.ok() && request.reencode_now;
      break;
    case QueryKind::kRemovePolicy: {
      Result<size_t> removed{size_t{0}};
      response.status = MutateExclusive([&] {
        removed = catalog_->RemovePolicies(request.owner, request.peer);
        return removed.status();
      });
      if (response.ok()) {
        response.removed_policies = *removed;
        run_reencode = request.reencode_now;
      }
      break;
    }
    case QueryKind::kDefineRole:
      // Registering a role name touches tables verification never reads,
      // but stay uniform: all catalog writes run excluded.
      response.status = MutateExclusive([&] {
        response.role_id = catalog_->DefineRole(request.role_name);
        return Status::OK();
      });
      break;
    case QueryKind::kReencode:
      run_reencode = true;
      break;
    default:
      response.status = Status::Internal("non-lifecycle kind");
      break;
  }

  if (response.ok() && run_reencode) {
    response.status = ReencodeAndAdopt(request.tq, &response.reencode);
  }
  response.epoch = catalog_->epoch();
  return response;
}

// ---------------------------------------------------------------------------
// Update path
// ---------------------------------------------------------------------------

Status MovingObjectService::ApplyUpdate(const MovingObject& state,
                                        Timestamp now) {
  if (engine_ != nullptr) {
    // The engine's own state lock makes the update atomic vs queries.
    PEB_RETURN_NOT_OK(engine_->Update(state));
  } else {
    WriterMutexLock lock(&index_mu_);
    PEB_RETURN_NOT_OK(index_->Update(state));
  }
  return NotifyUpdated(state, now);
}

Status MovingObjectService::ApplyBatch(
    const std::vector<UpdateEvent>& events) {
  if (engine_ != nullptr) {
    // Engine path: shard-parallel application, atomic vs queries.
    PEB_RETURN_NOT_OK(engine_->ApplyBatch(events));
  } else {
    WriterMutexLock lock(&index_mu_);
    for (const UpdateEvent& ev : events) {
      PEB_RETURN_NOT_OK(index_->Update(ev.state));
    }
  }
  FeedContinuous(events);
  return Status::OK();
}

Status MovingObjectService::NotifyUpdated(const MovingObject& state,
                                          Timestamp now) {
  MutexLock continuous_lock(&continuous_mu_);
  telemetry::Inc(continuous_fed_);
  return monitor_->OnUpdate(state, now);
}

void MovingObjectService::FeedContinuous(
    const std::vector<UpdateEvent>& events) {
  MutexLock continuous_lock(&continuous_mu_);
  telemetry::Inc(continuous_fed_, events.size());
  for (const UpdateEvent& ev : events) {
    // Events arrive in stream (global time) order regardless of how many
    // shards applied them — and, under delta ingestion, regardless of when
    // the engine later merges them into the trees: the monitor is fed from
    // the BATCH, synchronously with its application/publication, never from
    // a merge. continuous_mu_ serializes feeders, so the monotone stream
    // clock is asserted here and standing-query event streams are
    // identical on 1- and N-shard engines in both ingestion modes.
    assert(ev.t >= last_fed_t_ &&
           "continuous monitor fed out of stream order");
    last_fed_t_ = ev.t;
    (void)monitor_->OnUpdate(ev.state, ev.t);
  }
}

MovingObjectService::UpdateSession MovingObjectService::OpenUpdateSession(
    UpdateStream* stream, size_t batch_size) {
  UpdateSession session;
  session.service_ = this;
  session.stream_ = stream;
  session.batch_size_ = batch_size == 0 ? 1 : batch_size;
  return session;
}

Status MovingObjectService::UpdateSession::Apply(size_t count) {
  std::vector<UpdateEvent> batch;
  while (count > 0) {
    size_t n = count < batch_size_ ? count : batch_size_;
    batch.clear();
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) batch.push_back(stream_->Next());
    PEB_RETURN_NOT_OK(service_->ApplyBatch(batch));
    events_applied_ += n;
    batches_applied_++;
    last_event_time_ = batch.back().t;
    count -= n;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Continuous-query observers
// ---------------------------------------------------------------------------

Result<std::vector<UserId>> MovingObjectService::ContinuousResult(
    ContinuousQueryId id) const {
  MutexLock continuous_lock(&continuous_mu_);
  return monitor_->ResultOf(id);
}

std::vector<ContinuousQueryEvent> MovingObjectService::TakeContinuousEvents() {
  MutexLock continuous_lock(&continuous_mu_);
  std::vector<ContinuousQueryEvent> events = monitor_->TakeEvents();
  telemetry::Inc(continuous_events_, events.size());
  return events;
}

Status MovingObjectService::AdvanceContinuous(Timestamp now) {
  // Same locking shape as registration: shared index access suffices
  // (Advance only reads via GetObject).
  MutexLock continuous_lock(&continuous_mu_);
  ReaderMutexLock index_lock(&index_mu_);
  return monitor_->Advance(now);
}

size_t MovingObjectService::num_continuous_queries() const {
  MutexLock continuous_lock(&continuous_mu_);
  return monitor_->num_queries();
}

}  // namespace service
}  // namespace peb
