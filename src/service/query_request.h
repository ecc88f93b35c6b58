// Request/response value types of the MovingObjectService front-end.
//
// A QueryRequest is a plain value describing one privacy-aware operation
// (PRQ, PkNN, continuous-query registration or cancellation, or a policy-
// lifecycle mutation) plus per-request options; a QueryResponse carries
// the answer AND the query's own observability — work counters, the exact
// buffer-pool traffic delta, and the policy-encoding epoch it executed
// against — BY VALUE. Nothing about a finished query lives in shared
// mutable index state, which is what lets the service fan thousands of
// requests out concurrently (MOIST-style batched front-ends).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bxtree/privacy_index.h"
#include "common/status.h"
#include "common/types.h"
#include "peb/continuous.h"
#include "policy/policy_catalog.h"
#include "spatial/geometry.h"
#include "telemetry/trace.h"

namespace peb {
namespace service {

/// The operation a QueryRequest describes.
enum class QueryKind : uint8_t {
  kRangeQuery = 0,          ///< PRQ (Definition 2).
  kKnnQuery = 1,            ///< PkNN (Definition 3).
  kContinuousRegister = 2,  ///< Register a standing PRQ.
  kContinuousCancel = 3,    ///< Cancel a standing PRQ.
  kAddPolicy = 4,           ///< Grant: owner defines a policy for peer.
  kRemovePolicy = 5,        ///< Revoke: drop all owner->peer policies.
  kDefineRole = 6,          ///< Register (or find) a role by name.
  kReencode = 7,            ///< Flush the dirty-set: re-encode + re-key.
};

/// Per-request execution options.
struct RequestOptions {
  /// Soft deadline in milliseconds measured from submission (0 = none).
  /// A request that has already waited past its deadline when a worker
  /// picks it up is answered with ResourceExhausted instead of executing —
  /// the admission-control hook for overload shedding.
  double deadline_ms = 0.0;
  /// Force a trace for this request regardless of the service's sampling
  /// rate. The finished span tree comes back in QueryResponse::trace.
  bool trace = false;
};

/// One privacy-aware operation, as a value. Build with the factories.
struct QueryRequest {
  QueryKind kind = QueryKind::kRangeQuery;
  UserId issuer = kInvalidUserId;
  Rect range;     ///< PRQ / continuous-register window.
  Point qloc;     ///< PkNN query location.
  size_t k = 0;   ///< PkNN result size.
  Timestamp tq = 0.0;  ///< Query (or registration / mutation) time.
  ContinuousQueryId continuous_id = 0;  ///< Continuous-cancel target.
  // --- policy-lifecycle fields ---
  UserId owner = kInvalidUserId;  ///< Policy owner (the protected user).
  UserId peer = kInvalidUserId;   ///< The user the policy is defined for.
  Lpp policy;                     ///< AddPolicy payload.
  std::string role_name;          ///< DefineRole payload.
  /// Mutations: re-encode + re-key + publish the new epoch as part of this
  /// request (one atomic lifecycle step). Off accumulates the dirty-set
  /// for a later kReencode — cheaper under bursty churn, but grants stay
  /// invisible until then.
  bool reencode_now = true;
  RequestOptions options;

  /// PRQ: users inside `range` at `tq` visible to `issuer`.
  static QueryRequest Prq(UserId issuer, const Rect& range, Timestamp tq) {
    QueryRequest r;
    r.kind = QueryKind::kRangeQuery;
    r.issuer = issuer;
    r.range = range;
    r.tq = tq;
    return r;
  }

  /// PkNN: the k nearest users to `qloc` at `tq` visible to `issuer`.
  static QueryRequest Pknn(UserId issuer, const Point& qloc, size_t k,
                           Timestamp tq) {
    QueryRequest r;
    r.kind = QueryKind::kKnnQuery;
    r.issuer = issuer;
    r.qloc = qloc;
    r.k = k;
    r.tq = tq;
    return r;
  }

  /// Registers a standing PRQ; the response carries the assigned
  /// continuous_id and the seeded initial answer.
  static QueryRequest RegisterContinuous(UserId issuer, const Rect& range,
                                         Timestamp now) {
    QueryRequest r;
    r.kind = QueryKind::kContinuousRegister;
    r.issuer = issuer;
    r.range = range;
    r.tq = now;
    return r;
  }

  /// Cancels a standing PRQ by id.
  static QueryRequest CancelContinuous(ContinuousQueryId id) {
    QueryRequest r;
    r.kind = QueryKind::kContinuousCancel;
    r.continuous_id = id;
    return r;
  }

  /// Grants `policy` from `owner` toward `peer` at time `now` (and assigns
  /// the policy's role so the grant is satisfiable).
  static QueryRequest AddPolicy(UserId owner, UserId peer, const Lpp& policy,
                                Timestamp now, bool reencode_now = true) {
    QueryRequest r;
    r.kind = QueryKind::kAddPolicy;
    r.owner = owner;
    r.peer = peer;
    r.policy = policy;
    r.tq = now;
    r.reencode_now = reencode_now;
    return r;
  }

  /// Revokes every policy `owner` defined for `peer` at time `now`.
  static QueryRequest RemovePolicy(UserId owner, UserId peer, Timestamp now,
                                   bool reencode_now = true) {
    QueryRequest r;
    r.kind = QueryKind::kRemovePolicy;
    r.owner = owner;
    r.peer = peer;
    r.tq = now;
    r.reencode_now = reencode_now;
    return r;
  }

  /// Registers (or finds) a role by name; the response carries its id.
  static QueryRequest DefineRole(std::string name) {
    QueryRequest r;
    r.kind = QueryKind::kDefineRole;
    r.role_name = std::move(name);
    return r;
  }

  /// Flushes accumulated policy mutations: incremental re-encode, re-key,
  /// epoch publish, standing-query reconciliation at time `now`.
  static QueryRequest Reencode(Timestamp now) {
    QueryRequest r;
    r.kind = QueryKind::kReencode;
    r.tq = now;
    return r;
  }
};

/// The outcome of one QueryRequest, self-contained by value.
struct QueryResponse {
  Status status;
  QueryKind kind = QueryKind::kRangeQuery;

  /// PRQ answer (ascending user id); also the initial answer of a freshly
  /// registered continuous query.
  std::vector<UserId> ids;
  /// PkNN answer (ascending distance).
  std::vector<Neighbor> neighbors;
  /// Id of a freshly registered continuous query.
  ContinuousQueryId continuous_id = 0;

  /// The policy-encoding epoch this request executed against (queries pin
  /// it at admission; mutations report the epoch they published). Always
  /// filled.
  uint64_t epoch = 0;
  /// DefineRole answer.
  RoleId role_id = kInvalidRoleId;
  /// RemovePolicy answer: how many policies the revocation dropped.
  size_t removed_policies = 0;
  /// What the re-encode performed by this request did (kReencode, and
  /// mutations with reencode_now). Zero-epoch default otherwise.
  ReencodeStats reencode;

  /// THIS query's work counters — by value, exact under concurrent
  /// submission.
  QueryCounters counters;
  /// THIS query's buffer-pool traffic delta — by value, exact under
  /// concurrent submission.
  IoStats io;

  /// Milliseconds spent queued between Submit and execution start.
  double queue_ms = 0.0;
  /// Milliseconds spent executing.
  double exec_ms = 0.0;

  /// The request's span tree when it was traced (forced via
  /// RequestOptions::trace or caught by the service's sampling rate);
  /// empty() otherwise. By value, like everything else here.
  telemetry::QueryTrace trace;

  bool ok() const { return status.ok(); }
};

}  // namespace service
}  // namespace peb
