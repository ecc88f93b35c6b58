// Continuous privacy-aware range queries — the paper's future-work
// direction "extend other types of location-based queries to take into
// account peer-wise privacy concerns" (Section 8).
//
// A continuous PRQ keeps its answer set current while users move and
// while policy time windows open and close. The monitor exploits the
// defining property of peer-wise privacy queries: the answer can only ever
// contain the issuer's friends (users with a policy toward the issuer), so
// maintenance is O(affected queries) per update instead of a spatial
// re-evaluation:
//
//  * Register   — seeds the result with a one-shot PEB-tree PRQ.
//  * OnUpdate   — feed every index update through the monitor, in stream
//                 (global time) order; only the queries whose friend lists
//                 contain the updated user are re-checked. Feed updates
//                 when they are APPLIED-OR-PUBLISHED, not when a
//                 log-structured engine later merges them into its trees:
//                 the service layer feeds each batch synchronously with
//                 its publication and asserts the non-decreasing feed
//                 clock (MovingObjectService::FeedContinuous).
//  * Advance    — re-evaluates memberships at a later time (linear motion
//                 and time-of-day policy windows change answers even
//                 without updates).
//
// Membership transitions are reported as Events (entered/left).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bxtree/privacy_index.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "policy/policy_store.h"
#include "policy/role_registry.h"
#include "policy/sequence_value.h"

namespace peb {

/// Identifier of a registered continuous query.
using ContinuousQueryId = uint32_t;

/// A membership transition in some registered query's answer set.
struct ContinuousQueryEvent {
  ContinuousQueryId query = 0;
  UserId user = kInvalidUserId;
  bool entered = false;  ///< true: entered the result; false: left it.
  Timestamp t = 0;

  friend bool operator==(const ContinuousQueryEvent&,
                         const ContinuousQueryEvent&) = default;
};

/// Maintains the answer sets of continuous privacy-aware range queries on
/// top of ANY PrivacyAwareIndex — a single PEB-tree or the sharded engine
/// (queries seed through RangeQueryWithStats, membership re-evaluation
/// through GetObject, both part of the index interface). Single-threaded:
/// callers that feed it from several threads serialize externally — the
/// service layer's continuous_mu_ IS that serialization (the monitor
/// pointer is PT_GUARDED_BY it), which is why this class carries no lock
/// and no annotations of its own. The index, store, and roles must outlive
/// the monitor; it shares ownership of the encoding snapshot it keys by.
class ContinuousQueryMonitor {
 public:
  ContinuousQueryMonitor(PrivacyAwareIndex* index, const PolicyStore* store,
                         const RoleRegistry* roles,
                         std::shared_ptr<const EncodingSnapshot> snapshot,
                         double time_domain = kDefaultTimeDomain);

  /// Adopts a new encoding snapshot at time `now`: watcher lists are
  /// rebuilt from the new friend lists and every registered query's
  /// membership is re-evaluated — users who lost their policy toward an
  /// issuer leave the answer (events emitted), fresh grants can enter.
  /// Call after the index adopted the same snapshot, holding whatever lock
  /// serializes this monitor's feeds.
  Status AdoptSnapshot(std::shared_ptr<const EncodingSnapshot> snapshot,
                       Timestamp now);

  /// Registers a continuous PRQ and seeds its result via the index. When
  /// `stats` is non-null it receives the seeding query's counters and I/O
  /// delta (forwarded into the service layer's QueryResponse).
  Result<ContinuousQueryId> Register(UserId issuer, const Rect& range,
                                     Timestamp now,
                                     QueryStats* stats = nullptr);

  /// Removes a query. Fails with NotFound for unknown ids.
  Status Unregister(ContinuousQueryId id);

  /// Notifies the monitor that `state` was just applied to the tree.
  /// Re-evaluates exactly the queries that can be affected.
  Status OnUpdate(const MovingObject& state, Timestamp now);

  /// Re-evaluates every registered query at time `now` (motion and policy
  /// time windows shift answers even without updates).
  Status Advance(Timestamp now);

  /// Current answer of query `id`, sorted by user id.
  Result<std::vector<UserId>> ResultOf(ContinuousQueryId id) const;

  /// Drains and returns the accumulated membership events, in order.
  std::vector<ContinuousQueryEvent> TakeEvents();

  size_t num_queries() const { return queries_.size(); }

 private:
  struct RegisteredQuery {
    UserId issuer = kInvalidUserId;
    Rect range;
    std::unordered_set<UserId> members;
  };

  /// Definition-2 membership of `uid` (at `pos`) in query `q` at `now`.
  bool Qualifies(const RegisteredQuery& q, UserId uid, const Point& pos,
                 Timestamp now) const;

  /// Applies a membership decision, emitting an event on transition.
  void SetMembership(ContinuousQueryId id, RegisteredQuery& q, UserId uid,
                     bool in_result, Timestamp now);

  /// Re-evaluates every member/friend of query `q` at `now` through the
  /// index (the shared body of Advance and AdoptSnapshot).
  void ReevaluateQuery(ContinuousQueryId id, RegisteredQuery& q,
                       Timestamp now);

  PrivacyAwareIndex* index_;
  const PolicyStore* store_;
  const RoleRegistry* roles_;
  std::shared_ptr<const EncodingSnapshot> snapshot_;
  double time_domain_;

  ContinuousQueryId next_id_ = 1;
  std::unordered_map<ContinuousQueryId, RegisteredQuery> queries_;
  /// uid -> queries whose friend list contains uid.
  std::unordered_map<UserId, std::vector<ContinuousQueryId>> watchers_;
  std::vector<ContinuousQueryEvent> events_;
};

}  // namespace peb
