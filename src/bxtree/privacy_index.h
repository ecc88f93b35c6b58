// The common interface of the two privacy-aware query processors compared
// in the paper: the PEB-tree (Section 5) and the spatial-index filtering
// approach (Section 4). The experiment harness drives both through this
// interface and reads I/O from the underlying buffer pool.
#pragma once

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "motion/moving_object.h"
#include "spatial/geometry.h"
#include "storage/buffer_pool.h"

namespace peb {

class EncodingSnapshot;  // policy/sequence_value.h

namespace telemetry {
class TraceBuilder;  // telemetry/trace.h
}

/// A kNN answer entry.
struct Neighbor {
  UserId uid = kInvalidUserId;
  double distance = 0.0;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// Per-query work counters (tree I/O is read from BufferPool::stats()).
struct QueryCounters {
  size_t candidates_examined = 0;  ///< Leaf entries inspected.
  size_t results = 0;              ///< Entries surviving verification.
  size_t range_probes = 0;         ///< 1-D key intervals searched.
  size_t rounds = 0;               ///< kNN enlargement rounds.
  size_t seek_descents = 0;        ///< Root descents spent positioning.
  size_t leaf_hops = 0;            ///< Sibling-link hops spent positioning.

  QueryCounters& operator+=(const QueryCounters& o) {
    candidates_examined += o.candidates_examined;
    results += o.results;
    range_probes += o.range_probes;
    rounds += o.rounds;
    seek_descents += o.seek_descents;
    leaf_hops += o.leaf_hops;
    return *this;
  }
};

/// Per-query observability carried out of a query by value: the query's
/// work counters plus its own buffer-pool traffic delta. ...WithStats entry
/// points fill one of these per call, and the service layer forwards it
/// inside every QueryResponse, so counts stay exact when queries overlap.
struct QueryStats {
  QueryCounters counters;
  IoStats io;
  /// The policy-encoding epoch this query executed against — pinned at
  /// admission, so a response always names one consistent (encoding,
  /// index-keys) version even while re-encodes run concurrently.
  uint64_t epoch = 0;
  /// Non-null when this query is traced: layers below open spans under the
  /// caller's span and attribute their counters/io deltas to them. Owned by
  /// the service layer (or whoever started the trace), never by the index.
  telemetry::TraceBuilder* trace = nullptr;
  /// The span the current layer should parent its spans under.
  size_t trace_span = static_cast<size_t>(-1);
};

// --- uniform request validation --------------------------------------------
// Every PrivacyAwareIndex rejects malformed requests with the SAME status
// codes (tests/service_test.cc holds all implementations to this):
//   * empty/inverted query rectangle -> InvalidArgument
//   * k == 0                         -> InvalidArgument
//   * unknown issuer                 -> NotFound

/// Empty or inverted (lo > hi on either axis) rectangles are invalid.
inline Status ValidateQueryRect(const Rect& range) {
  if (range.Empty()) {
    return Status::InvalidArgument("empty or inverted query rectangle");
  }
  return Status::OK();
}

/// k == 0 asks for nothing; uniformly rejected rather than answered.
inline Status ValidateQueryK(size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  return Status::OK();
}

/// The uniform unknown-issuer error. PEB-based indexes resolve the issuer
/// against the policy encoding; the filtering baseline (which has no
/// encoding) against its set of indexed users.
inline Status UnknownIssuerError(UserId issuer) {
  return Status::NotFound("issuer " + std::to_string(issuer) +
                          " is not known to this index");
}

/// A moving-object index answering privacy-aware queries.
///
/// Queries (RangeQueryWithStats, KnnQueryWithStats, GetObject) write no
/// shared index state — their counters travel in the caller's QueryStats —
/// so any number of them may run at once. Mutations (Insert, Update,
/// Delete, AdoptSnapshot) must exclude them, except on indexes that lock
/// internally (the sharded engine).
class PrivacyAwareIndex {
 public:
  virtual ~PrivacyAwareIndex() = default;

  /// Inserts a (new) user's state. Fails with AlreadyExists when present.
  virtual Status Insert(const MovingObject& object) = 0;

  /// Replaces the state of user `object.id` (delete + insert).
  virtual Status Update(const MovingObject& object) = 0;

  /// Removes user `id`. Fails with NotFound when absent.
  virtual Status Delete(UserId id) = 0;

  /// Number of indexed users.
  virtual size_t size() const = 0;

  /// Current stored state of user `id`; NotFound when not indexed. Standing
  /// structures (e.g. ContinuousQueryMonitor) re-evaluate memberships
  /// through this, which is what lets them run over any index.
  virtual Result<MovingObject> GetObject(UserId id) const = 0;

  /// Adopts a new policy-encoding snapshot, atomically with respect to
  /// queries: swaps the index's encoding and re-keys `rekey` (delete +
  /// insert at the new quantized SV). `rekey == nullptr` means "diff every
  /// hosted record against the new snapshot" — self-sufficient but O(n)
  /// key computations. Users in `rekey` that are not currently indexed are
  /// skipped. Thread-safe indexes (the sharded engine) take their internal
  /// exclusive lock; single-tree indexes rely on the caller (the service
  /// layer) for exclusion, like every other mutation.
  virtual Status AdoptSnapshot(std::shared_ptr<const EncodingSnapshot>,
                               const std::vector<UserId>* /*rekey*/) {
    return Status::NotSupported(
        "this index does not consume policy-encoding snapshots");
  }

  /// Epoch of the snapshot this index currently serves (0 for indexes that
  /// do not embed the encoding in their keys, until one is adopted).
  virtual uint64_t encoding_epoch() const { return 0; }

  /// PRQ (Definition 2) with per-query observability carried out by value:
  /// users inside `range` at time `tq` whose policies allow `issuer` to see
  /// them, sorted by user id. When `stats` is non-null it receives this
  /// query's own counters and buffer-pool traffic delta, exact even under
  /// concurrent submission (counters never live in shared index state).
  virtual Result<std::vector<UserId>> RangeQueryWithStats(
      UserId issuer, const Rect& range, Timestamp tq, QueryStats* stats) = 0;

  /// PkNN (Definition 3) with per-query observability: the k nearest users
  /// to `qloc` at `tq` among those whose policies allow `issuer`. Sorted by
  /// ascending distance; fewer than k entries when fewer qualify.
  virtual Result<std::vector<Neighbor>> KnnQueryWithStats(
      UserId issuer, const Point& qloc, size_t k, Timestamp tq,
      QueryStats* stats) = 0;

  /// Convenience PRQ for callers that do not need observability.
  Result<std::vector<UserId>> RangeQuery(UserId issuer, const Rect& range,
                                         Timestamp tq) {
    return RangeQueryWithStats(issuer, range, tq, nullptr);
  }

  /// Convenience PkNN for callers that do not need observability.
  Result<std::vector<Neighbor>> KnnQuery(UserId issuer, const Point& qloc,
                                         size_t k, Timestamp tq) {
    return KnnQueryWithStats(issuer, qloc, k, tq, nullptr);
  }

  /// The buffer pool serving this index (for I/O accounting). Indexes
  /// spanning several pools (e.g. a sharded engine) return a representative
  /// pool; use aggregate_io() for totals.
  virtual BufferPool* pool() = 0;

  /// Cumulative I/O totals across every buffer pool serving this index.
  /// For single-pool indexes this is pool()->stats(); a sharded engine sums
  /// its per-shard pools so benchmark numbers stay comparable to the
  /// paper's single-tree figures.
  virtual IoStats aggregate_io() const = 0;

  /// Zeroes the traffic counters of every pool serving this index. For
  /// separating experiment phases (build vs query); per-query accounting
  /// uses the IoStats delta carried in QueryStats/QueryResponse instead,
  /// which stays exact when queries overlap.
  virtual void ResetIo() = 0;
};

}  // namespace peb
