// The Bx-tree (Jensen, Lin, Ooi [13]): B+-tree-based moving object index.
//
// Objects are mapped to 1-D values by concatenating the time-partition
// number with the Z-curve value of the object's position as of its label
// timestamp (bx_key.h). Range queries enlarge the window per partition to
// compensate for the time difference between the query time and the label
// timestamp (Figure 2), then scan the Z-value intervals of the enlarged
// window. kNN queries iteratively enlarge a range query until k neighbors
// are confirmed within the inscribed circle (Section 2.1 / 5.4).
//
// This is both (a) the privacy-unaware spatial index underlying the
// filtering baseline of Section 4, and (b) the base structure the PEB-tree
// extends with policy sequence values.
#pragma once

#include <unordered_map>
#include <vector>

#include "btree/btree.h"
#include "btree/btree_traits.h"
#include "bxtree/bx_key.h"
#include "bxtree/privacy_index.h"
#include "common/result.h"
#include "common/status.h"
#include "motion/moving_object.h"
#include "spatial/zcurve.h"
#include "spatial/zrange.h"
#include "storage/buffer_pool.h"

namespace peb {

/// Configuration shared by the Bx-tree and (extended) by the PEB-tree.
struct MovingIndexOptions {
  double space_side = 1000.0;
  uint32_t grid_bits = 10;  ///< Z-curve grid resolution per dimension.
  TimePartitionLayout partitions;
  /// Per-axis speed bound used for query-window enlargement. Must
  /// dominate every indexed object's |vx|, |vy|.
  double max_speed = 3.0;
  /// Optional cap on Z intervals per window (0 = exact decomposition).
  /// Indexes default to a small coalescing gap: merging near-adjacent Z
  /// intervals scans a few extra cells (discarded by query refinement, so
  /// answers are unchanged) but saves one key-range probe per merge.
  ZRangeOptions zrange{.max_intervals = 0, .coalesce_gap = 3};
  /// Run the deep structural validators (ValidateInvariants) inside every
  /// exclusive batch section — ApplyBatch, LoadDataset, AdoptSnapshot —
  /// so a corrupting batch is rejected before any query can observe it.
  /// Costs a full tree walk per batch (see README "Correctness tooling");
  /// off by default, on in the randomized-churn invariant tests.
  bool paranoid_checks = false;
};

/// A candidate produced by the spatial search (pre-verification state).
struct SpatialCandidate {
  UserId uid = kInvalidUserId;
  Point pos;  ///< Position extrapolated to the query time.
  MovingObject state;
};

/// The Bx-tree. Answers plain (privacy-unaware) range and kNN queries; the
/// privacy-aware interface is provided by FilteringIndex on top.
class BxTree {
 public:
  BxTree(BufferPool* pool, const MovingIndexOptions& options);

  Status Insert(const MovingObject& object);
  Status Update(const MovingObject& object);
  Status Delete(UserId id);

  size_t size() const { return objects_.size(); }
  const MovingIndexOptions& options() const { return options_; }
  const BTreeStats& tree_stats() const { return tree_.stats(); }
  BufferPool* pool() { return pool_; }
  const BufferPool* pool() const { return pool_; }
  const QueryCounters& last_query() const { return counters_; }

  /// Current stored state of a user (for tests / the object table role).
  Result<MovingObject> GetObject(UserId id) const;

  /// All users whose position at `tq` falls within `range`.
  Result<std::vector<SpatialCandidate>> RangeQuery(const Rect& range,
                                                   Timestamp tq);

  /// The k users nearest to `qloc` at `tq`. `accept` filters candidates
  /// (the filtering baseline passes the policy check here); pass nullptr
  /// for the privacy-unaware query. Keeps enlarging until k accepted
  /// candidates are confirmed, exactly as Section 4 requires.
  using AcceptFn = bool (*)(void* ctx, const SpatialCandidate&);
  Result<std::vector<Neighbor>> KnnQuery(const Point& qloc, size_t k,
                                         Timestamp tq,
                                         AcceptFn accept = nullptr,
                                         void* accept_ctx = nullptr);

  /// The Bx value (partition ⊕ zv) an object is indexed under.
  uint64_t KeyFor(const MovingObject& object) const;

  /// Estimated k-NN distance Dk (Section 5.4's equation, scaled to the
  /// space side), given the current population size.
  double EstimateKnnDistance(size_t k) const;

  /// Deep structural self-check: the B+-tree's own invariants, object-table
  /// ↔ tree-entry agreement (counts, every object reachable under its
  /// recomputed Bx key with a payload matching the stored state), and the
  /// per-label histogram. Returns Corruption naming the first violation.
  /// Cost: one full tree walk plus one point lookup per object.
  Status ValidateInvariants() const;

 private:
  struct StoredObject {
    MovingObject state;
    int64_t label_index = 0;
    uint64_t key = 0;  ///< Bx value (without the uid component).
  };

  /// Scans one 1-D interval of one partition, collecting entries whose
  /// extrapolated position at `tq` is inside `refine` (when non-null).
  /// `cursor` carries the scan position across the sorted probes of one
  /// query: one root descent plus sibling-link hops per batch of probes.
  Status ScanInterval(ObjectBTree::LeafCursor* cursor, uint32_t partition,
                      uint64_t zlo, uint64_t zhi, Timestamp tq,
                      const Rect* refine, std::vector<SpatialCandidate>* out);

  BufferPool* pool_;
  MovingIndexOptions options_;
  GridMapper grid_;
  BTree<ObjectTreeTraits> tree_;
  std::unordered_map<UserId, StoredObject> objects_;
  /// Live object count per label index; keys are the ≤ n+1 active labels.
  std::unordered_map<int64_t, size_t> label_counts_;
  QueryCounters counters_;

  friend class FilteringIndex;
};

}  // namespace peb
