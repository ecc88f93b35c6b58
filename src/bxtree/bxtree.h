// The Bx-tree (Jensen, Lin, Ooi [13]): B+-tree-based moving object index.
//
// Objects are mapped to 1-D values by concatenating the time-partition
// number with the Z-curve value of the object's position as of its label
// timestamp (Eq. 1, bx_key.h). Range queries enlarge the window per
// partition to compensate for the time difference between the query time
// and the label timestamp (Figure 2), then scan the Z-value intervals of
// the enlarged window. kNN queries iteratively enlarge a range query until
// k neighbors are confirmed within the inscribed circle (Section 2.1 /
// 5.4).
//
// The tree itself — B+-tree, object table, label population, leaf codec,
// scan and validator — is the MovingObjectTree the PEB-tree also builds
// on; this class adds only the Eq. 1 key and the two spatial searches. It
// is the privacy-unaware spatial index underlying the filtering baseline
// of Section 4. Queries are const and count their work into a
// caller-owned QueryCounters, so any number may run at once between
// mutations.
#pragma once

#include <vector>

#include "bxtree/moving_object_tree.h"
#include "bxtree/privacy_index.h"
#include "common/result.h"
#include "common/status.h"
#include "motion/moving_object.h"
#include "storage/buffer_pool.h"

namespace peb {

/// The Bx-tree. Answers plain (privacy-unaware) range and kNN queries; the
/// privacy-aware interface is provided by FilteringIndex on top.
class BxTree {
 public:
  BxTree(BufferPool* pool, const MovingIndexOptions& options);

  Status Insert(const MovingObject& object);
  Status Update(const MovingObject& object);
  Status Delete(UserId id) { return tree_.Delete(id); }

  size_t size() const { return tree_.size(); }
  const MovingIndexOptions& options() const { return tree_.options(); }
  const BTreeStats& tree_stats() const { return tree_.stats(); }
  BufferPool* pool() const { return tree_.pool(); }

  /// Current stored state of a user (for tests / the object table role).
  Result<MovingObject> GetObject(UserId id) const { return tree_.Get(id); }

  /// All users whose position at `tq` falls within `range`. The query's
  /// work is counted into `counters` when given.
  Result<std::vector<SpatialCandidate>> RangeQuery(
      const Rect& range, Timestamp tq,
      QueryCounters* counters = nullptr) const;

  /// The k users nearest to `qloc` at `tq`. `accept` filters candidates
  /// (the filtering baseline passes the policy check here); pass nullptr
  /// for the privacy-unaware query. Keeps enlarging until k accepted
  /// candidates are confirmed, exactly as Section 4 requires.
  using AcceptFn = bool (*)(void* ctx, const SpatialCandidate&);
  Result<std::vector<Neighbor>> KnnQuery(
      const Point& qloc, size_t k, Timestamp tq, AcceptFn accept = nullptr,
      void* accept_ctx = nullptr, QueryCounters* counters = nullptr) const;

  /// The Bx value (partition ⊕ zv) an object is indexed under.
  uint64_t KeyFor(const MovingObject& object) const;

  /// Estimated k-NN distance Dk (Section 5.4's equation, scaled to the
  /// space side), given the current population size.
  double EstimateKnnDistance(size_t k) const;

  /// MovingObjectTree::Validate under the Bx key.
  Status ValidateInvariants() const;

 private:
  /// Scans one Z interval of one partition, collecting entries whose
  /// extrapolated position at `tq` is inside `refine` (when non-null).
  Status ScanInterval(ObjectBTree::LeafCursor* cursor, uint32_t partition,
                      uint64_t zlo, uint64_t zhi, Timestamp tq,
                      const Rect* refine, std::vector<SpatialCandidate>* out,
                      QueryCounters* counters) const;

  BxKeyLayout layout_;
  MovingObjectTree tree_;
};

}  // namespace peb
