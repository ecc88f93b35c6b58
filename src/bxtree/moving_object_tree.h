// The moving-object tree: the key-independent half of the Bx-tree and the
// PEB-tree.
//
// The PEB-tree is the Bx-tree with a sequence value placed inside the key
// (Section 5.2, Eq. 5 against Eq. 1): both index the same leaf record
// <key, UID, x, y, vx, vy, t, pntp> in the same B+-tree, under the same
// time partitions. This class owns everything that does not depend on how
// the 1-D key is formed:
//
//  * the B+-tree over composite keys (key, uid) and the leaf-record codec;
//  * the direct-access object table uid -> (state, label, key), which
//    deletions need because the old key cannot be recomputed once the
//    encoding or the state has moved on;
//  * the per-label population, from which every query enumerates the live
//    time partitions with their Figure-2 window enlargement (LiveLabels);
//  * the cursor scan every query algorithm is built from (Scan), reopening
//    a persisted tree (Attach), and the deep validator (Validate).
//
// A tree keys each object by the value its caller supplies; BxTree and
// PebTree keep only their key derivation and their search algorithms.
#pragma once

#include <cstdint>
#include <functional>
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

/// One live time-partition label as a query at time tq sees it.
struct LiveLabel {
  int64_t label = 0;
  uint32_t partition = 0;
  /// Figure 2: positions are stored as of the label timestamp tlab, so a
  /// query window grows by the largest displacement over |tq - tlab|,
  /// max_speed * |tq - tlab|, in every direction.
  double enlarge = 0.0;
};

class MovingObjectTree {
 public:
  MovingObjectTree(BufferPool* pool, const MovingIndexOptions& options);

  /// Indexes `object` under the composite key (key, object.id).
  /// AlreadyExists when the user is indexed.
  Status Insert(const MovingObject& object, uint64_t key);
  /// Removes a user under the key it was inserted with. NotFound when
  /// absent.
  Status Delete(UserId id);
  /// Current stored state of a user; NotFound when absent.
  Result<MovingObject> Get(UserId id) const;
  bool contains(UserId id) const { return objects_.contains(id); }
  size_t size() const { return objects_.size(); }

  /// Visits every indexed user as fn(uid, state, key).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [uid, stored] : objects_) {
      fn(uid, stored.state, stored.key);
    }
  }

  /// The labels holding live objects, each with its partition and the
  /// window enlargement a query at `tq` needs there. Read path.
  std::vector<LiveLabel> LiveLabels(Timestamp tq) const;

  /// An unpositioned cursor for Scan.
  ObjectBTree::LeafCursor NewCursor() const { return btree_.NewCursor(); }

  /// Scans the composite keys from `start` through every key whose primary
  /// value is at most `end_primary`, calling visit(key, cursor) on each
  /// entry; the scan stops before advancing when visit returns false.
  /// `cursor` carries the position across the sorted probes of one query,
  /// so a probe landing in the current or a resident sibling leaf skips
  /// the root descent. One probe, the cursor's descents and hops, and
  /// every entry examined are counted into `counters` (the caller's own
  /// slot, never shared between concurrent queries).
  template <typename Visit>
  Status Scan(ObjectBTree::LeafCursor* cursor, const CompositeKey& start,
              uint64_t end_primary, QueryCounters* counters,
              Visit&& visit) const {
    counters->range_probes++;
    size_t d0 = cursor->descents();
    size_t h0 = cursor->chain_hops();
    PEB_RETURN_NOT_OK(cursor->SeekGE(start));
    counters->seek_descents += cursor->descents() - d0;
    counters->leaf_hops += cursor->chain_hops() - h0;
    while (cursor->Valid()) {
      CompositeKey key = cursor->key();
      if (key.primary > end_primary) break;
      counters->candidates_examined++;
      if (!visit(key, *cursor)) break;
      PEB_RETURN_NOT_OK(cursor->Next());
    }
    return Status::OK();
  }

  /// The motion state a leaf entry of user `uid` stores.
  static MovingObject StateOf(UserId uid, const ObjectRecord& record);

  /// Reopens a persisted tree: attaches to the pages already on the pool's
  /// disk (validating their structure) and rebuilds the object table and
  /// label population from the leaf level. Every leaf entry is
  /// self-describing — the key carries the 1-D value and uid, the record
  /// the motion state. Requires an empty tree; a uid stored twice is
  /// Corruption.
  Status Attach(PageId root, const BTreeStats& stats);

  /// Deep structural self-check under the caller's key function: the
  /// B+-tree's full walk (key order, separator bounds, occupancy, leaf
  /// chain, shape statistics), entry count agreement between tree and
  /// object table, every stored key equal to key_for(state) — a missed
  /// re-key shows up here — and the label equal to the one tu derives,
  /// every entry reachable under its composite key with a payload matching
  /// the table, and the per-label population exact. Returns Corruption
  /// naming the first violation. Cost: one full tree walk plus one point
  /// lookup per object.
  Status Validate(
      const std::function<uint64_t(const MovingObject&)>& key_for) const;

  PageId root() const { return btree_.root(); }
  const BTreeStats& stats() const { return btree_.stats(); }
  const MovingIndexOptions& options() const { return options_; }
  const GridMapper& grid() const { return grid_; }
  BufferPool* pool() const { return pool_; }

 private:
  struct StoredObject {
    MovingObject state;
    int64_t label = 0;
    uint64_t key = 0;  ///< The caller's 1-D key (without the uid).
  };

  BufferPool* pool_;
  MovingIndexOptions options_;
  GridMapper grid_;
  ObjectBTree btree_;
  std::unordered_map<UserId, StoredObject> objects_;
  /// Live object count per label; keys are the <= n+1 active labels.
  std::unordered_map<int64_t, size_t> label_counts_;
};

}  // namespace peb
