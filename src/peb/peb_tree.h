// The PEB-tree (Policy-Embedded Bx-tree) — the paper's contribution
// (Section 5). A B+-tree over PEB keys (peb_key.h) that clusters users by
// policy compatibility first and spatial proximity second, with query
// algorithms that search the cross product of the issuer's friend SV values
// and the query window's Z intervals:
//
//  * PRQ (Section 5.3 / Figure 7): per time partition, the enlarged window
//    is decomposed into Z intervals; for each friend sequence value, the
//    key ranges [TID ⊕ SV ⊕ ZVs, TID ⊕ SV ⊕ ZVe] are scanned. Once a
//    user's record is located, the remaining intervals for that SV are
//    skipped (a user has one location).
//  * PkNN (Section 5.4 / Figures 8-10): iterative range enlargement; the
//    (friend x round) search matrix is traversed in triangular
//    (anti-diagonal) order; each round searches only the ring new to that
//    round; after k candidates are verified, a final vertical scan bounded
//    by the distance to the current k-th candidate closes the search.
//
// The PkNN search sharpens Figure 9 in three ways: the round-0 radius is
// seeded from the cost model's candidate-density Dk (costmodel
// EstimateKnnSeedRadius) instead of the population's Dk/k, doubling
// afterwards, so a typical query closes in 1-2 rounds; each later round
// scans only the EXACT annulus delta (the round's Z decomposition minus
// every interval a previous round covered, via ZRingForWindow) instead of
// a cumulative bounding span; and adjacent quantized-SV friend rows
// coalesce into single SV-run scans. Answers are checked against the
// Definition 3 brute-force oracle in the tests.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "btree/btree.h"
#include "btree/btree_traits.h"
#include "bxtree/bx_key.h"
#include "bxtree/privacy_index.h"
#include "bxtree/bxtree.h"
#include "common/thread_annotations.h"
#include "peb/peb_key.h"
#include "policy/policy_store.h"
#include "policy/role_registry.h"
#include "policy/sequence_value.h"
#include "spatial/zcurve.h"
#include "spatial/zrange.h"
#include "storage/buffer_pool.h"

namespace peb {

/// PRQ search-range construction strategy.
enum class PrqStrategy {
  /// Section 5.3: one key range per (friend SV, Z interval) pair, with the
  /// per-user skip rule. The default.
  kPerFriendIntervals,
  /// Figure 7 taken literally: one scan from SVmin ⊕ ZVs to SVmax ⊕ ZVe
  /// per Z interval. Reads every user between the two sequence values;
  /// kept as an ablation variant.
  kSpanScan,
};

/// PkNN search-matrix traversal order.
enum class KnnOrder {
  kTriangular,   ///< Figure 9 anti-diagonal sweep. The default.
  kColumnMajor,  ///< Spatial-first: whole column (round) at a time.
};

/// PEB-tree configuration.
struct PebTreeOptions {
  MovingIndexOptions index;  ///< Shared moving-index parameters.
  uint32_t sv_bits = 26;     ///< Bits reserved for the quantized SV.
  PrqStrategy prq_strategy = PrqStrategy::kPerFriendIntervals;
  KnnOrder knn_order = KnnOrder::kTriangular;
  double time_domain = kDefaultTimeDomain;
};

/// The PkNN seed radius for `num_candidates` friends of which
/// only the indexed fraction (`indexed` of `population`) can qualify —
/// the ONE formula both the single tree and the engine seed from, so all
/// shards of a fanned-out query enlarge identically.
double KnnSeedRadiusFor(size_t num_candidates, size_t indexed,
                        size_t population, size_t k, double space_side);

/// Per-query decomposition cache shared by the shards of one fanned-out
/// query: window/ring Z-decompositions depend only on the query and the
/// time-partition label — not on which shard scans them — so whichever
/// shard needs one first computes it and the rest reuse it. Thread-safe;
/// create one per logical query.
///
/// compute() runs OUTSIDE the lock: the callbacks are deterministic pure
/// functions of the query, so when two shards race on the same key the
/// loser's duplicate work is wasted but harmless, and the decomposition —
/// the hot CPU cost the cache exists to deduplicate — never serializes the
/// other shards' lookups behind it.
class SharedScanCache {
 public:
  using ComputeIntervals = std::function<std::vector<CurveInterval>()>;
  using IntervalsPtr = std::shared_ptr<const std::vector<CurveInterval>>;

  /// PRQ: the enlarged window's Z intervals for a label. Returned by
  /// shared pointer so concurrent shard lookups share one immutable
  /// decomposition instead of deep-copying it on every hit.
  IntervalsPtr PrqIntervals(int64_t label, const ComputeIntervals& compute) {
    {
      MutexLock lock(&mu_);
      auto it = prq_.find(label);
      if (it != prq_.end()) return it->second;
    }
    auto value =
        std::make_shared<const std::vector<CurveInterval>>(compute());
    MutexLock lock(&mu_);
    return prq_.try_emplace(label, std::move(value)).first->second;
  }

  /// PkNN: one round's exact annulus delta for (label, round) —
  /// the intervals new to the round plus the cumulative covered set the
  /// NEXT round subtracts. Both are deterministic functions of the query
  /// and the label, so every shard of a fanned-out query shares one copy.
  struct RingEntry {
    IntervalsPtr ring;
    IntervalsPtr covered;
  };
  using ComputeRing = std::function<RingEntry()>;

  RingEntry KnnRing(int64_t label, size_t round, const ComputeRing& compute) {
    auto key = std::make_pair(label, round);
    {
      MutexLock lock(&mu_);
      auto it = rings_.find(key);
      if (it != rings_.end()) return it->second;
    }
    RingEntry value = compute();
    MutexLock lock(&mu_);
    return rings_.try_emplace(key, std::move(value)).first->second;
  }

  /// PkNN: the final vertical window's full decomposition for a label
  /// (each scan subtracts its own covered set from it).
  IntervalsPtr VerticalIntervals(int64_t label,
                                 const ComputeIntervals& compute) {
    {
      MutexLock lock(&mu_);
      auto it = vertical_intervals_.find(label);
      if (it != vertical_intervals_.end()) return it->second;
    }
    auto value =
        std::make_shared<const std::vector<CurveInterval>>(compute());
    MutexLock lock(&mu_);
    return vertical_intervals_.try_emplace(label, std::move(value))
        .first->second;
  }

 private:
  Mutex mu_;
  std::unordered_map<int64_t, IntervalsPtr> prq_ GUARDED_BY(mu_);
  std::map<std::pair<int64_t, size_t>, RingEntry> rings_ GUARDED_BY(mu_);
  std::unordered_map<int64_t, IntervalsPtr> vertical_intervals_
      GUARDED_BY(mu_);
};

/// Everything about a persisted PEB-tree that is not stored in its pages:
/// the root page id and shape statistics. Together with the backing file
/// (FileDiskManager) and the policy encoding, this is sufficient to reopen
/// an index without re-inserting (see PebTree::AttachExisting).
struct PebTreeManifest {
  PageId root = kInvalidPageId;
  BTreeStats stats;
};

/// The PEB-tree. Policies and roles must outlive the tree; the encoding
/// snapshot is shared (the tree keeps it alive) and must have been built
/// with a quantizer whose bit width fits options.sv_bits. The snapshot can
/// be swapped online via AdoptSnapshot — the policy-lifecycle re-key path.
class PebTree final : public PrivacyAwareIndex {
 private:
  /// A run of the issuer's friends over consecutive quantized SVs
  /// (ascending; `qsv_lo == qsv_hi` for a single row). Rows whose SVs
  /// differ by at most kQsvRunGap (peb_tree.cc) coalesce into one
  /// run, which costs ONE key-range scan [qsv_lo ⊕ ZVs, qsv_hi ⊕ ZVe]
  /// spanning the whole interval list instead of one probe per (row,
  /// interval): the run's rows are adjacent in key space and sparse, so a
  /// single pass over their full extents is cheaper than |intervals|
  /// probes that each cross the same rows anyway. `remaining` counts the
  /// run's not-yet-located users: it is decremented inside the scan
  /// itself, so the paper's skip rule ("a user has one location") costs
  /// O(1) per check and a scan can stop the moment its run is done.
  struct SvRun {
    uint32_t qsv_lo = 0;
    uint32_t qsv_hi = 0;
    std::unordered_set<UserId> wanted;
    size_t remaining = 0;
    /// Contiguously completed PkNN enlargement rounds (the final vertical
    /// scan subtracts the covered set of this round).
    size_t rounds_done = 0;
  };

 public:
  PebTree(BufferPool* pool, const PebTreeOptions& options,
          const PolicyStore* store, const RoleRegistry* roles,
          std::shared_ptr<const EncodingSnapshot> snapshot);

  Status Insert(const MovingObject& object) override;
  Status Update(const MovingObject& object) override;
  Status Delete(UserId id) override;
  size_t size() const override { return objects_.size(); }
  BufferPool* pool() override { return pool_; }
  IoStats aggregate_io() const override { return pool_->stats(); }
  void ResetIo() override { pool_->ResetStats(); }

  /// Swaps in a new encoding snapshot and re-keys the named users (nullptr
  /// = diff all hosted records). Mutation: callers serialize against
  /// queries exactly as for Insert/Update/Delete.
  Status AdoptSnapshot(std::shared_ptr<const EncodingSnapshot> snapshot,
                       const std::vector<UserId>* rekey) override;
  uint64_t encoding_epoch() const override { return snapshot_->epoch(); }
  /// The snapshot this tree currently keys by.
  const std::shared_ptr<const EncodingSnapshot>& snapshot() const {
    return snapshot_;
  }

  Result<std::vector<UserId>> RangeQueryWithStats(UserId issuer,
                                                  const Rect& range,
                                                  Timestamp tq,
                                                  QueryStats* stats) override;
  Result<std::vector<Neighbor>> KnnQueryWithStats(UserId issuer,
                                                  const Point& qloc, size_t k,
                                                  Timestamp tq,
                                                  QueryStats* stats) override;

  /// PRQ restricted to an explicit candidate list (a subset of the issuer's
  /// friends, ascending by (qsv, uid)). This is the const read path the
  /// sharded engine fans out across shards: each shard is asked only about
  /// the friends it hosts. Only the buffer pool's LRU state changes, so
  /// distinct trees may be queried from distinct threads concurrently —
  /// and, with `counters` supplied, the SAME tree too: all work accounting
  /// goes into the caller's scan-local slot, never the tree's shared
  /// last_query() member. `shared`, when given, deduplicates the window
  /// decomposition across the shards of one fanned-out query.
  Result<std::vector<UserId>> RangeQueryAmong(
      UserId issuer, const Rect& range, Timestamp tq,
      const std::vector<FriendEntry>& friends,
      SharedScanCache* shared = nullptr,
      QueryCounters* counters = nullptr) const;

  /// PkNN restricted to an explicit candidate list; see RangeQueryAmong.
  Result<std::vector<Neighbor>> KnnQueryAmong(
      UserId issuer, const Point& qloc, size_t k, Timestamp tq,
      const std::vector<FriendEntry>& friends,
      QueryCounters* counters = nullptr) const;

  /// PkNN scan state over this tree — the engine's per-shard
  /// primitive. The engine drives the Figure-9 search matrix round by
  /// round across every shard (so enlargement stops as soon as k verified
  /// candidates exist globally), while each shard scans only the cells of
  /// its own friend rows. KnnQueryAmong is built on the same object, so
  /// the single-tree and fanned-out searches share one implementation.
  class KnnScan {
   public:
    /// Number of SV runs (coalesced friend rows) this scan searches.
    size_t num_rows() const { return runs_.size(); }
    size_t max_rounds() const { return max_rounds_; }
    /// Work counters accumulated by this scan's own cells. Each scan owns
    /// its counters (they never pass through the tree's shared last_query()
    /// slot), so concurrent fanned-out queries on the same shard tree stay
    /// exact. Read after the last Scan* call.
    const QueryCounters& counters() const { return counters_; }
    /// Anti-diagonals in this shard's (runs x rounds) matrix.
    size_t max_diagonals() const {
      return runs_.empty() ? 0 : runs_.size() + max_rounds_ - 1;
    }
    /// True once every wanted user of run i has been located. O(1): the
    /// run's remaining-count is decremented inside the scans themselves.
    bool RowDone(size_t i) const { return runs_[i].remaining == 0; }
    /// True once every wanted user has been located.
    bool AllFound() const { return found_.size() >= total_wanted_; }

    /// Radius of enlargement round `j`: the cost-model-seeded round-0
    /// radius, doubling per round (KnnSeededRadiusForRound).
    double RadiusForRound(size_t j) const;

    /// The largest radius around the query point this scan has PROVABLY
    /// fully examined for every run that still has unlocated users, after
    /// anti-diagonal `d` completed (run i has then scanned rounds 0..d-i).
    /// Any user this scan has not yet located lies strictly farther than
    /// this, so a scan whose covered radius reaches the global k-th
    /// candidate distance can be retired — remaining annuli (and the final
    /// vertical scan) provably cannot improve the answer. Returns +inf
    /// when every run is done.
    double CoveredRadiusAfterDiagonal(size_t d) const;

    /// Scans matrix cell (run i, round j): the ring new to round j for the
    /// run's SV range, in every live partition. Policy-verified candidates
    /// are inserted into *verified, kept ascending by distance. The ring is
    /// the exact annulus delta — the round's Z decomposition minus every
    /// interval already covered — and the persistent LeafCursor carries the
    /// position across rounds, so a round never re-fetches leaves a
    /// previous round examined.
    Status ScanCell(size_t i, size_t j, std::vector<Neighbor>* verified);

    /// Scans every cell of anti-diagonal d (cells (i, d-i)).
    Status ScanDiagonal(size_t d, std::vector<Neighbor>* verified);

    /// Section 5.4's final step: scans the square of half-side dk around
    /// the query point for every run with unfound users, ruling out closer
    /// unexamined candidates. After this the verified list is exact. Only
    /// the DELTA against the run's covered intervals is fetched (often
    /// nothing).
    Status VerticalScan(double dk, std::vector<Neighbor>* verified);

   private:
    friend class PebTree;

    struct LabelInfo {
      int64_t label;
      uint32_t partition;
      double enlarge;
    };

    KnnScan(const PebTree* tree, UserId issuer, Point qloc, Timestamp tq,
            double rq, const std::vector<FriendEntry>& friends,
            SharedScanCache* shared);

    /// Exact annulus delta for (label li, round j), memoized per label and
    /// deduplicated across shards via the shared cache.
    const SharedScanCache::RingEntry& RingFor(size_t li, size_t j);
    /// Scans `intervals` (ascending, non-empty) of one partition for run
    /// `run` — one SV-run scan when the run coalesces several rows, else
    /// one probe per interval — and verifies the located candidates.
    Status ScanRunIntervals(SvRun& run, uint32_t partition,
                            const std::vector<CurveInterval>& intervals,
                            std::vector<Neighbor>* verified);
    void InsertVerified(std::vector<Neighbor>* verified);

    const PebTree* tree_;
    UserId issuer_;
    Point qloc_;
    Timestamp tq_;
    /// The cost-model-seeded round-0 radius.
    double rq_;
    SharedScanCache* shared_;
    std::vector<SvRun> runs_;
    size_t total_wanted_ = 0;
    size_t max_rounds_ = 1;
    std::vector<LabelInfo> labels_;
    /// Exact annulus deltas per (label, round).
    std::vector<std::vector<SharedScanCache::RingEntry>> rings_;
    std::unordered_set<UserId> found_;
    std::vector<SpatialCandidate> batch_;
    /// Persistent scan position, reused across cells and rounds.
    ObjectBTree::LeafCursor cursor_;
    /// Scan-owned work counters (see counters()).
    QueryCounters counters_;
  };

  /// Starts a PkNN scan. `rq` is the cost-model-seeded round-0 radius; the
  /// engine derives it from GLOBAL workload state (KnnSeedRadiusFor) so
  /// all shards enlarge identically. The scan accumulates work counters of
  /// its own (KnnScan::counters()); the tree's last_query() is not touched.
  KnnScan NewKnnScan(UserId issuer, const Point& qloc, Timestamp tq,
                     double rq, const std::vector<FriendEntry>& friends,
                     SharedScanCache* shared = nullptr) const;

  /// The seed radius PkNN starts from (cost model's candidate-density Dk;
  /// see costmodel::EstimateKnnSeedRadius).
  double KnnSeedRadius(size_t num_candidates, size_t k) const;

  const PebTreeOptions& options() const { return options_; }
  const BTreeStats& tree_stats() const { return tree_.stats(); }

  /// The PEB key (Eq. 5 value, without the uid tiebreaker) for an object.
  uint64_t KeyFor(const MovingObject& object) const;

  /// Current stored state of a user.
  Result<MovingObject> GetObject(UserId id) const override;

  /// Snapshot of the out-of-page state needed to reopen this index later.
  /// Flush the buffer pool before persisting the manifest.
  PebTreeManifest Manifest() const {
    return {tree_.root(), tree_.stats()};
  }

  /// Reopens a persisted index: attaches to the pages already on the
  /// pool's disk (validating structure) and rebuilds the in-memory object
  /// table and partition counts by scanning the leaves. The tree handle
  /// must be freshly constructed (empty).
  Status AttachExisting(const PebTreeManifest& manifest);

  /// Visits every hosted user's current state (read path; callers
  /// serialize against mutations exactly as for queries).
  void ForEachObject(
      const std::function<void(UserId, const MovingObject&)>& fn) const {
    for (const auto& [uid, stored] : objects_) fn(uid, stored.state);
  }

  /// Definition 2's verification predicate, shared between the tree's scan
  /// paths (Verify) and the sharded engine's delta overlay: a candidate
  /// located OUTSIDE the tree (in a shard's ingestion delta) must pass
  /// exactly the check a tree-scanned candidate passes, or answers would
  /// depend on whether a user's latest state has been merged yet. `pos` is
  /// the candidate's position extrapolated to `tq`.
  static bool VerifyAgainst(const PolicyStore& store, const RoleRegistry& roles,
                            double time_domain, UserId issuer, UserId uid,
                            const Point& pos, Timestamp tq);

  /// Deep structural self-check: the underlying B+-tree's full walk
  /// (BTree::Validate — key order, separator bounds, occupancy, leaf
  /// chain), entry count agreement between tree and object table, every
  /// stored composite key re-derivable from the object's state under the
  /// PINNED encoding snapshot (partition from the label timestamp, Z value
  /// from the projected position, quantized SV from the snapshot — Eq. 5),
  /// each entry present in the tree with a payload matching the table, and
  /// the per-label population histogram exact. Returns Corruption naming
  /// the first violated invariant. Read path: serialize like a query.
  Status ValidateInvariants() const;

 private:
  struct StoredObject {
    MovingObject state;
    int64_t label_index = 0;
    uint64_t key = 0;
  };

  /// Groups a friend list (ascending by (qsv, uid)) into SV runs: rows
  /// whose quantized SVs differ by at most kQsvRunGap coalesce into one
  /// run.
  static std::vector<SvRun> BuildRuns(const std::vector<FriendEntry>& friends);

  /// Scans composite keys [start, end_primary]. For every entry whose uid
  /// is in `wanted`, marks it found, appends its state, and decrements
  /// `*remaining` (when given) — stopping the scan the moment it hits
  /// zero, since no further wanted user can appear. `cursor` carries the
  /// position across the sorted probes of one query, so a probe landing in
  /// the current or a resident sibling leaf skips the root descent. Work is
  /// accounted into `counters` (the
  /// caller's QueryStats slot for whole-query entry points, a KnnScan's own
  /// for fanned-out scans — never shared between concurrent queries).
  Status ScanKeyRange(ObjectBTree::LeafCursor* cursor, CompositeKey start,
                      uint64_t end_primary,
                      const std::unordered_set<UserId>* wanted,
                      std::unordered_set<UserId>* found, size_t* remaining,
                      std::vector<SpatialCandidate>* out, Timestamp tq,
                      QueryCounters* counters) const;

  /// ScanKeyRange over the PEB keys [MakeKey(p, qsv_lo, zlo),
  /// MakeKey(p, qsv_hi, zhi)] of one partition's SV run — ONE probe for
  /// the whole run of consecutive sequence values.
  Status ScanSvRun(ObjectBTree::LeafCursor* cursor, uint32_t partition,
                   uint32_t qsv_lo, uint32_t qsv_hi, uint64_t zlo,
                   uint64_t zhi, const std::unordered_set<UserId>* wanted,
                   std::unordered_set<UserId>* found, size_t* remaining,
                   std::vector<SpatialCandidate>* out, Timestamp tq,
                   QueryCounters* counters) const;

  /// Verification: Definition 2's policy conditions.
  bool Verify(UserId issuer, const SpatialCandidate& cand, Timestamp tq) const;

  Result<std::vector<UserId>> RangeQueryPerFriend(
      UserId issuer, const Rect& range, Timestamp tq,
      std::vector<SvRun>& runs, SharedScanCache* shared,
      QueryCounters* counters) const;
  Result<std::vector<UserId>> RangeQuerySpan(
      UserId issuer, const Rect& range, Timestamp tq,
      const std::vector<FriendEntry>& friends, SharedScanCache* shared,
      QueryCounters* counters) const;

  BufferPool* pool_;
  PebTreeOptions options_;
  PebKeyLayout layout_;
  GridMapper grid_;
  BTree<ObjectTreeTraits> tree_;
  const PolicyStore* store_;
  const RoleRegistry* roles_;
  /// The encoding epoch this tree's keys are consistent with. Swapped only
  /// by AdoptSnapshot (serialized against queries by the caller).
  std::shared_ptr<const EncodingSnapshot> snapshot_;

  std::unordered_map<UserId, StoredObject> objects_;
  std::unordered_map<int64_t, size_t> label_counts_;
};

}  // namespace peb
