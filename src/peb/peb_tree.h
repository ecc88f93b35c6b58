// The PEB-tree (Policy-Embedded Bx-tree) — the paper's contribution
// (Section 5). The Bx-tree's MovingObjectTree keyed by PEB keys (Eq. 5,
// peb_key.h) instead of Bx values (Eq. 1): the sequence value inside the
// key clusters users by policy compatibility first and spatial proximity
// second. This class adds only that key and the query algorithms, which
// search the cross product of the issuer's friend SV values and the query
// window's Z intervals:
//
//  * PRQ (Section 5.3 / Figure 7): per time partition, the enlarged window
//    is decomposed into Z intervals; for each friend sequence value, the
//    key ranges [TID ⊕ SV ⊕ ZVs, TID ⊕ SV ⊕ ZVe] are scanned. Once a
//    user's record is located, the remaining intervals for that SV are
//    skipped (a user has one location). Both PRQ strategies and the PkNN
//    cells probe through one SV-run scan (ScanRun).
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
//
// Every query is const and counts its work into a caller-owned slot
// (QueryStats, QueryCounters or a KnnScan's own), so any number of queries
// may run on one tree at once; mutations (Insert/Update/Delete,
// AdoptSnapshot, AttachExisting) exclude them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bxtree/moving_object_tree.h"
#include "bxtree/privacy_index.h"
#include "common/thread_annotations.h"
#include "peb/peb_key.h"
#include "policy/policy_store.h"
#include "policy/role_registry.h"
#include "policy/sequence_value.h"
#include "spatial/zrange.h"
#include "storage/buffer_pool.h"

namespace peb {

/// PRQ search-range construction strategy.
enum class PrqStrategy {
  /// Section 5.3: one key range per (friend SV, Z interval) pair, with the
  /// per-user skip rule. The default.
  kPerFriendIntervals,
  /// Figure 7 taken literally: one scan from SVmin ⊕ ZVs to SVmax ⊕ ZVe
  /// per Z interval — a single SV run holding every friend. Reads every
  /// user between the two sequence values; kept as an ablation variant.
  kSpanScan,
};

/// PkNN search-matrix traversal order of the single tree
/// (PebTree::KnnQueryAmong); the sharded engine always sweeps by
/// anti-diagonal.
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
    /// One probe per Z interval instead of one spanning them all: a
    /// single-row run, and the Figure-7 span of PrqStrategy::kSpanScan.
    bool per_interval = false;
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
  Status Delete(UserId id) override { return tree_.Delete(id); }
  size_t size() const override { return tree_.size(); }
  BufferPool* pool() override { return tree_.pool(); }
  IoStats aggregate_io() const override { return tree_.pool()->stats(); }
  void ResetIo() override { tree_.pool()->ResetStats(); }

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
  /// the friends it hosts. Only the buffer pool's LRU state changes, and
  /// the work is counted into `counters` when given. `shared`, when given,
  /// deduplicates the window decomposition across the shards of one
  /// fanned-out query.
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
    /// its counters, so concurrent fanned-out queries on the same shard
    /// tree stay exact. Read after the last Scan* call.
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

    KnnScan(const PebTree* tree, UserId issuer, Point qloc, Timestamp tq,
            double rq, const std::vector<FriendEntry>& friends,
            SharedScanCache* shared);

    /// Exact annulus delta for (label li, round j), memoized per label and
    /// deduplicated across shards via the shared cache.
    const SharedScanCache::RingEntry& RingFor(size_t li, size_t j);
    /// Verifies the candidates PebTree::ScanRun collected into batch_ into
    /// `verified` (ascending distance), emptying batch_.
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
    std::vector<LiveLabel> labels_;
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
  /// its own (KnnScan::counters()).
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
  Result<MovingObject> GetObject(UserId id) const override {
    return tree_.Get(id);
  }

  /// Snapshot of the out-of-page state needed to reopen this index later.
  /// Flush the buffer pool before persisting the manifest.
  PebTreeManifest Manifest() const {
    return {tree_.root(), tree_.stats()};
  }

  /// Reopens a persisted index: attaches to the pages already on the
  /// pool's disk (validating structure) and rebuilds the in-memory object
  /// table and partition counts by scanning the leaves
  /// (MovingObjectTree::Attach). The tree must be freshly constructed.
  Status AttachExisting(const PebTreeManifest& manifest) {
    return tree_.Attach(manifest.root, manifest.stats);
  }

  /// Visits every hosted user's current state (read path; callers
  /// serialize against mutations exactly as for queries).
  void ForEachObject(
      const std::function<void(UserId, const MovingObject&)>& fn) const {
    tree_.ForEach([&](UserId uid, const MovingObject& state, uint64_t) {
      fn(uid, state);
    });
  }

  /// MovingObjectTree::Validate under the PEB key of the PINNED encoding
  /// snapshot (partition from the label timestamp, Z value from the
  /// projected position, quantized SV from the snapshot — Eq. 5), so a
  /// missed re-key after snapshot adoption is Corruption. Read path:
  /// serialize like a query.
  Status ValidateInvariants() const;

 private:
  /// Groups a friend list (ascending by (qsv, uid)) into SV runs: rows
  /// whose quantized SVs differ by at most kQsvRunGap coalesce into one
  /// run. `span` makes one per-interval run holding every friend (the
  /// Figure-7 span, PrqStrategy::kSpanScan).
  static std::vector<SvRun> BuildRuns(const std::vector<FriendEntry>& friends,
                                      bool span = false);

  /// Probes run `run` over `intervals` (ascending, non-empty) of one
  /// partition: one key range [qsv_lo ⊕ ZVs, qsv_hi ⊕ ZVe] per interval
  /// when run.per_interval, else ONE spanning all of them. Every wanted,
  /// not yet found user is marked found, appended to `out` with its state
  /// extrapolated to `tq`, and counted off run.remaining; the probes stop
  /// the moment it reaches zero, since no further wanted user can appear.
  Status ScanRun(ObjectBTree::LeafCursor* cursor, SvRun& run,
                 uint32_t partition,
                 const std::vector<CurveInterval>& intervals, Timestamp tq,
                 std::unordered_set<UserId>* found,
                 std::vector<SpatialCandidate>* out,
                 QueryCounters* counters) const;

  /// Verification: Definition 2's policy conditions (PolicyStore::Qualifies).
  bool Verify(UserId issuer, const SpatialCandidate& cand, Timestamp tq) const {
    return store_->Qualifies(cand.uid, issuer, cand.pos, tq, *roles_,
                             options_.time_domain);
  }

  PebTreeOptions options_;
  PebKeyLayout layout_;
  MovingObjectTree tree_;
  const PolicyStore* store_;
  const RoleRegistry* roles_;
  /// The encoding epoch this tree's keys are consistent with. Swapped only
  /// by AdoptSnapshot (serialized against queries by the caller).
  std::shared_ptr<const EncodingSnapshot> snapshot_;
};

}  // namespace peb
