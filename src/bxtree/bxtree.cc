#include "bxtree/bxtree.h"

#include "bxtree/knn_schedule.h"

#include <algorithm>
#include <unordered_set>
#include <cmath>
#include <numbers>

namespace peb {

BxTree::BxTree(BufferPool* pool, const MovingIndexOptions& options)
    : tree_(pool, options) {
  layout_.grid_bits = options.grid_bits;
}

uint64_t BxTree::KeyFor(const MovingObject& object) const {
  const TimePartitionLayout& partitions = options().partitions;
  int64_t label = partitions.LabelIndexFor(object.tu);
  Point projected = object.PositionAt(partitions.LabelTimestamp(label));
  uint64_t zv = tree_.grid().ZValueOf(projected);  // Clamps into the domain.
  return layout_.MakeKey(partitions.PartitionOf(label), zv);
}

Status BxTree::Insert(const MovingObject& object) {
  return tree_.Insert(object, KeyFor(object));
}

Status BxTree::Update(const MovingObject& object) {
  if (tree_.contains(object.id)) {
    PEB_RETURN_NOT_OK(tree_.Delete(object.id));
  }
  return Insert(object);
}

Status BxTree::ScanInterval(ObjectBTree::LeafCursor* cursor,
                            uint32_t partition, uint64_t zlo, uint64_t zhi,
                            Timestamp tq, const Rect* refine,
                            std::vector<SpatialCandidate>* out,
                            QueryCounters* counters) const {
  return tree_.Scan(
      cursor, CompositeKey::Min(layout_.MakeKey(partition, zlo)),
      layout_.MakeKey(partition, zhi), counters,
      [&](const CompositeKey& key, const ObjectBTree::LeafCursor& at) {
        MovingObject obj = MovingObjectTree::StateOf(key.uid, at.value());
        Point pos = obj.PositionAt(tq);
        if (refine == nullptr || refine->Contains(pos)) {
          out->push_back({key.uid, pos, obj});
        }
        return true;
      });
}

Result<std::vector<SpatialCandidate>> BxTree::RangeQuery(
    const Rect& range, Timestamp tq, QueryCounters* counters) const {
  QueryCounters local;
  QueryCounters* c = counters != nullptr ? counters : &local;
  *c = QueryCounters{};
  std::vector<SpatialCandidate> out;
  ObjectBTree::LeafCursor cursor = tree_.NewCursor();
  for (const LiveLabel& live : tree_.LiveLabels(tq)) {
    for (const CurveInterval& iv :
         ZIntervalsForWindow(tree_.grid(), range.Expanded(live.enlarge),
                             options().zrange)) {
      PEB_RETURN_NOT_OK(ScanInterval(&cursor, live.partition, iv.lo, iv.hi,
                                     tq, &range, &out, c));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpatialCandidate& a, const SpatialCandidate& b) {
              return a.uid < b.uid;
            });
  c->results = out.size();
  return out;
}

Status BxTree::ValidateInvariants() const {
  return tree_.Validate(
      [this](const MovingObject& object) { return KeyFor(object); });
}

double BxTree::EstimateKnnDistance(size_t k) const {
  size_t n = std::max<size_t>(size(), 1);
  double ratio = std::min(1.0, static_cast<double>(k) / static_cast<double>(n));
  // Dk = 2/sqrt(pi) * (1 - sqrt(1 - (k/N)^(1/2))) in unit space [33],
  // scaled by the space side.
  double inner = 1.0 - std::sqrt(ratio);
  double dk = 2.0 / std::sqrt(std::numbers::pi) *
              (1.0 - std::sqrt(std::max(0.0, inner)));
  return std::max(dk * options().space_side, 1e-6 * options().space_side);
}

Result<std::vector<Neighbor>> BxTree::KnnQuery(const Point& qloc, size_t k,
                                               Timestamp tq, AcceptFn accept,
                                               void* accept_ctx,
                                               QueryCounters* counters) const {
  QueryCounters local;
  QueryCounters* c = counters != nullptr ? counters : &local;
  *c = QueryCounters{};
  std::vector<Neighbor> best;  // Accepted candidates, ascending distance.
  if (k == 0 || size() == 0) return best;

  // Initial radius rq = Dk / k (Section 5.4), grown by rq per round.
  double dk = EstimateKnnDistance(k);
  double rq = dk / static_cast<double>(k);
  double space_diagonal = options().space_side * std::numbers::sqrt2;

  std::unordered_set<UserId> seen;
  auto consider = [&](const SpatialCandidate& cand) {
    if (!seen.insert(cand.uid).second) return;  // Ring overlap safety net.
    if (accept != nullptr && !accept(accept_ctx, cand)) return;
    double dist = cand.pos.DistanceTo(qloc);
    Neighbor nb{cand.uid, dist};
    auto pos = std::lower_bound(best.begin(), best.end(), nb,
                                [](const Neighbor& a, const Neighbor& b) {
                                  return a.distance < b.distance;
                                });
    best.insert(pos, nb);
  };

  // Per-label covered Z intervals from previous rounds, so each round scans
  // only the ring R'_qi − R'_q(i−1).
  const std::vector<LiveLabel> labels = tree_.LiveLabels(tq);
  std::vector<std::vector<CurveInterval>> covered(labels.size());

  ObjectBTree::LeafCursor cursor = tree_.NewCursor();
  std::vector<SpatialCandidate> found;  // Reused across ring scans.

  for (size_t round = 1;; ++round) {
    c->rounds = round;
    double radius = KnnRadiusForRound(rq, round - 1);
    Rect rect = Rect::CenteredSquare(qloc, 2.0 * radius);

    for (size_t li = 0; li < labels.size(); ++li) {
      auto intervals = ZIntervalsForWindow(
          tree_.grid(), rect.Expanded(labels[li].enlarge), options().zrange);
      auto fresh = SubtractIntervals(intervals, covered[li]);
      // Accumulate the union: with capped (gap-merged) interval lists, the
      // current round's list is not necessarily a superset of the previous
      // round's, so plain replacement would rescan merged gap cells.
      covered[li] = UnionIntervals(covered[li], intervals);
      for (const CurveInterval& iv : fresh) {
        found.clear();
        PEB_RETURN_NOT_OK(ScanInterval(&cursor, labels[li].partition, iv.lo,
                                       iv.hi, tq, nullptr, &found, c));
        for (const SpatialCandidate& cand : found) consider(cand);
      }
    }

    // Done when k accepted candidates lie within the inscribed circle of
    // the (unenlarged) current square — everything inside that circle has
    // been examined in every partition.
    if (best.size() >= k && best[k - 1].distance <= radius) break;
    if (radius >= space_diagonal) break;  // Searched everything.
  }

  if (best.size() > k) best.resize(k);
  c->results = best.size();
  return best;
}

}  // namespace peb
