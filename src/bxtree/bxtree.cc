#include "bxtree/bxtree.h"

#include "bxtree/knn_schedule.h"

#include <algorithm>
#include <unordered_set>
#include <cmath>
#include <numbers>

namespace peb {

namespace {

BxKeyLayout LayoutFor(const MovingIndexOptions& options) {
  BxKeyLayout l;
  l.grid_bits = options.grid_bits;
  return l;
}

}  // namespace

BxTree::BxTree(BufferPool* pool, const MovingIndexOptions& options)
    : pool_(pool),
      options_(options),
      grid_(options.space_side, options.grid_bits),
      tree_(pool) {}

uint64_t BxTree::KeyFor(const MovingObject& object) const {
  BxKeyLayout layout = LayoutFor(options_);
  int64_t label = options_.partitions.LabelIndexFor(object.tu);
  Timestamp tlab = options_.partitions.LabelTimestamp(label);
  Point projected = object.PositionAt(tlab);
  uint64_t zv = grid_.ZValueOf(projected);  // Clamps into the domain.
  return layout.MakeKey(options_.partitions.PartitionOf(label), zv);
}

Status BxTree::Insert(const MovingObject& object) {
  if (objects_.contains(object.id)) {
    return Status::AlreadyExists("object " + std::to_string(object.id) +
                                 " already indexed");
  }
  StoredObject stored;
  stored.state = object;
  stored.label_index = options_.partitions.LabelIndexFor(object.tu);
  stored.key = KeyFor(object);

  ObjectRecord rec;
  rec.x = object.pos.x;
  rec.y = object.pos.y;
  rec.vx = object.vel.x;
  rec.vy = object.vel.y;
  rec.tu = object.tu;
  rec.pntp = object.id;

  PEB_RETURN_NOT_OK(tree_.Insert({stored.key, object.id}, rec));
  objects_.emplace(object.id, stored);
  label_counts_[stored.label_index]++;
  return Status::OK();
}

Status BxTree::Delete(UserId id) {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("object " + std::to_string(id));
  }
  PEB_RETURN_NOT_OK(tree_.Delete({it->second.key, id}));
  auto lc = label_counts_.find(it->second.label_index);
  if (--lc->second == 0) label_counts_.erase(lc);
  objects_.erase(it);
  return Status::OK();
}

Status BxTree::Update(const MovingObject& object) {
  if (objects_.contains(object.id)) {
    PEB_RETURN_NOT_OK(Delete(object.id));
  }
  return Insert(object);
}

Result<MovingObject> BxTree::GetObject(UserId id) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("object " + std::to_string(id));
  }
  return it->second.state;
}

Status BxTree::ScanInterval(ObjectBTree::LeafCursor* cursor,
                            uint32_t partition, uint64_t zlo, uint64_t zhi,
                            Timestamp tq, const Rect* refine,
                            std::vector<SpatialCandidate>* out) {
  BxKeyLayout layout = LayoutFor(options_);
  CompositeKey start = CompositeKey::Min(layout.MakeKey(partition, zlo));
  uint64_t end_primary = layout.MakeKey(partition, zhi);
  counters_.range_probes++;

  size_t d0 = cursor->descents();
  size_t h0 = cursor->chain_hops();
  PEB_RETURN_NOT_OK(cursor->SeekGE(start));
  counters_.seek_descents += cursor->descents() - d0;
  counters_.leaf_hops += cursor->chain_hops() - h0;
  while (cursor->Valid()) {
    CompositeKey key = cursor->key();
    if (key.primary > end_primary) break;
    ObjectRecord rec = cursor->value();
    counters_.candidates_examined++;
    MovingObject obj;
    obj.id = key.uid;
    obj.pos = {rec.x, rec.y};
    obj.vel = {rec.vx, rec.vy};
    obj.tu = rec.tu;
    Point pos = obj.PositionAt(tq);
    if (refine == nullptr || refine->Contains(pos)) {
      out->push_back({key.uid, pos, obj});
    }
    PEB_RETURN_NOT_OK(cursor->Next());
  }
  return Status::OK();
}

Result<std::vector<SpatialCandidate>> BxTree::RangeQuery(const Rect& range,
                                                         Timestamp tq) {
  counters_ = QueryCounters{};
  std::vector<SpatialCandidate> out;
  ObjectBTree::LeafCursor cursor = tree_.NewCursor();
  for (const auto& [label, count] : label_counts_) {
    Timestamp tlab = options_.partitions.LabelTimestamp(label);
    uint32_t partition = options_.partitions.PartitionOf(label);
    // Figure 2: positions are stored as of tlab, so the window must grow by
    // the maximum displacement over |tq - tlab| in every direction.
    double d = options_.max_speed * std::abs(tq - tlab);
    Rect enlarged = range.Expanded(d);
    for (const CurveInterval& iv :
         ZIntervalsForWindow(grid_, enlarged, options_.zrange)) {
      PEB_RETURN_NOT_OK(ScanInterval(&cursor, partition, iv.lo, iv.hi, tq,
                                     &range, &out));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpatialCandidate& a, const SpatialCandidate& b) {
              return a.uid < b.uid;
            });
  counters_.results = out.size();
  return out;
}

Status BxTree::ValidateInvariants() const {
  PEB_RETURN_NOT_OK(tree_.Validate());
  if (tree_.stats().num_entries != objects_.size()) {
    return Status::Corruption(
        "tree entry count " + std::to_string(tree_.stats().num_entries) +
        " != object table size " + std::to_string(objects_.size()));
  }
  std::unordered_map<int64_t, size_t> recount;
  for (const auto& [uid, stored] : objects_) {
    if (stored.state.id != uid) {
      return Status::Corruption("object table key " + std::to_string(uid) +
                                " stores state of user " +
                                std::to_string(stored.state.id));
    }
    if (stored.key != KeyFor(stored.state)) {
      return Status::Corruption("user " + std::to_string(uid) +
                                ": stored Bx key does not match the key "
                                "derived from the stored state");
    }
    if (stored.label_index !=
        options_.partitions.LabelIndexFor(stored.state.tu)) {
      return Status::Corruption("user " + std::to_string(uid) +
                                ": stored label index does not match tu");
    }
    recount[stored.label_index]++;
    auto rec = tree_.Lookup({stored.key, uid});
    if (!rec.ok()) {
      return Status::Corruption("user " + std::to_string(uid) +
                                " unreachable under its composite key: " +
                                rec.status().ToString());
    }
    if (rec->x != stored.state.pos.x || rec->y != stored.state.pos.y ||
        rec->vx != stored.state.vel.x || rec->vy != stored.state.vel.y ||
        rec->tu != stored.state.tu) {
      return Status::Corruption("user " + std::to_string(uid) +
                                ": tree payload disagrees with the object "
                                "table");
    }
  }
  if (recount != label_counts_) {
    return Status::Corruption("per-label histogram out of sync with the "
                              "object table");
  }
  return Status::OK();
}

double BxTree::EstimateKnnDistance(size_t k) const {
  size_t n = std::max<size_t>(size(), 1);
  double ratio = std::min(1.0, static_cast<double>(k) / static_cast<double>(n));
  // Dk = 2/sqrt(pi) * (1 - sqrt(1 - (k/N)^(1/2))) in unit space [33],
  // scaled by the space side.
  double inner = 1.0 - std::sqrt(ratio);
  double dk = 2.0 / std::sqrt(std::numbers::pi) *
              (1.0 - std::sqrt(std::max(0.0, inner)));
  return std::max(dk * options_.space_side, 1e-6 * options_.space_side);
}

Result<std::vector<Neighbor>> BxTree::KnnQuery(const Point& qloc, size_t k,
                                               Timestamp tq, AcceptFn accept,
                                               void* accept_ctx) {
  counters_ = QueryCounters{};
  std::vector<Neighbor> best;  // Accepted candidates, ascending distance.
  if (k == 0 || size() == 0) return best;

  // Initial radius rq = Dk / k (Section 5.4), grown by rq per round.
  double dk = EstimateKnnDistance(k);
  double rq = dk / static_cast<double>(k);
  double space_diagonal = options_.space_side * std::numbers::sqrt2;

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
  std::unordered_map<int64_t, std::vector<CurveInterval>> covered;

  ObjectBTree::LeafCursor cursor = tree_.NewCursor();
  std::vector<SpatialCandidate> found;  // Reused across ring scans.

  for (size_t round = 1;; ++round) {
    counters_.rounds = round;
    double radius = KnnRadiusForRound(rq, round - 1);
    Rect rect = Rect::CenteredSquare(qloc, 2.0 * radius);

    for (const auto& [label, count] : label_counts_) {
      Timestamp tlab = options_.partitions.LabelTimestamp(label);
      uint32_t partition = options_.partitions.PartitionOf(label);
      double d = options_.max_speed * std::abs(tq - tlab);
      Rect enlarged = rect.Expanded(d);
      auto intervals = ZIntervalsForWindow(grid_, enlarged, options_.zrange);
      auto fresh = SubtractIntervals(intervals, covered[label]);
      // Accumulate the union: with capped (gap-merged) interval lists, the
      // current round's list is not necessarily a superset of the previous
      // round's, so plain replacement would rescan merged gap cells.
      covered[label] = UnionIntervals(covered[label], intervals);
      for (const CurveInterval& iv : fresh) {
        found.clear();
        PEB_RETURN_NOT_OK(ScanInterval(&cursor, partition, iv.lo, iv.hi, tq,
                                       nullptr, &found));
        for (const SpatialCandidate& c : found) consider(c);
      }
    }

    // Done when k accepted candidates lie within the inscribed circle of
    // the (unenlarged) current square — everything inside that circle has
    // been examined in every partition.
    if (best.size() >= k && best[k - 1].distance <= radius) break;
    if (radius >= space_diagonal) break;  // Searched everything.
  }

  if (best.size() > k) best.resize(k);
  counters_.results = best.size();
  return best;
}

}  // namespace peb
