#include "peb/peb_tree.h"

#include "bxtree/knn_schedule.h"
#include "costmodel/cost_model.h"
#include "telemetry/trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numbers>

namespace peb {

namespace {

/// SV runs coalesce friend rows whose quantized SVs differ by at most this
/// much. Under the paper's grouping factor an issuer's friends concentrate
/// on few, often consecutive quantized SVs, so per-row probing multiplies
/// seek descents; a run scan walks the run's sparse adjacent rows once
/// instead (extra entries are discarded by the wanted-set filter, so
/// answers are unchanged). Applies to PRQ per-friend scans and PkNN.
constexpr uint32_t kQsvRunGap = 1;

}  // namespace

PebTree::PebTree(BufferPool* pool, const PebTreeOptions& options,
                 const PolicyStore* store, const RoleRegistry* roles,
                 std::shared_ptr<const EncodingSnapshot> snapshot)
    : pool_(pool),
      options_(options),
      grid_(options.index.space_side, options.index.grid_bits),
      tree_(pool),
      store_(store),
      roles_(roles),
      snapshot_(std::move(snapshot)) {
  layout_.sv_bits = options.sv_bits;
  layout_.grid_bits = options.index.grid_bits;
  assert(layout_.Fits() && "PEB key layout exceeds 64 bits");
  assert(snapshot_->quantizer().bits() <= options.sv_bits &&
         "SV quantizer wider than the key's SV field");
}

uint64_t PebTree::KeyFor(const MovingObject& object) const {
  int64_t label = options_.index.partitions.LabelIndexFor(object.tu);
  Timestamp tlab = options_.index.partitions.LabelTimestamp(label);
  Point projected = object.PositionAt(tlab);
  uint64_t zv = grid_.ZValueOf(projected);
  uint32_t qsv = snapshot_->quantized_sv(object.id);
  return layout_.MakeKey(options_.index.partitions.PartitionOf(label), qsv,
                         zv);
}

Status PebTree::Insert(const MovingObject& object) {
  if (objects_.contains(object.id)) {
    return Status::AlreadyExists("object " + std::to_string(object.id) +
                                 " already indexed");
  }
  if (object.id >= snapshot_->num_users()) {
    return Status::InvalidArgument("object id outside the policy encoding");
  }
  StoredObject stored;
  stored.state = object;
  stored.label_index = options_.index.partitions.LabelIndexFor(object.tu);
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

Status PebTree::Delete(UserId id) {
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

Status PebTree::Update(const MovingObject& object) {
  if (objects_.contains(object.id)) {
    PEB_RETURN_NOT_OK(Delete(object.id));
  }
  return Insert(object);
}

Result<MovingObject> PebTree::GetObject(UserId id) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("object " + std::to_string(id));
  }
  return it->second.state;
}

Status PebTree::AdoptSnapshot(std::shared_ptr<const EncodingSnapshot> snapshot,
                              const std::vector<UserId>* rekey) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("cannot adopt a null encoding snapshot");
  }
  if (snapshot->num_users() != snapshot_->num_users()) {
    return Status::InvalidArgument(
        "snapshot population differs from the tree's encoding");
  }
  if (snapshot->quantizer().bits() > options_.sv_bits) {
    return Status::InvalidArgument(
        "snapshot quantizer wider than the key's SV field");
  }
  snapshot_ = std::move(snapshot);

  // Re-key through the normal update path: Delete uses the remembered old
  // key, Insert recomputes KeyFor under the new snapshot. Collect hosted
  // ids first — Update mutates objects_.
  std::vector<UserId> moved;
  if (rekey != nullptr) {
    moved.reserve(rekey->size());
    for (UserId uid : *rekey) {
      if (objects_.contains(uid)) moved.push_back(uid);
    }
  } else {
    // Self-sufficient mode: diff every hosted record's key.
    for (const auto& [uid, stored] : objects_) {
      if (KeyFor(stored.state) != stored.key) moved.push_back(uid);
    }
  }
  for (UserId uid : moved) {
    // By value: Update deletes the map node the reference would point into.
    MovingObject state = objects_.at(uid).state;
    PEB_RETURN_NOT_OK(Update(state));
  }
  return Status::OK();
}

Status PebTree::AttachExisting(const PebTreeManifest& manifest) {
  if (!objects_.empty()) {
    return Status::InvalidArgument("AttachExisting requires an empty index");
  }
  PEB_RETURN_NOT_OK(tree_.Attach(manifest.root, manifest.stats));

  // Rebuild the direct-access object table and partition counts from the
  // leaf level: one descent to the smallest key, then the leaf chain. Every
  // leaf entry is self-describing: the key carries the PEB value and uid,
  // the record carries the motion state.
  auto cursor = tree_.NewCursor();
  PEB_RETURN_NOT_OK(cursor.SeekGE(CompositeKey{}));
  while (cursor.Valid()) {
    CompositeKey key = cursor.key();
    ObjectRecord rec = cursor.value();
    StoredObject stored;
    stored.state.id = key.uid;
    stored.state.pos = {rec.x, rec.y};
    stored.state.vel = {rec.vx, rec.vy};
    stored.state.tu = rec.tu;
    stored.label_index = options_.index.partitions.LabelIndexFor(rec.tu);
    stored.key = key.primary;
    if (objects_.contains(key.uid)) {
      objects_.clear();
      label_counts_.clear();
      return Status::Corruption("duplicate uid " + std::to_string(key.uid) +
                                " in persisted index");
    }
    objects_.emplace(key.uid, stored);
    label_counts_[stored.label_index]++;
    PEB_RETURN_NOT_OK(cursor.Next());
  }
  return Status::OK();
}

Status PebTree::ValidateInvariants() const {
  // Layer 1: the B+-tree's own structural walk (key order, separator
  // bounds, occupancy, uniform depth, leaf chain, stats agreement).
  PEB_RETURN_NOT_OK(tree_.Validate());

  // Layer 2: tree ↔ object-table correspondence.
  if (tree_.stats().num_entries != objects_.size()) {
    return Status::Corruption(
        "tree holds " + std::to_string(tree_.stats().num_entries) +
        " entries but the object table holds " +
        std::to_string(objects_.size()));
  }
  std::unordered_map<int64_t, size_t> recount;
  for (const auto& [uid, stored] : objects_) {
    if (stored.state.id != uid) {
      return Status::Corruption("object table slot " + std::to_string(uid) +
                                " holds state of user " +
                                std::to_string(stored.state.id));
    }
    // Layer 3: every composite key re-derives from the state under the
    // PINNED snapshot (partition ⊕ quantized SV ⊕ Z value, Eq. 5) — a
    // missed re-key after snapshot adoption shows up here.
    const uint64_t expect = KeyFor(stored.state);
    if (stored.key != expect) {
      return Status::Corruption(
          "user " + std::to_string(uid) + " stored under key " +
          std::to_string(stored.key) +
          " but the pinned snapshot derives key " + std::to_string(expect));
    }
    const int64_t label =
        options_.index.partitions.LabelIndexFor(stored.state.tu);
    if (stored.label_index != label) {
      return Status::Corruption(
          "user " + std::to_string(uid) + " carries label index " +
          std::to_string(stored.label_index) + " but tu derives " +
          std::to_string(label));
    }
    recount[label]++;
    Result<ObjectRecord> rec = tree_.Lookup({stored.key, uid});
    if (!rec.ok()) {
      return Status::Corruption("user " + std::to_string(uid) +
                                " unreachable under its composite key: " +
                                rec.status().ToString());
    }
    if (rec->x != stored.state.pos.x || rec->y != stored.state.pos.y ||
        rec->vx != stored.state.vel.x || rec->vy != stored.state.vel.y ||
        rec->tu != stored.state.tu) {
      return Status::Corruption("user " + std::to_string(uid) +
                                ": leaf payload disagrees with the object "
                                "table");
    }
  }
  // Layer 4: the per-label population histogram the query planner
  // enumerates (one scan loop per live label) is exact.
  if (recount != label_counts_) {
    return Status::Corruption("label population histogram drifted (" +
                              std::to_string(label_counts_.size()) +
                              " labels tracked, " +
                              std::to_string(recount.size()) + " live)");
  }
  return Status::OK();
}

std::vector<PebTree::SvRun> PebTree::BuildRuns(
    const std::vector<FriendEntry>& friends) {
  std::vector<SvRun> runs;
  runs.reserve(friends.size());
  for (const FriendEntry& f : friends) {  // Ascending (qsv, uid).
    if (runs.empty() || f.qsv > runs.back().qsv_hi + kQsvRunGap) {
      runs.emplace_back();
      runs.back().qsv_lo = f.qsv;
    }
    SvRun& run = runs.back();
    run.qsv_hi = f.qsv;
    if (run.wanted.insert(f.uid).second) run.remaining++;
  }
  return runs;
}

bool PebTree::VerifyAgainst(const PolicyStore& store,
                            const RoleRegistry& roles, double time_domain,
                            UserId issuer, UserId uid, const Point& pos,
                            Timestamp tq) {
  return uid != issuer &&
         store.Allows(uid, issuer, pos, tq, roles, time_domain);
}

bool PebTree::Verify(UserId issuer, const SpatialCandidate& cand,
                     Timestamp tq) const {
  return VerifyAgainst(*store_, *roles_, options_.time_domain, issuer,
                       cand.uid, cand.pos, tq);
}

Status PebTree::ScanKeyRange(ObjectBTree::LeafCursor* cursor,
                             CompositeKey start, uint64_t end_primary,
                             const std::unordered_set<UserId>* wanted,
                             std::unordered_set<UserId>* found,
                             size_t* remaining,
                             std::vector<SpatialCandidate>* out, Timestamp tq,
                             QueryCounters* counters) const {
  counters->range_probes++;
  size_t d0 = cursor->descents();
  size_t h0 = cursor->chain_hops();
  PEB_RETURN_NOT_OK(cursor->SeekGE(start));
  counters->seek_descents += cursor->descents() - d0;
  counters->leaf_hops += cursor->chain_hops() - h0;
  // Consume until the key leaves [.., end_primary] — or until `*remaining`
  // hits zero, after which no further wanted user can appear.
  while (cursor->Valid()) {
    CompositeKey key = cursor->key();
    if (key.primary > end_primary) break;
    counters->candidates_examined++;
    UserId uid = key.uid;
    if ((wanted == nullptr || wanted->contains(uid)) &&
        !found->contains(uid)) {
      found->insert(uid);
      ObjectRecord rec = cursor->value();
      MovingObject obj;
      obj.id = uid;
      obj.pos = {rec.x, rec.y};
      obj.vel = {rec.vx, rec.vy};
      obj.tu = rec.tu;
      out->push_back({uid, obj.PositionAt(tq), obj});
      if (remaining != nullptr && --*remaining == 0) break;
    }
    PEB_RETURN_NOT_OK(cursor->Next());
  }
  return Status::OK();
}

Status PebTree::ScanSvRun(ObjectBTree::LeafCursor* cursor, uint32_t partition,
                          uint32_t qsv_lo, uint32_t qsv_hi, uint64_t zlo,
                          uint64_t zhi,
                          const std::unordered_set<UserId>* wanted,
                          std::unordered_set<UserId>* found,
                          size_t* remaining,
                          std::vector<SpatialCandidate>* out, Timestamp tq,
                          QueryCounters* counters) const {
  if (zlo > zhi) return Status::OK();
  return ScanKeyRange(
      cursor, CompositeKey::Min(layout_.MakeKey(partition, qsv_lo, zlo)),
      layout_.MakeKey(partition, qsv_hi, zhi), wanted, found, remaining, out,
      tq, counters);
}

// ---------------------------------------------------------------------------
// PRQ
// ---------------------------------------------------------------------------

Result<std::vector<UserId>> PebTree::RangeQueryWithStats(UserId issuer,
                                                         const Rect& range,
                                                         Timestamp tq,
                                                         QueryStats* stats) {
  PEB_RETURN_NOT_OK(ValidateQueryRect(range));
  // Pin the snapshot for the whole query: friends, quantizer, and the
  // tree's keys stay one consistent epoch.
  std::shared_ptr<const EncodingSnapshot> snap = snapshot_;
  if (issuer >= snap->num_users()) {
    return UnknownIssuerError(issuer);
  }
  if (stats == nullptr) {
    return RangeQueryAmong(issuer, range, tq, snap->FriendsOf(issuer));
  }
  stats->epoch = snap->epoch();
  size_t span = telemetry::TraceScope::Open(stats, "peb-tree prq");
  BufferPool::ThreadIoScope io_scope(&stats->io);
  auto result = RangeQueryAmong(issuer, range, tq, snap->FriendsOf(issuer),
                                nullptr, &stats->counters);
  telemetry::TraceScope::Close(stats, span, stats->counters, stats->io);
  return result;
}

Result<std::vector<UserId>> PebTree::RangeQueryAmong(
    UserId issuer, const Rect& range, Timestamp tq,
    const std::vector<FriendEntry>& friends, SharedScanCache* shared,
    QueryCounters* counters) const {
  QueryCounters local;
  QueryCounters* c = counters != nullptr ? counters : &local;
  *c = QueryCounters{};
  switch (options_.prq_strategy) {
    case PrqStrategy::kPerFriendIntervals: {
      std::vector<SvRun> runs = BuildRuns(friends);
      return RangeQueryPerFriend(issuer, range, tq, runs, shared, c);
    }
    case PrqStrategy::kSpanScan:
      return RangeQuerySpan(issuer, range, tq, friends, shared, c);
  }
  return Status::Internal("unknown PRQ strategy");
}

Result<std::vector<UserId>> PebTree::RangeQueryPerFriend(
    UserId issuer, const Rect& range, Timestamp tq, std::vector<SvRun>& runs,
    SharedScanCache* shared, QueryCounters* counters) const {
  std::vector<UserId> results;
  if (runs.empty()) return results;

  std::unordered_set<UserId> found;
  std::vector<SpatialCandidate> candidates;
  candidates.reserve(runs.size());

  ObjectBTree::LeafCursor cursor = tree_.NewCursor();

  for (const auto& [label, count] : label_counts_) {
    Timestamp tlab = options_.index.partitions.LabelTimestamp(label);
    uint32_t partition = options_.index.partitions.PartitionOf(label);
    double d = options_.index.max_speed * std::abs(tq - tlab);
    auto compute = [&]() {
      return ZIntervalsForWindow(grid_, range.Expanded(d),
                                 options_.index.zrange);
    };
    // Cache hits share one immutable decomposition (no per-shard deep
    // copies); the uncached path computes into a local.
    std::vector<CurveInterval> local;
    SharedScanCache::IntervalsPtr cached;
    if (shared == nullptr) {
      local = compute();
    } else {
      cached = shared->PrqIntervals(label, compute);
    }
    const std::vector<CurveInterval>& intervals =
        shared == nullptr ? local : *cached;
    if (intervals.empty()) continue;

    // Runs ascend by qsv and intervals by Z, and qsv sits above zv in the
    // PEB key, so every probe within one label moves the cursor forward.
    for (SvRun& run : runs) {
      // Skip rule: a user has one location; once each of the run's users
      // has been found (in any partition), its remaining ranges are dead.
      // `remaining` is maintained inside the scans, so this is O(1).
      if (run.remaining == 0) continue;
      if (run.qsv_lo != run.qsv_hi) {
        // Coalesced SV run: the rows are adjacent in key space, so ONE
        // scan spanning the whole run replaces |intervals| probes per
        // row. The scan walks each row's (sparse) full extent once —
        // per-interval probing would re-read those same entries once per
        // interval instead, since every probe [lo ⊕ ZVs, hi ⊕ ZVe]
        // crosses all the rows in between.
        PEB_RETURN_NOT_OK(ScanSvRun(&cursor, partition, run.qsv_lo,
                                    run.qsv_hi, intervals.front().lo,
                                    intervals.back().hi, &run.wanted, &found,
                                    &run.remaining, &candidates, tq,
                                    counters));
        continue;
      }
      for (const CurveInterval& iv : intervals) {
        PEB_RETURN_NOT_OK(ScanSvRun(&cursor, partition, run.qsv_lo,
                                    run.qsv_hi, iv.lo, iv.hi, &run.wanted,
                                    &found, &run.remaining, &candidates, tq,
                                    counters));
        if (run.remaining == 0) break;
      }
    }
  }

  for (const SpatialCandidate& cand : candidates) {
    if (range.Contains(cand.pos) && Verify(issuer, cand, tq)) {
      results.push_back(cand.uid);
    }
  }
  std::sort(results.begin(), results.end());
  counters->results = results.size();
  return results;
}

Result<std::vector<UserId>> PebTree::RangeQuerySpan(
    UserId issuer, const Rect& range, Timestamp tq,
    const std::vector<FriendEntry>& friends, SharedScanCache* shared,
    QueryCounters* counters) const {
  std::vector<UserId> results;
  if (friends.empty()) return results;

  uint32_t sv_min = friends.front().qsv;  // Ascending (qsv, uid).
  uint32_t sv_max = friends.back().qsv;
  std::unordered_set<UserId> wanted;
  for (const FriendEntry& f : friends) wanted.insert(f.uid);
  size_t remaining = wanted.size();
  std::unordered_set<UserId> found;
  std::vector<SpatialCandidate> candidates;
  candidates.reserve(wanted.size());

  ObjectBTree::LeafCursor cursor = tree_.NewCursor();

  for (const auto& [label, count] : label_counts_) {
    Timestamp tlab = options_.index.partitions.LabelTimestamp(label);
    uint32_t partition = options_.index.partitions.PartitionOf(label);
    double d = options_.index.max_speed * std::abs(tq - tlab);
    auto compute = [&]() {
      return ZIntervalsForWindow(grid_, range.Expanded(d),
                                 options_.index.zrange);
    };
    std::vector<CurveInterval> local;
    SharedScanCache::IntervalsPtr cached;
    if (shared == nullptr) {
      local = compute();
    } else {
      cached = shared->PrqIntervals(label, compute);
    }
    const std::vector<CurveInterval>& intervals =
        shared == nullptr ? local : *cached;

    for (const CurveInterval& iv : intervals) {
      // Figure 7 literally: StartPnt = TID ⊕ SVmin ⊕ ZVstart,
      // EndPnt = TID ⊕ SVmax ⊕ ZVend — a single scan spanning every
      // sequence value between the issuer's smallest and largest friend.
      // Note the spans of consecutive intervals interleave in key space
      // (each covers every SV between min and max), so the cursor mostly
      // re-descends here; it still saves the within-span walk.
      PEB_RETURN_NOT_OK(ScanKeyRange(
          &cursor, CompositeKey::Min(layout_.MakeKey(partition, sv_min, iv.lo)),
          layout_.MakeKey(partition, sv_max, iv.hi), &wanted, &found,
          &remaining, &candidates, tq, counters));
      if (remaining == 0) break;
    }
    if (remaining == 0) break;
  }

  for (const SpatialCandidate& cand : candidates) {
    if (range.Contains(cand.pos) && Verify(issuer, cand, tq)) {
      results.push_back(cand.uid);
    }
  }
  std::sort(results.begin(), results.end());
  counters->results = results.size();
  return results;
}

// ---------------------------------------------------------------------------
// PkNN
// ---------------------------------------------------------------------------

double KnnSeedRadiusFor(size_t num_candidates, size_t indexed,
                        size_t population, size_t k, double space_side) {
  // Local density estimate: of the issuer's `num_candidates` friends, only
  // the indexed fraction of the population can be in the index at all.
  double live = 1.0;
  if (population > 0) {
    live = std::min(1.0, static_cast<double>(indexed) /
                             static_cast<double>(population));
  }
  KnnSeedInputs in;
  in.candidate_count =
      std::max(1.0, static_cast<double>(num_candidates) * live);
  in.k = k;
  in.space_side = space_side;
  return EstimateKnnSeedRadius(in);
}

double PebTree::KnnSeedRadius(size_t num_candidates, size_t k) const {
  return KnnSeedRadiusFor(num_candidates, size(), snapshot_->num_users(), k,
                          options_.index.space_side);
}

Result<std::vector<Neighbor>> PebTree::KnnQueryWithStats(UserId issuer,
                                                         const Point& qloc,
                                                         size_t k,
                                                         Timestamp tq,
                                                         QueryStats* stats) {
  PEB_RETURN_NOT_OK(ValidateQueryK(k));
  std::shared_ptr<const EncodingSnapshot> snap = snapshot_;
  if (issuer >= snap->num_users()) {
    return UnknownIssuerError(issuer);
  }
  if (stats == nullptr) {
    return KnnQueryAmong(issuer, qloc, k, tq, snap->FriendsOf(issuer));
  }
  stats->epoch = snap->epoch();
  size_t span = telemetry::TraceScope::Open(stats, "peb-tree pknn");
  BufferPool::ThreadIoScope io_scope(&stats->io);
  auto result = KnnQueryAmong(issuer, qloc, k, tq, snap->FriendsOf(issuer),
                              &stats->counters);
  telemetry::TraceScope::Close(stats, span, stats->counters, stats->io);
  return result;
}

// --- KnnScan: the per-tree PkNN search primitive ---------------------------

PebTree::KnnScan::KnnScan(const PebTree* tree, UserId issuer, Point qloc,
                          Timestamp tq, double rq,
                          const std::vector<FriendEntry>& friends,
                          SharedScanCache* shared)
    : tree_(tree),
      issuer_(issuer),
      qloc_(qloc),
      tq_(tq),
      rq_(rq),
      shared_(shared),
      runs_(BuildRuns(friends)) {
  for (const SvRun& run : runs_) total_wanted_ += run.remaining;
  double space_diag = tree_->options_.index.space_side * std::numbers::sqrt2;
  while (RadiusForRound(max_rounds_ - 1) < space_diag) max_rounds_++;

  cursor_ = tree_->tree_.NewCursor();

  // Snapshot the live labels (stable during the scan).
  const auto& opts = tree_->options_.index;
  for (const auto& [label, count] : tree_->label_counts_) {
    Timestamp tlab = opts.partitions.LabelTimestamp(label);
    labels_.push_back({label, opts.partitions.PartitionOf(label),
                       opts.max_speed * std::abs(tq - tlab)});
  }
  rings_.resize(labels_.size());
}

double PebTree::KnnScan::RadiusForRound(size_t j) const {
  return KnnSeededRadiusForRound(rq_, j);
}

double PebTree::KnnScan::CoveredRadiusAfterDiagonal(size_t d) const {
  double covered = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (runs_[i].remaining == 0) continue;  // Nothing left to find there.
    if (d < i) return 0.0;  // Run not started: no coverage at all yet.
    covered = std::min(covered, RadiusForRound(std::min(d - i,
                                                        max_rounds_ - 1)));
  }
  return covered;
}

const SharedScanCache::RingEntry& PebTree::KnnScan::RingFor(size_t li,
                                                            size_t j) {
  auto& memo = rings_[li];
  while (memo.size() <= j) {
    size_t round = memo.size();
    // The previous round's cumulative covered set — built strictly in
    // round order, so it is already in the memo. Deterministic for a
    // given (query, label, round), which is what lets every shard of a
    // fanned-out query share one copy through the cache.
    auto compute = [&]() -> SharedScanCache::RingEntry {
      Rect rect = Rect::CenteredSquare(qloc_, 2.0 * RadiusForRound(round));
      static const std::vector<CurveInterval> kNone;
      const std::vector<CurveInterval>& covered_in =
          round == 0 ? kNone : *memo[round - 1].covered;
      RingDecomposition rd =
          ZRingForWindow(tree_->grid_, rect.Expanded(labels_[li].enlarge),
                         covered_in, tree_->options_.index.zrange);
      SharedScanCache::RingEntry entry;
      entry.ring = std::make_shared<const std::vector<CurveInterval>>(
          std::move(rd.ring));
      entry.covered = std::make_shared<const std::vector<CurveInterval>>(
          std::move(rd.covered));
      return entry;
    };
    memo.push_back(shared_ == nullptr
                       ? compute()
                       : shared_->KnnRing(labels_[li].label, round, compute));
  }
  return memo[j];
}

void PebTree::KnnScan::InsertVerified(std::vector<Neighbor>* verified) {
  for (const SpatialCandidate& cand : batch_) {
    if (tree_->Verify(issuer_, cand, tq_)) {
      Neighbor nb{cand.uid, cand.pos.DistanceTo(qloc_)};
      auto pos = std::lower_bound(verified->begin(), verified->end(), nb,
                                  [](const Neighbor& a, const Neighbor& b) {
                                    return a.distance < b.distance;
                                  });
      verified->insert(pos, nb);
    }
  }
}

Status PebTree::KnnScan::ScanCell(size_t i, size_t j,
                                  std::vector<Neighbor>* verified) {
  counters_.rounds = std::max(counters_.rounds, j + 1);
  if (RowDone(i)) return Status::OK();
  SvRun& run = runs_[i];
  for (size_t li = 0; li < labels_.size(); ++li) {
    // Exact annulus delta: scan only the intervals new to round j. The
    // persistent cursor carries its leaf position across rounds, so a
    // later round never re-fetches leaves an earlier round examined.
    const SharedScanCache::RingEntry& ring = RingFor(li, j);
    if (ring.ring->empty()) continue;
    PEB_RETURN_NOT_OK(ScanRunIntervals(run, labels_[li].partition, *ring.ring,
                                       verified));
    if (run.remaining == 0) break;
  }
  run.rounds_done = std::max(run.rounds_done, j + 1);
  return Status::OK();
}

Status PebTree::KnnScan::ScanRunIntervals(
    SvRun& run, uint32_t partition,
    const std::vector<CurveInterval>& intervals,
    std::vector<Neighbor>* verified) {
  batch_.clear();
  if (run.qsv_lo != run.qsv_hi) {
    // Coalesced SV run: one scan bounding every interval replaces a probe
    // per (row, interval) — per-interval probing would re-read the run's
    // sparse row extents once per interval.
    PEB_RETURN_NOT_OK(tree_->ScanSvRun(&cursor_, partition, run.qsv_lo,
                                       run.qsv_hi, intervals.front().lo,
                                       intervals.back().hi, &run.wanted,
                                       &found_, &run.remaining, &batch_, tq_,
                                       &counters_));
  } else {
    for (const CurveInterval& iv : intervals) {
      PEB_RETURN_NOT_OK(tree_->ScanSvRun(&cursor_, partition, run.qsv_lo,
                                         run.qsv_hi, iv.lo, iv.hi,
                                         &run.wanted, &found_, &run.remaining,
                                         &batch_, tq_, &counters_));
      if (run.remaining == 0) break;
    }
  }
  InsertVerified(verified);
  return Status::OK();
}

Status PebTree::KnnScan::ScanDiagonal(size_t d,
                                      std::vector<Neighbor>* verified) {
  if (runs_.empty()) return Status::OK();
  size_t i_hi = std::min(d, runs_.size() - 1);
  for (size_t i = 0; i <= i_hi; ++i) {
    size_t j = d - i;
    if (j >= max_rounds_) continue;
    PEB_RETURN_NOT_OK(ScanCell(i, j, verified));
  }
  return Status::OK();
}

Status PebTree::KnnScan::VerticalScan(double dk,
                                      std::vector<Neighbor>* verified) {
  Rect rect = Rect::CenteredSquare(qloc_, 2.0 * dk);
  for (size_t li = 0; li < labels_.size(); ++li) {
    // Scan only the part of the vertical window each run has NOT already
    // covered during its enlargement rounds — usually nothing, since dk is
    // bounded by the last scanned radius.
    auto compute = [&]() -> std::vector<CurveInterval> {
      return ZIntervalsForWindow(tree_->grid_,
                                 rect.Expanded(labels_[li].enlarge),
                                 tree_->options_.index.zrange);
    };
    SharedScanCache::IntervalsPtr vert =
        shared_ == nullptr
            ? std::make_shared<const std::vector<CurveInterval>>(compute())
            : shared_->VerticalIntervals(labels_[li].label, compute);
    if (vert->empty()) continue;
    for (size_t i = 0; i < runs_.size(); ++i) {
      if (RowDone(i)) continue;
      SvRun& run = runs_[i];
      std::vector<CurveInterval> local;
      const std::vector<CurveInterval>* delta = vert.get();
      if (run.rounds_done > 0) {
        local = SubtractIntervals(*vert,
                                  *RingFor(li, run.rounds_done - 1).covered);
        delta = &local;
      }
      if (delta->empty()) continue;
      PEB_RETURN_NOT_OK(
          ScanRunIntervals(run, labels_[li].partition, *delta, verified));
    }
  }
  return Status::OK();
}

PebTree::KnnScan PebTree::NewKnnScan(UserId issuer, const Point& qloc,
                                     Timestamp tq, double rq,
                                     const std::vector<FriendEntry>& friends,
                                     SharedScanCache* shared) const {
  return KnnScan(this, issuer, qloc, tq, rq, friends, shared);
}

// --- single-tree PkNN: drive the scan cell by cell -------------------------

Result<std::vector<Neighbor>> PebTree::KnnQueryAmong(
    UserId issuer, const Point& qloc, size_t k, Timestamp tq,
    const std::vector<FriendEntry>& friends,
    QueryCounters* counters) const {
  if (counters != nullptr) *counters = QueryCounters{};
  std::vector<Neighbor> verified;
  if (k == 0) return verified;  // Among-path tolerance; the public KnnQuery
                                // rejects k == 0 uniformly.
  // The round-0 radius comes from the cost model's candidate-density
  // estimate (most queries close without enlarging).
  KnnScan scan(this, issuer, qloc, tq, KnnSeedRadius(friends.size(), k),
               friends, nullptr);
  size_t m = scan.num_rows();
  if (m == 0) return verified;
  size_t max_rounds = scan.max_rounds();

  // After every cell: with k candidates in hand, run the final vertical
  // scan (Section 5.4) and stop; also stop when every friend is located.
  bool done = false;
  auto after_cell = [&]() -> Result<bool> {
    if (verified.size() >= k) {
      PEB_RETURN_NOT_OK(scan.VerticalScan(verified[k - 1].distance,
                                          &verified));
      return true;
    }
    if (scan.AllFound()) return true;
    return false;
  };

  // Triangular (anti-diagonal) traversal of the (m x max_rounds) matrix,
  // or spatial-first column-major for the ablation variant.
  if (options_.knn_order == KnnOrder::kTriangular) {
    for (size_t d = 0; d < m + max_rounds - 1 && !done; ++d) {
      size_t i_hi = std::min(d, m - 1);
      for (size_t i = 0; i <= i_hi && !done; ++i) {
        size_t j = d - i;
        if (j >= max_rounds) continue;
        PEB_RETURN_NOT_OK(scan.ScanCell(i, j, &verified));
        PEB_ASSIGN_OR_RETURN(done, after_cell());
      }
    }
  } else {
    for (size_t j = 0; j < max_rounds && !done; ++j) {
      for (size_t i = 0; i < m && !done; ++i) {
        PEB_RETURN_NOT_OK(scan.ScanCell(i, j, &verified));
        PEB_ASSIGN_OR_RETURN(done, after_cell());
      }
    }
  }

  if (verified.size() > k) verified.resize(k);
  if (counters != nullptr) {
    *counters = scan.counters();
    counters->results = verified.size();
  }
  return verified;
}

}  // namespace peb
