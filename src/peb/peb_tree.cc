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
    : options_(options),
      tree_(pool, options.index),
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
  const TimePartitionLayout& partitions = options_.index.partitions;
  int64_t label = partitions.LabelIndexFor(object.tu);
  Point projected = object.PositionAt(partitions.LabelTimestamp(label));
  uint64_t zv = tree_.grid().ZValueOf(projected);
  uint32_t qsv = snapshot_->quantized_sv(object.id);
  return layout_.MakeKey(partitions.PartitionOf(label), qsv, zv);
}

Status PebTree::Insert(const MovingObject& object) {
  // KeyFor indexes the snapshot by id.
  if (object.id >= snapshot_->num_users()) {
    return Status::InvalidArgument("object id outside the policy encoding");
  }
  return tree_.Insert(object, KeyFor(object));
}

Status PebTree::Update(const MovingObject& object) {
  if (tree_.contains(object.id)) {
    PEB_RETURN_NOT_OK(tree_.Delete(object.id));
  }
  return Insert(object);
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

  // Re-key through the normal update path: the delete uses the remembered
  // old key, Insert recomputes KeyFor under the new snapshot. Collect hosted
  // ids first — Update mutates the object table.
  std::vector<UserId> moved;
  if (rekey != nullptr) {
    moved.reserve(rekey->size());
    for (UserId uid : *rekey) {
      if (tree_.contains(uid)) moved.push_back(uid);
    }
  } else {
    // Self-sufficient mode: diff every hosted record's key.
    tree_.ForEach([&](UserId uid, const MovingObject& state, uint64_t key) {
      if (KeyFor(state) != key) moved.push_back(uid);
    });
  }
  for (UserId uid : moved) {
    PEB_ASSIGN_OR_RETURN(MovingObject state, tree_.Get(uid));
    PEB_RETURN_NOT_OK(Update(state));
  }
  return Status::OK();
}

Status PebTree::ValidateInvariants() const {
  return tree_.Validate(
      [this](const MovingObject& object) { return KeyFor(object); });
}

std::vector<PebTree::SvRun> PebTree::BuildRuns(
    const std::vector<FriendEntry>& friends, bool span) {
  std::vector<SvRun> runs;
  runs.reserve(span ? 1 : friends.size());
  for (const FriendEntry& f : friends) {  // Ascending (qsv, uid).
    if (runs.empty() || (!span && f.qsv > runs.back().qsv_hi + kQsvRunGap)) {
      runs.emplace_back();
      runs.back().qsv_lo = f.qsv;
    }
    SvRun& run = runs.back();
    run.qsv_hi = f.qsv;
    if (run.wanted.insert(f.uid).second) run.remaining++;
  }
  for (SvRun& run : runs) run.per_interval = span || run.qsv_lo == run.qsv_hi;
  return runs;
}

Status PebTree::ScanRun(ObjectBTree::LeafCursor* cursor, SvRun& run,
                        uint32_t partition,
                        const std::vector<CurveInterval>& intervals,
                        Timestamp tq, std::unordered_set<UserId>* found,
                        std::vector<SpatialCandidate>* out,
                        QueryCounters* counters) const {
  auto scan = [&](uint64_t zlo, uint64_t zhi) {
    return tree_.Scan(
        cursor, CompositeKey::Min(layout_.MakeKey(partition, run.qsv_lo, zlo)),
        layout_.MakeKey(partition, run.qsv_hi, zhi), counters,
        [&](const CompositeKey& key, const ObjectBTree::LeafCursor& at) {
          if (!run.wanted.contains(key.uid) || !found->insert(key.uid).second) {
            return true;
          }
          MovingObject state = MovingObjectTree::StateOf(key.uid, at.value());
          out->push_back({key.uid, state.PositionAt(tq), state});
          return --run.remaining != 0;
        });
  };
  if (!run.per_interval) {
    // Coalesced SV run: the rows are adjacent in key space, so ONE scan
    // spanning the whole interval list replaces |intervals| probes per
    // row. The scan walks each row's (sparse) full extent once —
    // per-interval probing would re-read those same entries once per
    // interval instead, since every probe [lo ⊕ ZVs, hi ⊕ ZVe] crosses all
    // the rows in between.
    return scan(intervals.front().lo, intervals.back().hi);
  }
  for (const CurveInterval& iv : intervals) {
    PEB_RETURN_NOT_OK(scan(iv.lo, iv.hi));
    if (run.remaining == 0) break;
  }
  return Status::OK();
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
  std::vector<UserId> results;
  std::vector<SvRun> runs = BuildRuns(
      friends, options_.prq_strategy == PrqStrategy::kSpanScan);
  if (runs.empty()) return results;

  std::unordered_set<UserId> found;
  std::vector<SpatialCandidate> candidates;
  candidates.reserve(runs.size());

  ObjectBTree::LeafCursor cursor = tree_.NewCursor();

  for (const LiveLabel& live : tree_.LiveLabels(tq)) {
    auto compute = [&]() {
      return ZIntervalsForWindow(tree_.grid(), range.Expanded(live.enlarge),
                                 options_.index.zrange);
    };
    // Cache hits share one immutable decomposition (no per-shard deep
    // copies); the uncached path computes into a local.
    std::vector<CurveInterval> local_intervals;
    SharedScanCache::IntervalsPtr cached;
    if (shared == nullptr) {
      local_intervals = compute();
    } else {
      cached = shared->PrqIntervals(live.label, compute);
    }
    const std::vector<CurveInterval>& intervals =
        shared == nullptr ? local_intervals : *cached;
    if (intervals.empty()) continue;

    // Runs ascend by qsv and intervals by Z, and qsv sits above zv in the
    // PEB key, so every probe within one label moves the cursor forward.
    for (SvRun& run : runs) {
      // Skip rule: a user has one location; once each of the run's users
      // has been found (in any partition), its remaining ranges are dead.
      // `remaining` is maintained inside the scans, so this is O(1).
      if (run.remaining == 0) continue;
      PEB_RETURN_NOT_OK(ScanRun(&cursor, run, live.partition, intervals, tq,
                                &found, &candidates, c));
    }
  }

  for (const SpatialCandidate& cand : candidates) {
    if (range.Contains(cand.pos) && Verify(issuer, cand, tq)) {
      results.push_back(cand.uid);
    }
  }
  std::sort(results.begin(), results.end());
  c->results = results.size();
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
  labels_ = tree_->tree_.LiveLabels(tq);  // Stable during the scan.
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
      RingDecomposition rd = ZRingForWindow(
          tree_->tree_.grid(), rect.Expanded(labels_[li].enlarge), covered_in,
          tree_->options_.index.zrange);
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
  batch_.clear();
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
    PEB_RETURN_NOT_OK(tree_->ScanRun(&cursor_, run, labels_[li].partition,
                                     *ring.ring, tq_, &found_, &batch_,
                                     &counters_));
    InsertVerified(verified);
    if (run.remaining == 0) break;
  }
  run.rounds_done = std::max(run.rounds_done, j + 1);
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
      return ZIntervalsForWindow(tree_->tree_.grid(),
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
      PEB_RETURN_NOT_OK(tree_->ScanRun(&cursor_, run, labels_[li].partition,
                                       *delta, tq_, &found_, &batch_,
                                       &counters_));
      InsertVerified(verified);
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
