// ShardDelta unit tests: per-user visibility by watermark, seq-prefix drains,
// record accounting, and the membership-effect sums the engine's size reads
// are built on.
#include "engine/shard_delta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace peb {
namespace engine {
namespace {

MovingObject At(UserId id, double x) {
  MovingObject o;
  o.id = id;
  o.pos = {x, 0.0};
  return o;
}

MovingObject Tomb(UserId id) {
  MovingObject o;
  o.id = id;
  return o;
}

constexpr uint64_t kAll = ~uint64_t{0};

/// Five batches over users 3, 5, 7 and 9 (effect in brackets):
///   seq 1: user 3 joins at x=1 [+1], user 5 joins at x=1 [+1],
///          user 7 moves to x=1 [0]
///   seq 2: user 9 leaves [-1]
///   seq 3: user 7 moves to x=3 [0]
///   seq 4: user 9 rejoins at x=4 [+1]
///   seq 5: user 3 leaves [-1]
void Fill(ShardDelta* d) {
  d->Append(At(3, 1), false, 1, +1);
  d->Append(At(5, 1), false, 1, +1);
  d->Append(At(7, 1), false, 1, 0);
  d->Append(Tomb(9), true, 2, -1);
  d->Append(At(7, 3), false, 3, 0);
  d->Append(At(9, 4), false, 4, +1);
  d->Append(Tomb(3), true, 5, -1);
}

TEST(ShardDelta, LatestVisibleFollowsTheWatermark) {
  ShardDelta d;
  Fill(&d);
  ShardDelta::Record rec;
  EXPECT_FALSE(d.LatestVisible(7, 0, &rec));
  EXPECT_FALSE(d.LatestVisible(42, kAll, &rec));  // Never buffered.

  struct Want {
    UserId uid;
    uint64_t watermark;
    bool visible;
    uint64_t seq;
    bool tombstone;
    double x;
  };
  const std::vector<Want> wants = {
      {7, 1, true, 1, false, 1.0}, {7, 2, true, 1, false, 1.0},
      {7, 3, true, 3, false, 3.0}, {7, kAll, true, 3, false, 3.0},
      {9, 1, false, 0, false, 0.0}, {9, 2, true, 2, true, 0.0},
      {9, 3, true, 2, true, 0.0},   {9, 4, true, 4, false, 4.0},
      {3, 4, true, 1, false, 1.0},  {3, 5, true, 5, true, 0.0},
  };
  for (const Want& w : wants) {
    const std::string at = "user " + std::to_string(w.uid) + " watermark " +
                           std::to_string(w.watermark);
    ASSERT_EQ(d.LatestVisible(w.uid, w.watermark, &rec), w.visible) << at;
    if (!w.visible) continue;
    EXPECT_EQ(rec.seq, w.seq) << at;
    EXPECT_EQ(rec.tombstone, w.tombstone) << at;
    EXPECT_EQ(rec.state.id, w.uid) << at;
    if (!w.tombstone) {
      EXPECT_EQ(rec.state.pos.x, w.x) << at;
    }
  }
}

TEST(ShardDelta, DrainUpToRemovesExactlyTheSeqPrefix) {
  ShardDelta d;
  Fill(&d);
  // seq <= 3: users 3 (seq 1), 5 (seq 1), 7 (seqs 1 and 3), 9 (seq 2).
  const auto drained = d.DrainUpTo(3);
  ASSERT_EQ(drained.size(), 4u);
  const std::vector<UserId> uids = {3, 5, 7, 9};  // Ascending by uid.
  const std::vector<uint64_t> seqs = {1, 1, 3, 2};
  const std::vector<bool> tombs = {false, false, false, true};
  for (size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i].first, uids[i]) << i;
    EXPECT_EQ(drained[i].second.seq, seqs[i]) << i;
    EXPECT_EQ(drained[i].second.tombstone, tombs[i]) << i;
  }
  EXPECT_EQ(drained[2].second.state.pos.x, 3.0);  // User 7's latest.

  // Only seqs 4 and 5 remain.
  std::vector<std::pair<UserId, uint64_t>> left;
  d.ForEachRecord([&](UserId uid, const ShardDelta::Record& rec) {
    left.emplace_back(uid, rec.seq);
  });
  std::sort(left.begin(), left.end());
  EXPECT_EQ(left, (std::vector<std::pair<UserId, uint64_t>>{{3, 5}, {9, 4}}));
  ShardDelta::Record rec;
  EXPECT_FALSE(d.LatestVisible(7, kAll, &rec));
  EXPECT_FALSE(d.LatestVisible(5, kAll, &rec));
  EXPECT_FALSE(d.LatestVisible(3, 4, &rec));  // Seq 1 is gone, 5 invisible.
  ASSERT_TRUE(d.LatestVisible(3, 5, &rec));
  EXPECT_TRUE(rec.tombstone);
  ASSERT_TRUE(d.LatestVisible(9, kAll, &rec));
  EXPECT_EQ(rec.seq, 4u);

  EXPECT_TRUE(d.DrainUpTo(3).empty());  // Nothing left at or below 3.
}

TEST(ShardDelta, RecordsCountsBufferedAppends) {
  ShardDelta d;
  EXPECT_EQ(d.records(), 0u);
  EXPECT_EQ(d.appended_total(), 0u);
  Fill(&d);
  EXPECT_EQ(d.records(), 7u);
  EXPECT_EQ(d.appended_total(), 7u);
  (void)d.DrainUpTo(2);  // Seq 1 (three records) and seq 2 (one).
  EXPECT_EQ(d.records(), 3u);
  (void)d.DrainUpTo(0);  // Nothing at or below 0.
  EXPECT_EQ(d.records(), 3u);
  d.Append(At(5, 6), false, 6, 0);
  EXPECT_EQ(d.records(), 4u);
  (void)d.DrainUpTo(kAll);
  EXPECT_EQ(d.records(), 0u);
  EXPECT_EQ(d.appended_total(), 8u);  // Lifetime: drains never subtract.
}

TEST(ShardDelta, EffectSumsFollowTheWatermarkAcrossDrains) {
  ShardDelta d;
  EXPECT_EQ(d.EffectUpTo(kAll), 0);
  Fill(&d);
  // Running sums of +2, -1, 0, +1, -1 by seq.
  const std::vector<int64_t> before = {0, 2, 1, 1, 2, 1};
  for (uint64_t w = 0; w < before.size(); ++w) {
    EXPECT_EQ(d.EffectUpTo(w), before[w]) << "watermark " << w;
  }
  EXPECT_EQ(d.EffectUpTo(kAll), 1);

  // A partial drain takes its prefix's effects with it: what stays buffered
  // is the rest, so drained + buffered still equals the sum before.
  const int64_t drained = d.EffectUpTo(2);
  (void)d.DrainUpTo(2);
  EXPECT_EQ(d.EffectUpTo(2), 0);
  for (uint64_t w = 2; w < before.size(); ++w) {
    EXPECT_EQ(drained + d.EffectUpTo(w), before[w]) << "watermark " << w;
  }

  // Appends after a drain keep summing; a later batch stays invisible to
  // an older watermark.
  d.Append(At(11, 6), false, 6, +1);
  d.Append(At(12, 6), false, 6, +1);
  EXPECT_EQ(d.EffectUpTo(5), 0);
  EXPECT_EQ(d.EffectUpTo(6), 2);
  (void)d.DrainUpTo(kAll);
  EXPECT_EQ(d.EffectUpTo(kAll), 0);
}

}  // namespace
}  // namespace engine
}  // namespace peb
