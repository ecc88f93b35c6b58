// ShardDelta: the per-shard in-memory delta (memtable) absorbing update
// ingestion in front of one PEB-tree shard.
//
// MOIST scales moving-object ingestion by buffering updates in logs before
// touching the index; this is that idea applied per shard. Writers append
// {state, tombstone, seq} records under the delta's own mutex — never the
// engine-wide state lock — and queries merge the delta with the tree scan:
// a user's latest visible record shadows their tree entry, a tombstone
// suppresses it. Bounded merges (ShardedPebEngine::MergeShards) later drain
// the records into the B+-tree under the existing exclusive section.
//
// Visibility protocol (the engine's half is in sharded_engine.h):
//  * Every record carries the seq of the ingest batch that wrote it. The
//    engine assigns seqs under its ingest lock and publishes the batch by
//    storing the seq into an atomic watermark (release) AFTER all of the
//    batch's appends.
//  * A reader pins the watermark once (acquire) and treats records with
//    seq > watermark as invisible, so it never observes half a batch: the
//    release/acquire pair makes every append of a published batch visible.
//  * Records are append-only per user with strictly ascending seq, so a
//    reader pinned at an older watermark still finds the state it is
//    entitled to even while newer batches land — per-user logs are the
//    memtable's snapshot mechanism. Merges only remove records at or below
//    a bound no active reader can be pinned before (they run under the
//    engine's exclusive state lock, which excludes all readers).
//
// Membership effects: the writer knows whether each record makes its user
// join (+1), leave (-1) or just move (0), and the delta keeps the non-zero
// effects in seq order beside the records. The engine's logical size at a
// watermark is then its tree-resident count plus EffectUpTo(watermark) per
// shard — no per-user walk of the buffered logs.
//
// Thread-safety: fully internally synchronized; records() is a lock-free
// approximation that is exact for any reader whose watermark load already
// synchronized with the publishing store (see the fast-path comment).
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "motion/moving_object.h"

namespace peb {
namespace engine {

class ShardDelta {
 public:
  /// One buffered mutation. Stores the RAW motion state (not a tree key):
  /// keys are computed at merge time under the then-current encoding
  /// snapshot, so policy re-keys (AdoptSnapshot) never have to touch the
  /// delta.
  struct Record {
    MovingObject state;
    uint64_t seq = 0;
    bool tombstone = false;
  };

  /// Appends one record. The caller (the engine's ingest section) assigns
  /// `seq`; seqs must be non-decreasing across calls and a tombstone's
  /// `state` only needs a valid id. `effect` is the record's membership
  /// effect: +1 when the user was absent before it (a join), -1 for the
  /// tombstone of a present user (a leave), 0 for a move.
  void Append(const MovingObject& state, bool tombstone, uint64_t seq,
              int effect) EXCLUDES(mu_);

  /// The latest record for `uid` with seq <= watermark, if any.
  bool LatestVisible(UserId uid, uint64_t watermark, Record* out) const
      EXCLUDES(mu_);

  /// Records currently buffered (all seqs, including unpublished ones).
  /// Lock-free: callers that loaded the watermark with acquire first see an
  /// exact count of the records visible to them (the publishing release
  /// store orders the increments), plus possibly newer invisible ones.
  size_t records() const { return records_.load(std::memory_order_relaxed); }

  /// Lifetime append count (monotone; never decremented by drains).
  uint64_t appended_total() const {
    return appended_total_.load(std::memory_order_relaxed);
  }

  /// Net membership effect of the buffered records with seq <= watermark:
  /// joins minus leaves. O(effects newer than the watermark), which is
  /// usually none — readers pin the newest published batch.
  int64_t EffectUpTo(uint64_t watermark) const EXCLUDES(mu_);

  /// Removes every record with seq <= bound, together with their membership
  /// effects, and returns the latest drained record per user, ascending by
  /// uid (a deterministic apply order for the merge). Records above the
  /// bound — batches published after the merge began, or not yet published
  /// — stay buffered. The caller must apply the drained records to the tree
  /// in the same section that excludes every reader (the engine's exclusive
  /// state lock), so no reader observes the window where a record has left
  /// the delta but not yet reached the tree.
  std::vector<std::pair<UserId, Record>> DrainUpTo(uint64_t bound)
      EXCLUDES(mu_);

  /// Visits every buffered record, per user in append (ascending-seq)
  /// order — the invariant validator's raw view. `fn(uid, record)` runs
  /// under the delta mutex: keep it cheap and do not call back into this
  /// object.
  template <typename Fn>
  void ForEachRecord(Fn fn) const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    for (const auto& [uid, log] : log_) {
      for (const Record& r : log) fn(uid, r);
    }
  }

 private:
  /// The last record of `log` with seq <= watermark (logs ascend by seq).
  static const Record* LatestIn(const std::vector<Record>& log,
                                uint64_t watermark);

  mutable Mutex mu_;
  /// Per-user append-only record logs, ascending seq within each log.
  std::unordered_map<UserId, std::vector<Record>> log_ GUARDED_BY(mu_);
  /// (seq, net effect) of every buffered batch with a non-zero membership
  /// effect, ascending seq (one entry per seq), and the sum of them all.
  std::vector<std::pair<uint64_t, int64_t>> effects_ GUARDED_BY(mu_);
  int64_t effect_total_ GUARDED_BY(mu_) = 0;
  std::atomic<size_t> records_{0};
  std::atomic<uint64_t> appended_total_{0};
};

}  // namespace engine
}  // namespace peb
