// BufferPool: a sharded, clock-sweep page cache over a DiskManager.
//
// The paper's experiments report I/O cost under "a 50-page LRU buffer"
// (Section 7.1). IoStats.physical_reads is exactly that metric: the number
// of pages fetched from disk because they were not resident. The clock
// sweep is the classic second-chance approximation of LRU, so the counts
// stay directly comparable to the paper's figures while the pool becomes
// safe for concurrent access:
//
//  * Frames are statically partitioned into S shards by page id. Each shard
//    has its own latch, hash table, free list, clock hand, and IoStats
//    slice, so fetches on different shards never contend.
//  * Pin counts and dirty/reference bits are atomics on the frame. Unpin
//    (the hottest call: once per PageGuard) takes no latch at all.
//  * An eviction of a dirty page writes it back first. Pinned pages are
//    never evicted.
//
// DiskManager implementations are not thread-safe; the pool serializes all
// disk calls behind one internal mutex (page I/O is a memcpy for the
// in-memory manager, so this is never the bottleneck — the contention the
// sharding removes is on the mapping table and replacement state).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace peb {

/// Buffer pool configuration.
struct BufferPoolOptions {
  /// Number of page frames (the paper's default is 50).
  size_t capacity = 50;
  /// Latch shards. 1 (the default) keeps the single sequential replacement
  /// domain of the paper's simulation; concurrent callers (the sharded
  /// engine, torture tests) raise it. Clamped so every shard owns at least
  /// one frame.
  size_t shards = 1;
};

/// Counters for disk and cache traffic.
struct IoStats {
  uint64_t physical_reads = 0;   ///< Pages fetched from the DiskManager.
  uint64_t physical_writes = 0;  ///< Dirty pages written back.
  /// Pages served: FetchPage calls plus FetchIfResident hits (a resident
  /// miss serves nothing and is not counted).
  uint64_t logical_fetches = 0;
  uint64_t cache_hits = 0;       ///< Served from the pool without disk I/O.
  uint64_t evictions = 0;        ///< Resident pages displaced by the clock.

  /// Hit ratio in [0,1]; 0 when no fetches happened.
  double HitRatio() const {
    return logical_fetches == 0
               ? 0.0
               : static_cast<double>(cache_hits) /
                     static_cast<double>(logical_fetches);
  }

  /// The one summation everyone uses (per-shard aggregation, per-task
  /// query attribution) — new counters can't silently drop out of totals.
  IoStats& operator+=(const IoStats& o) {
    physical_reads += o.physical_reads;
    physical_writes += o.physical_writes;
    logical_fetches += o.logical_fetches;
    cache_hits += o.cache_hits;
    evictions += o.evictions;
    return *this;
  }
};

/// One page frame. Metadata the replacement policy and guards touch
/// concurrently is atomic; everything else is guarded by the owning
/// shard's latch.
struct BufferFrame {
  Page page;
  PageId id = kInvalidPageId;
  std::atomic<int> pin_count{0};
  std::atomic<bool> dirty{false};
  /// Clock reference bit (second chance).
  std::atomic<bool> referenced{false};
};

class BufferPool;

/// RAII pin on a buffered page. Unpins on destruction; call MarkDirty()
/// after mutating the page bytes.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, BufferFrame* frame)
      : pool_(pool), id_(frame->id), frame_(frame) {}

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { MoveFrom(other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(other);
    }
    return *this;
  }
  ~PageGuard() { Release(); }

  /// True iff this guard holds a pinned page.
  bool valid() const { return frame_ != nullptr; }
  PageId id() const { return id_; }

  Page* page() { return &frame_->page; }
  const Page* page() const { return &frame_->page; }

  /// Marks the underlying frame dirty so eviction writes it back.
  void MarkDirty() {
    if (frame_ != nullptr) {
      frame_->dirty.store(true, std::memory_order_relaxed);
    }
  }

  /// Explicitly unpins early (idempotent).
  void Release();

 private:
  void MoveFrom(PageGuard& other) {
    pool_ = other.pool_;
    id_ = other.id_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
    other.frame_ = nullptr;
  }

  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
  BufferFrame* frame_ = nullptr;
};

/// Sharded, pin-counted clock buffer pool. Pinned pages are never evicted;
/// an eviction of a dirty page writes it back first. Safe for concurrent
/// use from multiple threads.
class BufferPool {
 public:
  BufferPool(DiskManager* disk, BufferPoolOptions options = {});

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  /// Allocates a new page on disk and returns it pinned (and dirty).
  Result<PageGuard> NewPage();

  /// Fetches page `id`, reading it from disk on a miss. Returns it pinned.
  Result<PageGuard> FetchPage(PageId id);

  /// Fetches `id` only when it is already resident; returns an empty guard
  /// on a miss without touching the disk. A successful call is accounted
  /// as a logical fetch + cache hit; a miss is not accounted at all (no
  /// page was served — the caller's fallback fetch will be). The leaf
  /// cursor uses this to walk sibling chains only while doing so is free.
  PageGuard FetchIfResident(PageId id);

  /// Frees `id` on disk. The page must not be pinned.
  Status DeletePage(PageId id);

  /// Writes back all dirty unpinned frames (does not evict). Frames
  /// pinned at the time of the call are skipped — their holders may still
  /// be mutating the page bytes, which only the pin protects — and are
  /// written back on eviction or a later flush. Call with all guards
  /// released (e.g. before persisting a manifest) to flush everything.
  Status FlushAll();

  /// FlushAll that refuses to skip: a dirty frame that is still pinned is an
  /// error, not a deferral. Checkpoints use this — a checkpoint taken while
  /// a writer still holds a dirty page would silently persist a stale
  /// version of it.
  Status FlushAllStrict();

  /// Cumulative traffic counters, aggregated over shards.
  IoStats stats() const;

  /// Cumulative traffic counters of latch shard `i` alone (i <
  /// num_shards()). The telemetry registry samples these per pool shard so
  /// skew across the replacement domains is visible.
  IoStats ShardStats(size_t i) const;

  /// RAII per-query I/O attribution. While a scope is active on a thread,
  /// every counter this thread bumps on ANY pool is additionally added to
  /// `into` — so a query fanned out over worker threads can sum exact
  /// per-task deltas instead of diffing the global stats() (which
  /// interleaves under concurrency). Scopes nest: the innermost wins for
  /// the duration of its lifetime (a nested task attributes to its own
  /// slot, never double-counting into the outer one). Passing nullptr
  /// suspends attribution for the scope's extent.
  class ThreadIoScope {
   public:
    explicit ThreadIoScope(IoStats* into) : prev_(tls_io_) { tls_io_ = into; }
    ~ThreadIoScope() { tls_io_ = prev_; }

    ThreadIoScope(const ThreadIoScope&) = delete;
    ThreadIoScope& operator=(const ThreadIoScope&) = delete;

   private:
    IoStats* prev_;
  };

  /// Zeroes the traffic counters (used between experiment phases).
  void ResetStats();

  /// Number of frames.
  size_t capacity() const { return frames_.size(); }

  /// Number of latch shards.
  size_t num_shards() const { return shards_.size(); }

  /// Number of resident pages.
  size_t resident() const;

  /// Pin count of `id`; 0 when unpinned or not resident.
  int PinCount(PageId id) const;

  DiskManager* disk() { return disk_; }

  /// Deep structural self-check of every latch shard: the frame table maps
  /// each resident page to a frame carrying exactly that id in this shard's
  /// replacement domain, free-listed frames are empty and unpinned (and
  /// listed once), no frame is simultaneously free and mapped, no valid
  /// frame is orphaned outside both, pin counts are non-negative, and the
  /// clock hand is in range. Returns Corruption naming the first violated
  /// invariant. Safe to call concurrently with normal traffic (each shard
  /// is checked under its latch).
  Status ValidateInvariants() const;

 private:
  friend class PageGuard;
  /// Test-only corruption injection (tests/invariants_test.cc).
  friend struct BufferPoolTestPeer;

  /// Per-shard replacement state. Frames are permanently owned by one
  /// shard; `frames` indexes into the pool-level frame store.
  struct Shard {
    mutable Mutex mu;
    /// Immutable after construction (the frame partition never changes);
    /// the frames' guarded metadata is covered by `mu`, their hot-path
    /// metadata (pin/dirty/reference bits) is atomic.
    std::vector<BufferFrame*> frames;
    std::vector<size_t> free_list GUARDED_BY(mu);  ///< Indices into `frames`.
    std::unordered_map<PageId, size_t> table GUARDED_BY(mu);
    size_t clock_hand GUARDED_BY(mu) = 0;
    IoStats stats GUARDED_BY(mu);
  };

  Shard& ShardOf(PageId id) {
    return *shards_[static_cast<size_t>(id) % shards_.size()];
  }
  const Shard& ShardOf(PageId id) const {
    return *shards_[static_cast<size_t>(id) % shards_.size()];
  }

  void Unpin(BufferFrame* frame);

  /// Finds a frame to (re)use within `shard` (latch held): a free frame,
  /// else a clock-sweep victim (written back when dirty). The returned
  /// frame is detached from the table.
  Result<size_t> GetVictimFrame(Shard& shard) REQUIRES(shard.mu);

  /// Installs `id` into `shard` (latch held) reading it from disk; returns
  /// the frame, pinned.
  Result<BufferFrame*> LoadPage(Shard& shard, PageId id) REQUIRES(shard.mu);

  /// The thread's active per-query attribution target (see ThreadIoScope).
  static thread_local IoStats* tls_io_;

  DiskManager* disk_ PT_GUARDED_BY(disk_mu_);
  /// Serializes DiskManager access (implementations are not thread-safe).
  Mutex disk_mu_;
  std::vector<std::unique_ptr<BufferFrame>> frames_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace peb
