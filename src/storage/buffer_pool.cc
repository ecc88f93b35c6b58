#include "storage/buffer_pool.h"

#include <cassert>
#include <thread>

namespace peb {

namespace {

/// Victim-search retries when every frame of one latch shard is
/// momentarily pinned by concurrent readers. Transient pins clear within
/// a few scheduler yields; a genuinely exhausted shard (every frame held
/// by live guards) still fails fast enough for callers.
constexpr int kPinWaitRetries = 64;

}  // namespace

thread_local IoStats* BufferPool::tls_io_ = nullptr;

void PageGuard::Release() {
  if (pool_ != nullptr && frame_ != nullptr) {
    pool_->Unpin(frame_);
  }
  pool_ = nullptr;
  frame_ = nullptr;
}

BufferPool::BufferPool(DiskManager* disk, BufferPoolOptions options)
    : disk_(disk) {
  assert(options.capacity > 0);
  size_t num_shards = options.shards == 0 ? 1 : options.shards;
  if (num_shards > options.capacity) num_shards = options.capacity;

  frames_.reserve(options.capacity);
  for (size_t i = 0; i < options.capacity; ++i) {
    frames_.push_back(std::make_unique<BufferFrame>());
  }
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Deal frames round-robin so every shard owns capacity/S +- 1 frames.
  for (size_t i = 0; i < options.capacity; ++i) {
    shards_[i % num_shards]->frames.push_back(frames_[i].get());
  }
  for (auto& shard : shards_) {
    // Uncontended (no other thread can see the pool yet) but taken anyway:
    // free_list is guarded, and the analysis checks constructors too.
    MutexLock lock(&shard->mu);
    // Free-list popped from the back: lowest frame index is used first,
    // matching the previous pool's fill order.
    for (size_t i = shard->frames.size(); i > 0; --i) {
      shard->free_list.push_back(i - 1);
    }
  }
}

BufferPool::~BufferPool() {
  // Best-effort flush; errors are ignored in the destructor.
  (void)FlushAll();
}

void BufferPool::Unpin(BufferFrame* frame) {
  int prev = frame->pin_count.fetch_sub(1, std::memory_order_release);
  assert(prev > 0);
  (void)prev;
}

int BufferPool::PinCount(PageId id) const {
  const Shard& shard = ShardOf(id);
  MutexLock lock(&shard.mu);
  auto it = shard.table.find(id);
  return it == shard.table.end()
             ? 0
             : shard.frames[it->second]->pin_count.load(
                   std::memory_order_acquire);
}

Result<size_t> BufferPool::GetVictimFrame(Shard& shard) {
  if (!shard.free_list.empty()) {
    size_t idx = shard.free_list.back();
    shard.free_list.pop_back();
    return idx;
  }
  size_t n = shard.frames.size();
  // Two full sweeps: the first clears reference bits, the second must find
  // an unpinned frame unless every frame is pinned.
  for (size_t step = 0; step < 2 * n; ++step) {
    size_t idx = shard.clock_hand;
    shard.clock_hand = (shard.clock_hand + 1) % n;
    BufferFrame& f = *shard.frames[idx];
    if (f.pin_count.load(std::memory_order_acquire) != 0) continue;
    if (f.referenced.exchange(false, std::memory_order_relaxed)) continue;
    // Victim found. Pins only grow under this shard's latch, which we
    // hold, so the frame cannot be re-pinned while we evict it.
    if (f.dirty.load(std::memory_order_relaxed)) {
      {
        MutexLock disk_lock(&disk_mu_);
        PEB_RETURN_NOT_OK(disk_->Write(f.id, f.page));
      }
      shard.stats.physical_writes++;
      if (tls_io_ != nullptr) tls_io_->physical_writes++;
      f.dirty.store(false, std::memory_order_relaxed);
    }
    shard.table.erase(f.id);
    f.id = kInvalidPageId;
    shard.stats.evictions++;
    if (tls_io_ != nullptr) tls_io_->evictions++;
    return idx;
  }
  return Status::ResourceExhausted("all buffer frames are pinned");
}

Result<BufferFrame*> BufferPool::LoadPage(Shard& shard, PageId id) {
  PEB_ASSIGN_OR_RETURN(size_t idx, GetVictimFrame(shard));
  BufferFrame& f = *shard.frames[idx];
  Status s;
  {
    MutexLock disk_lock(&disk_mu_);
    s = disk_->Read(id, &f.page);
  }
  if (!s.ok()) {
    shard.free_list.push_back(idx);
    return s;
  }
  shard.stats.physical_reads++;
  if (tls_io_ != nullptr) tls_io_->physical_reads++;
  f.id = id;
  f.pin_count.store(1, std::memory_order_relaxed);
  f.dirty.store(false, std::memory_order_relaxed);
  f.referenced.store(true, std::memory_order_relaxed);
  shard.table[id] = idx;
  return &f;
}

Result<PageGuard> BufferPool::NewPage() {
  PageId id;
  {
    MutexLock disk_lock(&disk_mu_);
    PEB_ASSIGN_OR_RETURN(id, disk_->Allocate());
  }
  Shard& shard = ShardOf(id);
  for (int attempt = 0;; ++attempt) {
    {
      MutexLock lock(&shard.mu);
      Result<size_t> victim = GetVictimFrame(shard);
      if (victim.ok()) {
        BufferFrame& f = *shard.frames[*victim];
        f.page.Clear();
        f.id = id;
        f.pin_count.store(1, std::memory_order_relaxed);
        f.dirty.store(true, std::memory_order_relaxed);  // Must reach disk
                                                         // even if never
                                                         // modified again.
        f.referenced.store(true, std::memory_order_relaxed);
        shard.table[id] = *victim;
        return PageGuard(this, &f);
      }
      if (!victim.status().IsResourceExhausted() ||
          attempt >= kPinWaitRetries) {
        return victim.status();
      }
    }
    std::this_thread::yield();  // Concurrent pins drain shortly.
  }
}

Result<PageGuard> BufferPool::FetchPage(PageId id) {
  Shard& shard = ShardOf(id);
  for (int attempt = 0;; ++attempt) {
    {
      MutexLock lock(&shard.mu);
      // Re-check residency every attempt: another thread may have loaded
      // the page while we waited for a pinned shard to drain.
      auto it = shard.table.find(id);
      if (it != shard.table.end()) {
        shard.stats.logical_fetches++;
        shard.stats.cache_hits++;
        if (tls_io_ != nullptr) {
          tls_io_->logical_fetches++;
          tls_io_->cache_hits++;
        }
        BufferFrame& f = *shard.frames[it->second];
        f.pin_count.fetch_add(1, std::memory_order_acquire);
        f.referenced.store(true, std::memory_order_relaxed);
        return PageGuard(this, &f);
      }
      Result<BufferFrame*> f = LoadPage(shard, id);
      if (f.ok()) {
        shard.stats.logical_fetches++;
        if (tls_io_ != nullptr) tls_io_->logical_fetches++;
        return PageGuard(this, *f);
      }
      if (!f.status().IsResourceExhausted() || attempt >= kPinWaitRetries) {
        return f.status();  // Failed fetches served nothing: not counted.
      }
    }
    std::this_thread::yield();  // Concurrent pins drain shortly.
  }
}

PageGuard BufferPool::FetchIfResident(PageId id) {
  Shard& shard = ShardOf(id);
  MutexLock lock(&shard.mu);
  auto it = shard.table.find(id);
  if (it == shard.table.end()) return PageGuard{};
  shard.stats.logical_fetches++;
  shard.stats.cache_hits++;
  if (tls_io_ != nullptr) {
    tls_io_->logical_fetches++;
    tls_io_->cache_hits++;
  }
  BufferFrame& f = *shard.frames[it->second];
  f.pin_count.fetch_add(1, std::memory_order_acquire);
  f.referenced.store(true, std::memory_order_relaxed);
  return PageGuard(this, &f);
}

Status BufferPool::DeletePage(PageId id) {
  Shard& shard = ShardOf(id);
  {
    MutexLock lock(&shard.mu);
    auto it = shard.table.find(id);
    if (it != shard.table.end()) {
      BufferFrame& f = *shard.frames[it->second];
      if (f.pin_count.load(std::memory_order_acquire) > 0) {
        return Status::InvalidArgument("DeletePage on pinned page " +
                                       std::to_string(id));
      }
      f.id = kInvalidPageId;
      f.dirty.store(false, std::memory_order_relaxed);
      f.referenced.store(false, std::memory_order_relaxed);
      shard.free_list.push_back(it->second);
      shard.table.erase(it);
    }
  }
  MutexLock disk_lock(&disk_mu_);
  return disk_->Free(id);
}

Status BufferPool::FlushAll() {
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    for (BufferFrame* f : shard->frames) {
      // Skip pinned frames: their holders may be mid-write on the page
      // bytes. Pins only grow under this latch, so an unpinned frame
      // stays quiescent while we write it.
      if (f->pin_count.load(std::memory_order_acquire) != 0) continue;
      if (f->id != kInvalidPageId &&
          f->dirty.load(std::memory_order_relaxed)) {
        {
          MutexLock disk_lock(&disk_mu_);
          PEB_RETURN_NOT_OK(disk_->Write(f->id, f->page));
        }
        shard->stats.physical_writes++;
        f->dirty.store(false, std::memory_order_relaxed);
      }
    }
  }
  return Status::OK();
}

Status BufferPool::FlushAllStrict() {
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    for (BufferFrame* f : shard->frames) {
      if (f->id == kInvalidPageId ||
          !f->dirty.load(std::memory_order_relaxed)) {
        continue;
      }
      if (f->pin_count.load(std::memory_order_acquire) != 0) {
        return Status::Internal("FlushAllStrict: page " +
                                std::to_string(f->id) +
                                " is dirty but still pinned");
      }
      {
        MutexLock disk_lock(&disk_mu_);
        PEB_RETURN_NOT_OK(disk_->Write(f->id, f->page));
      }
      shard->stats.physical_writes++;
      f->dirty.store(false, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

IoStats BufferPool::stats() const {
  IoStats total;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->stats;
  }
  return total;
}

IoStats BufferPool::ShardStats(size_t i) const {
  const Shard& shard = *shards_[i];
  MutexLock lock(&shard.mu);
  return shard.stats;
}

void BufferPool::ResetStats() {
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    shard->stats = IoStats{};
  }
}

size_t BufferPool::resident() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->table.size();
  }
  return total;
}

namespace {

Status PoolCorruption(size_t shard, const std::string& what) {
  return Status::Corruption("buffer pool shard " + std::to_string(shard) +
                            ": " + what);
}

}  // namespace

Status BufferPool::ValidateInvariants() const {
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    MutexLock lock(&shard.mu);
    const size_t n = shard.frames.size();
    if (n == 0) return PoolCorruption(s, "owns no frames");
    if (shard.clock_hand >= n) {
      return PoolCorruption(
          s, "clock hand " + std::to_string(shard.clock_hand) +
                 " out of range (frames: " + std::to_string(n) + ")");
    }
    // 0 = in use, 1 = free-listed, 2 = mapped by the table.
    std::vector<char> state(n, 0);
    for (size_t idx : shard.free_list) {
      if (idx >= n) {
        return PoolCorruption(s, "free-list index " + std::to_string(idx) +
                                     " out of range");
      }
      if (state[idx] != 0) {
        return PoolCorruption(
            s, "frame " + std::to_string(idx) + " free-listed twice");
      }
      state[idx] = 1;
      const BufferFrame& f = *shard.frames[idx];
      if (f.id != kInvalidPageId) {
        return PoolCorruption(s, "free frame " + std::to_string(idx) +
                                     " still carries page " +
                                     std::to_string(f.id));
      }
      if (f.pin_count.load(std::memory_order_acquire) != 0) {
        return PoolCorruption(
            s, "free frame " + std::to_string(idx) + " is pinned");
      }
    }
    for (const auto& [id, idx] : shard.table) {
      if (idx >= n) {
        return PoolCorruption(s, "table index " + std::to_string(idx) +
                                     " out of range for page " +
                                     std::to_string(id));
      }
      if (state[idx] == 1) {
        return PoolCorruption(s, "frame " + std::to_string(idx) +
                                     " is both free-listed and mapped to "
                                     "page " +
                                     std::to_string(id));
      }
      if (state[idx] == 2) {
        return PoolCorruption(s, "frame " + std::to_string(idx) +
                                     " mapped by two table entries");
      }
      state[idx] = 2;
      const BufferFrame& f = *shard.frames[idx];
      if (f.id != id) {
        return PoolCorruption(s, "table maps page " + std::to_string(id) +
                                     " to a frame carrying page " +
                                     std::to_string(f.id));
      }
      if (&ShardOf(id) != &shard) {
        return PoolCorruption(
            s, "page " + std::to_string(id) + " resident in foreign shard");
      }
      if (f.pin_count.load(std::memory_order_acquire) < 0) {
        return PoolCorruption(s, "page " + std::to_string(id) +
                                     " has negative pin count " +
                                     std::to_string(f.pin_count.load(
                                         std::memory_order_acquire)));
      }
    }
    // Anything neither free nor mapped must be empty: a frame holding a
    // page id that the table does not know about is unreachable (it can
    // never be fetched or evicted) and means the table lost an entry.
    for (size_t idx = 0; idx < n; ++idx) {
      if (state[idx] == 0 && shard.frames[idx]->id != kInvalidPageId) {
        return PoolCorruption(s, "frame " + std::to_string(idx) +
                                     " holds page " +
                                     std::to_string(shard.frames[idx]->id) +
                                     " unknown to the frame table");
      }
    }
  }
  return Status::OK();
}

}  // namespace peb
