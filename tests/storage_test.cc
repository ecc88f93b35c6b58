#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"
#include "storage/page.h"

namespace peb {
namespace {

Page MakePage(uint64_t stamp) {
  Page p;
  p.Clear();
  p.WriteAt<uint64_t>(0, stamp);
  p.WriteAt<uint64_t>(kPageSize - 8, ~stamp);
  return p;
}

// ---------------------------------------------------------------------------
// DiskManager: parameterized over both implementations.
// ---------------------------------------------------------------------------

enum class DiskKind { kMemory, kFile };

class DiskManagerTest : public ::testing::TestWithParam<DiskKind> {
 protected:
  void SetUp() override {
    if (GetParam() == DiskKind::kMemory) {
      disk_ = std::make_unique<InMemoryDiskManager>();
    } else {
      path_ = ::testing::TempDir() + "/peb_disk_test.db";
      std::remove(path_.c_str());
      auto fd = std::make_unique<FileDiskManager>(path_);
      ASSERT_TRUE(fd->status().ok()) << fd->status();
      disk_ = std::move(fd);
    }
  }

  void TearDown() override {
    disk_.reset();
    if (!path_.empty()) std::remove(path_.c_str());
  }

  std::unique_ptr<DiskManager> disk_;
  std::string path_;
};

TEST_P(DiskManagerTest, AllocateReadWriteRoundtrip) {
  auto r = disk_->Allocate();
  ASSERT_TRUE(r.ok());
  PageId id = *r;
  Page w = MakePage(0xDEADBEEF);
  ASSERT_TRUE(disk_->Write(id, w).ok());
  Page out;
  ASSERT_TRUE(disk_->Read(id, &out).ok());
  EXPECT_EQ(out.ReadAt<uint64_t>(0), 0xDEADBEEFull);
  EXPECT_EQ(out.ReadAt<uint64_t>(kPageSize - 8), ~0xDEADBEEFull);
}

TEST_P(DiskManagerTest, FreshPagesAreZeroed) {
  auto r = disk_->Allocate();
  ASSERT_TRUE(r.ok());
  Page out;
  ASSERT_TRUE(disk_->Read(*r, &out).ok());
  EXPECT_EQ(out.ReadAt<uint64_t>(0), 0u);
  EXPECT_EQ(out.ReadAt<uint64_t>(kPageSize - 8), 0u);
}

TEST_P(DiskManagerTest, ManyPagesKeepDistinctContent) {
  std::vector<PageId> ids;
  for (uint64_t i = 0; i < 64; ++i) {
    auto r = disk_->Allocate();
    ASSERT_TRUE(r.ok());
    ids.push_back(*r);
    ASSERT_TRUE(disk_->Write(*r, MakePage(i)).ok());
  }
  for (uint64_t i = 0; i < 64; ++i) {
    Page out;
    ASSERT_TRUE(disk_->Read(ids[i], &out).ok());
    EXPECT_EQ(out.ReadAt<uint64_t>(0), i);
  }
  EXPECT_EQ(disk_->live_pages(), 64u);
}

TEST_P(DiskManagerTest, FreeRejectsDoubleFreeAndReuse) {
  auto r = disk_->Allocate();
  ASSERT_TRUE(r.ok());
  PageId id = *r;
  ASSERT_TRUE(disk_->Free(id).ok());
  EXPECT_FALSE(disk_->Free(id).ok());
  Page out;
  EXPECT_FALSE(disk_->Read(id, &out).ok());
  // The freed slot is recycled by the next allocation, zeroed.
  auto r2 = disk_->Allocate();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, id);
  ASSERT_TRUE(disk_->Read(id, &out).ok());
  EXPECT_EQ(out.ReadAt<uint64_t>(0), 0u);
}

TEST_P(DiskManagerTest, ReadPastCapacityFails) {
  Page out;
  EXPECT_TRUE(disk_->Read(999, &out).IsOutOfRange());
}

// Regression: freed pages used to be forgotten on reopen (the free list was
// never persisted), so a reopened file leaked every freed slot forever and
// could double-serve ids. The superblock now carries the free list.
TEST(FileDiskManagerTest, FreeListSurvivesReopen) {
  const std::string path = ::testing::TempDir() + "/peb_freelist_test.db";
  std::remove(path.c_str());
  std::vector<PageId> freed;
  {
    FileDiskManager disk(path);
    ASSERT_TRUE(disk.status().ok());
    std::vector<PageId> ids;
    for (uint64_t i = 0; i < 8; ++i) {
      auto r = disk.Allocate();
      ASSERT_TRUE(r.ok());
      ids.push_back(*r);
      ASSERT_TRUE(disk.Write(*r, MakePage(i)).ok());
    }
    for (size_t i : {1u, 4u, 6u}) {
      ASSERT_TRUE(disk.Free(ids[i]).ok());
      freed.push_back(ids[i]);
    }
    ASSERT_TRUE(disk.Commit("", 1, 0, true).ok());
  }
  auto reopened = FileDiskManager::OpenExisting(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto& disk = **reopened;
  EXPECT_EQ(disk.capacity(), 8u);
  EXPECT_EQ(disk.live_pages(), 5u);
  // Freed slots stayed freed across the reopen: reads reject them...
  Page out;
  for (PageId id : freed) EXPECT_FALSE(disk.Read(id, &out).ok());
  // ...and the next allocations recycle them instead of growing the file.
  for (int i = 0; i < 3; ++i) {
    auto r = disk.Allocate();
    ASSERT_TRUE(r.ok());
    EXPECT_NE(std::find(freed.begin(), freed.end(), *r), freed.end())
        << "allocation " << i << " returned fresh page " << *r;
  }
  EXPECT_EQ(disk.capacity(), 8u);
  std::remove(path.c_str());
}

// Regression: create-mode construction used to fopen("w+b"), silently
// truncating any database already at the path.
TEST(FileDiskManagerTest, CreateRefusesToClobberExistingDatabase) {
  const std::string path = ::testing::TempDir() + "/peb_clobber_test.db";
  std::remove(path.c_str());
  {
    FileDiskManager disk(path);
    ASSERT_TRUE(disk.status().ok());
    auto r = disk.Allocate();
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(disk.Write(*r, MakePage(7)).ok());
    ASSERT_TRUE(disk.Commit("survivor", 1, 0, true).ok());
  }
  {
    FileDiskManager clobber(path);
    EXPECT_TRUE(clobber.status().IsInvalidArgument()) << clobber.status();
  }
  // The refusal left the database untouched.
  {
    auto reopened = FileDiskManager::OpenExisting(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ((*reopened)->metadata(), "survivor");
  }
  // An explicit opt-in recreates it.
  FileDiskOptions opts;
  opts.overwrite_existing = true;
  FileDiskManager fresh(path, opts);
  EXPECT_TRUE(fresh.status().ok()) << fresh.status();
  EXPECT_EQ(fresh.capacity(), 0u);
  std::remove(path.c_str());
}

// Regression: Commit() used to pick the previous superblock's free-list
// overflow chain pages as the new generation's spill pages, physically
// overwriting them before the new superblock was durable. A crash between
// the spill write and the superblock publish then fell back to the old
// superblock, whose chain was clobbered — OpenExisting reported Corruption
// and the database was unrecoverable.
TEST(FileDiskManagerTest, CrashBetweenSpillWriteAndSuperblockKeepsOldChain) {
  const std::string path = ::testing::TempDir() + "/peb_spill_crash_test.db";
  std::remove(path.c_str());
  FaultInjector injector;
  // Enough free pages that the free list overflows the inline superblock
  // area on every commit: ~1007 entries fit inline with empty metadata.
  constexpr size_t kPages = 1200;
  constexpr size_t kFreed = 1100;
  {
    FileDiskManager disk(path, {}, &injector);
    ASSERT_TRUE(disk.status().ok()) << disk.status();
    std::vector<PageId> ids;
    for (size_t i = 0; i < kPages; ++i) {
      auto r = disk.Allocate();
      ASSERT_TRUE(r.ok());
      ids.push_back(*r);
    }
    for (size_t i = 0; i < kFreed; ++i) ASSERT_TRUE(disk.Free(ids[i]).ok());
    ASSERT_TRUE(disk.Commit("", 1, 0, false).ok());
    // Second commit: its only physical writes are the new spill page(s)
    // and the superblock. Tear the very first one — with the old bug that
    // write landed on the committed generation's chain page.
    ASSERT_TRUE(disk.Free(ids[kFreed]).ok());
    injector.torn_on_crash.store(true);
    injector.writes_until_crash.store(0);
    EXPECT_FALSE(disk.Commit("", 2, 0, false).ok());
  }
  // The crashed commit never published: the previous generation — chain
  // pages included — must reopen intact.
  auto reopened = FileDiskManager::OpenExisting(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->checkpoint_seq(), 1u);
  // +1: the generation's chain page is reserved off the free list.
  EXPECT_EQ((*reopened)->live_pages(), kPages - kFreed + 1);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllDisks, DiskManagerTest,
                         ::testing::Values(DiskKind::kMemory, DiskKind::kFile),
                         [](const auto& param_info) {
                           return param_info.param == DiskKind::kMemory
                                      ? "Memory"
                                      : "File";
                         });

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

class BufferPoolTest : public ::testing::Test {
 protected:
  void MakePool(size_t capacity, size_t shards = 1) {
    pool_ = std::make_unique<BufferPool>(&disk_,
                                         BufferPoolOptions{capacity, shards});
  }

  /// Allocates `n` pages directly on disk, stamped with their index.
  std::vector<PageId> Preallocate(size_t n) {
    std::vector<PageId> ids;
    for (size_t i = 0; i < n; ++i) {
      auto r = disk_.Allocate();
      EXPECT_TRUE(r.ok());
      Page p = MakePage(i);
      EXPECT_TRUE(disk_.Write(*r, p).ok());
      ids.push_back(*r);
    }
    return ids;
  }

  InMemoryDiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(BufferPoolTest, FetchMissThenHit) {
  MakePool(4);
  auto ids = Preallocate(1);
  {
    auto g = pool_->FetchPage(ids[0]);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->page()->ReadAt<uint64_t>(0), 0u);
  }
  EXPECT_EQ(pool_->stats().physical_reads, 1u);
  {
    auto g = pool_->FetchPage(ids[0]);
    ASSERT_TRUE(g.ok());
  }
  EXPECT_EQ(pool_->stats().physical_reads, 1u);  // Second fetch was a hit.
  EXPECT_EQ(pool_->stats().cache_hits, 1u);
  EXPECT_EQ(pool_->stats().logical_fetches, 2u);
  EXPECT_NEAR(pool_->stats().HitRatio(), 0.5, 1e-9);
}

TEST_F(BufferPoolTest, ClockGivesReferencedPagesASecondChance) {
  // Clock sweep (second-chance LRU approximation): a page whose reference
  // bit is set survives a sweep in which an unreferenced page is victim.
  MakePool(2);
  auto ids = Preallocate(4);
  { auto g = pool_->FetchPage(ids[0]); ASSERT_TRUE(g.ok()); }  // A
  { auto g = pool_->FetchPage(ids[1]); ASSERT_TRUE(g.ok()); }  // B
  // C's victim sweep clears both reference bits, then evicts A (first in
  // clock order); C enters with its reference bit set.
  { auto g = pool_->FetchPage(ids[2]); ASSERT_TRUE(g.ok()); }
  // D finds B unreferenced and evicts it; C's bit saves C.
  { auto g = pool_->FetchPage(ids[3]); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(pool_->stats().physical_reads, 4u);
  { auto g = pool_->FetchPage(ids[2]); ASSERT_TRUE(g.ok()); }  // C: still hit.
  EXPECT_EQ(pool_->stats().physical_reads, 4u);
  EXPECT_EQ(pool_->stats().cache_hits, 1u);
  { auto g = pool_->FetchPage(ids[1]); ASSERT_TRUE(g.ok()); }  // B: miss again.
  EXPECT_EQ(pool_->stats().physical_reads, 5u);
}

TEST_F(BufferPoolTest, DirtyPageWrittenBackOnEviction) {
  MakePool(1);
  auto ids = Preallocate(2);
  {
    auto g = pool_->FetchPage(ids[0]);
    ASSERT_TRUE(g.ok());
    g->page()->WriteAt<uint64_t>(0, 777);
    g->MarkDirty();
  }
  { auto g = pool_->FetchPage(ids[1]); ASSERT_TRUE(g.ok()); }  // Evicts 0.
  EXPECT_EQ(pool_->stats().physical_writes, 1u);
  Page raw;
  ASSERT_TRUE(disk_.Read(ids[0], &raw).ok());
  EXPECT_EQ(raw.ReadAt<uint64_t>(0), 777u);
}

TEST_F(BufferPoolTest, CleanPageNotWrittenBack) {
  MakePool(1);
  auto ids = Preallocate(2);
  { auto g = pool_->FetchPage(ids[0]); ASSERT_TRUE(g.ok()); }
  { auto g = pool_->FetchPage(ids[1]); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(pool_->stats().physical_writes, 0u);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  MakePool(2);
  auto ids = Preallocate(3);
  auto g0 = pool_->FetchPage(ids[0]);
  ASSERT_TRUE(g0.ok());
  auto g1 = pool_->FetchPage(ids[1]);
  ASSERT_TRUE(g1.ok());
  // Pool full of pinned pages: a third fetch must fail.
  auto g2 = pool_->FetchPage(ids[2]);
  EXPECT_TRUE(g2.status().IsResourceExhausted());
  // Releasing one pin unblocks the fetch.
  g1->Release();
  auto g2b = pool_->FetchPage(ids[2]);
  EXPECT_TRUE(g2b.ok());
}

TEST_F(BufferPoolTest, PinCountTracksGuards) {
  MakePool(4);
  auto ids = Preallocate(1);
  EXPECT_EQ(pool_->PinCount(ids[0]), 0);
  {
    auto g1 = pool_->FetchPage(ids[0]);
    ASSERT_TRUE(g1.ok());
    EXPECT_EQ(pool_->PinCount(ids[0]), 1);
    {
      auto g2 = pool_->FetchPage(ids[0]);
      ASSERT_TRUE(g2.ok());
      EXPECT_EQ(pool_->PinCount(ids[0]), 2);
    }
    EXPECT_EQ(pool_->PinCount(ids[0]), 1);
  }
  EXPECT_EQ(pool_->PinCount(ids[0]), 0);
}

TEST_F(BufferPoolTest, MoveTransfersPin) {
  MakePool(4);
  auto ids = Preallocate(1);
  auto g = pool_->FetchPage(ids[0]);
  ASSERT_TRUE(g.ok());
  PageGuard moved = std::move(*g);
  EXPECT_TRUE(moved.valid());
  EXPECT_FALSE(g->valid());
  EXPECT_EQ(pool_->PinCount(ids[0]), 1);
  moved.Release();
  EXPECT_EQ(pool_->PinCount(ids[0]), 0);
}

TEST_F(BufferPoolTest, NewPageIsPinnedZeroedAndDirty) {
  MakePool(2);
  auto g = pool_->NewPage();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->page()->ReadAt<uint64_t>(0), 0u);
  EXPECT_EQ(pool_->PinCount(g->id()), 1);
  PageId id = g->id();
  g->page()->WriteAt<uint64_t>(0, 42);
  g->Release();
  ASSERT_TRUE(pool_->FlushAll().ok());
  Page raw;
  ASSERT_TRUE(disk_.Read(id, &raw).ok());
  EXPECT_EQ(raw.ReadAt<uint64_t>(0), 42u);
}

TEST_F(BufferPoolTest, DeletePageEvictsAndFrees) {
  MakePool(2);
  auto g = pool_->NewPage();
  ASSERT_TRUE(g.ok());
  PageId id = g->id();
  EXPECT_FALSE(pool_->DeletePage(id).ok());  // Still pinned.
  g->Release();
  EXPECT_TRUE(pool_->DeletePage(id).ok());
  EXPECT_FALSE(pool_->FetchPage(id).ok());  // Freed on disk.
  EXPECT_EQ(pool_->resident(), 0u);
}

TEST_F(BufferPoolTest, ResetStatsZeroesCounters) {
  MakePool(2);
  auto ids = Preallocate(1);
  { auto g = pool_->FetchPage(ids[0]); ASSERT_TRUE(g.ok()); }
  pool_->ResetStats();
  EXPECT_EQ(pool_->stats().physical_reads, 0u);
  EXPECT_EQ(pool_->stats().logical_fetches, 0u);
}

TEST_F(BufferPoolTest, ScanLargerThanPoolThrashes) {
  // Sequential scan over 3x the pool size: every fetch is a miss both
  // passes (classic sequential-flooding behavior; clock degrades to FIFO
  // here exactly as LRU does).
  MakePool(10);
  auto ids = Preallocate(30);
  for (int pass = 0; pass < 2; ++pass) {
    for (PageId id : ids) {
      auto g = pool_->FetchPage(id);
      ASSERT_TRUE(g.ok());
    }
  }
  EXPECT_EQ(pool_->stats().physical_reads, 60u);
  EXPECT_EQ(pool_->stats().cache_hits, 0u);
}

TEST_F(BufferPoolTest, ShardedPoolKeepsSemanticsAndAggregatesStats) {
  MakePool(16, 4);
  EXPECT_EQ(pool_->num_shards(), 4u);
  EXPECT_EQ(pool_->capacity(), 16u);
  auto ids = Preallocate(12);
  for (PageId id : ids) {
    auto g = pool_->FetchPage(id);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->page()->ReadAt<uint64_t>(0), static_cast<uint64_t>(id));
  }
  for (PageId id : ids) {
    auto g = pool_->FetchPage(id);  // All resident: every fetch a hit.
    ASSERT_TRUE(g.ok());
  }
  EXPECT_EQ(pool_->stats().physical_reads, 12u);
  EXPECT_EQ(pool_->stats().cache_hits, 12u);
  EXPECT_EQ(pool_->stats().logical_fetches, 24u);
  EXPECT_EQ(pool_->resident(), 12u);
}

TEST_F(BufferPoolTest, ShardCountIsClampedToCapacity) {
  MakePool(3, 64);  // Every shard must own at least one frame.
  EXPECT_EQ(pool_->num_shards(), 3u);
  auto ids = Preallocate(3);
  for (PageId id : ids) {
    auto g = pool_->FetchPage(id);
    ASSERT_TRUE(g.ok());
  }
  EXPECT_EQ(pool_->stats().physical_reads, 3u);
}

// Concurrent torture: parallel Fetch/MarkDirty/evict traffic across shards.
// Writer threads own disjoint page subsets and bump a per-page counter on
// every visit; reader threads fetch random pages. The pool is much smaller
// than the page set, so evictions (with dirty write-back) happen constantly
// under contention. Afterwards: no pin leaks, no lost dirty pages (every
// page's durable counter equals the increments its owner performed).
TEST_F(BufferPoolTest, ConcurrentTortureAcrossShards) {
  constexpr size_t kPages = 256;
  constexpr size_t kWriters = 4;
  constexpr size_t kReaders = 3;
  constexpr size_t kOpsPerWriter = 4000;
  constexpr size_t kOpsPerReader = 4000;
  // 8 frames per shard: more live pins than one shard's frames can never
  // happen (7 threads x 1 pin), so ResourceExhausted is impossible while
  // eviction traffic stays heavy (256 pages through 64 frames).
  MakePool(64, 8);
  auto ids = Preallocate(kPages);

  std::atomic<bool> failed{false};
  std::vector<size_t> increments(kPages, 0);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      uint64_t rng = 0x9E3779B97F4A7C15ull * (w + 1);
      for (size_t op = 0; op < kOpsPerWriter; ++op) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        // Writers own disjoint residues mod kWriters.
        size_t slot = (rng >> 33) % (kPages / kWriters) * kWriters + w;
        auto g = pool_->FetchPage(ids[slot]);
        if (!g.ok()) {
          failed.store(true);
          return;
        }
        uint64_t v = g->page()->ReadAt<uint64_t>(8);
        g->page()->WriteAt<uint64_t>(8, v + 1);
        g->MarkDirty();
      }
    });
  }
  // Count the increments deterministically (same per-thread sequence).
  for (size_t w = 0; w < kWriters; ++w) {
    uint64_t rng = 0x9E3779B97F4A7C15ull * (w + 1);
    for (size_t op = 0; op < kOpsPerWriter; ++op) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      size_t slot = (rng >> 33) % (kPages / kWriters) * kWriters + w;
      increments[slot]++;
    }
  }
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      uint64_t rng = 0xDEADBEEFull * (r + 1);
      for (size_t op = 0; op < kOpsPerReader; ++op) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        size_t slot = (rng >> 33) % kPages;
        auto g = pool_->FetchPage(ids[slot]);
        if (!g.ok()) {
          failed.store(true);
          return;
        }
        // Stamp written by Preallocate is still intact below the counter.
        if (g->page()->ReadAt<uint64_t>(0) != slot) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(failed.load());

  // Pin counts never went negative and all pins were returned.
  for (size_t i = 0; i < kPages; ++i) {
    EXPECT_EQ(pool_->PinCount(ids[i]), 0) << "page " << i;
  }
  EXPECT_LE(pool_->resident(), pool_->capacity());

  // No lost dirty pages: flush and read back through the raw disk.
  ASSERT_TRUE(pool_->FlushAll().ok());
  for (size_t i = 0; i < kPages; ++i) {
    Page raw;
    ASSERT_TRUE(disk_.Read(ids[i], &raw).ok());
    EXPECT_EQ(raw.ReadAt<uint64_t>(8), increments[i]) << "page " << i;
  }
}

}  // namespace
}  // namespace peb
