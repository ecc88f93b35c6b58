// DiskManager: the page-granularity persistence interface under the buffer
// pool, with two implementations:
//   * InMemoryDiskManager — pages live in RAM; used by the experiment
//     harness, where "I/O cost" is the count of buffer-pool misses (the
//     metric the paper reports with a simulated 50-page LRU buffer).
//   * FileDiskManager — the durable page store: a real file with dual
//     CRC-protected superblocks, mmap'd I/O with ftruncate capacity
//     doubling, and a persisted free list. On top of DiskManager it offers
//     an atomic Commit() that publishes a checkpoint, an opaque metadata
//     blob (the engine manifest), and introspection of the not-yet-
//     committed overlay for WAL page-image capture. Its physical writes and
//     syncs consult an optional FaultInjector (storage/fault_injection.h).
//
// Crash-safety model (no-steal): every Write()/Allocate()/Free() between
// checkpoints lands in an in-RAM overlay; the backing file changes ONLY
// inside Commit(). A crash at any other moment therefore leaves the file
// exactly as the last checkpoint wrote it. Commit() itself is made atomic by
// the caller journaling the overlay (WAL page images) before Commit touches
// the file, plus the dual alternating-generation superblocks: a torn
// superblock write invalidates one slot's CRC and reopen falls back to the
// other.
//
// File layout (page-sized slots):
//   slot 0, slot 1   superblocks, alternating by generation parity
//   slot i + 2       data page with logical PageId i
//
// Superblock layout (little-endian, one 4 KiB page):
//   off  0  u64  magic "PEB_DB01"
//   off  8  u32  format version
//   off 12  u32  page size
//   off 16  u64  generation (monotone; highest valid slot wins on open)
//   off 24  u64  checkpoint sequence (last WAL seq folded into the file)
//   off 32  u64  encoding epoch (policy snapshot the page contents encode)
//   off 40  u32  next-page watermark
//   off 44  u8   clean-shutdown flag, 3 pad bytes
//   off 48  u32  total free-list entries
//   off 52  u32  free-list entries stored inline in this superblock
//   off 56  u32  overflow chain head (logical PageId, kInvalidPageId = none)
//   off 60  u32  metadata blob length
//   off 64  metadata blob, then 4-byte-aligned inline free-list entries
//   last 4  u32  CRC-32 of bytes [0, kPageSize - 4)
//
// Free-list entries that do not fit inline spill to overflow chain pages
// ([u32 next][u32 count][entries...][u32 crc]) taken from the free list
// itself — a spilled page is deliberately *not* listed as free in the
// superblock, so it cannot be reallocated before the next commit rewrites
// the chain; it returns to the allocatable pool at that commit.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"

namespace peb {

struct FaultInjector;

/// Abstract page store. Not thread-safe; callers serialize (the buffer pool
/// funnels all disk traffic through its own disk mutex).
class DiskManager {
 public:
  virtual ~DiskManager() = default;

  /// Allocates a fresh page and returns its id. Page contents are zeroed.
  virtual Result<PageId> Allocate() = 0;

  /// Releases a page back to the free list. Reading a freed page is an error.
  virtual Status Free(PageId id) = 0;

  /// Reads page `id` into `*out`.
  virtual Status Read(PageId id, Page* out) = 0;

  /// Writes `page` to page `id`.
  virtual Status Write(PageId id, const Page& page) = 0;

  /// Number of pages ever allocated (including freed ones).
  virtual PageId capacity() const = 0;

  /// Number of currently live (allocated, not freed) pages.
  virtual size_t live_pages() const = 0;
};

/// RAM-backed page store.
class InMemoryDiskManager final : public DiskManager {
 public:
  InMemoryDiskManager() = default;

  Result<PageId> Allocate() override;
  Status Free(PageId id) override;
  Status Read(PageId id, Page* out) override;
  Status Write(PageId id, const Page& page) override;
  PageId capacity() const override {
    return static_cast<PageId>(pages_.size());
  }
  size_t live_pages() const override { return pages_.size() - free_.size(); }

 private:
  Status CheckLive(PageId id) const;

  std::vector<std::unique_ptr<Page>> pages_;
  std::vector<bool> freed_;
  std::vector<PageId> free_;
};

struct FileDiskOptions {
  /// Allow create-mode construction to truncate a path that already holds a
  /// valid database. Off (the default) fails creation instead: reopening a
  /// database goes through OpenExisting, and silently recreating over one
  /// is almost always a caller bug that destroys data.
  bool overwrite_existing = false;
};

/// File-backed durable page store. See the file-format comment at the top of
/// this header. Between Commit() calls the store buffers mutations in RAM
/// (the "overlay"); Commit() atomically folds the overlay plus allocation
/// state plus a caller-supplied metadata blob into the backing file. A crash
/// between commits loses only the overlay — the file remains the previous
/// checkpoint.
class FileDiskManager final : public DiskManager {
 public:
  /// Creates `path`, writes an empty generation-1 checkpoint and fsyncs the
  /// parent directory, so the new file's directory entry is durable too.
  /// Refuses a path that already holds a valid database unless
  /// FileDiskOptions::overwrite_existing is set. `injector` (optional)
  /// makes physical writes and syncs crash on cue, from the creation write
  /// on. Check `status()` before use.
  explicit FileDiskManager(std::string path, FileDiskOptions options = {},
                           FaultInjector* injector = nullptr);
  ~FileDiskManager() override;

  /// Opens an existing database file: validates both superblock slots,
  /// adopts the highest valid generation, and restores the next-page
  /// watermark, free list (inline + overflow chain), metadata blob, and
  /// clean-shutdown flag. `injector` is active from the first recovery
  /// write on (double-crash tests crash during recovery's own checkpoint).
  static Result<std::unique_ptr<FileDiskManager>> OpenExisting(
      std::string path, FaultInjector* injector = nullptr);

  FileDiskManager(const FileDiskManager&) = delete;
  FileDiskManager& operator=(const FileDiskManager&) = delete;

  /// Non-OK when the backing file could not be opened or the store has hit
  /// an unrecoverable I/O error.
  Status status() const { return status_; }

  // DiskManager. Reads consult the overlay first, then the committed file;
  // writes/allocates/frees touch only the overlay + RAM allocation state.
  Result<PageId> Allocate() override;
  Status Free(PageId id) override;
  Status Read(PageId id, Page* out) override;
  Status Write(PageId id, const Page& page) override;
  PageId capacity() const override { return next_page_; }
  size_t live_pages() const override { return next_page_ - free_.size(); }

  /// Atomically publishes the overlay + allocation state + `metadata` as the
  /// new checkpoint. `checkpoint_seq` records the WAL sequence folded in;
  /// `epoch` is the encoding epoch; `clean` marks an orderly shutdown.
  Status Commit(const std::string& metadata, uint64_t checkpoint_seq,
                uint64_t epoch, bool clean);

  /// Metadata blob from the last Commit (or the superblock, after reopen).
  const std::string& metadata() const { return metadata_; }

  /// WAL sequence number of the last commit.
  uint64_t checkpoint_seq() const { return checkpoint_seq_; }

  /// True when the last commit marked an orderly shutdown.
  bool clean_shutdown() const { return clean_shutdown_; }

  /// Number of overlay pages dirty since the last commit.
  size_t dirty_page_count() const { return overlay_.size(); }

  /// Visits every overlay page (ascending PageId). The visited pages are
  /// exactly what the next Commit() will write to the file; the engine
  /// journals them as WAL page images before committing.
  void ForEachDirtyPage(
      const std::function<void(PageId, const Page&)>& fn) const;

  /// Snapshot of the current free list (for WAL checkpoint records).
  std::vector<PageId> FreeList() const;

  /// Overwrites the allocation state (next-page watermark + free list) —
  /// recovery uses this to adopt the state recorded by an in-WAL checkpoint
  /// that never reached the superblock.
  Status RestoreAllocationState(PageId next_page,
                                const std::vector<PageId>& free_list);

 private:
  /// OpenExisting's empty store; OpenImpl() then reads the file.
  explicit FileDiskManager(FaultInjector* injector) : injector_(injector) {}

  /// Open-mode initialization: reads and validates the superblocks.
  Status OpenImpl(std::string path);

  Status CheckLive(PageId id) const;

  /// Writes `len` bytes at byte `offset` of the backing file. All durable
  /// bytes — data pages, free-list overflow pages, superblocks — funnel
  /// through here, and so does every injected write crash.
  Status PhysicalWrite(uint64_t offset, const void* data, size_t len);

  /// Durably flushes the backing file (msync + fsync), or fails it with an
  /// injected EIO.
  Status PhysicalSync();

  /// Reads `len` bytes at byte `offset`; reading past the end of the file
  /// is an IOError.
  Status PhysicalRead(uint64_t offset, void* data, size_t len);

  /// Grows the file (and the mapping) to hold at least `bytes`, doubling.
  Status EnsureCapacity(uint64_t bytes);

  /// Builds + writes the superblock for `generation_ + 1` and syncs.
  Status WriteSuperblock(const std::string& metadata, uint64_t checkpoint_seq,
                         uint64_t epoch, bool clean);

  std::string path_;
  FaultInjector* const injector_;
  int fd_ = -1;
  Status status_;

  // The whole file is mapped; remapped whenever EnsureCapacity grows it.
  std::byte* map_ = nullptr;
  uint64_t mapped_bytes_ = 0;
  uint64_t file_bytes_ = 0;

  // Allocation state (RAM; persisted by Commit).
  PageId next_page_ = 0;
  std::vector<bool> freed_;
  std::vector<PageId> free_;

  // Pages written since the last commit. std::map keeps ForEachDirtyPage
  // (and therefore WAL page-image order and commit write order)
  // deterministic.
  std::map<PageId, std::unique_ptr<Page>> overlay_;

  // Free-list overflow chain pages owned by the current committed
  // superblock (excluded from free_ until the next commit rewrites them).
  std::vector<PageId> overflow_pages_;

  // Committed-checkpoint state.
  uint64_t generation_ = 0;
  uint64_t checkpoint_seq_ = 0;
  bool clean_shutdown_ = false;
  std::string metadata_;
  PageId base_pages_ = 0;  ///< next_page_ at the last commit (file contents).
};

/// The durable page store's former interface name, kept as an alias for
/// code that still spells it (the e2e benchmark).
using DurableDiskManager = FileDiskManager;

/// Fsyncs the directory holding `path`, so a file just created there keeps
/// its directory entry across a power cut. IOError on failure. Consults no
/// FaultInjector: it is not one of the counted durable writes.
Status SyncParentDirectory(const std::string& path);

}  // namespace peb
