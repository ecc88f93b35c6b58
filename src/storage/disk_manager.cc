#include "storage/disk_manager.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/crc32.h"
#include "storage/fault_injection.h"

namespace peb {

// ---------------------------------------------------------------------------
// InMemoryDiskManager
// ---------------------------------------------------------------------------

Result<PageId> InMemoryDiskManager::Allocate() {
  if (!free_.empty()) {
    PageId id = free_.back();
    free_.pop_back();
    freed_[id] = false;
    pages_[id]->Clear();
    return id;
  }
  PageId id = static_cast<PageId>(pages_.size());
  auto page = std::make_unique<Page>();
  page->Clear();
  pages_.push_back(std::move(page));
  freed_.push_back(false);
  return id;
}

Status InMemoryDiskManager::CheckLive(PageId id) const {
  if (id >= pages_.size()) {
    return Status::OutOfRange("page id " + std::to_string(id) +
                              " >= capacity " + std::to_string(pages_.size()));
  }
  if (freed_[id]) {
    return Status::InvalidArgument("access to freed page " + std::to_string(id));
  }
  return Status::OK();
}

Status InMemoryDiskManager::Free(PageId id) {
  PEB_RETURN_NOT_OK(CheckLive(id));
  freed_[id] = true;
  free_.push_back(id);
  return Status::OK();
}

Status InMemoryDiskManager::Read(PageId id, Page* out) {
  PEB_RETURN_NOT_OK(CheckLive(id));
  *out = *pages_[id];
  return Status::OK();
}

Status InMemoryDiskManager::Write(PageId id, const Page& page) {
  PEB_RETURN_NOT_OK(CheckLive(id));
  *pages_[id] = page;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FileDiskManager: file format constants
// ---------------------------------------------------------------------------

namespace {

constexpr uint64_t kSbMagic = 0x5045425F44423031ull;  // "PEB_DB01"
constexpr uint32_t kSbFormatVersion = 1;

// Superblock field offsets (see the layout comment in disk_manager.h).
constexpr size_t kSbOffMagic = 0;
constexpr size_t kSbOffVersion = 8;
constexpr size_t kSbOffPageSize = 12;
constexpr size_t kSbOffGeneration = 16;
constexpr size_t kSbOffCheckpointSeq = 24;
constexpr size_t kSbOffEpoch = 32;
constexpr size_t kSbOffNextPage = 40;
constexpr size_t kSbOffClean = 44;
constexpr size_t kSbOffFreeTotal = 48;
constexpr size_t kSbOffFreeInline = 52;
constexpr size_t kSbOffOverflowHead = 56;
constexpr size_t kSbOffMetaLen = 60;
constexpr size_t kSbOffMetaStart = 64;
constexpr size_t kSbCrcOffset = kPageSize - 4;

// Free-list overflow page: [u32 next][u32 count][u32 entries...][u32 crc].
constexpr size_t kOverflowHeaderBytes = 8;
constexpr size_t kOverflowEntryCapacity =
    (kPageSize - kOverflowHeaderBytes - 4) / 4;

constexpr size_t Align4(size_t n) { return (n + 3) & ~size_t{3}; }

uint64_t SlotOffset(uint64_t generation) {
  return (generation % 2) * kPageSize;
}

uint64_t DataOffset(PageId id) {
  return (static_cast<uint64_t>(id) + 2) * kPageSize;
}

/// Whether either superblock slot of `path` carries the database magic.
/// A cheap probe, deliberately weaker than OpenImpl's full validation: a
/// half-created or corrupt database still counts as one for the purpose of
/// refusing to silently truncate it.
bool HoldsDatabase(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  bool holds = false;
  for (int slot = 0; slot < 2 && !holds; ++slot) {
    uint64_t magic = 0;
    holds = ::pread(fd, &magic, sizeof(magic),
                    static_cast<off_t>(slot * kPageSize)) ==
                static_cast<ssize_t>(sizeof(magic)) &&
            magic == kSbMagic;
  }
  ::close(fd);
  return holds;
}

}  // namespace

Status SyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open directory " + dir + ": " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync of directory " + dir + " failed: " +
                           std::strerror(err));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FileDiskManager: lifecycle
// ---------------------------------------------------------------------------

FileDiskManager::FileDiskManager(std::string path, FileDiskOptions options,
                                 FaultInjector* injector)
    : path_(std::move(path)), injector_(injector) {
  if (!options.overwrite_existing && HoldsDatabase(path_)) {
    status_ = Status::InvalidArgument(
        path_ + " already holds a database; reopen it with OpenExisting() "
                "(engine: ShardedPebEngine::Open), or set "
                "overwrite_existing to recreate it");
    return;
  }
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd_ < 0) {
    status_ = Status::IOError("cannot open " + path_ + ": " +
                              std::strerror(errno));
    return;
  }
  status_ = EnsureCapacity(2 * kPageSize);
  if (!status_.ok()) return;
  // An empty generation-1 checkpoint, so a crash right after creation
  // reopens as an empty (and trivially consistent) store.
  status_ = WriteSuperblock(/*metadata=*/"", /*checkpoint_seq=*/0,
                            /*epoch=*/0, /*clean=*/true);
  if (status_.ok()) status_ = SyncParentDirectory(path_);
}

FileDiskManager::~FileDiskManager() {
  if (map_ != nullptr) ::munmap(map_, mapped_bytes_);
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<FileDiskManager>> FileDiskManager::OpenExisting(
    std::string path, FaultInjector* injector) {
  auto dm = std::unique_ptr<FileDiskManager>(new FileDiskManager(injector));
  PEB_RETURN_NOT_OK(dm->OpenImpl(std::move(path)));
  return dm;
}

Status FileDiskManager::OpenImpl(std::string path) {
  path_ = std::move(path);
  fd_ = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
  if (fd_ < 0) {
    status_ = Status::IOError("cannot open existing " + path_ + ": " +
                              std::strerror(errno));
    return status_;
  }
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return status_ = Status::IOError("fstat failed for " + path_ + ": " +
                                     std::strerror(errno));
  }
  file_bytes_ = static_cast<uint64_t>(st.st_size);
  if (file_bytes_ < 2 * kPageSize) {
    return status_ = Status::Corruption(
               path_ + " is too small to hold a superblock (" +
               std::to_string(file_bytes_) + " bytes)");
  }
  void* map = ::mmap(nullptr, file_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd_, 0);
  if (map == MAP_FAILED) {
    return status_ = Status::IOError("mmap failed for " + path_ + ": " +
                                     std::strerror(errno));
  }
  map_ = static_cast<std::byte*>(map);
  mapped_bytes_ = file_bytes_;

  // Pick the valid superblock slot with the highest generation. A torn
  // superblock write fails its CRC and the previous generation wins.
  Page best;
  bool found = false;
  for (int slot = 0; slot < 2; ++slot) {
    Page sb;
    Status read = PhysicalRead(static_cast<uint64_t>(slot) * kPageSize,
                               sb.data(), kPageSize);
    if (!read.ok()) continue;
    if (sb.ReadAt<uint64_t>(kSbOffMagic) != kSbMagic) continue;
    if (sb.ReadAt<uint32_t>(kSbOffVersion) != kSbFormatVersion) continue;
    if (sb.ReadAt<uint32_t>(kSbOffPageSize) != kPageSize) continue;
    if (sb.ReadAt<uint32_t>(kSbCrcOffset) != Crc32(sb.data(), kSbCrcOffset)) {
      continue;
    }
    if (!found ||
        sb.ReadAt<uint64_t>(kSbOffGeneration) >
            best.ReadAt<uint64_t>(kSbOffGeneration)) {
      best = sb;
      found = true;
    }
  }
  if (!found) {
    return status_ =
               Status::Corruption("no valid superblock in " + path_ +
                                  " (bad magic, version, or checksum)");
  }

  generation_ = best.ReadAt<uint64_t>(kSbOffGeneration);
  checkpoint_seq_ = best.ReadAt<uint64_t>(kSbOffCheckpointSeq);
  next_page_ = best.ReadAt<uint32_t>(kSbOffNextPage);
  clean_shutdown_ = best.ReadAt<uint8_t>(kSbOffClean) != 0;
  if (next_page_ > 0 && file_bytes_ < DataOffset(next_page_)) {
    return status_ = Status::Corruption(
               path_ + " truncated: superblock expects " +
               std::to_string(next_page_) + " data pages");
  }

  const uint32_t meta_len = best.ReadAt<uint32_t>(kSbOffMetaLen);
  const uint32_t free_total = best.ReadAt<uint32_t>(kSbOffFreeTotal);
  const uint32_t free_inline = best.ReadAt<uint32_t>(kSbOffFreeInline);
  const PageId overflow_head = best.ReadAt<uint32_t>(kSbOffOverflowHead);
  const size_t entries_start = Align4(kSbOffMetaStart + meta_len);
  if (meta_len > kSbCrcOffset - kSbOffMetaStart ||
      entries_start + size_t{free_inline} * 4 > kSbCrcOffset) {
    return status_ = Status::Corruption("superblock layout overflow in " +
                                        path_);
  }
  metadata_.assign(reinterpret_cast<const char*>(best.data()) + kSbOffMetaStart,
                   meta_len);

  // Restore the free list: inline entries, then the overflow chain. Chain
  // pages themselves stay off the free list until the next commit rewrites
  // them (see the header comment).
  freed_.assign(next_page_, false);
  free_.clear();
  auto add_free = [&](PageId id) -> Status {
    if (id >= next_page_ || freed_[id]) {
      return Status::Corruption("bad free-list entry " + std::to_string(id) +
                                " in " + path_);
    }
    freed_[id] = true;
    free_.push_back(id);
    return Status::OK();
  };
  for (uint32_t i = 0; i < free_inline; ++i) {
    PEB_RETURN_NOT_OK(
        status_ = add_free(best.ReadAt<uint32_t>(entries_start + i * 4)));
  }
  PageId chain = overflow_head;
  while (chain != kInvalidPageId) {
    if (chain >= next_page_ ||
        overflow_pages_.size() > static_cast<size_t>(next_page_)) {
      return status_ = Status::Corruption("bad free-list overflow chain in " +
                                          path_);
    }
    Page op;
    PEB_RETURN_NOT_OK(status_ =
                          PhysicalRead(DataOffset(chain), op.data(), kPageSize));
    if (op.ReadAt<uint32_t>(kSbCrcOffset) != Crc32(op.data(), kSbCrcOffset)) {
      return status_ = Status::Corruption(
                 "free-list overflow page " + std::to_string(chain) +
                 " failed its checksum in " + path_);
    }
    overflow_pages_.push_back(chain);
    const uint32_t count = op.ReadAt<uint32_t>(4);
    if (count > kOverflowEntryCapacity) {
      return status_ = Status::Corruption("bad free-list overflow count in " +
                                          path_);
    }
    for (uint32_t i = 0; i < count; ++i) {
      PEB_RETURN_NOT_OK(
          status_ = add_free(op.ReadAt<uint32_t>(kOverflowHeaderBytes + i * 4)));
    }
    chain = op.ReadAt<uint32_t>(0);
  }
  if (free_.size() != free_total) {
    return status_ = Status::Corruption(
               "free-list count mismatch in " + path_ + ": superblock says " +
               std::to_string(free_total) + ", found " +
               std::to_string(free_.size()));
  }
  for (PageId id : overflow_pages_) freed_[id] = true;
  base_pages_ = next_page_;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FileDiskManager: physical I/O (where injected faults strike)
// ---------------------------------------------------------------------------

Status FileDiskManager::PhysicalWrite(uint64_t offset, const void* data,
                                      size_t len) {
  const size_t landed =
      injector_ == nullptr ? len : injector_->DurablePrefix(len);
  if (landed > 0) {
    PEB_RETURN_NOT_OK(EnsureCapacity(offset + landed));
    std::memcpy(map_ + offset, data, landed);
  }
  if (landed < len) {
    return Status::IOError("injected crash: " + std::to_string(landed) +
                           " of " + std::to_string(len) +
                           " bytes at offset " + std::to_string(offset) +
                           " landed");
  }
  return Status::OK();
}

Status FileDiskManager::PhysicalSync() {
  if (injector_ != nullptr && !injector_->OnSync()) {
    return Status::IOError("injected EIO on sync of " + path_);
  }
  if (map_ != nullptr && ::msync(map_, mapped_bytes_, MS_SYNC) != 0) {
    return Status::IOError("msync failed for " + path_ + ": " +
                           std::strerror(errno));
  }
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync failed for " + path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status FileDiskManager::PhysicalRead(uint64_t offset, void* data, size_t len) {
  if (offset + len > file_bytes_) {
    return Status::IOError("short read at offset " + std::to_string(offset) +
                           " in " + path_ + " (unexpected end of file)");
  }
  std::memcpy(data, map_ + offset, len);
  return Status::OK();
}

Status FileDiskManager::EnsureCapacity(uint64_t bytes) {
  if (bytes <= file_bytes_) return Status::OK();
  uint64_t grown = file_bytes_ == 0 ? 2 * kPageSize : file_bytes_;
  while (grown < bytes) grown *= 2;
  if (::ftruncate(fd_, static_cast<off_t>(grown)) != 0) {
    return Status::IOError("ftruncate to " + std::to_string(grown) +
                           " bytes failed for " + path_ + ": " +
                           std::strerror(errno));
  }
  if (map_ != nullptr) ::munmap(map_, mapped_bytes_);
  map_ = nullptr;
  mapped_bytes_ = 0;
  void* map =
      ::mmap(nullptr, grown, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
  if (map == MAP_FAILED) {
    return Status::IOError("mmap of " + std::to_string(grown) +
                           " bytes failed for " + path_ + ": " +
                           std::strerror(errno));
  }
  map_ = static_cast<std::byte*>(map);
  mapped_bytes_ = grown;
  file_bytes_ = grown;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FileDiskManager: DiskManager surface (overlay semantics)
// ---------------------------------------------------------------------------

Status FileDiskManager::CheckLive(PageId id) const {
  if (id >= next_page_) {
    return Status::OutOfRange("page id " + std::to_string(id) +
                              " >= capacity " + std::to_string(next_page_));
  }
  if (freed_[id]) {
    return Status::InvalidArgument("access to freed page " + std::to_string(id));
  }
  return Status::OK();
}

Result<PageId> FileDiskManager::Allocate() {
  PEB_RETURN_NOT_OK(status_);
  PageId id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
    freed_[id] = false;
  } else {
    id = next_page_++;
    freed_.push_back(false);
  }
  // Fresh pages are zeroed, but only in the overlay: the file does not
  // change until the next Commit().
  auto page = std::make_unique<Page>();
  page->Clear();
  overlay_[id] = std::move(page);
  return id;
}

Status FileDiskManager::Free(PageId id) {
  PEB_RETURN_NOT_OK(status_);
  PEB_RETURN_NOT_OK(CheckLive(id));
  freed_[id] = true;
  free_.push_back(id);
  overlay_.erase(id);
  return Status::OK();
}

Status FileDiskManager::Read(PageId id, Page* out) {
  PEB_RETURN_NOT_OK(status_);
  PEB_RETURN_NOT_OK(CheckLive(id));
  auto it = overlay_.find(id);
  if (it != overlay_.end()) {
    *out = *it->second;
    return Status::OK();
  }
  if (id < base_pages_) {
    return PhysicalRead(DataOffset(id), out->data(), kPageSize);
  }
  // Allocated after the last checkpoint but absent from the overlay: only
  // reachable if recovery restored a watermark without replaying the page
  // images that back it.
  return Status::Corruption("page " + std::to_string(id) +
                            " is beyond the committed file and has no "
                            "buffered content");
}

Status FileDiskManager::Write(PageId id, const Page& page) {
  PEB_RETURN_NOT_OK(status_);
  PEB_RETURN_NOT_OK(CheckLive(id));
  auto it = overlay_.find(id);
  if (it != overlay_.end()) {
    *it->second = page;
  } else {
    overlay_[id] = std::make_unique<Page>(page);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FileDiskManager: checkpoint surface
// ---------------------------------------------------------------------------

void FileDiskManager::ForEachDirtyPage(
    const std::function<void(PageId, const Page&)>& fn) const {
  for (const auto& [id, page] : overlay_) fn(id, *page);
}

std::vector<PageId> FileDiskManager::FreeList() const { return free_; }

Status FileDiskManager::RestoreAllocationState(
    PageId next_page, const std::vector<PageId>& free_list) {
  PEB_RETURN_NOT_OK(status_);
  next_page_ = next_page;
  freed_.assign(next_page_, false);
  free_.clear();
  for (PageId id : free_list) {
    if (id >= next_page_ || freed_[id]) {
      return status_ = Status::Corruption(
                 "bad restored free-list entry " + std::to_string(id));
    }
    freed_[id] = true;
    free_.push_back(id);
  }
  // Overflow chain pages of the opened superblock that the restored state
  // lists as free again are no longer the chain's responsibility; the rest
  // stay reserved until the next commit rewrites the chain.
  std::vector<PageId> kept;
  for (PageId id : overflow_pages_) {
    if (id < next_page_ && !freed_[id]) {
      freed_[id] = true;
      kept.push_back(id);
    }
  }
  overflow_pages_ = std::move(kept);
  return Status::OK();
}

Status FileDiskManager::Commit(const std::string& metadata,
                               uint64_t checkpoint_seq, uint64_t epoch,
                               bool clean) {
  PEB_RETURN_NOT_OK(status_);
  if (metadata.size() > kSbCrcOffset - kSbOffMetaStart) {
    return Status::InvalidArgument("superblock metadata blob too large (" +
                                   std::to_string(metadata.size()) + " bytes)");
  }
  // Any failure below leaves the file in an intermediate state that only the
  // WAL (journaled page images + old superblock) can disambiguate, so the
  // store latches unusable and the caller must reopen.
  Status st = EnsureCapacity(DataOffset(next_page_));
  if (!st.ok()) return status_ = st;

  // 1. Reclaim the previous commit's free-list overflow chain pages. They
  //    become allocatable in the NEW generation (its superblock lists them
  //    free), but must not be physically overwritten before that superblock
  //    is durable: until then a crash falls back to the previous
  //    generation, which still reads its free list from these very pages.
  //    So they rejoin free_ here but are excluded from spill-page selection
  //    in step 3.
  const std::vector<PageId> prev_chain = std::move(overflow_pages_);
  overflow_pages_.clear();
  for (PageId id : prev_chain) {
    // freed_[id] is already true; the page was merely held off free_.
    free_.push_back(id);
  }

  // 2. Fold the overlay into the file (ascending PageId).
  for (const auto& [id, page] : overlay_) {
    st = PhysicalWrite(DataOffset(id), page->data(), kPageSize);
    if (!st.ok()) return status_ = st;
  }

  // 3. Spill free-list entries that do not fit inline to overflow pages
  //    taken from the free list itself (so they cannot be reallocated
  //    before the next commit), skipping the previous chain's pages; if
  //    only those remain, extend the watermark with a fresh page rather
  //    than overwrite one the previous superblock still needs.
  const size_t entries_start = Align4(kSbOffMetaStart + metadata.size());
  const size_t inline_capacity = (kSbCrcOffset - entries_start) / 4;
  std::vector<PageId> spill_pages;
  size_t scan = free_.size();
  while (free_.size() >
         inline_capacity + spill_pages.size() * kOverflowEntryCapacity) {
    while (scan > 0 &&
           std::find(prev_chain.begin(), prev_chain.end(), free_[scan - 1]) !=
               prev_chain.end()) {
      --scan;
    }
    if (scan > 0) {
      --scan;
      spill_pages.push_back(free_[scan]);
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(scan));
    } else {
      // Reserved off the free list, exactly like any other chain page.
      spill_pages.push_back(next_page_++);
      freed_.push_back(true);
    }
  }
  const size_t inline_count = std::min(free_.size(), inline_capacity);
  size_t cursor = inline_count;  // Entries [0, inline_count) go inline.
  for (size_t j = 0; j < spill_pages.size(); ++j) {
    Page op;
    op.Clear();
    const size_t count =
        std::min(kOverflowEntryCapacity, free_.size() - cursor);
    op.WriteAt<uint32_t>(0, j + 1 < spill_pages.size() ? spill_pages[j + 1]
                                                       : kInvalidPageId);
    op.WriteAt<uint32_t>(4, static_cast<uint32_t>(count));
    for (size_t i = 0; i < count; ++i) {
      op.WriteAt<uint32_t>(kOverflowHeaderBytes + i * 4, free_[cursor + i]);
    }
    cursor += count;
    op.WriteAt<uint32_t>(kSbCrcOffset, Crc32(op.data(), kSbCrcOffset));
    st = PhysicalWrite(DataOffset(spill_pages[j]), op.data(), kPageSize);
    if (!st.ok()) return status_ = st;
  }

  // 4. Make the data durable before the superblock can point at it, then
  //    publish the new generation (WriteSuperblock syncs again).
  overflow_pages_ = std::move(spill_pages);
  st = PhysicalSync();
  if (!st.ok()) return status_ = st;
  st = WriteSuperblock(metadata, checkpoint_seq, epoch, clean);
  if (!st.ok()) return status_ = st;

  overlay_.clear();
  base_pages_ = next_page_;
  return Status::OK();
}

Status FileDiskManager::WriteSuperblock(const std::string& metadata,
                                        uint64_t checkpoint_seq, uint64_t epoch,
                                        bool clean) {
  const uint64_t new_generation = generation_ + 1;
  const size_t entries_start = Align4(kSbOffMetaStart + metadata.size());
  const size_t inline_count =
      std::min(free_.size(), (kSbCrcOffset - entries_start) / 4);

  Page sb;
  sb.Clear();
  sb.WriteAt<uint64_t>(kSbOffMagic, kSbMagic);
  sb.WriteAt<uint32_t>(kSbOffVersion, kSbFormatVersion);
  sb.WriteAt<uint32_t>(kSbOffPageSize, kPageSize);
  sb.WriteAt<uint64_t>(kSbOffGeneration, new_generation);
  sb.WriteAt<uint64_t>(kSbOffCheckpointSeq, checkpoint_seq);
  sb.WriteAt<uint64_t>(kSbOffEpoch, epoch);
  sb.WriteAt<uint32_t>(kSbOffNextPage, next_page_);
  sb.WriteAt<uint8_t>(kSbOffClean, clean ? 1 : 0);
  sb.WriteAt<uint32_t>(kSbOffFreeTotal, static_cast<uint32_t>(free_.size()));
  sb.WriteAt<uint32_t>(kSbOffFreeInline, static_cast<uint32_t>(inline_count));
  sb.WriteAt<uint32_t>(kSbOffOverflowHead, overflow_pages_.empty()
                                               ? kInvalidPageId
                                               : overflow_pages_.front());
  sb.WriteAt<uint32_t>(kSbOffMetaLen, static_cast<uint32_t>(metadata.size()));
  std::memcpy(sb.data() + kSbOffMetaStart, metadata.data(), metadata.size());
  for (size_t i = 0; i < inline_count; ++i) {
    sb.WriteAt<uint32_t>(entries_start + i * 4, free_[i]);
  }
  sb.WriteAt<uint32_t>(kSbCrcOffset, Crc32(sb.data(), kSbCrcOffset));

  PEB_RETURN_NOT_OK(PhysicalWrite(SlotOffset(new_generation), sb.data(),
                                  kPageSize));
  PEB_RETURN_NOT_OK(PhysicalSync());
  generation_ = new_generation;
  checkpoint_seq_ = checkpoint_seq;
  clean_shutdown_ = clean;
  metadata_ = metadata;
  return Status::OK();
}

}  // namespace peb
