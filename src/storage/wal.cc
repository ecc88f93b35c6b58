#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/crc32.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"

namespace peb {

namespace {

constexpr size_t kFrameHeaderBytes = 4 + 4 + 8 + 1;  // len, crc, seq, type.

// A frame longer than this cannot be legitimate (the largest records are
// page images); treat it as a corrupt tail rather than attempting a
// gigabyte-sized allocation from garbage bytes.
constexpr uint32_t kMaxPayloadBytes = 16u << 20;

uint32_t FrameCrc(const WalRecord& record) {
  uint32_t crc = Crc32Extend(0, &record.seq, sizeof(record.seq));
  crc = Crc32Extend(crc, &record.type, sizeof(record.type));
  return Crc32Extend(crc, record.payload.data(), record.payload.size());
}

/// IOError for the system call that just failed, read off errno.
Status IOErrorFor(const std::string& what, const std::string& path) {
  const int err = errno;
  return Status::IOError(what + " failed for WAL " + path + ": " +
                         std::strerror(err));
}

/// Writes all `len` bytes, retrying interrupted and short writes.
Status WriteFully(int fd, const char* data, size_t len,
                  const std::string& path) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return IOErrorFor("append", path);
    data += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Reads up to `len` bytes, retrying interrupted and short reads; fewer
/// than `len` arrive only at the end of the file.
Result<size_t> ReadFully(int fd, char* data, size_t len,
                         const std::string& path) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, data + got, len - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return IOErrorFor("read", path);
    if (n == 0) break;
    got += static_cast<size_t>(n);
  }
  return got;
}

}  // namespace

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    std::string path, FaultInjector* injector) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Status::IOError("cannot open WAL " + path + ": " +
                           std::strerror(errno));
  }
  auto wal = std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(std::move(path), fd, injector));
  PEB_RETURN_NOT_OK(SyncParentDirectory(wal->path_));
  return wal;
}

WriteAheadLog::~WriteAheadLog() { ::close(fd_); }

Status WriteAheadLog::Append(const WalRecord& record) {
  if (record.payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("WAL payload too large: " +
                                   std::to_string(record.payload.size()));
  }
  std::string frame;
  frame.reserve(kFrameHeaderBytes + record.payload.size());
  const auto put = [&frame](const void* p, size_t n) {
    frame.append(static_cast<const char*>(p), n);
  };
  const uint32_t len = static_cast<uint32_t>(record.payload.size());
  const uint32_t crc = FrameCrc(record);
  put(&len, sizeof(len));
  put(&crc, sizeof(crc));
  put(&record.seq, sizeof(record.seq));
  put(&record.type, sizeof(record.type));
  frame.append(record.payload);

  // An injected crash lets only a prefix through: none of the frame, or
  // half of it — the torn tail that ReadAll's CRC check must reject.
  const size_t landed = injector_ == nullptr
                            ? frame.size()
                            : injector_->DurablePrefix(frame.size());
  PEB_RETURN_NOT_OK(WriteFully(fd_, frame.data(), landed, path_));
  if (landed < frame.size()) {
    return Status::IOError("injected crash: " + std::to_string(landed) +
                           " of " + std::to_string(frame.size()) +
                           " bytes of a WAL append landed");
  }
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  if (injector_ != nullptr && !injector_->OnSync()) {
    return Status::IOError("injected EIO on WAL sync");
  }
  if (::fdatasync(fd_) != 0) return IOErrorFor("fdatasync", path_);
  return Status::OK();
}

Status WriteAheadLog::Truncate() {
  if (injector_ != nullptr && !injector_->OnSync()) {
    return Status::IOError("injected EIO on WAL truncate");
  }
  // O_APPEND then writes the next record at offset 0.
  if (::ftruncate(fd_, 0) != 0) return IOErrorFor("truncate", path_);
  if (::fsync(fd_) != 0) return IOErrorFor("truncate sync", path_);
  return Status::OK();
}

Result<std::vector<WalRecord>> WriteAheadLog::ReadAll(
    const std::string& path) {
  std::vector<WalRecord> records;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return records;  // No log: nothing to replay.
    return Status::IOError("cannot open WAL " + path + ": " +
                           std::strerror(errno));
  }
  // Frame by frame: only one payload is ever read beyond the records kept.
  Status st;
  for (;;) {
    char header[kFrameHeaderBytes];
    Result<size_t> got = ReadFully(fd, header, sizeof(header), path);
    if (!got.ok()) st = got.status();
    if (!got.ok() || *got != sizeof(header)) {
      break;  // Clean end of log, or a torn frame header: stop either way.
    }
    uint32_t len, crc;
    WalRecord record;
    std::memcpy(&len, header + 0, sizeof(len));
    std::memcpy(&crc, header + 4, sizeof(crc));
    std::memcpy(&record.seq, header + 8, sizeof(record.seq));
    std::memcpy(&record.type, header + 16, sizeof(record.type));
    if (len > kMaxPayloadBytes) break;  // Garbage length: corrupt tail.
    record.payload.resize(len);
    got = ReadFully(fd, record.payload.data(), len, path);
    if (!got.ok()) st = got.status();
    if (!got.ok() || *got != len) break;  // Torn payload.
    if (FrameCrc(record) != crc) break;  // Bit rot or torn rewrite.
    records.push_back(std::move(record));
  }
  ::close(fd);
  PEB_RETURN_NOT_OK(st);
  return records;
}

}  // namespace peb
