#include "storage/wal.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/crc32.h"
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

}  // namespace

Status WriteAheadLog::CheckOpen() const {
  // file_ goes null when a failed freopen in Truncate() closed the stream.
  // The engine's durability latch normally keeps callers away afterwards,
  // but fwrite/fileno on a null FILE* is UB, so the log defends itself.
  if (file_ == nullptr) {
    return Status::IOError("WAL " + path_ +
                           " is closed (a previous truncate failed)");
  }
  return Status::OK();
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    std::string path, FaultInjector* injector) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::IOError("cannot open WAL " + path + ": " +
                           std::strerror(errno));
  }
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(std::move(path), file, injector));
}

WriteAheadLog::~WriteAheadLog() {
  if (file_ != nullptr) std::fclose(file_);
}

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

  PEB_RETURN_NOT_OK(CheckOpen());
  if (injector_ != nullptr) {
    switch (injector_->OnDurableWrite()) {
      case FaultInjector::WriteVerdict::kProceed:
        break;
      case FaultInjector::WriteVerdict::kCrashDrop:
        return Status::IOError("injected crash: WAL append dropped");
      case FaultInjector::WriteVerdict::kCrashTorn: {
        // Persist (and even flush) a prefix: this is the torn tail that
        // ReadAll's CRC check must reject on recovery.
        const size_t torn = frame.size() / 2;
        if (torn > 0) {
          (void)std::fwrite(frame.data(), 1, torn, file_);
          (void)std::fflush(file_);
        }
        return Status::IOError("injected crash: torn WAL append (" +
                               std::to_string(torn) + " of " +
                               std::to_string(frame.size()) + " bytes)");
      }
    }
  }
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    return Status::IOError("WAL append failed for " + path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  PEB_RETURN_NOT_OK(CheckOpen());
  if (injector_ != nullptr && !injector_->OnSync()) {
    return Status::IOError("injected EIO on WAL sync");
  }
  if (std::fflush(file_) != 0) {
    return Status::IOError("WAL fflush failed for " + path_ + ": " +
                           std::strerror(errno));
  }
  if (::fsync(::fileno(file_)) != 0) {
    return Status::IOError("WAL fsync failed for " + path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status WriteAheadLog::Truncate() {
  PEB_RETURN_NOT_OK(CheckOpen());
  if (injector_ != nullptr && !injector_->OnSync()) {
    return Status::IOError("injected EIO on WAL truncate");
  }
  std::FILE* reopened = std::freopen(path_.c_str(), "wb", file_);
  if (reopened == nullptr) {
    file_ = nullptr;  // freopen failure closes the old stream.
    return Status::IOError("WAL truncate failed for " + path_ + ": " +
                           std::strerror(errno));
  }
  file_ = reopened;
  if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    return Status::IOError("WAL truncate sync failed for " + path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Result<std::vector<WalRecord>> WriteAheadLog::ReadAll(
    const std::string& path) {
  std::vector<WalRecord> records;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (errno == ENOENT) return records;  // No log: nothing to replay.
    return Status::IOError("cannot open WAL " + path + ": " +
                           std::strerror(errno));
  }
  for (;;) {
    unsigned char header[kFrameHeaderBytes];
    if (std::fread(header, 1, sizeof(header), file) != sizeof(header)) {
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
    if (len > 0 && std::fread(record.payload.data(), 1, len, file) != len) {
      break;  // Torn payload.
    }
    if (FrameCrc(record) != crc) break;  // Bit rot or torn rewrite.
    records.push_back(std::move(record));
  }
  std::fclose(file);
  return records;
}

}  // namespace peb
