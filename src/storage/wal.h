// Write-ahead log: an append-only file of length+CRC-framed, sequence-
// stamped records. The engine journals logical mutations (and, at
// checkpoint time, the page images the disk manager is about to fold into
// the database file) here *before* they can matter for durability; recovery
// replays the valid prefix on top of the last superblock checkpoint.
//
// Record framing (little-endian):
//   [u32 payload_len][u32 crc][u64 seq][u8 type][payload bytes]
// where crc covers seq + type + payload. ReadAll stops at the first frame
// that is truncated or fails its CRC — a torn tail is an expected crash
// artifact, not an error — so a record is atomic: it either replays whole
// or not at all.
//
// Record *types* are opaque bytes at this layer; the engine defines them
// (src/engine/engine_wal.h).
//
// The log is a plain file descriptor, like the page store: appends are
// write(2) calls on an O_APPEND descriptor, Sync() is fdatasync, and
// Truncate() is ftruncate + fsync. Appends, syncs and truncations consult
// the same optional FaultInjector as the page store's physical writes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace peb {

struct FaultInjector;

struct WalRecord {
  uint64_t seq = 0;
  uint8_t type = 0;
  std::string payload;
};

/// Append-only log. Not thread-safe; its one caller serializes every call
/// (the engine holds its WAL lock across each call, which also orders
/// records across calls), as DiskManager leaves serialization to the
/// buffer pool's disk mutex.
class WriteAheadLog {
 public:
  /// Opens `path` for appending, creating it if absent, and fsyncs the
  /// parent directory so a new log's directory entry is durable. Existing
  /// contents are preserved (recovery reads them first, then keeps
  /// appending). `injector` (optional) makes appends and syncs crash on cue.
  static Result<std::unique_ptr<WriteAheadLog>> Open(
      std::string path, FaultInjector* injector = nullptr);

  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Writes one framed record to the end of the file (not yet durable —
  /// call Sync()).
  Status Append(const WalRecord& record);

  /// Durably flushes all appended records (fdatasync).
  Status Sync();

  /// Empties the log (checkpoint: everything before this is folded into the
  /// database file) and syncs the truncation.
  Status Truncate();

  /// Reads the valid prefix of the log at `path`, one frame at a time:
  /// stops silently at a torn or checksum-failing tail. A missing file
  /// yields an empty vector (a clean shutdown truncates the log to
  /// nothing); a failing read is IOError.
  static Result<std::vector<WalRecord>> ReadAll(const std::string& path);

 private:
  WriteAheadLog(std::string path, int fd, FaultInjector* injector)
      : path_(std::move(path)), fd_(fd), injector_(injector) {}

  const std::string path_;
  const int fd_;
  FaultInjector* const injector_;
};

}  // namespace peb
