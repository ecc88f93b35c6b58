// Fault injection for the durable storage stack. A FaultInjector is a small
// shared failpoint switchboard; FileDiskManager (at its physical write and
// sync) and WriteAheadLog (at its append, sync and truncate) both consult
// the same injector, so "crash after N durable writes" counts every byte
// range headed for disk — WAL appends, checkpoint page writes, and
// superblock commits alike. That is what lets the crash-recovery tests kill
// the engine at an arbitrary point mid-batch and then prove the reopened
// state bit-matches a never-crashed oracle.
//
// Failpoints:
//   * writes_until_crash — allow N durable writes, then fail the (N+1)th and
//     every write after it. With torn_on_crash the fatal write persists only
//     a prefix (a torn page / torn WAL record) before reporting the error —
//     the classic power-cut failure the CRCs exist to catch.
//   * fail_sync — the next Sync() reports EIO and the device is considered
//     gone (all later durable ops fail too).
//
// Once `crashed` latches, the process-level contract mimics a dead disk:
// every durable write and sync fails, while reads keep serving (the process
// is assumed to still hold its file mappings). Tests then discard the
// in-memory engine and reopen from the path, exactly like a restart.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace peb {

struct FaultInjector {
  /// Number of durable writes still allowed before the injected crash;
  /// negative means "never crash". Decremented on every durable write.
  std::atomic<int64_t> writes_until_crash{-1};

  /// When the crash fires, persist the first half of the fatal write before
  /// failing it (torn write) instead of dropping it entirely.
  std::atomic<bool> torn_on_crash{false};

  /// Fail the next Sync() with EIO (and latch `crashed`).
  std::atomic<bool> fail_sync{false};

  /// Latched once any failpoint fires; all later durable ops fail.
  std::atomic<bool> crashed{false};

  /// Counts one durable write of `len` bytes and returns how many of its
  /// leading bytes reach the disk: all of them, none (the crash drops the
  /// write) or half (a torn write). The caller persists that prefix and
  /// fails the write when it is short.
  size_t DurablePrefix(size_t len) {
    if (crashed.load(std::memory_order_acquire)) return 0;
    if (writes_until_crash.load(std::memory_order_relaxed) < 0) return len;
    if (writes_until_crash.fetch_sub(1, std::memory_order_acq_rel) > 0) {
      return len;
    }
    crashed.store(true, std::memory_order_release);
    return torn_on_crash.load(std::memory_order_relaxed) ? len / 2 : 0;
  }

  /// Returns false if the sync must fail.
  bool OnSync() {
    if (crashed.load(std::memory_order_acquire)) return false;
    if (fail_sync.load(std::memory_order_relaxed)) {
      crashed.store(true, std::memory_order_release);
      return false;
    }
    return true;
  }

  /// Re-arms the injector (e.g. before a second crash in a double-crash
  /// recovery test).
  void Reset() {
    writes_until_crash.store(-1, std::memory_order_relaxed);
    torn_on_crash.store(false, std::memory_order_relaxed);
    fail_sync.store(false, std::memory_order_relaxed);
    crashed.store(false, std::memory_order_release);
  }
};

}  // namespace peb
