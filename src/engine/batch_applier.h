// BatchUpdateApplier: drains an UpdateStream in time-ordered batches and
// applies each batch to a ShardedPebEngine.
//
// This is Section 7.9's update workload ("query cost while 25% chunks of
// the dataset are updated") made concurrent: the applier pulls the next
// `batch_size` events — already in global time order — and hands them to
// ShardedPebEngine::ApplyBatch, which appends each event to its home
// shard's delta. A user's updates stay ordered (one user, one shard); only
// cross-shard ordering inside a batch is relaxed, which no query can
// observe: the batch is published with a single atomic watermark store —
// a query's pinned watermark sees all of the batch or none of it (and
// queries never block on its application).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/status.h"
#include "engine/sharded_engine.h"
#include "motion/update_stream.h"

namespace peb {
namespace engine {

struct BatchApplierOptions {
  /// Events drained per ApplyBatch() call.
  size_t batch_size = 1024;
  /// Called after each batch is successfully applied to the engine, with
  /// the batch's events in their original (global time) order. The service
  /// layer hooks this to feed engine-wide continuous-query monitors: the
  /// callback order is the stream order regardless of shard count, so
  /// standing queries see identical event streams on 1- and N-shard
  /// engines.
  std::function<void(const std::vector<UpdateEvent>&)> on_batch;
};

/// Thread-compatibility: the applier owns no lock. One thread drives it
/// (the drain loop is inherently sequential — batches must leave the
/// stream in time order); the concurrency lives inside
/// ShardedPebEngine::ApplyBatch, which appends to the shard deltas under
/// its own annotated locks. Feeding one applier from two threads is a
/// caller bug, not a data race this class defends against.
class BatchUpdateApplier {
 public:
  /// The engine and stream must outlive the applier.
  BatchUpdateApplier(ShardedPebEngine* engine, UpdateStream* stream,
                     BatchApplierOptions options = {})
      : engine_(engine), stream_(stream), options_(options) {}

  /// Drains one batch from the stream and applies it to the engine.
  Status ApplyBatch() { return Apply(options_.batch_size); }

  /// Applies `count` events, in batches of at most options_.batch_size.
  Status Apply(size_t count);

  size_t events_applied() const { return events_applied_; }
  size_t batches_applied() const { return batches_applied_; }
  /// Timestamp of the most recently applied event (0 before any).
  Timestamp last_event_time() const { return last_event_time_; }

 private:
  ShardedPebEngine* engine_;
  UpdateStream* stream_;
  BatchApplierOptions options_;
  size_t events_applied_ = 0;
  size_t batches_applied_ = 0;
  Timestamp last_event_time_ = 0.0;
};

}  // namespace engine
}  // namespace peb
