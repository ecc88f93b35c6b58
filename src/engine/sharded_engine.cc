#include "engine/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <numeric>
#include <optional>
#include <utility>

#include "telemetry/trace.h"

namespace peb {
namespace engine {

namespace {

/// Latch shards of the shared buffer pool (clamped to buffer_pages): more
/// latch shards, less metadata contention between worker threads.
constexpr size_t kPoolLatchShards = 4;

/// Backpressure ceiling: a shard delta holding this many records is merged
/// before an ingest call appends to it.
size_t HardCap(const EngineOptions::DeltaIngestOptions& delta) {
  return delta.hard_cap != 0 ? delta.hard_cap : delta.merge_threshold * 8;
}

/// Observes its own lifetime, in milliseconds, into a histogram (null when
/// telemetry is off). Declared right after an exclusive lock, or at the top
/// of a function that runs under one, it times that stretch of the section.
class SectionTimer {
 public:
  explicit SectionTimer(telemetry::Histogram* h)
      : h_(h), start_(std::chrono::steady_clock::now()) {}
  ~SectionTimer() {
    telemetry::Observe(h_, std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start_)
                               .count());
  }
  SectionTimer(const SectionTimer&) = delete;
  SectionTimer& operator=(const SectionTimer&) = delete;

 private:
  telemetry::Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

/// The shards whose per-shard list is non-empty: the ones a fan-out visits.
template <typename T>
std::vector<size_t> NonEmptyShards(const std::vector<std::vector<T>>& lists) {
  std::vector<size_t> which;
  for (size_t s = 0; s < lists.size(); ++s) {
    if (!lists[s].empty()) which.push_back(s);
  }
  return which;
}

/// Merges one shard's fresh candidates — already ascending by distance —
/// into the engine's running verified list (kept ascending by distance).
void MergeByDistance(const std::vector<Neighbor>& fresh,
                     std::vector<Neighbor>* into) {
  size_t mid = into->size();
  into->insert(into->end(), fresh.begin(), fresh.end());
  std::inplace_merge(into->begin(), into->begin() + mid, into->end(),
                     [](const Neighbor& a, const Neighbor& b) {
                       return a.distance < b.distance;
                     });
}

}  // namespace

ShardedPebEngine::ShardedPebEngine(
    const EngineOptions& options, const PolicyStore* store,
    const RoleRegistry* roles,
    std::shared_ptr<const EncodingSnapshot> snapshot)
    : ShardedPebEngine(
          options.durability.path.empty()
              ? nullptr
              : std::make_unique<FileDiskManager>(
                    options.durability.path,
                    FileDiskOptions{options.durability.overwrite_existing},
                    options.durability.fault_injector),
          options, store, roles, std::move(snapshot), /*fresh=*/true) {}

ShardedPebEngine::ShardedPebEngine(
    std::unique_ptr<FileDiskManager> file, const EngineOptions& options,
    const PolicyStore* store, const RoleRegistry* roles,
    std::shared_ptr<const EncodingSnapshot> snapshot, bool fresh)
    : options_(options),
      snapshot_(std::move(snapshot)),
      store_(store),
      roles_(roles),
      num_users_(snapshot_ == nullptr ? 0 : snapshot_->num_users()),
      durable_(file.get()),
      disk_(file != nullptr ? std::unique_ptr<DiskManager>(std::move(file))
                            : std::make_unique<InMemoryDiskManager>()),
      pool_(disk_.get(),
            BufferPoolOptions{options.buffer_pages, kPoolLatchShards}),
      threads_(options.num_threads),
      present_(num_users_, 0) {
  if (durable_ != nullptr) {
    Status st = durable_->status();
    if (st.ok()) {
      auto wal = WriteAheadLog::Open(options_.durability.path + ".wal",
                                     options_.durability.fault_injector);
      if (wal.ok()) {
        wal_ = std::move(*wal);
        // A fresh database truncates any WAL a previous database at this
        // path left behind — its records describe pages we just discarded.
        if (fresh) st = wal_->Truncate();
      } else {
        st = wal.status();
      }
    }
    if (!st.ok()) {
      MutexLock wal_lock(&wal_mu_);
      durability_error_ = st;
    }
  }
  const size_t n = options.num_shards == 0 ? 1 : options.num_shards;
  trees_.reserve(n);
  deltas_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    trees_.push_back(std::make_unique<PebTree>(&pool_, options_.tree, store,
                                               roles, snapshot_));
    deltas_.push_back(std::make_unique<ShardDelta>());
  }
  // Instruments resolve eagerly here (not lazily on first use), so a
  // disconnected record site shows up as a registered-but-zero instrument
  // — which CI's bench-smoke gate fails on.
  shard_instruments_.resize(n);
  if (options_.telemetry.enabled) {
    registry_ = options_.telemetry.registry != nullptr
                    ? options_.telemetry.registry
                    : telemetry::MetricsRegistry::Default();
    for (size_t s = 0; s < n; ++s) {
      std::string prefix = "engine.shard" + std::to_string(s);
      shard_instruments_[s].queries = registry_->counter(prefix + ".queries");
      shard_instruments_[s].updates = registry_->counter(prefix + ".updates");
    }
    pknn_rounds_ = registry_->counter("engine.pknn.rounds");
    pknn_retirements_ = registry_->counter("engine.pknn.retirements");
    batch_lock_hold_ms_ = registry_->histogram("engine.batch.lock_hold_ms");
    delta_appends_ = registry_->counter("engine.delta.appends");
    delta_probes_ = registry_->counter("engine.delta.probes");
    delta_shadowed_ = registry_->counter("engine.delta.shadowed");
    delta_merges_ = registry_->counter("engine.delta.merges");
    delta_merged_records_counter_ =
        registry_->counter("engine.delta.merged_records");
    merge_lock_hold_ms_ = registry_->histogram("engine.merge.lock_hold_ms");
    delta_backlog_ = registry_->gauge("engine.delta.backlog");
    pool_collector_token_ = registry_->RegisterCollector([this] {
      std::vector<telemetry::MetricsRegistry::Sample> out;
      for (size_t i = 0; i < pool_.num_shards(); ++i) {
        IoStats st = pool_.ShardStats(i);
        std::string p = "pool.shard" + std::to_string(i) + ".";
        out.emplace_back(p + "logical_fetches",
                         static_cast<double>(st.logical_fetches));
        out.emplace_back(p + "cache_hits",
                         static_cast<double>(st.cache_hits));
        out.emplace_back(p + "physical_reads",
                         static_cast<double>(st.physical_reads));
        out.emplace_back(p + "evictions",
                         static_cast<double>(st.evictions));
      }
      return out;
    });
  }
}

ShardedPebEngine::~ShardedPebEngine() {
  // Clean shutdown: one final checkpoint marks the superblock clean so the
  // next open may skip validation. Best-effort — a poisoned engine, one
  // whose owner opted out (crash tests), or one Open() abandoned mid-
  // recovery (disarmed: committing its half-restored state would destroy
  // the database) simply leaves the unclean flag, and recovery replays the
  // WAL as after any crash.
  if (durable_ != nullptr && close_checkpoint_armed_ &&
      options_.durability.checkpoint_on_close && durability_status().ok()) {
    WriterMutexLock state_lock(&state_mu_);
    (void)CheckpointLocked(/*clean=*/true);
  }
  if (registry_ != nullptr && pool_collector_token_ != 0) {
    registry_->UnregisterCollector(pool_collector_token_);
  }
}

Status ShardedPebEngine::FanOut(const std::vector<size_t>& which,
                                const std::function<Status(size_t)>& task) {
  std::vector<Status> statuses(which.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(which.size());
  for (size_t i = 0; i < which.size(); ++i) {
    tasks.push_back([&, i] { statuses[i] = task(which[i]); });
  }
  threads_.RunAll(std::move(tasks));
  for (Status& st : statuses) PEB_RETURN_NOT_OK(st);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Durability: WAL logging, checkpoints, recovery
// ---------------------------------------------------------------------------

Status ShardedPebEngine::durability_status() const {
  if (durable_ == nullptr) return Status::OK();
  MutexLock wal_lock(&wal_mu_);
  return durability_error_;
}

Status ShardedPebEngine::AppendWal(engine_wal::RecordType type,
                                   std::string payload, bool sync) {
  PEB_RETURN_NOT_OK(durability_error_);
  WalRecord rec;
  rec.seq = ++wal_seq_;
  rec.type = type;
  rec.payload = std::move(payload);
  Status st = wal_->Append(rec);
  if (st.ok() && sync) st = wal_->Sync();
  if (!st.ok()) durability_error_ = st;
  return st;
}

Status ShardedPebEngine::LogOps(
    const std::vector<engine_wal::LoggedOp>& ops) {
  if (wal_ == nullptr || replaying_) return Status::OK();
  MutexLock wal_lock(&wal_mu_);
  return AppendWal(engine_wal::kEvents, engine_wal::EncodeEvents(ops),
                   /*sync=*/true);
}

Status ShardedPebEngine::Checkpoint() {
  WriterMutexLock state_lock(&state_mu_);
  return CheckpointLocked(/*clean=*/false);
}

Status ShardedPebEngine::CheckpointLocked(bool clean) {
  // Freeze ingest for the whole protocol (state_mu_ -> ingest_mu_, see the
  // header's lock order).
  MutexLock ingest(&ingest_mu_);
  return CheckpointFrozen(clean);
}

Status ShardedPebEngine::CheckpointFrozen(bool clean) {
  if (durable_ == nullptr) {
    return Status::InvalidArgument(
        "Checkpoint() requires a durable engine (EngineOptions::durability)");
  }
  // Writers are frozen: between the delta merge below and the WAL
  // truncation at the end, no writer may append a kEvents record — it
  // would be truncated away while its events sit in an unmerged delta.
  // 1. Every buffered event must reach the trees: the WAL is about to be
  //    truncated, and only tree pages are checkpointed.
  std::vector<size_t> which;
  for (size_t s = 0; s < deltas_.size(); ++s) {
    if (deltas_[s]->records() > 0) which.push_back(s);
  }
  PEB_RETURN_NOT_OK(MergeShardsLocked(which));
  // 2. Every dirty frame must reach the overlay — strictly: a pinned dirty
  //    page would silently checkpoint a stale version.
  PEB_RETURN_NOT_OK(pool_.FlushAllStrict());
  // 3. Snapshot the manifest (tree roots + stats + epoch).
  engine_wal::EngineManifest manifest;
  manifest.epoch = snapshot_ == nullptr ? 0 : snapshot_->epoch();
  for (size_t s = 0; s < num_shards(); ++s) {
    manifest.shards.push_back(tree(s).Manifest());
  }
  const std::string manifest_blob = engine_wal::EncodeManifest(manifest);

  MutexLock wal_lock(&wal_mu_);
  // 4. Journal the checkpoint itself: every overlay page plus a commit
  //    record carrying the allocation state and manifest, synced once. If
  //    the fold in step 5 crashes midway, recovery finishes the checkpoint
  //    from these records instead of reading torn pages.
  Status st;
  durable_->ForEachDirtyPage([&](PageId id, const Page& page) {
    wal_mu_.AssertHeld();  // Called back synchronously, under wal_lock.
    if (st.ok()) {
      st = AppendWal(engine_wal::kPageImage,
                     engine_wal::EncodePageImage(id, page), /*sync=*/false);
    }
  });
  if (st.ok()) {
    engine_wal::CheckpointRecord cr;
    cr.next_page = durable_->capacity();
    cr.free_list = durable_->FreeList();
    cr.manifest = manifest_blob;
    st = AppendWal(engine_wal::kCheckpoint, engine_wal::EncodeCheckpoint(cr),
                   /*sync=*/true);
  }
  // 5. Fold the overlay into the file under a new superblock generation,
  //    stamped with the commit record's seq. Crash before the superblock
  //    lands: the old generation + the WAL records above reproduce this
  //    exact state. Crash after: the new generation IS this state, and
  //    replay skips the stale WAL by seq.
  if (st.ok()) {
    st = durable_->Commit(manifest_blob, /*checkpoint_seq=*/wal_seq_,
                          manifest.epoch, clean);
  }
  // 6. The log's work is done.
  if (st.ok()) st = wal_->Truncate();
  if (!st.ok()) durability_error_ = st;
  return st;
}

Result<std::unique_ptr<ShardedPebEngine>> ShardedPebEngine::Open(
    const EngineOptions& options, const PolicyStore* store,
    const RoleRegistry* roles,
    std::shared_ptr<const EncodingSnapshot> snapshot) {
  const auto& dur = options.durability;
  if (dur.path.empty()) {
    return Status::InvalidArgument(
        "Open() requires EngineOptions::durability.path");
  }
  if (snapshot == nullptr) {
    return Status::InvalidArgument(
        "Open() requires the encoding snapshot the database was "
        "checkpointed under");
  }
  // 1. Reopen the page store (never truncates; rejects corrupt files).
  PEB_ASSIGN_OR_RETURN(
      std::unique_ptr<FileDiskManager> file,
      FileDiskManager::OpenExisting(dur.path, dur.fault_injector));
  FileDiskManager* durable = file.get();
  const bool unclean = !durable->clean_shutdown();

  // 2. The WAL's longest valid prefix (a torn tail parses as end-of-log:
  //    an incomplete batch was never acknowledged, so dropping it is the
  //    correct at-most-once outcome).
  PEB_ASSIGN_OR_RETURN(std::vector<WalRecord> records,
                       WriteAheadLog::ReadAll(dur.path + ".wal"));

  // 3. Adopt the newest complete checkpoint. Normally the superblock; a
  //    kCheckpoint record with a NEWER seq means a checkpoint journaled
  //    its pages but crashed before (or during) the fold — finish it from
  //    the WAL images. A kCheckpoint in the durable log always has its
  //    full image set before it (they were appended first, and torn tails
  //    only cut the end).
  std::string manifest_blob = durable->metadata();
  uint64_t ckpt_seq = durable->checkpoint_seq();
  ptrdiff_t last_ckpt = -1;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].type == engine_wal::kCheckpoint &&
        records[i].seq > ckpt_seq) {
      last_ckpt = static_cast<ptrdiff_t>(i);
    }
  }
  if (last_ckpt >= 0) {
    engine_wal::CheckpointRecord cr;
    PEB_RETURN_NOT_OK(engine_wal::DecodeCheckpoint(
        records[static_cast<size_t>(last_ckpt)].payload, &cr));
    PEB_RETURN_NOT_OK(
        durable->RestoreAllocationState(cr.next_page, cr.free_list));
    // This checkpoint's images are the contiguous kPageImage run right
    // before its commit record; they land in the overlay (the file itself
    // stays untouched until the re-checkpoint in step 7, so a crash HERE
    // replays this same recovery from the same bytes).
    size_t first_img = static_cast<size_t>(last_ckpt);
    while (first_img > 0 &&
           records[first_img - 1].type == engine_wal::kPageImage) {
      --first_img;
    }
    for (size_t i = first_img; i < static_cast<size_t>(last_ckpt); ++i) {
      PageId id = kInvalidPageId;
      Page page;
      PEB_RETURN_NOT_OK(
          engine_wal::DecodePageImage(records[i].payload, &id, &page));
      PEB_RETURN_NOT_OK(durable->Write(id, page));
    }
    manifest_blob = cr.manifest;
    ckpt_seq = records[static_cast<size_t>(last_ckpt)].seq;
  }

  // 4. Re-attach the shard trees from the manifest — no rebuild: the tree
  //    pages are already in the store, the manifest carries their roots.
  engine_wal::EngineManifest manifest;
  if (!manifest_blob.empty()) {
    PEB_RETURN_NOT_OK(engine_wal::DecodeManifest(manifest_blob, &manifest));
  }
  std::unique_ptr<ShardedPebEngine> engine(new ShardedPebEngine(
      std::move(file), options, store, roles, snapshot, /*fresh=*/false));
  // Every error return below destroys a half-recovered engine. Disarm its
  // close checkpoint until recovery fully succeeds: with it armed, the
  // destructor would commit the partial (or empty) shard manifest as a new
  // clean generation and truncate the WAL — permanently losing whatever
  // was not yet replayed.
  engine->close_checkpoint_armed_ = false;
  PEB_RETURN_NOT_OK(engine->durability_status());
  if (!manifest.shards.empty()) {
    if (manifest.shards.size() != engine->num_shards()) {
      return Status::InvalidArgument(
          "database was checkpointed with " +
          std::to_string(manifest.shards.size()) +
          " shards but the engine is configured for " +
          std::to_string(engine->num_shards()));
    }
    if (manifest.epoch != snapshot->epoch()) {
      return Status::InvalidArgument(
          "database was checkpointed under encoding epoch " +
          std::to_string(manifest.epoch) + " but the caller's snapshot is " +
          std::to_string(snapshot->epoch()));
    }
    // The attached trees are the whole membership before replay: rebuild
    // the presence bytes and the tree-resident count from them.
    WriterMutexLock state_lock(&engine->state_mu_);
    MutexLock ingest(&engine->ingest_mu_);
    std::vector<uint8_t>& present = engine->present_;
    for (size_t s = 0; s < engine->num_shards(); ++s) {
      const PebTreeManifest& m = manifest.shards[s];
      if (m.root == kInvalidPageId) continue;  // Checkpointed empty.
      PebTree& shard = engine->mutable_tree(s);
      PEB_RETURN_NOT_OK(shard.AttachExisting(m));
      Status members;
      shard.ForEachObject([&](UserId uid, const MovingObject&) {
        if (uid >= present.size()) {
          members = Status::Corruption("shard " + std::to_string(s) +
                                       " hosts user " + std::to_string(uid) +
                                       " outside the policy encoding");
        } else {
          present[uid] = 1;
        }
      });
      PEB_RETURN_NOT_OK(members);
      engine->tree_users_ += static_cast<int64_t>(shard.size());
    }
  }

  // 5. Replay the WAL suffix through the normal write path, each kEvents
  //    record as the one batch it was published as (replay is not
  //    re-logged; the re-checkpoint below supersedes the log).
  engine->replaying_ = true;
  uint64_t max_seq = ckpt_seq;
  Status replay_st;
  for (const WalRecord& rec : records) {
    if (rec.seq <= ckpt_seq) continue;
    max_seq = std::max(max_seq, rec.seq);
    if (rec.type == engine_wal::kEvents) {
      std::vector<engine_wal::LoggedOp> ops;
      replay_st = engine_wal::DecodeEvents(rec.payload, &ops);
      if (replay_st.ok()) replay_st = engine->Ingest(ops);
    } else if (rec.type == engine_wal::kRekey) {
      // Epoch barrier: records past it would need the post-adopt encoding,
      // and AdoptSnapshot checkpoints right after logging it — so a kRekey
      // still in the log means that checkpoint never committed, and the
      // log holds nothing replayable beyond this point.
      break;
    }
    // kPageImage / kCheckpoint with seq > ckpt_seq belong to a checkpoint
    // whose commit record never landed — dead weight, skipped.
    if (!replay_st.ok()) {
      return Status::Corruption("WAL replay failed at seq " +
                                std::to_string(rec.seq) + ": " +
                                replay_st.message());
    }
  }
  {
    MutexLock wal_lock(&engine->wal_mu_);
    for (const WalRecord& rec : records) {
      max_seq = std::max(max_seq, rec.seq);
    }
    engine->wal_seq_ = max_seq;
  }
  engine->replaying_ = false;

  // 6. Deep validation after any unclean shutdown (and whenever the tree
  //    is configured paranoid). A non-empty log also counts as unclean:
  //    the writer died before its close checkpoint could truncate it.
  if (unclean || !records.empty() || options.tree.index.paranoid_checks) {
    PEB_RETURN_NOT_OK(engine->ValidateInvariants());
  }

  // 7. Re-checkpoint: folds the restored images + replayed mutations into
  //    the file and truncates the log. Until this call, recovery wrote
  //    NOTHING durable — a crash anywhere above re-runs byte-identical
  //    recovery (the double-crash test exercises exactly this). A clean
  //    shutdown with an empty log has nothing to fold: the file already
  //    IS the state, and skipping the commit keeps cold opens cheap.
  if (unclean || !records.empty()) {
    PEB_RETURN_NOT_OK(engine->Checkpoint());
  }
  engine->close_checkpoint_armed_ = true;
  return engine;
}

// ---------------------------------------------------------------------------
// Update path
// ---------------------------------------------------------------------------

void ShardedPebEngine::UpdateBacklogGauge() const {
  if (delta_backlog_ == nullptr) return;
  size_t total = 0;
  for (const auto& d : deltas_) total += d->records();
  delta_backlog_->Set(static_cast<int64_t>(total));
}

Status ShardedPebEngine::Ingest(
    const std::vector<engine_wal::LoggedOp>& ops) {
  using Op = engine_wal::LoggedOp;
  PEB_RETURN_NOT_OK(durability_status());
  if (ops.empty()) return Status::OK();
  // Reject ids outside the encoding first: present_ is indexed by id, and
  // WAL replay feeds ids read from disk. Statuses match a single tree's:
  // Delete of an unknown user is NotFound, Insert/Update outside the
  // encoding InvalidArgument.
  for (const Op& op : ops) {
    if (op.state.id < num_users_) continue;
    if (op.kind == Op::kDelete) {
      return Status::NotFound("object " + std::to_string(op.state.id));
    }
    return Status::InvalidArgument("object id outside the policy encoding");
  }
  // Backpressure: merge any shard already at the hard cap BEFORE appending
  // — the writer stalls here, queries never do.
  const size_t cap = HardCap(options_.delta);
  std::vector<size_t> over;
  for (size_t s = 0; s < deltas_.size(); ++s) {
    if (deltas_[s]->records() >= cap) over.push_back(s);
  }
  if (!over.empty()) {
    delta_backpressure_merges_.fetch_add(over.size(),
                                         std::memory_order_relaxed);
    PEB_RETURN_NOT_OK(MergeShards(over));
  }
  {
    MutexLock ingest(&ingest_mu_);
    // Status parity with a single tree's ops, checked in batch order
    // against the presence the earlier ops leave: Insert -> AlreadyExists,
    // Delete -> NotFound, Update is an upsert. `was` keeps each op's
    // presence before it, for its membership effect and for the undo.
    std::vector<uint8_t> was(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      uint8_t& present = present_[ops[i].state.id];
      was[i] = present;
      Status st;
      if (ops[i].kind == Op::kInsert && present != 0) {
        st = Status::AlreadyExists("object " +
                                   std::to_string(ops[i].state.id) +
                                   " already indexed");
      } else if (ops[i].kind == Op::kDelete && present == 0) {
        st = Status::NotFound("object " + std::to_string(ops[i].state.id));
      }
      if (!st.ok()) {
        // Rejected whole, before anything is published: restore the
        // presence bytes of the ops already checked, newest first.
        while (i-- > 0) present_[ops[i].state.id] = was[i];
        return st;
      }
      present = ops[i].kind == Op::kDelete ? 0 : 1;
    }
    // ONE seq for the whole batch: the release store below publishes it
    // atomically, so a query's pinned watermark sees all of it or none.
    const uint64_t seq = ++next_seq_;
    for (size_t i = 0; i < ops.size(); ++i) {
      const bool tombstone = ops[i].kind == Op::kDelete;
      const size_t idx = ShardOf(ops[i].state.id, num_shards());
      telemetry::Inc(shard_instruments_[idx].updates);
      // Membership effect: +1 join, -1 leave, 0 move.
      deltas_[idx]->Append(ops[i].state, tombstone, seq,
                           int{!tombstone} - int{was[i]});
    }
    published_seq_.store(seq, std::memory_order_release);
    // One kEvents record per batch, journaled inside the ingest section so
    // WAL order matches publication order; an OK return means the whole
    // batch is on disk. Failure poisons the engine: the batch was applied
    // in RAM but reports an error, and no later mutation can commit past
    // it.
    PEB_RETURN_NOT_OK(LogOps(ops));
  }
  telemetry::Inc(delta_appends_, ops.size());
  UpdateBacklogGauge();
  return MaybeMergeDeltas();
}

Status ShardedPebEngine::Insert(const MovingObject& object) {
  return Ingest({{engine_wal::LoggedOp::kInsert, object}});
}

Status ShardedPebEngine::Update(const MovingObject& object) {
  return Ingest({{engine_wal::LoggedOp::kUpdate, object}});
}

Status ShardedPebEngine::Delete(UserId id) {
  MovingObject tomb;
  tomb.id = id;
  return Ingest({{engine_wal::LoggedOp::kDelete, tomb}});
}

Status ShardedPebEngine::LoadDataset(const Dataset& dataset) {
  PEB_RETURN_NOT_OK(durability_status());
  for (const MovingObject& o : dataset.objects) {
    if (o.id >= num_users_) {  // Checked first, as in Ingest.
      return Status::InvalidArgument("object id outside the policy encoding");
    }
  }
  WriterMutexLock state_lock(&state_mu_);
  // The whole exclusive section, checkpoint included, is what queries wait
  // out; declared after the lock, the timer ends before it is released.
  SectionTimer hold(batch_lock_hold_ms_);
  Status st;
  {
    // Writers are frozen too (state_mu_ -> ingest_mu_, the checkpoint's
    // order): the presence bytes must not change between the check below
    // and the inserts.
    MutexLock ingest(&ingest_mu_);
    // All-or-nothing: reject before inserting anything.
    std::vector<uint8_t> taken = present_;
    for (const MovingObject& o : dataset.objects) {
      if (taken[o.id] != 0) {
        return Status::AlreadyExists("object " + std::to_string(o.id) +
                                     " already indexed");
      }
      taken[o.id] = 1;
    }
    // A buffered record would shadow the loaded tree entry (a buffered
    // tombstone would hide the user), so the deltas drain first.
    std::vector<size_t> buffered;
    for (size_t s = 0; s < deltas_.size(); ++s) {
      if (deltas_[s]->records() > 0) buffered.push_back(s);
    }
    PEB_RETURN_NOT_OK(MergeShardsLocked(buffered));
    std::vector<std::vector<const MovingObject*>> groups(num_shards());
    for (const MovingObject& o : dataset.objects) {
      groups[ShardOf(o.id, num_shards())].push_back(&o);
    }
    for (size_t s = 0; s < num_shards(); ++s) {
      telemetry::Inc(shard_instruments_[s].updates, groups[s].size());
    }
    // One worker task per shard inserts its group in order, stopping at the
    // first error.
    std::vector<size_t> inserted(num_shards(), 0);
    st = FanOut(NonEmptyShards(groups), [&](size_t s) {
      state_mu_.AssertHeld();
      for (const MovingObject* o : groups[s]) {
        PEB_RETURN_NOT_OK(mutable_tree(s).Insert(*o));
        ++inserted[s];
      }
      return Status::OK();
    });
    // Bookkeeping follows what the trees actually took, even on a failure.
    for (size_t s = 0; s < num_shards(); ++s) {
      for (size_t i = 0; i < inserted[s]; ++i) present_[groups[s][i]->id] = 1;
      tree_users_ += static_cast<int64_t>(inserted[s]);
    }
  }
  if (st.ok() && options_.tree.index.paranoid_checks) st = ValidateLocked();
  // Bulk loads are not journaled event-by-event; a checkpoint makes the
  // loaded base state durable in one stroke instead.
  if (st.ok() && durable_ != nullptr && !replaying_) {
    st = CheckpointLocked(/*clean=*/false);
  }
  return st;
}

Status ShardedPebEngine::ApplyBatch(const std::vector<UpdateEvent>& events) {
  std::vector<engine_wal::LoggedOp> ops;
  ops.reserve(events.size());
  for (const UpdateEvent& ev : events) {
    ops.push_back({engine_wal::LoggedOp::kUpdate, ev.state});
  }
  return Ingest(ops);
}

// ---------------------------------------------------------------------------
// Delta merges
// ---------------------------------------------------------------------------

Status ShardedPebEngine::MergeShards(const std::vector<size_t>& which) {
  if (which.empty()) return Status::OK();
  WriterMutexLock state_lock(&state_mu_);
  return MergeShardsLocked(which);
}

Status ShardedPebEngine::MergeShardsLocked(const std::vector<size_t>& which) {
  if (which.empty()) return Status::OK();
  // Only PUBLISHED records drain: a batch mid-append (writers do not hold
  // the state lock) must not become visible through the tree before its
  // publication makes it visible through the delta.
  const uint64_t bound = published_seq_.load(std::memory_order_acquire);
  const bool paranoid = options_.tree.index.paranoid_checks;
  // Every caller holds state_mu_ exclusive from before this call to after
  // it returns, so this times the merge's stretch of that section.
  SectionTimer hold(merge_lock_hold_ms_);
  std::vector<int64_t> effects(num_shards(), 0);
  std::atomic<uint64_t> merged_total{0};
  Status st = FanOut(which, [&](size_t s) {
    state_mu_.AssertHeld();
    PebTree& shard = mutable_tree(s);
    // No writer can append at or below the bound (their seqs exceed every
    // published one), so these are exactly the effects drained next.
    effects[s] = deltas_[s]->EffectUpTo(bound);
    const auto drained = deltas_[s]->DrainUpTo(bound);
    merged_total.fetch_add(drained.size(), std::memory_order_relaxed);
    for (const auto& [uid, rec] : drained) {
      if (rec.tombstone) {
        // Delete-if-present: the tombstoned user may only ever have
        // existed inside this delta (insert and delete both buffered).
        if (shard.GetObject(uid).ok()) PEB_RETURN_NOT_OK(shard.Delete(uid));
      } else {
        PEB_RETURN_NOT_OK(shard.Update(rec.state));  // Upsert.
      }
    }
    if (!paranoid) return Status::OK();
    // Delta/tree agreement: a drained user with no newer buffered record
    // must now read back from the tree exactly as the delta said —
    // tombstoned users gone, updated users at their new state.
    ShardDelta::Record newer;
    for (const auto& [uid, rec] : drained) {
      if (deltas_[s]->LatestVisible(uid, ~uint64_t{0}, &newer)) continue;
      auto got = shard.GetObject(uid);
      bool agree;
      if (rec.tombstone) {
        agree = !got.ok();
      } else {
        agree = got.ok() && (*got).pos.x == rec.state.pos.x &&
                (*got).pos.y == rec.state.pos.y &&
                (*got).vel.x == rec.state.vel.x &&
                (*got).vel.y == rec.state.vel.y &&
                (*got).tu == rec.state.tu;
      }
      if (!agree) {
        return Status::Corruption("delta merge left shard " +
                                  std::to_string(s) +
                                  " disagreeing with its tree about object " +
                                  std::to_string(uid));
      }
    }
    return Status::OK();
  });
  // The drained effects now live in the trees — even if an apply failed,
  // they have left the deltas.
  for (size_t s : which) tree_users_ += effects[s];
  PEB_RETURN_NOT_OK(st);
  delta_merges_count_.fetch_add(which.size(), std::memory_order_relaxed);
  delta_merged_records_.fetch_add(merged_total.load(std::memory_order_relaxed),
                                  std::memory_order_relaxed);
  telemetry::Inc(delta_merges_, which.size());
  telemetry::Inc(delta_merged_records_counter_,
                 merged_total.load(std::memory_order_relaxed));
  UpdateBacklogGauge();
  if (options_.tree.index.paranoid_checks) PEB_RETURN_NOT_OK(ValidateLocked());
  return Status::OK();
}

Status ShardedPebEngine::MaybeMergeDeltas() {
  std::vector<size_t> which;
  for (size_t s = 0; s < deltas_.size(); ++s) {
    if (deltas_[s]->records() >= options_.delta.merge_threshold) {
      which.push_back(s);
    }
  }
  return MergeShards(which);
}

Status ShardedPebEngine::MergeDeltas() {
  std::vector<size_t> which;
  for (size_t s = 0; s < deltas_.size(); ++s) {
    if (deltas_[s]->records() > 0) which.push_back(s);
  }
  return MergeShards(which);
}

ShardedPebEngine::DeltaStats ShardedPebEngine::delta_stats() const {
  DeltaStats out;
  for (const auto& d : deltas_) {
    const size_t n = d->records();
    out.buffered_records += n;
    out.max_shard_records = std::max(out.max_shard_records, n);
    out.appended_total += d->appended_total();
  }
  out.merges = delta_merges_count_.load(std::memory_order_relaxed);
  out.merged_records = delta_merged_records_.load(std::memory_order_relaxed);
  out.backpressure_merges =
      delta_backpressure_merges_.load(std::memory_order_relaxed);
  return out;
}

Status ShardedPebEngine::AdoptSnapshot(
    std::shared_ptr<const EncodingSnapshot> snapshot,
    const std::vector<UserId>* rekey) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("cannot adopt a null encoding snapshot");
  }
  // Reject before anything is swapped: the shard trees would refuse the
  // same snapshot, but only after the engine had already pinned it.
  if (snapshot->num_users() != num_users_) {
    return Status::InvalidArgument(
        "snapshot population differs from the engine's encoding");
  }
  if (snapshot->quantizer().bits() > options_.tree.sv_bits) {
    return Status::InvalidArgument(
        "snapshot quantizer wider than the key's SV field");
  }
  PEB_RETURN_NOT_OK(durability_status());
  // One exclusive section swaps every shard AND applies every re-key:
  // queries (shared holders) observe either the old epoch with old keys or
  // the new epoch with new keys, never a mix — on any shard count.
  WriterMutexLock state_lock(&state_mu_);
  snapshot_ = snapshot;

  std::vector<std::vector<UserId>> groups(num_shards());
  if (rekey != nullptr) {
    for (UserId uid : *rekey) {
      // Ids outside the encoding are not indexed anywhere: skip them, as
      // the ingest path rejects them.
      if (uid < num_users_) groups[ShardOf(uid, num_shards())].push_back(uid);
    }
  }
  std::vector<size_t> every_shard(num_shards());
  std::iota(every_shard.begin(), every_shard.end(), size_t{0});
  PEB_RETURN_NOT_OK(FanOut(every_shard, [&](size_t s) {
    state_mu_.AssertHeld();
    return mutable_tree(s).AdoptSnapshot(
        snapshot, rekey == nullptr ? nullptr : &groups[s]);
  }));
  if (options_.tree.index.paranoid_checks) {
    PEB_RETURN_NOT_OK(ValidateLocked());
  }
  if (wal_ != nullptr && !replaying_) {
    // Journal the epoch barrier, then checkpoint IMMEDIATELY: recovery
    // replays pre-adopt records against the pre-adopt encoding, so a
    // kRekey record must never have replayable records after it. The
    // checkpoint truncates the log right here, making an uncommitted
    // kRekey provably the WAL tail — replay stops when it sees one.
    // Writers stay frozen from the barrier through the checkpoint
    // (state_mu_ -> ingest_mu_): a batch logged in between would be
    // acknowledged, then dropped by a recovery that stops at the barrier.
    MutexLock ingest(&ingest_mu_);
    {
      MutexLock wal_lock(&wal_mu_);
      PEB_RETURN_NOT_OK(AppendWal(engine_wal::kRekey,
                                  engine_wal::EncodeRekey(snapshot->epoch()),
                                  /*sync=*/true));
    }
    PEB_RETURN_NOT_OK(CheckpointFrozen(/*clean=*/false));
  }
  return Status::OK();
}

uint64_t ShardedPebEngine::encoding_epoch() const {
  ReaderMutexLock state_lock(&state_mu_);
  return snapshot_->epoch();
}

Status ShardedPebEngine::RunExclusive(const std::function<Status()>& fn) {
  WriterMutexLock state_lock(&state_mu_);
  return fn();
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

size_t ShardedPebEngine::SizeLocked(uint64_t watermark) const {
  // The shared state lock excludes merges, so every effect at or below the
  // watermark is either still buffered or already in tree_users_.
  int64_t total = tree_users_;
  for (const auto& delta : deltas_) total += delta->EffectUpTo(watermark);
  return static_cast<size_t>(total);
}

void ShardedPebEngine::OverlayFriends(
    std::vector<std::vector<FriendEntry>>* per_shard, uint64_t watermark,
    std::vector<DeltaCandidate>* out) const {
  uint64_t probes = 0;
  uint64_t shadowed = 0;
  for (size_t s = 0; s < per_shard->size(); ++s) {
    std::vector<FriendEntry>& friends = (*per_shard)[s];
    // records() AFTER the watermark acquire-load: the publishing release
    // store orders the counter increments, so an empty read really means
    // no visible records (newer invisible ones may still be missed —
    // fine, they are invisible anyway).
    if (friends.empty() || deltas_[s]->records() == 0) continue;
    size_t kept = 0;
    ShardDelta::Record rec;
    for (FriendEntry& f : friends) {
      ++probes;
      if (deltas_[s]->LatestVisible(f.uid, watermark, &rec)) {
        ++shadowed;
        // Shadowed: the delta answers for this friend. Tombstoned users
        // simply vanish from the query.
        if (!rec.tombstone) out->push_back({f.uid, rec.state});
      } else {
        // Keeping survivors in place preserves the encoding's ascending
        // (qsv, uid) order BuildRows requires.
        friends[kept++] = f;
      }
    }
    friends.resize(kept);
  }
  if (probes > 0) telemetry::Inc(delta_probes_, probes);
  if (shadowed > 0) telemetry::Inc(delta_shadowed_, shadowed);
}

size_t ShardedPebEngine::size() const {
  ReaderMutexLock state_lock(&state_mu_);
  return SizeLocked(published_seq_.load(std::memory_order_acquire));
}

BufferPool* ShardedPebEngine::pool() { return &pool_; }

size_t ShardedPebEngine::buffer_frames_total() const {
  return pool_.capacity();
}

IoStats ShardedPebEngine::aggregate_io() const { return pool_.stats(); }

void ShardedPebEngine::ResetIo() { pool_.ResetStats(); }

std::vector<std::vector<FriendEntry>> ShardedPebEngine::PartitionFriends(
    UserId issuer) const {
  // Callers hold state_mu_ (shared suffices): snapshot_ is pinned for the
  // whole fanned-out query.
  std::vector<std::vector<FriendEntry>> per_shard(num_shards());
  for (const FriendEntry& f : snapshot_->FriendsOf(issuer)) {
    per_shard[ShardOf(f.uid, num_shards())].push_back(f);
  }
  return per_shard;
}

void ShardedPebEngine::MergeCounters(const QueryCounters& shard_counters,
                                     QueryCounters* into) {
  into->candidates_examined += shard_counters.candidates_examined;
  into->results += shard_counters.results;
  into->range_probes += shard_counters.range_probes;
  into->rounds = std::max(into->rounds, shard_counters.rounds);
  into->seek_descents += shard_counters.seek_descents;
  into->leaf_hops += shard_counters.leaf_hops;
}

Result<std::vector<UserId>> ShardedPebEngine::RangeQueryWithStats(
    UserId issuer, const Rect& range, Timestamp tq, QueryStats* stats) {
  PEB_RETURN_NOT_OK(ValidateQueryRect(range));
  const bool collect = stats != nullptr;
  // Queries hold the engine state lock shared: parallel with each other,
  // atomic with respect to update batches AND snapshot adoption — the
  // epoch is pinned at admission.
  ReaderMutexLock state_lock(&state_mu_);
  if (issuer >= snapshot_->num_users()) {
    return UnknownIssuerError(issuer);
  }
  if (collect) stats->epoch = snapshot_->epoch();
  std::vector<std::vector<FriendEntry>> per_shard = PartitionFriends(issuer);
  // Delta overlay: friends with a visible delta record leave the tree
  // candidate lists and are answered from their delta state below, through
  // the same Definition-2 predicate the tree scans apply — so the answer
  // does not depend on whether an update has been merged yet.
  std::vector<DeltaCandidate> delta_cands;
  OverlayFriends(&per_shard, published_seq_.load(std::memory_order_acquire),
                 &delta_cands);
  SharedScanCache cache;  // One window decomposition for all shards.

  struct Slot {
    std::vector<UserId> ids;
    QueryCounters counters;
    IoStats io;
  };
  telemetry::TraceBuilder* trace = collect ? stats->trace : nullptr;
  const size_t trace_parent =
      collect ? stats->trace_span : telemetry::TraceSpan::kNoParent;
  std::vector<Slot> slots(num_shards());
  PEB_RETURN_NOT_OK(FanOut(NonEmptyShards(per_shard), [&](size_t s) {
    state_mu_.AssertReaderHeld();
    // Attribute this task's pool traffic to its own slot: exact per-query
    // I/O even while other queries run on the same pool.
    BufferPool::ThreadIoScope io_scope(collect ? &slots[s].io : nullptr);
    telemetry::Inc(shard_instruments_[s].queries);
    size_t span = telemetry::TraceSpan::kNoParent;
    if (trace != nullptr) {
      span = trace->StartSpan("shard " + std::to_string(s), trace_parent);
      trace->Annotate(span, "friends=" + std::to_string(per_shard[s].size()));
    }
    // Counters land in this task's own slot (scan-local), so concurrent
    // queries scanning the same shard tree never share observer state.
    auto r = tree(s).RangeQueryAmong(issuer, range, tq, per_shard[s], &cache,
                                     &slots[s].counters);
    if (r.ok()) slots[s].ids = std::move(*r);
    if (trace != nullptr) {
      trace->AddStats(span, slots[s].counters, slots[s].io);
      trace->EndSpan(span);
    }
    return r.status();
  }));

  std::vector<UserId> merged;
  for (Slot& slot : slots) {
    if (collect) {
      MergeCounters(slot.counters, &stats->counters);
      stats->io += slot.io;
    }
    merged.insert(merged.end(), slot.ids.begin(), slot.ids.end());
  }
  // Shadowed friends answer from their delta state: same acceptance test
  // as PebTree's candidate filter (window containment + Definition 2).
  for (const DeltaCandidate& c : delta_cands) {
    const Point pos = c.state.PositionAt(tq);
    if (range.Contains(pos) &&
        store_->Qualifies(c.uid, issuer, pos, tq, *roles_,
                          options_.tree.time_domain)) {
      merged.push_back(c.uid);
    }
  }
  // Shards host disjoint user sets, so this is a disjoint union; the
  // interface promises ascending user id.
  std::sort(merged.begin(), merged.end());
  if (collect) stats->counters.results = merged.size();
  return merged;
}

Result<std::vector<Neighbor>> ShardedPebEngine::KnnQueryWithStats(
    UserId issuer, const Point& qloc, size_t k, Timestamp tq,
    QueryStats* stats) {
  PEB_RETURN_NOT_OK(ValidateQueryK(k));
  const bool collect = stats != nullptr;
  std::vector<Neighbor> verified;
  ReaderMutexLock state_lock(&state_mu_);
  if (issuer >= snapshot_->num_users()) {
    return UnknownIssuerError(issuer);
  }
  if (collect) stats->epoch = snapshot_->epoch();
  // One watermark for the seed radius AND the overlay: both see the same
  // published batches.
  const uint64_t watermark = published_seq_.load(std::memory_order_acquire);
  std::vector<std::vector<FriendEntry>> per_shard = PartitionFriends(issuer);

  // The engine drives the Figure-9 enlargement: every shard enlarges with
  // the same schedule (derived from GLOBAL workload state, so shard count
  // never changes the search geometry), scanning only its own friend rows.
  // The schedule starts at the cost model's candidate-density seed radius.
  size_t total_friends = 0;
  for (const auto& fl : per_shard) total_friends += fl.size();
  const double rq = KnnSeedRadiusFor(total_friends, SizeLocked(watermark),
                                     snapshot_->num_users(), k,
                                     options_.tree.index.space_side);
  // Delta overlay AFTER the seed radius: the schedule above already uses
  // the exact SizeLocked() and the PRE-overlay friend count, so the
  // enlargement geometry does not depend on how much of the delta has been
  // merged. Shadowed friends are answered exactly, from their delta state,
  // before any scan runs — the same verification and distance the tree's
  // InsertVerified would compute.
  std::vector<DeltaCandidate> delta_cands;
  OverlayFriends(&per_shard, watermark, &delta_cands);
  for (const DeltaCandidate& c : delta_cands) {
    const Point pos = c.state.PositionAt(tq);
    if (store_->Qualifies(c.uid, issuer, pos, tq, *roles_,
                          options_.tree.time_domain)) {
      Neighbor nb{c.uid, pos.DistanceTo(qloc)};
      auto at = std::lower_bound(verified.begin(), verified.end(), nb,
                                 [](const Neighbor& a, const Neighbor& b) {
                                   return a.distance < b.distance;
                                 });
      verified.insert(at, nb);
    }
  }
  SharedScanCache cache;  // One ring decomposition per round for all shards.

  struct Slot {
    std::optional<PebTree::KnnScan> scan;
    IoStats io;
  };
  const std::vector<size_t> which = NonEmptyShards(per_shard);
  std::vector<Slot> slots(num_shards());
  for (size_t s : which) {
    BufferPool::ThreadIoScope io_scope(collect ? &slots[s].io : nullptr);
    telemetry::Inc(shard_instruments_[s].queries);
    slots[s].scan.emplace(
        tree(s).NewKnnScan(issuer, qloc, tq, rq, per_shard[s], &cache));
  }

  // Streaming merge: ONE task per shard drives that shard's whole scan,
  // publishing each anti-diagonal's candidates into the shared verified
  // list as soon as they exist — no engine-wide per-round barrier, so a
  // shard whose friends sit near the query point finishes and frees its
  // worker while a sparse shard is still enlarging. Once k verified
  // candidates exist globally, a shard whose covered radius already
  // reaches the k-th distance RETIRES outright (its remaining annuli and
  // final vertical scan provably cannot beat any current top-k entry);
  // otherwise it stops enlarging and runs one vertical delta scan.
  // Retirement with the k-th distance of the moment stays correct when
  // later merges shrink it: unexamined users are farther than the
  // retirement-time bound, which only ever exceeds the final one.
  telemetry::TraceBuilder* trace = collect ? stats->trace : nullptr;
  const size_t trace_parent =
      collect ? stats->trace_span : telemetry::TraceSpan::kNoParent;
  Mutex merge_mu;
  PEB_RETURN_NOT_OK(FanOut(which, [&](size_t s) {
    Slot& sl = slots[s];
    BufferPool::ThreadIoScope io_scope(collect ? &sl.io : nullptr);
    size_t shard_span = telemetry::TraceSpan::kNoParent;
    if (trace != nullptr) {
      shard_span = trace->StartSpan("shard " + std::to_string(s), trace_parent);
      trace->Annotate(shard_span,
                      "runs=" + std::to_string(sl.scan->num_rows()));
    }
    const size_t nd = sl.scan->max_diagonals();
    // Per-round work a child span should be charged with: an inner
    // ThreadIoScope is innermost-wins, so it SUPPRESSES the slot scope for
    // its extent and the delta must be added back to sl.io by hand.
    auto scan_round = [&](const std::string& name, size_t d, auto&& run) {
      size_t round_span = telemetry::TraceSpan::kNoParent;
      IoStats round_io;
      QueryCounters before;
      std::optional<BufferPool::ThreadIoScope> round_scope;
      if (trace != nullptr) {
        round_span = trace->StartSpan(name, shard_span);
        before = sl.scan->counters();
        round_scope.emplace(&round_io);
      }
      Status st = run();
      if (trace != nullptr) {
        round_scope.reset();
        sl.io += round_io;
        QueryCounters after = sl.scan->counters();
        QueryCounters delta;
        delta.candidates_examined =
            after.candidates_examined - before.candidates_examined;
        delta.results = after.results - before.results;
        delta.range_probes = after.range_probes - before.range_probes;
        delta.rounds = after.rounds - before.rounds;
        delta.seek_descents = after.seek_descents - before.seek_descents;
        delta.leaf_hops = after.leaf_hops - before.leaf_hops;
        trace->AddStats(round_span, delta, round_io);
        trace->Annotate(
            round_span, "radius=" + std::to_string(sl.scan->RadiusForRound(d)));
        trace->EndSpan(round_span);
      }
      return st;
    };
    Status st;
    std::vector<Neighbor> fresh;
    for (size_t d = 0; d < nd; ++d) {
      if (sl.scan->AllFound()) break;
      double dk = 0.0;
      bool have_k = false;
      {
        MutexLock g(&merge_mu);
        if (verified.size() >= k) {
          have_k = true;
          dk = verified[k - 1].distance;
        }
      }
      if (have_k) {
        // The global k-th distance bounds this shard's remaining work: it
        // retires here, after at most one closing vertical scan.
        telemetry::Inc(pknn_retirements_);
        if (d == 0 || sl.scan->CoveredRadiusAfterDiagonal(d - 1) < dk) {
          fresh.clear();
          st = scan_round("vertical", d, [&] {
            return sl.scan->VerticalScan(dk, &fresh);
          });
          if (!st.ok() || fresh.empty()) break;
          MutexLock g(&merge_mu);
          MergeByDistance(fresh, &verified);
        }
        // Else retired outright: the covered radius already reaches the
        // global k-th distance, so even the vertical scan is moot.
        break;
      }
      fresh.clear();
      telemetry::Inc(pknn_rounds_);
      st = scan_round("round " + std::to_string(d), d, [&] {
        return sl.scan->ScanDiagonal(d, &fresh);
      });
      if (!st.ok()) break;
      if (!fresh.empty()) {
        MutexLock g(&merge_mu);
        MergeByDistance(fresh, &verified);
      }
    }
    // Every diagonal exhausted: the scan covered the whole space for each
    // run that still has unlocated users, so those users are simply not
    // hosted here — nothing left to rule out.
    if (trace != nullptr) {
      trace->AddStats(shard_span, sl.scan->counters(), sl.io);
      trace->EndSpan(shard_span);
    }
    return st;
  }));

  if (verified.size() > k) verified.resize(k);
  if (collect) {
    // Each scan owns its counters (never the shared tree slot) and each
    // task attributed its pool traffic to its own slot, so the merged
    // totals are exact even while other queries run concurrently. RunAll's
    // completion synchronizes the reads.
    for (Slot& slot : slots) {
      if (!slot.scan.has_value()) continue;
      MergeCounters(slot.scan->counters(), &stats->counters);
      stats->io += slot.io;
    }
    stats->counters.results = verified.size();
  }
  return verified;
}

Result<MovingObject> ShardedPebEngine::GetObject(UserId id) const {
  if (id >= num_users_) return Status::NotFound("object " + std::to_string(id));
  ReaderMutexLock state_lock(&state_mu_);
  const size_t idx = ShardOf(id, num_shards());
  const uint64_t watermark = published_seq_.load(std::memory_order_acquire);
  if (deltas_[idx]->records() > 0) {
    ShardDelta::Record rec;
    telemetry::Inc(delta_probes_);
    if (deltas_[idx]->LatestVisible(id, watermark, &rec)) {
      telemetry::Inc(delta_shadowed_);
      if (rec.tombstone) {
        return Status::NotFound("object " + std::to_string(id));
      }
      return rec.state;
    }
  }
  return tree(idx).GetObject(id);
}

// ---------------------------------------------------------------------------
// Structural validation
// ---------------------------------------------------------------------------

Status ShardedPebEngine::ValidateLocked() const {
  const uint64_t epoch = snapshot_ == nullptr ? 0 : snapshot_->epoch();
  int64_t tree_total = 0;
  for (size_t s = 0; s < num_shards(); ++s) {
    const PebTree& shard = tree(s);
    tree_total += static_cast<int64_t>(shard.size());
    if (shard.encoding_epoch() != epoch) {
      return Status::Corruption(
          "engine shard " + std::to_string(s) + " serves epoch " +
          std::to_string(shard.encoding_epoch()) +
          " while the engine pins epoch " + std::to_string(epoch));
    }
    PEB_RETURN_NOT_OK(shard.ValidateInvariants());
    Status routing = Status::OK();
    shard.ForEachObject([&](UserId uid, const MovingObject&) {
      if (!routing.ok()) return;
      if (uid >= num_users_) {
        routing = Status::Corruption(
            "user " + std::to_string(uid) + " hosted by shard " +
            std::to_string(s) + " outside the policy encoding");
      } else if (ShardOf(uid, num_shards()) != s) {
        routing = Status::Corruption(
            "user " + std::to_string(uid) + " hosted by shard " +
            std::to_string(s) + " but routed to shard " +
            std::to_string(ShardOf(uid, num_shards())));
      }
    });
    PEB_RETURN_NOT_OK(routing);
    // Delta invariants: every buffered record routed here, in-bounds,
    // per-user seqs ascending, no tombstone chains, and a user whose
    // FIRST buffered record is a tombstone must still be tree-resident
    // (Delete only ever tombstones a then-present user, and merges drain
    // record prefixes atomically with the tree application).
    Status delta_st = Status::OK();
    UserId prev_uid = kInvalidUserId;
    uint64_t prev_seq = 0;
    bool prev_tomb = false;
    deltas_[s]->ForEachRecord([&](UserId uid,
                                  const ShardDelta::Record& rec) {
      if (!delta_st.ok()) return;
      if (uid >= num_users_) {
        delta_st = Status::Corruption(
            "delta record for user " + std::to_string(uid) +
            " outside the policy encoding");
      } else if (ShardOf(uid, num_shards()) != s) {
        delta_st = Status::Corruption(
            "delta record for user " + std::to_string(uid) +
            " buffered by shard " + std::to_string(s) +
            " but routed to shard " +
            std::to_string(ShardOf(uid, num_shards())));
      } else if (uid == prev_uid && rec.seq < prev_seq) {
        delta_st = Status::Corruption(
            "delta seqs not ascending for user " + std::to_string(uid));
      } else if (uid == prev_uid && rec.tombstone && prev_tomb) {
        delta_st = Status::Corruption(
            "consecutive tombstones buffered for user " +
            std::to_string(uid));
      } else if (uid != prev_uid && rec.tombstone &&
                 !shard.GetObject(uid).ok()) {
        delta_st = Status::Corruption(
            "leading tombstone for user " + std::to_string(uid) +
            " who is not hosted by shard " + std::to_string(s) +
            "'s tree");
      }
      prev_uid = uid;
      prev_seq = rec.seq;
      prev_tomb = rec.tombstone;
    });
    PEB_RETURN_NOT_OK(delta_st);
  }
  if (tree_total != tree_users_) {
    return Status::Corruption(
        "engine counts " + std::to_string(tree_users_) +
        " tree-resident users but its shard trees host " +
        std::to_string(tree_total));
  }
  return pool_.ValidateInvariants();
}

Status ShardedPebEngine::ValidateInvariants() const {
  ReaderMutexLock state_lock(&state_mu_);
  PEB_RETURN_NOT_OK(ValidateLocked());
  // Membership bookkeeping, with writers frozen (state_mu_ -> ingest_mu_,
  // the checkpoint's order): every buffered record is published, so the
  // latest one decides a user's presence.
  MutexLock ingest(&ingest_mu_);
  std::vector<uint8_t> expected(num_users_, 0);
  int64_t buffered_effect = 0;
  for (size_t s = 0; s < num_shards(); ++s) {
    tree(s).ForEachObject(
        [&](UserId uid, const MovingObject&) { expected[uid] = 1; });
    // Per user in ascending seq: the last write is the latest record.
    deltas_[s]->ForEachRecord([&](UserId uid, const ShardDelta::Record& rec) {
      expected[uid] = rec.tombstone ? 0 : 1;
    });
    buffered_effect += deltas_[s]->EffectUpTo(~uint64_t{0});
  }
  int64_t present = 0;
  for (UserId uid = 0; uid < num_users_; ++uid) {
    if (present_[uid] != expected[uid]) {
      return Status::Corruption(
          "presence byte of user " + std::to_string(uid) + " is " +
          std::to_string(present_[uid]) + " but the trees and deltas say " +
          std::to_string(expected[uid]));
    }
    present += present_[uid];
  }
  if (tree_users_ + buffered_effect != present) {
    return Status::Corruption(
        std::to_string(tree_users_) + " tree-resident users plus buffered "
        "membership effects of " + std::to_string(buffered_effect) +
        " disagree with " + std::to_string(present) + " present users");
  }
  return Status::OK();
}

}  // namespace engine
}  // namespace peb
