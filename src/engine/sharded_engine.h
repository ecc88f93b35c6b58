// ShardedPebEngine: a parallel query engine over N independent PEB-tree
// shards.
//
// Motivated by MOIST's partitioned moving-object indexing and by velocity
// partitioning for Bx-style trees: one logical index is split into N
// physical PEB-trees sharing one disk manager and one sharded clock buffer
// pool — the pool's per-shard latches (storage/buffer_pool.h) make
// concurrent page access from the worker threads contention-free, and the
// aggregate frame budget is exactly the configured buffer_pages (no
// per-shard floor inflation, so I/O stays directly comparable to the
// paper's single-tree figures).
// Users hash to shards (engine/shard_router.h), so every user has exactly
// one home shard; inserts, deletes, and updates are routed there. Queries
// exploit the PEB-tree's query structure (per-friend SV x Z-interval
// scans): the issuer's friend list is partitioned by home shard and each
// shard answers only for the friends it hosts, on a fixed ThreadPool, so
// wall-clock drops with parallelism. Sharding is not free in work: hashing
// splits an issuer's friend rows across shards, which breaks up the SV
// runs a single tree scans as one key range, so the total key-range probe
// count and page fetches exceed the single tree's (about +45% for 4 shards
// in BENCH_engine_scaling.json). Per-shard candidate lists are merged
// into one result (merged by distance for PkNN). For PkNN the engine runs
// ONE streaming task per shard, with no per-round barrier: each shard
// publishes its anti-diagonal's candidates into a shared verified list as
// soon as they exist, and a shard retires the moment its provably covered
// radius reaches the global k-th candidate distance — its remaining
// annuli (and final vertical scan) cannot improve the answer.
//
// Results are shard-count invariant: a user qualifies for a PRQ/PkNN answer
// in exactly one shard (their home shard), so the merged result equals the
// single PEB-tree's answer for any shard count (tests/engine_test.cc
// asserts this for 1, 2, 4, and 7 shards).
//
// Thread-safety: one engine-level reader-writer lock, state_mu_, guards
// every shard tree. Every tree mutation (LoadDataset, AdoptSnapshot, delta
// merges, checkpoints' merges, Open()'s attach) holds it exclusive; every
// tree read (queries, GetObject, validation) holds it at least shared.
// Readers share a tree freely: they use the PebTree const read path
// (RangeQueryAmong / KnnScan), which keeps its work counters in the
// caller's slot or scan and reads pages through the thread-safe buffer
// pool, so two queries on one shard scan it at the same time. Trees are
// reached only through tree() / mutable_tree(), whose annotations let
// clang's thread-safety analysis prove the rule. Worker tasks run on pool
// threads, where the analysis cannot see the dispatcher's hold across
// ThreadPool::RunAll, so each task that touches a tree asserts it. A
// mutation's per-shard tasks each touch a different tree. The same lock
// keeps every query's view atomic: a query fanned out over several
// shards can never observe half a merge or half an epoch.
//
// Log-structured ingestion: every mutation (Insert/Update/Delete, one op
// each; ApplyBatch, one op per event; and Open()'s WAL replay, one batch
// per logged record) goes through one write path, Ingest(), which never
// takes state_mu_ itself (only through the merges it triggers).
// Writers serialize on a dedicated ingest mutex, append raw-state records
// to the home shard's in-memory delta (engine/shard_delta.h) under that
// shard's delta latch, and publish the batch by storing its seq into an
// atomic watermark. Writers also track membership: one presence byte per
// encoded user answers Insert's AlreadyExists and Delete's NotFound without
// a tree probe, and tags every appended record as a join, a leave or a
// move. The deltas keep those effects, so the logical size at a watermark
// is the tree-resident count plus the visible effects — O(shards) for
// size() and for PkNN's seed radius. Read paths pin the watermark once at
// admission and merge the delta with the tree scan: friends with a visible
// delta record are lifted out of the per-shard tree candidate lists and
// evaluated directly from their delta state through the SAME Definition-2
// predicate the tree scans use (PolicyStore::Qualifies), so answers do not
// depend on how much has been merged, and queries never wait behind update
// application.
// Deltas drain into the B+-trees in bounded merges — on a per-shard
// record-count threshold at the end of an ingest call, or explicitly via
// MergeDeltas() — under the existing exclusive section, whose hold time is
// bounded by the threshold (and shortened further by latest-record dedup:
// N buffered updates of one user cost one tree update).
//
// Lock order: state_mu_ -> ingest_mu_ -> delta.mu. Writers take only
// ingest_mu_ -> delta.mu. Merges, queries and validation take
// state_mu_ -> delta.mu; a merge holds state_mu_ exclusive across drain
// AND apply, so no reader sees the window where a record left the delta
// but has not reached the tree. The ingest path never takes
// state_mu_ itself (only through the merges it triggers outside its ingest
// section); queries only ever hold state_mu_ shared. Checkpoints,
// AdoptSnapshot, LoadDataset, Open()'s tree attach and ValidateInvariants
// additionally take state_mu_ -> ingest_mu_ (never the reverse: ingest
// calls MergeShards only OUTSIDE its ingest section), freezing both
// mutation paths: the WAL truncation at the end of a checkpoint cannot race
// a concurrent append, no batch can be logged between a re-key's epoch
// barrier and the checkpoint that follows it, and the presence bytes hold
// still while trees are loaded or audited.
// wal_mu_ is a leaf: it is the WAL's only guard (the log itself is not
// thread-safe) and guards its sequence counter and the durability poison
// status; no code acquires another lock under it.
//
// Durability (EngineOptions::durability.path non-empty): the engine runs on
// a FileDiskManager overlay store + write-ahead log instead of the
// in-memory disk. Between checkpoints the database FILE never changes —
// every page write lands in the disk manager's in-RAM overlay — so the
// file always holds exactly the last checkpoint and a crash loses nothing
// that was checkpointed. Logical mutations are journaled to the WAL AFTER
// the in-RAM apply succeeds (log-after-apply is correct precisely because
// durable state only changes at checkpoints: replay starts from the last
// checkpoint image, so only the WAL suffix — not the apply order — decides
// the recovered state). A WAL append/sync failure latches a poison status:
// the in-RAM engine may then be ahead of what recovery can reproduce, so
// every further mutation and checkpoint is rejected until the engine is
// reopened — the failed batch reported an error to its caller, so
// at-most-once application is preserved. Checkpoint() = merge all deltas
// (truncating the WAL must not orphan buffered events) -> flush the pool
// (strict: a pinned dirty page fails the checkpoint) -> journal every
// overlay page + a commit record into the WAL -> fold the overlay into the
// file under a new superblock generation -> truncate the WAL. Recovery
// (Open) adopts the newest complete checkpoint (superblock, or a newer one
// whose fold crashed but whose WAL commit record landed), re-attaches the
// shard trees from its manifest without rebuilding, replays the WAL suffix
// through Ingest() (each kEvents record as the one batch it was published
// as), and re-checkpoints.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bxtree/privacy_index.h"
#include "common/thread_annotations.h"
#include "engine/engine_wal.h"
#include "engine/shard_delta.h"
#include "engine/shard_router.h"
#include "engine/thread_pool.h"
#include "peb/peb_tree.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "telemetry/metrics.h"

namespace peb {

struct FaultInjector;

namespace engine {

/// Engine configuration.
struct EngineOptions {
  size_t num_shards = 4;
  /// Worker threads for shard fan-out; 0 runs every shard task inline on
  /// the calling thread (deterministic single-threaded mode).
  size_t num_threads = 4;
  /// Aggregate buffer frames of the single shared pool (the paper's
  /// 50-page budget by default, so aggregate I/O stays comparable to the
  /// single-tree experiments — exactly, since there is no per-shard
  /// split).
  size_t buffer_pages = 50;
  /// Per-shard PEB-tree configuration (shared by all shards). The engine
  /// always sweeps PkNN by anti-diagonal: `tree.knn_order` is honoured
  /// only by the single tree (PebTree::KnnQueryAmong) and read by no
  /// engine code.
  PebTreeOptions tree;
  /// Log-structured ingestion tuning.
  struct DeltaIngestOptions {
    /// A shard whose delta reaches this many buffered records is merged at
    /// the end of the ingest call that crossed it. Bounds both merge
    /// lock-hold time and query-side read amplification.
    size_t merge_threshold = 4096;
    /// Backpressure ceiling: an ingest batch that would land on a shard
    /// already buffering this many records first merges that shard inline
    /// (the writer stalls; queries never do). 0 = 8 * merge_threshold.
    size_t hard_cap = 0;
  };
  DeltaIngestOptions delta;
  /// Durable storage. Default (empty path) keeps the in-memory disk — no
  /// behavior change for experiments that only measure I/O counts.
  struct DurabilityOptions {
    /// Database file path. Non-empty = durable engine: file-backed overlay
    /// store at `path` plus a write-ahead log at `path + ".wal"`. The WAL is
    /// synced (fdatasync) after every logged mutation batch, so an OK
    /// ApplyBatch survives a crash.
    std::string path;
    /// Allow fresh-engine construction to truncate a path that already
    /// holds a valid database. Off (the default) poisons the engine
    /// instead (durability_status() reports it): reopening a database is
    /// Open()'s job, and constructing a fresh engine over one would
    /// silently destroy it.
    bool overwrite_existing = false;
    /// Take a clean-shutdown checkpoint in the destructor. Crash tests turn
    /// this off to make engine teardown indistinguishable from kill -9.
    bool checkpoint_on_close = true;
    /// Test-only failpoints (storage/fault_injection.h): counted crash
    /// drops / torn writes on the file and WAL, EIO on sync. Null in
    /// production.
    FaultInjector* fault_injector = nullptr;
  };
  DurabilityOptions durability;
  /// Engine instruments (per-shard query/update counts, PkNN rounds and
  /// retirements, LoadDataset's and each merge's time inside the exclusive
  /// state section, delta append/probe/merge counters, per-pool-shard
  /// IoStats samples).
  telemetry::TelemetryOptions telemetry;
};

class ShardedPebEngine final : public PrivacyAwareIndex {
 public:
  /// Policies and roles must outlive the engine; the encoding snapshot is
  /// shared (every shard tree holds it) and swappable via AdoptSnapshot.
  ShardedPebEngine(const EngineOptions& options, const PolicyStore* store,
                   const RoleRegistry* roles,
                   std::shared_ptr<const EncodingSnapshot> snapshot);

  /// Unregisters this engine's registry collector (benches construct many
  /// engines against the long-lived default registry).
  ~ShardedPebEngine() override;

  // --- PrivacyAwareIndex ----------------------------------------------------
  Status Insert(const MovingObject& object) override;
  Status Update(const MovingObject& object) override;
  Status Delete(UserId id) override;
  size_t size() const override;
  Result<MovingObject> GetObject(UserId id) const override;
  /// The shared pool serving every shard tree.
  BufferPool* pool() override;
  IoStats aggregate_io() const override;
  void ResetIo() override;

  /// Exact per-query observability under concurrent submission: every
  /// shard task accumulates its own counters and attributes its buffer-pool
  /// traffic through BufferPool::ThreadIoScope, and the merged totals are
  /// returned by value in `stats` — no shared observer state on the hot
  /// path (PRQ shard counters go straight into the query's own slot via
  /// RangeQueryAmong's counters out-param, never through shared tree
  /// state). When `stats` carries a TraceBuilder, each shard task opens a
  /// per-shard span (and, for PkNN, one child span per enlargement round)
  /// whose counters/IoStats deltas sum to the query's own totals.
  Result<std::vector<UserId>> RangeQueryWithStats(UserId issuer,
                                                  const Rect& range,
                                                  Timestamp tq,
                                                  QueryStats* stats) override;
  Result<std::vector<Neighbor>> KnnQueryWithStats(UserId issuer,
                                                  const Point& qloc, size_t k,
                                                  Timestamp tq,
                                                  QueryStats* stats) override;

  /// Adopts a new policy-encoding snapshot ATOMICALLY across all shards:
  /// under the exclusive state lock, every shard tree swaps to `snapshot`
  /// and re-keys the users it hosts from `rekey` (grouped by home shard,
  /// applied on worker threads through the same per-shard path update
  /// batches use). Queries hold the state lock shared, so 1-shard and
  /// N-shard engines expose identical epoch transitions — no query ever
  /// sees half an epoch. A durable engine journals an epoch barrier and
  /// checkpoints with writers frozen from the barrier on, so no batch is
  /// acknowledged between the two.
  Status AdoptSnapshot(std::shared_ptr<const EncodingSnapshot> snapshot,
                       const std::vector<UserId>* rekey) override;
  uint64_t encoding_epoch() const override;

  /// Runs `fn` while the engine state lock is held exclusive — atomically
  /// with respect to every query and update. The service layer uses this
  /// to mutate live policy state (PolicyStore/RoleRegistry) that query
  /// verification reads. `fn` must not call back into the engine.
  Status RunExclusive(const std::function<Status()>& fn);

  // --- bulk operations ------------------------------------------------------
  /// Routes and inserts every object, loading shards in parallel.
  /// All-or-nothing: an id outside the encoding (InvalidArgument), already
  /// present in the engine or repeated within the dataset (AlreadyExists)
  /// rejects the whole load before anything is inserted. Buffered deltas
  /// drain first, so no buffered tombstone shadows a loaded user.
  Status LoadDataset(const Dataset& dataset);

  /// Applies a time-ordered update batch through Ingest(), one kUpdate op
  /// per event: the whole batch is appended to the home shards' deltas
  /// under the ingest lock and published atomically (one seq per batch),
  /// so concurrent queries see all of it or none of it — without the batch
  /// ever blocking them. A batch naming an id outside the policy encoding
  /// is rejected whole, before anything is published.
  Status ApplyBatch(const std::vector<UpdateEvent>& events);

  // --- durability -----------------------------------------------------------
  /// Reopens a durable engine from `options.durability.path` (which must
  /// name an existing database file): adopts the newest complete
  /// checkpoint, re-attaches the shard trees from its manifest WITHOUT
  /// rebuilding, replays the WAL suffix up to the last complete batch
  /// boundary, validates (always after an unclean shutdown, and whenever
  /// paranoid_checks is on), and re-checkpoints so a crash during recovery
  /// itself replays idempotently. `snapshot` must carry the same encoding
  /// epoch the file was checkpointed under, and options.num_shards must
  /// match the persisted shard count.
  static Result<std::unique_ptr<ShardedPebEngine>> Open(
      const EngineOptions& options, const PolicyStore* store,
      const RoleRegistry* roles,
      std::shared_ptr<const EncodingSnapshot> snapshot);

  /// Folds all in-RAM state into the database file and truncates the WAL
  /// (see the checkpoint protocol in the header comment). InvalidArgument
  /// on a non-durable engine; any I/O failure poisons the engine.
  Status Checkpoint() EXCLUDES(state_mu_);

  /// Whether this engine has a durable backing store.
  bool durable() const { return durable_ != nullptr; }

  /// OK, or the latched poison status after a durability I/O failure (all
  /// mutations and checkpoints fail with it until the engine is reopened).
  /// Always OK on in-memory engines.
  Status durability_status() const EXCLUDES(wal_mu_);

  /// The durable store (null on in-memory engines); tests inspect overlay
  /// and superblock state through it.
  const FileDiskManager* durable_store() const { return durable_; }

  // --- delta ingestion ------------------------------------------------------
  /// Drains every non-empty shard delta into its tree (one exclusive
  /// section). Benches and tests call this to settle the engine; the
  /// service layer calls it on shutdown-like barriers.
  Status MergeDeltas() EXCLUDES(state_mu_);

  /// Aggregate delta-ingestion state.
  struct DeltaStats {
    size_t buffered_records = 0;   ///< Currently buffered across shards.
    size_t max_shard_records = 0;  ///< Largest single shard's buffer.
    uint64_t appended_total = 0;   ///< Lifetime appends.
    uint64_t merges = 0;           ///< Merge sections executed.
    uint64_t merged_records = 0;   ///< Tree mutations applied by merges.
    uint64_t backpressure_merges = 0;  ///< Merges forced by hard_cap.
  };
  DeltaStats delta_stats() const;

  /// Buffered delta records of shard i (tests/benches).
  size_t shard_delta_records(size_t i) const { return deltas_[i]->records(); }

  // --- introspection --------------------------------------------------------
  const EngineOptions& options() const { return options_; }
  size_t num_shards() const { return deltas_.size(); }
  /// Frames of the shared pool (always exactly options().buffer_pages).
  size_t buffer_frames_total() const;
  ThreadPool& threads() { return threads_; }
  /// Shard i's tree (read-only; for stats and tests). Deliberately
  /// unchecked: single-threaded test/bench introspection only — concurrent
  /// callers would need state_mu_, which cannot outlive this call.
  const PebTree& shard_tree(size_t i) const NO_THREAD_SAFETY_ANALYSIS {
    return *trees_[i];
  }
  /// Number of users currently hosted by shard i's tree.
  size_t shard_size(size_t i) const EXCLUDES(state_mu_) {
    ReaderMutexLock state_lock(&state_mu_);
    return tree(i).size();
  }

  /// Deep structural cross-check of the whole engine: every shard tree's
  /// own invariants (PebTree::ValidateInvariants, including the underlying
  /// B+-tree walk), every hosted user routed to exactly the shard that
  /// hosts it, one uniform encoding epoch across shards and the engine's
  /// pinned snapshot, the tree-resident count equal to the shard sizes,
  /// and the shared buffer pool's frame accounting. Then, with writers
  /// frozen, the membership bookkeeping: every presence byte equals
  /// tree-or-latest-delta presence, and the tree-resident count plus every
  /// buffered effect equals the number of present users. Takes the state
  /// lock shared and then the ingest lock, so it runs concurrently with
  /// queries but not mid-batch.
  Status ValidateInvariants() const EXCLUDES(state_mu_, ingest_mu_);

 private:
  /// Shard i's tree for reading: queries, GetObject and validation.
  const PebTree& tree(size_t i) const REQUIRES_SHARED(state_mu_) {
    return *trees_[i];
  }
  /// Shard i's tree for mutation: only exclusive sections change a tree.
  PebTree& mutable_tree(size_t i) REQUIRES(state_mu_) { return *trees_[i]; }

  /// Runs `task(s)` for every shard s in `which` on the worker pool and
  /// returns the first error in the order of `which`. The caller's
  /// state_mu_ hold covers every task (RunAll returns only after all of
  /// them finished), but the analysis cannot see it on the pool threads:
  /// a task that touches a tree asserts the hold first.
  Status FanOut(const std::vector<size_t>& which,
                const std::function<Status(size_t)>& task)
      REQUIRES_SHARED(state_mu_);

  /// The one real constructor; the public one and Open() delegate. `file`
  /// is the durable page store, or null for an in-memory disk. `fresh`
  /// means the store was just created (not reopened): any WAL left at the
  /// path is a stale artifact of a previous database and is truncated.
  ShardedPebEngine(std::unique_ptr<FileDiskManager> file,
                   const EngineOptions& options, const PolicyStore* store,
                   const RoleRegistry* roles,
                   std::shared_ptr<const EncodingSnapshot> snapshot,
                   bool fresh);

  /// Splits the issuer's friend list by home shard. Per-shard lists keep
  /// the encoding's ascending (qsv, uid) order, as BuildRows requires.
  std::vector<std::vector<FriendEntry>> PartitionFriends(UserId issuer) const
      REQUIRES_SHARED(state_mu_);

  /// A friend lifted out of the tree scan by the delta overlay: their
  /// latest visible delta state answers for them instead of the tree.
  struct DeltaCandidate {
    UserId uid = kInvalidUserId;
    MovingObject state;
  };

  /// Delta overlay for one query pinned at `watermark`: removes every
  /// friend with a visible delta record from the per-shard tree candidate
  /// lists (order preserved) and collects the non-tombstoned ones into
  /// `out` for direct evaluation. Tree scans then cannot return a stale
  /// position for a user the delta shadows, and tombstoned users vanish.
  void OverlayFriends(std::vector<std::vector<FriendEntry>>* per_shard,
                      uint64_t watermark,
                      std::vector<DeltaCandidate>* out) const
      REQUIRES_SHARED(state_mu_);

  /// The one write path. Checks `ops` with a single tree's status codes —
  /// ids outside the encoding first (present_ is indexed by id, and WAL
  /// replay feeds ids read from disk), then each op in order against the
  /// presence the earlier ops leave (Insert -> AlreadyExists, Delete ->
  /// NotFound) — and rejects the whole batch before anything is
  /// published. An accepted batch is appended to the home shards' deltas
  /// under ONE seq, published by one release store (queries see all of it
  /// or none) and journaled as one kEvents record. Per-user ordering is
  /// preserved because a user maps to exactly one shard.
  Status Ingest(const std::vector<engine_wal::LoggedOp>& ops)
      EXCLUDES(ingest_mu_);

  /// Merges the named shards' deltas into their trees under one exclusive
  /// state section: drain (latest record per user, dedup) + apply, with
  /// the merge's time in that section observed into merge_lock_hold_ms_
  /// (one observation per merge). paranoid_checks additionally validates
  /// delta/tree agreement for every drained user and runs the full
  /// structural audit before queries resume.
  Status MergeShards(const std::vector<size_t>& which) EXCLUDES(state_mu_);

  /// MergeShards for callers already holding state_mu_ exclusive
  /// (checkpoints merge under their own lock scope).
  Status MergeShardsLocked(const std::vector<size_t>& which)
      REQUIRES(state_mu_);

  // --- durability internals -------------------------------------------------
  /// Appends one WAL record stamped with the next WAL seq, syncing the log
  /// when `sync` is set. Every record the engine writes goes through here:
  /// kEvents batches, the kRekey barrier, and a checkpoint's page images
  /// and commit record. Refuses once the engine is poisoned; a failure
  /// poisons it (latches durability_error_) and propagates.
  Status AppendWal(engine_wal::RecordType type, std::string payload,
                   bool sync) REQUIRES(wal_mu_);

  /// Journals `ops` as one synced kEvents record (one WAL record per
  /// logical batch). Called after the in-RAM apply succeeded, from inside
  /// Ingest's ingest section — so record order in the log matches
  /// publication order. No-op on in-memory engines and during recovery
  /// replay.
  Status LogOps(const std::vector<engine_wal::LoggedOp>& ops)
      EXCLUDES(wal_mu_);

  /// Checkpoint() for callers already holding state_mu_ exclusive.
  /// Additionally freezes ingest (state_mu_ -> ingest_mu_, see lock order)
  /// and runs CheckpointFrozen. `clean` marks the superblock's
  /// clean-shutdown flag (destructor checkpoint only).
  Status CheckpointLocked(bool clean) REQUIRES(state_mu_)
      EXCLUDES(ingest_mu_, wal_mu_);

  /// The checkpoint protocol, with writers already frozen: no kEvents
  /// record can slip between the delta merge and the WAL truncation at the
  /// end. AdoptSnapshot calls it directly, holding ingest_mu_ from its
  /// epoch barrier on.
  Status CheckpointFrozen(bool clean) REQUIRES(state_mu_, ingest_mu_)
      EXCLUDES(wal_mu_);

  /// Merges every shard at or above the merge threshold (the ingest-path
  /// trigger; call WITHOUT ingest_mu_ held).
  Status MaybeMergeDeltas() EXCLUDES(state_mu_, ingest_mu_);

  /// Refreshes engine.delta.backlog to the current buffered-record total.
  void UpdateBacklogGauge() const;

  /// The number of users present at `watermark`: the tree-resident count
  /// plus every shard delta's visible membership effect. O(shards); no
  /// tree lookup.
  size_t SizeLocked(uint64_t watermark) const REQUIRES_SHARED(state_mu_);

  /// ValidateInvariants()'s structural half, for callers already holding
  /// state_mu_ (the paranoid_checks hook runs it at the end of exclusive
  /// batch sections, some of which hold ingest_mu_ too).
  Status ValidateLocked() const REQUIRES_SHARED(state_mu_);

  /// Adds a finished shard query's counters into a query-local total.
  static void MergeCounters(const QueryCounters& shard_counters,
                            QueryCounters* into);

  EngineOptions options_;
  /// Engine-level copy of the current snapshot (shard trees hold their
  /// own); written under the exclusive state lock, read under shared.
  std::shared_ptr<const EncodingSnapshot> snapshot_ GUARDED_BY(state_mu_);
  /// Verification inputs for the delta overlay (the pointees are mutated
  /// only inside RunExclusive sections, which exclude all queries).
  const PolicyStore* store_ = nullptr;
  const RoleRegistry* roles_ = nullptr;
  /// Population bound, immutable after construction: AdoptSnapshot rejects
  /// snapshots with a different population, so the ingest path can check
  /// id bounds without touching state_mu_.
  size_t num_users_ = 0;
  /// The file-backed page store when durability.path is set, else null.
  /// Non-owning: disk_ owns it.
  FileDiskManager* durable_ = nullptr;
  /// One disk + one sharded clock pool shared by every shard tree: durable_,
  /// or an in-memory disk by default.
  std::unique_ptr<DiskManager> disk_;
  /// Leaf lock: the WAL, its sequencing and the poison status (see lock
  /// order).
  mutable Mutex wal_mu_;
  /// Write-ahead log (durable engines only, else null). Set once at
  /// construction; every later call into it holds wal_mu_ (the
  /// constructor's Truncate runs before the engine is shared).
  std::unique_ptr<WriteAheadLog> wal_ PT_GUARDED_BY(wal_mu_);
  /// Seq of the most recently appended WAL record (checkpoint image/commit
  /// records included — one monotonic sequence per log).
  uint64_t wal_seq_ GUARDED_BY(wal_mu_) = 0;
  /// First durability I/O failure, latched forever (see header comment).
  Status durability_error_ GUARDED_BY(wal_mu_);
  /// True while Open() replays the WAL through the normal write path:
  /// suppresses re-logging the records being replayed. Plain bool, like
  /// close_checkpoint_armed_ below: written only inside Open(), before the
  /// engine is ever shared.
  bool replaying_ = false;
  /// False while Open() owns a partially recovered engine: disarms the
  /// destructor's clean-shutdown checkpoint so a failed recovery cannot
  /// publish half-restored (or empty) state as a clean generation and
  /// truncate the WAL that a retry still needs. Constructor-built engines
  /// are born armed; Open() re-arms only after recovery fully succeeds.
  /// Plain bool: written single-threaded inside Open() before the engine
  /// is ever shared.
  bool close_checkpoint_armed_ = true;
  BufferPool pool_;
  ThreadPool threads_;
  /// Guards the shard trees and engine-level snapshot isolation: queries
  /// shared, mutations exclusive. Worker tasks take no lock (the
  /// dispatching thread holds this one for them).
  mutable SharedMutex state_mu_;
  /// One PEB-tree per shard; reach them through tree() / mutable_tree().
  std::vector<std::unique_ptr<PebTree>> trees_ GUARDED_BY(state_mu_);

  // --- log-structured ingestion state ---------------------------------------
  /// One delta per shard, indexed like trees_. Each has its own latch.
  std::vector<std::unique_ptr<ShardDelta>> deltas_;
  /// Serializes WRITERS only (seq assignment, presence bytes, batch
  /// publication). Queries never touch it — that is the whole point.
  mutable Mutex ingest_mu_;
  /// Seq of the most recently assigned ingest batch.
  uint64_t next_seq_ GUARDED_BY(ingest_mu_) = 0;
  /// One byte per encoded user: 1 while the user is present (tree or
  /// latest delta record, as of the last appended batch). Writers read it
  /// for their status checks and to tag each record's membership effect.
  std::vector<uint8_t> present_ GUARDED_BY(ingest_mu_);
  /// Users hosted by the shard trees. Written only in exclusive sections:
  /// LoadDataset, merges (which add the drained effects) and Open()'s
  /// attach.
  int64_t tree_users_ GUARDED_BY(state_mu_) = 0;
  /// Watermark of the most recently PUBLISHED batch: stored with release
  /// after all of the batch's appends, loaded with acquire once per query.
  /// Records above a reader's watermark are invisible to it.
  std::atomic<uint64_t> published_seq_{0};
  std::atomic<uint64_t> delta_merges_count_{0};
  std::atomic<uint64_t> delta_merged_records_{0};
  std::atomic<uint64_t> delta_backpressure_merges_{0};

  /// Engine instruments (null when telemetry is disabled). Cached pointers
  /// into the registry, resolved once at construction.
  struct ShardInstruments {
    telemetry::Counter* queries = nullptr;
    telemetry::Counter* updates = nullptr;
  };
  std::vector<ShardInstruments> shard_instruments_;
  telemetry::Counter* pknn_rounds_ = nullptr;
  telemetry::Counter* pknn_retirements_ = nullptr;
  telemetry::Histogram* batch_lock_hold_ms_ = nullptr;
  /// Delta instruments.
  telemetry::Counter* delta_appends_ = nullptr;
  telemetry::Counter* delta_probes_ = nullptr;
  telemetry::Counter* delta_shadowed_ = nullptr;
  telemetry::Counter* delta_merges_ = nullptr;
  telemetry::Counter* delta_merged_records_counter_ = nullptr;
  telemetry::Histogram* merge_lock_hold_ms_ = nullptr;
  telemetry::Gauge* delta_backlog_ = nullptr;
  /// Token of the per-pool-shard IoStats collector (0 = none registered).
  size_t pool_collector_token_ = 0;
  telemetry::MetricsRegistry* registry_ = nullptr;
};

}  // namespace engine
}  // namespace peb
