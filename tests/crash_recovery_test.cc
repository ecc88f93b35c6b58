// Crash-recovery torture: kill the durable engine mid-batch at injected
// failpoints (counted write crashes, torn writes, EIO on sync — including a
// second crash during recovery itself), reopen from the file + WAL, and
// prove the recovered engine bit-matches a never-crashed in-memory oracle
// that applied exactly the committed batch prefix: identical PRQ and PkNN
// answers, identical size, identical continuous-query event streams, and a
// clean ValidateInvariants. Crashes around a policy re-key (the kRekey epoch
// barrier and the checkpoint behind it) must keep every acknowledged batch.
//
// On failure, TearDown copies the database/WAL and writes hexdumps of the
// superblocks and the log into crash-recovery-artifacts/ for CI upload.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/engine_wal.h"
#include "engine/sharded_engine.h"
#include "eval/workload.h"
#include "motion/update_stream.h"
#include "pknn_expect.h"
#include "service/service.h"
#include "storage/fault_injection.h"
#include "storage/wal.h"
#include "test_util.h"

namespace peb {
namespace {

using engine::EngineOptions;
using engine::ShardedPebEngine;
using eval::Workload;
using eval::WorkloadParams;
using service::MovingObjectService;

constexpr size_t kUsers = 350;
constexpr size_t kBatches = 8;
constexpr size_t kBatchSize = 48;

WorkloadParams CrashParams() {
  WorkloadParams p;
  p.num_users = kUsers;
  p.policies_per_user = 8;
  p.buffer_pages = 50;
  p.grid_bits = 8;
  p.seed = 2026;
  return p;
}

/// The next `count` batches of `size` events from `stream`.
std::vector<std::vector<UpdateEvent>> TakeBatches(UpdateStream* stream,
                                                  size_t count, size_t size) {
  std::vector<std::vector<UpdateEvent>> batches(count);
  for (auto& batch : batches) {
    for (size_t i = 0; i < size; ++i) batch.push_back(stream->Next());
  }
  return batches;
}

/// The objects of `initial` after the first `applied` batches.
Dataset StateAfter(const Dataset& initial,
                   const std::vector<std::vector<UpdateEvent>>& batches,
                   size_t applied) {
  Dataset out = initial;
  std::vector<size_t> at(kUsers, out.objects.size());
  for (size_t i = 0; i < out.objects.size(); ++i) at[out.objects[i].id] = i;
  for (size_t b = 0; b < applied; ++b) {
    for (const UpdateEvent& ev : batches[b]) {
      out.objects[at[ev.state.id]] = ev.state;  // Batches update, never add.
    }
  }
  return out;
}

/// Whether `engine` hosts exactly the objects of `want`, in their states.
bool HoldsExactly(const ShardedPebEngine& engine, const Dataset& want) {
  if (engine.size() != want.objects.size()) return false;
  for (const MovingObject& o : want.objects) {
    auto got = engine.GetObject(o.id);
    if (!got.ok() || got->pos.x != o.pos.x || got->pos.y != o.pos.y ||
        got->vel.x != o.vel.x || got->vel.y != o.vel.y || got->tu != o.tu) {
      return false;
    }
  }
  return true;
}

/// Grants `owner` an open policy toward `peer` and re-encodes: the catalog
/// publishes the next epoch.
ReencodeResult GrantAndReencode(Workload& w, UserId owner, UserId peer) {
  const RoleId role = w.catalog()->DefineRole("rekey");
  EXPECT_TRUE(
      w.catalog()->AddPolicy(owner, peer, testing::OpenPolicy(role)).ok());
  auto result = w.catalog()->Reencode();
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? *result : ReencodeResult{};
}

/// Reopens `w`'s database at the pre-adopt snapshot or, when Open() refuses
/// it because the file was checkpointed under the next epoch, at the
/// post-adopt one.
Result<std::unique_ptr<ShardedPebEngine>> ReopenAtEither(
    const Workload& w, const EngineOptions& opts,
    std::shared_ptr<const EncodingSnapshot> pre,
    std::shared_ptr<const EncodingSnapshot> post) {
  auto opened = ShardedPebEngine::Open(opts, &w.store(), &w.roles(), pre);
  if (opened.ok() || !opened.status().IsInvalidArgument()) return opened;
  return ShardedPebEngine::Open(opts, &w.store(), &w.roles(), post);
}

/// PRQ and PkNN answers of `engine` equal to the Definition 2/3 brute-force
/// oracles over `objects`; `issuer` asks first, random users after.
void ExpectMatchesOracles(ShardedPebEngine& engine, const Workload& w,
                          const Dataset& objects, UserId issuer,
                          Timestamp tq) {
  const double td = w.params().time_domain;
  Rng rng(515151);
  for (int q = 0; q < 14; ++q) {
    const UserId who =
        q == 0 ? issuer : static_cast<UserId>(rng.NextBelow(kUsers));
    const Rect range = Rect::CenteredSquare(
        {rng.Uniform(100, 900), rng.Uniform(100, 900)}, 380.0);
    auto got = engine.RangeQuery(who, range, tq);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, testing::BruteForcePrq(objects, w.store(), w.roles(), who,
                                           range, tq, td))
        << "PRQ " << q << " issuer " << who;
  }
  for (int q = 0; q < 8; ++q) {
    const UserId who =
        q == 0 ? issuer : static_cast<UserId>(rng.NextBelow(kUsers));
    const Point qloc{rng.Uniform(100, 900), rng.Uniform(100, 900)};
    auto got = engine.KnnQuery(who, qloc, 5, tq);
    ASSERT_TRUE(got.ok()) << got.status();
    testing::ExpectSamePknn(
        testing::BruteForcePknn(objects, w.store(), w.roles(), who, qloc, 5,
                                tq, td),
        *got, "PkNN " + std::to_string(q) + " issuer " + std::to_string(who));
  }
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new Workload(Workload::Build(CrashParams()));
    // The exact event sequence every engine in this suite replays, sliced
    // into batches up front so "the committed prefix" is well defined.
    auto stream = eval::CloneUniformUpdateStream(*world_);
    ASSERT_NE(stream, nullptr);
    batches_ = new std::vector<std::vector<UpdateEvent>>(
        TakeBatches(stream.get(), kBatches, kBatchSize));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
    delete batches_;
    batches_ = nullptr;
  }

  void SetUp() override {
    path_ = ::testing::TempDir() + "/peb_crash_recovery_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".db";
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
  }

  void TearDown() override {
    if (HasFailure()) DumpArtifacts();
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
  }

  /// Copies the database + WAL and writes hexdumps (both superblock slots,
  /// the whole log) next to the test binary; CI uploads the directory.
  void DumpArtifacts() {
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path dir = "crash-recovery-artifacts";
    fs::create_directories(dir, ec);
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::copy_file(path_, dir / (name + ".db"),
                  fs::copy_options::overwrite_existing, ec);
    fs::copy_file(path_ + ".wal", dir / (name + ".wal"),
                  fs::copy_options::overwrite_existing, ec);
    std::ofstream out(dir / (name + ".hexdump.txt"));
    HexdumpInto(out, path_, 0, 2 * kPageSize, "superblock slots 0+1");
    HexdumpInto(out, path_ + ".wal", 0, 1 << 16, "wal");
  }

  static void HexdumpInto(std::ofstream& out, const std::string& file,
                          uint64_t offset, uint64_t limit,
                          const char* label) {
    out << "=== " << label << " (" << file << ") ===\n";
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      out << "<unreadable>\n";
      return;
    }
    in.seekg(static_cast<std::streamoff>(offset));
    char buf[16];
    for (uint64_t off = 0; off < limit; off += 16) {
      in.read(buf, sizeof(buf));
      const std::streamsize got = in.gcount();
      if (got <= 0) break;
      char line[16];
      std::snprintf(line, sizeof(line), "%08llx ",
                    static_cast<unsigned long long>(offset + off));
      out << line;
      for (std::streamsize i = 0; i < got; ++i) {
        std::snprintf(line, sizeof(line), "%02x ",
                      static_cast<unsigned char>(buf[i]));
        out << line;
      }
      out << '\n';
    }
  }

  /// Engine options for a durable engine at path_. num_threads=0: every
  /// shard task runs inline, so batch application order is deterministic.
  EngineOptions DurableOptions(FaultInjector* injector,
                               bool checkpoint_on_close) const {
    EngineOptions opts;
    opts.num_shards = 3;
    opts.num_threads = 0;
    opts.buffer_pages = world_->params().buffer_pages;
    opts.tree = eval::PebOptionsFor(world_->params());
    opts.delta.merge_threshold = 64;  // Small: merges happen mid-run.
    opts.durability.path = path_;
    opts.durability.fault_injector = injector;
    opts.durability.checkpoint_on_close = checkpoint_on_close;
    return opts;
  }

  EngineOptions OracleOptions() const {
    EngineOptions opts = DurableOptions(nullptr, false);
    opts.durability = {};  // In-memory: never crashes, never recovers.
    return opts;
  }

  /// A never-crashed in-memory engine that applied batches [0, committed).
  std::unique_ptr<ShardedPebEngine> BuildOracle(size_t committed) const {
    auto oracle = std::make_unique<ShardedPebEngine>(
        OracleOptions(), &world_->store(), &world_->roles(),
        world_->catalog()->snapshot());
    EXPECT_TRUE(oracle->LoadDataset(world_->dataset()).ok());
    for (size_t b = 0; b < committed; ++b) {
      EXPECT_TRUE(oracle->ApplyBatch((*batches_)[b]).ok()) << "batch " << b;
    }
    return oracle;
  }

  /// Applies batches in order until one fails; returns the committed count.
  static size_t ApplyUntilCrash(ShardedPebEngine& engine) {
    for (size_t b = 0; b < batches_->size(); ++b) {
      if (!engine.ApplyBatch((*batches_)[b]).ok()) return b;
    }
    return batches_->size();
  }

  /// What recovery is contractually bound to: the number of batches whose
  /// kEvents record survives in the log's complete prefix. Equals the
  /// committed count when the crash hit the batch's own append, committed+1
  /// when it hit the sync (EIO after a successful append) — an errored
  /// ApplyBatch promises only atomicity, so the oracle must be read off the
  /// durable log itself.
  size_t DurableBatches(size_t committed) const {
    auto records = WriteAheadLog::ReadAll(path_ + ".wal");
    EXPECT_TRUE(records.ok()) << records.status();
    size_t durable = 0;
    for (const auto& rec : *records) {
      if (rec.type == engine_wal::kEvents) ++durable;
    }
    EXPECT_GE(durable, committed);
    EXPECT_LE(durable, committed + 1);
    return durable;
  }

  /// Query time: the last event time of the committed prefix (identical on
  /// both engines), so extrapolation never runs backwards.
  static Timestamp QueryTime(size_t committed) {
    if (committed == 0) return world_->now();
    return (*batches_)[committed - 1].back().t;
  }

  /// Bit-match: deterministic PRQ + PkNN samples, sizes, invariants.
  static void ExpectEquivalent(ShardedPebEngine& recovered,
                               ShardedPebEngine& oracle, Timestamp tq) {
    ASSERT_TRUE(recovered.ValidateInvariants().ok());
    EXPECT_EQ(recovered.size(), oracle.size());
    Rng rng(424242);
    for (int q = 0; q < 14; ++q) {
      const UserId issuer = static_cast<UserId>(rng.NextBelow(kUsers));
      const Rect range = Rect::CenteredSquare(
          {rng.Uniform(100, 900), rng.Uniform(100, 900)}, 380.0);
      auto got = recovered.RangeQuery(issuer, range, tq);
      auto want = oracle.RangeQuery(issuer, range, tq);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_TRUE(want.ok()) << want.status();
      EXPECT_EQ(*got, *want) << "PRQ " << q << " issuer " << issuer;
    }
    for (int q = 0; q < 8; ++q) {
      const UserId issuer = static_cast<UserId>(rng.NextBelow(kUsers));
      const Point qloc{rng.Uniform(100, 900), rng.Uniform(100, 900)};
      auto got = recovered.KnnQuery(issuer, qloc, 5, tq);
      auto want = oracle.KnnQuery(issuer, qloc, 5, tq);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_TRUE(want.ok()) << want.status();
      EXPECT_EQ(*got, *want) << "PkNN " << q << " issuer " << issuer;
    }
    // Spot-check raw object states too (positions are doubles: exact).
    for (UserId uid = 0; uid < kUsers; uid += 23) {
      auto got = recovered.GetObject(uid);
      auto want = oracle.GetObject(uid);
      ASSERT_EQ(got.ok(), want.ok()) << "uid " << uid;
      if (got.ok()) {
        EXPECT_EQ((*got).pos.x, (*want).pos.x);
        EXPECT_EQ((*got).pos.y, (*want).pos.y);
        EXPECT_EQ((*got).tu, (*want).tu);
      }
    }
  }

  Result<std::unique_ptr<ShardedPebEngine>> Reopen(
      FaultInjector* injector = nullptr, bool paranoid = false) const {
    EngineOptions opts = DurableOptions(injector, /*checkpoint_on_close=*/
                                        false);
    opts.tree.index.paranoid_checks = paranoid;
    return ShardedPebEngine::Open(opts, &world_->store(), &world_->roles(),
                                  world_->catalog()->snapshot());
  }

  /// Crash-after-N-durable-writes scenario, shared by several tests:
  /// build + load (no injection), arm the failpoint, apply until the crash
  /// fires, drop the engine like a killed process, reopen, compare.
  void RunKillMidBatch(int64_t writes_until_crash, bool torn) {
    FaultInjector injector;
    size_t committed = 0;
    {
      auto engine = std::make_unique<ShardedPebEngine>(
          DurableOptions(&injector, /*checkpoint_on_close=*/false),
          &world_->store(), &world_->roles(), world_->catalog()->snapshot());
      ASSERT_TRUE(engine->durability_status().ok());
      ASSERT_TRUE(engine->LoadDataset(world_->dataset()).ok());
      injector.torn_on_crash.store(torn);
      injector.writes_until_crash.store(writes_until_crash);
      committed = ApplyUntilCrash(*engine);
      if (committed < batches_->size()) {
        // Poison is sticky: nothing commits after the crash.
        EXPECT_FALSE(engine->ApplyBatch((*batches_)[committed]).ok());
        EXPECT_FALSE(engine->Checkpoint().ok());
        EXPECT_FALSE(engine->durability_status().ok());
      }
    }
    const size_t durable = DurableBatches(committed);
    auto reopened = Reopen();
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    auto oracle = BuildOracle(durable);
    ExpectEquivalent(**reopened, *oracle, QueryTime(durable));
  }

  std::string path_;
  static Workload* world_;
  static std::vector<std::vector<UpdateEvent>>* batches_;
};

Workload* CrashRecoveryTest::world_ = nullptr;
std::vector<std::vector<UpdateEvent>>* CrashRecoveryTest::batches_ = nullptr;

// ---------------------------------------------------------------------------
// Kill mid-batch at counted failpoints
// ---------------------------------------------------------------------------

TEST_F(CrashRecoveryTest, CrashOnFirstWalAppend) {
  RunKillMidBatch(0, /*torn=*/false);
}

TEST_F(CrashRecoveryTest, CrashMidStream) {
  RunKillMidBatch(5, /*torn=*/false);
}

TEST_F(CrashRecoveryTest, CrashLate) { RunKillMidBatch(9, /*torn=*/false); }

TEST_F(CrashRecoveryTest, TornWalRecordOnCrash) {
  // The fatal append persists half its frame: recovery's CRC check must
  // treat it as end-of-log, not garbage-replay it.
  RunKillMidBatch(4, /*torn=*/true);
}

TEST_F(CrashRecoveryTest, EioOnWalSync) {
  FaultInjector injector;
  size_t committed = 0;
  {
    auto engine = std::make_unique<ShardedPebEngine>(
        DurableOptions(&injector, /*checkpoint_on_close=*/false),
        &world_->store(), &world_->roles(), world_->catalog()->snapshot());
    ASSERT_TRUE(engine->LoadDataset(world_->dataset()).ok());
    committed = 3;
    for (size_t b = 0; b < committed; ++b) {
      ASSERT_TRUE(engine->ApplyBatch((*batches_)[b]).ok());
    }
    injector.fail_sync.store(true);
    // The append lands, the sync reports EIO: the batch reports an error
    // (so it is outside the oracle contract either way) and the engine is
    // poisoned.
    EXPECT_FALSE(engine->ApplyBatch((*batches_)[committed]).ok());
    EXPECT_FALSE(engine->Update(world_->dataset().objects[0]).ok());
    EXPECT_FALSE(engine->durability_status().ok());
  }
  // Closing the log flushed the errored batch's (fully appended) record,
  // so it IS replayed: an errored call promises only atomicity, and the
  // recovered state must match the durable log — here committed + 1.
  const size_t durable = DurableBatches(committed);
  EXPECT_EQ(durable, committed + 1);
  auto reopened = Reopen();
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto oracle = BuildOracle(durable);
  ExpectEquivalent(**reopened, *oracle, QueryTime(durable));
}

// ---------------------------------------------------------------------------
// Recovery edge cases
// ---------------------------------------------------------------------------

TEST_F(CrashRecoveryTest, CleanShutdownEmptyWalReopens) {
  {
    auto engine = std::make_unique<ShardedPebEngine>(
        DurableOptions(nullptr, /*checkpoint_on_close=*/true),
        &world_->store(), &world_->roles(), world_->catalog()->snapshot());
    ASSERT_TRUE(engine->LoadDataset(world_->dataset()).ok());
    ASSERT_TRUE(engine->ApplyBatch((*batches_)[0]).ok());
    ASSERT_TRUE(engine->ApplyBatch((*batches_)[1]).ok());
  }  // Destructor checkpoints clean: the WAL is empty on disk.
  {
    auto wal = WriteAheadLog::ReadAll(path_ + ".wal");
    ASSERT_TRUE(wal.ok());
    EXPECT_TRUE(wal->empty());
    // The close checkpoint marked the superblock clean. (After reopening,
    // the engine's own first checkpoint marks it in-use again.)
    auto raw = FileDiskManager::OpenExisting(path_);
    ASSERT_TRUE(raw.ok());
    EXPECT_TRUE((*raw)->clean_shutdown());
  }
  auto reopened = Reopen();
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  // A clean open has nothing to fold, so it leaves the superblock (and its
  // clean flag) untouched until the next checkpoint.
  EXPECT_TRUE((*reopened)->durable_store()->clean_shutdown());
  EXPECT_EQ((*reopened)->durable_store()->dirty_page_count(), 0u);
  auto oracle = BuildOracle(2);
  ExpectEquivalent(**reopened, *oracle, QueryTime(2));
}

TEST_F(CrashRecoveryTest, TornFinalWalRecordDropsOnlyLastBatch) {
  {
    auto engine = std::make_unique<ShardedPebEngine>(
        DurableOptions(nullptr, /*checkpoint_on_close=*/false),
        &world_->store(), &world_->roles(), world_->catalog()->snapshot());
    ASSERT_TRUE(engine->LoadDataset(world_->dataset()).ok());
    for (size_t b = 0; b < 4; ++b) {
      ASSERT_TRUE(engine->ApplyBatch((*batches_)[b]).ok());
    }
  }  // No close checkpoint: the four batches live only in the WAL.
  // Tear the last batch's record by truncating the file mid-frame — the
  // classic power cut after a partial write that beat the sync. Walk the
  // frames to find where that record starts.
  const std::string wal_path = path_ + ".wal";
  auto records = WriteAheadLog::ReadAll(wal_path);
  ASSERT_TRUE(records.ok());
  constexpr uint64_t kFrameHeaderBytes = 4 + 4 + 8 + 1;
  uint64_t offset = 0, last_events_offset = 0;
  for (const auto& rec : *records) {
    if (rec.type == engine_wal::kEvents) last_events_offset = offset;
    offset += kFrameHeaderBytes + rec.payload.size();
  }
  std::filesystem::resize_file(wal_path, last_events_offset + 11);
  auto reopened = Reopen();
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  // Batch 3's record is torn -> dropped whole; batches 0-2 replay intact.
  auto oracle = BuildOracle(3);
  ExpectEquivalent(**reopened, *oracle, QueryTime(3));
}

// Logs written before the advisory delta-merge marker was retired carry
// type-2 records between their kEvents records. The marker never changed
// what recovery produces (Open() re-checkpoints any non-empty log, merging
// every delta), so replay skips it and such a log reopens to exactly the
// state its kEvents records describe.
TEST_F(CrashRecoveryTest, RetiredMergeMarkersAreSkippedOnReplay) {
  {
    auto engine = std::make_unique<ShardedPebEngine>(
        DurableOptions(nullptr, /*checkpoint_on_close=*/false),
        &world_->store(), &world_->roles(), world_->catalog()->snapshot());
    ASSERT_TRUE(engine->LoadDataset(world_->dataset()).ok());
    for (size_t b = 0; b < 4; ++b) {
      ASSERT_TRUE(engine->ApplyBatch((*batches_)[b]).ok());
    }
  }  // No close checkpoint: the four batches live only in the WAL.
  // Rewrite the log with a marker after every kEvents record but the last,
  // renumbering so sequence numbers stay increasing, as the writer of such
  // a log stamped them.
  const std::string wal_path = path_ + ".wal";
  auto records = WriteAheadLog::ReadAll(wal_path);
  ASSERT_TRUE(records.ok());
  size_t events = 0;
  for (const auto& rec : *records) {
    if (rec.type == engine_wal::kEvents) ++events;
  }
  ASSERT_EQ(events, 4u);
  std::filesystem::remove(wal_path);
  {
    auto wal = WriteAheadLog::Open(wal_path);
    ASSERT_TRUE(wal.ok()) << wal.status();
    uint64_t shift = 0;
    size_t seen = 0;
    for (WalRecord rec : *records) {
      rec.seq += shift;
      ASSERT_TRUE((*wal)->Append(rec).ok());
      if (rec.type == engine_wal::kEvents && ++seen < events) {
        WalRecord marker;
        marker.seq = rec.seq + 1;
        marker.type = engine_wal::kMerge;
        ASSERT_TRUE((*wal)->Append(marker).ok());
        ++shift;
      }
    }
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  auto rewritten = WriteAheadLog::ReadAll(wal_path);
  ASSERT_TRUE(rewritten.ok());
  ASSERT_EQ(rewritten->size(), records->size() + events - 1);

  auto reopened = Reopen();
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto oracle = BuildOracle(4);
  ExpectEquivalent(**reopened, *oracle, QueryTime(4));
}

TEST_F(CrashRecoveryTest, ParanoidChecksReopen) {
  FaultInjector injector;
  size_t committed = 0;
  {
    auto engine = std::make_unique<ShardedPebEngine>(
        DurableOptions(&injector, /*checkpoint_on_close=*/false),
        &world_->store(), &world_->roles(), world_->catalog()->snapshot());
    ASSERT_TRUE(engine->LoadDataset(world_->dataset()).ok());
    injector.writes_until_crash.store(6);
    committed = ApplyUntilCrash(*engine);
  }
  const size_t durable = DurableBatches(committed);
  // paranoid_checks runs the full structural audit during replay batches
  // AND the explicit post-recovery validation.
  auto reopened = Reopen(nullptr, /*paranoid=*/true);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto oracle = BuildOracle(durable);
  ExpectEquivalent(**reopened, *oracle, QueryTime(durable));
}

TEST_F(CrashRecoveryTest, DoubleCrashDuringRecoveryConverges) {
  FaultInjector injector;
  size_t committed = 0;
  {
    auto engine = std::make_unique<ShardedPebEngine>(
        DurableOptions(&injector, /*checkpoint_on_close=*/false),
        &world_->store(), &world_->roles(), world_->catalog()->snapshot());
    ASSERT_TRUE(engine->LoadDataset(world_->dataset()).ok());
    injector.writes_until_crash.store(7);
    committed = ApplyUntilCrash(*engine);
    ASSERT_LT(committed, batches_->size());
  }
  const size_t durable = DurableBatches(committed);
  // First recovery attempt crashes during its own final checkpoint (the
  // fold of replayed state into the file). Recovery writes nothing durable
  // before that checkpoint, so however far it got, the second attempt
  // replays from a consistent file + WAL.
  injector.Reset();
  injector.writes_until_crash.store(10);
  auto crashed_open = Reopen(&injector);
  EXPECT_FALSE(crashed_open.ok());
  // Second attempt: no faults. Must converge to the same oracle.
  auto reopened = Reopen();
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto oracle = BuildOracle(durable);
  ExpectEquivalent(**reopened, *oracle, QueryTime(durable));
}

// ---------------------------------------------------------------------------
// Continuous queries across a crash
// ---------------------------------------------------------------------------

TEST_F(CrashRecoveryTest, ContinuousEventStreamsMatchAfterRecovery) {
  FaultInjector injector;
  size_t committed = 0;
  {
    auto engine = std::make_unique<ShardedPebEngine>(
        DurableOptions(&injector, /*checkpoint_on_close=*/false),
        &world_->store(), &world_->roles(), world_->catalog()->snapshot());
    ASSERT_TRUE(engine->LoadDataset(world_->dataset()).ok());
    injector.writes_until_crash.store(4);
    committed = ApplyUntilCrash(*engine);
  }
  const size_t durable = DurableBatches(committed);
  auto reopened = Reopen();
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto oracle = BuildOracle(durable);

  // Identical continuous-query behavior from the recovered state on: both
  // services register the same standing query, apply the same remaining
  // batches, and must emit identical membership event streams.
  MovingObjectService recovered_svc(reopened->get(), world_->catalog());
  MovingObjectService oracle_svc(oracle.get(), world_->catalog());
  const Rect district = Rect::CenteredSquare({500, 500}, 320.0);
  const Timestamp t0 = QueryTime(durable);
  auto reg_a = recovered_svc.Execute(
      service::QueryRequest::RegisterContinuous(3, district, t0));
  auto reg_b = oracle_svc.Execute(
      service::QueryRequest::RegisterContinuous(3, district, t0));
  ASSERT_TRUE(reg_a.ok()) << reg_a.status;
  ASSERT_TRUE(reg_b.ok()) << reg_b.status;
  ASSERT_EQ(*recovered_svc.ContinuousResult(reg_a.continuous_id),
            *oracle_svc.ContinuousResult(reg_b.continuous_id));

  for (size_t b = durable; b < batches_->size(); ++b) {
    ASSERT_TRUE(recovered_svc.ApplyBatch((*batches_)[b]).ok());
    ASSERT_TRUE(oracle_svc.ApplyBatch((*batches_)[b]).ok());
    EXPECT_EQ(recovered_svc.TakeContinuousEvents(),
              oracle_svc.TakeContinuousEvents())
        << "batch " << b;
    EXPECT_EQ(*recovered_svc.ContinuousResult(reg_a.continuous_id),
              *oracle_svc.ContinuousResult(reg_b.continuous_id))
        << "batch " << b;
  }
}

// ---------------------------------------------------------------------------
// Policy re-keys across a crash
// ---------------------------------------------------------------------------

// Regression: AdoptSnapshot appended its kRekey barrier before freezing
// writers, so a batch could be logged — and acknowledged — between the
// barrier and the checkpoint that retires it. Recovery stops at an
// uncommitted barrier, so a crash inside that checkpoint lost the batch.
// Here a writer races every adopt, with the crash armed at a seeded write.
TEST_F(CrashRecoveryTest, AcknowledgedBatchesSurviveACrashDuringRekey) {
  constexpr size_t kIterations = 40;
  constexpr size_t kEventsPerBatch = 8;
  Workload w = Workload::Build(CrashParams());
  Rng rng(1207);
  EngineOptions opts = DurableOptions(nullptr, /*checkpoint_on_close=*/false);
  opts.num_shards = 4;
  opts.num_threads = 2;
  for (size_t it = 0; it < kIterations; ++it) {
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
    const auto pre = w.catalog()->snapshot();
    const UserId owner = static_cast<UserId>(rng.NextBelow(kUsers));
    const UserId peer = static_cast<UserId>(
        (owner + 1 + rng.NextBelow(kUsers - 1)) % kUsers);
    const ReencodeResult next = GrantAndReencode(w, owner, peer);
    const int64_t crash_after = static_cast<int64_t>(2 + rng.NextBelow(40));

    auto stream = eval::CloneUniformUpdateStream(w);
    std::vector<std::vector<UpdateEvent>> attempted;
    std::atomic<size_t> acked{0};
    {
      FaultInjector injector;
      EngineOptions crashing = opts;
      crashing.durability.fault_injector = &injector;
      ShardedPebEngine engine(crashing, &w.store(), &w.roles(), pre);
      ASSERT_TRUE(engine.LoadDataset(w.dataset()).ok());
      std::atomic<bool> stop{false};
      std::thread writer([&] {
        while (!stop.load(std::memory_order_acquire)) {
          attempted.push_back(TakeBatches(stream.get(), 1, kEventsPerBatch)[0]);
          if (!engine.ApplyBatch(attempted.back()).ok()) return;
          acked.fetch_add(1, std::memory_order_release);
        }
      });
      while (acked.load(std::memory_order_acquire) < 2) {
        std::this_thread::yield();
      }
      injector.writes_until_crash.store(crash_after);
      (void)engine.AdoptSnapshot(next.snapshot, &next.rekeyed);
      stop.store(true, std::memory_order_release);
      writer.join();
    }  // No close checkpoint: teardown is a crash.

    auto reopened = ReopenAtEither(w, opts, pre, next.snapshot);
    ASSERT_TRUE(reopened.ok()) << "iteration " << it << ": "
                               << reopened.status();
    // An errored batch promises only atomicity: it may be durable or not.
    const size_t ok = acked.load();
    bool holds =
        HoldsExactly(**reopened, StateAfter(w.dataset(), attempted, ok));
    if (!holds && attempted.size() > ok) {
      holds = HoldsExactly(**reopened,
                           StateAfter(w.dataset(), attempted, ok + 1));
    }
    EXPECT_TRUE(holds) << "iteration " << it << " (crash after "
                       << crash_after << " writes): the " << ok
                       << " acknowledged batches did not all survive";
    EXPECT_TRUE((*reopened)->ValidateInvariants().ok()) << "iteration " << it;
  }
}

// A crash inside the checkpoint behind a re-key's epoch barrier: recovery
// stops at the uncommitted barrier and reopens at the pre-adopt epoch with
// every acknowledged batch. Finishing the interrupted adopt then answers
// like the brute-force oracles.
TEST_F(CrashRecoveryTest, CrashAfterRekeyBarrierReopensAtPreAdoptEpoch) {
  Workload w = Workload::Build(CrashParams());
  auto stream = eval::CloneUniformUpdateStream(w);
  const auto batches = TakeBatches(stream.get(), 4, kBatchSize);
  const auto pre = w.catalog()->snapshot();
  const EngineOptions opts = DurableOptions(nullptr, false);
  ReencodeResult next;
  {
    FaultInjector injector;
    ShardedPebEngine engine(DurableOptions(&injector, false), &w.store(),
                            &w.roles(), pre);
    ASSERT_TRUE(engine.LoadDataset(w.dataset()).ok());
    for (const auto& batch : batches) {
      ASSERT_TRUE(engine.ApplyBatch(batch).ok());
    }
    next = GrantAndReencode(w, 17, 230);
    // The barrier lands; the checkpoint crashes a few writes behind it.
    injector.writes_until_crash.store(3);
    EXPECT_FALSE(engine.AdoptSnapshot(next.snapshot, &next.rekeyed).ok());
  }
  auto records = WriteAheadLog::ReadAll(path_ + ".wal");
  ASSERT_TRUE(records.ok()) << records.status();
  size_t barriers = 0, commits = 0;
  for (const WalRecord& rec : *records) {
    barriers += rec.type == engine_wal::kRekey;
    commits += rec.type == engine_wal::kCheckpoint;
  }
  EXPECT_EQ(barriers, 1u);
  EXPECT_EQ(commits, 0u);

  auto reopened =
      ShardedPebEngine::Open(opts, &w.store(), &w.roles(), pre);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->encoding_epoch(), pre->epoch());
  const Dataset want = StateAfter(w.dataset(), batches, batches.size());
  EXPECT_TRUE(HoldsExactly(**reopened, want));
  ASSERT_TRUE(
      (*reopened)->AdoptSnapshot(next.snapshot, &next.rekeyed).ok());
  ExpectMatchesOracles(**reopened, w, want, 230, batches.back().back().t);
}

// A clean close after a re-key checkpointed under the new epoch: only the
// post-adopt snapshot opens the database, which holds the batches from
// both sides of the adopt.
TEST_F(CrashRecoveryTest, CleanCloseAfterRekeyReopensAtPostAdoptEpoch) {
  Workload w = Workload::Build(CrashParams());
  auto stream = eval::CloneUniformUpdateStream(w);
  const auto batches = TakeBatches(stream.get(), 4, kBatchSize);
  const auto pre = w.catalog()->snapshot();
  const EngineOptions opts = DurableOptions(nullptr, true);
  ReencodeResult next;
  {
    ShardedPebEngine engine(opts, &w.store(), &w.roles(), pre);
    ASSERT_TRUE(engine.LoadDataset(w.dataset()).ok());
    ASSERT_TRUE(engine.ApplyBatch(batches[0]).ok());
    ASSERT_TRUE(engine.ApplyBatch(batches[1]).ok());
    next = GrantAndReencode(w, 17, 230);
    ASSERT_TRUE(engine.AdoptSnapshot(next.snapshot, &next.rekeyed).ok());
    ASSERT_TRUE(engine.ApplyBatch(batches[2]).ok());
    ASSERT_TRUE(engine.ApplyBatch(batches[3]).ok());
  }  // Clean close: checkpoints under the post-adopt epoch.
  EXPECT_TRUE(ShardedPebEngine::Open(opts, &w.store(), &w.roles(), pre)
                  .status()
                  .IsInvalidArgument());
  auto reopened =
      ShardedPebEngine::Open(opts, &w.store(), &w.roles(), next.snapshot);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->encoding_epoch(), next.snapshot->epoch());
  const Dataset want = StateAfter(w.dataset(), batches, batches.size());
  EXPECT_TRUE(HoldsExactly(**reopened, want));
  ExpectMatchesOracles(**reopened, w, want, 230, batches.back().back().t);
}

// ---------------------------------------------------------------------------
// Non-crash durability plumbing
// ---------------------------------------------------------------------------

TEST_F(CrashRecoveryTest, CheckpointTruncatesWalAndSurvivesReopen) {
  {
    auto engine = std::make_unique<ShardedPebEngine>(
        DurableOptions(nullptr, /*checkpoint_on_close=*/false),
        &world_->store(), &world_->roles(), world_->catalog()->snapshot());
    ASSERT_TRUE(engine->LoadDataset(world_->dataset()).ok());
    ASSERT_TRUE(engine->ApplyBatch((*batches_)[0]).ok());
    auto wal = WriteAheadLog::ReadAll(path_ + ".wal");
    ASSERT_TRUE(wal.ok());
    EXPECT_FALSE(wal->empty());
    ASSERT_TRUE(engine->Checkpoint().ok());
    wal = WriteAheadLog::ReadAll(path_ + ".wal");
    ASSERT_TRUE(wal.ok());
    EXPECT_TRUE(wal->empty());
    EXPECT_EQ(engine->durable_store()->dirty_page_count(), 0u);
    // More batches after the checkpoint land in the fresh log.
    ASSERT_TRUE(engine->ApplyBatch((*batches_)[1]).ok());
  }
  auto reopened = Reopen();
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto oracle = BuildOracle(2);
  ExpectEquivalent(**reopened, *oracle, QueryTime(2));
}

// Regression: a failed Open() used to destroy the database. Its error paths
// destroyed the half-recovered engine, whose destructor (checkpoint_on_close
// defaults to true) committed the partial shard manifest as a new clean
// generation and truncated the WAL. The close checkpoint is now disarmed
// until recovery fully succeeds.
TEST_F(CrashRecoveryTest, FailedOpenLeavesDatabaseIntact) {
  {
    auto engine = std::make_unique<ShardedPebEngine>(
        DurableOptions(nullptr, /*checkpoint_on_close=*/true),
        &world_->store(), &world_->roles(), world_->catalog()->snapshot());
    ASSERT_TRUE(engine->LoadDataset(world_->dataset()).ok());
    ASSERT_TRUE(engine->ApplyBatch((*batches_)[0]).ok());
  }
  // A misconfigured open fails — with checkpoint_on_close left at its
  // default true, exactly the configuration that used to clobber the file.
  EngineOptions wrong_shards =
      DurableOptions(nullptr, /*checkpoint_on_close=*/true);
  wrong_shards.num_shards = 5;
  auto open = ShardedPebEngine::Open(wrong_shards, &world_->store(),
                                     &world_->roles(),
                                     world_->catalog()->snapshot());
  ASSERT_FALSE(open.ok());
  // The database survived: a correctly configured open still matches the
  // oracle.
  auto reopened = Reopen();
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto oracle = BuildOracle(1);
  ExpectEquivalent(**reopened, *oracle, QueryTime(1));
}

// Regression: constructing a FRESH durable engine at a path that already
// holds a database used to truncate both the file and its WAL. It now
// poisons the new engine and leaves the database alone.
TEST_F(CrashRecoveryTest, FreshEngineRefusesExistingDatabase) {
  {
    auto engine = std::make_unique<ShardedPebEngine>(
        DurableOptions(nullptr, /*checkpoint_on_close=*/true),
        &world_->store(), &world_->roles(), world_->catalog()->snapshot());
    ASSERT_TRUE(engine->LoadDataset(world_->dataset()).ok());
    ASSERT_TRUE(engine->ApplyBatch((*batches_)[0]).ok());
  }
  {
    ShardedPebEngine clobber(DurableOptions(nullptr, true), &world_->store(),
                             &world_->roles(), world_->catalog()->snapshot());
    EXPECT_FALSE(clobber.durability_status().ok());
  }
  auto reopened = Reopen();
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto oracle = BuildOracle(1);
  ExpectEquivalent(**reopened, *oracle, QueryTime(1));
}

TEST_F(CrashRecoveryTest, OpenRejectsBadConfigurations) {
  {
    auto engine = std::make_unique<ShardedPebEngine>(
        DurableOptions(nullptr, /*checkpoint_on_close=*/true),
        &world_->store(), &world_->roles(), world_->catalog()->snapshot());
    ASSERT_TRUE(engine->LoadDataset(world_->dataset()).ok());
  }
  // Shard-count mismatch.
  EngineOptions wrong_shards = DurableOptions(nullptr, false);
  wrong_shards.num_shards = 5;
  auto open = ShardedPebEngine::Open(wrong_shards, &world_->store(),
                                     &world_->roles(),
                                     world_->catalog()->snapshot());
  EXPECT_FALSE(open.ok());
  // Missing path.
  EngineOptions no_path = DurableOptions(nullptr, false);
  no_path.durability.path.clear();
  open = ShardedPebEngine::Open(no_path, &world_->store(), &world_->roles(),
                                world_->catalog()->snapshot());
  EXPECT_TRUE(open.status().IsInvalidArgument());
  // In-memory engines reject Checkpoint().
  ShardedPebEngine mem(OracleOptions(), &world_->store(), &world_->roles(),
                       world_->catalog()->snapshot());
  EXPECT_TRUE(mem.Checkpoint().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Untrusted record counts in WAL payloads
// ---------------------------------------------------------------------------

// WAL and superblock bytes are untrusted: a count read from them must be
// checked against the payload before anything is reserved for it, so a
// garbage count yields Corruption — never std::bad_alloc.

TEST(EngineWalDecode, EventCountBeyondPayloadIsCorruption) {
  std::vector<engine_wal::LoggedOp> ops;
  EXPECT_TRUE(engine_wal::DecodeEvents(std::string(4, '\xff'), &ops)
                  .IsCorruption());
  // A payload holding one event but claiming two.
  std::string payload = engine_wal::EncodeEvents({engine_wal::LoggedOp{}});
  payload[0] = 2;
  EXPECT_TRUE(engine_wal::DecodeEvents(payload, &ops).IsCorruption());
  payload[0] = 1;
  ASSERT_TRUE(engine_wal::DecodeEvents(payload, &ops).ok());
  EXPECT_EQ(ops.size(), 1u);
}

TEST(EngineWalDecode, ManifestShardCountBeyondPayloadIsCorruption) {
  engine_wal::EngineManifest manifest;
  std::string payload(8, '\0');   // Epoch.
  payload += std::string(4, '\xff');  // Shard count.
  EXPECT_TRUE(engine_wal::DecodeManifest(payload, &manifest).IsCorruption());
  manifest.shards.resize(2);
  payload = engine_wal::EncodeManifest(manifest);
  ASSERT_TRUE(engine_wal::DecodeManifest(payload, &manifest).ok());
  EXPECT_EQ(manifest.shards.size(), 2u);
}

TEST(EngineWalDecode, CheckpointFreeListCountBeyondPayloadIsCorruption) {
  engine_wal::CheckpointRecord record;
  std::string payload(4, '\0');   // Next page.
  payload += std::string(4, '\xff');  // Free-list count.
  EXPECT_TRUE(engine_wal::DecodeCheckpoint(payload, &record).IsCorruption());
  record.free_list = {3, 5};
  record.manifest = "m";
  payload = engine_wal::EncodeCheckpoint(record);
  ASSERT_TRUE(engine_wal::DecodeCheckpoint(payload, &record).ok());
  EXPECT_EQ(record.free_list, (std::vector<PageId>{3, 5}));
}

}  // namespace
}  // namespace peb
