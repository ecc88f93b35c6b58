// End-to-end persistence path: the whole index stack (B+-tree under the
// buffer pool) on the file-backed disk manager, proving the system is
// genuinely disk-resident and not dependent on the in-memory shortcut.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "btree/btree.h"
#include "btree/btree_traits.h"
#include "common/rng.h"
#include "motion/uniform_generator.h"
#include "peb/peb_tree.h"
#include "policy/policy_generator.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace peb {
namespace {

class FileBackedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/peb_file_backed_test.db";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(FileBackedTest, BTreeFuzzOnRealFile) {
  FileDiskManager disk(path_);
  ASSERT_TRUE(disk.status().ok());
  BufferPool pool(&disk, BufferPoolOptions{16});  // Tiny pool: real I/O.
  BTree<TinyFanoutTraits> tree(&pool);
  std::map<uint64_t, uint64_t> model;
  Rng rng(404);
  for (int op = 0; op < 1500; ++op) {
    uint64_t key = rng.NextBelow(300);
    if (rng.NextDouble() < 0.6) {
      if (tree.Insert(key, key * 3).ok()) model[key] = key * 3;
    } else {
      if (tree.Delete(key).ok()) model.erase(key);
    }
  }
  ASSERT_TRUE(tree.Validate().ok());
  ASSERT_EQ(tree.stats().num_entries, model.size());
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.SeekGE(0).ok());
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(cursor.Valid());
    EXPECT_EQ(cursor.key(), k);
    EXPECT_EQ(cursor.value(), v);
    ASSERT_TRUE(cursor.Next().ok());
  }
  // Data actually hit the file.
  EXPECT_GT(pool.stats().physical_writes, 0u);
  EXPECT_GT(disk.capacity(), 0u);
}

TEST_F(FileBackedTest, PersistAndReopenPebTree) {
  const size_t users = 300;
  UniformGeneratorOptions gen;
  gen.num_objects = users;
  gen.stagger_window = 120.0;
  gen.seed = 71;
  Dataset ds = GenerateUniformDataset(gen);
  PolicyGeneratorOptions pg;
  pg.num_users = users;
  pg.policies_per_user = 8;
  pg.seed = 72;
  GeneratedPolicies gp = GeneratePolicies(pg);
  CompatibilityOptions compat;
  SvQuantizer quant(64.0, 26);
  auto enc = std::make_shared<const EncodingSnapshot>(
      EncodingSnapshot::Build(gp.store, users, compat, {}, quant));

  PebTreeOptions opt;
  opt.index.grid_bits = 8;

  // Session 1: build the index on a real file, record answers + manifest.
  PebTreeManifest manifest;
  std::vector<std::vector<UserId>> expected;
  Rng rng(73);
  std::vector<std::pair<UserId, Rect>> queries;
  for (int q = 0; q < 8; ++q) {
    queries.push_back({static_cast<UserId>(rng.NextBelow(users)),
                       Rect::CenteredSquare(
                           {rng.Uniform(0, 1000), rng.Uniform(0, 1000)},
                           400)});
  }
  {
    FileDiskManager disk(path_);
    ASSERT_TRUE(disk.status().ok());
    BufferPool pool(&disk, BufferPoolOptions{32});
    PebTree tree(&pool, opt, &gp.store, &gp.roles, enc);
    for (const auto& o : ds.objects) ASSERT_TRUE(tree.Insert(o).ok());
    for (const auto& [issuer, range] : queries) {
      auto res = tree.RangeQuery(issuer, range, 120.0);
      ASSERT_TRUE(res.ok());
      expected.push_back(*res);
    }
    ASSERT_TRUE(pool.FlushAll().ok());
    manifest = tree.Manifest();
    EXPECT_NE(manifest.root, kInvalidPageId);
    // Flushing hands pages to the overlay; only Commit() makes them (and the
    // superblock's next-page watermark) durable.
    EXPECT_GT(disk.dirty_page_count(), 0u);
    ASSERT_TRUE(disk.Commit(/*metadata=*/"", /*checkpoint_seq=*/1,
                            /*epoch=*/0, /*clean=*/true)
                    .ok());
    EXPECT_EQ(disk.dirty_page_count(), 0u);
  }

  // Session 2: reopen the same file without truncation, attach, compare.
  {
    auto disk = FileDiskManager::OpenExisting(path_);
    ASSERT_TRUE(disk.ok()) << disk.status();
    EXPECT_GE((*disk)->capacity(),
              manifest.stats.num_leaves + manifest.stats.num_internals);
    BufferPool pool(disk->get(), BufferPoolOptions{32});
    PebTree tree(&pool, opt, &gp.store, &gp.roles, enc);
    ASSERT_TRUE(tree.AttachExisting(manifest).ok());
    EXPECT_EQ(tree.size(), users);
    for (size_t q = 0; q < queries.size(); ++q) {
      auto res = tree.RangeQuery(queries[q].first, queries[q].second, 120.0);
      ASSERT_TRUE(res.ok());
      EXPECT_EQ(*res, expected[q]) << "query " << q;
    }
    // The reopened index accepts further mutations.
    ASSERT_TRUE(tree.Delete(0).ok());
    EXPECT_EQ(tree.size(), users - 1);
  }
}

TEST_F(FileBackedTest, OpenExistingRejectsMissingOrCorruptFiles) {
  auto missing = FileDiskManager::OpenExisting(path_ + ".nope");
  EXPECT_TRUE(missing.status().IsIOError());
  // Non-page-aligned file.
  {
    std::ofstream f(path_, std::ios::binary);
    f << "not a page";
  }
  auto corrupt = FileDiskManager::OpenExisting(path_);
  EXPECT_TRUE(corrupt.status().IsCorruption());
}

TEST_F(FileBackedTest, AttachRejectsBogusManifests) {
  PolicyStore store;
  RoleRegistry roles;
  CompatibilityOptions compat;
  SvQuantizer quant(64.0, 26);
  auto enc = std::make_shared<const EncodingSnapshot>(
      EncodingSnapshot::Build(store, 10, compat, {}, quant));

  FileDiskManager disk(path_);
  ASSERT_TRUE(disk.status().ok());
  BufferPool pool(&disk, BufferPoolOptions{16});
  PebTreeOptions opt;
  opt.index.grid_bits = 8;
  PebTree tree(&pool, opt, &store, &roles, enc);

  PebTreeManifest bogus;
  bogus.root = 99;  // Nonexistent page.
  bogus.stats.num_entries = 5;
  EXPECT_FALSE(tree.AttachExisting(bogus).ok());
  // The handle is still usable as a fresh index afterwards.
  EXPECT_TRUE(tree.Insert({1, {10, 10}, {0, 0}, 0}).ok());
}

TEST_F(FileBackedTest, PebTreeQueriesOnRealFile) {
  const size_t users = 400;
  UniformGeneratorOptions gen;
  gen.num_objects = users;
  gen.stagger_window = 120.0;
  gen.seed = 12;
  Dataset ds = GenerateUniformDataset(gen);
  PolicyGeneratorOptions pg;
  pg.num_users = users;
  pg.policies_per_user = 8;
  pg.seed = 13;
  GeneratedPolicies gp = GeneratePolicies(pg);
  CompatibilityOptions compat;
  SvQuantizer quant(64.0, 26);
  auto enc = std::make_shared<const EncodingSnapshot>(
      EncodingSnapshot::Build(gp.store, users, compat, {}, quant));

  FileDiskManager disk(path_);
  ASSERT_TRUE(disk.status().ok());
  BufferPool pool(&disk, BufferPoolOptions{8});
  PebTreeOptions opt;
  opt.index.grid_bits = 8;
  PebTree tree(&pool, opt, &gp.store, &gp.roles, enc);
  for (const auto& o : ds.objects) ASSERT_TRUE(tree.Insert(o).ok());

  Rng rng(14);
  for (int q = 0; q < 10; ++q) {
    UserId issuer = static_cast<UserId>(rng.NextBelow(users));
    Rect range = Rect::CenteredSquare(
        {rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, 350);
    auto got = tree.RangeQuery(issuer, range, 120.0);
    ASSERT_TRUE(got.ok());
    auto want = testing::BruteForcePrq(ds, gp.store, gp.roles, issuer, range,
                                       120.0);
    EXPECT_EQ(*got, want);
  }
  EXPECT_GT(pool.stats().physical_reads, 0u);
}

}  // namespace
}  // namespace peb
