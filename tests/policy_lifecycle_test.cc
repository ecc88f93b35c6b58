// The online policy lifecycle: PolicyCatalog mutations, incremental
// re-encoding, epoch-snapshot adoption, and the end-to-end equivalence
// guarantees:
//
//  * Incremental re-encode touches exactly the affected connected
//    components; untouched users keep their SVs (and keys) verbatim.
//  * After every re-encode, PRQ/PkNN answers on the incrementally re-keyed
//    index are identical to a from-scratch rebuild of the mutated corpus —
//    for 1-shard and 4-shard engines.
//  * Continuous queries reconcile across epochs with identical event
//    streams on 1 and 4 shards.
//  * UserPairKey packing cannot collide for extreme 32-bit ids.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "engine/sharded_engine.h"
#include "eval/runner.h"
#include "eval/workload.h"
#include "policy/policy_catalog.h"
#include "policy/policy_generator.h"
#include "service/service.h"

namespace peb {
namespace {

using engine::ShardedPebEngine;
using eval::MakeEngine;
using eval::MakePknnQueries;
using eval::MakePrqQueries;
using eval::QuerySetOptions;
using eval::Workload;
using eval::WorkloadParams;
using service::MovingObjectService;
using service::QueryRequest;
using service::QueryResponse;

Lpp WideOpenPolicy(RoleId role) {
  Lpp p;
  p.role = role;
  // Truly everywhere: projected positions can drift outside the space
  // domain, and the policy must keep covering them.
  p.locr = Rect{{-1e9, -1e9}, {1e9, 1e9}};
  p.tint = TimeOfDayInterval::AllDay();
  return p;
}

CatalogOptions SmallCatalogOptions(size_t num_users) {
  CatalogOptions opt;
  opt.num_users = num_users;
  opt.compat.space = Rect::Space(1000.0);
  return opt;
}

// ---------------------------------------------------------------------------
// Catalog unit behavior
// ---------------------------------------------------------------------------

TEST(PolicyCatalog, CleanReencodeKeepsEpochAndSnapshot) {
  PolicyStore store;
  RoleRegistry roles;
  roles.RegisterRole("friend");
  PolicyCatalog catalog(std::move(store), std::move(roles),
                        SmallCatalogOptions(8));
  auto before = catalog.snapshot();
  ASSERT_EQ(before->epoch(), 0u);

  auto result = catalog.Reencode();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->snapshot.get(), before.get());
  EXPECT_EQ(result->stats.epoch, 0u);
  EXPECT_TRUE(result->rekeyed.empty());
  EXPECT_EQ(catalog.epoch(), 0u);
}

TEST(PolicyCatalog, MutationValidation) {
  PolicyStore store;
  RoleRegistry roles;
  RoleId role = roles.RegisterRole("friend");
  PolicyCatalog catalog(std::move(store), std::move(roles),
                        SmallCatalogOptions(4));

  EXPECT_TRUE(catalog.AddPolicy(0, 9, WideOpenPolicy(role)).IsInvalidArgument());
  EXPECT_TRUE(catalog.AddPolicy(9, 0, WideOpenPolicy(role)).IsInvalidArgument());
  EXPECT_TRUE(catalog.AddPolicy(1, 1, WideOpenPolicy(role)).IsInvalidArgument());
  EXPECT_TRUE(catalog.AddPolicy(0, 1, WideOpenPolicy(kInvalidRoleId))
                  .IsInvalidArgument());
  EXPECT_TRUE(catalog.AddPolicy(0, 1, WideOpenPolicy(role)).ok());
  EXPECT_EQ(catalog.dirty_count(), 2u);

  auto removed = catalog.RemovePolicies(0, 1);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);
  auto removed_again = catalog.RemovePolicies(0, 1);
  ASSERT_TRUE(removed_again.ok());
  EXPECT_EQ(*removed_again, 0u);
}

TEST(PolicyCatalog, IncrementalTouchesOnlyAffectedComponent) {
  // Two separate cliques {0,1,2} and {3,4,5}, plus isolated 6 and 7.
  PolicyStore store;
  RoleRegistry roles;
  RoleId role = roles.RegisterRole("friend");
  auto connect = [&](UserId a, UserId b) {
    store.Add(a, b, WideOpenPolicy(role));
    roles.AssignRole(a, b, role);
  };
  connect(0, 1);
  connect(1, 2);
  connect(3, 4);
  connect(4, 5);

  PolicyCatalog catalog(std::move(store), std::move(roles),
                        SmallCatalogOptions(8));
  auto epoch0 = catalog.snapshot();

  // Mutate inside the second clique only.
  ASSERT_TRUE(catalog.AddPolicy(5, 3, WideOpenPolicy(role)).ok());
  auto result = catalog.Reencode();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.epoch, 1u);
  EXPECT_EQ(result->stats.component_users, 3u);  // {3, 4, 5}.

  auto epoch1 = result->snapshot;
  // Untouched users keep raw SVs and quantized SVs verbatim.
  for (UserId u : {0u, 1u, 2u, 6u, 7u}) {
    EXPECT_EQ(epoch0->sv(u), epoch1->sv(u)) << "user " << u;
    EXPECT_EQ(epoch0->quantized_sv(u), epoch1->quantized_sv(u))
        << "user " << u;
  }
  // Every re-keyed user lies in the affected component.
  for (UserId u : result->rekeyed) {
    EXPECT_TRUE(u == 3 || u == 4 || u == 5) << "re-keyed user " << u;
  }
  // The component's new values sit above every pre-existing SV, keeping
  // them collision-free with untouched users.
  double old_max = 0.0;
  for (UserId u = 0; u < 8; ++u) old_max = std::max(old_max, epoch0->sv(u));
  for (UserId u : {3u, 4u, 5u}) EXPECT_GT(epoch1->sv(u), old_max);

  // Friend lists reflect the new grant at the new epoch.
  bool found = false;
  for (const FriendEntry& f : epoch1->FriendsOf(3)) {
    if (f.uid == 5) {
      found = true;
      EXPECT_EQ(f.qsv, epoch1->quantized_sv(5));
    }
  }
  EXPECT_TRUE(found) << "5 must appear in 3's friend list after the grant";
  EXPECT_TRUE(epoch0->FriendsOf(3).empty());
}

TEST(PolicyCatalog, IncrementalMatchesSubgraphRebuild) {
  // One chain 0-1-2 mutated; the incremental values must equal a full
  // Figure-5 run over the subgraph, translated to the fresh base.
  PolicyStore store;
  RoleRegistry roles;
  RoleId role = roles.RegisterRole("friend");
  store.Add(0, 1, WideOpenPolicy(role));
  roles.AssignRole(0, 1, role);

  PolicyCatalog catalog(std::move(store), std::move(roles),
                        SmallCatalogOptions(3));
  ASSERT_TRUE(catalog.AddPolicy(1, 2, WideOpenPolicy(role)).ok());
  auto result = catalog.Reencode();
  ASSERT_TRUE(result.ok());
  auto snap = result->snapshot;

  // Reference: Figure-5 over the mutated graph {0-1, 1-2} in isolation.
  const PolicyStore& mutated = catalog.store();
  CompatibilityOptions compat = SmallCatalogOptions(3).compat;
  SequenceAssignment ref = AssignSequenceValues(mutated, 3, compat);

  // Translation invariance: pairwise SV offsets match the reference.
  for (UserId a = 0; a < 3; ++a) {
    for (UserId b = 0; b < 3; ++b) {
      EXPECT_NEAR(snap->sv(a) - snap->sv(b), ref.sv[a] - ref.sv[b], 1e-12)
          << "pair (" << a << ", " << b << ")";
    }
  }
}

TEST(UserPairKey, ExtremeIdsDoNotCollide) {
  PolicyStore store;
  RoleRegistry roles;
  RoleId role = roles.RegisterRole("friend");
  const UserId hi = std::numeric_limits<UserId>::max() - 1;
  store.Add(hi, 1, WideOpenPolicy(role));
  store.Add(1, hi, WideOpenPolicy(role));
  store.Add(hi, 2, WideOpenPolicy(role));
  EXPECT_EQ(store.Get(hi, 1).size(), 1u);
  EXPECT_EQ(store.Get(1, hi).size(), 1u);
  EXPECT_EQ(store.Get(hi, 2).size(), 1u);
  EXPECT_EQ(store.Get(2, hi).size(), 0u);
  EXPECT_EQ(store.RemoveAll(hi, 1), 1u);
  EXPECT_EQ(store.Get(1, hi).size(), 1u);
}

// ---------------------------------------------------------------------------
// Whole-stack equivalence under randomized churn
// ---------------------------------------------------------------------------

WorkloadParams ChurnParams(uint64_t seed) {
  WorkloadParams p;
  p.num_users = 500;
  p.policies_per_user = 8;
  p.grid_bits = 8;
  p.seed = seed;
  return p;
}

/// One independent lifecycle instance: its own catalog (same corpus), an
/// engine built from the catalog's snapshot, and a lifecycle service.
struct Instance {
  std::unique_ptr<PolicyCatalog> catalog;
  std::unique_ptr<ShardedPebEngine> engine;
  std::unique_ptr<MovingObjectService> svc;
  std::unique_ptr<UpdateStream> stream;
};

Instance MakeInstance(const Workload& w, size_t shards) {
  Instance inst;
  CatalogOptions cat = w.catalog().options();
  inst.catalog = std::make_unique<PolicyCatalog>(w.store(), w.roles(), cat);
  engine::EngineOptions opts;
  opts.num_shards = shards;
  opts.num_threads = 2;
  opts.buffer_pages = w.params().buffer_pages;
  opts.tree = eval::PebOptionsFor(w.params());
  inst.engine = std::make_unique<ShardedPebEngine>(
      opts, &inst.catalog->store(), &inst.catalog->roles(),
      inst.catalog->snapshot());
  EXPECT_TRUE(inst.engine->LoadDataset(w.dataset()).ok());
  inst.svc = std::make_unique<MovingObjectService>(inst.engine.get(),
                                                   inst.catalog.get());
  inst.stream = eval::CloneUniformUpdateStream(w);
  return inst;
}

/// A deterministic mutation schedule (same for every instance).
struct Mutation {
  bool add = true;
  UserId owner = 0;
  UserId peer = 0;
  Lpp policy;
};

std::vector<Mutation> MakeSchedule(const Workload& w, size_t count,
                                   uint64_t seed) {
  PolicyGeneratorOptions lpp_opt;
  lpp_opt.space = Rect::Space(w.params().space_side);
  lpp_opt.time_domain = w.params().time_domain;
  Rng rng(seed);
  RoleId role = 0;  // The generator's "friend" role.
  size_t n = w.params().num_users;
  std::vector<Mutation> schedule;
  for (size_t i = 0; i < count; ++i) {
    Mutation m;
    m.add = (i % 3) != 2;  // 2/3 grants, 1/3 revocations.
    m.owner = static_cast<UserId>(rng.NextBelow(n));
    if (m.add) {
      m.peer = m.owner;
      while (m.peer == m.owner) {
        m.peer = static_cast<UserId>(rng.NextBelow(n));
      }
      m.policy = RandomLpp(rng, role, lpp_opt);
    } else {
      // Revoke an existing grant when one exists (resolved per instance —
      // stores stay identical, so the pick below matches everywhere).
      UserId u = m.owner;
      for (size_t probe = 0; probe < n; ++probe) {
        if (!w.store().PeersOf(u).empty()) break;
        u = static_cast<UserId>((u + 1) % n);
      }
      m.owner = u;
      auto peers = w.store().PeersOf(u);
      m.peer = peers.empty() ? m.owner
                             : peers[rng.NextBelow(peers.size())];
    }
    schedule.push_back(m);
  }
  return schedule;
}

TEST(PolicyLifecycle, ChurnedEnginesMatchFullRebuildAcrossShardCounts) {
  const size_t kRounds = 4;
  const size_t kMutationsPerRound = 6;
  const size_t kUpdatesPerRound = 120;
  Workload w = Workload::Build(ChurnParams(51));

  Instance single = MakeInstance(w, 1);
  Instance sharded = MakeInstance(w, 4);
  ASSERT_NE(single.stream, nullptr);
  ASSERT_NE(sharded.stream, nullptr);

  // Standing queries on both instances (same registration order).
  Rect district = Rect::CenteredSquare({500, 500}, 300.0);
  for (Instance* inst : {&single, &sharded}) {
    QueryResponse reg = inst->svc->Execute(
        QueryRequest::RegisterContinuous(11, district, w.now()));
    ASSERT_TRUE(reg.ok()) << reg.status;
  }

  QuerySetOptions qopt;
  qopt.count = 25;
  qopt.seed = 77;
  auto prq = MakePrqQueries(w, qopt);
  auto knn = MakePknnQueries(w, qopt);

  auto schedule =
      MakeSchedule(w, kRounds * kMutationsPerRound, /*seed=*/0xC0FFEE);
  size_t next_mutation = 0;
  uint64_t expected_epoch = 0;
  Timestamp now = w.now();

  for (size_t round = 0; round < kRounds; ++round) {
    // Interleave index updates with policy churn.
    std::vector<ContinuousQueryEvent> ev_single, ev_sharded;
    for (Instance* inst : {&single, &sharded}) {
      auto session = inst->svc->OpenUpdateSession(inst->stream.get(), 64);
      ASSERT_TRUE(session.Apply(kUpdatesPerRound).ok());
      now = session.last_event_time();
    }

    for (size_t i = 0; i < kMutationsPerRound; ++i) {
      const Mutation& m = schedule[next_mutation++];
      uint64_t epoch_single = 0, epoch_sharded = 0;
      for (Instance* inst : {&single, &sharded}) {
        QueryResponse resp;
        if (m.add) {
          resp = inst->svc->Execute(
              QueryRequest::AddPolicy(m.owner, m.peer, m.policy, now));
        } else if (m.owner != m.peer) {
          resp = inst->svc->Execute(
              QueryRequest::RemovePolicy(m.owner, m.peer, now));
        } else {
          continue;  // Schedule found nothing to revoke.
        }
        ASSERT_TRUE(resp.ok()) << resp.status;
        (inst == &single ? epoch_single : epoch_sharded) = resp.epoch;
        // A grant always dirties; a revocation of nothing keeps the epoch.
        if (inst == &single) {
          EXPECT_GE(resp.epoch, expected_epoch);
          expected_epoch = resp.epoch;
        }
      }
      // Both instances publish identical epochs and identical stats.
      EXPECT_EQ(epoch_single, epoch_sharded);
    }

    // Reference: from-scratch rebuild of the mutated corpus (fresh catalog
    // + fresh 2-shard engine hosting the same motion state).
    Instance rebuilt;
    CatalogOptions cat = w.catalog()->options();
    rebuilt.catalog = std::make_unique<PolicyCatalog>(
        single.catalog->store(), single.catalog->roles(), cat);
    engine::EngineOptions opts;
    opts.num_shards = 2;
    opts.num_threads = 2;
    opts.buffer_pages = w.params().buffer_pages;
    opts.tree = eval::PebOptionsFor(w.params());
    rebuilt.engine = std::make_unique<ShardedPebEngine>(
        opts, &rebuilt.catalog->store(), &rebuilt.catalog->roles(),
        rebuilt.catalog->snapshot());
    for (size_t u = 0; u < w.params().num_users; ++u) {
      auto obj = single.engine->GetObject(static_cast<UserId>(u));
      ASSERT_TRUE(obj.ok());
      ASSERT_TRUE(rebuilt.engine->Insert(*obj).ok());
    }

    // PRQ/PkNN answers must be identical: 1-shard churned == 4-shard
    // churned == from-scratch rebuild.
    for (const auto& query : prq) {
      auto a = single.engine->RangeQuery(query.issuer, query.range, now);
      auto b = sharded.engine->RangeQuery(query.issuer, query.range, now);
      auto c = rebuilt.engine->RangeQuery(query.issuer, query.range, now);
      ASSERT_TRUE(a.ok() && b.ok() && c.ok());
      EXPECT_EQ(*a, *b) << "round " << round;
      EXPECT_EQ(*a, *c) << "round " << round;
    }
    for (const auto& query : knn) {
      auto a = single.engine->KnnQuery(query.issuer, query.qloc, query.k,
                                       now);
      auto b = sharded.engine->KnnQuery(query.issuer, query.qloc, query.k,
                                        now);
      auto c = rebuilt.engine->KnnQuery(query.issuer, query.qloc, query.k,
                                        now);
      ASSERT_TRUE(a.ok() && b.ok() && c.ok());
      ASSERT_EQ(a->size(), b->size()) << "round " << round;
      ASSERT_EQ(a->size(), c->size()) << "round " << round;
      for (size_t i = 0; i < a->size(); ++i) {
        EXPECT_NEAR((*a)[i].distance, (*b)[i].distance, 1e-9);
        EXPECT_NEAR((*a)[i].distance, (*c)[i].distance, 1e-9);
      }
    }

    // Continuous queries: identical answers and event streams, 1 vs 4
    // shards, across the epoch transitions.
    for (Instance* inst : {&single, &sharded}) {
      ASSERT_TRUE(inst->svc->AdvanceContinuous(now).ok());
      auto events = inst->svc->TakeContinuousEvents();
      (inst == &single ? ev_single : ev_sharded) = std::move(events);
    }
    EXPECT_EQ(ev_single, ev_sharded) << "round " << round;
    EXPECT_EQ(*single.svc->ContinuousResult(1),
              *sharded.svc->ContinuousResult(1))
        << "round " << round;
  }
  EXPECT_GT(expected_epoch, 0u);
}

// ---------------------------------------------------------------------------
// Deferred mode + single-tree service path
// ---------------------------------------------------------------------------

TEST(PolicyLifecycle, DeferredMutationsFlushInOneReencode) {
  Workload w = Workload::Build(ChurnParams(52));
  MovingObjectService& svc = w.peb_service();
  RoleId role = w.catalog()->DefineRole("friend");

  uint64_t epoch0 = w.catalog()->epoch();
  QueryResponse r1 = svc.Execute(QueryRequest::AddPolicy(
      3, 4, WideOpenPolicy(role), w.now(), /*reencode_now=*/false));
  ASSERT_TRUE(r1.ok()) << r1.status;
  EXPECT_EQ(r1.epoch, epoch0);  // Deferred: epoch unchanged.
  QueryResponse r2 = svc.Execute(QueryRequest::AddPolicy(
      5, 6, WideOpenPolicy(role), w.now(), /*reencode_now=*/false));
  ASSERT_TRUE(r2.ok());
  EXPECT_GE(w.catalog()->dirty_count(), 4u);

  QueryResponse flush = svc.Execute(QueryRequest::Reencode(w.now()));
  ASSERT_TRUE(flush.ok()) << flush.status;
  EXPECT_EQ(flush.epoch, epoch0 + 1);
  EXPECT_GE(flush.reencode.dirty_users, 4u);
  EXPECT_EQ(w.catalog()->dirty_count(), 0u);
  // The single tree adopted the snapshot: epochs agree.
  EXPECT_EQ(w.peb().encoding_epoch(), epoch0 + 1);

  // The new grant answers queries: owner 3 became visible to peer 4.
  auto obj = w.peb().GetObject(3);
  ASSERT_TRUE(obj.ok());
  Point pos = obj->PositionAt(w.now());
  Rect window = Rect::CenteredSquare(pos, 10.0);
  QueryResponse prq = svc.Execute(QueryRequest::Prq(4, window, w.now()));
  ASSERT_TRUE(prq.ok());
  EXPECT_TRUE(std::find(prq.ids.begin(), prq.ids.end(), 3) != prq.ids.end());
  EXPECT_EQ(prq.epoch, epoch0 + 1);
}

TEST(PolicyLifecycle, RevocationIsImmediateGrantWaitsForEpoch) {
  Workload w = Workload::Build(ChurnParams(53));
  MovingObjectService& svc = w.peb_service();
  RoleId role = w.catalog()->DefineRole("friend");

  // Pick a pair with no pre-existing grant in either direction (the
  // generated corpus is random), in different generator groups.
  UserId owner = 7, peer = 400;
  while (peer < 500 && (!w.store().Get(owner, peer).empty() ||
                        !w.store().Get(peer, owner).empty())) {
    peer++;
  }
  ASSERT_LT(peer, 500u) << "no unrelated pair found";
  const UserId kOwner = owner, kPeer = peer;

  // Grant deferred: owner not visible to peer yet (the peer's friend list
  // lacks the owner until the epoch publishes).
  QueryResponse grant = svc.Execute(QueryRequest::AddPolicy(
      kOwner, kPeer, WideOpenPolicy(role), w.now(), /*reencode_now=*/false));
  ASSERT_TRUE(grant.ok());
  auto obj = w.peb().GetObject(kOwner);
  ASSERT_TRUE(obj.ok());
  Rect window = Rect::CenteredSquare(obj->PositionAt(w.now()), 10.0);
  QueryResponse before = svc.Execute(QueryRequest::Prq(kPeer, window, w.now()));
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(std::find(before.ids.begin(), before.ids.end(), kOwner) ==
              before.ids.end());

  // Publish: the grant becomes visible.
  ASSERT_TRUE(svc.Execute(QueryRequest::Reencode(w.now())).ok());
  QueryResponse after = svc.Execute(QueryRequest::Prq(kPeer, window, w.now()));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(std::find(after.ids.begin(), after.ids.end(), kOwner) !=
              after.ids.end());

  // Revocation is effective immediately, even deferred: verification reads
  // the live store.
  QueryResponse revoke = svc.Execute(QueryRequest::RemovePolicy(
      kOwner, kPeer, w.now(), /*reencode_now=*/false));
  ASSERT_TRUE(revoke.ok());
  EXPECT_EQ(revoke.removed_policies, 1u);
  QueryResponse gone = svc.Execute(QueryRequest::Prq(kPeer, window, w.now()));
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(std::find(gone.ids.begin(), gone.ids.end(), kOwner) ==
              gone.ids.end());
}

}  // namespace
}  // namespace peb
