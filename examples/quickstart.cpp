// Quickstart: the smallest end-to-end use of the PEB-tree public API.
//
//   1. Define users' location-privacy policies (LPPs) and roles.
//   2. Hand them to a PolicyCatalog, which builds the policy encoding
//      (sequence values + friend lists).
//   3. Create a PEB-tree over a buffer pool and insert moving users.
//   4. Front it with a MovingObjectService and issue a privacy-aware
//      range query (PRQ) and a privacy-aware k-nearest-neighbor query
//      (PkNN) as QueryRequests — each QueryResponse carries the answer
//      plus its own work counters and I/O delta.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <utility>

#include "peb/peb_tree.h"
#include "policy/policy_catalog.h"
#include "policy/policy_store.h"
#include "policy/role_registry.h"
#include "service/query_request.h"
#include "service/service.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

using namespace peb;
using peb::service::MovingObjectService;
using peb::service::QueryRequest;
using peb::service::QueryResponse;

int main() {
  // --- 1. Policies ----------------------------------------------------------
  // Three users: Alice (0), Bob (1), Carol (2).
  // Bob lets friends see him anywhere, any time.
  // Carol lets friends see her only downtown (x,y in [400,600]^2) during
  // working hours (8:00-17:00 on a 1440-minute day).
  RoleRegistry roles;
  RoleId friend_role = roles.RegisterRole("friend");

  PolicyStore store;
  Lpp bob_policy;
  bob_policy.role = friend_role;
  bob_policy.locr = Rect::Space(1000.0);
  bob_policy.tint = TimeOfDayInterval::AllDay();
  store.Add(/*owner=*/1, /*peer=*/0, bob_policy);
  roles.AssignRole(1, 0, friend_role);  // Bob declares Alice a friend.

  Lpp carol_policy;
  carol_policy.role = friend_role;
  carol_policy.locr = {{400, 400}, {600, 600}};
  carol_policy.tint = {8 * 60, 17 * 60};
  store.Add(/*owner=*/2, /*peer=*/0, carol_policy);
  roles.AssignRole(2, 0, friend_role);  // Carol declares Alice a friend.

  // --- 2. Policy encoding (the offline step of Section 5.1) -----------------
  // Defaults: 1000x1000 space, 1440-minute day, 64 steps per SV unit in 26
  // bits. The catalog owns the policies from here on.
  CatalogOptions catalog_options;
  catalog_options.num_users = 3;
  PolicyCatalog catalog(std::move(store), std::move(roles), catalog_options);
  const EncodingSnapshot& encoding = catalog.current();
  for (UserId u = 0; u < 3; ++u) {
    std::printf("user %u: sequence value %.2f (%u friends may query them)\n",
                u, encoding.sv(u),
                static_cast<unsigned>(encoding.FriendsOf(u).size()));
  }

  // --- 3. Index ---------------------------------------------------------------
  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{.capacity = 50});
  PebTreeOptions options;  // 1000x1000 space, Z-grid 2^10, Δtmu=120, n=2.
  PebTree tree(&pool, options, &catalog.store(), &catalog.roles(),
               catalog.snapshot());

  // Insert everyone at t=0. Positions follow x(t) = x + v(t - tu).
  Status s;
  s = tree.Insert({0, {500, 500}, {0.5, 0.0}, 0.0});   // Alice, drifting east.
  if (!s.ok()) { std::printf("insert: %s\n", s.ToString().c_str()); return 1; }
  s = tree.Insert({1, {520, 480}, {0.0, 0.0}, 0.0});   // Bob, parked nearby.
  if (!s.ok()) { std::printf("insert: %s\n", s.ToString().c_str()); return 1; }
  s = tree.Insert({2, {480, 530}, {0.0, -1.0}, 0.0});  // Carol, heading south.
  if (!s.ok()) { std::printf("insert: %s\n", s.ToString().c_str()); return 1; }

  // --- 4. Queries through the service facade ---------------------------------
  // Alice asks at 9:00 (t=540... but within delta_t_mu of the updates; use
  // t=60 which maps to 01:00 — Carol's window starts at 08:00, so make the
  // query at a time inside her window by re-updating her first).
  MovingObjectService svc(&tree, &catalog);

  Timestamp tq = 60.0;  // 01:00 — outside Carol's working hours.
  Rect window = Rect::CenteredSquare({500, 500}, 200.0);

  QueryResponse prq = svc.Execute(QueryRequest::Prq(/*issuer=*/0, window, tq));
  if (!prq.ok()) return 1;
  std::printf("\nPRQ at t=%.0f (01:00): %zu visible user(s):", tq,
              prq.ids.size());
  for (UserId u : prq.ids) std::printf(" u%u", u);
  std::printf("   (Carol hidden: outside her time window)\n");

  QueryResponse knn =
      svc.Execute(QueryRequest::Pknn(/*issuer=*/0, {500, 500}, /*k=*/2, tq));
  if (!knn.ok()) return 1;
  std::printf("PkNN k=2: ");
  for (const Neighbor& n : knn.neighbors) {
    std::printf("u%u at distance %.1f; ", n.uid, n.distance);
  }
  std::printf(
      "\n\nper-response observability (by value, no shared counters):\n"
      "  PRQ : %zu candidates, %llu physical reads\n"
      "  PkNN: %zu rounds, %llu physical reads\n",
      prq.counters.candidates_examined,
      static_cast<unsigned long long>(prq.io.physical_reads),
      knn.counters.rounds,
      static_cast<unsigned long long>(knn.io.physical_reads));
  return 0;
}
