// Colleague hours: the paper's motivating policy (Section 1 / Definition 1)
// — "Bob lets his colleagues see his location when he is in town during
// work hours (8 a.m. to 5 p.m.)" — exercised end to end, with multiple
// roles per user and policies that switch on and off over the day.
//
// The example builds a small office scenario and replays a workday,
// issuing the same PRQ at different times of day to show policy-driven
// visibility changes — the behavior a filtering-only system computes the
// hard way and the PEB-tree answers with friend-bounded I/O.
//
// Build & run:  ./build/examples/colleague_hours
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "peb/peb_tree.h"
#include "policy/policy_catalog.h"
#include "service/query_request.h"
#include "service/service.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

using namespace peb;
using peb::service::MovingObjectService;
using peb::service::QueryRequest;
using peb::service::QueryResponse;

namespace {

const char* kNames[] = {"Bob", "Alice", "Carol", "Dave", "Erin", "Frank"};

std::string Clock(double minutes) {
  int h = static_cast<int>(minutes / 60) % 24;
  int m = static_cast<int>(minutes) % 60;
  char buf[8];
  std::snprintf(buf, sizeof(buf), "%02d:%02d", h, m);
  return buf;
}

}  // namespace

int main() {
  // Users: Bob(0), Alice(1), Carol(2) are colleagues; Dave(3) and Erin(4)
  // are Bob's family; Frank(5) is a stranger.
  RoleRegistry roles;
  RoleId colleague = roles.RegisterRole("colleague");
  RoleId family = roles.RegisterRole("family");

  PolicyStore store;
  Rect town{{200, 200}, {800, 800}};
  TimeOfDayInterval work_hours{8 * 60, 17 * 60};

  // Bob's policy for colleagues: visible in town during work hours.
  Lpp bob_for_colleagues{colleague, town, work_hours};
  for (UserId peer : {1u, 2u}) {
    store.Add(0, peer, bob_for_colleagues);
    roles.AssignRole(0, peer, colleague);
  }
  // Bob's policy for family: visible anywhere, any time.
  Lpp bob_for_family{family, Rect::Space(1000.0),
                     TimeOfDayInterval::AllDay()};
  for (UserId peer : {3u, 4u}) {
    store.Add(0, peer, bob_for_family);
    roles.AssignRole(0, peer, family);
  }
  // Colleagues reciprocate toward Bob during work hours.
  for (UserId owner : {1u, 2u}) {
    store.Add(owner, 0, bob_for_colleagues);
    roles.AssignRole(owner, 0, colleague);
  }
  // Family reciprocates around the clock.
  for (UserId owner : {3u, 4u}) {
    store.Add(owner, 0, bob_for_family);
    roles.AssignRole(owner, 0, family);
  }
  // Frank has no relationship with anyone.

  CatalogOptions catalog_options;
  catalog_options.num_users = 6;
  PolicyCatalog catalog(std::move(store), std::move(roles), catalog_options);
  std::printf("sequence values (colleagues+family cluster around Bob):\n");
  for (UserId u = 0; u < 6; ++u) {
    std::printf("  %-6s sv=%.3f\n", kNames[u], catalog.current().sv(u));
  }

  InMemoryDiskManager disk;
  BufferPool pool(&disk, BufferPoolOptions{50});
  PebTreeOptions options;
  PebTree tree(&pool, options, &catalog.store(), &catalog.roles(),
               catalog.snapshot());

  // Everyone hangs around the office block (in town) and stands still; the
  // query answer changes purely because of the time of day.
  Status s;
  s = tree.Insert({0, {500, 500}, {0, 0}, 0});  // Bob.
  if (!s.ok()) return 1;
  s = tree.Insert({1, {505, 495}, {0, 0}, 0});  // Alice.
  if (!s.ok()) return 1;
  s = tree.Insert({2, {495, 505}, {0, 0}, 0});  // Carol.
  if (!s.ok()) return 1;
  s = tree.Insert({3, {510, 510}, {0, 0}, 0});  // Dave.
  if (!s.ok()) return 1;
  s = tree.Insert({4, {490, 490}, {0, 0}, 0});  // Erin.
  if (!s.ok()) return 1;
  s = tree.Insert({5, {500, 490}, {0, 0}, 0});  // Frank.
  if (!s.ok()) return 1;

  // Queries go through the request/response service facade (the tree is
  // the backing index; the catalog supplies the live policy state).
  MovingObjectService office(&tree, &catalog);

  Rect office_block = Rect::CenteredSquare({500, 500}, 100.0);
  // Note: query times must stay within one max update interval of the
  // inserts for the linear motion model; everyone is static here, so we
  // refresh positions before each query to keep the index contract honest.
  std::printf("\nwho can Bob (as issuer) see in the office block?\n");
  for (double tq : {7.5 * 60, 9.0 * 60, 12.0 * 60, 16.9 * 60, 20.0 * 60}) {
    // Refresh all users at tq (same positions, new update time).
    for (UserId u = 0; u < 6; ++u) {
      auto obj = tree.GetObject(u);
      if (!obj.ok()) return 1;
      MovingObject refreshed = *obj;
      refreshed.tu = tq;
      if (!office.ApplyUpdate(refreshed, tq).ok()) return 1;
    }
    QueryResponse res =
        office.Execute(QueryRequest::Prq(/*issuer=*/0, office_block, tq));
    if (!res.ok()) return 1;
    std::printf("  %s ->", Clock(tq).c_str());
    if (res.ids.empty()) std::printf(" nobody");
    for (UserId u : res.ids) std::printf(" %s", kNames[u]);
    std::printf("\n");
  }
  std::printf(
      "\n(family visible around the clock; colleagues only 08:00-17:00;\n"
      " Frank never — no policy, no role, no disclosure)\n");
  return 0;
}
