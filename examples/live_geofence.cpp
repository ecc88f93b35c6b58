// Live geofence: continuous privacy-aware range queries, registered
// through the MovingObjectService and maintained ENGINE-WIDE (the
// paper's Section-8 future-work direction, lifted over the sharded
// engine).
//
// A user registers a standing query over a district ("tell me whenever a
// friend who lets me see them is in the old town"). The service seeds the
// answer with a one-shot PRQ on a 4-shard engine, then keeps it current
// as batched position updates stream in through an update session —
// emitting entered/left events instead of re-running the query. Because
// the monitor is fed in stream order, the event stream is identical for
// any shard count.
//
// Build & run:  ./build/examples/live_geofence
#include <cstdio>

#include "engine/sharded_engine.h"
#include "eval/workload.h"
#include "service/query_request.h"
#include "service/service.h"

using namespace peb;
using namespace peb::eval;
using peb::service::MovingObjectService;
using peb::service::QueryRequest;
using peb::service::QueryResponse;

int main() {
  WorkloadParams params;
  params.num_users = 10000;
  params.policies_per_user = 40;
  params.grouping_factor = 0.8;
  params.seed = 44;
  std::printf("building %zu users...\n", params.num_users);
  Workload world = Workload::Build(params);

  // A 4-shard engine serves the standing query; updates flow through a
  // service update session (a deterministic clone of the workload stream).
  auto engine = MakeEngine(world, /*num_shards=*/4, /*num_threads=*/4);
  MovingObjectService svc(engine.get(), world.catalog());
  auto stream = CloneUniformUpdateStream(world);
  if (stream == nullptr) return 1;
  auto session = svc.OpenUpdateSession(stream.get(), /*batch_size=*/256);

  const UserId watcher = 7;
  Rect old_town = Rect::CenteredSquare({500, 500}, 300.0);
  QueryResponse reg = svc.Execute(
      QueryRequest::RegisterContinuous(watcher, old_town, world.now()));
  if (!reg.ok()) {
    std::printf("register failed: %s\n", reg.status.ToString().c_str());
    return 1;
  }
  std::printf("u%u watches the old town (standing query #%u); "
              "%zu friend(s) visible there now\n\n",
              watcher, reg.continuous_id, reg.ids.size());

  // Stream the world forward in batches; the session feeds the standing
  // query automatically.
  for (int epoch = 0; epoch < 12; ++epoch) {
    if (!session.Apply(2000).ok()) return 1;
    if (!svc.AdvanceContinuous(session.last_event_time()).ok()) return 1;

    for (const ContinuousQueryEvent& ev : svc.TakeContinuousEvents()) {
      std::printf("  t=%8.1f  u%-6u %s the old town result\n", ev.t, ev.user,
                  ev.entered ? "ENTERED" : "left");
    }
    auto res = svc.ContinuousResult(reg.continuous_id);
    if (!res.ok()) return 1;
    std::printf("t=%8.1f  visible friends in old town: %zu\n",
                session.last_event_time(), res->size());
  }
  return 0;
}
