// peb_shell — an interactive shell over a synthetic PEB-tree deployment.
//
// Generate a world, then poke at it: run privacy-aware queries as any
// user, stream updates, inspect friend lists and index statistics. All
// queries are issued through the MovingObjectService request/response API
// (per-query counters and I/O come from each response, by value). Reads
// commands from stdin (scriptable via pipes).
//
//   $ ./build/peb_shell
//   peb> gen 20000 30 0.7
//   peb> friends 42
//   peb> prq 42 300 300 700 700
//   peb> knn 42 500 500 5
//   peb> update 5000
//   peb> stats
//   peb> shards 4        # build a 4-shard engine; queries now use it
//   peb> threads 8       # rebuild the engine with 8 worker threads
//   peb> engine off      # back to the single PEB-tree
//   peb> watch 42 300 300 700 700   # standing query with live events
//   peb> events          # drain entered/left events
//   peb> quit
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/sharded_engine.h"
#include "eval/runner.h"
#include "eval/workload.h"
#include "service/service.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

using namespace peb;
using namespace peb::eval;
using peb::service::MovingObjectService;
using peb::service::QueryRequest;
using peb::service::QueryResponse;

namespace {

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  gen <users> <policies_per_user> <theta> [network <hubs>]\n"
      "      generate a synthetic world and build both indexes\n"
      "  prq <issuer> <x1> <y1> <x2> <y2>   privacy-aware range query\n"
      "  knn <issuer> <x> <y> <k>           privacy-aware k nearest\n"
      "  friends <uid>    who may ever answer uid's queries\n"
      "  where <uid>      current position of a user\n"
      "  update <n>       stream n updates into both indexes\n"
      "  stats            index shapes and I/O counters\n"
      "  compare <n>      run n random PRQs on both indexes, report I/O\n"
      "  shards <n>       build an n-shard engine; prq/knn run against it\n"
      "  threads <n>      rebuild the engine with n worker threads\n"
      "  engine on|off    toggle whether queries use the sharded engine\n"
      "  watch <issuer> <x1> <y1> <x2> <y2>  register a standing PRQ\n"
      "  unwatch <id>     cancel a standing PRQ\n"
      "  events           drain standing-query entered/left events\n"
      "  policy add <owner> <peer> [x1 y1 x2 y2 [tstart tend]]\n"
      "      grant: owner lets peer see them inside the region (default:\n"
      "      everywhere) during the daily window (default: all day)\n"
      "  policy remove <owner> <peer>   revoke all owner->peer policies\n"
      "  role define <name>             register a role by name\n"
      "  reencode         flush pending mutations: incremental re-encode,\n"
      "                   re-key the affected users, publish a new epoch\n"
      "  epoch            current encoding epoch and pending mutations\n"
      "  check            run the deep structural validators on every\n"
      "                   index (PEB-tree, Bx-tree, pools, engine)\n"
      "  save <path>      checkpoint current object states into a durable\n"
      "                   file (superblock + WAL sidecar at <path>.wal)\n"
      "  open <path>      recover a saved/crashed engine from its\n"
      "                   superblock + WAL; it becomes the active index\n"
      "  checkpoint       fold the open engine's WAL into the file\n"
      "  telemetry [json] live metrics registry (Prometheus text or JSON)\n"
      "  trace on|off     trace every query; prq/knn print the span tree\n"
      "  slowlog          worst traced queries over the slow threshold\n"
      "  help | quit\n");
}

struct Shell {
  /// One registry for the shell's lifetime: engines and services come and
  /// go (gen / shards / engine on|off), their instruments accumulate
  /// here. Declared first so it outlives everything registered to it —
  /// the engine's destructor unregisters its pool collector.
  telemetry::MetricsRegistry registry;
  std::unique_ptr<Workload> world;
  std::unique_ptr<engine::ShardedPebEngine> eng;
  /// The service front-end queries go through: over the engine when
  /// enabled, else over the single PEB-tree.
  std::unique_ptr<MovingObjectService> svc;
  size_t engine_shards = 4;
  size_t engine_threads = 4;
  bool use_engine = false;
  size_t trace_every = 0;  ///< Sticky across RebindService; 1 = trace all.

  bool EnsureWorld() {
    if (world == nullptr) {
      std::printf("no world yet — run: gen <users> <policies> <theta>\n");
      return false;
    }
    return true;
  }

  /// Rebuilds the service over the active index. Standing queries live in
  /// the service, so toggling the backing index drops them (reported).
  void RebindService() {
    size_t standing = svc != nullptr ? svc->num_continuous_queries() : 0;
    PrivacyAwareIndex* index =
        use_engine && eng != nullptr
            ? static_cast<PrivacyAwareIndex*>(eng.get())
            : &world->peb();
    // Catalog-backed: policy add/remove, role define, and reencode work.
    service::ServiceOptions so;
    so.time_domain = world->params().time_domain;
    so.telemetry.registry = &registry;
    svc = std::make_unique<MovingObjectService>(index, world->catalog(), so);
    svc->set_trace_sample_every(trace_every);
    if (standing > 0) {
      std::printf("note: %zu standing quer%s dropped (index switched)\n",
                  standing, standing == 1 ? "y" : "ies");
    }
  }

  void RebuildEngine(bool enable) {
    std::printf("building engine: %zu shard(s), %zu thread(s)...\n",
                engine_shards, engine_threads);
    telemetry::TelemetryOptions topts;
    topts.registry = &registry;
    eng = MakeEngine(*world, engine_shards, engine_threads, topts);
    use_engine = enable;
    RebindService();
    std::printf("engine ready (%zu users)%s\n", eng->size(),
                enable ? "; prq/knn now use it"
                       : " (disabled — 'engine on' to use it)");
  }

  void Shards(std::istringstream& in) {
    if (!EnsureWorld()) return;
    size_t n = 0;
    if (!(in >> n) || n == 0) {
      std::printf("usage: shards <n>\n");
      return;
    }
    engine_shards = n;
    RebuildEngine(/*enable=*/true);
  }

  void Threads(std::istringstream& in) {
    if (!EnsureWorld()) return;
    size_t n = 0;
    if (!(in >> n)) {
      std::printf("usage: threads <n>  (0 = run shard tasks inline)\n");
      return;
    }
    engine_threads = n;
    // Respect an explicit earlier `engine off`: only a fresh engine (or
    // one already serving queries) is enabled.
    RebuildEngine(/*enable=*/eng == nullptr || use_engine);
  }

  void Engine(std::istringstream& in) {
    if (!EnsureWorld()) return;
    std::string mode;
    if (!(in >> mode) || (mode != "on" && mode != "off")) {
      std::printf("usage: engine on|off\n");
      return;
    }
    if (mode == "off") {
      use_engine = false;
      RebindService();
      std::printf("queries use the single PEB-tree\n");
      return;
    }
    if (eng == nullptr) {
      RebuildEngine(/*enable=*/true);
    } else {
      use_engine = true;
      RebindService();
      std::printf("queries use the %zu-shard engine\n", eng->num_shards());
    }
  }

  void Gen(std::istringstream& in) {
    WorkloadParams p;
    std::string dist;
    if (!(in >> p.num_users >> p.policies_per_user >> p.grouping_factor)) {
      std::printf("usage: gen <users> <policies> <theta> [network <hubs>]\n");
      return;
    }
    if (in >> dist && dist == "network") {
      p.distribution = Distribution::kNetwork;
      if (!(in >> p.num_hubs)) p.num_hubs = 100;
    }
    std::printf("building %zu users, %zu policies each, theta=%.2f...\n",
                p.num_users, p.policies_per_user, p.grouping_factor);
    world = std::make_unique<Workload>(Workload::Build(p));
    eng.reset();  // The old engine indexed the old world.
    use_engine = false;
    RebindService();
    std::printf("done: encoding %.2fs, now=%.1f\n",
                world->preprocessing_seconds(), world->now());
  }

  void Prq(std::istringstream& in) {
    if (!EnsureWorld()) return;
    UserId issuer;
    double x1, y1, x2, y2;
    if (!(in >> issuer >> x1 >> y1 >> x2 >> y2)) {
      std::printf("usage: prq <issuer> <x1> <y1> <x2> <y2>\n");
      return;
    }
    QueryResponse resp = svc->Execute(
        QueryRequest::Prq(issuer, {{x1, y1}, {x2, y2}}, world->now()));
    if (!resp.ok()) {
      std::printf("error: %s\n", resp.status.ToString().c_str());
      return;
    }
    std::printf("%zu visible user(s) [%llu I/O, %zu candidates, %.2f ms]:",
                resp.ids.size(),
                static_cast<unsigned long long>(resp.io.physical_reads),
                resp.counters.candidates_examined, resp.exec_ms);
    size_t shown = 0;
    for (UserId u : resp.ids) {
      if (shown++ == 20) {
        std::printf(" ...");
        break;
      }
      std::printf(" u%u", u);
    }
    std::printf("\n");
    if (!resp.trace.empty()) std::printf("%s", resp.trace.Summary().c_str());
  }

  void Knn(std::istringstream& in) {
    if (!EnsureWorld()) return;
    UserId issuer;
    double x, y;
    size_t k;
    if (!(in >> issuer >> x >> y >> k)) {
      std::printf("usage: knn <issuer> <x> <y> <k>\n");
      return;
    }
    QueryResponse resp =
        svc->Execute(QueryRequest::Pknn(issuer, {x, y}, k, world->now()));
    if (!resp.ok()) {
      std::printf("error: %s\n", resp.status.ToString().c_str());
      return;
    }
    for (const Neighbor& n : resp.neighbors) {
      std::printf("  u%-8u d=%.2f\n", n.uid, n.distance);
    }
    if (resp.neighbors.empty()) std::printf("  (no qualifying user)\n");
    std::printf("  [%llu I/O, %zu rounds, %.2f ms]\n",
                static_cast<unsigned long long>(resp.io.physical_reads),
                resp.counters.rounds, resp.exec_ms);
    if (!resp.trace.empty()) std::printf("%s", resp.trace.Summary().c_str());
  }

  void Watch(std::istringstream& in) {
    if (!EnsureWorld()) return;
    UserId issuer;
    double x1, y1, x2, y2;
    if (!(in >> issuer >> x1 >> y1 >> x2 >> y2)) {
      std::printf("usage: watch <issuer> <x1> <y1> <x2> <y2>\n");
      return;
    }
    QueryResponse resp = svc->Execute(QueryRequest::RegisterContinuous(
        issuer, {{x1, y1}, {x2, y2}}, world->now()));
    if (!resp.ok()) {
      std::printf("error: %s\n", resp.status.ToString().c_str());
      return;
    }
    std::printf("standing query #%u registered; %zu initial member(s)\n",
                resp.continuous_id, resp.ids.size());
  }

  void Unwatch(std::istringstream& in) {
    if (!EnsureWorld()) return;
    ContinuousQueryId id;
    if (!(in >> id)) {
      std::printf("usage: unwatch <id>\n");
      return;
    }
    QueryResponse resp =
        svc->Execute(QueryRequest::CancelContinuous(id));
    std::printf("%s\n", resp.ok() ? "cancelled"
                                  : resp.status.ToString().c_str());
  }

  void Events() {
    if (!EnsureWorld()) return;
    auto events = svc->TakeContinuousEvents();
    if (events.empty()) {
      std::printf("(no standing-query events)\n");
      return;
    }
    for (const ContinuousQueryEvent& ev : events) {
      std::printf("  t=%8.1f  #%u: u%-6u %s\n", ev.t, ev.query, ev.user,
                  ev.entered ? "ENTERED" : "left");
    }
  }

  void Friends(std::istringstream& in) {
    if (!EnsureWorld()) return;
    UserId uid;
    if (!(in >> uid) || uid >= world->params().num_users) {
      std::printf("usage: friends <uid>\n");
      return;
    }
    const auto& friends = world->encoding().FriendsOf(uid);
    std::printf("%zu user(s) have policies toward u%u:", friends.size(), uid);
    size_t shown = 0;
    for (const FriendEntry& f : friends) {
      if (shown++ == 20) {
        std::printf(" ...");
        break;
      }
      std::printf(" u%u(sv=%.1f)", f.uid, f.sv);
    }
    std::printf("\n");
  }

  void Where(std::istringstream& in) {
    if (!EnsureWorld()) return;
    UserId uid;
    if (!(in >> uid)) {
      std::printf("usage: where <uid>\n");
      return;
    }
    auto obj = world->peb().GetObject(uid);
    if (!obj.ok()) {
      std::printf("u%u is not indexed\n", uid);
      return;
    }
    Point pos = obj->PositionAt(world->now());
    std::printf("u%u at (%.1f, %.1f), velocity (%.2f, %.2f), sv=%.2f\n", uid,
                pos.x, pos.y, obj->vel.x, obj->vel.y,
                world->encoding().sv(uid));
  }

  void Update(std::istringstream& in) {
    if (!EnsureWorld()) return;
    size_t n = 0;
    if (!(in >> n)) {
      std::printf("usage: update <n>\n");
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      auto ev = world->ApplyNextUpdate();
      if (!ev.ok()) {
        std::printf("error: %s\n", ev.status().ToString().c_str());
        return;
      }
      if (eng != nullptr) {
        Status s = eng->Update(ev->state);
        if (!s.ok()) {
          std::printf("engine error: %s\n", s.ToString().c_str());
          return;
        }
      }
      // The index was updated out-of-band above; keep standing queries
      // current with the stream.
      if (svc != nullptr) {
        (void)svc->NotifyUpdated(ev->state, world->now());
      }
    }
    // Standing queries re-evaluate at the new time.
    if (svc != nullptr && svc->num_continuous_queries() > 0) {
      (void)svc->AdvanceContinuous(world->now());
    }
    std::printf("applied %zu updates; now=%.1f\n", n, world->now());
  }

  void Stats() {
    if (!EnsureWorld()) return;
    const auto& peb_stats = world->peb().tree_stats();
    const auto& io = world->peb().pool()->stats();
    std::printf("PEB-tree : %zu entries, %zu leaves, %zu internals, height "
                "%zu\n", peb_stats.num_entries, peb_stats.num_leaves,
                peb_stats.num_internals, peb_stats.height);
    std::printf("  pool   : %llu reads, %llu writes, %.1f%% hit ratio\n",
                static_cast<unsigned long long>(io.physical_reads),
                static_cast<unsigned long long>(io.physical_writes),
                100.0 * io.HitRatio());
    const auto& spa = world->spatial().tree().tree_stats();
    std::printf("Bx-tree  : %zu entries, %zu leaves, %zu internals, height "
                "%zu\n", spa.num_entries, spa.num_leaves, spa.num_internals,
                spa.height);
    if (svc != nullptr) {
      std::printf("service  : %zu standing quer%s\n",
                  svc->num_continuous_queries(),
                  svc->num_continuous_queries() == 1 ? "y" : "ies");
    }
    if (eng != nullptr) {
      const auto& eio = eng->aggregate_io();
      std::printf("engine   : %zu shard(s) x %zu thread(s), %s\n",
                  eng->num_shards(), eng->threads().num_threads(),
                  use_engine ? "serving queries" : "idle");
      for (size_t s = 0; s < eng->num_shards(); ++s) {
        std::printf("  shard %zu: %zu users, height %zu\n", s,
                    eng->shard_size(s), eng->shard_tree(s).tree_stats().height);
      }
      std::printf("  pools  : %llu reads total, %.1f%% hit ratio\n",
                  static_cast<unsigned long long>(eio.physical_reads),
                  100.0 * eio.HitRatio());
    }
  }

  /// After a re-encode through the active service, bring every OTHER index
  /// the shell hosts to the same epoch (each diffs its own records; the
  /// active index was already re-keyed precisely by the service).
  void SyncInactiveIndexes() {
    auto snapshot = world->catalog()->snapshot();
    bool engine_active = use_engine && eng != nullptr;
    Status st = engine_active
                    ? world->SyncIndexesToCatalog()  // peb + spatial.
                    : world->spatial().AdoptSnapshot(snapshot, nullptr);
    if (!st.ok()) {
      std::printf("sync error: %s\n", st.ToString().c_str());
      return;
    }
    if (eng != nullptr && !engine_active) {
      st = eng->AdoptSnapshot(std::move(snapshot), nullptr);
      if (!st.ok()) {
        std::printf("engine sync error: %s\n", st.ToString().c_str());
      }
    }
  }

  void PrintReencode(const QueryResponse& resp) {
    std::printf("epoch %llu: %zu dirty -> component of %zu, %zu re-keyed, "
                "%zu friend list(s) rebuilt (%.2f ms)\n",
                static_cast<unsigned long long>(resp.epoch),
                resp.reencode.dirty_users, resp.reencode.component_users,
                resp.reencode.rekeyed, resp.reencode.lists_rebuilt,
                resp.reencode.seconds * 1e3);
  }

  void Policy(std::istringstream& in) {
    if (!EnsureWorld()) return;
    std::string verb;
    UserId owner, peer;
    if (!(in >> verb >> owner >> peer) ||
        (verb != "add" && verb != "remove")) {
      std::printf("usage: policy add <owner> <peer> [x1 y1 x2 y2 "
                  "[tstart tend]] | policy remove <owner> <peer>\n");
      return;
    }
    QueryResponse resp;
    if (verb == "add") {
      Lpp policy;
      policy.role = world->catalog()->DefineRole("friend");
      policy.locr = Rect::Space(world->params().space_side);
      policy.tint = TimeOfDayInterval::AllDay(world->params().time_domain);
      double x1, y1, x2, y2;
      if (in >> x1 >> y1 >> x2 >> y2) {
        policy.locr = {{x1, y1}, {x2, y2}};
        double ts, te;
        if (in >> ts >> te) policy.tint = {ts, te};
      }
      resp = svc->Execute(QueryRequest::AddPolicy(
          owner, peer, policy, world->now(), /*reencode_now=*/false));
      if (resp.ok()) {
        std::printf("policy u%u -> u%u granted (pending re-encode; run "
                    "'reencode' to publish)\n", owner, peer);
      }
    } else {
      resp = svc->Execute(QueryRequest::RemovePolicy(
          owner, peer, world->now(), /*reencode_now=*/false));
      if (resp.ok()) {
        std::printf("%zu polic%s u%u -> u%u revoked (visibility gone now; "
                    "'reencode' compacts)\n", resp.removed_policies,
                    resp.removed_policies == 1 ? "y" : "ies", owner, peer);
      }
    }
    if (!resp.ok()) {
      std::printf("error: %s\n", resp.status.ToString().c_str());
    }
  }

  void Role(std::istringstream& in) {
    if (!EnsureWorld()) return;
    std::string verb, name;
    if (!(in >> verb >> name) || verb != "define") {
      std::printf("usage: role define <name>\n");
      return;
    }
    QueryResponse resp = svc->Execute(QueryRequest::DefineRole(name));
    if (!resp.ok()) {
      std::printf("error: %s\n", resp.status.ToString().c_str());
      return;
    }
    std::printf("role '%s' = #%u\n", name.c_str(),
                static_cast<unsigned>(resp.role_id));
  }

  void Reencode() {
    if (!EnsureWorld()) return;
    QueryResponse resp = svc->Execute(QueryRequest::Reencode(world->now()));
    if (!resp.ok()) {
      std::printf("error: %s\n", resp.status.ToString().c_str());
      return;
    }
    PrintReencode(resp);
    SyncInactiveIndexes();
  }

  void Epoch() {
    if (!EnsureWorld()) return;
    std::printf("epoch %llu, %zu user(s) dirty (pending re-encode)\n",
                static_cast<unsigned long long>(world->catalog()->epoch()),
                world->catalog()->dirty_count());
  }

  void Check() {
    if (!EnsureWorld()) return;
    struct Item {
      const char* name;
      Status st;
    };
    std::vector<Item> items;
    items.push_back({"peb-tree ", world->peb().ValidateInvariants()});
    items.push_back({"peb-pool ", world->peb().pool()->ValidateInvariants()});
    items.push_back({"bx-tree  ", world->spatial().tree().ValidateInvariants()});
    items.push_back(
        {"bx-pool  ", world->spatial().tree().pool()->ValidateInvariants()});
    if (eng != nullptr) {
      items.push_back({"engine   ", eng->ValidateInvariants()});
    }
    bool all_ok = true;
    for (const Item& item : items) {
      std::printf("  %s %s\n", item.name,
                  item.st.ok() ? "OK" : item.st.ToString().c_str());
      all_ok = all_ok && item.st.ok();
    }
    std::printf(all_ok ? "all invariants hold\n"
                       : "CORRUPTION DETECTED\n");
  }

  void Telemetry(std::istringstream& in) {
    std::string mode;
    in >> mode;
    if (mode == "json") {
      std::printf("%s\n", registry.SnapshotJson().c_str());
    } else {
      std::printf("%s", registry.PrometheusText().c_str());
    }
  }

  void Trace(std::istringstream& in) {
    if (!EnsureWorld()) return;
    std::string mode;
    if (!(in >> mode) || (mode != "on" && mode != "off")) {
      std::printf("usage: trace on|off\n");
      return;
    }
    trace_every = mode == "on" ? 1 : 0;
    svc->set_trace_sample_every(trace_every);
    std::printf("tracing %s\n", trace_every != 0
                                    ? "on — prq/knn print the span tree"
                                    : "off");
  }

  void Slowlog() {
    if (!EnsureWorld()) return;
    auto entries = svc->SlowQueries();
    if (entries.empty()) {
      std::printf("(slow-query log is empty)\n");
      return;
    }
    for (const auto& e : entries) {
      std::printf("#%llu %s %.2f ms\n%s",
                  static_cast<unsigned long long>(e.sequence),
                  e.trace.name.c_str(), e.total_ms,
                  e.trace.Summary().c_str());
    }
  }

  void Compare(std::istringstream& in) {
    if (!EnsureWorld()) return;
    size_t n = 0;
    if (!(in >> n) || n == 0) {
      std::printf("usage: compare <n>\n");
      return;
    }
    QuerySetOptions q;
    q.count = n;
    q.seed = 1234;
    auto queries = MakePrqQueries(*world, q);
    RunResult peb = RunPrqBatch(world->peb_service(), queries);
    RunResult spatial = RunPrqBatch(world->spatial_service(), queries);
    std::printf("PRQ over %zu queries: PEB %.2f I/O/query vs spatial %.2f "
                "I/O/query (%.1fx)\n", n, peb.avg_io, spatial.avg_io,
                peb.avg_io > 0 ? spatial.avg_io / peb.avg_io : 0.0);
  }

  engine::EngineOptions DurableEngineOptions(const std::string& path) {
    engine::EngineOptions opts;
    opts.num_shards = engine_shards;
    opts.num_threads = engine_threads;
    opts.buffer_pages = world->params().buffer_pages;
    opts.tree = PebOptionsFor(world->params());
    opts.telemetry.registry = &registry;
    opts.durability.path = path;
    return opts;
  }

  /// save <path>: checkpoints the current object states into a durable
  /// file (+ its WAL sidecar) that `open <path>` can bring back cold.
  void Save(std::istringstream& in) {
    if (!EnsureWorld()) return;
    std::string path;
    if (!(in >> path)) {
      std::printf("usage: save <path>\n");
      return;
    }
    // Current states, not the generation-time dataset: streamed updates
    // are part of what gets saved.
    Dataset snapshot = world->dataset();
    PrivacyAwareIndex* index = use_engine && eng != nullptr
                                   ? static_cast<PrivacyAwareIndex*>(eng.get())
                                   : &world->peb();
    for (auto& obj : snapshot.objects) {
      auto cur = index->GetObject(obj.id);
      if (cur.ok()) obj = *cur;
    }
    engine::EngineOptions save_opts = DurableEngineOptions(path);
    // `save <path>` explicitly names its target: replacing a previous save
    // at that path is the expected behavior.
    save_opts.durability.overwrite_existing = true;
    engine::ShardedPebEngine saver(save_opts, &world->store(),
                                   &world->roles(),
                                   world->catalog()->snapshot());
    Status st = saver.durability_status();
    if (st.ok()) st = saver.LoadDataset(snapshot);
    if (st.ok()) st = saver.Checkpoint();
    if (!st.ok()) {
      std::printf("save failed: %s\n", st.ToString().c_str());
      return;
    }
    std::printf("saved %zu users to %s (%zu shard(s); WAL at %s.wal)\n",
                snapshot.objects.size(), path.c_str(), engine_shards,
                path.c_str());
  }

  /// open <path>: recovers a previously saved (or crashed) engine from its
  /// superblock + WAL and makes it the active index.
  void OpenDb(std::istringstream& in) {
    if (!EnsureWorld()) return;
    std::string path;
    if (!(in >> path)) {
      std::printf("usage: open <path>\n");
      return;
    }
    auto opened = engine::ShardedPebEngine::Open(
        DurableEngineOptions(path), &world->store(), &world->roles(),
        world->catalog()->snapshot());
    if (!opened.ok()) {
      std::printf("open failed: %s\n", opened.status().ToString().c_str());
      std::printf("(shard count must match the saved file — currently %zu; "
                  "adjust with 'shards <n>' and retry)\n", engine_shards);
      return;
    }
    eng = std::move(*opened);
    use_engine = true;
    RebindService();
    std::printf("opened %s: %zu users, %zu shard(s); prq/knn now use it, "
                "updates land in its WAL\n", path.c_str(), eng->size(),
                eng->num_shards());
  }

  /// checkpoint: folds the open engine's WAL into the database file.
  void Checkpoint() {
    if (!EnsureWorld()) return;
    if (eng == nullptr || !eng->durable()) {
      std::printf("no durable engine — 'open <path>' first\n");
      return;
    }
    Status st = eng->Checkpoint();
    if (!st.ok()) {
      std::printf("checkpoint failed: %s\n", st.ToString().c_str());
      return;
    }
    std::printf("checkpoint committed (WAL truncated)\n");
  }
};

}  // namespace

int main() {
  Shell shell;
  std::printf("peb_shell — type 'help' for commands\n");
  std::string line;
  while (true) {
    std::printf("peb> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      PrintHelp();
    } else if (cmd == "gen") {
      shell.Gen(in);
    } else if (cmd == "prq") {
      shell.Prq(in);
    } else if (cmd == "knn") {
      shell.Knn(in);
    } else if (cmd == "friends") {
      shell.Friends(in);
    } else if (cmd == "where") {
      shell.Where(in);
    } else if (cmd == "update") {
      shell.Update(in);
    } else if (cmd == "stats") {
      shell.Stats();
    } else if (cmd == "compare") {
      shell.Compare(in);
    } else if (cmd == "shards") {
      shell.Shards(in);
    } else if (cmd == "threads") {
      shell.Threads(in);
    } else if (cmd == "engine") {
      shell.Engine(in);
    } else if (cmd == "watch") {
      shell.Watch(in);
    } else if (cmd == "unwatch") {
      shell.Unwatch(in);
    } else if (cmd == "events") {
      shell.Events();
    } else if (cmd == "policy") {
      shell.Policy(in);
    } else if (cmd == "role") {
      shell.Role(in);
    } else if (cmd == "reencode") {
      shell.Reencode();
    } else if (cmd == "epoch") {
      shell.Epoch();
    } else if (cmd == "check") {
      shell.Check();
    } else if (cmd == "telemetry") {
      shell.Telemetry(in);
    } else if (cmd == "trace") {
      shell.Trace(in);
    } else if (cmd == "slowlog") {
      shell.Slowlog();
    } else if (cmd == "save") {
      shell.Save(in);
    } else if (cmd == "open") {
      shell.OpenDb(in);
    } else if (cmd == "checkpoint") {
      shell.Checkpoint();
    } else {
      std::printf("unknown command '%s' — try 'help'\n", cmd.c_str());
    }
  }
  return 0;
}
