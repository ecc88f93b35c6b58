#include "bxtree/filtering_index.h"

#include <algorithm>

#include "telemetry/trace.h"

namespace peb {

Result<std::vector<UserId>> FilteringIndex::RangeQueryWithStats(
    UserId issuer, const Rect& range, Timestamp tq, QueryStats* stats) {
  PEB_RETURN_NOT_OK(ValidateQueryRect(range));
  PEB_RETURN_NOT_OK(ValidateIssuer(issuer));
  size_t span = telemetry::TraceScope::Open(stats, "bx-tree prq");
  BufferPool::ThreadIoScope io_scope(stats == nullptr ? nullptr
                                                      : &stats->io);
  QueryCounters counters;
  PEB_ASSIGN_OR_RETURN(auto candidates,
                       tree_.RangeQuery(range, tq, &counters));
  std::vector<UserId> out;
  for (const SpatialCandidate& cand : candidates) {
    if (Qualifies(issuer, cand, tq)) out.push_back(cand.uid);
  }
  std::sort(out.begin(), out.end());
  if (stats != nullptr) {
    stats->counters = counters;
    stats->counters.results = out.size();
    stats->epoch = encoding_epoch();
    telemetry::TraceScope::Close(stats, span, stats->counters, stats->io);
  }
  return out;
}

Result<std::vector<Neighbor>> FilteringIndex::KnnQueryWithStats(
    UserId issuer, const Point& qloc, size_t k, Timestamp tq,
    QueryStats* stats) {
  PEB_RETURN_NOT_OK(ValidateQueryK(k));
  PEB_RETURN_NOT_OK(ValidateIssuer(issuer));
  size_t span = telemetry::TraceScope::Open(stats, "bx-tree pknn");
  BufferPool::ThreadIoScope io_scope(stats == nullptr ? nullptr
                                                      : &stats->io);
  struct AcceptCtx {
    const FilteringIndex* self;
    UserId issuer;
    Timestamp tq;
  } ctx{this, issuer, tq};
  auto accept = [](void* raw, const SpatialCandidate& cand) {
    const auto* c = static_cast<const AcceptCtx*>(raw);
    return c->self->Qualifies(c->issuer, cand, c->tq);
  };
  QueryCounters counters;
  auto result = tree_.KnnQuery(qloc, k, tq, accept, &ctx, &counters);
  if (stats != nullptr) {
    stats->counters = counters;
    stats->epoch = encoding_epoch();
    telemetry::TraceScope::Close(stats, span, stats->counters, stats->io);
  }
  return result;
}

}  // namespace peb
