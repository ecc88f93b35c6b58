#include "peb/continuous.h"

#include <algorithm>

namespace peb {

ContinuousQueryMonitor::ContinuousQueryMonitor(
    PrivacyAwareIndex* index, const PolicyStore* store,
    const RoleRegistry* roles,
    std::shared_ptr<const EncodingSnapshot> snapshot, double time_domain)
    : index_(index),
      store_(store),
      roles_(roles),
      snapshot_(std::move(snapshot)),
      time_domain_(time_domain) {}

bool ContinuousQueryMonitor::Qualifies(const RegisteredQuery& q, UserId uid,
                                       const Point& pos,
                                       Timestamp now) const {
  return q.range.Contains(pos) &&
         store_->Qualifies(uid, q.issuer, pos, now, *roles_, time_domain_);
}

void ContinuousQueryMonitor::SetMembership(ContinuousQueryId id,
                                           RegisteredQuery& q, UserId uid,
                                           bool in_result, Timestamp now) {
  bool was_member = q.members.contains(uid);
  if (in_result == was_member) return;
  if (in_result) {
    q.members.insert(uid);
  } else {
    q.members.erase(uid);
  }
  events_.push_back({id, uid, in_result, now});
}

Result<ContinuousQueryId> ContinuousQueryMonitor::Register(UserId issuer,
                                                           const Rect& range,
                                                           Timestamp now,
                                                           QueryStats* stats) {
  PEB_RETURN_NOT_OK(ValidateQueryRect(range));
  if (issuer >= snapshot_->num_users()) {
    return UnknownIssuerError(issuer);
  }
  RegisteredQuery q;
  q.issuer = issuer;
  q.range = range;

  // Seed with a one-shot index query (no events for the initial members).
  PEB_ASSIGN_OR_RETURN(
      std::vector<UserId> seed,
      index_->RangeQueryWithStats(issuer, range, now, stats));
  q.members.insert(seed.begin(), seed.end());

  ContinuousQueryId id = next_id_++;
  for (const FriendEntry& f : snapshot_->FriendsOf(issuer)) {
    watchers_[f.uid].push_back(id);
  }
  queries_.emplace(id, std::move(q));
  return id;
}

Status ContinuousQueryMonitor::Unregister(ContinuousQueryId id) {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("continuous query " + std::to_string(id));
  }
  for (const FriendEntry& f : snapshot_->FriendsOf(it->second.issuer)) {
    auto w = watchers_.find(f.uid);
    if (w == watchers_.end()) continue;
    auto& list = w->second;
    list.erase(std::remove(list.begin(), list.end(), id), list.end());
    if (list.empty()) watchers_.erase(w);
  }
  queries_.erase(it);
  return Status::OK();
}

Status ContinuousQueryMonitor::OnUpdate(const MovingObject& state,
                                        Timestamp now) {
  auto w = watchers_.find(state.id);
  if (w == watchers_.end()) return Status::OK();
  Point pos = state.PositionAt(now);
  for (ContinuousQueryId id : w->second) {
    auto q = queries_.find(id);
    if (q == queries_.end()) continue;
    SetMembership(id, q->second, state.id,
                  Qualifies(q->second, state.id, pos, now), now);
  }
  return Status::OK();
}

void ContinuousQueryMonitor::ReevaluateQuery(ContinuousQueryId id,
                                             RegisteredQuery& q,
                                             Timestamp now) {
  // Members no longer on the friend list can never re-qualify (the list is
  // the universe of possible answers): emit their departure explicitly,
  // since the friend loop below will not visit them.
  const std::vector<FriendEntry>& friends = snapshot_->FriendsOf(q.issuer);
  std::unordered_set<UserId> friend_set;
  friend_set.reserve(friends.size());
  for (const FriendEntry& f : friends) friend_set.insert(f.uid);
  std::vector<UserId> gone;
  for (UserId m : q.members) {
    if (!friend_set.contains(m)) gone.push_back(m);
  }
  // Ascending departures: event order must not depend on set iteration
  // order (1-shard and N-shard instances emit identical streams).
  std::sort(gone.begin(), gone.end());
  for (UserId m : gone) SetMembership(id, q, m, false, now);

  for (const FriendEntry& f : friends) {
    auto state = index_->GetObject(f.uid);
    if (!state.ok()) {
      // Friend not currently indexed: cannot be in any answer.
      SetMembership(id, q, f.uid, false, now);
      continue;
    }
    SetMembership(id, q, f.uid,
                  Qualifies(q, f.uid, state->PositionAt(now), now), now);
  }
}

Status ContinuousQueryMonitor::Advance(Timestamp now) {
  // Ascending query id: deterministic event order across instances.
  std::vector<ContinuousQueryId> ids;
  ids.reserve(queries_.size());
  for (const auto& [id, q] : queries_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (ContinuousQueryId id : ids) {
    ReevaluateQuery(id, queries_.at(id), now);
  }
  return Status::OK();
}

Status ContinuousQueryMonitor::AdoptSnapshot(
    std::shared_ptr<const EncodingSnapshot> snapshot, Timestamp now) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("cannot adopt a null encoding snapshot");
  }
  snapshot_ = std::move(snapshot);
  // Watcher lists follow the new friend lists so OnUpdate keeps touching
  // exactly the affected queries.
  watchers_.clear();
  for (auto& [id, q] : queries_) {
    for (const FriendEntry& f : snapshot_->FriendsOf(q.issuer)) {
      watchers_[f.uid].push_back(id);
    }
  }
  // Re-evaluate memberships under the new epoch: revoked policies leave,
  // fresh grants may enter.
  return Advance(now);
}

Result<std::vector<UserId>> ContinuousQueryMonitor::ResultOf(
    ContinuousQueryId id) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("continuous query " + std::to_string(id));
  }
  std::vector<UserId> out(it->second.members.begin(),
                          it->second.members.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ContinuousQueryEvent> ContinuousQueryMonitor::TakeEvents() {
  std::vector<ContinuousQueryEvent> out;
  out.swap(events_);
  return out;
}

}  // namespace peb
