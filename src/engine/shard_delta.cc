#include "engine/shard_delta.h"

#include <algorithm>

namespace peb {
namespace engine {

void ShardDelta::Append(const MovingObject& state, bool tombstone,
                        uint64_t seq, int effect) {
  MutexLock lock(&mu_);
  Record rec;
  rec.state = state;
  rec.seq = seq;
  rec.tombstone = tombstone;
  log_[state.id].push_back(rec);
  if (effect != 0) {
    // A batch shares one seq: its effects fold into one entry.
    if (effects_.empty() || effects_.back().first != seq) {
      effects_.emplace_back(seq, 0);
    }
    effects_.back().second += effect;
    effect_total_ += effect;
  }
  records_.fetch_add(1, std::memory_order_relaxed);
  appended_total_.fetch_add(1, std::memory_order_relaxed);
}

const ShardDelta::Record* ShardDelta::LatestIn(const std::vector<Record>& log,
                                               uint64_t watermark) {
  // Logs ascend by seq, and the visible prefix is usually the whole log —
  // scan from the back.
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    if (it->seq <= watermark) return &*it;
  }
  return nullptr;
}

bool ShardDelta::LatestVisible(UserId uid, uint64_t watermark,
                               Record* out) const {
  MutexLock lock(&mu_);
  auto it = log_.find(uid);
  if (it == log_.end()) return false;
  const Record* latest = LatestIn(it->second, watermark);
  if (latest == nullptr) return false;
  *out = *latest;
  return true;
}

int64_t ShardDelta::EffectUpTo(uint64_t watermark) const {
  MutexLock lock(&mu_);
  int64_t sum = effect_total_;
  for (auto it = effects_.rbegin();
       it != effects_.rend() && it->first > watermark; ++it) {
    sum -= it->second;
  }
  return sum;
}

std::vector<std::pair<UserId, ShardDelta::Record>> ShardDelta::DrainUpTo(
    uint64_t bound) {
  MutexLock lock(&mu_);
  auto first_kept = effects_.begin();
  while (first_kept != effects_.end() && first_kept->first <= bound) {
    effect_total_ -= first_kept->second;
    ++first_kept;
  }
  effects_.erase(effects_.begin(), first_kept);
  std::vector<std::pair<UserId, Record>> drained;
  size_t removed = 0;
  for (auto it = log_.begin(); it != log_.end();) {
    std::vector<Record>& log = it->second;
    // The drained records are a prefix (logs ascend by seq).
    size_t keep_from = 0;
    while (keep_from < log.size() && log[keep_from].seq <= bound) {
      ++keep_from;
    }
    if (keep_from == 0) {
      ++it;
      continue;
    }
    drained.emplace_back(it->first, log[keep_from - 1]);
    removed += keep_from;
    if (keep_from == log.size()) {
      it = log_.erase(it);
    } else {
      log.erase(log.begin(), log.begin() + static_cast<ptrdiff_t>(keep_from));
      ++it;
    }
  }
  records_.fetch_sub(removed, std::memory_order_relaxed);
  std::sort(drained.begin(), drained.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return drained;
}

}  // namespace engine
}  // namespace peb
