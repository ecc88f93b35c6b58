#include "bxtree/moving_object_tree.h"

#include <cmath>
#include <string>

namespace peb {

MovingObjectTree::MovingObjectTree(BufferPool* pool,
                                   const MovingIndexOptions& options)
    : pool_(pool),
      options_(options),
      grid_(options.space_side, options.grid_bits),
      btree_(pool) {}

MovingObject MovingObjectTree::StateOf(UserId uid,
                                       const ObjectRecord& record) {
  MovingObject state;
  state.id = uid;
  state.pos = {record.x, record.y};
  state.vel = {record.vx, record.vy};
  state.tu = record.tu;
  return state;
}

Status MovingObjectTree::Insert(const MovingObject& object, uint64_t key) {
  if (objects_.contains(object.id)) {
    return Status::AlreadyExists("object " + std::to_string(object.id) +
                                 " already indexed");
  }
  ObjectRecord rec;
  rec.x = object.pos.x;
  rec.y = object.pos.y;
  rec.vx = object.vel.x;
  rec.vy = object.vel.y;
  rec.tu = object.tu;
  rec.pntp = object.id;
  PEB_RETURN_NOT_OK(btree_.Insert({key, object.id}, rec));
  int64_t label = options_.partitions.LabelIndexFor(object.tu);
  objects_.emplace(object.id, StoredObject{object, label, key});
  label_counts_[label]++;
  return Status::OK();
}

Status MovingObjectTree::Delete(UserId id) {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("object " + std::to_string(id));
  }
  PEB_RETURN_NOT_OK(btree_.Delete({it->second.key, id}));
  auto lc = label_counts_.find(it->second.label);
  if (--lc->second == 0) label_counts_.erase(lc);
  objects_.erase(it);
  return Status::OK();
}

Result<MovingObject> MovingObjectTree::Get(UserId id) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("object " + std::to_string(id));
  }
  return it->second.state;
}

std::vector<LiveLabel> MovingObjectTree::LiveLabels(Timestamp tq) const {
  std::vector<LiveLabel> live;
  live.reserve(label_counts_.size());
  for (const auto& [label, count] : label_counts_) {
    Timestamp tlab = options_.partitions.LabelTimestamp(label);
    live.push_back({label, options_.partitions.PartitionOf(label),
                    options_.max_speed * std::abs(tq - tlab)});
  }
  return live;
}

Status MovingObjectTree::Attach(PageId root, const BTreeStats& stats) {
  if (!objects_.empty()) {
    return Status::InvalidArgument("Attach requires an empty index");
  }
  PEB_RETURN_NOT_OK(btree_.Attach(root, stats));
  // One descent to the smallest key, then the leaf chain.
  ObjectBTree::LeafCursor cursor = btree_.NewCursor();
  PEB_RETURN_NOT_OK(cursor.SeekGE(CompositeKey{}));
  while (cursor.Valid()) {
    CompositeKey key = cursor.key();
    if (objects_.contains(key.uid)) {
      objects_.clear();
      label_counts_.clear();
      return Status::Corruption("duplicate uid " + std::to_string(key.uid) +
                                " in persisted index");
    }
    MovingObject state = StateOf(key.uid, cursor.value());
    int64_t label = options_.partitions.LabelIndexFor(state.tu);
    objects_.emplace(key.uid, StoredObject{state, label, key.primary});
    label_counts_[label]++;
    PEB_RETURN_NOT_OK(cursor.Next());
  }
  return Status::OK();
}

Status MovingObjectTree::Validate(
    const std::function<uint64_t(const MovingObject&)>& key_for) const {
  // Layer 1: the B+-tree's own structural walk.
  PEB_RETURN_NOT_OK(btree_.Validate());

  // Layer 2: tree <-> object-table correspondence.
  if (btree_.stats().num_entries != objects_.size()) {
    return Status::Corruption(
        "tree holds " + std::to_string(btree_.stats().num_entries) +
        " entries but the object table holds " +
        std::to_string(objects_.size()));
  }
  std::unordered_map<int64_t, size_t> recount;
  for (const auto& [uid, stored] : objects_) {
    if (stored.state.id != uid) {
      return Status::Corruption("object table slot " + std::to_string(uid) +
                                " holds state of user " +
                                std::to_string(stored.state.id));
    }
    // Layer 3: every key re-derives from the state (under the PEB-tree's
    // pinned snapshot, a missed re-key after adoption shows up here).
    const uint64_t expect = key_for(stored.state);
    if (stored.key != expect) {
      return Status::Corruption("user " + std::to_string(uid) +
                                " stored under key " +
                                std::to_string(stored.key) +
                                " but its state derives key " +
                                std::to_string(expect));
    }
    const int64_t label = options_.partitions.LabelIndexFor(stored.state.tu);
    if (stored.label != label) {
      return Status::Corruption(
          "user " + std::to_string(uid) + " carries label index " +
          std::to_string(stored.label) + " but tu derives " +
          std::to_string(label));
    }
    recount[label]++;
    Result<ObjectRecord> rec = btree_.Lookup({stored.key, uid});
    if (!rec.ok()) {
      return Status::Corruption("user " + std::to_string(uid) +
                                " unreachable under its composite key: " +
                                rec.status().ToString());
    }
    if (rec->x != stored.state.pos.x || rec->y != stored.state.pos.y ||
        rec->vx != stored.state.vel.x || rec->vy != stored.state.vel.y ||
        rec->tu != stored.state.tu) {
      return Status::Corruption("user " + std::to_string(uid) +
                                ": leaf payload disagrees with the object "
                                "table");
    }
  }
  // Layer 4: the per-label population every query enumerates is exact.
  if (recount != label_counts_) {
    return Status::Corruption("label population histogram drifted (" +
                              std::to_string(label_counts_.size()) +
                              " labels tracked, " +
                              std::to_string(recount.size()) + " live)");
  }
  return Status::OK();
}

}  // namespace peb
