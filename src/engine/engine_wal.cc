#include "engine/engine_wal.h"

#include <cstring>

namespace peb::engine_wal {

namespace {

template <typename T>
void Put(std::string* out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool Get(const std::string& in, size_t* off, T* v) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (*off + sizeof(T) > in.size()) return false;
  std::memcpy(v, in.data() + *off, sizeof(T));
  *off += sizeof(T);
  return true;
}

Status Truncated(const char* what) {
  return Status::Corruption(std::string("truncated WAL payload: ") + what);
}

// Fixed encoded sizes of the counted records. A decoder checks a count read
// from disk against the bytes left BEFORE reserving for it: the count is
// untrusted, and reserve(count) on garbage would throw bad_alloc.
constexpr size_t kEventBytes = 1 + 4 + 5 * 8;  // kind, id, pos, vel, tu.
constexpr size_t kShardManifestBytes = 4 + 4 * 8;  // root, four stats.
constexpr size_t kFreeListIdBytes = 4;

bool CountFits(const std::string& in, size_t off, uint32_t count,
               size_t record_bytes) {
  return count <= (in.size() - off) / record_bytes;
}

}  // namespace

std::string EncodeEvents(const std::vector<LoggedOp>& ops) {
  std::string out;
  out.reserve(4 + ops.size() * kEventBytes);
  Put<uint32_t>(&out, static_cast<uint32_t>(ops.size()));
  for (const LoggedOp& op : ops) {
    Put<uint8_t>(&out, op.kind);
    Put<uint32_t>(&out, op.state.id);
    Put<double>(&out, op.state.pos.x);
    Put<double>(&out, op.state.pos.y);
    Put<double>(&out, op.state.vel.x);
    Put<double>(&out, op.state.vel.y);
    Put<double>(&out, op.state.tu);
  }
  return out;
}

Status DecodeEvents(const std::string& payload, std::vector<LoggedOp>* out) {
  size_t off = 0;
  uint32_t count = 0;
  if (!Get(payload, &off, &count)) return Truncated("event count");
  if (!CountFits(payload, off, count, kEventBytes)) {
    return Truncated("event count exceeds payload");
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    LoggedOp op;
    uint8_t kind = 0;
    if (!Get(payload, &off, &kind) || !Get(payload, &off, &op.state.id) ||
        !Get(payload, &off, &op.state.pos.x) ||
        !Get(payload, &off, &op.state.pos.y) ||
        !Get(payload, &off, &op.state.vel.x) ||
        !Get(payload, &off, &op.state.vel.y) ||
        !Get(payload, &off, &op.state.tu)) {
      return Truncated("event");
    }
    if (kind > LoggedOp::kDelete) {
      return Status::Corruption("unknown logged-op kind " +
                                std::to_string(kind));
    }
    op.kind = static_cast<LoggedOp::Kind>(kind);
    out->push_back(op);
  }
  if (off != payload.size()) return Truncated("trailing event bytes");
  return Status::OK();
}

std::string EncodeRekey(uint64_t epoch) {
  std::string out;
  Put<uint64_t>(&out, epoch);
  return out;
}

Status DecodeRekey(const std::string& payload, uint64_t* epoch) {
  size_t off = 0;
  if (!Get(payload, &off, epoch) || off != payload.size()) {
    return Truncated("rekey epoch");
  }
  return Status::OK();
}

std::string EncodePageImage(PageId id, const Page& page) {
  std::string out;
  out.reserve(4 + kPageSize);
  Put<uint32_t>(&out, id);
  out.append(reinterpret_cast<const char*>(page.data()), kPageSize);
  return out;
}

Status DecodePageImage(const std::string& payload, PageId* id, Page* page) {
  if (payload.size() != 4 + kPageSize) return Truncated("page image");
  size_t off = 0;
  Get(payload, &off, id);
  std::memcpy(page->data(), payload.data() + 4, kPageSize);
  return Status::OK();
}

std::string EncodeManifest(const EngineManifest& manifest) {
  std::string out;
  Put<uint64_t>(&out, manifest.epoch);
  Put<uint32_t>(&out, static_cast<uint32_t>(manifest.shards.size()));
  for (const PebTreeManifest& m : manifest.shards) {
    Put<uint32_t>(&out, m.root);
    Put<uint64_t>(&out, static_cast<uint64_t>(m.stats.num_entries));
    Put<uint64_t>(&out, static_cast<uint64_t>(m.stats.num_leaves));
    Put<uint64_t>(&out, static_cast<uint64_t>(m.stats.num_internals));
    Put<uint64_t>(&out, static_cast<uint64_t>(m.stats.height));
  }
  return out;
}

Status DecodeManifest(const std::string& payload, EngineManifest* out) {
  size_t off = 0;
  uint32_t count = 0;
  if (!Get(payload, &off, &out->epoch) || !Get(payload, &off, &count)) {
    return Truncated("manifest header");
  }
  if (!CountFits(payload, off, count, kShardManifestBytes)) {
    return Truncated("shard count exceeds payload");
  }
  out->shards.clear();
  out->shards.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    PebTreeManifest m;
    uint64_t entries = 0, leaves = 0, internals = 0, height = 0;
    if (!Get(payload, &off, &m.root) || !Get(payload, &off, &entries) ||
        !Get(payload, &off, &leaves) || !Get(payload, &off, &internals) ||
        !Get(payload, &off, &height)) {
      return Truncated("shard manifest");
    }
    m.stats.num_entries = static_cast<size_t>(entries);
    m.stats.num_leaves = static_cast<size_t>(leaves);
    m.stats.num_internals = static_cast<size_t>(internals);
    m.stats.height = static_cast<size_t>(height);
    out->shards.push_back(m);
  }
  if (off != payload.size()) return Truncated("trailing manifest bytes");
  return Status::OK();
}

std::string EncodeCheckpoint(const CheckpointRecord& record) {
  std::string out;
  Put<uint32_t>(&out, record.next_page);
  Put<uint32_t>(&out, static_cast<uint32_t>(record.free_list.size()));
  for (PageId id : record.free_list) Put<uint32_t>(&out, id);
  Put<uint32_t>(&out, static_cast<uint32_t>(record.manifest.size()));
  out.append(record.manifest);
  return out;
}

Status DecodeCheckpoint(const std::string& payload, CheckpointRecord* out) {
  size_t off = 0;
  uint32_t free_count = 0, manifest_len = 0;
  if (!Get(payload, &off, &out->next_page) ||
      !Get(payload, &off, &free_count)) {
    return Truncated("checkpoint header");
  }
  if (!CountFits(payload, off, free_count, kFreeListIdBytes)) {
    return Truncated("free-list count exceeds payload");
  }
  out->free_list.clear();
  out->free_list.reserve(free_count);
  for (uint32_t i = 0; i < free_count; ++i) {
    PageId id = 0;
    if (!Get(payload, &off, &id)) return Truncated("checkpoint free list");
    out->free_list.push_back(id);
  }
  if (!Get(payload, &off, &manifest_len) ||
      off + manifest_len != payload.size()) {
    return Truncated("checkpoint manifest");
  }
  out->manifest.assign(payload, off, manifest_len);
  return Status::OK();
}

}  // namespace peb::engine_wal
