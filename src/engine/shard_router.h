// Shard routing: which of the engine's N PEB-tree shards owns a user.
//
// Users hash to shards: a stateless, well-mixed hash of the user id spreads
// load evenly regardless of the policy corpus, and every query fans out to
// every shard that hosts at least one of the issuer's friends.
//
// Routing must be stable for the lifetime of a database: a user's shard is
// where their record lives, so updates, queries and a reopened engine must
// agree on it. The function below is therefore part of the on-disk format.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace peb {
namespace engine {

/// The shard in [0, num_shards) that owns `uid`: the splitmix64 finalizer
/// of the id (cheap, well-mixed bits even for sequential ids) modulo the
/// shard count.
inline size_t ShardOf(UserId uid, size_t num_shards) {
  uint64_t z = static_cast<uint64_t>(uid) + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<size_t>((z ^ (z >> 31)) % num_shards);
}

}  // namespace engine
}  // namespace peb
