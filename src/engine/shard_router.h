// Shard routing: which of the engine's N PEB-tree shards owns a user.
//
// Two pluggable policies:
//  * kHashUser — a stateless multiplicative hash of the user id. Spreads
//    load evenly regardless of the policy corpus; every query fans out to
//    every shard that hosts at least one of the issuer's friends.
//  * kSvRange — contiguous quantized-sequence-value ranges with roughly
//    equal user counts. Because the PEB-tree clusters policy-compatible
//    users at nearby SVs (Section 5.1), an issuer's friends concentrate in
//    few shards, so queries touch fewer shards. This is the velocity-
//    partitioning idea ("Boosting Moving Object Indexing through Velocity
//    Partitioning") applied to the policy dimension instead of velocity.
//
// Routing must be stable for the lifetime of an engine: a user's shard is
// where their record lives, so updates and queries must agree on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"
#include "policy/sequence_value.h"

namespace peb {
namespace engine {

/// Selects the shard-assignment policy.
enum class RouterPolicy {
  kHashUser,
  kSvRange,
};

/// Maps users to shards [0, num_shards).
class ShardRouter {
 public:
  virtual ~ShardRouter() = default;

  virtual size_t ShardOf(UserId uid) const = 0;
  virtual std::string_view name() const = 0;

  size_t num_shards() const { return num_shards_; }

 protected:
  explicit ShardRouter(size_t num_shards) : num_shards_(num_shards) {}

  size_t num_shards_;
};

/// Stateless hash-by-user routing.
class HashUserRouter final : public ShardRouter {
 public:
  explicit HashUserRouter(size_t num_shards) : ShardRouter(num_shards) {}

  size_t ShardOf(UserId uid) const override;
  std::string_view name() const override { return "hash-user"; }
};

/// Quantized-SV range routing. Built from the policy encoding: users are
/// cut into num_shards contiguous qsv ranges of roughly equal population.
/// Users sharing a quantized SV always land in the same shard (the cuts
/// are value boundaries, not rank boundaries).
///
/// The router PINS the snapshot it was built from: routing must stay
/// stable for the engine's lifetime (a user's record lives in their home
/// shard), so later epochs never move users between shards — a re-keyed
/// user changes position within their shard only. Under heavy policy
/// churn the SV locality of the original cut decays; rebalancing routers
/// online is a ROADMAP follow-on.
class SvRangeRouter final : public ShardRouter {
 public:
  SvRangeRouter(size_t num_shards,
                std::shared_ptr<const EncodingSnapshot> snapshot);

  size_t ShardOf(UserId uid) const override;
  std::string_view name() const override { return "sv-range"; }

  /// Inclusive qsv upper bound of each shard but the last (ascending).
  const std::vector<uint32_t>& upper_bounds() const { return upper_; }

 private:
  /// The epoch the cuts were computed from (pinned; see class comment).
  std::shared_ptr<const EncodingSnapshot> snapshot_;
  std::vector<uint32_t> upper_;
};

/// Router factory. A snapshot is required for kSvRange; the router pins it.
std::unique_ptr<ShardRouter> MakeRouter(
    RouterPolicy policy, size_t num_shards,
    std::shared_ptr<const EncodingSnapshot> snapshot);

}  // namespace engine
}  // namespace peb
