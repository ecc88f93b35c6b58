// PolicyStore: all users' location-privacy policies, as held by the service
// provider ("we assume ... the server has access to all users' privacy
// policies", Section 3).
//
// Directed storage: policies_[owner -> peer] is the list of LPPs `owner`
// defined for `peer`. The reverse index (who has a policy *toward* me)
// backs the per-user friend lists the query algorithms need (Section 5.3:
// "we maintain a list for each user that stores the SV values of users who
// have policies with respect to the list owner").
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "policy/lpp.h"
#include "policy/role_registry.h"

namespace peb {

class PolicyStore {
 public:
  /// Adds a policy `owner` defines for `peer`. Multiple policies per pair
  /// are supported (the paper's future-work extension).
  void Add(UserId owner, UserId peer, const Lpp& policy);

  /// Removes all policies from `owner` toward `peer`. Returns how many were
  /// removed.
  size_t RemoveAll(UserId owner, UserId peer);

  /// Policies `owner` defined for `peer` (empty when none).
  std::span<const Lpp> Get(UserId owner, UserId peer) const;

  /// Users for whom `owner` has defined at least one policy (outgoing).
  std::span<const UserId> PeersOf(UserId owner) const;

  /// Users who have defined at least one policy toward `peer` (incoming) —
  /// the raw friend list of `peer`.
  std::span<const UserId> OwnersToward(UserId peer) const;

  /// Total number of stored policies.
  size_t num_policies() const { return num_policies_; }

  /// Number of outgoing policies of `owner` (the paper's per-user Np).
  size_t NumPoliciesOf(UserId owner) const;

  /// Evaluates whether `owner`'s policies allow `issuer` to see `owner` at
  /// position `pos` and absolute time `t` (Definition 2's conditions
  /// qID ∈ role, (x,y) ∈ locr, tq ∈ tint).
  bool Allows(UserId owner, UserId issuer, const Point& pos, double t,
              const RoleRegistry& roles,
              double time_domain = kDefaultTimeDomain) const;

  /// Definition 2's verification predicate: user `uid`, at position `pos`
  /// at time `t`, belongs in `issuer`'s answer when it is not the issuer
  /// and its policies allow the issuer to see it there and then. Every
  /// query path decides with this one function — the PEB-tree's scans, the
  /// sharded engine's delta overlay, the filtering baseline and standing
  /// queries — so no answer depends on which path located the user.
  bool Qualifies(UserId uid, UserId issuer, const Point& pos, double t,
                 const RoleRegistry& roles, double time_domain) const {
    return uid != issuer && Allows(uid, issuer, pos, t, roles, time_domain);
  }

 private:
  /// Guarded 64-bit packing of the (owner, peer) pair (common/types.h).
  static uint64_t PairKey(UserId owner, UserId peer) {
    return UserPairKey(owner, peer);
  }

  std::unordered_map<uint64_t, std::vector<Lpp>> policies_;
  std::unordered_map<UserId, std::vector<UserId>> outgoing_;
  std::unordered_map<UserId, std::vector<UserId>> incoming_;
  size_t num_policies_ = 0;
};

}  // namespace peb
