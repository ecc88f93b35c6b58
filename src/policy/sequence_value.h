// Sequence-value assignment (Section 5.1, Figure 5) and the EncodingSnapshot
// that the PEB-tree and its query algorithms consume.
//
// The algorithm:
//  1. For each user, collect the group G(ui) of related users (C > 0).
//  2. Sort users by |G| descending (ties by id, for determinism).
//  3. Walk the sorted list; an unassigned user uk becomes an "anchor" with
//     SV(uk) = SV(u_{k-1}) + δ (the first gets the initial value), and every
//     still-unassigned member uj of G(uk) gets SV(uk) + (1 − C(uk, uj)), so
//     higher compatibility ⇒ closer sequence values.
//
// SV values are reals; the PEB key needs integers, so SvQuantizer maps them
// into a fixed bit budget via fixed-point scaling. Queries use the same
// quantized values, so quantization can only merge neighboring users — it
// never loses query results.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.h"
#include "policy/compatibility.h"
#include "policy/policy_store.h"

namespace peb {

/// Parameters of the assignment (Section 5.1: sv > 1, δ > 1; the worked
/// example uses initial value 2 and δ = 2).
struct SequenceValueOptions {
  double initial_sv = 2.0;
  double delta = 2.0;
};

/// Raw assignment output.
struct SequenceAssignment {
  /// SV per user id (size = num_users).
  std::vector<double> sv;
  /// Users in the order the algorithm processed them (|G| descending).
  std::vector<UserId> order;
  /// Number of users that became anchors (started a new group span).
  size_t num_anchors = 0;
};

/// Runs the Figure-5 algorithm over all users 0..num_users-1.
SequenceAssignment AssignSequenceValues(const PolicyStore& store,
                                        size_t num_users,
                                        const CompatibilityOptions& compat,
                                        const SequenceValueOptions& options = {});

/// Compatibility oracle: C(u1, u2) in [0, 1].
using CompatFn = std::function<double(UserId, UserId)>;

/// Core of the Figure-5 algorithm over an explicit relatedness graph:
/// `groups[u]` must list u's related users (C > 0), and `compat` must be
/// symmetric. Exposed separately so the paper's worked example (Section
/// 5.1) can be checked against given C values.
SequenceAssignment AssignSequenceValuesFromGraph(
    size_t num_users, const std::vector<std::vector<UserId>>& groups,
    const CompatFn& compat, const SequenceValueOptions& options = {});

/// How sequence values are derived from the relatedness graph. The paper
/// lists "new encoding techniques" as future work (Section 8); the BFS
/// strategy is our implementation of that direction.
enum class SequenceStrategy {
  /// Figure 5: anchors in descending |G| order; only an anchor's direct
  /// neighbors receive compatibility-offset values. The paper's default.
  kGroupOrder,
  /// Breadth-first traversal of each connected component from its
  /// highest-degree user: every edge (not just anchor edges) contributes a
  /// compatibility offset, so transitively-related users stay adjacent
  /// instead of being pushed δ apart.
  kBfsTraversal,
};

/// The BFS-encoding counterpart of AssignSequenceValuesFromGraph.
SequenceAssignment AssignSequenceValuesBfsFromGraph(
    size_t num_users, const std::vector<std::vector<UserId>>& groups,
    const CompatFn& compat, const SequenceValueOptions& options = {});

/// Fixed-point quantizer for SV values.
class SvQuantizer {
 public:
  /// `scale` fixed-point steps per SV unit; values clamp into `bits` bits.
  SvQuantizer(double scale, uint32_t bits) : scale_(scale), bits_(bits) {}

  uint32_t bits() const { return bits_; }
  double scale() const { return scale_; }

  uint32_t Quantize(double sv) const {
    if (sv <= 0.0) return 0;
    uint64_t q = static_cast<uint64_t>(sv * scale_ + 0.5);
    uint64_t max = (1ull << bits_) - 1;
    return static_cast<uint32_t>(q > max ? max : q);
  }

 private:
  double scale_;
  uint32_t bits_;
};

/// A friend-list entry: a user who has at least one policy toward the list
/// owner, with their sequence value.
struct FriendEntry {
  UserId uid = kInvalidUserId;
  double sv = 0.0;
  uint32_t qsv = 0;  ///< Quantized sv.
};

/// Everything policy-related an index needs at query and insert time:
/// per-user sequence values (raw + quantized) and per-user friend lists
/// sorted by ascending SV — stamped with an **epoch**.
///
/// An EncodingSnapshot is immutable once published. The online policy
/// lifecycle (policy/policy_catalog.h) derives new snapshots from old ones
/// (epoch + 1) when policies change; indexes, engines, and monitors hold a
/// `std::shared_ptr<const EncodingSnapshot>` and swap it atomically with
/// the re-keying of affected users, so any in-flight query sees exactly one
/// (encoding, index-keys) epoch. Per-user friend lists are internally
/// shared between snapshots (copy-on-write), which keeps deriving a new
/// epoch O(affected users), not O(total policies).
class EncodingSnapshot {
 public:
  /// Runs policy comparison + sequence-value assignment + quantization +
  /// friend-list construction, producing the epoch-0 snapshot. This is the
  /// offline preprocessing whose cost Figure 11 reports.
  static EncodingSnapshot Build(const PolicyStore& store, size_t num_users,
                                const CompatibilityOptions& compat,
                                const SequenceValueOptions& sv_options,
                                const SvQuantizer& quantizer,
                                SequenceStrategy strategy =
                                    SequenceStrategy::kGroupOrder);

  /// Monotonic version of the policy encoding (0 = initial build). An
  /// index's stored keys are always consistent with exactly one epoch.
  uint64_t epoch() const { return epoch_; }

  size_t num_users() const { return sv_.size(); }
  double sv(UserId u) const { return sv_[u]; }
  uint32_t quantized_sv(UserId u) const { return qsv_[u]; }
  const SvQuantizer& quantizer() const { return quantizer_; }
  /// The initial (epoch-0) build's raw assignment, for shape statistics.
  const SequenceAssignment& assignment() const { return assignment_; }

  /// Users with a policy toward `u`, ascending by (qsv, uid). These are the
  /// candidates any privacy-aware query issued by `u` can ever return.
  const std::vector<FriendEntry>& FriendsOf(UserId u) const {
    return *friends_[u];
  }

 private:
  friend class PolicyCatalog;  // Derives epoch+1 snapshots copy-on-write.

  using FriendList = std::shared_ptr<const std::vector<FriendEntry>>;

  explicit EncodingSnapshot(SvQuantizer q) : quantizer_(q) {}

  uint64_t epoch_ = 0;
  SvQuantizer quantizer_;
  SequenceAssignment assignment_;
  std::vector<double> sv_;
  std::vector<uint32_t> qsv_;
  /// Per-user friend lists, shared across derived snapshots (never null).
  std::vector<FriendList> friends_;
};

}  // namespace peb
