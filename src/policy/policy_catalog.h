// PolicyCatalog — the online policy lifecycle.
//
// The paper treats policy translation and sequence-value assignment
// (Section 5.1, Figure 5) as one-shot preprocessing and defers dynamic
// policies to future work (Section 8). The catalog lifts that freeze: it
// owns the live PolicyStore and RoleRegistry plus the current immutable
// EncodingSnapshot, accepts policy/role mutations at runtime, and derives
// new snapshots **incrementally**:
//
//  * Mutations (AddPolicy / RemovePolicies) accumulate a dirty-set of
//    directly touched users.
//  * Reencode() walks the relatedness graph (C > 0 edges) outward from the
//    dirty users, collecting the affected connected components, and re-runs
//    the configured assignment strategy (Figure-5 group order or BFS) on
//    exactly that subgraph. The sub-assignment is placed in fresh sequence-
//    value space above every existing value, so untouched users keep their
//    SVs verbatim — the component's values are exactly what a full Figure-5
//    run over the subgraph would produce, translated by the fresh base
//    (the algorithm is translation-invariant).
//  * A new snapshot (epoch + 1) is published copy-on-write: sv/qsv arrays
//    are patched for affected users only, and friend lists are rebuilt only
//    for users whose incoming edges or incoming SVs changed; all other
//    per-user lists are shared with the previous snapshot.
//
// The Reencode result also names the users whose *quantized* SV changed —
// the only users whose PEB keys move — so the index layer re-keys the
// affected component instead of rebuilding the population.
//
// Thread-safety: all methods are serialized on an internal mutex, so the
// catalog itself is safe to mutate from any thread. The live store/roles,
// however, are also read by query verification inside the indexes — the
// service layer runs catalog mutations under the index's exclusive lock
// (queries hold it shared) so verification never races a mutation. Callers
// bypassing the service must provide that exclusion themselves.
//
// Visibility semantics between a mutation and the next Reencode(): a
// REMOVED policy stops granting visibility immediately (verification reads
// the live store, so revocation is instant — the privacy-safe direction),
// while an ADDED policy only starts producing query results once the next
// snapshot is published (the owner enters the peer's friend list at that
// epoch). Reencode-on-mutation (the service's default) closes the window.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "common/types.h"
#include "policy/compatibility.h"
#include "policy/policy_store.h"
#include "policy/role_registry.h"
#include "policy/sequence_value.h"

namespace peb {

/// Catalog configuration: the population and the encoding knobs (the same
/// parameters EncodingSnapshot::Build takes).
struct CatalogOptions {
  size_t num_users = 0;
  CompatibilityOptions compat;
  SequenceValueOptions sv;
  double sv_scale = 64.0;  ///< Fixed-point steps per SV unit.
  uint32_t sv_bits = 26;   ///< Quantizer bit budget.
  SequenceStrategy strategy = SequenceStrategy::kGroupOrder;
};

/// What one Reencode() did — the per-mutation observability the service
/// forwards in mutation responses and bench_policy_churn aggregates.
struct ReencodeStats {
  uint64_t epoch = 0;          ///< Epoch of the published snapshot.
  size_t dirty_users = 0;      ///< Direct endpoints of the mutations.
  size_t component_users = 0;  ///< Users in the affected components.
  size_t rekeyed = 0;          ///< Users whose quantized SV changed.
  size_t lists_rebuilt = 0;    ///< Friend lists rebuilt for the snapshot.
  bool full_rebuild = false;   ///< True for RebuildFull().
  double seconds = 0.0;        ///< Wall-clock spent re-encoding.
};

/// A published snapshot plus the re-key delta the index layer must apply.
struct ReencodeResult {
  std::shared_ptr<const EncodingSnapshot> snapshot;
  /// Users whose quantized SV changed between the previous snapshot and
  /// this one (ascending) — exactly the records whose PEB keys must move.
  std::vector<UserId> rekeyed;
  ReencodeStats stats;
};

class PolicyCatalog {
 public:
  /// Takes ownership of the policy corpus and builds the epoch-0 snapshot
  /// (the Figure-11 offline step; its cost is build_seconds()).
  PolicyCatalog(PolicyStore store, RoleRegistry roles, CatalogOptions options);

  PolicyCatalog(const PolicyCatalog&) = delete;
  PolicyCatalog& operator=(const PolicyCatalog&) = delete;

  // --- read access ----------------------------------------------------------

  /// The live policy store / role registry. Stable addresses for the
  /// catalog's lifetime (indexes keep pointers to them for verification).
  const PolicyStore& store() const { return store_; }
  const RoleRegistry& roles() const { return roles_; }

  /// The current snapshot (shared ownership; safe to hold across epochs).
  std::shared_ptr<const EncodingSnapshot> snapshot() const;

  /// Reference to the current snapshot — valid until the next Reencode()/
  /// RebuildFull(). For single-threaded setup and measurement code, where no
  /// concurrent re-encode exists by construction — hence exempt from the
  /// thread-safety analysis.
  const EncodingSnapshot& current() const NO_THREAD_SAFETY_ANALYSIS {
    return *snapshot_;
  }

  uint64_t epoch() const;
  size_t num_users() const { return options_.num_users; }
  const CatalogOptions& options() const { return options_; }

  /// Users whose mutations have not been re-encoded yet.
  size_t dirty_count() const;

  /// Wall-clock seconds of the epoch-0 build (Figure 11's metric).
  double build_seconds() const { return build_seconds_; }

  // --- mutations (accumulate the dirty-set) ---------------------------------

  /// Adds a policy `owner` defines for `peer` and assigns the policy's role
  /// (owner -> peer) so the grant is satisfiable (Definition 1's qID ∈
  /// role condition). The grant becomes visible at the next re-encode.
  Status AddPolicy(UserId owner, UserId peer, const Lpp& policy);

  /// Removes all policies from `owner` toward `peer`; returns how many were
  /// removed (0 when none existed). Revocation is effective immediately at
  /// verification; the friend-list entry disappears at the next re-encode.
  Result<size_t> RemovePolicies(UserId owner, UserId peer);

  /// Registers (or finds) a role by name. Role definition does not touch
  /// the encoding.
  RoleId DefineRole(const std::string& name);

  /// Role assignment/revocation (no encoding impact; verification-time).
  Status AssignRole(UserId owner, UserId peer, RoleId role);
  Status RevokeRole(UserId owner, UserId peer, RoleId role);

  // --- re-encoding ----------------------------------------------------------

  /// Incrementally re-encodes the connected components touched by the
  /// accumulated mutations and publishes a new snapshot (epoch + 1). A
  /// clean catalog returns the current snapshot with an empty re-key list
  /// and does not advance the epoch.
  Result<ReencodeResult> Reencode();

  /// Full Figure-5 rebuild over the whole population (epoch + 1): the
  /// escape hatch when accumulated churn has fragmented SV space, and the
  /// reference the equivalence tests compare incremental results against.
  /// The re-key list contains every user whose quantized SV moved.
  Result<ReencodeResult> RebuildFull();

 private:
  /// Users adjacent to `u` in the relatedness graph (C > 0), computed
  /// lazily from the live store. `memo` caches compatibility per pair.
  std::vector<UserId> RelatedTo(UserId u) const;

  Status ValidatePair(UserId owner, UserId peer) const;

  CatalogOptions options_;
  SvQuantizer quantizer_;
  double build_seconds_ = 0.0;

  mutable Mutex mu_;
  /// Mutated under mu_, but also read lock-free by query verification
  /// inside the indexes (via store()/roles()): the service layer provides
  /// that exclusion by running catalog mutations under the index's
  /// exclusive lock, so the protocol cannot be expressed as a GUARDED_BY
  /// (see the header comment's thread-safety contract).
  PolicyStore store_;
  RoleRegistry roles_;
  std::shared_ptr<const EncodingSnapshot> snapshot_ GUARDED_BY(mu_);
  /// Largest raw SV any user currently holds; fresh component bases are
  /// allocated above it so untouched users never collide.
  double max_sv_ GUARDED_BY(mu_) = 0.0;
  /// Direct endpoints of un-re-encoded mutations.
  std::vector<UserId> dirty_ GUARDED_BY(mu_);
  /// Users whose incoming friend list changed shape (policy add/remove
  /// peers) and must be rebuilt at the next snapshot derivation.
  std::vector<UserId> list_dirty_ GUARDED_BY(mu_);
};

}  // namespace peb
