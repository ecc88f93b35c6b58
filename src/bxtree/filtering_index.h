// The spatial-index filtering approach (Section 4): process privacy-aware
// queries as if they were plain spatial queries on the Bx-tree, then filter
// the preliminary result by evaluating each found user's location-privacy
// policies against the query issuer. This is the baseline the PEB-tree is
// compared with throughout Section 7.
#pragma once

#include <memory>

#include "bxtree/bxtree.h"
#include "bxtree/privacy_index.h"
#include "policy/policy_store.h"
#include "policy/role_registry.h"
#include "policy/sequence_value.h"

namespace peb {

class FilteringIndex final : public PrivacyAwareIndex {
 public:
  /// `store` and `roles` must outlive the index.
  FilteringIndex(BufferPool* pool, const MovingIndexOptions& options,
                 const PolicyStore* store, const RoleRegistry* roles,
                 double time_domain = kDefaultTimeDomain)
      : tree_(pool, options),
        store_(store),
        roles_(roles),
        time_domain_(time_domain) {}

  Status Insert(const MovingObject& object) override {
    return tree_.Insert(object);
  }
  Status Update(const MovingObject& object) override {
    return tree_.Update(object);
  }
  Status Delete(UserId id) override { return tree_.Delete(id); }
  size_t size() const override { return tree_.size(); }

  /// Snapshot adoption: the Bx key embeds no sequence values, so no record
  /// moves — the index only tracks the epoch it serves (responses report
  /// it) and keeps verifying against the live store, whose mutations the
  /// service serializes against queries.
  Status AdoptSnapshot(std::shared_ptr<const EncodingSnapshot> snapshot,
                       const std::vector<UserId>* /*rekey*/) override {
    if (snapshot == nullptr) {
      return Status::InvalidArgument("cannot adopt a null encoding snapshot");
    }
    snapshot_ = std::move(snapshot);
    return Status::OK();
  }
  uint64_t encoding_epoch() const override {
    return snapshot_ == nullptr ? 0 : snapshot_->epoch();
  }
  Result<MovingObject> GetObject(UserId id) const override {
    return tree_.GetObject(id);
  }
  BufferPool* pool() override { return tree_.pool(); }
  IoStats aggregate_io() const override { return tree_.pool()->stats(); }
  void ResetIo() override { tree_.pool()->ResetStats(); }

  /// PRQ: spatial range query, then policy filtering on the result.
  Result<std::vector<UserId>> RangeQueryWithStats(UserId issuer,
                                                  const Rect& range,
                                                  Timestamp tq,
                                                  QueryStats* stats) override;

  /// PkNN: iterative spatial enlargement that keeps going until k
  /// policy-qualified users are confirmed (the Section 4 example: when the
  /// spatial NN fails the policy check, "the query then needs to examine
  /// the next nearest neighbor, and this must be repeated").
  Result<std::vector<Neighbor>> KnnQueryWithStats(UserId issuer,
                                                  const Point& qloc, size_t k,
                                                  Timestamp tq,
                                                  QueryStats* stats) override;

  BxTree& tree() { return tree_; }

 private:
  /// Uniform validation: the filtering approach has no policy encoding, so
  /// its issuer universe is the set of currently indexed users (in the
  /// experiment harness every encoding-covered user is indexed, so the
  /// three indexes agree).
  Status ValidateIssuer(UserId issuer) const {
    if (!tree_.GetObject(issuer).ok()) return UnknownIssuerError(issuer);
    return Status::OK();
  }

  bool Qualifies(UserId issuer, const SpatialCandidate& cand,
                 Timestamp tq) const {
    return store_->Qualifies(cand.uid, issuer, cand.pos, tq, *roles_,
                             time_domain_);
  }

  BxTree tree_;
  const PolicyStore* store_;
  const RoleRegistry* roles_;
  double time_domain_;
  /// The epoch this index reports; keys are encoding-independent.
  std::shared_ptr<const EncodingSnapshot> snapshot_;
};

}  // namespace peb
