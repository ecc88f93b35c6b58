// A disk-based B+-tree over the buffer pool.
//
// This is the base structure of both the Bx-tree and the PEB-tree (the
// paper stresses that basing the index on the B+-tree "promises easy
// integration into existing commercial database systems", Section 1).
//
// Design:
//  * Templated on a Traits type supplying fixed-size key/value encodings
//    and a total order on keys (see btree_traits.h for the instantiations).
//  * Unique keys. The moving-object indexes guarantee uniqueness by using
//    the composite (index_key, user_id) as the B+-tree key.
//  * Leaves form a doubly-linked list; range scans follow right-sibling
//    links exactly as the paper's query algorithms describe.
//  * Deletion does full rebalancing (borrow from siblings, merge on
//    underflow), so the tree stays within classic occupancy bounds under
//    the paper's delete-heavy update workload.
//  * All node access goes through the BufferPool, so every query's I/O is
//    observable via IoStats.
//
// Node layout (within a 4 KiB page):
//   byte 0      : node type (1 = leaf, 2 = internal)
//   bytes 2..3  : entry count (uint16)
//   bytes 4..7  : leaf: prev sibling | internal: leftmost child
//   bytes 8..11 : leaf: next sibling | internal: unused
//   bytes 16..  : packed slots, sorted by key
//     leaf slot     : key | value
//     internal slot : key | right-child page id
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace peb {

/// Aggregate shape statistics, maintained incrementally.
struct BTreeStats {
  size_t num_entries = 0;
  size_t num_leaves = 0;
  size_t num_internals = 0;
  size_t height = 0;  ///< 0 = empty, 1 = single leaf.
};

template <typename Traits>
class BTree {
 public:
  using Key = typename Traits::Key;
  using Value = typename Traits::Value;

  static constexpr size_t kHeaderSize = 16;
  static constexpr size_t kLeafSlotSize = Traits::kKeySize + Traits::kValueSize;
  static constexpr size_t kInternalSlotSize = Traits::kKeySize + sizeof(PageId);

  static constexpr size_t ComputeLeafCapacity() {
    size_t cap = (kPageSize - kHeaderSize) / kLeafSlotSize;
    if (Traits::kFanoutCap != 0 && cap > Traits::kFanoutCap) {
      cap = Traits::kFanoutCap;
    }
    return cap;
  }
  static constexpr size_t ComputeInternalCapacity() {
    size_t cap = (kPageSize - kHeaderSize) / kInternalSlotSize;
    if (Traits::kFanoutCap != 0 && cap > Traits::kFanoutCap) {
      cap = Traits::kFanoutCap;
    }
    return cap;
  }

  /// Maximum number of (key, value) entries in a leaf.
  static constexpr size_t kLeafCapacity = ComputeLeafCapacity();
  /// Maximum number of keys in an internal node (children = keys + 1).
  static constexpr size_t kInternalCapacity = ComputeInternalCapacity();

  static_assert(kLeafCapacity >= 3, "page too small for leaf slots");
  static_assert(kInternalCapacity >= 3, "page too small for internal slots");

  explicit BTree(BufferPool* pool) : pool_(pool) {}

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Inserts a key/value pair. Fails with AlreadyExists on a duplicate key.
  Status Insert(const Key& key, const Value& value);

  /// Removes `key`. Fails with NotFound when absent.
  Status Delete(const Key& key);

  /// Point lookup.
  Result<Value> Lookup(const Key& key) const;

  const BTreeStats& stats() const { return stats_; }
  bool empty() const { return stats_.num_entries == 0; }
  PageId root() const { return root_; }

  /// Attaches this (empty) handle to a tree that already exists on the
  /// pool's disk — the reopen path for file-backed indexes. The caller
  /// supplies the persisted root page id and shape statistics (an index
  /// manifest); Validate() verifies both against the pages.
  Status Attach(PageId root, const BTreeStats& stats) {
    if (root_ != kInvalidPageId) {
      return Status::InvalidArgument("Attach requires an empty tree handle");
    }
    root_ = root;
    stats_ = stats;
    Status s = Validate();
    if (!s.ok()) {
      root_ = kInvalidPageId;
      stats_ = BTreeStats{};
    }
    return s;
  }

  /// A reusable positioned cursor over leaf entries — the tree's one leaf
  /// walker, for full walks and multi-interval range scans alike. It keeps
  /// its current leaf pinned between seeks: when the next target key is
  /// forward-reachable it walks the sibling chain (at most kMaxChainHops
  /// page fetches) instead of re-descending from the root. The
  /// moving-object query algorithms probe Z intervals in ascending key
  /// order, so nearly every probe after the first resolves in the current
  /// or an adjacent leaf.
  ///
  /// The tree must not be mutated while a cursor holds a position; Reset()
  /// (or destroy) the cursor before mutating.
  class LeafCursor {
   public:
    /// Leaf-chain hops one seek may spend before giving up and
    /// re-descending. Hops only ever touch leaves already resident in the
    /// buffer pool (cache hits — a cold sibling falls back to a root
    /// descent immediately, so the fast path never reads a page from disk
    /// that a descent would have skipped). The budget merely bounds the
    /// logical-fetch count per seek when a long resident run is ahead.
    static constexpr size_t kMaxChainHops = 4;

    LeafCursor() = default;

    bool Valid() const { return guard_.valid() && slot_ < count_; }

    Key key() const {
      assert(Valid());
      return Traits::DecodeKey(LeafSlotPtr(*guard_.page(), slot_));
    }
    Value value() const {
      assert(Valid());
      return Traits::DecodeValue(LeafSlotPtr(*guard_.page(), slot_) +
                                 Traits::kKeySize);
    }

    /// Advances to the next entry, following the leaf chain.
    Status Next() {
      assert(Valid());
      if (++slot_ < count_) return Status::OK();
      PageId next = LeafNext(*guard_.page());
      guard_.Release();
      slot_ = count_ = 0;
      if (next == kInvalidPageId) return Status::OK();  // Now invalid.
      PEB_ASSIGN_OR_RETURN(guard_, tree_->pool_->FetchPage(next));
      count_ = NodeCount(*guard_.page());
      return Status::OK();
    }

    /// Repositions at the first entry with key >= `key` (invalid when no
    /// such entry exists), reusing the current position when possible.
    Status SeekGE(const Key& key);

    /// Drops the pinned position (also required before tree mutations).
    void Reset() {
      guard_.Release();
      slot_ = count_ = 0;
    }

    /// Root descents performed by SeekGE calls so far.
    size_t descents() const { return descents_; }
    /// Sibling-link page fetches spent by SeekGE calls so far.
    size_t chain_hops() const { return chain_hops_; }

   private:
    friend class BTree;
    explicit LeafCursor(const BTree* tree) : tree_(tree) {}

    const BTree* tree_ = nullptr;
    PageGuard guard_;
    uint16_t slot_ = 0;
    uint16_t count_ = 0;
    size_t descents_ = 0;
    size_t chain_hops_ = 0;
  };

  /// An unpositioned cursor bound to this tree.
  LeafCursor NewCursor() const { return LeafCursor(this); }

  /// Checks every structural invariant (key order, separator correctness,
  /// occupancy bounds, sibling chain, entry count). Used by property tests.
  Status Validate() const;

 private:
  // --- raw node accessors -------------------------------------------------
  static uint8_t NodeType(const Page& p) { return p.ReadAt<uint8_t>(0); }
  static void SetNodeType(Page& p, uint8_t t) { p.WriteAt<uint8_t>(0, t); }
  static bool IsLeaf(const Page& p) { return NodeType(p) == 1; }
  static uint16_t NodeCount(const Page& p) { return p.ReadAt<uint16_t>(2); }
  static void SetNodeCount(Page& p, uint16_t c) { p.WriteAt<uint16_t>(2, c); }
  static PageId LeafPrev(const Page& p) { return p.ReadAt<PageId>(4); }
  static void SetLeafPrev(Page& p, PageId id) { p.WriteAt<PageId>(4, id); }
  static PageId LeafNext(const Page& p) { return p.ReadAt<PageId>(8); }
  static void SetLeafNext(Page& p, PageId id) { p.WriteAt<PageId>(8, id); }
  static PageId InternalChild0(const Page& p) { return p.ReadAt<PageId>(4); }
  static void SetInternalChild0(Page& p, PageId id) { p.WriteAt<PageId>(4, id); }

  static std::byte* LeafSlotPtr(Page& p, size_t i) {
    return p.data() + kHeaderSize + i * kLeafSlotSize;
  }
  static const std::byte* LeafSlotPtr(const Page& p, size_t i) {
    return p.data() + kHeaderSize + i * kLeafSlotSize;
  }
  static std::byte* InternalSlotPtr(Page& p, size_t i) {
    return p.data() + kHeaderSize + i * kInternalSlotSize;
  }
  static const std::byte* InternalSlotPtr(const Page& p, size_t i) {
    return p.data() + kHeaderSize + i * kInternalSlotSize;
  }

  static Key LeafKey(const Page& p, size_t i) {
    return Traits::DecodeKey(LeafSlotPtr(p, i));
  }
  static Value LeafValue(const Page& p, size_t i) {
    return Traits::DecodeValue(LeafSlotPtr(p, i) + Traits::kKeySize);
  }
  static void SetLeafSlot(Page& p, size_t i, const Key& k, const Value& v) {
    Traits::EncodeKey(LeafSlotPtr(p, i), k);
    Traits::EncodeValue(LeafSlotPtr(p, i) + Traits::kKeySize, v);
  }
  static Key InternalKey(const Page& p, size_t i) {
    return Traits::DecodeKey(InternalSlotPtr(p, i));
  }
  static PageId InternalChild(const Page& p, size_t i) {
    // Child i+1 (right child of separator i); child 0 is in the header.
    PageId id;
    std::memcpy(&id, InternalSlotPtr(p, i) + Traits::kKeySize, sizeof(PageId));
    return id;
  }
  static void SetInternalSlot(Page& p, size_t i, const Key& k, PageId child) {
    Traits::EncodeKey(InternalSlotPtr(p, i), k);
    std::memcpy(InternalSlotPtr(p, i) + Traits::kKeySize, &child,
                sizeof(PageId));
  }

  static void ShiftSlots(Page& p, size_t slot_size, size_t from, size_t to,
                         size_t n) {
    std::memmove(p.data() + kHeaderSize + to * slot_size,
                 p.data() + kHeaderSize + from * slot_size, n * slot_size);
  }

  /// First slot in a leaf with key >= k (binary search).
  static size_t LeafLowerBound(const Page& p, const Key& k) {
    size_t lo = 0, hi = NodeCount(p);
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (Traits::Compare(LeafKey(p, mid), k) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Child index (0..count) to descend into for key k: the number of
  /// separator keys <= k.
  static size_t InternalChildIndex(const Page& p, const Key& k) {
    size_t lo = 0, hi = NodeCount(p);
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (Traits::Compare(InternalKey(p, mid), k) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  static PageId ChildAt(const Page& p, size_t idx) {
    return idx == 0 ? InternalChild0(p) : InternalChild(p, idx - 1);
  }
  static void SetChildAt(Page& p, size_t idx, PageId id) {
    if (idx == 0) {
      SetInternalChild0(p, id);
    } else {
      PageId tmp = id;
      std::memcpy(InternalSlotPtr(p, idx - 1) + Traits::kKeySize, &tmp,
                  sizeof(PageId));
    }
  }

  // --- mutation helpers ---------------------------------------------------
  struct PathEntry {
    PageId pid;
    size_t child_idx;  ///< Which child we descended into.
  };

  Status InsertIntoParents(std::vector<PathEntry>& path, Key sep,
                           PageId new_child);
  Status RebalanceAfterDelete(std::vector<PathEntry>& path, PageId node_pid);
  Status ValidateNode(PageId pid, const Key* lower, const Key* upper,
                      size_t depth, size_t* entries, size_t* leaves,
                      size_t* internals, size_t* height,
                      std::vector<PageId>* leaf_chain) const;

  BufferPool* pool_;
  PageId root_ = kInvalidPageId;
  BTreeStats stats_;
};

// ---------------------------------------------------------------------------
// Lookup / seek
// ---------------------------------------------------------------------------

template <typename Traits>
Result<typename Traits::Value> BTree<Traits>::Lookup(const Key& key) const {
  if (root_ == kInvalidPageId) return Status::NotFound();
  PageId pid = root_;
  for (;;) {
    PEB_ASSIGN_OR_RETURN(PageGuard g, pool_->FetchPage(pid));
    const Page& p = *g.page();
    if (IsLeaf(p)) {
      size_t slot = LeafLowerBound(p, key);
      if (slot < NodeCount(p) && Traits::Compare(LeafKey(p, slot), key) == 0) {
        return LeafValue(p, slot);
      }
      return Status::NotFound();
    }
    pid = ChildAt(p, InternalChildIndex(p, key));
  }
}

template <typename Traits>
Status BTree<Traits>::LeafCursor::SeekGE(const Key& key) {
  const BTree& tree = *tree_;
  // Fast path: the cursor sits on a leaf and the target is not behind it —
  // walk the sibling chain instead of descending from the root.
  if (guard_.valid()) {
    const Page* p = guard_.page();
    uint16_t cnt = NodeCount(*p);
    if (cnt > 0 && Traits::Compare(key, LeafKey(*p, 0)) >= 0) {
      for (size_t hops = 0;; ++hops) {
        if (cnt > 0 && Traits::Compare(LeafKey(*p, cnt - 1), key) >= 0) {
          slot_ = static_cast<uint16_t>(LeafLowerBound(*p, key));
          count_ = cnt;
          return Status::OK();
        }
        PageId next = LeafNext(*p);
        if (next == kInvalidPageId) {
          // Past the last entry of the tree: cursor becomes invalid.
          Reset();
          return Status::OK();
        }
        if (hops == kMaxChainHops) break;  // Too far ahead: re-descend.
        PageGuard g = tree.pool_->FetchIfResident(next);
        if (!g.valid()) break;  // Cold sibling: a descent is cheaper.
        guard_ = std::move(g);
        chain_hops_++;
        p = guard_.page();
        cnt = NodeCount(*p);
      }
    }
    guard_.Release();
  }

  // Slow path: root descent.
  descents_++;
  slot_ = count_ = 0;
  if (tree.root_ == kInvalidPageId) return Status::OK();
  PageId pid = tree.root_;
  for (;;) {
    PEB_ASSIGN_OR_RETURN(PageGuard g, tree.pool_->FetchPage(pid));
    const Page& p = *g.page();
    if (IsLeaf(p)) {
      size_t slot = LeafLowerBound(p, key);
      guard_ = std::move(g);
      count_ = NodeCount(*guard_.page());
      slot_ = static_cast<uint16_t>(slot);
      if (slot >= count_) {
        // The key is past this leaf's last entry: move to the next leaf.
        PageId next = LeafNext(*guard_.page());
        Reset();
        if (next != kInvalidPageId) {
          PEB_ASSIGN_OR_RETURN(guard_, tree.pool_->FetchPage(next));
          chain_hops_++;
          count_ = NodeCount(*guard_.page());
        }
      }
      return Status::OK();
    }
    pid = ChildAt(p, InternalChildIndex(p, key));
  }
}

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

template <typename Traits>
Status BTree<Traits>::Insert(const Key& key, const Value& value) {
  if (root_ == kInvalidPageId) {
    PEB_ASSIGN_OR_RETURN(PageGuard g, pool_->NewPage());
    Page& p = *g.page();
    SetNodeType(p, 1);
    SetNodeCount(p, 0);
    SetLeafPrev(p, kInvalidPageId);
    SetLeafNext(p, kInvalidPageId);
    SetLeafSlot(p, 0, key, value);
    SetNodeCount(p, 1);
    g.MarkDirty();
    root_ = g.id();
    stats_ = BTreeStats{1, 1, 0, 1};
    return Status::OK();
  }

  // Descend, remembering the path for split propagation.
  std::vector<PathEntry> path;
  PageId pid = root_;
  for (;;) {
    PEB_ASSIGN_OR_RETURN(PageGuard g, pool_->FetchPage(pid));
    const Page& p = *g.page();
    if (IsLeaf(p)) break;
    size_t idx = InternalChildIndex(p, key);
    path.push_back({pid, idx});
    pid = ChildAt(p, idx);
  }

  PEB_ASSIGN_OR_RETURN(PageGuard leaf_guard, pool_->FetchPage(pid));
  Page& leaf = *leaf_guard.page();
  size_t slot = LeafLowerBound(leaf, key);
  size_t count = NodeCount(leaf);
  if (slot < count && Traits::Compare(LeafKey(leaf, slot), key) == 0) {
    return Status::AlreadyExists("duplicate B+-tree key");
  }

  if (count < kLeafCapacity) {
    ShiftSlots(leaf, kLeafSlotSize, slot, slot + 1, count - slot);
    SetLeafSlot(leaf, slot, key, value);
    SetNodeCount(leaf, static_cast<uint16_t>(count + 1));
    leaf_guard.MarkDirty();
    stats_.num_entries++;
    return Status::OK();
  }

  // Split the leaf: left keeps ceil((cap+1)/2) of the cap+1 logical entries.
  PEB_ASSIGN_OR_RETURN(PageGuard right_guard, pool_->NewPage());
  Page& right = *right_guard.page();
  SetNodeType(right, 1);

  size_t total = count + 1;
  size_t left_n = (total + 1) / 2;

  // Materialize the post-insert order into the two nodes.
  // Temporary staging buffer keeps the logic simple and obviously correct.
  std::vector<std::byte> staging(total * kLeafSlotSize);
  size_t before = slot;  // entries before the new one
  std::memcpy(staging.data(), LeafSlotPtr(leaf, 0), before * kLeafSlotSize);
  Traits::EncodeKey(staging.data() + before * kLeafSlotSize, key);
  Traits::EncodeValue(
      staging.data() + before * kLeafSlotSize + Traits::kKeySize, value);
  std::memcpy(staging.data() + (before + 1) * kLeafSlotSize,
              LeafSlotPtr(leaf, before), (count - before) * kLeafSlotSize);

  std::memcpy(LeafSlotPtr(leaf, 0), staging.data(), left_n * kLeafSlotSize);
  SetNodeCount(leaf, static_cast<uint16_t>(left_n));
  std::memcpy(LeafSlotPtr(right, 0), staging.data() + left_n * kLeafSlotSize,
              (total - left_n) * kLeafSlotSize);
  SetNodeCount(right, static_cast<uint16_t>(total - left_n));

  // Maintain the doubly-linked leaf chain.
  PageId old_next = LeafNext(leaf);
  SetLeafNext(right, old_next);
  SetLeafPrev(right, leaf_guard.id());
  SetLeafNext(leaf, right_guard.id());
  if (old_next != kInvalidPageId) {
    PEB_ASSIGN_OR_RETURN(PageGuard nn, pool_->FetchPage(old_next));
    SetLeafPrev(*nn.page(), right_guard.id());
    nn.MarkDirty();
  }

  leaf_guard.MarkDirty();
  right_guard.MarkDirty();
  stats_.num_entries++;
  stats_.num_leaves++;

  Key sep = LeafKey(right, 0);
  PageId new_child = right_guard.id();
  leaf_guard.Release();
  right_guard.Release();
  return InsertIntoParents(path, sep, new_child);
}

template <typename Traits>
Status BTree<Traits>::InsertIntoParents(std::vector<PathEntry>& path, Key sep,
                                        PageId new_child) {
  for (;;) {
    if (path.empty()) {
      // Split reached the root: grow the tree by one level.
      PEB_ASSIGN_OR_RETURN(PageGuard g, pool_->NewPage());
      Page& p = *g.page();
      SetNodeType(p, 2);
      SetInternalChild0(p, root_);
      SetInternalSlot(p, 0, sep, new_child);
      SetNodeCount(p, 1);
      g.MarkDirty();
      root_ = g.id();
      stats_.num_internals++;
      stats_.height++;
      return Status::OK();
    }

    PathEntry entry = path.back();
    path.pop_back();
    PEB_ASSIGN_OR_RETURN(PageGuard g, pool_->FetchPage(entry.pid));
    Page& p = *g.page();
    size_t count = NodeCount(p);
    size_t idx = entry.child_idx;  // Insert separator at slot idx.

    if (count < kInternalCapacity) {
      ShiftSlots(p, kInternalSlotSize, idx, idx + 1, count - idx);
      SetInternalSlot(p, idx, sep, new_child);
      SetNodeCount(p, static_cast<uint16_t>(count + 1));
      g.MarkDirty();
      return Status::OK();
    }

    // Split internal node. Stage count+1 slots, push the median up.
    size_t total = count + 1;
    std::vector<std::byte> staging(total * kInternalSlotSize);
    std::memcpy(staging.data(), InternalSlotPtr(p, 0), idx * kInternalSlotSize);
    Traits::EncodeKey(staging.data() + idx * kInternalSlotSize, sep);
    std::memcpy(staging.data() + idx * kInternalSlotSize + Traits::kKeySize,
                &new_child, sizeof(PageId));
    std::memcpy(staging.data() + (idx + 1) * kInternalSlotSize,
                InternalSlotPtr(p, idx), (count - idx) * kInternalSlotSize);

    size_t left_n = total / 2;        // keys kept in the left node
    size_t median = left_n;           // key pushed up
    size_t right_n = total - left_n - 1;

    PEB_ASSIGN_OR_RETURN(PageGuard rg, pool_->NewPage());
    Page& r = *rg.page();
    SetNodeType(r, 2);

    std::memcpy(InternalSlotPtr(p, 0), staging.data(),
                left_n * kInternalSlotSize);
    SetNodeCount(p, static_cast<uint16_t>(left_n));

    Key up_key = Traits::DecodeKey(staging.data() + median * kInternalSlotSize);
    PageId median_child;
    std::memcpy(&median_child,
                staging.data() + median * kInternalSlotSize + Traits::kKeySize,
                sizeof(PageId));
    SetInternalChild0(r, median_child);
    std::memcpy(InternalSlotPtr(r, 0),
                staging.data() + (median + 1) * kInternalSlotSize,
                right_n * kInternalSlotSize);
    SetNodeCount(r, static_cast<uint16_t>(right_n));

    g.MarkDirty();
    rg.MarkDirty();
    stats_.num_internals++;

    sep = up_key;
    new_child = rg.id();
  }
}

// ---------------------------------------------------------------------------
// Delete
// ---------------------------------------------------------------------------

template <typename Traits>
Status BTree<Traits>::Delete(const Key& key) {
  if (root_ == kInvalidPageId) return Status::NotFound();

  std::vector<PathEntry> path;
  PageId pid = root_;
  for (;;) {
    PEB_ASSIGN_OR_RETURN(PageGuard g, pool_->FetchPage(pid));
    const Page& p = *g.page();
    if (IsLeaf(p)) break;
    size_t idx = InternalChildIndex(p, key);
    path.push_back({pid, idx});
    pid = ChildAt(p, idx);
  }

  {
    PEB_ASSIGN_OR_RETURN(PageGuard g, pool_->FetchPage(pid));
    Page& leaf = *g.page();
    size_t slot = LeafLowerBound(leaf, key);
    size_t count = NodeCount(leaf);
    if (slot >= count || Traits::Compare(LeafKey(leaf, slot), key) != 0) {
      return Status::NotFound();
    }
    ShiftSlots(leaf, kLeafSlotSize, slot + 1, slot, count - slot - 1);
    SetNodeCount(leaf, static_cast<uint16_t>(count - 1));
    g.MarkDirty();
    stats_.num_entries--;
  }

  return RebalanceAfterDelete(path, pid);
}

template <typename Traits>
Status BTree<Traits>::RebalanceAfterDelete(std::vector<PathEntry>& path,
                                           PageId node_pid) {
  for (;;) {
    PEB_ASSIGN_OR_RETURN(PageGuard ng, pool_->FetchPage(node_pid));
    Page& node = *ng.page();
    bool leaf = IsLeaf(node);
    size_t count = NodeCount(node);
    size_t cap = leaf ? kLeafCapacity : kInternalCapacity;
    size_t min_fill = cap / 2;

    if (path.empty()) {
      // At the root.
      if (!leaf && count == 0) {
        // Shrink the tree by one level.
        PageId only_child = InternalChild0(node);
        ng.Release();
        PEB_RETURN_NOT_OK(pool_->DeletePage(node_pid));
        root_ = only_child;
        stats_.num_internals--;
        stats_.height--;
        return Status::OK();
      }
      if (leaf && count == 0) {
        ng.Release();
        PEB_RETURN_NOT_OK(pool_->DeletePage(node_pid));
        root_ = kInvalidPageId;
        stats_ = BTreeStats{};
        return Status::OK();
      }
      return Status::OK();
    }

    if (count >= min_fill) return Status::OK();

    PathEntry parent_entry = path.back();
    path.pop_back();
    PEB_ASSIGN_OR_RETURN(PageGuard pg, pool_->FetchPage(parent_entry.pid));
    Page& parent = *pg.page();
    size_t pidx = parent_entry.child_idx;
    size_t pcount = NodeCount(parent);

    // Prefer borrowing from the left sibling, then right; merge otherwise.
    if (pidx > 0) {
      PageId left_pid = ChildAt(parent, pidx - 1);
      PEB_ASSIGN_OR_RETURN(PageGuard lg, pool_->FetchPage(left_pid));
      Page& left = *lg.page();
      size_t lcount = NodeCount(left);
      if (lcount > min_fill) {
        // Borrow one from the left.
        if (leaf) {
          ShiftSlots(node, kLeafSlotSize, 0, 1, count);
          std::memcpy(LeafSlotPtr(node, 0), LeafSlotPtr(left, lcount - 1),
                      kLeafSlotSize);
          SetNodeCount(node, static_cast<uint16_t>(count + 1));
          SetNodeCount(left, static_cast<uint16_t>(lcount - 1));
          // Update the separator (key at parent slot pidx-1).
          Key new_sep = LeafKey(node, 0);
          PageId keep_child = InternalChild(parent, pidx - 1);
          SetInternalSlot(parent, pidx - 1, new_sep, keep_child);
        } else {
          // Rotate through the parent separator.
          Key sep = InternalKey(parent, pidx - 1);
          ShiftSlots(node, kInternalSlotSize, 0, 1, count);
          SetInternalSlot(node, 0, sep, InternalChild0(node));
          SetInternalChild0(node, InternalChild(left, lcount - 1));
          SetNodeCount(node, static_cast<uint16_t>(count + 1));
          Key new_sep = InternalKey(left, lcount - 1);
          SetNodeCount(left, static_cast<uint16_t>(lcount - 1));
          PageId keep_child = InternalChild(parent, pidx - 1);
          SetInternalSlot(parent, pidx - 1, new_sep, keep_child);
        }
        ng.MarkDirty();
        lg.MarkDirty();
        pg.MarkDirty();
        return Status::OK();
      }
    }

    if (pidx < pcount) {
      PageId right_pid = ChildAt(parent, pidx + 1);
      PEB_ASSIGN_OR_RETURN(PageGuard rg, pool_->FetchPage(right_pid));
      Page& right = *rg.page();
      size_t rcount = NodeCount(right);
      if (rcount > min_fill) {
        // Borrow one from the right.
        if (leaf) {
          std::memcpy(LeafSlotPtr(node, count), LeafSlotPtr(right, 0),
                      kLeafSlotSize);
          ShiftSlots(right, kLeafSlotSize, 1, 0, rcount - 1);
          SetNodeCount(node, static_cast<uint16_t>(count + 1));
          SetNodeCount(right, static_cast<uint16_t>(rcount - 1));
          Key new_sep = LeafKey(right, 0);
          PageId keep_child = InternalChild(parent, pidx);
          SetInternalSlot(parent, pidx, new_sep, keep_child);
        } else {
          Key sep = InternalKey(parent, pidx);
          SetInternalSlot(node, count, sep, InternalChild0(right));
          SetNodeCount(node, static_cast<uint16_t>(count + 1));
          SetInternalChild0(right, InternalChild(right, 0));
          Key new_sep = InternalKey(right, 0);
          ShiftSlots(right, kInternalSlotSize, 1, 0, rcount - 1);
          SetNodeCount(right, static_cast<uint16_t>(rcount - 1));
          PageId keep_child = InternalChild(parent, pidx);
          SetInternalSlot(parent, pidx, new_sep, keep_child);
        }
        ng.MarkDirty();
        rg.MarkDirty();
        pg.MarkDirty();
        return Status::OK();
      }
    }

    // Merge with a sibling. Normalize to (left, right) so we always merge
    // into the left node and delete the right one.
    size_t sep_idx;  // Parent separator between left and right.
    PageId left_pid, right_pid;
    if (pidx > 0) {
      sep_idx = pidx - 1;
      left_pid = ChildAt(parent, pidx - 1);
      right_pid = node_pid;
    } else {
      sep_idx = pidx;
      left_pid = node_pid;
      right_pid = ChildAt(parent, pidx + 1);
    }
    ng.Release();

    {
      PEB_ASSIGN_OR_RETURN(PageGuard lg, pool_->FetchPage(left_pid));
      PEB_ASSIGN_OR_RETURN(PageGuard rg, pool_->FetchPage(right_pid));
      Page& left = *lg.page();
      Page& right = *rg.page();
      size_t lcount = NodeCount(left);
      size_t rcount = NodeCount(right);

      if (leaf) {
        assert(lcount + rcount <= kLeafCapacity);
        std::memcpy(LeafSlotPtr(left, lcount), LeafSlotPtr(right, 0),
                    rcount * kLeafSlotSize);
        SetNodeCount(left, static_cast<uint16_t>(lcount + rcount));
        PageId rnext = LeafNext(right);
        SetLeafNext(left, rnext);
        if (rnext != kInvalidPageId) {
          PEB_ASSIGN_OR_RETURN(PageGuard nn, pool_->FetchPage(rnext));
          SetLeafPrev(*nn.page(), left_pid);
          nn.MarkDirty();
        }
        stats_.num_leaves--;
      } else {
        assert(lcount + rcount + 1 <= kInternalCapacity);
        Key sep = InternalKey(parent, sep_idx);
        SetInternalSlot(left, lcount, sep, InternalChild0(right));
        std::memcpy(InternalSlotPtr(left, lcount + 1), InternalSlotPtr(right, 0),
                    rcount * kInternalSlotSize);
        SetNodeCount(left, static_cast<uint16_t>(lcount + rcount + 1));
        stats_.num_internals--;
      }
      lg.MarkDirty();
      rg.Release();
      PEB_RETURN_NOT_OK(pool_->DeletePage(right_pid));
    }

    // Remove separator sep_idx (and the right child pointer) from parent.
    {
      size_t pc = NodeCount(parent);
      ShiftSlots(parent, kInternalSlotSize, sep_idx + 1, sep_idx,
                 pc - sep_idx - 1);
      SetNodeCount(parent, static_cast<uint16_t>(pc - 1));
      pg.MarkDirty();
    }
    pg.Release();

    // The parent may now underflow: loop with the parent as current node.
    node_pid = parent_entry.pid;
  }
}

// ---------------------------------------------------------------------------
// Validation (used by tests)
// ---------------------------------------------------------------------------

template <typename Traits>
Status BTree<Traits>::ValidateNode(PageId pid, const Key* lower,
                                   const Key* upper, size_t depth,
                                   size_t* entries, size_t* leaves,
                                   size_t* internals, size_t* height,
                                   std::vector<PageId>* leaf_chain) const {
  PEB_ASSIGN_OR_RETURN(PageGuard g, pool_->FetchPage(pid));
  const Page& p = *g.page();
  size_t count = NodeCount(p);
  bool is_root = (depth == 0);

  if (IsLeaf(p)) {
    if (*height == 0) {
      *height = depth + 1;
    } else if (*height != depth + 1) {
      return Status::Corruption("leaves at different depths");
    }
    if (!is_root && count < kLeafCapacity / 2) {
      return Status::Corruption("leaf underflow at page " + std::to_string(pid));
    }
    for (size_t i = 0; i < count; ++i) {
      Key k = LeafKey(p, i);
      if (i > 0 && Traits::Compare(LeafKey(p, i - 1), k) >= 0) {
        return Status::Corruption("unsorted leaf keys");
      }
      if (lower != nullptr && Traits::Compare(k, *lower) < 0) {
        return Status::Corruption("leaf key below separator bound");
      }
      if (upper != nullptr && Traits::Compare(k, *upper) >= 0) {
        return Status::Corruption("leaf key above separator bound");
      }
    }
    *entries += count;
    (*leaves)++;
    leaf_chain->push_back(pid);
    return Status::OK();
  }

  if (!is_root && count < kInternalCapacity / 2) {
    return Status::Corruption("internal underflow at page " +
                              std::to_string(pid));
  }
  if (count == 0 && !is_root) {
    return Status::Corruption("empty internal node");
  }
  (*internals)++;

  for (size_t i = 0; i < count; ++i) {
    Key k = InternalKey(p, i);
    if (i > 0 && Traits::Compare(InternalKey(p, i - 1), k) >= 0) {
      return Status::Corruption("unsorted internal keys");
    }
    if (lower != nullptr && Traits::Compare(k, *lower) < 0) {
      return Status::Corruption("separator below bound");
    }
    if (upper != nullptr && Traits::Compare(k, *upper) >= 0) {
      return Status::Corruption("separator above bound");
    }
  }
  for (size_t i = 0; i <= count; ++i) {
    Key lo_key{}, hi_key{};
    const Key* lo = lower;
    const Key* hi = upper;
    if (i > 0) {
      lo_key = InternalKey(p, i - 1);
      lo = &lo_key;
    }
    if (i < count) {
      hi_key = InternalKey(p, i);
      hi = &hi_key;
    }
    PEB_RETURN_NOT_OK(ValidateNode(ChildAt(p, i), lo, hi, depth + 1, entries,
                                   leaves, internals, height, leaf_chain));
  }
  return Status::OK();
}

template <typename Traits>
Status BTree<Traits>::Validate() const {
  if (root_ == kInvalidPageId) {
    if (stats_.num_entries != 0 || stats_.num_leaves != 0 ||
        stats_.num_internals != 0 || stats_.height != 0) {
      return Status::Corruption("empty tree with non-zero stats");
    }
    return Status::OK();
  }
  size_t entries = 0, leaves = 0, internals = 0, height = 0;
  std::vector<PageId> leaf_chain;
  PEB_RETURN_NOT_OK(ValidateNode(root_, nullptr, nullptr, 0, &entries, &leaves,
                                 &internals, &height, &leaf_chain));
  if (entries != stats_.num_entries) {
    return Status::Corruption("entry count mismatch: counted " +
                              std::to_string(entries) + " vs stats " +
                              std::to_string(stats_.num_entries));
  }
  if (leaves != stats_.num_leaves || internals != stats_.num_internals ||
      height != stats_.height) {
    return Status::Corruption("shape stats mismatch");
  }
  // Verify the doubly-linked leaf chain matches the in-order leaf sequence.
  for (size_t i = 0; i < leaf_chain.size(); ++i) {
    PEB_ASSIGN_OR_RETURN(PageGuard g, pool_->FetchPage(leaf_chain[i]));
    const Page& p = *g.page();
    PageId want_prev = i == 0 ? kInvalidPageId : leaf_chain[i - 1];
    PageId want_next =
        i + 1 == leaf_chain.size() ? kInvalidPageId : leaf_chain[i + 1];
    if (LeafPrev(p) != want_prev || LeafNext(p) != want_next) {
      return Status::Corruption("broken leaf sibling chain");
    }
  }
  return Status::OK();
}

}  // namespace peb
