// Disk-resident B+tree over the pager.
//
// Keys and values are arbitrary byte strings ordered lexicographically
// (callers use util::OrderedKeyU64 and friends for numeric components).
// Values larger than the inline cell budget spill to an overflow-page
// chain, so values are unbounded; keys are capped at kMaxKeySize.
//
// Structure: slotted pages. Leaves carry (key, value) cells and are
// doubly linked for range scans; interior nodes carry (separator, child)
// cells plus a rightmost child, where child subtrees hold keys <= their
// separator. The root page id is stable for the life of the tree: when
// the root splits its content moves to fresh children and the root is
// rewritten in place, so the catalog never needs updating after create.
//
// Deletion frees emptied pages and collapses empty interior nodes but
// does not rebalance underfull siblings — the workloads here (history
// stores) are append-mostly, so partial space reuse via the freelist is
// the right cost/complexity point.
//
// Reads go through Cursor (Seek/SeekPrefix/Next): a cursor remembers its
// (leaf page, slot) position plus a stamp of the pager's change
// counter, so steady-state iteration is a slot increment, and any
// interleaved write downgrades the next advance to a by-key re-seek —
// cursors survive mutation of the tree (including deletion of the entry
// under them) instead of being invalidated.
//
// Snapshot reads: BoundAt(snapshot) returns a read-only handle to the
// SAME tree (root ids are stable for a tree's lifetime) whose every
// page fetch resolves through the storage::Snapshot instead of the live
// pager. Bound handles are safe to read from any thread while the
// single writer keeps committing, mutations on them are contract
// violations, and their cursors never re-seek — a frozen view cannot
// change under them, so the change-counter downgrade is a live-cursor
// legacy the snapshot path skips entirely.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/pager.hpp"
#include "storage/snapshot.hpp"
#include "util/status.hpp"

namespace bp::storage {

constexpr size_t kMaxKeySize = 512;

struct TreeStats {
  uint64_t leaf_pages = 0;
  uint64_t interior_pages = 0;
  uint64_t overflow_pages = 0;
  uint64_t cells = 0;       // live leaf cells (== record count)
  uint64_t key_bytes = 0;   // sum of live key lengths
  uint64_t value_bytes = 0; // sum of live value lengths (incl. overflow)
  // Physical bytes the tree's pages occupy in the main file: a page
  // whose checkpoint slot holds a compressed frame counts its frame
  // size (header + payload), everything else a full page. Equal to
  // TotalBytes() with compression off.
  uint64_t disk_bytes = 0;
  uint32_t depth = 0;       // 1 = root-only

  uint64_t TotalPages() const {
    return leaf_pages + interior_pages + overflow_pages;
  }
  uint64_t TotalBytes() const { return TotalPages() * kPageSize; }
};

class BTree {
 public:
  // Allocates an empty tree (a single leaf root). Must run inside an open
  // transaction; the returned root id is what the catalog persists.
  static util::Result<PageId> Create(Pager& pager);

  BTree(Pager& pager, PageId root) : pager_(pager), root_(root) {}

  // A read-only handle on this tree whose page fetches resolve through
  // `snap` (see the header comment). The snapshot must outlive the
  // returned tree and every cursor obtained from it.
  BTree BoundAt(const Snapshot& snap) const {
    return BTree(pager_, root_, &snap);
  }
  bool snapshot_bound() const { return snap_ != nullptr; }

  // Forward iterator over the tree's entries in key order.
  //
  //   BTree::Cursor cur = tree.NewCursor();
  //   for (cur.Seek(lo); cur.Valid(); cur.Next()) {
  //     ... cur.key() / cur.value() ...
  //   }
  //   BP_RETURN_IF_ERROR(cur.status());
  //
  // A storage error invalidates the cursor and is held in status(), so
  // loops stay branch-free; callers check status() once after the loop.
  // Writes interleaved with iteration (to any tree of the same pager,
  // including deleting the entry the cursor is on) are safe: the cursor
  // detects them via the pager change counter and re-seeks to the first
  // key greater than the last one returned.
  class Cursor {
   public:
    Cursor() = default;  // unpositioned; !Valid() until a Seek

    // Positions at the first entry with key >= `target` (empty target =
    // first entry). Clears any previous error and bounds.
    void Seek(std::string_view target);
    void SeekFirst() { Seek({}); }
    // Seek(prefix), then constrain iteration to keys starting with
    // `prefix`: the cursor reports !Valid() at the first key past it.
    void SeekPrefix(std::string_view prefix);
    // Seek(lo), then constrain iteration to keys < `hi` (empty hi = to
    // the end). Bounds are checked before the value is materialized, so
    // an out-of-range entry never costs an overflow-chain read.
    void SeekRange(std::string_view lo, std::string_view hi);

    void Next();
    bool Valid() const { return valid_; }

    // Current entry; Valid() must be true. The views point at cursor-owned
    // storage and survive tree mutation, but not the next Seek*/Next.
    std::string_view key() const { return key_; }
    std::string_view value() const { return value_; }

    // Ok while iterating or exhausted; the first storage error otherwise.
    const util::Status& status() const { return status_; }

    // Leaf cells decoded so far (feeds QueryStats::rows_scanned).
    uint64_t rows_scanned() const { return rows_scanned_; }

   private:
    friend class BTree;
    explicit Cursor(const BTree* tree) : tree_(tree) {}

    void SeekInternal(std::string_view target, bool exclusive);
    // Loads the cell at (leaf_, pos_), walking forward across leaves if
    // pos_ is off the end; invalidates at the end of the tree or when the
    // key leaves the prefix bound.
    void LoadOrAdvance();
    void Fail(util::Status status);

    const BTree* tree_ = nullptr;
    PageId leaf_ = kNoPage;
    uint32_t pos_ = 0;
    uint64_t change_stamp_ = 0;
    std::string key_;
    std::string value_;
    std::string bound_prefix_;  // empty = unbounded
    std::string bound_hi_;      // empty = unbounded; exclusive
    bool valid_ = false;
    util::Status status_;
    uint64_t rows_scanned_ = 0;
  };

  Cursor NewCursor() const { return Cursor(this); }

  // Inserts or replaces. Key must be non-empty and <= kMaxKeySize.
  util::Status Put(std::string_view key, std::string_view value);

  // NotFound when absent.
  util::Result<std::string> Get(std::string_view key) const;

  util::Result<bool> Contains(std::string_view key) const;

  // NotFound when absent.
  util::Status Delete(std::string_view key);

  // Frees every page of the tree including the root (used by DropTree).
  // The tree must not be used afterwards.
  util::Status FreeAllPages();

  // Number of keys in [lo, hi) (empty `hi` = to the end). Counts whole
  // leaves by their cell count and binary-searches only the boundary
  // leaves, so it never decodes interior rows — this is what makes
  // GraphStore::Degree O(leaves) instead of O(edges decoded).
  util::Result<uint64_t> CountRange(std::string_view lo,
                                    std::string_view hi) const;

  util::Result<uint64_t> Count() const;
  util::Result<TreeStats> Stats() const;

  PageId root() const { return root_; }

 private:
  struct SplitResult {
    bool split = false;
    std::string separator;  // max key remaining in the original page
    PageId new_right = kNoPage;
  };
  struct DescentRef {
    PageId page = kNoPage;
    // Index of the followed child cell, or == ncells for the rightmost
    // (aux) child.
    uint32_t ref_index = 0;
  };

  BTree(Pager& pager, PageId root, const Snapshot* snap)
      : pager_(pager), root_(root), snap_(snap) {}

  // The one read-path page fetch: live pager when unbound, snapshot
  // otherwise.
  util::Result<PageView> FetchPage(PageId id) const;
  // Mutation stamp cursors watch; constant (0) on the snapshot path.
  uint64_t ReadStamp() const {
    return snap_ != nullptr ? 0 : pager_.change_count();
  }

  util::Result<SplitResult> InsertRec(PageId page_id, std::string_view key,
                                      std::string_view value);
  util::Status SplitRootIfNeeded(const SplitResult& split);

  util::Result<PageId> WriteOverflowChain(std::string_view value);
  util::Result<std::string> ReadOverflowChain(PageId first,
                                              uint64_t total_len) const;
  util::Status FreeOverflowChain(PageId first);
  util::Status FreeLeafCellPayload(std::string_view cell);

  util::Result<PageId> LeafForKey(std::string_view key,
                                  std::vector<DescentRef>* path) const;

  Pager& pager_;
  PageId root_;
  const Snapshot* snap_ = nullptr;  // non-null = read-only bound handle
};

// Owns the snapshot-bound BTree clones behind a reader layer's
// AtSnapshot handle (GraphStore, ProvStore, InvertedIndex, ...): the
// layer keeps its raw BTree* members pointing into this storage and
// asks bound() instead of tracking a separate flag. Empty (bound() ==
// false) on live stores.
class BoundTrees {
 public:
  BTree* Bind(const Snapshot& snap, const BTree* tree) {
    owned_.push_back(std::make_unique<BTree>(tree->BoundAt(snap)));
    return owned_.back().get();
  }
  bool bound() const { return !owned_.empty(); }

 private:
  std::vector<std::unique_ptr<BTree>> owned_;
};

}  // namespace bp::storage
