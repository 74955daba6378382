// Db: a named collection of B+trees in one file, with a catalog and
// per-tree space accounting. This is the embedded-database layer the
// paper gets from SQLite: the provenance and Places schemas are sets of
// named trees ("tables" and "indexes"), and the storage-overhead
// experiment (E1) compares their Space() reports.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/btree.hpp"
#include "storage/pager.hpp"
#include "util/status.hpp"

namespace bp::storage {

struct DbOptions {
  Env* env = Env::Posix();
  size_t cache_pages = 4096;
  bool sync = true;
  // See PagerOptions: kWal + wal_group_commit > 1 amortizes fsyncs
  // across bursts of small transactions (batched provenance ingest).
  DurabilityMode durability = DurabilityMode::kRollbackJournal;
  uint32_t wal_group_commit = 1;
  uint64_t wal_checkpoint_bytes = 4 << 20;
  // Versioned buffer pool shared by the whole read path (WAL mode; see
  // PagerOptions). pool_bytes = 0 disables it; buffer_pool (when set)
  // joins an existing pool so several databases share one byte budget.
  size_t pool_bytes = 32 << 20;
  std::shared_ptr<BufferPool> buffer_pool;
  // Storage diet (see PagerOptions::compression): mode=kFast compresses
  // eligible pages at checkpoint. Defaults from BP_COMPRESSION; unset
  // means off.
  compress::CompressionOptions compression;
};

struct SpaceEntry {
  std::string name;
  TreeStats stats;
};

struct SpaceReport {
  uint64_t file_bytes = 0;
  uint32_t total_pages = 0;
  uint32_t free_pages = 0;
  uint64_t catalog_pages = 0;
  std::vector<SpaceEntry> trees;

  // Sum of page bytes for all trees whose name starts with `prefix`
  // (schemas namespace their trees, e.g. "places.visits").
  uint64_t BytesForPrefix(std::string_view prefix) const;
};

class Db {
 public:
  // Opens or creates the database at `path`, recovering from a crashed
  // commit if a hot journal is present.
  static util::Result<std::unique_ptr<Db>> Open(const std::string& path,
                                                DbOptions options = {});

  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  // Tree handles are owned by the Db and valid until DropTree or close.
  util::Result<BTree*> CreateTree(const std::string& name);
  util::Result<BTree*> OpenTree(const std::string& name);
  util::Result<BTree*> OpenOrCreateTree(const std::string& name);

  // Frees all pages of the tree and removes it from the catalog.
  util::Status DropTree(const std::string& name);

  util::Result<std::vector<std::string>> ListTrees() const;

  // Multi-operation transactions. Individual tree operations outside an
  // explicit transaction are each atomic on their own.
  util::Status Begin() { return pager_->Begin(); }
  util::Status Commit() { return pager_->Commit(); }
  util::Status Rollback() { return pager_->Rollback(); }

  // Read transaction: an immutable view of the committed state, safe to
  // read from other threads while this Db keeps writing (WAL mode only;
  // see Pager::BeginRead). Bind tree handles to it with BTree::BoundAt.
  util::Result<std::unique_ptr<Snapshot>> BeginRead() {
    return pager_->BeginRead();
  }

  util::Result<SpaceReport> Space() const;

  Pager& pager() { return *pager_; }
  const Pager& pager() const { return *pager_; }

 private:
  explicit Db(std::unique_ptr<Pager> pager) : pager_(std::move(pager)) {}

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BTree> catalog_;
  std::map<std::string, std::unique_ptr<BTree>> open_trees_;
};

}  // namespace bp::storage
