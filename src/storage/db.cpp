#include "storage/db.hpp"

#include "util/require.hpp"
#include "util/serde.hpp"

namespace bp::storage {

using util::Reader;
using util::Result;
using util::Status;
using util::Writer;

uint64_t SpaceReport::BytesForPrefix(std::string_view prefix) const {
  uint64_t total = 0;
  for (const SpaceEntry& entry : trees) {
    if (entry.name.size() >= prefix.size() &&
        std::string_view(entry.name).substr(0, prefix.size()) == prefix) {
      // Physical footprint: compressed checkpoint slots count their
      // frame size, so the storage-overhead experiment sees the diet.
      total += entry.stats.disk_bytes;
    }
  }
  return total;
}

Result<std::unique_ptr<Db>> Db::Open(const std::string& path,
                                     DbOptions options) {
  PagerOptions popts;
  popts.env = options.env;
  popts.cache_pages = options.cache_pages;
  popts.sync = options.sync;
  popts.wal_group_commit = options.wal_group_commit;
  popts.wal_checkpoint_bytes = options.wal_checkpoint_bytes;
  popts.pool_bytes = options.pool_bytes;
  popts.buffer_pool = options.buffer_pool;
  popts.compression = options.compression;
  BP_ASSIGN_OR_RETURN(std::unique_ptr<Pager> pager,
                      Pager::Open(path, popts));
  std::unique_ptr<Db> db(new Db(std::move(pager)));

  if (db->pager_->catalog_root() == kNoPage) {
    AutoTxn txn(*db->pager_);
    BP_ASSIGN_OR_RETURN(PageId root, BTree::Create(*db->pager_));
    BP_RETURN_IF_ERROR(db->pager_->SetCatalogRoot(root));
    BP_RETURN_IF_ERROR(txn.Commit());
  }
  db->catalog_ =
      std::make_unique<BTree>(*db->pager_, db->pager_->catalog_root());
  return db;
}

Result<BTree*> Db::CreateTree(const std::string& name) {
  BP_REQUIRE(!name.empty(), "tree name must be non-empty");
  auto existing = catalog_->Contains(name);
  BP_RETURN_IF_ERROR(existing.status());
  if (*existing) {
    return Status::AlreadyExists("tree exists: " + name);
  }
  AutoTxn txn(*pager_);
  BP_ASSIGN_OR_RETURN(PageId root, BTree::Create(*pager_));
  Writer w;
  w.PutU32(root);
  BP_RETURN_IF_ERROR(catalog_->Put(name, w.data()));
  BP_RETURN_IF_ERROR(txn.Commit());
  auto tree = std::make_unique<BTree>(*pager_, root);
  BTree* raw = tree.get();
  open_trees_[name] = std::move(tree);
  return raw;
}

Result<BTree*> Db::OpenTree(const std::string& name) {
  auto it = open_trees_.find(name);
  if (it != open_trees_.end()) return it->second.get();
  auto value = catalog_->Get(name);
  if (!value.ok()) {
    if (value.status().IsNotFound()) {
      return Status::NotFound("no such tree: " + name);
    }
    return value.status();
  }
  Reader r(*value);
  PageId root = r.ReadU32();
  BP_RETURN_IF_ERROR(r.Finish());
  auto tree = std::make_unique<BTree>(*pager_, root);
  BTree* raw = tree.get();
  open_trees_[name] = std::move(tree);
  return raw;
}

Result<BTree*> Db::OpenOrCreateTree(const std::string& name) {
  auto opened = OpenTree(name);
  if (opened.ok() || !opened.status().IsNotFound()) return opened;
  return CreateTree(name);
}

Status Db::DropTree(const std::string& name) {
  BP_ASSIGN_OR_RETURN(BTree * tree, OpenTree(name));
  AutoTxn txn(*pager_);
  BP_RETURN_IF_ERROR(tree->FreeAllPages());
  BP_RETURN_IF_ERROR(catalog_->Delete(name));
  BP_RETURN_IF_ERROR(txn.Commit());
  open_trees_.erase(name);
  return Status::Ok();
}

Result<std::vector<std::string>> Db::ListTrees() const {
  std::vector<std::string> names;
  BP_RETURN_IF_ERROR(
      catalog_->ForEach([&](std::string_view key, std::string_view) {
        names.emplace_back(key);
        return true;
      }));
  return names;
}

Result<SpaceReport> Db::Space() const {
  SpaceReport report;
  report.file_bytes = pager_->FileBytes();
  report.total_pages = pager_->page_count();
  report.free_pages = pager_->freelist_length();

  BP_ASSIGN_OR_RETURN(TreeStats catalog_stats, catalog_->Stats());
  report.catalog_pages = catalog_stats.TotalPages();

  // Collect (name, root) pairs first: Stats() walks pages and must not
  // run inside the catalog scan callback while it holds page pins.
  std::vector<std::pair<std::string, PageId>> entries;
  BP_RETURN_IF_ERROR(
      catalog_->ForEach([&](std::string_view key, std::string_view value) {
        Reader r(value);
        entries.emplace_back(std::string(key), r.ReadU32());
        return true;
      }));
  for (const auto& [name, root] : entries) {
    BTree tree(*pager_, root);
    BP_ASSIGN_OR_RETURN(TreeStats stats, tree.Stats());
    report.trees.push_back(SpaceEntry{name, stats});
  }
  return report;
}

}  // namespace bp::storage
