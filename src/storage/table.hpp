// Typed row storage and secondary indexes over B+trees.
//
// Table<Row> stores rows keyed by an auto-assigned uint64 id (big-endian
// encoded so scans return insertion order). RowCodec<Row> must be
// specialized per row type:
//
//   template <> struct RowCodec<MyRow> {
//     static void Encode(const MyRow& row, util::Writer& w);
//     static util::Result<MyRow> Decode(util::Reader& r);
//   };
//
// Index maps string keys to row ids (multi-map). Entry layout is
// key + '\0' + big-endian row id, which keeps entries grouped by key and
// ordered by id; user keys must therefore not contain NUL bytes (numeric
// composite keys should use OrderedKeyU64Pair on a raw BTree instead).
//
// Snapshot reads: Table and Index are thin typed views over a BTree, so
// constructing them over a snapshot-bound handle (BTree::BoundAt) makes
// every Get/Scan/Cursor/FirstEqual read through that storage::Snapshot —
// safe on reader threads while the writer commits — and every mutation
// a contract violation. No separate plumbing is needed here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>

#include "storage/btree.hpp"
#include "util/require.hpp"
#include "util/serde.hpp"
#include "util/status.hpp"

namespace bp::storage {

template <typename Row>
struct RowCodec;  // specialize per row type

namespace internal {
// Row id 0 is reserved for the id-allocator cell.
inline const std::string kMetaKey = util::OrderedKeyU64(0);
}  // namespace internal

template <typename Row>
class Table {
 public:
  explicit Table(BTree* tree) : tree_(tree) {
    BP_REQUIRE(tree != nullptr);
  }

  // Appends a row, returning its assigned id (ids start at 1 and are
  // never reused).
  util::Result<uint64_t> Insert(const Row& row) {
    uint64_t id = 1;
    auto meta = tree_->Get(internal::kMetaKey);
    if (meta.ok()) {
      util::Reader r(*meta);
      id = r.ReadU64();
      BP_RETURN_IF_ERROR(r.Finish());
    } else if (!meta.status().IsNotFound()) {
      return meta.status();
    }
    BP_RETURN_IF_ERROR(Put(id, row));
    util::Writer w;
    w.PutU64(id + 1);
    BP_RETURN_IF_ERROR(tree_->Put(internal::kMetaKey, w.data()));
    return id;
  }

  util::Status Put(uint64_t id, const Row& row) {
    BP_REQUIRE(id != 0, "row id 0 is reserved");
    util::Writer w;
    RowCodec<Row>::Encode(row, w);
    return tree_->Put(util::OrderedKeyU64(id), w.data());
  }

  util::Result<Row> Get(uint64_t id) const {
    BP_ASSIGN_OR_RETURN(std::string raw,
                        tree_->Get(util::OrderedKeyU64(id)));
    util::Reader r(raw);
    BP_ASSIGN_OR_RETURN(Row row, RowCodec<Row>::Decode(r));
    BP_RETURN_IF_ERROR(r.Finish());
    return row;
  }

  util::Status Delete(uint64_t id) {
    return tree_->Delete(util::OrderedKeyU64(id));
  }

  util::Result<bool> Contains(uint64_t id) const {
    return tree_->Contains(util::OrderedKeyU64(id));
  }

  // Forward iterator over rows in id order, skipping the allocator cell.
  // Decode is lazy: row() parses the encoded bytes only when called, so
  // scans that filter on id alone never pay it.
  //
  //   for (auto cur = table.Scan(); cur.Valid(); cur.Next()) { ... }
  //   BP_RETURN_IF_ERROR(cur.status());
  class Cursor {
   public:
    Cursor() = default;

    // Positions at the first row with id >= `min_id`.
    void Seek(uint64_t min_id) {
      inner_.Seek(util::OrderedKeyU64(std::max<uint64_t>(min_id, 1)));
      SkipMeta();
    }

    void Next() {
      inner_.Next();
      SkipMeta();
    }
    bool Valid() const { return inner_.Valid(); }
    const util::Status& status() const { return inner_.status(); }
    uint64_t rows_scanned() const { return inner_.rows_scanned(); }

    uint64_t id() const { return util::DecodeOrderedKeyU64(inner_.key()); }
    std::string_view raw() const { return inner_.value(); }
    util::Result<Row> row() const {
      util::Reader r(inner_.value());
      BP_ASSIGN_OR_RETURN(Row row, RowCodec<Row>::Decode(r));
      BP_RETURN_IF_ERROR(r.Finish());
      return row;
    }

   private:
    friend class Table;
    explicit Cursor(BTree::Cursor inner) : inner_(std::move(inner)) {}
    void SkipMeta() {
      while (inner_.Valid() && inner_.key() == internal::kMetaKey) {
        inner_.Next();
      }
    }
    BTree::Cursor inner_;
  };

  // Cursor over rows with id >= `min_id` (default: all rows).
  Cursor Scan(uint64_t min_id = 1) const {
    Cursor cur(tree_->NewCursor());
    cur.Seek(min_id);
    return cur;
  }

  util::Result<uint64_t> Count() const {
    BP_ASSIGN_OR_RETURN(uint64_t n, tree_->Count());
    // Exclude the allocator cell when present.
    auto meta = tree_->Contains(internal::kMetaKey);
    BP_RETURN_IF_ERROR(meta.status());
    return *meta ? n - 1 : n;
  }

  BTree* tree() { return tree_; }

 private:
  BTree* tree_;
};

// Secondary index: string key -> set of row ids.
class Index {
 public:
  explicit Index(BTree* tree) : tree_(tree) {
    BP_REQUIRE(tree != nullptr);
  }

  util::Status Add(std::string_view key, uint64_t row_id) {
    return tree_->Put(Entry(key, row_id), {});
  }

  util::Status Remove(std::string_view key, uint64_t row_id) {
    return tree_->Delete(Entry(key, row_id));
  }

  // Smallest row id mapped to exactly `key`, or 0 when the key is absent
  // (row ids start at 1). The point-lookup path for unique indexes.
  util::Result<uint64_t> FirstEqual(std::string_view key) const {
    std::string prefix(key);
    prefix.push_back('\0');
    BTree::Cursor cur = tree_->NewCursor();
    cur.SeekPrefix(prefix);
    BP_RETURN_IF_ERROR(cur.status());
    if (!cur.Valid()) return uint64_t{0};
    return util::DecodeOrderedKeyU64(
        cur.key().substr(cur.key().size() - 8));
  }

  util::Result<bool> Contains(std::string_view key, uint64_t row_id) const {
    return tree_->Contains(Entry(key, row_id));
  }

 private:
  static std::string Entry(std::string_view key, uint64_t row_id) {
    BP_REQUIRE(key.find('\0') == std::string_view::npos,
               "index keys must not contain NUL");
    std::string entry(key);
    entry.push_back('\0');
    entry += util::OrderedKeyU64(row_id);
    return entry;
  }

  BTree* tree_;
};

}  // namespace bp::storage
