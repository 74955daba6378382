// Cursor-based read path for the property graph.
//
// Every graph query used to thread std::function callbacks from
// BTree::ForEach up through GraphStore::ForEachEdge, paying a
// type-erased call plus a full row decode (AttrMap included) per edge
// and smuggling early-exit and errors through captured state. Cursors
// invert that: the caller pulls, early exit is `break`, errors surface
// once via status(), and decode is lazy — EdgeRef/NodeRef expose
// src/dst/kind (resp. kind) straight from the varint prefix of the
// encoded row and only materialize the AttrMap on demand, which is the
// win on high-degree nodes whose traversals filter on kind alone.
//
// Work accounting: every cursor bumps a QueryStats (shared by all the
// use-case queries) so each query result reports how much of the store
// it touched.
//
// Snapshot reads: these cursors take whatever BTree handles they are
// given. Handed the live trees (GraphStore::Edges/Nodes on the live
// store) they read the pager's current state; handed snapshot-bound
// trees (GraphStore::AtSnapshot) every page they touch resolves through
// the storage::Snapshot — same cursor code, frozen view, safe on reader
// threads while the writer commits.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "graph/attr.hpp"
#include "storage/btree.hpp"
#include "util/budget.hpp"
#include "util/serde.hpp"
#include "util/status.hpp"

namespace bp::graph {

using NodeId = uint64_t;
using EdgeId = uint64_t;

struct Node {
  NodeId id = 0;
  uint32_t kind = 0;
  AttrMap attrs;
};

struct Edge {
  EdgeId id = 0;
  NodeId src = 0;
  NodeId dst = 0;
  uint32_t kind = 0;
  AttrMap attrs;
};

enum class Direction { kOut, kIn };

// Work performed by a cursor-based query. Returned (populated) by every
// traversal and use-case query so callers can see what a query cost —
// the paper's "bound to that time" claim needs the denominator.
struct QueryStats {
  uint64_t rows_scanned = 0;    // storage rows read (adjacency + records)
  uint64_t edges_expanded = 0;  // edges considered by traversal logic
  uint64_t nodes_visited = 0;   // nodes popped/visited by traversals
  uint64_t budget_used = 0;     // QueryBudget units charged
  // Page-level cost under snapshot reads: images served from the shared
  // buffer pool vs. fetched from the log/database file. Zero on the live
  // (mid-batch) path, where pages go through the writer cache instead
  // (PagerStats).
  uint64_t pool_hits = 0;
  uint64_t pages_fetched = 0;   // pool misses: log/database file reads

  QueryStats& operator+=(const QueryStats& other) {
    rows_scanned += other.rows_scanned;
    edges_expanded += other.edges_expanded;
    nodes_visited += other.nodes_visited;
    budget_used += other.budget_used;
    pool_hits += other.pool_hits;
    pages_fetched += other.pages_fetched;
    return *this;
  }
  std::string ToString() const;
};

// Accumulates the budget units a query charged into its QueryStats on
// every exit path. Budgets are often shared across the stages of one
// user-facing query, so the delta over the scope is what this stage
// used. A null budget makes the scope a no-op.
//
// When the stats live inside a local that is returned by value into a
// Result<T>, the move happens BEFORE this destructor runs — call
// Flush() just before such a return so the delta lands in the live
// object (the destructor then adds nothing).
class BudgetScope {
 public:
  BudgetScope(util::QueryBudget* budget, QueryStats* stats)
      : budget_(budget), stats_(stats),
        start_(budget != nullptr ? budget->used() : 0) {}
  ~BudgetScope() { Flush(); }
  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

  // Folds the delta so far into the stats; further charges start a new
  // delta, so a Flush followed by the destructor double-counts nothing.
  void Flush() {
    if (budget_ == nullptr) return;
    stats_->budget_used += budget_->used() - start_;
    start_ = budget_->used();
  }

 private:
  util::QueryBudget* budget_;
  QueryStats* stats_;
  uint64_t start_;
};

// A lazily-decoded edge: id/src/dst/kind come from the fixed varint
// prefix of the encoded row; the AttrMap bytes are kept raw until
// attrs() or Materialize() asks for them.
class EdgeRef {
 public:
  EdgeRef() = default;

  EdgeId id() const { return id_; }
  NodeId src() const { return src_; }
  NodeId dst() const { return dst_; }
  uint32_t kind() const { return kind_; }
  // The node on the far side when iterating edges of a node: dst for
  // out-edges, src for in-edges.
  NodeId neighbor(Direction dir) const {
    return dir == Direction::kOut ? dst_ : src_;
  }

  // Decodes the attribute map (the expensive part) on demand.
  util::Result<AttrMap> attrs() const;
  util::Result<Edge> Materialize() const;

 private:
  friend class EdgeCursor;
  friend class GraphStore;
  util::Status Assign(EdgeId id, std::string row);

  EdgeId id_ = 0;
  NodeId src_ = 0;
  NodeId dst_ = 0;
  uint32_t kind_ = 0;
  std::string row_;        // full encoded row
  size_t attr_offset_ = 0; // where the AttrMap bytes start in row_
};

// A lazily-decoded node (kind from the varint prefix, attrs on demand).
class NodeRef {
 public:
  NodeRef() = default;

  NodeId id() const { return id_; }
  uint32_t kind() const { return kind_; }
  util::Result<AttrMap> attrs() const;
  util::Result<Node> Materialize() const;

 private:
  friend class NodeCursor;
  friend class GraphStore;
  util::Status Assign(NodeId id, std::string row);

  NodeId id_ = 0;
  uint32_t kind_ = 0;
  std::string row_;
  size_t attr_offset_ = 0;
};

// Iterates edges — either the adjacency of one node in one direction
// (ascending edge id) or the whole edge table. Obtained from
// GraphStore::Edges.
//
//   for (EdgeCursor cur = store.Edges(n, Direction::kOut, &stats);
//        cur.Valid(); cur.Next()) {
//     const EdgeRef& e = cur.edge();
//     ...
//   }
//   BP_RETURN_IF_ERROR(cur.status());
class EdgeCursor {
 public:
  EdgeCursor() = default;

  // Adjacency of `node`: `adjacency` is the (node id, edge id) tree for
  // the wanted direction, `edges` the edge-record table's tree.
  EdgeCursor(const storage::BTree* adjacency, const storage::BTree* edges,
             NodeId node, QueryStats* stats);
  // Full scan of the edge table.
  EdgeCursor(const storage::BTree* edges, QueryStats* stats);

  bool Valid() const { return valid_; }
  void Next();
  // Current edge; Valid() must be true. The reference is reused by
  // Next(), so copy what must outlive the step.
  const EdgeRef& edge() const { return ref_; }
  const util::Status& status() const { return status_; }

 private:
  void Load();
  void Fail(util::Status status);
  void Count(uint64_t rows);

  const storage::BTree* edges_ = nullptr;
  storage::BTree::Cursor cur_;  // over the adjacency tree or edge table
  bool adjacency_ = false;
  EdgeRef ref_;
  bool valid_ = false;
  util::Status status_;
  QueryStats* stats_ = nullptr;
};

// Iterates nodes in ascending id order, optionally from a starting id —
// incremental consumers (e.g. the text indexer's watermark) seek
// straight to the first unseen node instead of scanning from the top.
class NodeCursor {
 public:
  NodeCursor() = default;
  NodeCursor(const storage::BTree* nodes, NodeId min_id, QueryStats* stats);

  bool Valid() const { return valid_; }
  void Next();
  const NodeRef& node() const { return ref_; }
  const util::Status& status() const { return status_; }

 private:
  void Load();
  void Count(uint64_t rows);

  storage::BTree::Cursor cur_;
  NodeRef ref_;
  bool valid_ = false;
  util::Status status_;
  QueryStats* stats_ = nullptr;
};

}  // namespace bp::graph
