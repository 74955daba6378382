// GraphStore: a persistent property graph over the storage engine.
//
// Nodes and edges are typed (integer `kind` plus an AttrMap) and both
// directions of every edge are indexed, so ancestor queries (in-edges)
// and descendant queries (out-edges) are symmetric — the capability the
// paper's download-lineage use case depends on.
//
// Trees used (namespaced by `ns` so several graphs can share a Db and so
// SpaceReport can attribute bytes per schema):
//   <ns>.nodes : node id -> (kind, attrs)
//   <ns>.edges : edge id -> (src, dst, kind, attrs)
//   <ns>.out   : (src node id, edge id) -> ""   adjacency
//   <ns>.in    : (dst node id, edge id) -> ""   reverse adjacency
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/attr.hpp"
#include "graph/cursor.hpp"
#include "storage/db.hpp"
#include "storage/table.hpp"
#include "util/status.hpp"

namespace bp::graph {

class GraphStore {
 public:
  // Opens (creating if needed) the graph named `ns` inside `db`. The Db
  // must outlive the store.
  static util::Result<std::unique_ptr<GraphStore>> Open(storage::Db& db,
                                                        std::string ns);

  // A read-only handle on the SAME graph whose every read (cursors,
  // point lookups, Degree, counts) resolves through `snap` — the
  // snapshot-isolated query path. Safe to use from a reader thread
  // while this (live) store keeps ingesting; mutations on the returned
  // store are contract violations. `snap` and this store must outlive
  // the returned handle and every cursor obtained from it.
  GraphStore AtSnapshot(const storage::Snapshot& snap) const;
  bool snapshot_bound() const { return bound_trees_.bound(); }

  util::Result<NodeId> AddNode(uint32_t kind, AttrMap attrs = {});
  util::Result<Node> GetNode(NodeId id) const;
  util::Status PutNode(const Node& node);  // updates kind/attrs in place
  util::Result<bool> HasNode(NodeId id) const;

  // Adds an edge; both endpoints must exist.
  util::Result<EdgeId> AddEdge(NodeId src, NodeId dst, uint32_t kind,
                               AttrMap attrs = {});
  util::Result<Edge> GetEdge(EdgeId id) const;
  util::Status PutEdge(const Edge& edge);  // kind/attrs only (not src/dst)
  util::Status DeleteEdge(EdgeId id);

  // ------------------------------------------------------- cursors
  //
  // The read path. Cursors decode lazily (see graph/cursor.hpp) and bump
  // `stats` (when given) with the rows they touch.

  // Edges leaving (kOut) or entering (kIn) `node`, ascending edge id.
  EdgeCursor Edges(NodeId node, Direction dir,
                   QueryStats* stats = nullptr) const;
  // Every edge, ascending edge id.
  EdgeCursor Edges(QueryStats* stats = nullptr) const;
  // Every node with id >= `min_id`, ascending.
  NodeCursor Nodes(NodeId min_id = 1, QueryStats* stats = nullptr) const;

  // Lazily-decoded point lookups (kind without AttrMap materialization).
  util::Result<NodeRef> GetNodeRef(NodeId id,
                                   QueryStats* stats = nullptr) const;
  util::Result<EdgeRef> GetEdgeRef(EdgeId id,
                                   QueryStats* stats = nullptr) const;

  // Degree in the given direction (counts edges, not distinct neighbors).
  // Counts adjacency cells per leaf (BTree::CountRange) without decoding
  // a single edge row.
  util::Result<uint64_t> Degree(NodeId node, Direction dir) const;

  util::Result<uint64_t> NodeCount() const;
  util::Result<uint64_t> EdgeCount() const;

  storage::Db& db() { return db_; }
  const std::string& ns() const { return ns_; }

 private:
  struct NodeRec {
    uint32_t kind = 0;
    AttrMap attrs;
  };
  struct EdgeRec {
    NodeId src = 0;
    NodeId dst = 0;
    uint32_t kind = 0;
    AttrMap attrs;
  };
  friend struct storage::RowCodec<NodeRec>;
  friend struct storage::RowCodec<EdgeRec>;

  GraphStore(storage::Db& db, std::string ns) : db_(db), ns_(std::move(ns)) {}

  storage::Db& db_;
  std::string ns_;
  storage::BTree* nodes_tree_ = nullptr;
  storage::BTree* edges_tree_ = nullptr;
  storage::BTree* out_tree_ = nullptr;
  storage::BTree* in_tree_ = nullptr;
  // Snapshot-bound handles (AtSnapshot): the tree pointers above point
  // into this owned storage instead of the Db's live handles.
  storage::BoundTrees bound_trees_;
};

}  // namespace bp::graph
