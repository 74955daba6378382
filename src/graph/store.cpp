#include "graph/store.hpp"

#include "storage/pager.hpp"
#include "util/require.hpp"
#include "util/serde.hpp"

namespace bp::storage {

// Row codecs live in bp::storage so Table<Row> finds them.
template <>
struct RowCodec<graph::GraphStore::NodeRec> {
  static void Encode(const graph::GraphStore::NodeRec& row,
                     util::Writer& w) {
    w.PutVarint64(row.kind);
    row.attrs.Encode(w);
  }
  static util::Result<graph::GraphStore::NodeRec> Decode(util::Reader& r) {
    graph::GraphStore::NodeRec row;
    row.kind = static_cast<uint32_t>(r.ReadVarint64());
    BP_ASSIGN_OR_RETURN(row.attrs, graph::AttrMap::Decode(r));
    return row;
  }
};

template <>
struct RowCodec<graph::GraphStore::EdgeRec> {
  static void Encode(const graph::GraphStore::EdgeRec& row,
                     util::Writer& w) {
    w.PutVarint64(row.src);
    w.PutVarint64(row.dst);
    w.PutVarint64(row.kind);
    row.attrs.Encode(w);
  }
  static util::Result<graph::GraphStore::EdgeRec> Decode(util::Reader& r) {
    graph::GraphStore::EdgeRec row;
    row.src = r.ReadVarint64();
    row.dst = r.ReadVarint64();
    row.kind = static_cast<uint32_t>(r.ReadVarint64());
    BP_ASSIGN_OR_RETURN(row.attrs, graph::AttrMap::Decode(r));
    return row;
  }
};

}  // namespace bp::storage

namespace bp::graph {

using storage::AutoTxn;
using storage::Table;
using util::OrderedKeyU64Pair;
using util::Result;
using util::Status;

Result<std::unique_ptr<GraphStore>> GraphStore::Open(storage::Db& db,
                                                     std::string ns) {
  std::unique_ptr<GraphStore> store(new GraphStore(db, std::move(ns)));
  BP_ASSIGN_OR_RETURN(store->nodes_tree_,
                      db.OpenOrCreateTree(store->ns_ + ".nodes"));
  BP_ASSIGN_OR_RETURN(store->edges_tree_,
                      db.OpenOrCreateTree(store->ns_ + ".edges"));
  BP_ASSIGN_OR_RETURN(store->out_tree_,
                      db.OpenOrCreateTree(store->ns_ + ".out"));
  BP_ASSIGN_OR_RETURN(store->in_tree_,
                      db.OpenOrCreateTree(store->ns_ + ".in"));
  return store;
}

GraphStore GraphStore::AtSnapshot(const storage::Snapshot& snap) const {
  GraphStore view(db_, ns_);
  view.nodes_tree_ = view.bound_trees_.Bind(snap, nodes_tree_);
  view.edges_tree_ = view.bound_trees_.Bind(snap, edges_tree_);
  view.out_tree_ = view.bound_trees_.Bind(snap, out_tree_);
  view.in_tree_ = view.bound_trees_.Bind(snap, in_tree_);
  return view;
}

Result<NodeId> GraphStore::AddNode(uint32_t kind, AttrMap attrs) {
  BP_REQUIRE(!snapshot_bound(), "AddNode on a snapshot-bound graph");
  Table<NodeRec> nodes(nodes_tree_);
  return nodes.Insert(NodeRec{kind, std::move(attrs)});
}

Result<Node> GraphStore::GetNode(NodeId id) const {
  Table<NodeRec> nodes(nodes_tree_);
  BP_ASSIGN_OR_RETURN(NodeRec rec, nodes.Get(id));
  return Node{id, rec.kind, std::move(rec.attrs)};
}

Status GraphStore::PutNode(const Node& node) {
  BP_REQUIRE(!snapshot_bound(), "PutNode on a snapshot-bound graph");
  Table<NodeRec> nodes(nodes_tree_);
  BP_ASSIGN_OR_RETURN(bool exists, nodes.Contains(node.id));
  if (!exists) {
    return Status::NotFound("PutNode: no such node");
  }
  return nodes.Put(node.id, NodeRec{node.kind, node.attrs});
}

Result<bool> GraphStore::HasNode(NodeId id) const {
  Table<NodeRec> nodes(nodes_tree_);
  return nodes.Contains(id);
}

Result<EdgeId> GraphStore::AddEdge(NodeId src, NodeId dst, uint32_t kind,
                                   AttrMap attrs) {
  BP_REQUIRE(!snapshot_bound(), "AddEdge on a snapshot-bound graph");
  BP_ASSIGN_OR_RETURN(bool has_src, HasNode(src));
  BP_ASSIGN_OR_RETURN(bool has_dst, HasNode(dst));
  if (!has_src || !has_dst) {
    return Status::FailedPrecondition("AddEdge: endpoint does not exist");
  }
  AutoTxn txn(db_.pager());
  Table<EdgeRec> edges(edges_tree_);
  BP_ASSIGN_OR_RETURN(EdgeId id,
                      edges.Insert(EdgeRec{src, dst, kind, std::move(attrs)}));
  BP_RETURN_IF_ERROR(out_tree_->Put(OrderedKeyU64Pair(src, id), {}));
  BP_RETURN_IF_ERROR(in_tree_->Put(OrderedKeyU64Pair(dst, id), {}));
  BP_RETURN_IF_ERROR(txn.Commit());
  return id;
}

Result<Edge> GraphStore::GetEdge(EdgeId id) const {
  Table<EdgeRec> edges(edges_tree_);
  BP_ASSIGN_OR_RETURN(EdgeRec rec, edges.Get(id));
  return Edge{id, rec.src, rec.dst, rec.kind, std::move(rec.attrs)};
}

Status GraphStore::PutEdge(const Edge& edge) {
  BP_REQUIRE(!snapshot_bound(), "PutEdge on a snapshot-bound graph");
  Table<EdgeRec> edges(edges_tree_);
  BP_ASSIGN_OR_RETURN(EdgeRec old, edges.Get(edge.id));
  BP_REQUIRE(old.src == edge.src && old.dst == edge.dst,
             "PutEdge cannot rewire endpoints; delete and re-add");
  return edges.Put(edge.id, EdgeRec{edge.src, edge.dst, edge.kind,
                                    edge.attrs});
}

Status GraphStore::DeleteEdge(EdgeId id) {
  BP_REQUIRE(!snapshot_bound(), "DeleteEdge on a snapshot-bound graph");
  Table<EdgeRec> edges(edges_tree_);
  BP_ASSIGN_OR_RETURN(EdgeRec rec, edges.Get(id));
  AutoTxn txn(db_.pager());
  BP_RETURN_IF_ERROR(out_tree_->Delete(OrderedKeyU64Pair(rec.src, id)));
  BP_RETURN_IF_ERROR(in_tree_->Delete(OrderedKeyU64Pair(rec.dst, id)));
  BP_RETURN_IF_ERROR(edges.Delete(id));
  return txn.Commit();
}

EdgeCursor GraphStore::Edges(NodeId node, Direction dir,
                             QueryStats* stats) const {
  const storage::BTree* tree =
      dir == Direction::kOut ? out_tree_ : in_tree_;
  return EdgeCursor(tree, edges_tree_, node, stats);
}

EdgeCursor GraphStore::Edges(QueryStats* stats) const {
  return EdgeCursor(edges_tree_, stats);
}

NodeCursor GraphStore::Nodes(NodeId min_id, QueryStats* stats) const {
  return NodeCursor(nodes_tree_, min_id, stats);
}

Result<NodeRef> GraphStore::GetNodeRef(NodeId id, QueryStats* stats) const {
  BP_ASSIGN_OR_RETURN(std::string row,
                      nodes_tree_->Get(util::OrderedKeyU64(id)));
  if (stats != nullptr) ++stats->rows_scanned;
  NodeRef ref;
  BP_RETURN_IF_ERROR(ref.Assign(id, std::move(row)));
  return ref;
}

Result<EdgeRef> GraphStore::GetEdgeRef(EdgeId id, QueryStats* stats) const {
  BP_ASSIGN_OR_RETURN(std::string row,
                      edges_tree_->Get(util::OrderedKeyU64(id)));
  if (stats != nullptr) ++stats->rows_scanned;
  EdgeRef ref;
  BP_RETURN_IF_ERROR(ref.Assign(id, std::move(row)));
  return ref;
}

Result<uint64_t> GraphStore::Degree(NodeId node, Direction dir) const {
  storage::BTree* tree = dir == Direction::kOut ? out_tree_ : in_tree_;
  std::string lo = OrderedKeyU64Pair(node, 0);
  std::string hi =
      node == UINT64_MAX ? std::string{} : OrderedKeyU64Pair(node + 1, 0);
  return tree->CountRange(lo, hi);
}

Result<uint64_t> GraphStore::NodeCount() const {
  Table<NodeRec> nodes(nodes_tree_);
  return nodes.Count();
}

Result<uint64_t> GraphStore::EdgeCount() const {
  Table<EdgeRec> edges(edges_tree_);
  return edges.Count();
}

}  // namespace bp::graph
