// Cursor contracts: BTree::Cursor, Table<T>::Cursor, and the graph
// cursors (EdgeCursor / NodeCursor), including resilience to writes
// interleaved with iteration and equivalence with the deprecated
// ForEach* wrappers on randomized graphs.
#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/cursor.hpp"
#include "graph/store.hpp"
#include "storage/btree.hpp"
#include "storage/db.hpp"
#include "storage/env.hpp"
#include "storage/table.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace bp::storage {
namespace {

using util::OrderedKeyU64;

class BTreeCursorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PagerOptions opts;
    opts.env = &env_;
    auto pager = Pager::Open("db", opts);
    ASSERT_TRUE(pager.ok());
    pager_ = std::move(*pager);
    ASSERT_TRUE(pager_->Begin().ok());
    auto root = BTree::Create(*pager_);
    ASSERT_TRUE(root.ok());
    ASSERT_TRUE(pager_->Commit().ok());
    tree_ = std::make_unique<BTree>(*pager_, *root);
  }

  std::vector<std::string> Collect(BTree::Cursor& cur) {
    std::vector<std::string> keys;
    for (; cur.Valid(); cur.Next()) keys.emplace_back(cur.key());
    EXPECT_TRUE(cur.status().ok()) << cur.status().ToString();
    return keys;
  }

  MemEnv env_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeCursorTest, EmptyTree) {
  BTree::Cursor cur = tree_->NewCursor();
  cur.SeekFirst();
  EXPECT_FALSE(cur.Valid());
  EXPECT_TRUE(cur.status().ok());
  cur.Seek("anything");
  EXPECT_FALSE(cur.Valid());
  cur.SeekPrefix("p");
  EXPECT_FALSE(cur.Valid());
  cur.Next();  // Next past end on an empty tree is a safe no-op
  EXPECT_FALSE(cur.Valid());
  EXPECT_TRUE(cur.status().ok());
}

TEST_F(BTreeCursorTest, SeekLandsOnLowerBound) {
  ASSERT_TRUE(tree_->Put("b", "1").ok());
  ASSERT_TRUE(tree_->Put("d", "2").ok());
  BTree::Cursor cur = tree_->NewCursor();
  cur.Seek("a");
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.key(), "b");
  cur.Seek("b");
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.key(), "b");
  cur.Seek("c");
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.key(), "d");
  EXPECT_EQ(cur.value(), "2");
  cur.Seek("e");
  EXPECT_FALSE(cur.Valid());
}

TEST_F(BTreeCursorTest, NextPastEndStays) {
  ASSERT_TRUE(tree_->Put("only", "v").ok());
  BTree::Cursor cur = tree_->NewCursor();
  cur.SeekFirst();
  ASSERT_TRUE(cur.Valid());
  cur.Next();
  EXPECT_FALSE(cur.Valid());
  cur.Next();  // extra Next calls are safe no-ops
  cur.Next();
  EXPECT_FALSE(cur.Valid());
  EXPECT_TRUE(cur.status().ok());
}

TEST_F(BTreeCursorTest, PrefixBoundaries) {
  // Keys around every edge of the "ab" prefix range, including one that
  // extends the prefix with 0xff bytes.
  for (const char* key : {"a", "ab", "abz", "ac", "b"}) {
    ASSERT_TRUE(tree_->Put(key, "v").ok());
  }
  std::string high("ab");
  high.push_back('\xff');
  ASSERT_TRUE(tree_->Put(high, "v").ok());

  BTree::Cursor cur = tree_->NewCursor();
  cur.SeekPrefix("ab");
  EXPECT_EQ(Collect(cur), (std::vector<std::string>{"ab", "abz", high}));

  cur.SeekPrefix("ac");
  EXPECT_EQ(Collect(cur), (std::vector<std::string>{"ac"}));

  cur.SeekPrefix("abzz");
  EXPECT_TRUE(Collect(cur).empty());

  // A Seek after a SeekPrefix clears the bound.
  cur.Seek("ac");
  EXPECT_EQ(Collect(cur), (std::vector<std::string>{"ac", "b"}));
}

TEST_F(BTreeCursorTest, PrefixAcrossLeafBoundaries) {
  // Enough same-prefix keys to split leaves; the bound must hold across
  // the leaf chain.
  for (const char* prefix : {"p", "q"}) {
    for (int i = 0; i < 500; ++i) {
      std::string key = prefix;
      key += OrderedKeyU64(i);
      ASSERT_TRUE(tree_->Put(key, "v").ok());
    }
  }
  BTree::Cursor cur = tree_->NewCursor();
  cur.SeekPrefix("p");
  EXPECT_EQ(Collect(cur).size(), 500u);
}

TEST_F(BTreeCursorTest, OverflowValuesMaterialize) {
  std::string big(50000, 'x');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i % 26));
  }
  ASSERT_TRUE(tree_->Put("big", big).ok());
  ASSERT_TRUE(tree_->Put("small", "s").ok());
  BTree::Cursor cur = tree_->NewCursor();
  cur.SeekFirst();
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.key(), "big");
  EXPECT_EQ(cur.value(), big);
  cur.Next();
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.value(), "s");
}

TEST_F(BTreeCursorTest, DeleteCurrentKeyBetweenSeekAndNext) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree_->Put(OrderedKeyU64(i), "v").ok());
  }
  BTree::Cursor cur = tree_->NewCursor();
  cur.SeekFirst();
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.key(), OrderedKeyU64(0));
  // Delete the entry under the cursor; Next must land on the successor.
  ASSERT_TRUE(tree_->Delete(OrderedKeyU64(0)).ok());
  cur.Next();
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.key(), OrderedKeyU64(1));
  // Delete the entry AHEAD of the cursor; Next must skip past it.
  ASSERT_TRUE(tree_->Delete(OrderedKeyU64(2)).ok());
  cur.Next();
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.key(), OrderedKeyU64(3));
}

TEST_F(BTreeCursorTest, InsertsDuringIterationAreSeenAhead) {
  ASSERT_TRUE(tree_->Put(OrderedKeyU64(0), "v").ok());
  ASSERT_TRUE(tree_->Put(OrderedKeyU64(10), "v").ok());
  BTree::Cursor cur = tree_->NewCursor();
  cur.SeekFirst();
  ASSERT_TRUE(cur.Valid());
  // Insert between the current key and the next: the cursor sees it.
  ASSERT_TRUE(tree_->Put(OrderedKeyU64(5), "v").ok());
  cur.Next();
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.key(), OrderedKeyU64(5));
  cur.Next();
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.key(), OrderedKeyU64(10));
}

TEST_F(BTreeCursorTest, SurvivesLeafSplitsMidIteration) {
  // Iterate while a bulk load splits pages under the cursor. Every key
  // present at Seek time and never deleted must still be returned.
  const int kInitial = 200;
  for (int i = 0; i < kInitial; ++i) {
    std::string key = "k";
    key += OrderedKeyU64(i * 2);
    ASSERT_TRUE(tree_->Put(key, "v").ok());
  }
  BTree::Cursor cur = tree_->NewCursor();
  cur.SeekFirst();
  int seen = 0;
  int injected = 0;
  for (; cur.Valid(); cur.Next()) {
    if (seen % 10 == 0 && injected < 300) {
      // Odd keys sort between existing even ones, forcing splits.
      std::string key = "k";
      key += OrderedKeyU64(injected * 2 + 1);
      ASSERT_TRUE(tree_->Put(key, "v").ok());
      ++injected;
    }
    ++seen;
  }
  ASSERT_TRUE(cur.status().ok());
  // All initial keys plus any injected keys ahead of the scan point.
  EXPECT_GE(seen, kInitial);
}

TEST_F(BTreeCursorTest, CountRangeMatchesScan) {
  util::Rng rng(7);
  std::set<std::string> keys;
  for (int i = 0; i < 800; ++i) {
    std::string key = OrderedKeyU64(rng.Uniform(100000));
    ASSERT_TRUE(tree_->Put(key, "v").ok());
    keys.insert(key);
  }
  auto count_scan = [&](const std::string& lo, const std::string& hi) {
    uint64_t n = 0;
    for (const std::string& k : keys) {
      if (!lo.empty() && k < lo) continue;
      if (!hi.empty() && k >= hi) continue;
      ++n;
    }
    return n;
  };
  for (auto [lo, hi] : std::vector<std::pair<uint64_t, uint64_t>>{
           {0, 100000}, {500, 700}, {0, 1}, {99999, 100000}, {300, 300}}) {
    auto got = tree_->CountRange(OrderedKeyU64(lo), OrderedKeyU64(hi));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, count_scan(OrderedKeyU64(lo), OrderedKeyU64(hi)))
        << "range [" << lo << ", " << hi << ")";
  }
  auto all = tree_->CountRange({}, {});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, keys.size());
}

// ------------------------------------------------------- Table cursor

struct TestRow {
  std::string name;
};

}  // namespace

template <>
struct RowCodec<TestRow> {
  static void Encode(const TestRow& row, util::Writer& w) {
    w.PutString(row.name);
  }
  static util::Result<TestRow> Decode(util::Reader& r) {
    TestRow row;
    row.name = std::string(r.ReadString());
    return row;
  }
};

namespace {

TEST_F(BTreeCursorTest, TableCursorSkipsMetaAndSeeks) {
  Table<TestRow> table(tree_.get());
  for (int i = 0; i < 20; ++i) {
    auto id = table.Insert(TestRow{"row" + std::to_string(i)});
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, static_cast<uint64_t>(i + 1));
  }
  // Full scan: ids 1..20, meta cell invisible.
  std::vector<uint64_t> ids;
  auto cur = table.Scan();
  for (; cur.Valid(); cur.Next()) {
    ids.push_back(cur.id());
    auto row = cur.row();
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->name, "row" + std::to_string(cur.id() - 1));
  }
  ASSERT_TRUE(cur.status().ok());
  ASSERT_EQ(ids.size(), 20u);
  EXPECT_EQ(ids.front(), 1u);
  EXPECT_EQ(ids.back(), 20u);

  // Watermark-style seek.
  auto tail = table.Scan(/*min_id=*/15);
  std::vector<uint64_t> tail_ids;
  for (; tail.Valid(); tail.Next()) tail_ids.push_back(tail.id());
  EXPECT_EQ(tail_ids, (std::vector<uint64_t>{15, 16, 17, 18, 19, 20}));
}

}  // namespace
}  // namespace bp::storage

// ------------------------------------------------------ graph cursors

namespace bp::graph {
namespace {

class GraphCursorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage::DbOptions opts;
    opts.env = &env_;
    auto db = storage::Db::Open("graph.db", opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto store = GraphStore::Open(*db_, "g");
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
  }

  storage::MemEnv env_;
  std::unique_ptr<storage::Db> db_;
  std::unique_ptr<GraphStore> store_;
};

// What the test added, kept beside the store: edge id -> endpoints,
// kind and the "w" attribute. A std::map iterates in edge-id order, the
// order every edge cursor yields.
struct ModelEdge {
  NodeId src = 0;
  NodeId dst = 0;
  uint32_t kind = 0;
  int64_t w = 0;
};

TEST_F(GraphCursorTest, EdgeCursorMatchesModelOnRandomGraph) {
  util::Rng rng(2009);
  const int kNodes = 60;
  std::vector<NodeId> nodes;
  for (int i = 0; i < kNodes; ++i) {
    auto id = store_->AddNode(static_cast<uint32_t>(rng.Uniform(4)));
    ASSERT_TRUE(id.ok());
    nodes.push_back(*id);
  }
  std::map<EdgeId, ModelEdge> model;
  for (int i = 0; i < 400; ++i) {
    NodeId src = nodes[rng.Uniform(kNodes)];
    NodeId dst = nodes[rng.Uniform(kNodes)];
    const auto kind = static_cast<uint32_t>(rng.Uniform(8));
    AttrMap attrs;
    attrs.SetInt("w", static_cast<int64_t>(i));
    auto id = store_->AddEdge(src, dst, kind, attrs);
    ASSERT_TRUE(id.ok());
    model[*id] = ModelEdge{src, dst, kind, static_cast<int64_t>(i)};
  }

  for (NodeId node : nodes) {
    for (Direction dir : {Direction::kOut, Direction::kIn}) {
      // Reference enumeration: the model's edges at this end of `node`.
      std::vector<std::pair<EdgeId, ModelEdge>> expected;
      for (const auto& [id, e] : model) {
        if ((dir == Direction::kOut ? e.src : e.dst) == node) {
          expected.emplace_back(id, e);
        }
      }
      // Cursor enumeration with full materialization.
      QueryStats stats;
      std::vector<Edge> got;
      EdgeCursor cur = store_->Edges(node, dir, &stats);
      for (; cur.Valid(); cur.Next()) {
        EXPECT_EQ(cur.edge().neighbor(dir),
                  dir == Direction::kOut ? cur.edge().dst()
                                         : cur.edge().src());
        auto edge = cur.edge().Materialize();
        ASSERT_TRUE(edge.ok());
        got.push_back(*std::move(edge));
      }
      ASSERT_TRUE(cur.status().ok());

      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i].first);
        EXPECT_EQ(got[i].src, expected[i].second.src);
        EXPECT_EQ(got[i].dst, expected[i].second.dst);
        EXPECT_EQ(got[i].kind, expected[i].second.kind);
        EXPECT_EQ(got[i].attrs.GetInt("w"), expected[i].second.w);
      }
      // Degree (cursor counting) agrees with both.
      auto degree = store_->Degree(node, dir);
      ASSERT_TRUE(degree.ok());
      EXPECT_EQ(*degree, got.size());
      // Stats counted the adjacency row + record per edge.
      EXPECT_EQ(stats.rows_scanned, 2 * got.size());
    }
  }
}

TEST_F(GraphCursorTest, FullScanCursorsMatchModel) {
  util::Rng rng(7);
  // The ids AddNode and AddEdge returned, in the order they were added.
  std::vector<NodeId> expected_nodes;
  for (int i = 0; i < 30; ++i) {
    auto id = store_->AddNode(1 + static_cast<uint32_t>(rng.Uniform(3)));
    ASSERT_TRUE(id.ok());
    expected_nodes.push_back(*id);
  }
  std::vector<EdgeId> expected_edges;
  for (int i = 0; i < 100; ++i) {
    auto id = store_->AddEdge(
        expected_nodes[rng.Uniform(expected_nodes.size())],
        expected_nodes[rng.Uniform(expected_nodes.size())], 1);
    ASSERT_TRUE(id.ok());
    expected_edges.push_back(*id);
  }

  std::vector<NodeId> got_nodes;
  NodeCursor ncur = store_->Nodes();
  for (; ncur.Valid(); ncur.Next()) got_nodes.push_back(ncur.node().id());
  ASSERT_TRUE(ncur.status().ok());
  EXPECT_EQ(got_nodes, expected_nodes);

  std::vector<EdgeId> got_edges;
  EdgeCursor ecur = store_->Edges();
  for (; ecur.Valid(); ecur.Next()) got_edges.push_back(ecur.edge().id());
  ASSERT_TRUE(ecur.status().ok());
  EXPECT_EQ(got_edges, expected_edges);
}

TEST_F(GraphCursorTest, EdgeDeletedBetweenSeekAndNext) {
  auto a = store_->AddNode(1);
  auto b = store_->AddNode(1);
  ASSERT_TRUE(a.ok() && b.ok());
  std::vector<EdgeId> edges;
  for (int i = 0; i < 5; ++i) {
    auto e = store_->AddEdge(*a, *b, static_cast<uint32_t>(i));
    ASSERT_TRUE(e.ok());
    edges.push_back(*e);
  }
  EdgeCursor cur = store_->Edges(*a, Direction::kOut);
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.edge().id(), edges[0]);
  // Delete the edge the cursor is on AND the one after it.
  ASSERT_TRUE(store_->DeleteEdge(edges[0]).ok());
  ASSERT_TRUE(store_->DeleteEdge(edges[1]).ok());
  cur.Next();
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.edge().id(), edges[2]);
  cur.Next();
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.edge().id(), edges[3]);
  cur.Next();
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.edge().id(), edges[4]);
  cur.Next();
  EXPECT_FALSE(cur.Valid());
  EXPECT_TRUE(cur.status().ok());

  auto degree = store_->Degree(*a, Direction::kOut);
  ASSERT_TRUE(degree.ok());
  EXPECT_EQ(*degree, 3u);
}

TEST_F(GraphCursorTest, LazyAttrsDecodeOnDemand) {
  auto a = store_->AddNode(1);
  auto b = store_->AddNode(2);
  ASSERT_TRUE(a.ok() && b.ok());
  AttrMap attrs;
  attrs.SetString("url", "http://example.com/");
  attrs.SetInt("time", 12345);
  auto e = store_->AddEdge(*a, *b, 7, attrs);
  ASSERT_TRUE(e.ok());

  EdgeCursor cur = store_->Edges(*a, Direction::kOut);
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.edge().id(), *e);
  EXPECT_EQ(cur.edge().src(), *a);
  EXPECT_EQ(cur.edge().dst(), *b);
  EXPECT_EQ(cur.edge().kind(), 7u);
  auto decoded = cur.edge().attrs();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->StringOr("url", ""), "http://example.com/");
  EXPECT_EQ(decoded->IntOr("time", 0), 12345);

  auto node = store_->GetNodeRef(*b);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(node->kind(), 2u);
}

}  // namespace
}  // namespace bp::graph
