// Tests for bp::graph: attribute maps, the persistent property graph,
// traversals, HITS/PageRank, decay expansion, cycle checks, and the
// interval index (including a brute-force property sweep).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/algo.hpp"
#include "graph/attr.hpp"
#include "graph/interval_index.hpp"
#include "graph/store.hpp"
#include "storage/env.hpp"
#include "util/rng.hpp"

namespace bp::graph {
namespace {

using storage::DbOptions;
using storage::MemEnv;
using util::Rng;
using util::TimeSpan;

// ------------------------------------------------------------- attrs

TEST(AttrMapTest, SetGetAllTypes) {
  AttrMap m;
  m.SetInt("visits", 42);
  m.SetDouble("score", 2.5);
  m.SetBool("typed", true);
  m.SetString("url", "http://example.com");
  EXPECT_EQ(m.GetInt("visits"), 42);
  EXPECT_EQ(m.GetDouble("score"), 2.5);
  EXPECT_EQ(m.GetBool("typed"), true);
  EXPECT_EQ(m.GetString("url"), "http://example.com");
  EXPECT_EQ(m.GetInt("missing"), std::nullopt);
  EXPECT_EQ(m.IntOr("missing", 7), 7);
  EXPECT_EQ(m.StringOr("missing", "x"), "x");
}

TEST(AttrMapTest, IntReadableAsDouble) {
  AttrMap m;
  m.SetInt("n", 3);
  EXPECT_EQ(m.GetDouble("n"), 3.0);
  EXPECT_EQ(m.GetInt("n"), 3);
}

TEST(AttrMapTest, TypeMismatchIsNullopt) {
  AttrMap m;
  m.SetString("s", "text");
  EXPECT_EQ(m.GetInt("s"), std::nullopt);
  EXPECT_EQ(m.GetBool("s"), std::nullopt);
}

TEST(AttrMapTest, OverwriteAndRemove) {
  AttrMap m;
  m.SetInt("k", 1);
  m.SetInt("k", 2);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.GetInt("k"), 2);
  EXPECT_TRUE(m.Remove("k"));
  EXPECT_FALSE(m.Remove("k"));
  EXPECT_TRUE(m.empty());
}

TEST(AttrMapTest, EncodeDecodeRoundTrip) {
  AttrMap m;
  m.SetInt("a", -123456789);
  m.SetDouble("b", 0.125);
  m.SetBool("c", false);
  m.SetString("d", std::string("\x01\x02nul\x00!", 7));
  util::Writer w;
  m.Encode(w);
  util::Reader r(w.data());
  auto decoded = AttrMap::Decode(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(r.Finish().ok());
  EXPECT_EQ(*decoded, m);
}

TEST(AttrMapTest, CanonicalEncodingIndependentOfInsertionOrder) {
  AttrMap a;
  a.SetInt("x", 1);
  a.SetInt("y", 2);
  AttrMap b;
  b.SetInt("y", 2);
  b.SetInt("x", 1);
  util::Writer wa, wb;
  a.Encode(wa);
  b.Encode(wb);
  EXPECT_EQ(wa.data(), wb.data());
}

// ------------------------------------------------------------- store

class GraphStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DbOptions opts;
    opts.env = &env_;
    auto db = storage::Db::Open("g.db", opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto store = GraphStore::Open(*db_, "graph");
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
  }

  NodeId MustAddNode(uint32_t kind, AttrMap attrs = {}) {
    auto id = store_->AddNode(kind, std::move(attrs));
    EXPECT_TRUE(id.ok());
    return *id;
  }
  EdgeId MustAddEdge(NodeId src, NodeId dst, uint32_t kind = 0,
                     AttrMap attrs = {}) {
    auto id = store_->AddEdge(src, dst, kind, std::move(attrs));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return *id;
  }

  MemEnv env_;
  std::unique_ptr<storage::Db> db_;
  std::unique_ptr<GraphStore> store_;
};

TEST_F(GraphStoreTest, AddGetNode) {
  AttrMap attrs;
  attrs.SetString("url", "http://a");
  NodeId id = MustAddNode(5, attrs);
  auto node = store_->GetNode(id);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(node->kind, 5u);
  EXPECT_EQ(node->attrs.GetString("url"), "http://a");
  EXPECT_TRUE(store_->GetNode(999).status().IsNotFound());
}

TEST_F(GraphStoreTest, PutNodeUpdatesAttrs) {
  NodeId id = MustAddNode(1);
  auto node = store_->GetNode(id);
  ASSERT_TRUE(node.ok());
  node->attrs.SetInt("visits", 3);
  ASSERT_TRUE(store_->PutNode(*node).ok());
  EXPECT_EQ(store_->GetNode(id)->attrs.GetInt("visits"), 3);

  Node ghost{12345, 0, {}};
  EXPECT_TRUE(store_->PutNode(ghost).IsNotFound());
}

TEST_F(GraphStoreTest, EdgeEndpointsMustExist) {
  NodeId a = MustAddNode(1);
  EXPECT_EQ(store_->AddEdge(a, 999, 0).status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(store_->AddEdge(999, a, 0).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST_F(GraphStoreTest, AdjacencyBothDirections) {
  NodeId a = MustAddNode(1);
  NodeId b = MustAddNode(1);
  NodeId c = MustAddNode(1);
  MustAddEdge(a, b, 10);
  MustAddEdge(a, c, 20);
  MustAddEdge(b, c, 30);

  std::multiset<NodeId> out_of_a;
  EdgeCursor out = store_->Edges(a, Direction::kOut);
  for (; out.Valid(); out.Next()) {
    EXPECT_EQ(out.edge().src(), a);
    out_of_a.insert(out.edge().dst());
  }
  ASSERT_TRUE(out.status().ok());
  EXPECT_EQ(out_of_a, (std::multiset<NodeId>{b, c}));

  std::multiset<NodeId> into_c;
  EdgeCursor in = store_->Edges(c, Direction::kIn);
  for (; in.Valid(); in.Next()) {
    EXPECT_EQ(in.edge().dst(), c);
    into_c.insert(in.edge().src());
  }
  ASSERT_TRUE(in.status().ok());
  EXPECT_EQ(into_c, (std::multiset<NodeId>{a, b}));

  EXPECT_EQ(*store_->Degree(a, Direction::kOut), 2u);
  EXPECT_EQ(*store_->Degree(a, Direction::kIn), 0u);
  EXPECT_EQ(*store_->Degree(c, Direction::kIn), 2u);
}

TEST_F(GraphStoreTest, ParallelEdgesAllowed) {
  NodeId a = MustAddNode(1);
  NodeId b = MustAddNode(1);
  MustAddEdge(a, b, 1);
  MustAddEdge(a, b, 2);
  EXPECT_EQ(*store_->Degree(a, Direction::kOut), 2u);
}

TEST_F(GraphStoreTest, DeleteEdgeCleansAdjacency) {
  NodeId a = MustAddNode(1);
  NodeId b = MustAddNode(1);
  EdgeId e = MustAddEdge(a, b, 1);
  ASSERT_TRUE(store_->DeleteEdge(e).ok());
  EXPECT_EQ(*store_->Degree(a, Direction::kOut), 0u);
  EXPECT_EQ(*store_->Degree(b, Direction::kIn), 0u);
  EXPECT_TRUE(store_->GetEdge(e).status().IsNotFound());
  EXPECT_EQ(*store_->EdgeCount(), 0u);
}

TEST_F(GraphStoreTest, CountsAndFullScans) {
  NodeId a = MustAddNode(1);
  NodeId b = MustAddNode(2);
  MustAddEdge(a, b, 7);
  EXPECT_EQ(*store_->NodeCount(), 2u);
  EXPECT_EQ(*store_->EdgeCount(), 1u);
  int nodes_seen = 0;
  NodeCursor nodes = store_->Nodes();
  for (; nodes.Valid(); nodes.Next()) ++nodes_seen;
  ASSERT_TRUE(nodes.status().ok());
  EXPECT_EQ(nodes_seen, 2);
  int edges_seen = 0;
  EdgeCursor edges = store_->Edges();
  for (; edges.Valid(); edges.Next()) {
    EXPECT_EQ(edges.edge().kind(), 7u);
    ++edges_seen;
  }
  ASSERT_TRUE(edges.status().ok());
  EXPECT_EQ(edges_seen, 1);
}

TEST_F(GraphStoreTest, PersistsAcrossReopen) {
  NodeId a = MustAddNode(1);
  NodeId b = MustAddNode(2);
  MustAddEdge(a, b, 3);
  store_.reset();
  db_.reset();

  DbOptions opts;
  opts.env = &env_;
  auto db = storage::Db::Open("g.db", opts);
  ASSERT_TRUE(db.ok());
  auto store = GraphStore::Open(**db, "graph");
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*(*store)->NodeCount(), 2u);
  EXPECT_EQ(*(*store)->Degree(a, Direction::kOut), 1u);
}

TEST_F(GraphStoreTest, TwoGraphsShareOneDb) {
  auto other = GraphStore::Open(*db_, "other");
  ASSERT_TRUE(other.ok());
  MustAddNode(1);
  EXPECT_EQ(*(*other)->NodeCount(), 0u);
  EXPECT_EQ(*store_->NodeCount(), 1u);
}

// -------------------------------------------------------- traversals

class AlgoTest : public GraphStoreTest {
 protected:
  // Builds the lineage fixture used by several tests:
  //
  //   search -> page1 -> page2 -> download
  //                  \-> side
  //   orphan
  void BuildLineage() {
    search_ = MustAddNode(1);
    page1_ = MustAddNode(2);
    page2_ = MustAddNode(2);
    side_ = MustAddNode(2);
    download_ = MustAddNode(3);
    orphan_ = MustAddNode(2);
    MustAddEdge(search_, page1_);
    MustAddEdge(page1_, page2_);
    MustAddEdge(page1_, side_);
    MustAddEdge(page2_, download_);
  }

  NodeId search_ = 0, page1_ = 0, page2_ = 0, side_ = 0, download_ = 0,
         orphan_ = 0;
};

TEST_F(AlgoTest, BfsDescendantsInOrder) {
  BuildLineage();
  auto result = Bfs(*store_, search_, {});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->visits.size(), 5u);
  EXPECT_EQ(result->visits[0].node, search_);
  EXPECT_EQ(result->visits[0].depth, 0u);
  EXPECT_EQ(result->visits[1].node, page1_);
  // Depths must be nondecreasing in BFS order.
  for (size_t i = 1; i < result->visits.size(); ++i) {
    EXPECT_GE(result->visits[i].depth, result->visits[i - 1].depth);
  }
  EXPECT_FALSE(result->truncated);
}

TEST_F(AlgoTest, BfsAncestors) {
  BuildLineage();
  TraversalOptions options;
  options.direction = Direction::kIn;
  auto result = Bfs(*store_, download_, options);
  ASSERT_TRUE(result.ok());
  std::vector<NodeId> nodes;
  for (const auto& v : result->visits) nodes.push_back(v.node);
  EXPECT_EQ(nodes, (std::vector<NodeId>{download_, page2_, page1_, search_}));
}

TEST_F(AlgoTest, BfsDepthLimit) {
  BuildLineage();
  TraversalOptions options;
  options.max_depth = 1;
  auto result = Bfs(*store_, search_, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->visits.size(), 2u);  // search + page1
}

TEST_F(AlgoTest, BfsNodeCapTruncates) {
  BuildLineage();
  TraversalOptions options;
  options.max_nodes = 2;
  auto result = Bfs(*store_, search_, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->visits.size(), 2u);
  EXPECT_TRUE(result->truncated);
}

TEST_F(AlgoTest, BfsBudgetTruncates) {
  BuildLineage();
  util::QueryBudget budget = util::QueryBudget::WithNodeCap(2);
  TraversalOptions options;
  options.budget = &budget;
  auto result = Bfs(*store_, search_, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->truncated);
  EXPECT_LE(result->visits.size(), 3u);
}

TEST_F(AlgoTest, BfsMissingStartIsNotFound) {
  EXPECT_TRUE(Bfs(*store_, 424242, {}).status().IsNotFound());
}

TEST_F(AlgoTest, EdgeFilterPrunes) {
  NodeId a = MustAddNode(1);
  NodeId b = MustAddNode(1);
  NodeId c = MustAddNode(1);
  MustAddEdge(a, b, /*kind=*/1);
  MustAddEdge(a, c, /*kind=*/2);
  TraversalOptions options;
  options.edge_filter = [](const EdgeRef& e) { return e.kind() == 1; };
  auto result = Bfs(*store_, a, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->visits.size(), 2u);
  EXPECT_EQ(result->visits[1].node, b);
}

TEST_F(AlgoTest, PathToReconstructsLineage) {
  BuildLineage();
  TraversalOptions options;
  options.direction = Direction::kIn;
  auto result = Bfs(*store_, download_, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->PathTo(search_),
            (std::vector<NodeId>{download_, page2_, page1_, search_}));
  EXPECT_TRUE(result->PathTo(orphan_).empty());
}

TEST_F(AlgoTest, FindFirstRespectsBfsOrderAndExcludesStart) {
  BuildLineage();
  // Mark search_ and page1_ as "recognizable".
  for (NodeId id : {search_, page1_}) {
    auto node = store_->GetNode(id);
    ASSERT_TRUE(node.ok());
    node->attrs.SetBool("known", true);
    ASSERT_TRUE(store_->PutNode(*node).ok());
  }
  TraversalOptions options;
  options.direction = Direction::kIn;
  auto hit = FindFirst(*store_, download_, options, [](const Node& n) {
    return n.attrs.GetBool("known").value_or(false);
  });
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit->has_value());
  EXPECT_EQ((*hit)->node, page1_);  // nearest recognizable ancestor
  EXPECT_EQ((*hit)->depth, 2u);
}

TEST_F(AlgoTest, FindFirstNoMatch) {
  BuildLineage();
  auto hit = FindFirst(*store_, download_,
                       [] {
                         TraversalOptions o;
                         o.direction = Direction::kIn;
                         return o;
                       }(),
                       [](const Node&) { return false; });
  ASSERT_TRUE(hit.ok());
  EXPECT_FALSE(hit->has_value());
}

TEST_F(AlgoTest, ShortestPath) {
  BuildLineage();
  auto path = ShortestPath(*store_, search_, download_, {});
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path,
            (std::vector<NodeId>{search_, page1_, page2_, download_}));
  auto none = ShortestPath(*store_, download_, search_, {});  // wrong way
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

// ------------------------------------------------------- neighborhoods

TEST_F(AlgoTest, BuildNeighborhoodSpansBothDirections) {
  BuildLineage();
  auto graph = BuildNeighborhood(*store_, {page2_}, 1, 100);
  ASSERT_TRUE(graph.ok());
  // page2's 1-hop neighborhood: itself, page1 (in), download (out).
  EXPECT_EQ(graph->size(), 3u);
  EXPECT_TRUE(graph->Contains(page1_));
  EXPECT_TRUE(graph->Contains(download_));
  EXPECT_FALSE(graph->Contains(orphan_));
  // Directed adjacency recorded: page1 -> page2.
  uint32_t p1 = graph->index_of.at(page1_);
  uint32_t p2 = graph->index_of.at(page2_);
  EXPECT_EQ(graph->out[p1], (std::vector<uint32_t>{p2}));
}

TEST_F(AlgoTest, BuildNeighborhoodMaxNodesTruncates) {
  BuildLineage();
  auto graph = BuildNeighborhood(*store_, {search_}, 10, 2);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->size(), 2u);
  EXPECT_TRUE(graph->truncated);
}

TEST_F(AlgoTest, ExpandWithDecayWeightsByDistance) {
  BuildLineage();
  auto expansion = ExpandWithDecay(*store_, {{search_, 1.0}}, 2, 0.5);
  ASSERT_TRUE(expansion.ok());
  const auto& weights = expansion->weights;
  EXPECT_DOUBLE_EQ(weights.at(search_), 1.0);
  EXPECT_DOUBLE_EQ(weights.at(page1_), 0.5);
  EXPECT_DOUBLE_EQ(weights.at(page2_), 0.25);
  EXPECT_DOUBLE_EQ(weights.at(side_), 0.25);
  EXPECT_EQ(weights.count(download_), 0u);  // 3 hops > max_depth 2
  EXPECT_EQ(weights.count(orphan_), 0u);
  // The expansion reports the work it did.
  EXPECT_GT(expansion->stats.nodes_visited, 0u);
  EXPECT_GT(expansion->stats.edges_expanded, 0u);
  EXPECT_GT(expansion->stats.rows_scanned, 0u);
}

TEST_F(AlgoTest, ExpandWithDecayAccumulatesMultipleSeeds) {
  BuildLineage();
  auto expansion =
      ExpandWithDecay(*store_, {{page2_, 1.0}, {side_, 1.0}}, 1, 0.5);
  ASSERT_TRUE(expansion.ok());
  // page1 is one hop from both seeds: 0.5 + 0.5.
  EXPECT_DOUBLE_EQ(expansion->weights.at(page1_), 1.0);
}

// ---------------------------------------------------------- iterative

TEST_F(AlgoTest, HitsFindsHubAndAuthority) {
  // Classic bipartite: hubs h1,h2 each link to authorities a1,a2.
  NodeId h1 = MustAddNode(1);
  NodeId h2 = MustAddNode(1);
  NodeId a1 = MustAddNode(1);
  NodeId a2 = MustAddNode(1);
  MustAddEdge(h1, a1);
  MustAddEdge(h1, a2);
  MustAddEdge(h2, a1);
  auto graph = BuildNeighborhood(*store_, {h1}, 3, 100);
  ASSERT_TRUE(graph.ok());
  HitsScores scores = Hits(*graph);
  uint32_t ih1 = graph->index_of.at(h1);
  uint32_t ih2 = graph->index_of.at(h2);
  uint32_t ia1 = graph->index_of.at(a1);
  uint32_t ia2 = graph->index_of.at(a2);
  // h1 links to more authorities than h2.
  EXPECT_GT(scores.hub[ih1], scores.hub[ih2]);
  // a1 is linked from more hubs than a2.
  EXPECT_GT(scores.authority[ia1], scores.authority[ia2]);
  // Hubs have negligible authority here.
  EXPECT_GT(scores.authority[ia2], scores.authority[ih1]);
}

TEST_F(AlgoTest, PageRankConcentratesNearSeeds) {
  // chain a -> b -> c, seed at a.
  NodeId a = MustAddNode(1);
  NodeId b = MustAddNode(1);
  NodeId c = MustAddNode(1);
  MustAddEdge(a, b);
  MustAddEdge(b, c);
  auto graph = BuildNeighborhood(*store_, {a}, 5, 100);
  ASSERT_TRUE(graph.ok());
  auto rank = PersonalizedPageRank(*graph, {a});
  uint32_t ia = graph->index_of.at(a);
  uint32_t ib = graph->index_of.at(b);
  uint32_t ic = graph->index_of.at(c);
  EXPECT_GT(rank[ia], rank[ib]);
  EXPECT_GT(rank[ib], rank[ic]);
  // Probabilities sum to ~1.
  double total = 0;
  for (double r : rank) total += r;
  EXPECT_NEAR(total, 1.0, 1e-6);
}

// -------------------------------------------------------------- cycles

TEST_F(AlgoTest, WouldCreateCycleDetectsBackEdge) {
  BuildLineage();
  auto yes = WouldCreateCycle(*store_, page2_, search_);
  // Adding page2 -> search is fine (search cannot reach... wait: edge
  // src=page2, dst=search; cycle iff page2 reachable FROM search — it is.
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  auto no = WouldCreateCycle(*store_, orphan_, search_);
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
  auto self = WouldCreateCycle(*store_, page1_, page1_);
  ASSERT_TRUE(self.ok());
  EXPECT_TRUE(*self);
}

TEST_F(AlgoTest, IsAcyclicOnDagAndCycle) {
  BuildLineage();
  auto acyclic = IsAcyclic(*store_);
  ASSERT_TRUE(acyclic.ok());
  EXPECT_TRUE(*acyclic);
  MustAddEdge(download_, search_);  // close the loop
  acyclic = IsAcyclic(*store_);
  ASSERT_TRUE(acyclic.ok());
  EXPECT_FALSE(*acyclic);
}

TEST_F(AlgoTest, IsAcyclicWithFilterIgnoresFilteredEdges) {
  BuildLineage();
  MustAddEdge(download_, search_, /*kind=*/99);
  EdgeFilter ignore99 = [](const EdgeRef& e) { return e.kind() != 99; };
  auto acyclic = IsAcyclic(*store_, ignore99);
  ASSERT_TRUE(acyclic.ok());
  EXPECT_TRUE(*acyclic);
}

// ------------------------------------------------------ interval index

TEST(IntervalIndexTest, BasicOverlap) {
  IntervalIndex index({{TimeSpan{0, 10}, 1},
                       {TimeSpan{5, 15}, 2},
                       {TimeSpan{20, 30}, 3}});
  auto hits = index.Overlapping(TimeSpan{8, 12});
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<uint64_t>{1, 2}));
  EXPECT_TRUE(index.Overlapping(TimeSpan{15, 20}).empty());  // half-open gap
  auto at = index.At(25);
  EXPECT_EQ(at, (std::vector<uint64_t>{3}));
}

TEST(IntervalIndexTest, StillOpenIntervalsMatchForever) {
  IntervalIndex index({{TimeSpan{100, util::kTimeMax}, 7}});
  EXPECT_EQ(index.At(1000000).size(), 1u);
  EXPECT_TRUE(index.Overlapping(TimeSpan{0, 100}).empty());
}

TEST(IntervalIndexTest, EmptyIndexAndEmptyQuery) {
  IntervalIndex index;
  EXPECT_TRUE(index.Overlapping(TimeSpan{0, 100}).empty());
  IntervalIndex nonempty({{TimeSpan{0, 1}, 1}});
  EXPECT_TRUE(nonempty.Overlapping(TimeSpan{5, 5}).empty());  // empty query
}

struct IntervalFuzzParams {
  uint64_t seed;
  int intervals;
  int queries;
  int64_t horizon;
};

class IntervalIndexFuzzTest
    : public ::testing::TestWithParam<IntervalFuzzParams> {};

TEST_P(IntervalIndexFuzzTest, MatchesBruteForce) {
  const auto& params = GetParam();
  Rng rng(params.seed);
  std::vector<IntervalIndex::Entry> entries;
  for (int i = 0; i < params.intervals; ++i) {
    int64_t open = rng.UniformRange(0, params.horizon);
    int64_t len = rng.UniformRange(1, params.horizon / 10 + 1);
    // ~10% of intervals are still open.
    util::TimeMs close =
        rng.Bernoulli(0.1) ? util::kTimeMax : open + len;
    entries.push_back({TimeSpan{open, close}, static_cast<uint64_t>(i)});
  }
  IntervalIndex index(entries);

  for (int q = 0; q < params.queries; ++q) {
    int64_t open = rng.UniformRange(0, params.horizon);
    int64_t len = rng.UniformRange(1, params.horizon / 5 + 1);
    TimeSpan query{open, open + len};
    auto got = index.Overlapping(query);
    std::sort(got.begin(), got.end());
    std::vector<uint64_t> want;
    for (const auto& entry : entries) {
      if (entry.span.Overlaps(query)) want.push_back(entry.payload);
    }
    ASSERT_EQ(got, want) << "query [" << query.open << "," << query.close
                         << ") seed " << params.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IntervalIndexFuzzTest,
    ::testing::Values(IntervalFuzzParams{1, 50, 200, 1000},
                      IntervalFuzzParams{2, 500, 200, 10000},
                      IntervalFuzzParams{3, 2000, 100, 5000},
                      IntervalFuzzParams{4, 10, 100, 50},
                      IntervalFuzzParams{5, 1000, 100, 100}),
    [](const ::testing::TestParamInfo<IntervalFuzzParams>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace bp::graph
