// Tests for the provenance store: schema ingestion, versioning policies,
// the DAG invariant (property-tested under random action streams), and
// time queries.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/algo.hpp"
#include "prov/prov_store.hpp"
#include "storage/env.hpp"
#include "util/rng.hpp"

namespace bp::prov {
namespace {

using graph::Direction;
using graph::Edge;
using graph::EdgeCursor;
using graph::Node;
using storage::DbOptions;
using storage::MemEnv;
using util::Minutes;
using util::Rng;
using util::Seconds;

class ProvTest : public ::testing::TestWithParam<VersionPolicy> {
 protected:
  void SetUp() override {
    DbOptions opts;
    opts.env = &env_;
    auto db = storage::Db::Open("prov.db", opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ProvOptions popts;
    popts.policy = GetParam();
    auto store = ProvStore::Open(*db_, popts);
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
  }

  bool NodePolicy() const {
    return GetParam() == VersionPolicy::kVersionNodes;
  }

  MemEnv env_;
  std::unique_ptr<storage::Db> db_;
  std::unique_ptr<ProvStore> store_;
};

TEST_P(ProvTest, VisitCreatesPageAndPolicyShapedView) {
  auto v1 = store_->RecordVisit("http://a", "Page A", EdgeKind::kTyped, 0,
                                1000, 1);
  ASSERT_TRUE(v1.ok());
  auto page = store_->PageForUrl("http://a");
  ASSERT_TRUE(page.ok());

  if (NodePolicy()) {
    EXPECT_NE(*v1, *page);  // distinct visit instance
    auto canonical = store_->PageOfView(*v1);
    ASSERT_TRUE(canonical.ok());
    EXPECT_EQ(*canonical, *page);
  } else {
    EXPECT_EQ(*v1, *page);  // the page IS the view
  }

  auto node = store_->graph().GetNode(*page);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(node->attrs.GetString(kAttrUrl), "http://a");
  EXPECT_EQ(node->attrs.GetInt(kAttrVisitCount), 1);
}

TEST_P(ProvTest, RevisitBumpsVisitCountNotPageCount) {
  auto v1 =
      store_->RecordVisit("http://a", "A", EdgeKind::kTyped, 0, 1000, 1);
  auto v2 = store_->RecordVisit("http://a", "A", EdgeKind::kLink, *v1,
                                2000, 1);
  ASSERT_TRUE(v2.ok());
  auto page = store_->PageForUrl("http://a");
  auto node = store_->graph().GetNode(*page);
  EXPECT_EQ(node->attrs.GetInt(kAttrVisitCount), 2);

  auto views = store_->ViewsOfPage(*page);
  ASSERT_TRUE(views.ok());
  if (NodePolicy()) {
    EXPECT_EQ(views->size(), 2u);
  } else {
    EXPECT_EQ(views->size(), 1u);  // just the page itself
  }
}

TEST_P(ProvTest, NavigationEdgeRecorded) {
  auto v1 =
      store_->RecordVisit("http://a", "A", EdgeKind::kTyped, 0, 1000, 1);
  auto v2 = store_->RecordVisit("http://b", "B", EdgeKind::kLink, *v1,
                                2000, 1);
  ASSERT_TRUE(v2.ok());
  int nav_edges = 0;
  EdgeCursor out = store_->graph().Edges(*v1, Direction::kOut);
  for (; out.Valid(); out.Next()) {
    auto edge = out.edge().Materialize();
    ASSERT_TRUE(edge.ok());
    if (IsNavigationEdge(static_cast<EdgeKind>(edge->kind))) {
      EXPECT_EQ(edge->dst, *v2);
      EXPECT_EQ(edge->attrs.GetInt(kAttrTime), 2000);
      ++nav_edges;
    }
  }
  ASSERT_TRUE(out.status().ok());
  EXPECT_EQ(nav_edges, 1);
}

TEST_P(ProvTest, TypedEdgeIsFirstClass) {
  // The relationship Places drops must exist here.
  auto v1 =
      store_->RecordVisit("http://a", "A", EdgeKind::kTyped, 0, 1000, 1);
  auto v2 = store_->RecordVisit("http://b", "B", EdgeKind::kTyped, *v1,
                                2000, 1);
  ASSERT_TRUE(v2.ok());
  bool found = false;
  EdgeCursor in = store_->graph().Edges(*v2, Direction::kIn);
  for (; in.Valid(); in.Next()) {
    if (in.edge().kind() == static_cast<uint32_t>(EdgeKind::kTyped)) {
      found = true;
    }
  }
  ASSERT_TRUE(in.status().ok());
  EXPECT_TRUE(found);
}

TEST_P(ProvTest, SearchLineage) {
  auto from =
      store_->RecordVisit("http://start", "S", EdgeKind::kTyped, 0, 100, 1);
  auto issue = store_->RecordSearch("rosebud", *from, 200);
  ASSERT_TRUE(issue.ok());
  auto results = store_->RecordVisit("https://search/q=rosebud",
                                     "rosebud results", EdgeKind::kLink,
                                     *from, 300, 1);
  ASSERT_TRUE(store_->LinkSearchResult(*issue, *results).ok());

  // Canonical term node exists, deduplicated.
  auto term = store_->TermForQuery("rosebud");
  ASSERT_TRUE(term.ok());
  auto issue2 = store_->RecordSearch("rosebud", *results, 400);
  ASSERT_TRUE(issue2.ok());
  EXPECT_NE(*issue, *issue2);  // new issuance instance
  auto term_node = store_->graph().GetNode(*term);
  EXPECT_EQ(term_node->attrs.GetInt(kAttrUseCount), 2);

  // Issuances point at the canonical term.
  int instances = 0;
  EdgeCursor in = store_->graph().Edges(*term, Direction::kIn);
  for (; in.Valid(); in.Next()) {
    if (in.edge().kind() ==
        static_cast<uint32_t>(EdgeKind::kTermInstanceOf)) {
      ++instances;
    }
  }
  ASSERT_TRUE(in.status().ok());
  EXPECT_EQ(instances, 2);
}

TEST_P(ProvTest, BookmarkDownloadFormLineage) {
  auto visit =
      store_->RecordVisit("http://a", "A", EdgeKind::kTyped, 0, 100, 1);
  auto bookmark = store_->RecordBookmarkAdd("A bookmark", *visit, 200);
  ASSERT_TRUE(bookmark.ok());
  auto clicked = store_->RecordVisit("http://a", "A", EdgeKind::kLink, 0,
                                     300, 1);
  ASSERT_TRUE(store_->LinkBookmarkClick(*bookmark, *clicked).ok());

  auto download =
      store_->RecordDownload("http://a/file.zip", "/tmp/file.zip", *visit,
                             400);
  ASSERT_TRUE(download.ok());
  auto form = store_->RecordFormSubmit("q=wine", *visit, 500);
  ASSERT_TRUE(form.ok());
  auto result_page = store_->RecordVisit("http://a/results", "R",
                                         EdgeKind::kLink, *visit, 600, 1);
  ASSERT_TRUE(store_->LinkFormResult(*form, *result_page).ok());

  auto bookmark_node = store_->graph().GetNode(*bookmark);
  EXPECT_EQ(bookmark_node->kind,
            static_cast<uint32_t>(NodeKind::kBookmark));
  auto download_node = store_->graph().GetNode(*download);
  EXPECT_EQ(download_node->attrs.GetString(kAttrTarget), "/tmp/file.zip");
  auto form_node = store_->graph().GetNode(*form);
  EXPECT_EQ(form_node->attrs.GetString(kAttrSummary), "q=wine");
}

TEST_P(ProvTest, InvariantsHoldOnRandomActionStream) {
  // Property: whatever interleaving of actions occurs, the provenance
  // graph invariants hold (structural DAG under node versioning; fully
  // timestamped navigation edges under edge versioning).
  Rng rng(GetParam() == VersionPolicy::kVersionNodes ? 111 : 222);
  std::vector<NodeId> views;
  std::vector<NodeId> bookmarks;
  std::vector<NodeId> issues;
  int64_t now = 1000;

  for (int op = 0; op < 400; ++op) {
    now += 1 + static_cast<int64_t>(rng.Uniform(5000));
    std::string url = "http://site" + std::to_string(rng.Uniform(40)) +
                      ".example/p" + std::to_string(rng.Uniform(10));
    double roll = rng.UniformReal();
    if (roll < 0.55 || views.empty()) {
      NodeId ref = views.empty() || rng.Bernoulli(0.2)
                       ? 0
                       : views[rng.Uniform(views.size())];
      EdgeKind kind = rng.Bernoulli(0.3) ? EdgeKind::kTyped
                      : rng.Bernoulli(0.1) ? EdgeKind::kRedirect
                                           : EdgeKind::kLink;
      auto v = store_->RecordVisit(url, "t", kind, ref, now,
                                   static_cast<int64_t>(rng.Uniform(4)));
      ASSERT_TRUE(v.ok());
      views.push_back(*v);
    } else if (roll < 0.65) {
      auto issue = store_->RecordSearch(
          "query" + std::to_string(rng.Uniform(12)),
          views[rng.Uniform(views.size())], now);
      ASSERT_TRUE(issue.ok());
      issues.push_back(*issue);
    } else if (roll < 0.72 && !issues.empty()) {
      auto v = store_->RecordVisit(url, "results", EdgeKind::kLink, 0, now,
                                   1);
      ASSERT_TRUE(v.ok());
      ASSERT_TRUE(store_
                      ->LinkSearchResult(issues[rng.Uniform(issues.size())],
                                         *v)
                      .ok());
      views.push_back(*v);
    } else if (roll < 0.80) {
      auto b = store_->RecordBookmarkAdd(
          "bm", views[rng.Uniform(views.size())], now);
      ASSERT_TRUE(b.ok());
      bookmarks.push_back(*b);
    } else if (roll < 0.86 && !bookmarks.empty()) {
      auto v = store_->RecordVisit(url, "t", EdgeKind::kLink, 0, now, 1);
      ASSERT_TRUE(v.ok());
      ASSERT_TRUE(
          store_
              ->LinkBookmarkClick(bookmarks[rng.Uniform(bookmarks.size())],
                                  *v)
              .ok());
      views.push_back(*v);
    } else if (roll < 0.93) {
      ASSERT_TRUE(store_
                      ->RecordDownload(url + "/f.zip", "/tmp/f",
                                       views[rng.Uniform(views.size())],
                                       now)
                      .ok());
    } else {
      ASSERT_TRUE(
          store_->RecordClose(views[rng.Uniform(views.size())], now).ok());
    }
  }

  auto ok = store_->CheckInvariants();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST_P(ProvTest, CloseTimesAndIntervals) {
  auto v1 =
      store_->RecordVisit("http://a", "A", EdgeKind::kTyped, 0, 1000, 1);
  auto v2 = store_->RecordVisit("http://b", "B", EdgeKind::kTyped, 0,
                                Seconds(2), 2);
  ASSERT_TRUE(v1.ok() && v2.ok());

  if (!NodePolicy()) {
    // Edge policy cannot answer interval queries — and says so.
    EXPECT_EQ(store_->VisitIntervals().status().code(),
              util::StatusCode::kFailedPrecondition);
    return;
  }
  ASSERT_TRUE(store_->RecordClose(*v1, Seconds(30)).ok());
  ASSERT_TRUE(store_->RecordClose(*v2, Minutes(2)).ok());

  auto intervals = store_->VisitIntervals();
  ASSERT_TRUE(intervals.ok());
  // v1 [1s, 30s) and v2 [2s, 120s) overlap.
  auto at = (*intervals)->At(Seconds(10));
  std::sort(at.begin(), at.end());
  EXPECT_EQ(at, (std::vector<uint64_t>{*v1, *v2}));
  // After v1 closes only v2 is open.
  at = (*intervals)->At(Seconds(60));
  EXPECT_EQ(at, (std::vector<uint64_t>{*v2}));
}

TEST_P(ProvTest, CloseTimesCanBeDisabled) {
  DbOptions opts;
  opts.env = &env_;
  auto db = storage::Db::Open("noclose.db", opts);
  ASSERT_TRUE(db.ok());
  ProvOptions popts;
  popts.policy = GetParam();
  popts.record_close_times = false;
  auto store = ProvStore::Open(**db, popts);
  ASSERT_TRUE(store.ok());

  auto v = (*store)->RecordVisit("http://a", "A", EdgeKind::kTyped, 0,
                                 1000, 1);
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE((*store)->RecordClose(*v, 5000).ok());  // silently ignored
  if (NodePolicy()) {
    auto intervals = (*store)->VisitIntervals();
    ASSERT_TRUE(intervals.ok());
    // "Every page is always open": still matches far in the future.
    EXPECT_EQ((*intervals)->At(util::Days(1000)).size(), 1u);
  }
}

TEST_P(ProvTest, PersistsAcrossReopen) {
  auto v1 =
      store_->RecordVisit("http://a", "A", EdgeKind::kTyped, 0, 1000, 1);
  ASSERT_TRUE(store_->RecordSearch("findme", *v1, 2000).ok());
  store_.reset();
  db_.reset();

  DbOptions opts;
  opts.env = &env_;
  auto db = storage::Db::Open("prov.db", opts);
  ASSERT_TRUE(db.ok());
  ProvOptions popts;
  popts.policy = GetParam();
  auto store = ProvStore::Open(**db, popts);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->PageForUrl("http://a").ok());
  EXPECT_TRUE((*store)->TermForQuery("findme").ok());
}

TEST_P(ProvTest, RejectsNonNavigationEdgeKindForVisit) {
  EXPECT_THROW((void)store_->RecordVisit("http://a", "A",
                                         EdgeKind::kInstanceOf, 0, 1, 1),
               std::logic_error);
}

TEST_P(ProvTest, BatchedWalIngestMatchesUnbatchedAndSurvivesCrash) {
  // Batched ingest over a WAL-mode database: the production capture
  // configuration. Contents must match the per-event path, invariants
  // must hold, and a crash (snapshot) after the batch commit must
  // recover every record from the log alone.
  MemEnv wal_env;
  DbOptions opts;
  opts.env = &wal_env;
  opts.wal_group_commit = 1;
  std::map<std::string, std::string> crashed;
  {
    auto db = storage::Db::Open("prov.db", opts);
    ASSERT_TRUE(db.ok());
    ProvOptions popts;
    popts.policy = GetParam();
    auto store = ProvStore::Open(**db, popts);
    ASSERT_TRUE(store.ok());

    ProvStore::IngestBatch batch(**store);
    NodeId prev = 0;
    for (int i = 0; i < 20; ++i) {
      auto visit = (*store)->RecordVisit(
          "http://site/" + std::to_string(i % 5), "t", EdgeKind::kLink,
          prev, 1000 + i * 100, 1);
      ASSERT_TRUE(visit.ok());
      prev = *visit;
    }
    ASSERT_TRUE(batch.Commit().ok());
    crashed = wal_env.SnapshotAll();  // power loss before clean close
  }
  ASSERT_TRUE(crashed.count("prov.db.wal") > 0);

  wal_env.RestoreAll(crashed);
  auto db = storage::Db::Open("prov.db", opts);
  ASSERT_TRUE(db.ok());
  ProvOptions popts;
  popts.policy = GetParam();
  auto store = ProvStore::Open(**db, popts);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(
        (*store)->PageForUrl("http://site/" + std::to_string(i)).ok());
  }
  auto invariants = (*store)->CheckInvariants();
  ASSERT_TRUE(invariants.ok());
  EXPECT_TRUE(*invariants);
  // 5 pages; node policy adds 20 visit instances.
  auto nodes = (*store)->NodeCount();
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(*nodes, NodePolicy() ? 25u : 5u);
}

TEST_P(ProvTest, AbandonedIngestBatchRollsBackAtomically) {
  auto before = store_->NodeCount();
  ASSERT_TRUE(before.ok());
  {
    ProvStore::IngestBatch batch(*store_);
    auto visit = store_->RecordVisit("http://doomed", "D", EdgeKind::kLink,
                                     0, 1000, 1);
    ASSERT_TRUE(visit.ok());
    // No Commit: destructor rolls the whole batch back.
  }
  auto after = store_->NodeCount();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
  EXPECT_TRUE(store_->PageForUrl("http://doomed").status().IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ProvTest,
    ::testing::Values(VersionPolicy::kVersionNodes,
                      VersionPolicy::kTimestampEdges),
    [](const ::testing::TestParamInfo<VersionPolicy>& info) {
      return info.param == VersionPolicy::kVersionNodes ? "VersionNodes"
                                                        : "TimestampEdges";
    });

}  // namespace
}  // namespace bp::prov
