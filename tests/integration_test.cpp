// End-to-end integration: a multi-day simulated browsing stream ingested
// into both schemas in one database, queried by all four use cases, with
// invariants checked and persistence verified across reopen.
#include <gtest/gtest.h>

#include <algorithm>

#include "capture/bus.hpp"
#include "capture/recorders.hpp"
#include "search/history_search.hpp"
#include "search/lineage.hpp"
#include "search/personalize.hpp"
#include "search/time_context.hpp"
#include "sim/browser.hpp"
#include "sim/scenario.hpp"
#include "storage/env.hpp"

namespace bp {
namespace {

using capture::EventBus;
using capture::PlacesRecorder;
using capture::ProvenanceRecorder;
using storage::DbOptions;
using storage::MemEnv;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(5);
    vocab_ = sim::Vocabulary::Create(rng, {});
    sim::WebConfig web_config;
    web_config.sites_per_topic = 3;
    web_config.pages_per_site = 25;
    web_ = sim::WebGraph::Generate(rng, web_config, vocab_);

    sim::UserConfig user;
    user.seed = 11;
    user.days = 12;
    out_ = sim::BrowserSim(web_, user).Run();

    DbOptions opts;
    opts.env = &env_;
    opts.sync = false;
    auto db = storage::Db::Open("world.db", opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto places = places::PlacesStore::Open(*db_);
    ASSERT_TRUE(places.ok());
    places_ = std::move(*places);
    auto prov = prov::ProvStore::Open(*db_, {});
    ASSERT_TRUE(prov.ok());
    prov_ = std::move(*prov);

    places_recorder_ = std::make_unique<PlacesRecorder>(*places_);
    prov_recorder_ = std::make_unique<ProvenanceRecorder>(*prov_);
    EventBus bus;
    bus.Subscribe(places_recorder_.get());
    bus.Subscribe(prov_recorder_.get());
    ASSERT_TRUE(bus.PublishAll(out_.events).ok());

    auto searcher = search::HistorySearcher::Open(*db_, *prov_);
    ASSERT_TRUE(searcher.ok());
    searcher_ = std::move(*searcher);
  }

  MemEnv env_;
  sim::Vocabulary vocab_;
  sim::WebGraph web_;
  sim::SimOutput out_;
  std::unique_ptr<storage::Db> db_;
  std::unique_ptr<places::PlacesStore> places_;
  std::unique_ptr<prov::ProvStore> prov_;
  std::unique_ptr<PlacesRecorder> places_recorder_;
  std::unique_ptr<ProvenanceRecorder> prov_recorder_;
  std::unique_ptr<search::HistorySearcher> searcher_;
};

TEST_F(IntegrationTest, BothSchemasAgreeOnVisitVolume) {
  EXPECT_EQ(*places_->VisitCount(), out_.total_visits);
  // Provenance has at least one node per visit plus canonical pages.
  EXPECT_GT(*prov_->NodeCount(), out_.total_visits);
  auto invariants = prov_->CheckInvariants();
  ASSERT_TRUE(invariants.ok());
  EXPECT_TRUE(*invariants);
}

TEST_F(IntegrationTest, SpaceReportSeparatesSchemas) {
  auto space = db_->Space();
  ASSERT_TRUE(space.ok());
  uint64_t places_bytes = space->BytesForPrefix("places.");
  uint64_t prov_bytes = space->BytesForPrefix("prov.");
  EXPECT_GT(places_bytes, 0u);
  EXPECT_GT(prov_bytes, 0u);
  // Overhead is a finite multiple, not an explosion (paper: 39.5%).
  EXPECT_LT(prov_bytes, places_bytes * 6);
}

TEST_F(IntegrationTest, StorageOverheadDecomposition) {
  // Regression pin for bench_storage_overhead's replace_overhead_pct
  // exceeding the paper's 39.5% (often > 100%): the excess comes from
  // the access-path indexes (prov.in / prov.out adjacency postings,
  // prov.url_index) that store each edge and node key redundantly so
  // traces run without scans — the paper's SQLite schema reused Places'
  // own indexes and counted none of that. Two bounds pin the
  // explanation: the CORE graph data (nodes + edges) must stay the same
  // order as the Places baseline (node versioning makes the exact ratio
  // config-dependent, but a blow-up means the schema itself bloated),
  // and the indexes must be a major share of the prov footprint (if
  // they ever shrink to noise while the overhead stays > 100%, the
  // bench's explanation is no longer true).
  auto space = db_->Space();
  ASSERT_TRUE(space.ok());
  const uint64_t places_bytes = space->BytesForPrefix("places.");
  const uint64_t prov_bytes = space->BytesForPrefix("prov.");
  const uint64_t core_bytes = space->BytesForPrefix("prov.nodes") +
                              space->BytesForPrefix("prov.edges");
  const uint64_t index_bytes = prov_bytes - core_bytes;
  ASSERT_GT(core_bytes, 0u);
  EXPECT_LT(core_bytes, places_bytes * 2)
      << "core graph (nodes+edges) must stay the same order as Places";
  EXPECT_GT(index_bytes, core_bytes / 2)
      << "the access-path indexes are where the overhead lives";
}

TEST_F(IntegrationTest, ContextualBeatsTextualOnEpisodes) {
  // Over the sim's own search episodes, provenance reranking must place
  // the clicked page at least as well as plain text search, on average.
  double text_rr = 0, prov_rr = 0;
  int evaluated = 0;
  for (const sim::SearchEpisode& episode : out_.searches) {
    if (episode.clicked_visit == 0) continue;
    if (++evaluated > 25) break;
    auto textual = searcher_->TextualSearch(episode.query, 10);
    auto contextual = searcher_->ContextualSearch(episode.query, {});
    ASSERT_TRUE(textual.ok() && contextual.ok());
    auto rank_of = [](const std::vector<search::RankedPage>& pages,
                      const std::string& url) -> double {
      for (size_t i = 0; i < pages.size(); ++i) {
        if (pages[i].url == url) return 1.0 / static_cast<double>(i + 1);
      }
      return 0.0;
    };
    text_rr += rank_of(textual->pages, episode.clicked_url);
    prov_rr += rank_of(contextual->pages, episode.clicked_url);
  }
  ASSERT_GT(evaluated, 5);
  EXPECT_GE(prov_rr, text_rr * 0.95);  // no regression
  EXPECT_GT(prov_rr, 0.0);
}

TEST_F(IntegrationTest, DownloadChainsResolveAgainstGroundTruth) {
  int traced = 0;
  for (const sim::DownloadEpisode& episode : out_.downloads) {
    auto it = prov_recorder_->download_map().find(episode.download_id);
    ASSERT_NE(it, prov_recorder_->download_map().end());
    search::LineageOptions options;
    options.min_visit_count = 1;  // everything recognizable: full chain
    auto report = search::TraceDownload(*prov_, it->second, options);
    ASSERT_TRUE(report.ok());
    // The nearest page ancestor must be the last page of the true chain.
    ASSERT_TRUE(report->found_recognizable);
    ASSERT_FALSE(episode.referral_chain_urls.empty());
    EXPECT_EQ(report->recognizable_url,
              episode.referral_chain_urls.back())
        << "download " << episode.download_id;
    if (++traced >= 10) break;
  }
  EXPECT_GT(traced, 0);
}

TEST_F(IntegrationTest, PlacesLosesTypedChainsProvenanceKeepsThem) {
  // Count visit rows with no referrer in each schema.
  uint64_t places_orphans = 0, places_visits = 0;
  auto visits = places_->Visits();
  for (; visits.Valid(); visits.Next()) {
    auto row = visits.row();
    ASSERT_TRUE(row.ok());
    ++places_visits;
    if (row->from_visit == 0) ++places_orphans;
  }
  ASSERT_TRUE(visits.status().ok());
  // Provenance: count visit nodes with no incoming action edge.
  uint64_t prov_orphans = 0, prov_visits = 0;
  graph::NodeCursor nodes = prov_->graph().Nodes();
  for (; nodes.Valid(); nodes.Next()) {
    if (nodes.node().kind() !=
        static_cast<uint32_t>(prov::NodeKind::kVisit)) {
      continue;
    }
    ++prov_visits;
    uint64_t in_actions = 0;
    graph::EdgeCursor in =
        prov_->graph().Edges(nodes.node().id(), graph::Direction::kIn);
    for (; in.Valid(); in.Next()) {
      if (in.edge().kind() !=
          static_cast<uint32_t>(prov::EdgeKind::kInstanceOf)) {
        ++in_actions;
      }
    }
    ASSERT_TRUE(in.status().ok());
    if (in_actions == 0) ++prov_orphans;
  }
  ASSERT_TRUE(nodes.status().ok());
  ASSERT_GT(places_visits, 0u);
  double places_rate =
      static_cast<double>(places_orphans) / places_visits;
  double prov_rate = static_cast<double>(prov_orphans) / prov_visits;
  EXPECT_LT(prov_rate, places_rate)
      << "provenance must keep strictly more referrer relationships";
}

TEST_F(IntegrationTest, SurvivesReopenWithAllQueries) {
  std::string some_query;
  for (const auto& episode : out_.searches) {
    if (!episode.query.empty()) {
      some_query = episode.query;
      break;
    }
  }
  ASSERT_FALSE(some_query.empty());

  // Drop everything and reopen from the same "file".
  searcher_.reset();
  prov_recorder_.reset();
  places_recorder_.reset();
  prov_.reset();
  places_.reset();
  db_.reset();

  DbOptions opts;
  opts.env = &env_;
  opts.sync = false;
  auto db = storage::Db::Open("world.db", opts);
  ASSERT_TRUE(db.ok());
  auto prov = prov::ProvStore::Open(**db, {});
  ASSERT_TRUE(prov.ok());
  auto searcher = search::HistorySearcher::Open(**db, **prov);
  ASSERT_TRUE(searcher.ok());
  auto results = (*searcher)->ContextualSearch(some_query, {});
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE(results->pages.empty());
}

}  // namespace
}  // namespace bp
