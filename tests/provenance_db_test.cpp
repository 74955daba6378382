// ProvenanceDb facade: one Open stands up the whole stack, ingestion
// flows through the owned bus, every query works and reports its
// QueryStats, and extra sinks ride the same stream. Snapshot views
// (BeginSnapshot) expose the same query surface against a frozen
// commit horizon, isolated from — and concurrent with — ingestion.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"
#include "places/places.hpp"
#include "prov/provenance_db.hpp"
#include "sim/scenario.hpp"
#include "storage/buffer_pool.hpp"
#include "storage/env.hpp"
#include "util/time.hpp"

namespace bp::prov {
namespace {

// Fails the one event whose visit URL is http://poison.example/ (once
// subscribed to a database's bus), so an IngestAll chunk holding it
// fails after the events before it were already applied.
class PoisonSink : public capture::EventSink {
 public:
  util::Status OnEvent(const capture::BrowserEvent& event) override {
    const auto* visit = std::get_if<capture::VisitEvent>(&event);
    if (visit != nullptr && visit->url == "http://poison.example/") {
      return util::Status::IoError("poison event");
    }
    return util::Status::Ok();
  }
};

class ProvenanceDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ProvenanceDb::Options options;
    options.db.env = &env_;
    auto db = ProvenanceDb::Open("facade.db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  // The quickstart session: search -> results -> film page -> archive ->
  // download.
  uint64_t IngestRosebudSession() {
    sim::ScenarioBuilder s;
    uint64_t search = s.Search(1, "rosebud");
    s.Wait(util::Seconds(1));
    uint64_t results =
        s.Visit(1, "https://search.example/results?q=rosebud",
                "rosebud - search results",
                capture::NavigationAction::kSearchResult, 0, search);
    s.Wait(util::Seconds(5));
    uint64_t kane = s.Visit(1, "http://films.example/citizen-kane",
                            "citizen kane 1941 film",
                            capture::NavigationAction::kLink, results);
    s.Wait(util::Seconds(5));
    uint64_t dl = s.Download("http://films.example/kane-script.pdf",
                             "/downloads/kane-script.pdf", kane);
    EXPECT_TRUE(db_->IngestAll(s.events()).ok());
    return dl;
  }

  storage::MemEnv env_;
  PoisonSink poison_;  // outlives db_, whose bus may hold it
  std::unique_ptr<ProvenanceDb> db_;
};

TEST_F(ProvenanceDbTest, SearchAfterIngestSeesNewPagesAndReportsStats) {
  IngestRosebudSession();
  // No explicit IndexNewPages call: the facade refreshes lazily.
  auto hits = db_->Search("rosebud");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_FALSE(hits->pages.empty());
  bool found_kane = false;
  for (const auto& page : hits->pages) {
    if (page.url == "http://films.example/citizen-kane") found_kane = true;
  }
  EXPECT_TRUE(found_kane)
      << "contextual search must reach the page the term never names";
  EXPECT_GT(hits->stats.rows_scanned, 0u);
  EXPECT_GT(hits->stats.edges_expanded, 0u);

  // With a budget attached, the stats report what the query charged.
  util::QueryBudget budget = util::QueryBudget::WithNodeCap(1000000);
  search::ContextualSearchOptions options;
  options.budget = &budget;
  auto budgeted = db_->Search("rosebud", options);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_GT(budgeted->stats.budget_used, 0u);
  EXPECT_EQ(budgeted->stats.budget_used, budget.used());
}

TEST_F(ProvenanceDbTest, TraceDownloadThroughFacade) {
  uint64_t dl = IngestRosebudSession();
  search::LineageOptions options;
  options.min_visit_count = 1;
  auto report =
      db_->TraceDownload(db_->recorder().download_map().at(dl), options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->found_recognizable);
  EXPECT_GT(report->stats.rows_scanned, 0u);
}

TEST_F(ProvenanceDbTest, DescendantDownloadsAndTimeContext) {
  IngestRosebudSession();
  auto descendants =
      db_->DescendantDownloads("https://search.example/results?q=rosebud");
  ASSERT_TRUE(descendants.ok());
  ASSERT_EQ(descendants->downloads.size(), 1u);
  EXPECT_EQ(descendants->downloads[0].target_path,
            "/downloads/kane-script.pdf");
  EXPECT_GT(descendants->stats.nodes_visited, 0u);

  auto tc = db_->TimeContext("citizen kane", "rosebud");
  ASSERT_TRUE(tc.ok());
  EXPECT_GT(tc->stats.rows_scanned, 0u);

  auto personalized = db_->Personalize("rosebud");
  ASSERT_TRUE(personalized.ok());
  EXPECT_GT(personalized->stats.rows_scanned, 0u);
}

TEST_F(ProvenanceDbTest, IngestAllChunkRollsBackOnASinkFailure) {
  sim::ScenarioBuilder s;
  s.Visit(1, "http://a.example/", "A", capture::NavigationAction::kTyped);
  s.Visit(1, "http://poison.example/", "P",
          capture::NavigationAction::kTyped);
  db_->bus().Subscribe(&poison_);
  // One chunk: the poison event fails it after a.example was applied,
  // so the whole chunk rolls back.
  EXPECT_EQ(db_->IngestAll(s.events()).code(), util::StatusCode::kIoError);
  EXPECT_TRUE(db_->store().PageForUrl("http://a.example/")
                  .status()
                  .IsNotFound());

  ASSERT_TRUE(db_->IngestAll({s.events()[0]}).ok());
  EXPECT_TRUE(db_->store().PageForUrl("http://a.example/").ok());
}

// `lost` is the stream id of a visit whose chunk just rolled back. The
// recorder must have forgotten it: the next page reuses the rolled-back
// node ids, so a later link whose referrer is `lost` must not hang off
// that page.
void ExpectLostVisitIsForgotten(ProvenanceDb& db, uint64_t lost) {
  EXPECT_EQ(db.recorder().visit_map().count(lost), 0u);

  sim::ScenarioBuilder next(util::Days(1) + util::Minutes(1), 20);
  const uint64_t v20 = next.Visit(1, "http://b.example/", "B",
                                  capture::NavigationAction::kTyped);
  ASSERT_TRUE(db.IngestAll(next.events()).ok());
  const graph::NodeId reused = db.recorder().visit_map().at(v20);

  sim::ScenarioBuilder later(util::Days(1) + util::Minutes(2), 30);
  const uint64_t v30 = later.Visit(1, "http://c.example/", "C",
                                   capture::NavigationAction::kLink, lost);
  ASSERT_TRUE(db.IngestAll(later.events()).ok());
  EXPECT_EQ(db.recorder().visit_map().count(lost), 0u);
  graph::EdgeCursor in = db.store().graph().Edges(
      db.recorder().visit_map().at(v30), graph::Direction::kIn);
  for (; in.Valid(); in.Next()) {
    EXPECT_NE(in.edge().src(), reused)
        << "edge kind " << in.edge().kind() << " from the reused node";
  }
  ASSERT_TRUE(in.status().ok());
}

TEST_F(ProvenanceDbTest, RolledBackChunkForgetsItsStreamIds) {
  // Stream ids 10 and 11: visit 10 (a.example), then the poison visit.
  sim::ScenarioBuilder failed(util::Days(1), 10);
  const uint64_t v10 = failed.Visit(1, "http://a.example/", "A",
                                    capture::NavigationAction::kTyped);
  failed.Visit(1, "http://poison.example/", "P",
               capture::NavigationAction::kTyped);
  db_->bus().Subscribe(&poison_);
  EXPECT_EQ(db_->IngestAll(failed.events()).code(),
            util::StatusCode::kIoError);
  ExpectLostVisitIsForgotten(*db_, v10);
}

TEST_F(ProvenanceDbTest, RolledBackChunkRestoresTheStreamIdsItReplaced) {
  sim::ScenarioBuilder s(util::Days(1), 10);
  const uint64_t v10 = s.Visit(1, "http://a.example/", "A",
                               capture::NavigationAction::kTyped);
  ASSERT_TRUE(db_->IngestAll(s.events()).ok());
  const graph::NodeId committed = db_->recorder().visit_map().at(v10);
  // Replaying visit 10 maps it to a fresh node, in a chunk that fails.
  s.Visit(1, "http://poison.example/", "P",
          capture::NavigationAction::kTyped);
  db_->bus().Subscribe(&poison_);
  EXPECT_EQ(db_->IngestAll(s.events()).code(), util::StatusCode::kIoError);
  EXPECT_EQ(db_->recorder().visit_map().at(v10), committed);
}

TEST_F(ProvenanceDbTest, SnapshotViewIsIsolatedFromLaterIngest) {
  IngestRosebudSession();
  auto view = db_->BeginSnapshot();
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto before = view->Search("rosebud");
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->pages.empty());

  // New rosebud-adjacent history lands AFTER the snapshot.
  sim::ScenarioBuilder s;
  uint64_t search = s.Search(2, "rosebud");
  s.Visit(2, "http://flowers.example/rosebud-care",
          "rosebud flower care tips",
          capture::NavigationAction::kSearchResult, 0, search);
  ASSERT_TRUE(db_->IngestAll(s.events()).ok());

  // The frozen view answers bit-identically...
  auto after = view->Search("rosebud");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->pages.size(), before->pages.size());
  for (size_t i = 0; i < after->pages.size(); ++i) {
    EXPECT_EQ(after->pages[i].page, before->pages[i].page);
    EXPECT_EQ(after->pages[i].url, before->pages[i].url);
    EXPECT_DOUBLE_EQ(after->pages[i].total, before->pages[i].total);
    EXPECT_NE(after->pages[i].url, "http://flowers.example/rosebud-care");
  }
  // ...while a one-shot query (fresh snapshot per call) sees the
  // flower page.
  auto live = db_->Search("rosebud");
  ASSERT_TRUE(live.ok());
  bool found_flowers = false;
  for (const auto& page : live->pages) {
    if (page.url == "http://flowers.example/rosebud-care") {
      found_flowers = true;
    }
  }
  EXPECT_TRUE(found_flowers);
  EXPECT_GT(db_->BeginSnapshot()->commit_seq(), view->commit_seq());
}

TEST_F(ProvenanceDbTest, SnapshotViewExposesTheFullQuerySurface) {
  uint64_t dl = IngestRosebudSession();
  auto view = db_->BeginSnapshot();
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  search::LineageOptions lineage_options;
  lineage_options.min_visit_count = 1;
  auto lineage = view->TraceDownload(
      db_->recorder().download_map().at(dl), lineage_options);
  ASSERT_TRUE(lineage.ok());
  EXPECT_TRUE(lineage->found_recognizable);

  auto descendants = view->DescendantDownloads(
      "https://search.example/results?q=rosebud");
  ASSERT_TRUE(descendants.ok());
  ASSERT_EQ(descendants->downloads.size(), 1u);

  auto textual = view->TextualSearch("rosebud");
  ASSERT_TRUE(textual.ok());
  EXPECT_FALSE(textual->pages.empty());

  auto personalized = view->Personalize("rosebud");
  ASSERT_TRUE(personalized.ok());

  auto tc = view->TimeContext("citizen kane", "rosebud");
  ASSERT_TRUE(tc.ok());
  EXPECT_GT(tc->stats.rows_scanned, 0u);

  // Raw cursors over the frozen graph.
  graph::QueryStats stats;
  uint64_t nodes = 0;
  for (auto cur = view->Nodes(1, &stats); cur.Valid(); cur.Next()) ++nodes;
  EXPECT_GT(nodes, 0u);
  EXPECT_GT(stats.rows_scanned, 0u);
}

TEST_F(ProvenanceDbTest, SyncAndCheckpointThroughTheFacade) {
  IngestRosebudSession();
  // sync=true MemEnv default? The facade default options use the test
  // env with sync on; Sync flushes any partially filled group-commit
  // window, Checkpoint folds the log.
  ASSERT_TRUE(db_->Sync().ok());
  ASSERT_TRUE(db_->Checkpoint().ok());
  EXPECT_GT(db_->storage_stats().checkpoints, 0u);

  // A live snapshot pins WAL frames: the explicit checkpoint refuses.
  auto view = db_->BeginSnapshot();
  ASSERT_TRUE(view.ok());
  util::Status pinned = db_->Checkpoint();
  EXPECT_EQ(pinned.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_TRUE(db_->Sync().ok());  // durability flush is always allowed
  view = util::Status::NotFound();  // drop the view, releasing the pin
  EXPECT_TRUE(db_->Checkpoint().ok());
}

TEST_F(ProvenanceDbTest, CloseCountsExactlyOneCheckpoint) {
  IngestRosebudSession();
  const obs::Histogram* checkpoint_us =
      obs::MetricsRegistry::Global().GetHistogram("bp_pager_checkpoint_us",
                                                  "", "");
  const uint64_t before = checkpoint_us->count();
  // Close folds the log; the pager's own close then finds it empty and
  // leaves it alone, but still removes it.
  ASSERT_TRUE(db_->Close().ok());
  EXPECT_EQ(checkpoint_us->count() - before, 1u);
  EXPECT_FALSE(env_.Exists("facade.db.wal"));
}

TEST_F(ProvenanceDbTest, RolledBackChunkDoesNotPoisonTheTextIndex) {
  // A failed chunk's node ids are reused by the next pages ingested; the
  // searcher's watermark must not have moved past them — otherwise
  // those pages are never indexed.
  IngestRosebudSession();
  ASSERT_TRUE(db_->Search("rosebud").ok());  // index is now current
  sim::ScenarioBuilder s(util::Days(2), 2000000);
  s.Visit(1, "http://q.example/", "quokka habitat facts",
          capture::NavigationAction::kTyped);
  s.Visit(1, "http://poison.example/", "P",
          capture::NavigationAction::kTyped);
  db_->bus().Subscribe(&poison_);
  // Everything rolls back.
  EXPECT_EQ(db_->IngestAll(s.events()).code(), util::StatusCode::kIoError);
  auto gone = db_->Search("quokka");
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone->pages.empty());

  // Fresh pages now reuse the rolled-back node ids; they must be
  // searchable.
  sim::ScenarioBuilder again;
  again.Visit(1, "http://q2.example/", "quokka selfie guide",
              capture::NavigationAction::kTyped);
  ASSERT_TRUE(db_->IngestAll(again.events()).ok());
  auto found = db_->Search("quokka");
  ASSERT_TRUE(found.ok());
  ASSERT_FALSE(found->pages.empty())
      << "page with a reused node id was skipped by the indexer";
  EXPECT_EQ(found->pages[0].url, "http://q2.example/");
}

TEST_F(ProvenanceDbTest, ConcurrentReadersDuringIngest) {
  IngestRosebudSession();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto view = db_->BeginSnapshot();
        if (!view.ok()) {
          ++errors;
          return;
        }
        auto hits = view->Search("rosebud");
        auto one_shot = db_->Search("kane");
        if (!hits.ok() || hits->pages.empty() || !one_shot.ok()) {
          ++errors;
          return;
        }
        queries.fetch_add(2, std::memory_order_relaxed);
      }
    });
  }

  // The writer keeps ingesting fresh sessions until every reader has
  // completed at least one full iteration (bounded by a safety cap so a
  // wedged reader cannot hang the test).
  for (int batch = 0; batch < 3000 && queries.load() < 6; ++batch) {
    sim::ScenarioBuilder s;
    uint64_t search = s.Search(1, "rosebud");
    uint64_t results = s.Visit(
        1, "https://search.example/results?q=rosebud&page=" +
               std::to_string(batch),
        "rosebud results " + std::to_string(batch),
        capture::NavigationAction::kSearchResult, 0, search);
    s.Visit(1, "http://films.example/kane-" + std::to_string(batch),
            "kane fan page " + std::to_string(batch),
            capture::NavigationAction::kLink, results);
    ASSERT_TRUE(db_->IngestAll(s.events()).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(queries.load(), 0u);
}

TEST_F(ProvenanceDbTest, AsyncIngestMatchesSynchronousIngest) {
  // The same session through both write paths lands in the same state:
  // IngestAsync + Drain is IngestAll minus the capture-thread stall.
  uint64_t dl_sync = IngestRosebudSession();

  storage::MemEnv async_env;
  ProvenanceDb::Options options;
  options.db.env = &async_env;
  auto async_db = ProvenanceDb::Open("facade-async.db", options);
  ASSERT_TRUE(async_db.ok());
  sim::ScenarioBuilder s;
  uint64_t search = s.Search(1, "rosebud");
  s.Wait(util::Seconds(1));
  uint64_t results =
      s.Visit(1, "https://search.example/results?q=rosebud",
              "rosebud - search results",
              capture::NavigationAction::kSearchResult, 0, search);
  s.Wait(util::Seconds(5));
  uint64_t kane = s.Visit(1, "http://films.example/citizen-kane",
                          "citizen kane 1941 film",
                          capture::NavigationAction::kLink, results);
  s.Wait(util::Seconds(5));
  uint64_t dl = s.Download("http://films.example/kane-script.pdf",
                           "/downloads/kane-script.pdf", kane);
  for (const auto& event : s.events()) {
    ASSERT_TRUE((*async_db)->IngestAsync(event).ok());
  }
  ASSERT_TRUE((*async_db)->Drain().ok());

  EXPECT_EQ(*(*async_db)->store().NodeCount(), *db_->store().NodeCount());
  EXPECT_EQ(*(*async_db)->store().EdgeCount(), *db_->store().EdgeCount());
  auto sync_hits = db_->Search("rosebud");
  auto async_hits = (*async_db)->Search("rosebud");
  ASSERT_TRUE(sync_hits.ok());
  ASSERT_TRUE(async_hits.ok());
  ASSERT_EQ(async_hits->pages.size(), sync_hits->pages.size());
  for (size_t i = 0; i < sync_hits->pages.size(); ++i) {
    EXPECT_EQ(async_hits->pages[i].url, sync_hits->pages[i].url);
  }
  search::LineageOptions lineage_options;
  lineage_options.min_visit_count = 1;
  auto sync_trace = db_->TraceDownload(
      db_->recorder().download_map().at(dl_sync), lineage_options);
  auto async_trace = (*async_db)->TraceDownload(
      (*async_db)->recorder().download_map().at(dl), lineage_options);
  ASSERT_TRUE(sync_trace.ok());
  ASSERT_TRUE(async_trace.ok());
  EXPECT_EQ(async_trace->path.size(), sync_trace->path.size());
}

TEST_F(ProvenanceDbTest, ExtraSinksRideTheSameStream) {
  // The Places baseline subscribes to the facade's bus and sees exactly
  // the ingested stream — the setup of the storage-overhead experiment.
  auto places = places::PlacesStore::Open(db_->db());
  ASSERT_TRUE(places.ok());
  capture::PlacesRecorder baseline(**places);
  db_->bus().Subscribe(&baseline);

  IngestRosebudSession();
  // Both page visits reached both recorders.
  EXPECT_EQ(baseline.visit_map().size(), 2u);
  EXPECT_EQ(db_->recorder().visit_map().size(), 2u);
}

TEST_F(ProvenanceDbTest, PoolCountersStayConsistentAcrossOneShotQueries) {
  // Cross-counter consistency, end to end: every pool-consulted page
  // fetch on the snapshot read path is either a pool hit or a storage
  // read that pays a pool miss first, so over any read-only window
  //   delta(pool_hits + pool_misses)
  //     == delta(snapshot_pool_hits + snapshot_pages_read).
  // A drift here means a fetch path stopped consulting the pool (or
  // double-counts) — exactly the accounting bug dashboards built on
  // these counters would silently absorb.
  uint64_t dl = IngestRosebudSession();
  const prov::NodeId download = db_->recorder().download_map().at(dl);
  // Settle the lazy text index so the measured window is read-only.
  ASSERT_TRUE(db_->Search("rosebud").ok());

  const storage::PagerStats before = db_->storage_stats();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db_->Search("rosebud").ok());
    ASSERT_TRUE(db_->TraceDownload(download).ok());
  }
  const storage::PagerStats after = db_->storage_stats();

  // Guard: the window really was read-only (no writer-pager fetches,
  // which consult the pool without the snapshot counters).
  ASSERT_EQ(after.cache_misses, before.cache_misses);

  const uint64_t pool_lookups = (after.pool_hits + after.pool_misses) -
                                (before.pool_hits + before.pool_misses);
  const uint64_t snapshot_fetches =
      (after.snapshot_pool_hits + after.snapshot_pages_read) -
      (before.snapshot_pool_hits + before.snapshot_pages_read);
  EXPECT_EQ(pool_lookups, snapshot_fetches);
  // Repeated identical queries must actually warm the pool.
  EXPECT_GT(after.pool_hits, before.pool_hits);
}

TEST_F(ProvenanceDbTest, DebugDumpExportsMetricsAndSpans) {
  uint64_t dl = IngestRosebudSession();
  ASSERT_TRUE(db_->Search("rosebud").ok());
  ASSERT_TRUE(
      db_->TraceDownload(db_->recorder().download_map().at(dl)).ok());

  const std::string json = db_->DebugDump();
  EXPECT_NE(json.find("\"schema\": \"bp-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("bp_commit_us"), std::string::npos);
  EXPECT_NE(json.find("bp_query_us"), std::string::npos);
  EXPECT_NE(json.find("family=\\\"search\\\""), std::string::npos);
  EXPECT_NE(json.find("bp_pager_commits"), std::string::npos);
  EXPECT_NE(json.find("db=\\\"facade.db\\\""), std::string::npos);
  EXPECT_NE(json.find("\"slow_spans\""), std::string::npos);

  const std::string text = db_->DebugDumpText();
  EXPECT_NE(text.find("# TYPE bp_commit_us summary"), std::string::npos);
  EXPECT_NE(text.find("bp_pager_commits{db=\"facade.db\"}"),
            std::string::npos);
}

TEST_F(ProvenanceDbTest, OpenRejectsUnusableOptions) {
  ProvenanceDb::Options options;
  options.db.env = &env_;
  options.ingest_batch = 0;
  EXPECT_EQ(ProvenanceDb::Open("bad.db", options).status().code(),
            util::StatusCode::kInvalidArgument);

  options = ProvenanceDb::Options();
  options.db.env = &env_;
  options.async.queue_capacity = 0;
  EXPECT_EQ(ProvenanceDb::Open("bad.db", options).status().code(),
            util::StatusCode::kInvalidArgument);

  // queue_capacity is only meaningful with the pipeline on: disabled
  // async makes the zero harmless and Open must accept it.
  options.async.enabled = false;
  EXPECT_TRUE(ProvenanceDb::Open("ok.db", options).ok());

  // Every database reads through a buffer pool: a zero budget is only
  // meaningful when a pool is injected (whose own budget then applies).
  options = ProvenanceDb::Options();
  options.db.env = &env_;
  options.db.pool_bytes = 0;
  EXPECT_EQ(ProvenanceDb::Open("bad.db", options).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(ProvenanceDbTest, CloseDrainsCheckpointsAndSupportsReopen) {
  IngestRosebudSession();
  sim::ScenarioBuilder s;
  s.Visit(1, "http://late.example/", "late page",
          capture::NavigationAction::kTyped);
  ASSERT_TRUE(db_->IngestAsync(s.events()[0]).ok());

  // Close drains the pipeline (the async event must not be lost) and
  // checkpoints the WAL into the main file.
  ASSERT_TRUE(db_->Close().ok());
  EXPECT_TRUE(db_->Close().ok()) << "Close must be idempotent";

  // storage_stats() keeps answering with the final pre-close counters.
  storage::PagerStats final_stats = db_->storage_stats();
  EXPECT_GT(final_stats.commits, 0u);
  EXPECT_EQ(final_stats.commits, db_->storage_stats().commits);

  // Reopen on the same env sees everything committed before Close.
  ProvenanceDb::Options options;
  options.db.env = &env_;
  auto reopened = ProvenanceDb::Open("facade.db", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->store().PageForUrl("http://late.example/").ok());
  EXPECT_TRUE((*reopened)
                  ->store()
                  .PageForUrl("http://films.example/citizen-kane")
                  .ok());
}

TEST_F(ProvenanceDbTest, EveryOperationFailsCleanlyAfterClose) {
  IngestRosebudSession();
  ASSERT_TRUE(db_->Close().ok());

  sim::ScenarioBuilder s;
  s.Visit(1, "http://x.example/", "x", capture::NavigationAction::kTyped);
  const auto closed = util::StatusCode::kFailedPrecondition;
  EXPECT_EQ(db_->Ingest(s.events()[0]).code(), closed);
  EXPECT_EQ(db_->IngestAll(s.events()).code(), closed);
  EXPECT_EQ(db_->IngestAsync(s.events()[0]).status().code(), closed);
  EXPECT_EQ(db_->Flush(ProvenanceDb::IngestTicket{}).code(), closed);
  EXPECT_EQ(db_->Drain().code(), closed);
  EXPECT_EQ(db_->Sync().code(), closed);
  EXPECT_EQ(db_->Checkpoint().code(), closed);
  EXPECT_EQ(db_->Search("rosebud").status().code(), closed);
  EXPECT_EQ(db_->TextualSearch("rosebud").status().code(), closed);
  EXPECT_EQ(db_->Personalize("rosebud").status().code(), closed);
  EXPECT_EQ(db_->TimeContext("a", "b").status().code(), closed);
  EXPECT_EQ(db_->TraceDownload(1).status().code(), closed);
  EXPECT_EQ(db_->DescendantDownloads("http://x.example/").status().code(),
            closed);
  EXPECT_EQ(db_->BeginSnapshot().status().code(), closed);
  // DebugDump is registry-backed and must keep working.
  EXPECT_NE(db_->DebugDump().find("bp-metrics-v1"), std::string::npos);
}

TEST_F(ProvenanceDbTest, TwoDbsShareOneInjectedPoolBudget) {
  // Two databases, one injected BufferPool: one global byte budget,
  // concurrent readers on both, per-db counters stay consistent (with
  // a shared pool, PagerStats reports the POOL's totals — both handles
  // must agree with each other and with the pool), and closing one
  // database releases its frames without disturbing the other. Runs
  // under TSan in CI with the rest of the suite.
  const size_t budget = storage::BufferPool::kShards * 4 * storage::kPageSize;
  auto pool = std::make_shared<storage::BufferPool>(budget);
  ProvenanceDb::Options options;
  options.db.env = &env_;
  options.db.buffer_pool = pool;
  // Injected pool: pool_bytes = 0 defers to the pool's own budget
  // (leaving the default would contradict it — InvalidArgument).
  options.db.pool_bytes = 0;

  auto a = ProvenanceDb::Open("shared_a.db", options);
  auto b = ProvenanceDb::Open("shared_b.db", options);
  ASSERT_TRUE(a.ok() && b.ok());

  auto fill = [](ProvenanceDb& db, const std::string& host) {
    sim::ScenarioBuilder s;
    for (int i = 0; i < 120; ++i) {
      s.Visit(1, "http://" + host + "/p" + std::to_string(i),
              host + " page " + std::to_string(i),
              capture::NavigationAction::kTyped);
      s.Wait(util::Seconds(1));
    }
    ASSERT_TRUE(db.IngestAll(s.events()).ok());
  };
  fill(**a, "a.example");
  fill(**b, "b.example");

  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      ProvenanceDb& db = (t % 2 == 0) ? **a : **b;
      const std::string host = (t % 2 == 0) ? "a.example" : "b.example";
      for (int i = 0; i < 40; ++i) {
        // Concurrent point reads go through a snapshot: the live
        // store() read path belongs to ONE thread by the pager's
        // single-writer contract.
        auto view = db.BeginSnapshot();
        if (!view.ok() ||
            !view->store()
                 .PageForUrl("http://" + host + "/p" + std::to_string(i % 120))
                 .ok()) {
          failures.fetch_add(1);
        }
        if (!db.TextualSearch("page").ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiesced: both handles and the pool itself agree on the counters.
  storage::BufferPoolStats pool_stats = pool->stats();
  storage::PagerStats stats_a = (*a)->storage_stats();
  storage::PagerStats stats_b = (*b)->storage_stats();
  EXPECT_EQ(stats_a.pool_hits, pool_stats.hits);
  EXPECT_EQ(stats_b.pool_hits, pool_stats.hits);
  EXPECT_EQ(stats_a.pool_misses, pool_stats.misses);
  EXPECT_GT(pool_stats.hits + pool_stats.misses, 0u);
  // The budget is soft only while readers pin frames; none are live
  // now, so at most one unpinned straggler per shard can remain from
  // an eviction scan that gave up early.
  EXPECT_LE(pool_stats.bytes,
            budget + storage::BufferPool::kShards * storage::kPageSize);

  // Closing one database releases its share of the pool; the other
  // keeps working and the pool keeps serving it. Warm one query first
  // so `a` definitely has resident frames to release.
  ASSERT_TRUE((*a)->TextualSearch("page").ok());
  const uint64_t frames_before = pool->stats().frames;
  ASSERT_TRUE((*a)->Close().ok());
  EXPECT_LT(pool->stats().frames, frames_before);
  EXPECT_TRUE((*b)->TextualSearch("page").ok());
  ASSERT_TRUE((*b)->Close().ok());
}

TEST_F(ProvenanceDbTest, CloseRefusesWhileASnapshotViewIsLive) {
  IngestRosebudSession();
  {
    auto view = db_->BeginSnapshot();
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(db_->Close().code(), util::StatusCode::kFailedPrecondition);
    // The refused Close must not have torn anything down.
    EXPECT_TRUE(view->Search("rosebud").ok());
  }
  EXPECT_TRUE(db_->Close().ok());
}

// Text scores must not depend on how often a database was reopened:
// each open indexes only pages its last committed index refresh did not
// cover, so a reopen never adds a page's postings a second time.
TEST(ProvenanceDbCheckpointTest, QueryIndexRefreshLeavesTheLogFoldToIngest) {
  // With a one-byte threshold every commit outside a deferral folds the
  // log. The text-index refresh a query runs commits too, but leaves
  // the fold to the next ingest commit, so no query pays for it.
  storage::MemEnv env;
  ProvenanceDb::Options options;
  options.db.env = &env;
  options.db.wal_checkpoint_bytes = 1;
  auto db = ProvenanceDb::Open("fold.db", options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  sim::ScenarioBuilder s;
  s.Visit(1, "http://films.example/citizen-kane", "citizen kane 1941 film",
          capture::NavigationAction::kTyped);
  ASSERT_TRUE((*db)->IngestAll(s.events()).ok());
  const storage::PagerStats ingested = (*db)->storage_stats();

  auto hits = (*db)->Search("kane");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_FALSE(hits->pages.empty());
  const storage::PagerStats searched = (*db)->storage_stats();
  EXPECT_GT(searched.commits, ingested.commits);  // the refresh committed
  EXPECT_EQ(searched.checkpoints, ingested.checkpoints);

  sim::ScenarioBuilder more(util::Days(2), 2000000);
  more.Visit(1, "http://weather.example/today", "weather report rain",
             capture::NavigationAction::kTyped);
  ASSERT_TRUE((*db)->IngestAll(more.events()).ok());
  EXPECT_GT((*db)->storage_stats().checkpoints, searched.checkpoints);
  hits = (*db)->Search("kane");
  ASSERT_TRUE(hits.ok());
  EXPECT_FALSE(hits->pages.empty());
}

TEST(ProvenanceDbReopenTest, TextScoresSurviveCloseAndReopen) {
  storage::MemEnv env;
  ProvenanceDb::Options options;
  options.db.env = &env;
  const std::string kQuery = "rosebud flower garden";
  const std::string kOld = "http://one.example/page";
  const std::string kNew = "http://two.example/page";
  auto score_of = [&](ProvenanceDb& db, const std::string& url) {
    auto hits = db.TextualSearch(kQuery, 10);
    EXPECT_TRUE(hits.ok()) << hits.status().ToString();
    if (hits.ok()) {
      for (const auto& page : hits->pages) {
        if (page.url == url) return page.text_score;
      }
    }
    ADD_FAILURE() << url << " not found";
    return 0.0;
  };
  auto open = [&] {
    auto db = ProvenanceDb::Open("reopen.db", options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return db.ok() ? std::move(*db) : nullptr;
  };

  double fresh = 0;
  {
    auto db = open();
    ASSERT_NE(db, nullptr);
    sim::ScenarioBuilder s;
    s.Visit(1, kOld, "rosebud flower garden",
            capture::NavigationAction::kTyped);
    s.Visit(1, "http://weather.example/today", "weather report rain",
            capture::NavigationAction::kTyped);
    s.Visit(1, "http://news.example/garden", "garden news weekly",
            capture::NavigationAction::kTyped);
    ASSERT_TRUE(db->IngestAll(s.events()).ok());
    fresh = score_of(*db, kOld);
    ASSERT_GT(fresh, 0.0);
    ASSERT_TRUE(db->Close().ok());
  }
  for (int reopen = 1; reopen <= 3; ++reopen) {
    auto db = open();
    ASSERT_NE(db, nullptr);
    EXPECT_DOUBLE_EQ(score_of(*db, kOld), fresh) << "after reopen " << reopen;
    ASSERT_TRUE(db->Close().ok());
  }

  // A page with the same text ingested after the reopens scores exactly
  // like the old one.
  auto db = open();
  ASSERT_NE(db, nullptr);
  sim::ScenarioBuilder s(util::Days(2), 2000000);
  s.Visit(1, kNew, "rosebud flower garden",
          capture::NavigationAction::kTyped);
  ASSERT_TRUE(db->IngestAll(s.events()).ok());
  EXPECT_DOUBLE_EQ(score_of(*db, kNew), score_of(*db, kOld));
}

// Passes every call through to a MemEnv, except that once armed, the
// next Sync (or Write) of a file named *.wal fails. Every later call
// passes again, as it would on a device whose error was reported once.
class FailOneWalOpEnv : public storage::Env {
 public:
  void FailNextWalSync() { fail_next_sync_.store(true); }
  void FailNextWalWrite() { fail_next_write_.store(true); }

  util::Result<std::unique_ptr<storage::File>> Open(
      const std::string& name) override {
    BP_ASSIGN_OR_RETURN(std::unique_ptr<storage::File> file, mem_.Open(name));
    const bool is_wal =
        name.size() > 4 && name.compare(name.size() - 4, 4, ".wal") == 0;
    if (!is_wal) return file;
    return std::unique_ptr<storage::File>(
        std::make_unique<WalFile>(std::move(file), this));
  }
  util::Status Remove(const std::string& name) override {
    return mem_.Remove(name);
  }
  bool Exists(const std::string& name) const override {
    return mem_.Exists(name);
  }

 private:
  class WalFile : public storage::File {
   public:
    WalFile(std::unique_ptr<storage::File> inner, FailOneWalOpEnv* env)
        : inner_(std::move(inner)), env_(env) {}
    util::Status Read(uint64_t offset, size_t n,
                      std::string* out) const override {
      return inner_->Read(offset, n, out);
    }
    util::Status Write(uint64_t offset, std::string_view data) override {
      if (env_->fail_next_write_.exchange(false)) {
        return util::Status::IoError("injected WAL write failure");
      }
      return inner_->Write(offset, data);
    }
    util::Status Sync() override {
      if (env_->fail_next_sync_.exchange(false)) {
        return util::Status::IoError("injected WAL fsync failure");
      }
      return inner_->Sync();
    }
    util::Status Truncate(uint64_t size) override {
      return inner_->Truncate(size);
    }
    util::Result<uint64_t> Size() const override { return inner_->Size(); }

   private:
    std::unique_ptr<storage::File> inner_;
    FailOneWalOpEnv* env_;
  };

  storage::MemEnv mem_;
  std::atomic<bool> fail_next_sync_{false};
  std::atomic<bool> fail_next_write_{false};
};

// After one failed WAL fsync nothing may be acknowledged: the kernel
// may have dropped the pages that fsync was writing, so a later fsync
// that succeeds proves nothing about them. Only a reopen, which
// recovers from what the log really holds, clears the error.
TEST(ProvenanceDbFsyncFailureTest, NoAcknowledgementAfterAFailedWalFsync) {
  FailOneWalOpEnv env;
  ProvenanceDb::Options options;
  options.db.env = &env;
  auto visit = [](int i) {
    capture::VisitEvent v;
    v.time = util::Days(1) + static_cast<util::TimeMs>(i) * 1000;
    v.tab = 1;
    v.visit_id = static_cast<uint64_t>(i) + 1;
    v.url = "http://acked.example/" + std::to_string(i);
    v.title = "page " + std::to_string(i);
    v.action = capture::NavigationAction::kTyped;
    return capture::BrowserEvent(v);
  };

  constexpr int kAcked = 20;
  {
    auto db = ProvenanceDb::Open("fsync.db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < kAcked; ++i) {
      ASSERT_TRUE((*db)->IngestAsync(visit(i)).ok());
    }
    ASSERT_TRUE((*db)->Drain().ok());

    env.FailNextWalSync();
    auto first = (*db)->IngestAsync(visit(kAcked));
    ASSERT_TRUE(first.ok());
    ProvenanceDb::IngestTicket last = *first;
    // The committer may close a group (and hit the failure) between two
    // enqueues; a later enqueue then reports the sticky error instead.
    for (int i = kAcked + 1; i < kAcked + 20; ++i) {
      auto ticket = (*db)->IngestAsync(visit(i));
      if (ticket.ok()) last = *ticket;
    }
    EXPECT_FALSE((*db)->Flush(last).ok()) << "the failing call";
    // The device would take the next fsync; the database must not.
    EXPECT_FALSE((*db)->Sync().ok());
    EXPECT_FALSE((*db)->Flush(last).ok());
    EXPECT_FALSE((*db)->Drain().ok());
    EXPECT_FALSE((*db)->Sync().ok());
    EXPECT_FALSE((*db)->Checkpoint().ok());
    EXPECT_FALSE((*db)->Close().ok());
  }

  auto db = ProvenanceDb::Open("fsync.db", options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (int i = 0; i < kAcked; ++i) {
    EXPECT_TRUE(
        (*db)->store().PageForUrl("http://acked.example/" + std::to_string(i))
            .ok())
        << "acknowledged event " << i << " lost";
  }
  EXPECT_TRUE((*db)->Sync().ok());
}

// A chunk whose commit frame never reaches the log rolls back, and the
// stream ids it mapped go with it.
TEST(ProvenanceDbCommitFailureTest, FailedCommitForgetsItsStreamIds) {
  FailOneWalOpEnv env;
  ProvenanceDb::Options options;
  options.db.env = &env;
  auto db = ProvenanceDb::Open("commit.db", options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  sim::ScenarioBuilder failed(util::Days(1), 10);
  const uint64_t v10 = failed.Visit(1, "http://a.example/", "A",
                                    capture::NavigationAction::kTyped);
  env.FailNextWalWrite();
  EXPECT_EQ((*db)->IngestAll(failed.events()).code(),
            util::StatusCode::kIoError);
  EXPECT_TRUE((*db)->store().PageForUrl("http://a.example/")
                  .status()
                  .IsNotFound());
  ExpectLostVisitIsForgotten(**db, v10);
}

}  // namespace
}  // namespace bp::prov
