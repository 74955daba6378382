// Tests for the event model, recorders (both schemas fed by one stream),
// and the browsing simulator (determinism, structural validity, scale).
#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <unordered_set>

#include "capture/bus.hpp"
#include "capture/recorders.hpp"
#include "sim/browser.hpp"
#include "sim/scenario.hpp"
#include "sim/vocab.hpp"
#include "sim/web.hpp"
#include "storage/env.hpp"

namespace bp {
namespace {

using capture::BrowserEvent;
using capture::CloseEvent;
using capture::EventBus;
using capture::NavigationAction;
using capture::PlacesRecorder;
using capture::ProvenanceRecorder;
using capture::SearchEvent;
using capture::VisitEvent;
using storage::DbOptions;
using storage::MemEnv;

// ------------------------------------------------------------------ bus

// Sinks for the delivery-semantics tests: one counts, one fails on
// command.
class CountingSink : public capture::EventSink {
 public:
  util::Status OnEvent(const BrowserEvent&) override {
    ++events_seen;
    return util::Status::Ok();
  }
  int events_seen = 0;
};

class FailingSink : public capture::EventSink {
 public:
  util::Status OnEvent(const BrowserEvent&) override {
    ++events_seen;
    if (fail) return util::Status::IoError("sink failure");
    return util::Status::Ok();
  }
  bool fail = false;
  int events_seen = 0;
};

TEST(EventBusTest, PublishDeliversToAllSinksDespiteFailure) {
  // A mid-stream sink failure must not starve the sinks after it — the
  // storage-overhead experiment's "same stream" invariant depends on
  // every sink seeing every event.
  CountingSink before;
  FailingSink failing;
  CountingSink after;
  EventBus bus;
  bus.Subscribe(&before);
  bus.Subscribe(&failing);
  bus.Subscribe(&after);

  sim::ScenarioBuilder b;
  b.Visit(1, "http://a", "A", NavigationAction::kTyped);
  b.Visit(1, "http://b", "B", NavigationAction::kTyped);
  const std::vector<BrowserEvent>& events = b.events();

  failing.fail = true;
  util::Status status = bus.Publish(events[0]);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("sink failure"), std::string::npos);
  // Every sink — including the one after the failure — saw the event.
  EXPECT_EQ(before.events_seen, 1);
  EXPECT_EQ(failing.events_seen, 1);
  EXPECT_EQ(after.events_seen, 1);

  // Recovered sink: the stream continues in lockstep.
  failing.fail = false;
  ASSERT_TRUE(bus.Publish(events[1]).ok());
  EXPECT_EQ(before.events_seen, 2);
  EXPECT_EQ(after.events_seen, 2);
}

TEST(EventBusTest, PublishReturnsFirstErrorOfSeveral) {
  FailingSink first;
  FailingSink second;
  EventBus bus;
  bus.Subscribe(&first);
  bus.Subscribe(&second);
  first.fail = true;
  second.fail = true;

  sim::ScenarioBuilder b;
  b.Visit(1, "http://a", "A", NavigationAction::kTyped);
  util::Status status = bus.Publish(b.events()[0]);
  EXPECT_FALSE(status.ok());
  // Both sinks ran even though both failed.
  EXPECT_EQ(first.events_seen, 1);
  EXPECT_EQ(second.events_seen, 1);
}

TEST(EventBusTest, PublishAllStopsAfterFailedEventButFansItOut) {
  FailingSink failing;
  CountingSink after;
  EventBus bus;
  bus.Subscribe(&failing);
  bus.Subscribe(&after);
  failing.fail = true;

  sim::ScenarioBuilder b;
  b.Visit(1, "http://a", "A", NavigationAction::kTyped);
  b.Visit(1, "http://b", "B", NavigationAction::kTyped);
  EXPECT_FALSE(bus.PublishAll(b.events()).ok());
  // The failed event was fully fanned out; the next event never started.
  EXPECT_EQ(failing.events_seen, 1);
  EXPECT_EQ(after.events_seen, 1);
}

// ------------------------------------------------------------ recorders

class RecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DbOptions opts;
    opts.env = &env_;
    auto db = storage::Db::Open("cap.db", opts);
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
    bus_.Subscribe(places_recorder_.get());
    bus_.Subscribe(prov_recorder_.get());
  }

  MemEnv env_;
  std::unique_ptr<storage::Db> db_;
  std::unique_ptr<places::PlacesStore> places_;
  std::unique_ptr<prov::ProvStore> prov_;
  std::unique_ptr<PlacesRecorder> places_recorder_;
  std::unique_ptr<ProvenanceRecorder> prov_recorder_;
  EventBus bus_;
};

TEST_F(RecorderTest, LinkReferrerKeptByBothSchemas) {
  sim::ScenarioBuilder b;
  uint64_t v1 = b.Visit(1, "http://a", "A", NavigationAction::kTyped);
  b.Wait(1000);
  uint64_t v2 =
      b.Visit(1, "http://b", "B", NavigationAction::kLink, v1);
  ASSERT_TRUE(bus_.PublishAll(b.events()).ok());

  // Places kept the from_visit chain for the link.
  auto visit = places_->GetVisit(places_recorder_->visit_map().at(v2));
  ASSERT_TRUE(visit.ok());
  EXPECT_EQ(visit->from_visit, places_recorder_->visit_map().at(v1));

  // Provenance too.
  auto node = prov_recorder_->visit_map().at(v2);
  uint64_t in_edges = 0;
  graph::EdgeCursor in = prov_->graph().Edges(node, graph::Direction::kIn);
  for (; in.Valid(); in.Next()) ++in_edges;
  ASSERT_TRUE(in.status().ok());
  EXPECT_GE(in_edges, 1u);
}

TEST_F(RecorderTest, TypedReferrerDroppedByPlacesKeptByProvenance) {
  sim::ScenarioBuilder b;
  uint64_t v1 = b.Visit(1, "http://a", "A", NavigationAction::kTyped);
  b.Wait(1000);
  uint64_t v2 =
      b.Visit(1, "http://b", "B", NavigationAction::kTyped, v1);
  ASSERT_TRUE(bus_.PublishAll(b.events()).ok());

  // The paper's core gap: Places records from_visit = 0 for typed.
  auto visit = places_->GetVisit(places_recorder_->visit_map().at(v2));
  EXPECT_EQ(visit->from_visit, 0u);

  // Provenance keeps a kTyped edge.
  auto node = prov_recorder_->visit_map().at(v2);
  bool typed_edge = false;
  graph::EdgeCursor in = prov_->graph().Edges(node, graph::Direction::kIn);
  for (; in.Valid(); in.Next()) {
    if (in.edge().kind() == static_cast<uint32_t>(prov::EdgeKind::kTyped)) {
      typed_edge = true;
    }
  }
  ASSERT_TRUE(in.status().ok());
  EXPECT_TRUE(typed_edge);
}

TEST_F(RecorderTest, SearchBecomesInputRowVsLineageNodes) {
  sim::ScenarioBuilder b;
  uint64_t search = b.Search(1, "rosebud");
  b.Wait(500);
  uint64_t results =
      b.Visit(1, "https://search.example/results?q=rosebud",
              "rosebud - results", NavigationAction::kSearchResult, 0,
              search);
  ASSERT_TRUE(bus_.PublishAll(b.events()).ok());
  (void)results;

  // Places: just an input-history string.
  int input_rows = 0;
  auto inputs = places_->Inputs();
  for (; inputs.Valid(); inputs.Next()) {
    auto row = inputs.row();
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->input, "rosebud");
    ++input_rows;
  }
  ASSERT_TRUE(inputs.status().ok());
  EXPECT_EQ(input_rows, 1);

  // Provenance: term node -> issuance -> results visit.
  auto term = prov_->TermForQuery("rosebud");
  ASSERT_TRUE(term.ok());
  auto issue = prov_recorder_->search_map().at(search);
  bool result_edge = false;
  graph::EdgeCursor out = prov_->graph().Edges(issue, graph::Direction::kOut);
  for (; out.Valid(); out.Next()) {
    if (out.edge().kind() ==
        static_cast<uint32_t>(prov::EdgeKind::kSearchResult)) {
      result_edge = true;
    }
  }
  ASSERT_TRUE(out.status().ok());
  EXPECT_TRUE(result_edge);
}

TEST_F(RecorderTest, CloseEventsDroppedByPlacesStoredByProvenance) {
  sim::ScenarioBuilder b;
  uint64_t v = b.Visit(1, "http://a", "A", NavigationAction::kTyped);
  b.Wait(60000);
  b.Close(1, v);
  ASSERT_TRUE(bus_.PublishAll(b.events()).ok());

  auto node =
      prov_->graph().GetNode(prov_recorder_->visit_map().at(v));
  ASSERT_TRUE(node.ok());
  EXPECT_TRUE(node->attrs.GetInt(prov::kAttrClose).has_value());
  // Places has no close concept at all — nothing to assert beyond the
  // visit row existing.
  EXPECT_EQ(*places_->VisitCount(), 1u);
}

TEST_F(RecorderTest, BookmarkClickLineage) {
  sim::ScenarioBuilder b;
  uint64_t v1 = b.Visit(1, "http://a", "A", NavigationAction::kTyped);
  b.Wait(1000);
  uint64_t bm = b.BookmarkAdd("http://a", "A", v1);
  b.Wait(50000);
  uint64_t v2 = b.Visit(1, "http://a", "A", NavigationAction::kBookmark, 0,
                        0, bm);
  ASSERT_TRUE(bus_.PublishAll(b.events()).ok());

  prov::NodeId bookmark = prov_recorder_->bookmark_map().at(bm);
  bool click_edge = false;
  graph::EdgeCursor out =
      prov_->graph().Edges(bookmark, graph::Direction::kOut);
  for (; out.Valid(); out.Next()) {
    if (out.edge().kind() ==
        static_cast<uint32_t>(prov::EdgeKind::kBookmarkClick)) {
      EXPECT_EQ(out.edge().dst(), prov_recorder_->visit_map().at(v2));
      click_edge = true;
    }
  }
  ASSERT_TRUE(out.status().ok());
  EXPECT_TRUE(click_edge);
}

// ------------------------------------------------------------- simulator

class SimTest : public ::testing::Test {
 protected:
  sim::SimOutput RunSim(uint32_t days, uint64_t seed = 7) {
    util::Rng rng(99);
    sim::Vocabulary vocab =
        sim::Vocabulary::Create(rng, sim::VocabConfig{});
    sim::WebConfig web_config;
    web_config.sites_per_topic = 3;
    web_config.pages_per_site = 20;
    sim::WebGraph web = sim::WebGraph::Generate(rng, web_config, vocab);
    sim::UserConfig user;
    user.seed = seed;
    user.days = days;
    return sim::BrowserSim(web, user).Run();
  }
};

TEST_F(SimTest, DeterministicForSeed) {
  auto a = RunSim(3, 42);
  auto b = RunSim(3, 42);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(capture::DescribeEvent(a.events[i]),
              capture::DescribeEvent(b.events[i]));
  }
  auto c = RunSim(3, 43);
  EXPECT_NE(a.events.size(), c.events.size());
}

TEST_F(SimTest, EventsAreTimeOrderedAndWellFormed) {
  auto out = RunSim(5);
  ASSERT_FALSE(out.events.empty());
  util::TimeMs prev = 0;
  std::unordered_set<uint64_t> visit_ids;
  for (const BrowserEvent& event : out.events) {
    util::TimeMs t = capture::EventTime(event);
    EXPECT_GE(t, prev);
    prev = t;
    if (const auto* visit = std::get_if<VisitEvent>(&event)) {
      EXPECT_FALSE(visit->url.empty());
      EXPECT_NE(visit->visit_id, 0u);
      // Referrers refer backwards.
      if (visit->referrer_visit != 0) {
        EXPECT_TRUE(visit_ids.count(visit->referrer_visit) > 0)
            << "forward reference in stream";
      }
      EXPECT_TRUE(visit_ids.insert(visit->visit_id).second)
          << "duplicate visit id";
    }
    if (const auto* close = std::get_if<CloseEvent>(&event)) {
      EXPECT_TRUE(visit_ids.count(close->visit_id) > 0);
    }
  }
}

TEST_F(SimTest, ProducesAllEventKinds) {
  auto out = RunSim(20);
  std::set<size_t> kinds;
  std::set<NavigationAction> actions;
  for (const BrowserEvent& event : out.events) {
    kinds.insert(event.index());
    if (const auto* visit = std::get_if<VisitEvent>(&event)) {
      actions.insert(visit->action);
    }
  }
  // All six event types fire in 20 days of browsing.
  EXPECT_EQ(kinds.size(), 6u) << "missing event kinds";
  // Key navigation actions all occur.
  EXPECT_TRUE(actions.count(NavigationAction::kLink));
  EXPECT_TRUE(actions.count(NavigationAction::kTyped));
  EXPECT_TRUE(actions.count(NavigationAction::kSearchResult));
  EXPECT_TRUE(actions.count(NavigationAction::kEmbed));
}

TEST_F(SimTest, GroundTruthEpisodesConsistent) {
  auto out = RunSim(10);
  EXPECT_FALSE(out.searches.empty());
  std::unordered_map<uint64_t, const VisitEvent*> visits;
  for (const BrowserEvent& event : out.events) {
    if (const auto* visit = std::get_if<VisitEvent>(&event)) {
      visits[visit->visit_id] = visit;
    }
  }
  for (const sim::SearchEpisode& episode : out.searches) {
    ASSERT_TRUE(visits.count(episode.results_visit) > 0);
    EXPECT_EQ(visits.at(episode.results_visit)->action,
              NavigationAction::kSearchResult);
    if (episode.clicked_visit != 0) {
      ASSERT_TRUE(visits.count(episode.clicked_visit) > 0);
      EXPECT_EQ(visits.at(episode.clicked_visit)->url,
                episode.clicked_url);
    }
  }
  for (const sim::DownloadEpisode& episode : out.downloads) {
    EXPECT_FALSE(episode.resource_url.empty());
    EXPECT_FALSE(episode.referral_chain_visits.empty());
  }
}

TEST_F(SimTest, ScalesRoughlyLinearlyWithDays) {
  auto short_run = RunSim(4);
  auto long_run = RunSim(16);
  EXPECT_GT(long_run.total_visits, short_run.total_visits * 2);
}

TEST_F(SimTest, StreamIngestsIntoBothSchemasWithoutErrors) {
  auto out = RunSim(6);
  MemEnv env;
  DbOptions opts;
  opts.env = &env;
  opts.sync = false;
  auto db = storage::Db::Open("s.db", opts);
  ASSERT_TRUE(db.ok());
  auto places = places::PlacesStore::Open(**db);
  auto prov = prov::ProvStore::Open(**db, {});
  ASSERT_TRUE(places.ok() && prov.ok());
  PlacesRecorder places_recorder(**places);
  ProvenanceRecorder prov_recorder(**prov);
  EventBus bus;
  bus.Subscribe(&places_recorder);
  bus.Subscribe(&prov_recorder);
  ASSERT_TRUE(bus.PublishAll(out.events).ok());

  EXPECT_GT(*(*places)->VisitCount(), 0u);
  EXPECT_GT(*(*prov)->NodeCount(), *(*places)->PlaceCount());
  auto invariants = (*prov)->CheckInvariants();
  ASSERT_TRUE(invariants.ok());
  EXPECT_TRUE(*invariants);
}

}  // namespace
}  // namespace bp
