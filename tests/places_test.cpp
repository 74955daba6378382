// Tests for the Places baseline: schema semantics, Firefox-style
// lossiness, frecency, and autocomplete.
#include <gtest/gtest.h>

#include "places/places.hpp"
#include "storage/env.hpp"
#include "util/time.hpp"

namespace bp::places {
namespace {

using storage::DbOptions;
using storage::MemEnv;
using util::Days;
using util::TimeMs;

class PlacesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DbOptions opts;
    opts.env = &env_;
    auto db = storage::Db::Open("p.db", opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto store = PlacesStore::Open(*db_);
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
  }

  MemEnv env_;
  std::unique_ptr<storage::Db> db_;
  std::unique_ptr<PlacesStore> store_;
};

TEST_F(PlacesTest, VisitUpsertsPlace) {
  auto v1 = store_->AddVisit("http://a", "Page A", VisitType::kLink, 0, 100);
  ASSERT_TRUE(v1.ok());
  auto v2 =
      store_->AddVisit("http://a", "Page A v2", VisitType::kLink, *v1, 200);
  ASSERT_TRUE(v2.ok());

  auto place_id = store_->PlaceIdForUrl("http://a");
  ASSERT_TRUE(place_id.ok());
  auto place = store_->GetPlace(*place_id);
  ASSERT_TRUE(place.ok());
  EXPECT_EQ(place->visit_count, 2);
  EXPECT_EQ(place->title, "Page A v2");
  EXPECT_EQ(place->last_visit, 200);
  EXPECT_EQ(*store_->PlaceCount(), 1u);
  EXPECT_EQ(*store_->VisitCount(), 2u);
}

TEST_F(PlacesTest, FromVisitChainRecorded) {
  auto v1 = store_->AddVisit("http://a", "A", VisitType::kTyped, 0, 100);
  auto v2 = store_->AddVisit("http://b", "B", VisitType::kLink, *v1, 200);
  ASSERT_TRUE(v2.ok());
  auto visit = store_->GetVisit(*v2);
  ASSERT_TRUE(visit.ok());
  EXPECT_EQ(visit->from_visit, *v1);
  EXPECT_EQ(visit->type, VisitType::kLink);
}

TEST_F(PlacesTest, TypedFlagSticks) {
  ASSERT_TRUE(store_->AddVisit("http://a", "A", VisitType::kLink, 0, 1).ok());
  ASSERT_TRUE(
      store_->AddVisit("http://a", "A", VisitType::kTyped, 0, 2).ok());
  ASSERT_TRUE(store_->AddVisit("http://a", "A", VisitType::kLink, 0, 3).ok());
  auto place = store_->GetPlace(*store_->PlaceIdForUrl("http://a"));
  EXPECT_TRUE(place->typed);
}

TEST_F(PlacesTest, EmbedAndRedirectPlacesAreHidden) {
  ASSERT_TRUE(
      store_->AddVisit("http://img", "", VisitType::kEmbed, 0, 1).ok());
  auto place = store_->GetPlace(*store_->PlaceIdForUrl("http://img"));
  EXPECT_TRUE(place->hidden);
  // A later top-level visit unhides.
  ASSERT_TRUE(
      store_->AddVisit("http://img", "Gallery", VisitType::kLink, 0, 2).ok());
  place = store_->GetPlace(*store_->PlaceIdForUrl("http://img"));
  EXPECT_FALSE(place->hidden);
}

TEST_F(PlacesTest, BookmarkWithoutVisitCreatesZeroVisitPlace) {
  auto id = store_->AddBookmark("http://saved", "Saved", 50);
  ASSERT_TRUE(id.ok());
  auto place = store_->GetPlace(*store_->PlaceIdForUrl("http://saved"));
  ASSERT_TRUE(place.ok());
  EXPECT_EQ(place->visit_count, 0);
  int bookmarks = 0;
  auto cur = store_->Bookmarks();
  for (; cur.Valid(); cur.Next()) {
    auto row = cur.row();
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->title, "Saved");
    ++bookmarks;
  }
  ASSERT_TRUE(cur.status().ok());
  EXPECT_EQ(bookmarks, 1);
}

TEST_F(PlacesTest, InputHistoryCountsUses) {
  ASSERT_TRUE(store_->AddInput("rosebud", 10).ok());
  ASSERT_TRUE(store_->AddInput("rosebud", 20).ok());
  ASSERT_TRUE(store_->AddInput("wine", 30).ok());
  int rows = 0;
  int64_t rosebud_uses = 0;
  TimeMs rosebud_last = 0;
  auto cur = store_->Inputs();
  for (; cur.Valid(); cur.Next()) {
    auto row = cur.row();
    ASSERT_TRUE(row.ok());
    ++rows;
    if (row->input == "rosebud") {
      rosebud_uses = row->use_count;
      rosebud_last = row->last_used;
    }
  }
  ASSERT_TRUE(cur.status().ok());
  EXPECT_EQ(rows, 2);  // deduplicated by input string
  EXPECT_EQ(rosebud_uses, 2);
  EXPECT_EQ(rosebud_last, 20);
}

TEST_F(PlacesTest, DownloadLinksToKnownPlace) {
  auto v = store_->AddVisit("http://host/dl", "Downloads",
                            VisitType::kLink, 0, 5);
  ASSERT_TRUE(v.ok());
  auto d = store_->AddDownload("http://host/dl", "/tmp/file.zip", 10);
  ASSERT_TRUE(d.ok());
  int seen = 0;
  auto cur = store_->Downloads();
  for (; cur.Valid(); cur.Next()) {
    auto row = cur.row();
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->place_id, *store_->PlaceIdForUrl("http://host/dl"));
    EXPECT_EQ(row->target_path, "/tmp/file.zip");
    ++seen;
  }
  ASSERT_TRUE(cur.status().ok());
  EXPECT_EQ(seen, 1);
}

TEST_F(PlacesTest, DownloadFromUnknownSourceHasNoPlace) {
  ASSERT_TRUE(store_->AddDownload("http://nowhere/f.bin", "/tmp/f", 1).ok());
  auto cur = store_->Downloads();
  for (; cur.Valid(); cur.Next()) {
    auto row = cur.row();
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->place_id, 0u);
  }
  ASSERT_TRUE(cur.status().ok());
}

TEST_F(PlacesTest, FrecencyPrefersRecentTypedAndFrequent) {
  TimeMs now = Days(100);
  // Old, once-visited link page.
  ASSERT_TRUE(
      store_->AddVisit("http://old", "old", VisitType::kLink, 0, Days(1))
          .ok());
  // Recent typed page, visited often.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store_
                    ->AddVisit("http://hot", "hot", VisitType::kTyped, 0,
                               Days(99) + i)
                    .ok());
  }
  // Redirect-only page: zero bonus.
  ASSERT_TRUE(store_
                  ->AddVisit("http://redir", "", VisitType::kRedirectTemporary,
                             0, Days(99))
                  .ok());

  auto old_f = store_->Frecency(*store_->PlaceIdForUrl("http://old"), now);
  auto hot_f = store_->Frecency(*store_->PlaceIdForUrl("http://hot"), now);
  auto red_f = store_->Frecency(*store_->PlaceIdForUrl("http://redir"), now);
  ASSERT_TRUE(old_f.ok() && hot_f.ok() && red_f.ok());
  EXPECT_GT(*hot_f, *old_f);
  EXPECT_EQ(*red_f, 0.0);
}

TEST_F(PlacesTest, AutocompleteMatchesAllTokensRankedByFrecency) {
  TimeMs now = Days(10);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store_
                    ->AddVisit("http://wine-shop.example/cellar",
                               "wine cellar catalog", VisitType::kTyped, 0,
                               Days(9) + i)
                    .ok());
  }
  ASSERT_TRUE(store_
                  ->AddVisit("http://wine-blog.example/notes",
                             "wine tasting notes", VisitType::kLink, 0,
                             Days(2))
                  .ok());
  ASSERT_TRUE(store_
                  ->AddVisit("http://beer.example", "beer reviews",
                             VisitType::kLink, 0, Days(9))
                  .ok());

  auto results = store_->AutocompleteSearch("wine", 10, now);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  EXPECT_EQ((*results)[0].place.url, "http://wine-shop.example/cellar");

  // Multi-token: all tokens must match.
  results = store_->AutocompleteSearch("wine notes", 10, now);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].place.url, "http://wine-blog.example/notes");

  // Hidden (redirect/embed) places never autocomplete.
  ASSERT_TRUE(store_
                  ->AddVisit("http://wine-tracker.example/r",
                             "wine wine wine", VisitType::kEmbed, 0, Days(9))
                  .ok());
  results = store_->AutocompleteSearch("wine", 10, now);
  EXPECT_EQ(results->size(), 2u);
}

TEST_F(PlacesTest, VisitsForPlaceReturnsAllInOrder) {
  auto v1 = store_->AddVisit("http://a", "A", VisitType::kLink, 0, 1);
  ASSERT_TRUE(store_->AddVisit("http://b", "B", VisitType::kLink, 0, 2).ok());
  auto v3 = store_->AddVisit("http://a", "A", VisitType::kLink, 0, 3);
  auto visits = store_->VisitsForPlace(*store_->PlaceIdForUrl("http://a"));
  ASSERT_TRUE(visits.ok());
  EXPECT_EQ(*visits, (std::vector<uint64_t>{*v1, *v3}));
}

}  // namespace
}  // namespace bp::places
