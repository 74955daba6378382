// PlacesStore: a faithful model of the Firefox 3 "Places" history schema
// — the baseline the paper measures its provenance schema against.
//
// What Places records (and what we reproduce):
//   - moz_places rows: one per URL, with title, visit count, typed flag,
//     last visit date, and on-demand frecency.
//   - moz_historyvisits rows: one per visit, with place, date, visit
//     type (the Firefox "transition" table the paper cites), and
//     from_visit — the referring visit.
//   - moz_bookmarks, moz_inputhistory (typed inputs / form autocomplete),
//     and a downloads table (Firefox 3 kept these in annotations).
//
// What Places deliberately does NOT record — the gaps Section 3 of the
// paper builds its case on — is reproduced too:
//   - from_visit is 0 for typed, bookmark, and new-tab navigations ("when
//     the user moves from page to page by typing in the location bar,
//     most browsers will not record a relationship").
//   - No close timestamps ("from the perspective of Firefox history,
//     every page is always open").
//   - Search queries land in input history as bare strings with no link
//     to the result pages they generated.
//   - Downloads record a source URL but no referral chain.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/db.hpp"
#include "storage/table.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace bp::places {

using util::TimeMs;

// Firefox nsINavHistoryService transition types.
enum class VisitType : uint8_t {
  kLink = 1,
  kTyped = 2,
  kBookmark = 3,
  kEmbed = 4,
  kRedirectPermanent = 5,
  kRedirectTemporary = 6,
  kDownload = 7,
  kFramedLink = 8,
  kReload = 9,
};

struct PlaceRow {
  std::string url;
  std::string title;
  int64_t visit_count = 0;
  bool typed = false;   // ever reached by typing
  bool hidden = false;  // embed/redirect-only places (Firefox hides them)
  TimeMs last_visit = 0;
};

struct VisitRow {
  uint64_t place_id = 0;
  uint64_t from_visit = 0;  // 0 = no recorded referrer
  TimeMs date = 0;
  VisitType type = VisitType::kLink;
};

struct BookmarkRow {
  uint64_t place_id = 0;
  std::string title;
  TimeMs added = 0;
};

struct InputRow {
  std::string input;
  int64_t use_count = 0;
  TimeMs last_used = 0;
};

struct DownloadRow {
  std::string source_url;
  std::string target_path;
  uint64_t place_id = 0;  // the source page, when it is in history
  TimeMs start = 0;
};

// An autocomplete / history-search result.
struct PlaceMatch {
  uint64_t place_id = 0;
  PlaceRow place;
  double frecency = 0.0;
};

}  // namespace bp::places

namespace bp::storage {

// Row codecs of the Places tables, declared here so that
// Table<Row>::Cursor::row() decodes outside places.cpp (defined there).
template <>
struct RowCodec<places::PlaceRow> {
  static void Encode(const places::PlaceRow& row, util::Writer& w);
  static util::Result<places::PlaceRow> Decode(util::Reader& r);
};
template <>
struct RowCodec<places::VisitRow> {
  static void Encode(const places::VisitRow& row, util::Writer& w);
  static util::Result<places::VisitRow> Decode(util::Reader& r);
};
template <>
struct RowCodec<places::BookmarkRow> {
  static void Encode(const places::BookmarkRow& row, util::Writer& w);
  static util::Result<places::BookmarkRow> Decode(util::Reader& r);
};
template <>
struct RowCodec<places::InputRow> {
  static void Encode(const places::InputRow& row, util::Writer& w);
  static util::Result<places::InputRow> Decode(util::Reader& r);
};
template <>
struct RowCodec<places::DownloadRow> {
  static void Encode(const places::DownloadRow& row, util::Writer& w);
  static util::Result<places::DownloadRow> Decode(util::Reader& r);
};

}  // namespace bp::storage

namespace bp::places {

class PlacesStore {
 public:
  // Opens (creating if needed) the Places tables in `db` under the
  // "places." tree namespace.
  static util::Result<std::unique_ptr<PlacesStore>> Open(storage::Db& db);

  // Records a visit, upserting the place row. `from_visit` must follow
  // Firefox semantics: callers pass 0 for typed/bookmark/new-tab
  // navigations (see PlacesRecorder). Returns the new visit id.
  util::Result<uint64_t> AddVisit(std::string_view url,
                                  std::string_view title, VisitType type,
                                  uint64_t from_visit, TimeMs date);

  util::Result<uint64_t> AddBookmark(std::string_view url,
                                     std::string_view title, TimeMs added);

  // Typed-input / search-box history (moz_inputhistory): bare strings.
  util::Status AddInput(std::string_view input, TimeMs used);

  util::Result<uint64_t> AddDownload(std::string_view source_url,
                                     std::string_view target_path,
                                     TimeMs start);

  // ------------------------------------------------------------ lookup
  util::Result<uint64_t> PlaceIdForUrl(std::string_view url) const;
  util::Result<PlaceRow> GetPlace(uint64_t place_id) const;
  util::Result<VisitRow> GetVisit(uint64_t visit_id) const;
  util::Result<std::vector<uint64_t>> VisitsForPlace(uint64_t place_id) const;

  // Cursors over each table, ascending row id; row() decodes the row.
  storage::Table<PlaceRow>::Cursor Places() const;
  storage::Table<VisitRow>::Cursor Visits() const;
  storage::Table<BookmarkRow>::Cursor Bookmarks() const;
  storage::Table<InputRow>::Cursor Inputs() const;
  storage::Table<DownloadRow>::Cursor Downloads() const;

  util::Result<uint64_t> PlaceCount() const;
  util::Result<uint64_t> VisitCount() const;

  // --------------------------------------------------------- frecency
  // Firefox's ranking heuristic: recency-bucketed, transition-weighted
  // points from the most recent visits, scaled by total visit count.
  util::Result<double> Frecency(uint64_t place_id, TimeMs now) const;

  // "Smart location bar" search: every query token must appear as a
  // substring of the URL or title (case-insensitive); results ranked by
  // frecency. This is a full scan, as in Firefox (SQLite LIKE).
  util::Result<std::vector<PlaceMatch>> AutocompleteSearch(
      std::string_view query, size_t k, TimeMs now) const;

 private:
  explicit PlacesStore(storage::Db& db) : db_(db) {}

  util::Result<uint64_t> UpsertPlace(std::string_view url,
                                     std::string_view title, VisitType type,
                                     TimeMs date);

  storage::Db& db_;
  storage::BTree* places_tree_ = nullptr;
  storage::BTree* visits_tree_ = nullptr;
  storage::BTree* bookmarks_tree_ = nullptr;
  storage::BTree* input_tree_ = nullptr;
  storage::BTree* downloads_tree_ = nullptr;
  storage::BTree* url_index_tree_ = nullptr;
  storage::BTree* visits_by_place_tree_ = nullptr;
};

}  // namespace bp::places
