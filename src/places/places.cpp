#include "places/places.hpp"

#include <algorithm>

#include "storage/pager.hpp"
#include "util/require.hpp"
#include "util/serde.hpp"
#include "util/strings.hpp"

namespace bp::storage {

void RowCodec<places::PlaceRow>::Encode(const places::PlaceRow& row,
                                        util::Writer& w) {
  w.PutString(row.url);
  w.PutString(row.title);
  w.PutSignedVarint64(row.visit_count);
  w.PutU8(static_cast<uint8_t>((row.typed ? 1 : 0) |
                               (row.hidden ? 2 : 0)));
  w.PutSignedVarint64(row.last_visit);
}

util::Result<places::PlaceRow> RowCodec<places::PlaceRow>::Decode(
    util::Reader& r) {
  places::PlaceRow row;
  row.url = std::string(r.ReadString());
  row.title = std::string(r.ReadString());
  row.visit_count = r.ReadSignedVarint64();
  uint8_t flags = r.ReadU8();
  row.typed = (flags & 1) != 0;
  row.hidden = (flags & 2) != 0;
  row.last_visit = r.ReadSignedVarint64();
  return row;
}

void RowCodec<places::VisitRow>::Encode(const places::VisitRow& row,
                                        util::Writer& w) {
  w.PutVarint64(row.place_id);
  w.PutVarint64(row.from_visit);
  w.PutSignedVarint64(row.date);
  w.PutU8(static_cast<uint8_t>(row.type));
}

util::Result<places::VisitRow> RowCodec<places::VisitRow>::Decode(
    util::Reader& r) {
  places::VisitRow row;
  row.place_id = r.ReadVarint64();
  row.from_visit = r.ReadVarint64();
  row.date = r.ReadSignedVarint64();
  row.type = static_cast<places::VisitType>(r.ReadU8());
  return row;
}

void RowCodec<places::BookmarkRow>::Encode(const places::BookmarkRow& row,
                                           util::Writer& w) {
  w.PutVarint64(row.place_id);
  w.PutString(row.title);
  w.PutSignedVarint64(row.added);
}

util::Result<places::BookmarkRow> RowCodec<places::BookmarkRow>::Decode(
    util::Reader& r) {
  places::BookmarkRow row;
  row.place_id = r.ReadVarint64();
  row.title = std::string(r.ReadString());
  row.added = r.ReadSignedVarint64();
  return row;
}

void RowCodec<places::InputRow>::Encode(const places::InputRow& row,
                                        util::Writer& w) {
  w.PutString(row.input);
  w.PutSignedVarint64(row.use_count);
  w.PutSignedVarint64(row.last_used);
}

util::Result<places::InputRow> RowCodec<places::InputRow>::Decode(
    util::Reader& r) {
  places::InputRow row;
  row.input = std::string(r.ReadString());
  row.use_count = r.ReadSignedVarint64();
  row.last_used = r.ReadSignedVarint64();
  return row;
}

void RowCodec<places::DownloadRow>::Encode(const places::DownloadRow& row,
                                           util::Writer& w) {
  w.PutString(row.source_url);
  w.PutString(row.target_path);
  w.PutVarint64(row.place_id);
  w.PutSignedVarint64(row.start);
}

util::Result<places::DownloadRow> RowCodec<places::DownloadRow>::Decode(
    util::Reader& r) {
  places::DownloadRow row;
  row.source_url = std::string(r.ReadString());
  row.target_path = std::string(r.ReadString());
  row.place_id = r.ReadVarint64();
  row.start = r.ReadSignedVarint64();
  return row;
}

}  // namespace bp::storage

namespace bp::places {

using storage::AutoTxn;
using storage::Index;
using storage::Table;
using util::Result;
using util::Status;

Result<std::unique_ptr<PlacesStore>> PlacesStore::Open(storage::Db& db) {
  std::unique_ptr<PlacesStore> store(new PlacesStore(db));
  BP_ASSIGN_OR_RETURN(store->places_tree_,
                      db.OpenOrCreateTree("places.places"));
  BP_ASSIGN_OR_RETURN(store->visits_tree_,
                      db.OpenOrCreateTree("places.visits"));
  BP_ASSIGN_OR_RETURN(store->bookmarks_tree_,
                      db.OpenOrCreateTree("places.bookmarks"));
  BP_ASSIGN_OR_RETURN(store->input_tree_,
                      db.OpenOrCreateTree("places.inputhistory"));
  BP_ASSIGN_OR_RETURN(store->downloads_tree_,
                      db.OpenOrCreateTree("places.downloads"));
  BP_ASSIGN_OR_RETURN(store->url_index_tree_,
                      db.OpenOrCreateTree("places.url_index"));
  BP_ASSIGN_OR_RETURN(store->visits_by_place_tree_,
                      db.OpenOrCreateTree("places.visits_by_place"));
  return store;
}

Result<uint64_t> PlacesStore::UpsertPlace(std::string_view url,
                                          std::string_view title,
                                          VisitType type, TimeMs date) {
  Table<PlaceRow> places(places_tree_);
  const bool hidden_type =
      type == VisitType::kEmbed || type == VisitType::kRedirectPermanent ||
      type == VisitType::kRedirectTemporary;

  auto existing = PlaceIdForUrl(url);
  if (existing.ok()) {
    BP_ASSIGN_OR_RETURN(PlaceRow row, places.Get(*existing));
    ++row.visit_count;
    if (!title.empty()) row.title = std::string(title);
    if (type == VisitType::kTyped) row.typed = true;
    if (!hidden_type) row.hidden = false;
    row.last_visit = std::max(row.last_visit, date);
    BP_RETURN_IF_ERROR(places.Put(*existing, row));
    return *existing;
  }
  if (!existing.status().IsNotFound()) return existing.status();

  PlaceRow row;
  row.url = std::string(url);
  row.title = std::string(title);
  row.visit_count = 1;
  row.typed = type == VisitType::kTyped;
  row.hidden = hidden_type;
  row.last_visit = date;
  BP_ASSIGN_OR_RETURN(uint64_t id, places.Insert(row));
  Index url_index(url_index_tree_);
  BP_RETURN_IF_ERROR(url_index.Add(url, id));
  return id;
}

Result<uint64_t> PlacesStore::AddVisit(std::string_view url,
                                       std::string_view title,
                                       VisitType type, uint64_t from_visit,
                                       TimeMs date) {
  AutoTxn txn(db_.pager());
  BP_ASSIGN_OR_RETURN(uint64_t place_id,
                      UpsertPlace(url, title, type, date));
  Table<VisitRow> visits(visits_tree_);
  BP_ASSIGN_OR_RETURN(uint64_t visit_id,
                      visits.Insert(VisitRow{place_id, from_visit, date,
                                             type}));
  BP_RETURN_IF_ERROR(visits_by_place_tree_->Put(
      util::OrderedKeyU64Pair(place_id, visit_id), {}));
  BP_RETURN_IF_ERROR(txn.Commit());
  return visit_id;
}

Result<uint64_t> PlacesStore::AddBookmark(std::string_view url,
                                          std::string_view title,
                                          TimeMs added) {
  AutoTxn txn(db_.pager());
  // Bookmarking does not count as a visit, but the place row must exist;
  // Firefox inserts a hidden, zero-visit place in that case.
  uint64_t place_id;
  auto existing = PlaceIdForUrl(url);
  if (existing.ok()) {
    place_id = *existing;
  } else if (existing.status().IsNotFound()) {
    Table<PlaceRow> places(places_tree_);
    PlaceRow row;
    row.url = std::string(url);
    row.title = std::string(title);
    row.visit_count = 0;
    row.last_visit = 0;
    BP_ASSIGN_OR_RETURN(place_id, places.Insert(row));
    Index url_index(url_index_tree_);
    BP_RETURN_IF_ERROR(url_index.Add(url, place_id));
  } else {
    return existing.status();
  }
  Table<BookmarkRow> bookmarks(bookmarks_tree_);
  BP_ASSIGN_OR_RETURN(
      uint64_t id,
      bookmarks.Insert(BookmarkRow{place_id, std::string(title), added}));
  BP_RETURN_IF_ERROR(txn.Commit());
  return id;
}

Status PlacesStore::AddInput(std::string_view input, TimeMs used) {
  // moz_inputhistory keys on the input string; model it the same way by
  // scanning for an existing row (input history stays small in practice).
  Table<InputRow> inputs(input_tree_);
  Table<InputRow>::Cursor cur = inputs.Scan();
  for (; cur.Valid(); cur.Next()) {
    BP_ASSIGN_OR_RETURN(InputRow row, cur.row());
    if (row.input == input) {
      ++row.use_count;
      row.last_used = std::max(row.last_used, used);
      return inputs.Put(cur.id(), row);
    }
  }
  BP_RETURN_IF_ERROR(cur.status());
  return inputs.Insert(InputRow{std::string(input), 1, used}).status();
}

Result<uint64_t> PlacesStore::AddDownload(std::string_view source_url,
                                          std::string_view target_path,
                                          TimeMs start) {
  uint64_t place_id = 0;
  auto place = PlaceIdForUrl(source_url);
  if (place.ok()) {
    place_id = *place;
  } else if (!place.status().IsNotFound()) {
    return place.status();
  }
  Table<DownloadRow> downloads(downloads_tree_);
  return downloads.Insert(DownloadRow{std::string(source_url),
                                      std::string(target_path), place_id,
                                      start});
}

Result<uint64_t> PlacesStore::PlaceIdForUrl(std::string_view url) const {
  BP_ASSIGN_OR_RETURN(uint64_t found, Index(url_index_tree_).FirstEqual(url));
  if (found == 0) return Status::NotFound("no place for url");
  return found;
}

Result<PlaceRow> PlacesStore::GetPlace(uint64_t place_id) const {
  Table<PlaceRow> places(places_tree_);
  return places.Get(place_id);
}

Result<VisitRow> PlacesStore::GetVisit(uint64_t visit_id) const {
  Table<VisitRow> visits(visits_tree_);
  return visits.Get(visit_id);
}

Result<std::vector<uint64_t>> PlacesStore::VisitsForPlace(
    uint64_t place_id) const {
  std::vector<uint64_t> out;
  storage::BTree::Cursor cur = visits_by_place_tree_->NewCursor();
  for (cur.SeekRange(util::OrderedKeyU64Pair(place_id, 0),
                     util::OrderedKeyU64Pair(place_id + 1, 0));
       cur.Valid(); cur.Next()) {
    out.push_back(util::DecodeOrderedKeyU64(cur.key().substr(8)));
  }
  BP_RETURN_IF_ERROR(cur.status());
  return out;
}

Table<PlaceRow>::Cursor PlacesStore::Places() const {
  return Table<PlaceRow>(places_tree_).Scan();
}

Table<VisitRow>::Cursor PlacesStore::Visits() const {
  return Table<VisitRow>(visits_tree_).Scan();
}

Table<BookmarkRow>::Cursor PlacesStore::Bookmarks() const {
  return Table<BookmarkRow>(bookmarks_tree_).Scan();
}

Table<InputRow>::Cursor PlacesStore::Inputs() const {
  return Table<InputRow>(input_tree_).Scan();
}

Table<DownloadRow>::Cursor PlacesStore::Downloads() const {
  return Table<DownloadRow>(downloads_tree_).Scan();
}

Result<uint64_t> PlacesStore::PlaceCount() const {
  Table<PlaceRow> places(places_tree_);
  return places.Count();
}

Result<uint64_t> PlacesStore::VisitCount() const {
  Table<VisitRow> visits(visits_tree_);
  return visits.Count();
}

namespace {

// Firefox frecency: points for a visit = recency bucket weight scaled by
// a transition bonus; frecency = visit_count * average points over the
// sampled (most recent) visits.
double RecencyBucketWeight(TimeMs age) {
  if (age <= util::Days(4)) return 100.0;
  if (age <= util::Days(14)) return 70.0;
  if (age <= util::Days(31)) return 50.0;
  if (age <= util::Days(90)) return 30.0;
  return 10.0;
}

double TransitionBonus(VisitType type) {
  switch (type) {
    case VisitType::kTyped: return 2.0;
    case VisitType::kBookmark: return 1.75;
    case VisitType::kLink: return 1.0;
    case VisitType::kDownload: return 1.0;
    case VisitType::kFramedLink: return 0.3;
    case VisitType::kEmbed:
    case VisitType::kRedirectPermanent:
    case VisitType::kRedirectTemporary:
    case VisitType::kReload: return 0.0;
  }
  return 0.0;
}

constexpr size_t kFrecencySampleSize = 10;

}  // namespace

Result<double> PlacesStore::Frecency(uint64_t place_id, TimeMs now) const {
  BP_ASSIGN_OR_RETURN(PlaceRow place, GetPlace(place_id));
  BP_ASSIGN_OR_RETURN(std::vector<uint64_t> visit_ids,
                      VisitsForPlace(place_id));
  if (visit_ids.empty()) return 0.0;

  // Most recent visits: visit ids ascend with time of insertion.
  size_t sample =
      std::min(kFrecencySampleSize, visit_ids.size());
  double points = 0.0;
  Table<VisitRow> visits(visits_tree_);
  for (size_t i = visit_ids.size() - sample; i < visit_ids.size(); ++i) {
    BP_ASSIGN_OR_RETURN(VisitRow visit, visits.Get(visit_ids[i]));
    points += RecencyBucketWeight(now - visit.date) *
              TransitionBonus(visit.type);
  }
  return static_cast<double>(place.visit_count) * points /
         static_cast<double>(sample);
}

Result<std::vector<PlaceMatch>> PlacesStore::AutocompleteSearch(
    std::string_view query, size_t k, TimeMs now) const {
  std::vector<std::string> needles;
  for (const std::string& part : util::Split(util::ToLower(query), ' ')) {
    needles.push_back(part);
  }
  std::vector<PlaceMatch> matches;
  Table<PlaceRow>::Cursor cur = Places();
  for (; cur.Valid(); cur.Next()) {
    BP_ASSIGN_OR_RETURN(PlaceRow place, cur.row());
    if (place.hidden) continue;
    std::string haystack = util::ToLower(place.url + " " + place.title);
    if (std::all_of(needles.begin(), needles.end(),
                    [&](const std::string& needle) {
                      return haystack.find(needle) != std::string::npos;
                    })) {
      matches.push_back(PlaceMatch{cur.id(), std::move(place), 0.0});
    }
  }
  BP_RETURN_IF_ERROR(cur.status());
  for (PlaceMatch& match : matches) {
    auto frecency = Frecency(match.place_id, now);
    BP_RETURN_IF_ERROR(frecency.status());
    match.frecency = *frecency;
  }
  std::sort(matches.begin(), matches.end(),
            [](const PlaceMatch& a, const PlaceMatch& b) {
              if (a.frecency != b.frecency) return a.frecency > b.frecency;
              return a.place_id < b.place_id;
            });
  if (matches.size() > k) matches.resize(k);
  return matches;
}

}  // namespace bp::places
