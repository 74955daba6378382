// The two history recorders.
//
// PlacesRecorder keeps what Firefox 3 keeps — and drops what Firefox
// drops. ProvenanceRecorder keeps the full provenance graph. Driving
// both from one event stream realizes the paper's comparison: same
// browsing, two schemas.
#pragma once

#include <unordered_map>
#include <vector>

#include "capture/bus.hpp"
#include "capture/events.hpp"
#include "places/places.hpp"
#include "prov/prov_store.hpp"
#include "util/status.hpp"

namespace bp::capture {

// Baseline. Faithfully lossy:
//   - from_visit is recorded only for link / redirect / embed / form /
//     search-result navigations; typed, bookmark, and new-tab arrivals
//     get from_visit = 0 (section 3.2's "second-class citizens").
//   - Close events are dropped entirely.
//   - Searches are stored as bare input-history strings.
//   - Downloads record only their source URL.
class PlacesRecorder : public EventSink {
 public:
  explicit PlacesRecorder(places::PlacesStore& store) : store_(store) {}

  util::Status OnEvent(const BrowserEvent& event) override;

  // Stream visit id -> Places visit row id (exposed for tests).
  const std::unordered_map<uint64_t, uint64_t>& visit_map() const {
    return visit_map_;
  }

 private:
  util::Status OnVisit(const VisitEvent& event);

  places::PlacesStore& store_;
  std::unordered_map<uint64_t, uint64_t> visit_map_;
};

// The provenance-aware recorder: every event becomes nodes/edges in the
// unified graph, including the relationships Places cannot express.
class ProvenanceRecorder : public EventSink {
  using StreamMap = std::unordered_map<uint64_t, prov::NodeId>;
  struct Undo {
    StreamMap* map;
    uint64_t stream_id;
    prov::NodeId previous;  // 0: the entry was new (node ids start at 1)
  };

 public:
  explicit ProvenanceRecorder(prov::ProvStore& store) : store_(store) {}

  util::Status OnEvent(const BrowserEvent& event) override;

  // Ties the stream-id maps to one storage transaction (ProvenanceDb
  // opens one per ingested chunk). While a Txn is open, every entry
  // OnEvent adds or replaces is logged; destroying the Txn restores the
  // maps to what they held when it opened, except for the entries kept
  // by Commit(). A rolled-back transaction's node ids are reused by the
  // next pages, so no stream id may keep one.
  class Txn {
   public:
    explicit Txn(ProvenanceRecorder& recorder) : recorder_(recorder) {
      recorder_.txn_ = this;
    }
    ~Txn();
    Txn(const Txn&) = delete;
    Txn& operator=(const Txn&) = delete;

    // Keeps every entry made so far (the transaction committed).
    void Commit() { undo_.clear(); }

   private:
    friend class ProvenanceRecorder;
    ProvenanceRecorder& recorder_;
    std::vector<Undo> undo_;
  };

  // Stream visit id -> view node (visit node under node versioning,
  // page node under edge timestamping).
  const StreamMap& visit_map() const { return visit_map_; }
  // Stream search/bookmark/download/form ids -> their nodes.
  const StreamMap& search_map() const { return search_map_; }
  const StreamMap& bookmark_map() const { return bookmark_map_; }
  const StreamMap& download_map() const { return download_map_; }
  const StreamMap& form_map() const { return form_map_; }

 private:
  util::Status OnVisit(const VisitEvent& event);
  // map[stream_id] = node, logged in the open Txn if there is one.
  void Map(StreamMap& map, uint64_t stream_id, prov::NodeId node);

  prov::ProvStore& store_;
  StreamMap visit_map_;
  StreamMap search_map_;
  StreamMap bookmark_map_;
  StreamMap download_map_;
  StreamMap form_map_;
  Txn* txn_ = nullptr;
};

}  // namespace bp::capture
