#include "capture/recorders.hpp"

#include "util/strings.hpp"

namespace bp::capture {

using util::Status;

TimeMs EventTime(const BrowserEvent& event) {
  return std::visit([](const auto& e) { return e.time; }, event);
}

std::string DescribeEvent(const BrowserEvent& event) {
  struct Visitor {
    std::string operator()(const VisitEvent& e) const {
      return util::StrFormat("visit #%llu %s (tab %llu)",
                             (unsigned long long)e.visit_id, e.url.c_str(),
                             (unsigned long long)e.tab);
    }
    std::string operator()(const CloseEvent& e) const {
      return util::StrFormat("close #%llu", (unsigned long long)e.visit_id);
    }
    std::string operator()(const SearchEvent& e) const {
      return util::StrFormat("search \"%s\"", e.query.c_str());
    }
    std::string operator()(const BookmarkAddEvent& e) const {
      return util::StrFormat("bookmark %s", e.url.c_str());
    }
    std::string operator()(const DownloadEvent& e) const {
      return util::StrFormat("download %s -> %s", e.url.c_str(),
                             e.target_path.c_str());
    }
    std::string operator()(const FormSubmitEvent& e) const {
      return util::StrFormat("form submit [%s]", e.field_summary.c_str());
    }
  };
  return std::visit(Visitor{}, event);
}

// -------------------------------------------------------- PlacesRecorder

namespace {

places::VisitType ToVisitType(NavigationAction action) {
  switch (action) {
    case NavigationAction::kLink: return places::VisitType::kLink;
    case NavigationAction::kTyped: return places::VisitType::kTyped;
    case NavigationAction::kBookmark: return places::VisitType::kBookmark;
    case NavigationAction::kEmbed: return places::VisitType::kEmbed;
    case NavigationAction::kRedirect:
      return places::VisitType::kRedirectTemporary;
    case NavigationAction::kNewTab:
      // Firefox records a plain LINK visit for "open in new tab".
      return places::VisitType::kLink;
    case NavigationAction::kReload: return places::VisitType::kReload;
    case NavigationAction::kFormResult: return places::VisitType::kLink;
    case NavigationAction::kSearchResult: return places::VisitType::kLink;
  }
  return places::VisitType::kLink;
}

// Places records the referrer chain only for in-page causes. Typed,
// bookmark, and new-tab arrivals lose it (the paper's central gap).
bool PlacesKeepsReferrer(NavigationAction action) {
  switch (action) {
    case NavigationAction::kLink:
    case NavigationAction::kEmbed:
    case NavigationAction::kRedirect:
    case NavigationAction::kFormResult:
    case NavigationAction::kSearchResult:
      return true;
    case NavigationAction::kTyped:
    case NavigationAction::kBookmark:
    case NavigationAction::kNewTab:
    case NavigationAction::kReload:
      return false;
  }
  return false;
}

prov::EdgeKind ToEdgeKind(NavigationAction action) {
  switch (action) {
    case NavigationAction::kLink: return prov::EdgeKind::kLink;
    case NavigationAction::kTyped: return prov::EdgeKind::kTyped;
    case NavigationAction::kBookmark:
      // The navigation edge itself; the bookmark-click edge is added
      // separately from the bookmark node.
      return prov::EdgeKind::kLink;
    case NavigationAction::kEmbed: return prov::EdgeKind::kEmbed;
    case NavigationAction::kRedirect: return prov::EdgeKind::kRedirect;
    case NavigationAction::kNewTab: return prov::EdgeKind::kNewTab;
    case NavigationAction::kReload: return prov::EdgeKind::kReload;
    case NavigationAction::kFormResult: return prov::EdgeKind::kLink;
    case NavigationAction::kSearchResult: return prov::EdgeKind::kLink;
  }
  return prov::EdgeKind::kLink;
}

}  // namespace

Status PlacesRecorder::OnEvent(const BrowserEvent& event) {
  struct Visitor {
    PlacesRecorder& self;
    Status operator()(const VisitEvent& e) const { return self.OnVisit(e); }
    Status operator()(const CloseEvent&) const {
      return Status::Ok();  // Firefox does not record closes
    }
    Status operator()(const SearchEvent& e) const {
      return self.store_.AddInput(e.query, e.time);
    }
    Status operator()(const BookmarkAddEvent& e) const {
      return self.store_.AddBookmark(e.url, e.title, e.time).status();
    }
    Status operator()(const DownloadEvent& e) const {
      return self.store_.AddDownload(e.url, e.target_path, e.time).status();
    }
    Status operator()(const FormSubmitEvent& e) const {
      // Firefox form history: field contents only, no lineage.
      return self.store_.AddInput(e.field_summary, e.time);
    }
  };
  return std::visit(Visitor{*this}, event);
}

Status PlacesRecorder::OnVisit(const VisitEvent& event) {
  uint64_t from_visit = 0;
  if (PlacesKeepsReferrer(event.action) && event.referrer_visit != 0) {
    auto it = visit_map_.find(event.referrer_visit);
    if (it != visit_map_.end()) from_visit = it->second;
  }
  BP_ASSIGN_OR_RETURN(
      uint64_t visit_id,
      store_.AddVisit(event.url, event.title, ToVisitType(event.action),
                      from_visit, event.time));
  visit_map_[event.visit_id] = visit_id;
  return Status::Ok();
}

// ---------------------------------------------------- ProvenanceRecorder

ProvenanceRecorder::Txn::~Txn() {
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    if (it->previous == 0) {
      it->map->erase(it->stream_id);
    } else {
      (*it->map)[it->stream_id] = it->previous;
    }
  }
  recorder_.txn_ = nullptr;
}

void ProvenanceRecorder::Map(StreamMap& map, uint64_t stream_id,
                             prov::NodeId node) {
  prov::NodeId& entry = map[stream_id];  // 0 when new
  if (txn_ != nullptr) txn_->undo_.push_back(Undo{&map, stream_id, entry});
  entry = node;
}

Status ProvenanceRecorder::OnEvent(const BrowserEvent& event) {
  struct Visitor {
    ProvenanceRecorder& self;
    Status operator()(const VisitEvent& e) const { return self.OnVisit(e); }
    Status operator()(const CloseEvent& e) const {
      auto it = self.visit_map_.find(e.visit_id);
      if (it == self.visit_map_.end()) return Status::Ok();
      return self.store_.RecordClose(it->second, e.time);
    }
    Status operator()(const SearchEvent& e) const {
      prov::NodeId from = 0;
      auto it = self.visit_map_.find(e.from_visit);
      if (it != self.visit_map_.end()) from = it->second;
      BP_ASSIGN_OR_RETURN(prov::NodeId issue,
                          self.store_.RecordSearch(e.query, from, e.time));
      self.Map(self.search_map_, e.search_id, issue);
      return Status::Ok();
    }
    Status operator()(const BookmarkAddEvent& e) const {
      prov::NodeId from = 0;
      auto it = self.visit_map_.find(e.from_visit);
      if (it != self.visit_map_.end()) from = it->second;
      BP_ASSIGN_OR_RETURN(
          prov::NodeId bookmark,
          self.store_.RecordBookmarkAdd(e.title, from, e.time));
      self.Map(self.bookmark_map_, e.bookmark_id, bookmark);
      return Status::Ok();
    }
    Status operator()(const DownloadEvent& e) const {
      prov::NodeId from = 0;
      auto it = self.visit_map_.find(e.from_visit);
      if (it != self.visit_map_.end()) from = it->second;
      BP_ASSIGN_OR_RETURN(
          prov::NodeId download,
          self.store_.RecordDownload(e.url, e.target_path, from, e.time));
      self.Map(self.download_map_, e.download_id, download);
      return Status::Ok();
    }
    Status operator()(const FormSubmitEvent& e) const {
      prov::NodeId from = 0;
      auto it = self.visit_map_.find(e.from_visit);
      if (it != self.visit_map_.end()) from = it->second;
      BP_ASSIGN_OR_RETURN(
          prov::NodeId form,
          self.store_.RecordFormSubmit(e.field_summary, from, e.time));
      self.Map(self.form_map_, e.form_id, form);
      return Status::Ok();
    }
  };
  return std::visit(Visitor{*this}, event);
}

Status ProvenanceRecorder::OnVisit(const VisitEvent& event) {
  prov::NodeId referrer = 0;
  if (event.referrer_visit != 0) {
    auto it = visit_map_.find(event.referrer_visit);
    if (it != visit_map_.end()) referrer = it->second;
  }
  BP_ASSIGN_OR_RETURN(
      prov::NodeId view,
      store_.RecordVisit(event.url, event.title, ToEdgeKind(event.action),
                         referrer, event.time,
                         static_cast<int64_t>(event.tab)));
  Map(visit_map_, event.visit_id, view);

  // Non-link causes get their dedicated lineage edges.
  if (event.action == NavigationAction::kSearchResult &&
      event.search_id != 0) {
    auto it = search_map_.find(event.search_id);
    if (it != search_map_.end()) {
      BP_RETURN_IF_ERROR(store_.LinkSearchResult(it->second, view));
    }
  }
  if (event.action == NavigationAction::kBookmark &&
      event.bookmark_id != 0) {
    auto it = bookmark_map_.find(event.bookmark_id);
    if (it != bookmark_map_.end()) {
      BP_RETURN_IF_ERROR(store_.LinkBookmarkClick(it->second, view));
    }
  }
  if (event.action == NavigationAction::kFormResult && event.form_id != 0) {
    auto it = form_map_.find(event.form_id);
    if (it != form_map_.end()) {
      BP_RETURN_IF_ERROR(store_.LinkFormResult(it->second, view));
    }
  }
  return Status::Ok();
}

}  // namespace bp::capture
