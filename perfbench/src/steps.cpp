// Client steps more than one workload takes: capturing a session and
// asking a text-backed query.
#include <type_traits>

#include "text/tokenizer.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

template <typename R>
Answer Collect(const bp::util::Result<R>& result, bool expect_pages) {
  Answer a;
  if (!result.ok()) return a;
  a.stats = result->stats;
  if constexpr (std::is_same_v<R, bp::search::ContextualSearchResult>) {
    a.pages = result->pages;
    a.ok = result->pages.empty() != expect_pages;
  } else {
    a.ok = true;
  }
  return a;
}

}  // namespace

bool ExpectsPages(const std::string& query) {
  return !bp::text::Tokenize(query).empty();
}

SessionResult CaptureSession(bp::prov::ProvenanceDb& db, Tracer& tracer,
                             const History& history, size_t session,
                             bool traced, LayerData& layers) {
  SessionResult s;
  bp::prov::ProvenanceDb::IngestTicket ticket = 0;
  for (size_t i = history.bounds[session]; i < history.bounds[session + 1];
       ++i) {
    double enqueue_ms = 0;
    auto t = tracer.Time("ProvenanceDb::IngestAsync", &enqueue_ms,
                         [&] { return db.IngestAsync(history.out.events[i]); });
    if (traced) layers.enqueue_us.Add(enqueue_ms * 1e3);
    if (!t.ok()) return s;
    ticket = *t;
    ++s.events;
  }
  const bp::util::Status flushed = tracer.Time(
      "ProvenanceDb::Flush", &s.flush_ms, [&] { return db.Flush(ticket); });
  s.ok = flushed.ok();
  return s;
}

Answer AskText(bp::prov::ProvenanceDb& db, Tracer& tracer, Family family,
               const std::string& query, const std::string& context,
               bool traced, LayerData& layers) {
  const bool expect_pages = ExpectsPages(query);
  auto ask = [&](auto& target) {
    switch (family) {
      case kPersonalize:
        return Collect(target.Personalize(query), expect_pages);
      case kTimeContext:
        return Collect(target.TimeContext(query, context), expect_pages);
      default:
        return Collect(target.Search(query), expect_pages);
    }
  };
  static const char* const kOneShot[] = {"ProvenanceDb::Search",
                                         "ProvenanceDb::Personalize",
                                         "ProvenanceDb::TimeContext"};
  static const char* const kViewCall[] = {"SnapshotView::Search",
                                          "SnapshotView::Personalize",
                                          "SnapshotView::TimeContext"};
  if (!traced) return tracer.Wrap(kOneShot[family], [&] { return ask(db); });

  (void)tracer.Wrap("ProvenanceDb::Drain", [&] { return db.Drain(); });
  double begin_ms = 0;
  auto view = tracer.Time("ProvenanceDb::BeginSnapshot", &begin_ms,
                          [&] { return db.BeginSnapshot(); });
  if (!view.ok()) return Answer{};
  double call_ms = 0;
  Answer a =
      tracer.Time(kViewCall[family], &call_ms, [&] { return ask(*view); });
  a.begin_ms = begin_ms;
  layers.AddQuery(family, call_ms, a.stats);
  return a;
}

void ProbeText(bp::prov::ProvenanceDb& db, Tracer& tracer,
               const std::string& query, double op_begin_ms,
               LayerData& layers) {
  double begin_ms = 0;
  auto view = tracer.Time("probe.BeginSnapshot", &begin_ms,
                          [&] { return db.BeginSnapshot(); });
  if (!view.ok()) return;
  double bm25_ms = 0;
  (void)tracer.Time("probe.TextualSearch", &bm25_ms,
                    [&] { return view->TextualSearch(query); });
  layers.begin_us.Add(begin_ms * 1e3);
  layers.bm25_ms.Add(bm25_ms);
  layers.refresh_ms.Add(op_begin_ms - begin_ms);
}

}  // namespace pb
