// forensics: writes beside reads on a compressed database several
// times larger than its pool. After each captured session the client
// runs a read-your-writes Search for the session's last query (which
// pays the lazy index refresh), then, for each download in the session,
// TraceDownload and DescendantDownloads on the download's trigger page.
// Pool misses, the compressed cold tier, decompression, snapshots
// opened right after commits, index refreshes on WAL stream 1 and
// compressed checkpoints do their work here and little elsewhere.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <unordered_map>
#include <variant>

#include "workloads.hpp"

namespace pb {

namespace {

// The set-up bulk-loads the first kBulkDays (about 5 MiB with the text
// index) into a kPoolBytes pool; the timed phase replays the sessions
// after them, about 21 a second.
constexpr uint32_t kBulkDays = 60;
constexpr double kNominalSessionsPerSecond = 21;
constexpr size_t kPoolBytes = 2 << 20;
constexpr size_t kWarmupSearches = 16;

struct ForensicsState {
  History history;
  size_t first_session = 0;  // the first session the timed phase replays
  std::string dir;
  std::unique_ptr<bp::prov::ProvenanceDb> db;
};

}  // namespace

Result RunForensics(const Args& args, Tracer& tracer) {
  Result r;
  const auto options = DbOptions(/*compress=*/true, kPoolBytes);
  const size_t sessions =
      PhaseOps(args.seconds, kNominalSessionsPerSecond, 0);
  ForensicsState s;
  const double setup_s = RepeatSetup(
      args.dir, 5,
      [&](const std::string& dir) {
        ForensicsState st;
        st.history = MakeHistory(args.seed, kBulkDays + DaysFor(sessions));
        const History& h = st.history;
        while (st.first_session < h.sessions() &&
               bp::capture::EventTime(
                   h.out.events[h.bounds[st.first_session]]) <
                   bp::util::Days(kBulkDays)) {
          ++st.first_session;
        }
        const std::vector<bp::capture::BrowserEvent> bulk(
            h.out.events.begin(),
            h.out.events.begin() +
                static_cast<std::ptrdiff_t>(h.bounds[st.first_session]));
        std::filesystem::create_directories(dir);
        st.dir = dir;
        const std::string path = dir + "/history.db";
        auto db = bp::prov::ProvenanceDb::Open(path, options);
        if (!db.ok() || !(*db)->IngestAll(bulk).ok()) return st;
        double close_ms = 0;
        const bp::util::Status closed = tracer.Time(
            "ProvenanceDb::Close", &close_ms, [&] { return (*db)->Close(); });
        double open_ms = 0;
        auto reopened = tracer.Time("ProvenanceDb::Open", &open_ms, [&] {
          return bp::prov::ProvenanceDb::Open(path, options);
        });
        if (!closed.ok() || !reopened.ok()) return st;
        r.layers.close_ms.Add(close_ms);
        r.layers.open_ms.Add(open_ms);
        st.db = std::move(*reopened);
        for (size_t k = 0; k < kWarmupSearches && k < st.first_session; ++k) {
          LayerData unused;
          const std::string q = h.SessionQuery(st.first_session - 1 - k);
          (void)AskText(*st.db, tracer, kSearch, q, q, /*traced=*/false,
                        unused);
        }
        return st;
      },
      s);
  if (s.db == nullptr ||
      s.history.sessions() < s.first_session + sessions) {
    r.Fail("set-up failed");
    return r;
  }
  bp::prov::ProvenanceDb& db = *s.db;
  const History& h = s.history;
  std::unordered_map<uint64_t, const bp::sim::DownloadEpisode*> episodes;
  for (const auto& episode : h.out.downloads) {
    episodes[episode.download_id] = &episode;
  }
  std::vector<std::string> queries(h.sessions());
  for (size_t i = s.first_session; i < h.sessions(); ++i) {
    queries[i] = h.SessionQuery(i);
  }

  Samples flush_ms, search_ms, lineage_ms, descendants_ms, round_ms;
  double ingest_ms = 0;
  size_t events = h.bounds[s.first_session];  // the bulk-loaded ones
  size_t skipped_downloads = 0;
  OpSampler sampler(args.seed, args.trace);
  for (size_t session = s.first_session;
       session < s.first_session + sessions; ++session) {
    const bool traced = sampler.Next();
    const Counters before =
        traced ? ReadCounters(&db, nullptr) : Counters{};
    const int64_t start = NowNs();
    tracer.BeginOp("op.round", traced);
    const SessionResult sr =
        CaptureSession(db, tracer, h, session, traced, r.layers);
    const double session_ms = MsSince(start);
    const Counters after_flush =
        traced ? ReadCounters(&db, nullptr) : Counters{};
    bool ok = sr.ok;
    double search = 0;
    Answer a;
    if (ok) {
      const int64_t search_start = NowNs();
      a = AskText(db, tracer, kSearch, queries[session], queries[session],
                  traced, r.layers);
      search = MsSince(search_start);
      ok = a.ok;
    }
    size_t queries_in_round = 1;
    for (size_t i = h.bounds[session]; ok && i < h.bounds[session + 1]; ++i) {
      const auto* dl =
          std::get_if<bp::capture::DownloadEvent>(&h.out.events[i]);
      if (dl == nullptr) continue;
      const auto* episode = episodes.at(dl->download_id);
      if (episode->referral_chain_urls.empty()) {
        ++skipped_downloads;  // no ground-truth trigger page to check
        continue;
      }
      const std::string& trigger = episode->referral_chain_urls.back();
      const auto node_it = db.recorder().download_map().find(dl->download_id);
      ok = node_it != db.recorder().download_map().end();
      if (!ok) break;
      bp::search::LineageOptions nearest;
      nearest.min_visit_count = 1;
      double trace_ms = 0, desc_ms = 0;
      auto lineage = tracer.Time("ProvenanceDb::TraceDownload", &trace_ms, [&] {
        return db.TraceDownload(node_it->second, nearest);
      });
      auto descendants =
          tracer.Time("ProvenanceDb::DescendantDownloads", &desc_ms,
                      [&] { return db.DescendantDownloads(trigger); });
      queries_in_round += 2;
      ok = lineage.ok() && lineage->found_recognizable &&
           lineage->recognizable_url == trigger && descendants.ok();
      if (ok) {
        bool contains = false;
        for (const auto& d : descendants->downloads) {
          contains = contains || d.download == node_it->second;
        }
        ok = contains;
      }
      if (!ok) break;
      lineage_ms.Add(trace_ms);
      descendants_ms.Add(desc_ms);
      if (traced) {
        r.layers.AddQuery(kLineage, trace_ms, lineage->stats);
        r.layers.AddQuery(kDescendants, desc_ms, descendants->stats);
      }
    }
    const double op_ms = tracer.EndOp();
    ++r.attempted;
    if (!ok) {
      ++r.failed;
      continue;
    }
    flush_ms.Add(sr.flush_ms);
    search_ms.Add(search);
    round_ms.Add(op_ms);
    ingest_ms += session_ms;
    events += sr.events;
    if (traced) {
      const Counters end = ReadCounters(&db, nullptr);
      r.layers.AddSession(Minus(after_flush, before), sr.events, sr.flush_ms);
      r.layers.AddQueryPart(Minus(end, after_flush), queries_in_round);
      r.layers.AddOp(Minus(end, before));
      ProbeText(db, tracer, queries[session], a.begin_ms, r.layers);
    }
  }

  if (args.trace) r.layers.AddEngineBytes(db, events);
  if (!db.Close().ok()) r.Fail("close failed");
  s.db.reset();
  const uint64_t disk = AllocatedBytes(s.dir);

  std::printf("forensics: %zu sessions replayed, %zu downloads checked, "
              "%zu without a referral chain skipped\n",
              static_cast<size_t>(r.attempted), lineage_ms.count(),
              skipped_downloads);
  r.Add("setup_s", setup_s, "s");
  r.Add("ingest_events_per_s",
        static_cast<double>(events - h.bounds[s.first_session]) /
            (ingest_ms / 1e3),
        "events/s", flush_ms.count());
  r.AddP50("flush_ms", flush_ms, "ms");
  r.AddP50("search_ms", search_ms, "ms");
  r.AddP50("lineage_ms", lineage_ms, "ms");
  r.AddP50("descendants_ms", descendants_ms, "ms");
  r.Add("disk_bytes_per_event", static_cast<double>(disk) / events,
        "B/event", events);
  r.AddOps(round_ms);
  return r;
}

}  // namespace pb
