// E10 — Section 3.2: "second-class citizens" and metadata sparsity.
//
// Paper: "when the user moves from page to page by typing in the
// location bar, most browsers will not record a relationship... So
// ironically, if a user often takes advantage of advanced navigation
// features such as Firefox's smart location bar, she will generate
// sparsely connected metadata."
//
// Simulates a regular user and a power user (heavy location-bar /
// bookmark navigation); measures, in both schemas: the fraction of
// visits with no recorded referrer and the success rate of download
// lineage (Places: walking from_visit; provenance: TraceDownload).
#include "bench/common.hpp"
#include "search/lineage.hpp"

namespace {

struct SchemaStats {
  uint64_t visits = 0;
  uint64_t orphans = 0;  // visits with no incoming relationship
  int lineage_attempts = 0;
  int lineage_success = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace bp;
  using namespace bp::bench;
  Init(argc, argv, "bench_connectivity");

  Header("E10", "second-class relationships: orphaned visits and lineage "
                "success",
         "heavy location-bar users generate sparsely connected metadata "
         "in Places; the provenance schema keeps the graph connected");

  Row("%-12s %-12s %14s %20s", "user", "schema", "orphan visits",
      "download lineage ok");

  for (bool power_user : {false, true}) {
    FixtureOptions options;
    options.user_overridden = true;
    options.user = sim::UserConfig{};
    if (power_user) {
      // The paper's "advanced navigation features" user.
      options.user.p_typed_url = 0.30;
      options.user.p_bookmark_click = 0.15;
      options.user.p_follow_link = 0.20;
      options.user.p_search = 0.10;
    }
    auto fx = HistoryFixture::Build(options);

    // --- Places ---
    SchemaStats places;
    auto visits = fx->places->Visits();
    for (; visits.Valid(); visits.Next()) {
      places::VisitRow row = MustOk(visits.row(), "places scan");
      ++places.visits;
      if (row.from_visit == 0) ++places.orphans;
    }
    MustOk(visits.status(), "places scan");
    // Lineage by from_visit walk: succeed when we reach a place with >= 5
    // visits before the chain dead-ends.
    auto downloads = fx->places->Downloads();
    for (; downloads.Valid() && places.lineage_attempts < 40;
         downloads.Next()) {
      places::DownloadRow row = MustOk(downloads.row(), "places lineage");
      ++places.lineage_attempts;
      // Find the latest visit of the source place and walk.
      if (row.place_id == 0) continue;
      auto visit_ids = fx->places->VisitsForPlace(row.place_id);
      if (!visit_ids.ok() || visit_ids->empty()) continue;
      uint64_t visit_id = visit_ids->back();
      for (int hop = 0; hop < 64 && visit_id != 0; ++hop) {
        auto visit = fx->places->GetVisit(visit_id);
        if (!visit.ok()) break;
        auto place = fx->places->GetPlace(visit->place_id);
        if (place.ok() && place->visit_count >= 5) {
          ++places.lineage_success;
          break;
        }
        visit_id = visit->from_visit;  // 0 stops the walk
      }
    }
    MustOk(downloads.status(), "places lineage");

    // --- Provenance --- (cursor read path; attrs never decoded)
    SchemaStats prov_stats;
    graph::NodeCursor nodes = fx->prov->graph().Nodes();
    for (; nodes.Valid(); nodes.Next()) {
      if (nodes.node().kind() !=
          static_cast<uint32_t>(prov::NodeKind::kVisit)) {
        continue;
      }
      ++prov_stats.visits;
      uint64_t in_actions = 0;
      graph::EdgeCursor edges =
          fx->prov->graph().Edges(nodes.node().id(), graph::Direction::kIn);
      for (; edges.Valid(); edges.Next()) {
        if (edges.edge().kind() !=
            static_cast<uint32_t>(prov::EdgeKind::kInstanceOf)) {
          ++in_actions;
        }
      }
      MustOk(edges.status(), "prov scan");
      if (in_actions == 0) ++prov_stats.orphans;
    }
    MustOk(nodes.status(), "prov scan");
    for (const auto& episode : fx->out.downloads) {
      if (prov_stats.lineage_attempts >= 40) break;
      auto it =
          fx->prov_recorder->download_map().find(episode.download_id);
      if (it == fx->prov_recorder->download_map().end()) continue;
      ++prov_stats.lineage_attempts;
      auto report =
          MustOk(search::TraceDownload(*fx->prov, it->second, {}), "trace");
      if (report.found_recognizable) ++prov_stats.lineage_success;
    }

    const char* user_label = power_user ? "power" : "regular";
    Row("%-12s %-12s %13.1f%% %17d/%d", user_label, "places",
        100.0 * static_cast<double>(places.orphans) /
            static_cast<double>(places.visits),
        places.lineage_success, places.lineage_attempts);
    Row("%-12s %-12s %13.1f%% %17d/%d", user_label, "provenance",
        100.0 * static_cast<double>(prov_stats.orphans) /
            static_cast<double>(prov_stats.visits),
        prov_stats.lineage_success, prov_stats.lineage_attempts);
    Metric(std::string(user_label) + "_places_orphan_pct",
           100.0 * static_cast<double>(places.orphans) /
               static_cast<double>(places.visits));
    Metric(std::string(user_label) + "_prov_orphan_pct",
           100.0 * static_cast<double>(prov_stats.orphans) /
               static_cast<double>(prov_stats.visits));
  }
  Blank();
  Row("(expected shape: Places orphan rate grows sharply for the power");
  Row(" user and its lineage walks dead-end; provenance orphan rate stays");
  Row(" low — only true session starts — and lineage keeps working)");
  // Commit-latency distribution from the engine's registry (populated
  // by both users' ingests): instrumentation liveness cross-check.
  MetricObsHistogram("obs_commit_us", CommitLatencyHistogram());
  return Finish();
}
