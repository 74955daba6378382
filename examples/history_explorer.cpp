// History explorer: simulate N days of browsing, persist BOTH schemas to
// a real database file on disk, and compare what each can answer.
// Demonstrates the full pipeline plus durability (reopen the file and
// query again).
//
// Usage:   ./build/examples/history_explorer [days] [seed] [query]
// e.g.     ./build/examples/history_explorer 30 7 wine
#include <cstdio>
#include <cstdlib>
#include <string>

#include "capture/bus.hpp"
#include "capture/recorders.hpp"
#include "search/history_search.hpp"
#include "search/time_context.hpp"
#include "sim/browser.hpp"
#include "storage/db.hpp"
#include "util/strings.hpp"

using namespace bp;

int main(int argc, char** argv) {
  const uint32_t days = argc > 1 ? std::atoi(argv[1]) : 14;
  const uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;
  const std::string query = argc > 3 ? argv[3] : "";
  const std::string path = "/tmp/bp_history_explorer.db";

  // Fresh file each run.
  (void)storage::Env::Posix()->Remove(path);
  (void)storage::Env::Posix()->Remove(path + ".wal");

  // 1. Simulate a user.
  util::Rng rng(seed);
  sim::Vocabulary vocab = sim::Vocabulary::Create(rng, {});
  sim::WebGraph web = sim::WebGraph::Generate(rng, {}, vocab);
  sim::UserConfig user;
  user.seed = seed;
  user.days = days;
  sim::SimOutput out = sim::BrowserSim(web, user).Run();
  std::printf("simulated %u days: %zu events, %llu page visits\n", days,
              out.events.size(), (unsigned long long)out.total_visits);

  // 2. Ingest into both schemas, on disk.
  {
    auto db = storage::Db::Open(path, {});
    auto places = places::PlacesStore::Open(**db);
    auto prov = prov::ProvStore::Open(**db, {});
    capture::PlacesRecorder places_recorder(**places);
    capture::ProvenanceRecorder prov_recorder(**prov);
    capture::EventBus bus;
    bus.Subscribe(&places_recorder);
    bus.Subscribe(&prov_recorder);
    if (!bus.PublishAll(out.events).ok()) return 1;
    auto searcher = search::HistorySearcher::Open(**db, **prov);
    (void)searcher;  // builds the text index before the file closes
  }

  // 3. Reopen the file (recovery path included) and explore.
  auto db = storage::Db::Open(path, {});
  auto places = places::PlacesStore::Open(**db);
  auto prov = prov::ProvStore::Open(**db, {});
  auto searcher = search::HistorySearcher::Open(**db, **prov);

  auto space = (*db)->Space();
  std::printf("database file: %s (%s)\n", path.c_str(),
              util::HumanBytes(space->file_bytes).c_str());
  std::printf("  places.*    %s\n",
              util::HumanBytes(space->BytesForPrefix("places.")).c_str());
  std::printf("  prov.*      %s\n",
              util::HumanBytes(space->BytesForPrefix("prov.")).c_str());
  std::printf("  places rows: %llu places, %llu visits\n",
              (unsigned long long)*(*places)->PlaceCount(),
              (unsigned long long)*(*places)->VisitCount());
  std::printf("  prov graph:  %llu nodes, %llu edges\n",
              (unsigned long long)*(*prov)->NodeCount(),
              (unsigned long long)*(*prov)->EdgeCount());

  // 4. Compare the two searches on a query (default: the user's own
  //    most recent search).
  std::string probe = query;
  if (probe.empty() && !out.searches.empty()) {
    probe = out.searches.back().query;
  }
  if (probe.empty()) return 0;

  std::printf("\nawesomebar (Places frecency) for \"%s\":\n", probe.c_str());
  auto matches = (*places)->AutocompleteSearch(
      probe, 5, util::Days(days) + util::Hours(12));
  for (const auto& match : *matches) {
    std::printf("  %8.0f  %-40s %s\n", match.frecency,
                match.place.url.c_str(), match.place.title.c_str());
  }

  std::printf("\nprovenance contextual search for \"%s\":\n", probe.c_str());
  auto hits = (*searcher)->ContextualSearch(probe, {});
  int shown = 0;
  for (const auto& page : hits->pages) {
    std::printf("  %8.3f  %-40s %s\n", page.total, page.url.c_str(),
                page.title.c_str());
    if (++shown >= 5) break;
  }
  return 0;
}
