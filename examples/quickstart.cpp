// Quickstart: record a short browsing session into the provenance store
// — through the asynchronous ingest pipeline, the way a capture thread
// would — and ask it the paper's motivating question — "where did this
// come from?" — plus a contextual history search the textual baseline
// fails, and a snapshot query that stays consistent while ingestion
// continues.
//
// ProvenanceDb is the one supported way to stand the system up: it owns
// the storage engine, the provenance store, the event bus + recorder,
// and the history searcher behind a single Open().
//
// Build & run:   ./build/quickstart
#include <cstdio>

#include "prov/provenance_db.hpp"
#include "sim/scenario.hpp"

using namespace bp;

int main() {
  // 1. The whole stack in one Open. MemEnv keeps this demo in memory;
  //    drop the env override to put a real file at the path.
  storage::MemEnv env;
  prov::ProvenanceDb::Options options;
  options.db.env = &env;
  //    Storage diet on: checkpoints compress page slots that clear the
  //    ratio floor, and reads decode them before they enter the buffer
  //    pool. (Also reachable via BP_COMPRESSION=fast.)
  options.db.compression.mode =
      storage::compress::CompressionOptions::Mode::kFast;
  auto db = prov::ProvenanceDb::Open("quickstart.db", options);
  if (!db.ok()) {
    std::fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
    return 1;
  }

  // 2. Script a session: search "rosebud", click through to Citizen
  //    Kane, then download the script PDF from a film archive.
  sim::ScenarioBuilder s;
  uint64_t search = s.Search(/*tab=*/1, "rosebud");
  s.Wait(util::Seconds(1));
  uint64_t results =
      s.Visit(1, "https://search.example/results?q=rosebud",
              "rosebud - search results",
              capture::NavigationAction::kSearchResult, 0, search);
  s.Wait(util::Seconds(5));
  uint64_t kane = s.Visit(1, "http://films.example/citizen-kane",
                          "citizen kane 1941 film",
                          capture::NavigationAction::kLink, results);
  s.Wait(util::Seconds(30));
  uint64_t archive = s.Visit(1, "http://archive.example/scripts",
                             "screenplay archive",
                             capture::NavigationAction::kLink, kane);
  s.Wait(util::Seconds(5));
  uint64_t dl = s.Download("http://archive.example/kane-script.pdf",
                           "/home/user/Downloads/kane-script.pdf", archive);

  //    Async ingest: each event is a non-blocking enqueue (what a
  //    browser's capture thread pays); the background committer batches
  //    them into storage transactions. Flush(ticket) is the durability
  //    barrier — it returns once everything up to that ticket is
  //    committed AND fsynced.
  prov::ProvenanceDb::IngestTicket last = 0;
  for (const auto& event : s.events()) {
    auto ticket = (*db)->IngestAsync(event);
    if (!ticket.ok()) return 1;
    last = *ticket;
  }
  if (!(*db)->Flush(last).ok()) return 1;
  std::printf("ingested %llu events asynchronously (all durable)\n\n",
              (unsigned long long)last);

  // 3. Contextual history search: "rosebud" finds Citizen Kane even
  //    though the page text never contains the word.
  auto hits = (*db)->Search("rosebud");
  std::printf("history search for \"rosebud\":\n");
  for (const auto& page : hits->pages) {
    std::printf("  %.3f  %-42s %s\n", page.total, page.url.c_str(),
                page.title.c_str());
  }
  std::printf("  (%s)\n", hits->stats.ToString().c_str());

  // 4. Download lineage: how did kane-script.pdf get here?
  auto report = (*db)->TraceDownload(
      (*db)->recorder().download_map().at(dl),
      [] {
        search::LineageOptions o;
        o.min_visit_count = 1;
        return o;
      }());
  std::printf("\nlineage of kane-script.pdf:\n");
  for (const auto& step : report->path) {
    std::printf("  -> %s\n", step.label.c_str());
  }
  std::printf("  (%s)\n", report->stats.ToString().c_str());

  // 5. Snapshot-isolated reads: freeze a view, keep ingesting, and the
  //    view's answers do not move — this is how query load (even on
  //    other threads) runs against a live capture stream. Drain() is
  //    the everything-so-far barrier; one-shot queries and
  //    BeginSnapshot drain implicitly (read-your-writes), so the
  //    explicit call is only needed when you want durability itself.
  auto view = (*db)->BeginSnapshot();
  if (!view.ok()) return 1;
  sim::ScenarioBuilder more;
  uint64_t rose_search = more.Search(2, "rosebud");
  more.Visit(2, "http://flowers.example/rosebud-care",
             "rosebud flower care tips",
             capture::NavigationAction::kSearchResult, 0, rose_search);
  for (const auto& event : more.events()) {
    if (!(*db)->IngestAsync(event).ok()) return 1;
  }
  if (!(*db)->Drain().ok()) return 1;

  auto frozen = view->Search("rosebud");
  auto live = (*db)->Search("rosebud");
  if (!frozen.ok() || !live.ok()) return 1;
  std::printf(
      "\nsnapshot vs live after ingesting the flower session:\n"
      "  snapshot (commit %llu): %zu pages — the gardener's page is "
      "invisible\n  live one-shot query:    %zu pages — it is there\n",
      (unsigned long long)view->commit_seq(), frozen->pages.size(),
      live->pages.size());

  // 6. One coherent counter set for the whole storage stack: commits,
  //    the shared buffer pool behind every snapshot read (hits/misses/
  //    resident bytes), and what the released snapshots paid. A warm
  //    read path shows snapshot reads served from memory, not storage.
  //    The explicit checkpoint folds the WAL into the main file, which
  //    is where the storage diet compresses eligible page slots — the
  //    compression counters below come from that fold.
  {
    auto released = std::move(*view);  // checkpoint needs no live snapshots
  }
  if (!(*db)->Checkpoint().ok()) return 1;
  storage::PagerStats stats = (*db)->storage_stats();
  std::printf(
      "\nstorage counters: %llu commits, %llu wal frames\n"
      "  buffer pool: %llu hits, %llu misses, %llu KiB resident "
      "(%llu frames)\n"
      "  snapshot reads: %llu from pool, %llu from memo, %llu from "
      "storage\n"
      "  compression:   %llu pages squeezed %llu -> %llu bytes at "
      "checkpoint,\n"
      "                 %llu decompress reads\n"
      "  (per-query attribution rides in each result's QueryStats: %s)\n",
      (unsigned long long)stats.commits,
      (unsigned long long)stats.wal_frames,
      (unsigned long long)stats.pool_hits,
      (unsigned long long)stats.pool_misses,
      (unsigned long long)(stats.pool_bytes / 1024),
      (unsigned long long)stats.pool_frames,
      (unsigned long long)stats.snapshot_pool_hits,
      (unsigned long long)stats.snapshot_cache_hits,
      (unsigned long long)stats.snapshot_pages_read,
      (unsigned long long)stats.compressed_pages,
      (unsigned long long)stats.compressible_raw_bytes,
      (unsigned long long)stats.compressed_bytes,
      (unsigned long long)stats.decompress_reads,
      live->stats.ToString().c_str());
  return 0;
}
