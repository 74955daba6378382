// E1 — Storage overhead of the provenance schema over Places, and the
// storage diet (checkpoint-time page compression) applied to both.
//
// Paper (section 4): "The total storage overhead of this schema over
// Places is 39.5%, but on real data, this represents less than 5MB
// because Places is quite conservative."
//
// Both recorders ingest the same 79-day stream into one database; bytes
// are attributed per tree namespace by the storage engine's space
// accounting. With the diet on (compression=fast), accounting switches
// from pages x page size to PHYSICAL bytes: a checkpoint slot holding a
// compressed frame counts header + payload (the rest of the slot is
// zero-filled and hole-punchable). The text index used by search is
// reported separately: it is IR infrastructure, not part of the
// provenance schema the paper measures.
//
// Why replace_overhead_pct exceeds the paper's 39.5% (often > 100%):
// the prov.* namespace carries THREE redundant access-path indexes —
// prov.in / prov.out (bidirectional adjacency postings) and
// prov.url_index — that store every edge or node key a second and third
// time so traces run without scans. The paper's schema piggybacked on
// SQLite tables and reused Places' own indexes, so its 39.5% counted
// none of that. The core graph data alone (prov.nodes + prov.edges)
// stays the same order as places.* (below it at this bench's config);
// the split is printed and exported below, and
// tests/integration_test.cpp pins the decomposition as a regression
// test.
//
// Two storage kernel figures close the report: page_decode_us, the cost
// of decoding one compressed checkpoint slot (what a pool miss on a
// folded page pays), and frame_checksum_ns_per_kib, the XXH64 checksum
// every WAL frame and every compressed frame carries.
#include <chrono>

#include "bench/common.hpp"
#include "util/hash.hpp"

namespace {

struct SpaceCut {
  uint64_t places = 0;
  uint64_t prov = 0;
  uint64_t prov_core = 0;   // prov.nodes + prov.edges (graph data)
  uint64_t prov_index = 0;  // prov.in/out/url_index/term_index
  uint64_t text = 0;
};

SpaceCut Cut(const bp::storage::SpaceReport& space) {
  SpaceCut cut;
  cut.places = space.BytesForPrefix("places.");
  cut.prov = space.BytesForPrefix("prov.");
  cut.prov_core = space.BytesForPrefix("prov.nodes") +
                  space.BytesForPrefix("prov.edges");
  cut.prov_index = cut.prov - cut.prov_core;
  cut.text = space.BytesForPrefix("textindex.");
  return cut;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bp;
  using namespace bp::bench;
  using storage::compress::CompressionOptions;
  Init(argc, argv, "bench_storage_overhead");

  Header("E1", "storage overhead: provenance schema vs Places baseline",
         "39.5% overhead over Places; < 5 MB on a real 79-day history");

  FixtureOptions off_options;
  off_options.compression.mode = CompressionOptions::Mode::kOff;
  auto fx = HistoryFixture::Build(off_options);
  // Fold the WAL into the main file before measuring: space accounting
  // reads physical checkpoint slots, and the diet only applies at the
  // fold (the WAL hot path always stays raw).
  MustOk(fx->db->pager().Checkpoint(), "checkpoint (off)");
  auto space = MustOk(fx->db->Space(), "space report");
  const SpaceCut off = Cut(space);

  const uint64_t places_bytes = off.places;
  const uint64_t prov_bytes = off.prov;
  // The paper's provenance schema subsumes Places (pages, bookmarks,
  // downloads become homogeneous nodes), so the comparable figure is the
  // cost of REPLACING Places: (prov - places) / places. The side-by-side
  // ratio prov/places is printed too.
  const double replace_overhead =
      100.0 * (static_cast<double>(prov_bytes) -
               static_cast<double>(places_bytes)) /
      static_cast<double>(places_bytes);
  const double side_by_side =
      100.0 * static_cast<double>(prov_bytes) /
      static_cast<double>(places_bytes);
  const double core_overhead =
      100.0 * (static_cast<double>(off.prov_core) -
               static_cast<double>(places_bytes)) /
      static_cast<double>(places_bytes);

  Row("history scale: %u days, %llu visits, %llu prov nodes, %llu prov edges",
      State().smoke ? 3 : 79, (unsigned long long)fx->out.total_visits,
      (unsigned long long)*fx->prov->NodeCount(),
      (unsigned long long)*fx->prov->EdgeCount());
  Blank();
  Row("%-34s %12s %10s", "schema (tree namespace)", "bytes", "human");
  Row("%-34s %12llu %10s", "places.* (Firefox baseline)",
      (unsigned long long)places_bytes,
      util::HumanBytes(places_bytes).c_str());
  Row("%-34s %12llu %10s", "prov.* (provenance graph)",
      (unsigned long long)prov_bytes, util::HumanBytes(prov_bytes).c_str());
  Row("%-34s %12llu %10s", "  prov core (nodes + edges)",
      (unsigned long long)off.prov_core,
      util::HumanBytes(off.prov_core).c_str());
  Row("%-34s %12llu %10s", "  prov access-path indexes",
      (unsigned long long)off.prov_index,
      util::HumanBytes(off.prov_index).c_str());
  Row("%-34s %12llu %10s", "textindex.* (IR index, reported only)",
      (unsigned long long)off.text, util::HumanBytes(off.text).c_str());
  Blank();
  Row("overhead of replacing Places with the provenance schema: %.1f%%",
      replace_overhead);
  Row("  (paper: 39.5%% — their schema reused SQLite/Places row storage");
  Row("   and indexes; ours pays for prov.in/out adjacency postings and");
  Row("   prov.url_index on top of the core graph, see the file header)");
  Row("core graph only (nodes + edges) vs Places: %.1f%%", core_overhead);
  Row("side-by-side ratio prov/places: %.1f%%", side_by_side);
  Row("absolute provenance footprint:  %s   (paper: < 5 MB)",
      util::HumanBytes(prov_bytes).c_str());
  Metric("replace_overhead_pct", replace_overhead);
  Metric("core_overhead_pct", core_overhead);
  Metric("prov_bytes", static_cast<double>(prov_bytes));
  Metric("prov_core_bytes", static_cast<double>(off.prov_core));
  Metric("prov_index_bytes", static_cast<double>(off.prov_index));
  Metric("places_bytes", static_cast<double>(places_bytes));
  Blank();

  // Per-tree breakdown for the curious.
  Row("%-34s %10s %8s %8s", "tree", "pages", "cells", "depth");
  for (const auto& entry : space.trees) {
    Row("%-34s %10llu %8llu %8u", entry.name.c_str(),
        (unsigned long long)entry.stats.TotalPages(),
        (unsigned long long)entry.stats.cells, entry.stats.depth);
  }
  Blank();

  // ------------------------------------------- storage diet (E1b sweep)
  // The same stream ingested with compression=fast: checkpoint folds
  // compress every eligible page that clears the ratio floor, and the
  // space report prices compressed slots at their physical frame size.
  FixtureOptions fast_options;
  fast_options.compression.mode = CompressionOptions::Mode::kFast;
  auto fast_fx = HistoryFixture::Build(fast_options);
  MustOk(fast_fx->db->pager().Checkpoint(), "checkpoint (fast)");
  auto fast_space = MustOk(fast_fx->db->Space(), "space report (fast)");
  const SpaceCut fast = Cut(fast_space);
  const storage::PagerStats pager_stats = fast_fx->db->pager().stats();

  const uint64_t off_combined = off.prov + off.places;
  const uint64_t fast_combined = fast.prov + fast.places;
  const double reduction =
      fast_combined > 0 ? static_cast<double>(off_combined) /
                              static_cast<double>(fast_combined)
                        : 0.0;
  Row("storage diet (compression=fast, measured after checkpoint):");
  Row("%-34s %12s %12s", "namespace", "off bytes", "fast bytes");
  Row("%-34s %12llu %12llu", "places.*", (unsigned long long)off.places,
      (unsigned long long)fast.places);
  Row("%-34s %12llu %12llu", "prov.*", (unsigned long long)off.prov,
      (unsigned long long)fast.prov);
  Row("%-34s %12llu %12llu", "textindex.*", (unsigned long long)off.text,
      (unsigned long long)fast.text);
  Row("combined prov+places on-disk reduction: %.2fx", reduction);
  // Acceptance target for the storage diet: the fold must buy at least
  // 1.8x on the schema bytes the paper measures, or compression is not
  // earning its read-path tax.
  BP_CHECK(reduction >= 1.8,
           "compression=fast must reduce prov+places on-disk >= 1.8x");
  Row("checkpoint compression: %llu pages compressed, %llu -> %llu bytes, "
      "%llu decompress reads",
      (unsigned long long)pager_stats.compressed_pages,
      (unsigned long long)pager_stats.compressible_raw_bytes,
      (unsigned long long)pager_stats.compressed_bytes,
      (unsigned long long)pager_stats.decompress_reads);
  Metric("prov_bytes_fast", static_cast<double>(fast.prov));
  Metric("places_bytes_fast", static_cast<double>(fast.places));
  Metric("disk_reduction_x", reduction);
  Metric("compressed_pages", static_cast<double>(pager_stats.compressed_pages));
  Metric("compressed_bytes", static_cast<double>(pager_stats.compressed_bytes));
  Blank();

  // ------------------------------------------------- storage kernels
  // Decompress over every compressed slot of the database just
  // checkpointed, read straight from its file.
  auto db_file = MustOk(fast_fx->env.Open("bench.db"), "open db file");
  const uint64_t file_bytes = MustOk(db_file->Size(), "db file size");
  std::vector<double> decode_us;
  std::string slot;
  std::string page;
  for (uint64_t offset = 0; offset < file_bytes;
       offset += storage::kPageSize) {
    MustOk(db_file->Read(offset, storage::kPageSize, &slot), "read slot");
    if (!storage::compress::LooksLikeFrame(slot)) continue;
    const auto start = std::chrono::steady_clock::now();
    MustOk(storage::compress::Decompress(slot, &page), "decode slot");
    decode_us.push_back(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start)
                            .count());
  }
  BP_CHECK(!decode_us.empty(), "the compressed database has no frames");
  const Percentiles decode = ComputePercentiles(decode_us);

  // Checksum throughput over the last decoded page image, each round
  // seeded with the previous result so no round can be skipped.
  using Checksum = uint64_t (*)(std::string_view, uint64_t);
  auto checksum_ns_per_kib = [&page](Checksum checksum) {
    constexpr int kRounds = 5000;
    uint64_t chain = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kRounds; ++i) chain = checksum(page, chain);
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    volatile uint64_t sink = chain;  // keeps the loop's result live
    (void)sink;
    return ns / (kRounds * static_cast<double>(page.size()) / 1024.0);
  };
  const double xxh64_ns = checksum_ns_per_kib(util::Xxh64);
  const double fnv_ns = checksum_ns_per_kib(util::Fnv1a64);
  Row("storage kernels:");
  Row("  page decode: %zu compressed slots, p50 %.2f us, p99 %.2f us",
      decode_us.size(), decode.p50, decode.p99);
  Row("  frame checksum: XXH64 %.0f ns/KiB (FNV-1a, which it replaced: "
      "%.0f ns/KiB)",
      xxh64_ns, fnv_ns);
  Metric("page_decode_us_p50", decode.p50);
  Metric("frame_checksum_ns_per_kib", xxh64_ns);
  // Commit-latency distribution from the engine's registry (populated
  // by the fixture ingest): instrumentation liveness cross-check.
  MetricObsHistogram("obs_commit_us", CommitLatencyHistogram());
  return Finish();
}
