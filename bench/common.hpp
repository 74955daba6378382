// Shared fixture and reporting helpers for the experiment benches.
//
// Every experiment binary builds (or reuses) a simulated history of the
// paper's scale — 79 days, >25,000 provenance nodes — ingested through
// BOTH recorders into one database, then prints a paper-style table with
// the paper's claimed value next to the measured one.
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "capture/bus.hpp"
#include "capture/recorders.hpp"
#include "obs/metrics.hpp"
#include "places/places.hpp"
#include "prov/prov_store.hpp"
#include "search/history_search.hpp"
#include "sim/browser.hpp"
#include "sim/vocab.hpp"
#include "sim/web.hpp"
#include "storage/env.hpp"
#include "util/require.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace bp::bench {

// --------------------------------------------------- CLI / JSON output
//
// Every table-style bench accepts:
//   --json    after the human-readable tables, write BENCH_<name>.json
//   --smoke   cap fixture scale (days <= 3) so CI can cheaply execute
//             every bench end-to-end
//
// The JSON schema is flat and append-only so perf-trajectory tooling can
// diff runs:
//   { "bench": "<name>", "smoke": <bool>,
//     "metrics": { "<key>": <number>, ... } }
//
// Usage in a bench:
//   int main(int argc, char** argv) {
//     Init(argc, argv, "bench_foo");
//     ...
//     Metric("p50_ms", p.p50);
//     return Finish();
//   }
struct BenchState {
  std::string name;
  bool json = false;
  bool smoke = false;
  std::vector<std::pair<std::string, double>> metrics;
};

inline BenchState& State() {
  static BenchState state;
  return state;
}

inline void Init(int argc, char** argv, const char* name) {
  State().name = name;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      State().json = true;
    } else if (arg == "--smoke") {
      State().smoke = true;
    } else {
      std::fprintf(stderr, "%s: unknown flag %s (known: --json --smoke)\n",
                   name, arg.c_str());
    }
  }
}

// Records a headline number for the JSON report (ignored without --json).
inline void Metric(const std::string& key, double value) {
  State().metrics.emplace_back(key, value);
}


// Writes BENCH_<name>.json when --json was passed. Return this from main.
inline int Finish() {
  const BenchState& state = State();
  if (!state.json) return 0;
  const std::string path = "BENCH_" + state.name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  // Keys are expected to be snake_case slugs, but escape the JSON
  // string specials anyway so a stray label can never break the file.
  auto escape = [](const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  };
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"smoke\": %s,\n  \"metrics\": {",
               state.name.c_str(), state.smoke ? "true" : "false");
  for (size_t i = 0; i < state.metrics.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": %.17g", i == 0 ? "" : ",",
                 escape(state.metrics[i].first).c_str(),
                 state.metrics[i].second);
  }
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu metrics)\n", path.c_str(),
              state.metrics.size());
  return 0;
}

// Aborts with a message on error — benches have no one to return Status
// to.
template <typename T>
T MustOk(util::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what,
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

inline void MustOk(util::Status status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

struct FixtureOptions {
  uint32_t days = 79;
  uint64_t seed = 2009;  // year of the paper
  prov::VersionPolicy policy = prov::VersionPolicy::kVersionNodes;
  bool record_close_times = true;
  double redirect_fraction = 0.06;  // web knob (E9 raises it)
  sim::UserConfig user;             // overrides applied after defaults
  bool user_overridden = false;
  // Ingest rides the group-commit + batched-transaction path by default
  // — the production capture configuration. Set wal_group_commit /
  // ingest_batch to 1 to measure the naive path.
  uint32_t wal_group_commit = 8;
  size_t ingest_batch = 256;  // events per storage transaction
  // Storage diet: kFast compresses checkpoint folds. Default follows
  // BP_COMPRESSION (so a compression-on CI lane exercises the benches
  // too); sweeps set it explicitly.
  storage::compress::CompressionOptions compression;
};

// A complete simulated world + populated database.
struct HistoryFixture {
  storage::MemEnv env;
  sim::Vocabulary vocab;
  sim::WebGraph web;
  sim::SimOutput out;
  std::unique_ptr<storage::Db> db;
  std::unique_ptr<places::PlacesStore> places;
  std::unique_ptr<prov::ProvStore> prov;
  std::unique_ptr<capture::PlacesRecorder> places_recorder;
  std::unique_ptr<capture::ProvenanceRecorder> prov_recorder;
  std::unique_ptr<search::HistorySearcher> searcher;
  double ingest_seconds = 0;

  static std::unique_ptr<HistoryFixture> Build(FixtureOptions options) {
    auto fx = std::make_unique<HistoryFixture>();
    if (State().smoke) {
      // CI smoke mode: every bench must run end to end in seconds, not
      // reproduce the paper's scale.
      options.days = std::min(options.days, 3u);
    }
    util::Rng rng(options.seed);
    fx->vocab = sim::Vocabulary::Create(rng, {});
    sim::WebConfig web_config;
    web_config.redirect_page_fraction = options.redirect_fraction;
    fx->web = sim::WebGraph::Generate(rng, web_config, fx->vocab);

    sim::UserConfig user = options.user;
    if (!options.user_overridden) {
      user = sim::UserConfig{};
    }
    user.seed = options.seed + 1;
    user.days = options.days;
    fx->out = sim::BrowserSim(fx->web, user).Run();

    storage::DbOptions db_opts;
    db_opts.env = &fx->env;
    db_opts.sync = false;  // measuring CPU/layout, not fsync
    db_opts.wal_group_commit = options.wal_group_commit;
    db_opts.compression = options.compression;
    fx->db = MustOk(storage::Db::Open("bench.db", db_opts), "open db");
    fx->places = MustOk(places::PlacesStore::Open(*fx->db), "places");
    prov::ProvOptions prov_opts;
    prov_opts.policy = options.policy;
    prov_opts.record_close_times = options.record_close_times;
    fx->prov = MustOk(prov::ProvStore::Open(*fx->db, prov_opts), "prov");

    fx->places_recorder =
        std::make_unique<capture::PlacesRecorder>(*fx->places);
    fx->prov_recorder =
        std::make_unique<capture::ProvenanceRecorder>(*fx->prov);
    capture::EventBus bus;
    bus.Subscribe(fx->places_recorder.get());
    bus.Subscribe(fx->prov_recorder.get());
    const storage::PagerStats pre_ingest = fx->db->pager().stats();
    util::Stopwatch watch;
    // Batched ingest: chunks of events share one storage transaction
    // (each recorder's per-event transaction nests into it), and
    // adjacent chunks share one group-committed fsync.
    const size_t batch = std::max<size_t>(1, options.ingest_batch);
    for (size_t start = 0; start < fx->out.events.size(); start += batch) {
      size_t end = std::min(fx->out.events.size(), start + batch);
      MustOk(fx->db->Begin(), "ingest batch begin");
      for (size_t i = start; i < end; ++i) {
        MustOk(bus.Publish(fx->out.events[i]), "ingest");
      }
      MustOk(fx->db->Commit(), "ingest batch commit");
    }
    fx->ingest_seconds = watch.ElapsedMs() / 1000.0;
    ReportIngestDurability(pre_ingest, fx->db->pager().stats(),
                           fx->ingest_seconds);

    fx->searcher =
        MustOk(search::HistorySearcher::Open(*fx->db, *fx->prov),
               "searcher");
    return fx;
  }

  // Durability cost of the ingest loop alone (delta over it, excluding
  // schema-setup commits), printed under every experiment header so the
  // storage price of capture is always visible next to the result. The
  // fixture runs sync=false (it measures CPU/layout), so the fsync
  // columns are only printed when a fixture variant actually syncs;
  // bench_wal_commit is the experiment that models fsync cost.
  static void ReportIngestDurability(const storage::PagerStats& before,
                                     const storage::PagerStats& after,
                                     double seconds) {
    uint64_t fsyncs = after.fsyncs - before.fsyncs;
    uint64_t bytes_synced = after.bytes_synced - before.bytes_synced;
    if (fsyncs == 0 && bytes_synced == 0) {
      std::printf(
          "ingest durability: %llu commits, %llu pages written, %.2fs "
          "(sync off; fsync cost modeled in bench_wal_commit)\n",
          (unsigned long long)(after.commits - before.commits),
          (unsigned long long)(after.pages_written - before.pages_written),
          seconds);
      return;
    }
    std::printf(
        "ingest durability: %llu commits, %llu pages written, %llu fsyncs, "
        "%llu bytes synced, %.2fs\n",
        (unsigned long long)(after.commits - before.commits),
        (unsigned long long)(after.pages_written - before.pages_written),
        (unsigned long long)fsyncs, (unsigned long long)bytes_synced,
        seconds);
  }
};

// ------------------------------------------------------------ reporting

inline void Header(const std::string& id, const std::string& title,
                   const std::string& paper_claim) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("paper claim: %s\n", paper_claim.c_str());
  std::printf("================================================================\n");
}

inline void Row(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
inline void Row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

// Blank separator line (avoids -Wformat-zero-length on Row("")).
inline void Blank() { std::printf("\n"); }

struct Percentiles {
  double p50 = 0, p90 = 0, p99 = 0, max = 0, mean = 0;
};

// Emits one latency-style distribution as the flat keys bench_diff.py
// gates: <prefix>_p50, _p90, _p99, _max, _mean.
inline void MetricPercentiles(const std::string& prefix,
                              const Percentiles& p) {
  Metric(prefix + "_p50", p.p50);
  Metric(prefix + "_p90", p.p90);
  Metric(prefix + "_p99", p.p99);
  Metric(prefix + "_max", p.max);
  Metric(prefix + "_mean", p.mean);
}

// Same flat keys, sourced from a registry histogram the engine recorded
// into (obs/metrics.hpp) — the bench-side window onto the process-wide
// instruments. `count` is included so a silently empty histogram (an
// instrumentation regression) is visible in the diff.
inline void MetricObsHistogram(const std::string& prefix,
                               const obs::Histogram& h) {
  const obs::Histogram::Snapshot s = h.snapshot();
  Metric(prefix + "_count", static_cast<double>(s.count));
  Metric(prefix + "_p50", s.p50);
  Metric(prefix + "_p90", s.p90);
  Metric(prefix + "_p99", s.p99);
  Metric(prefix + "_max", static_cast<double>(s.max));
  Metric(prefix + "_mean", s.mean);
}

// The process-wide engine histograms benches most often report. The
// registry find-or-creates, so these are safe to call even before the
// engine first records (count = 0 then).
inline obs::Histogram& CommitLatencyHistogram() {
  return *obs::MetricsRegistry::Global().GetHistogram(
      "bp_commit_us", "", "End-to-end Pager::Commit latency (us)");
}
inline obs::Histogram& QueryLatencyHistogram(const char* family) {
  return *obs::MetricsRegistry::Global().GetHistogram(
      "bp_query_us", std::string("family=\"") + family + "\"",
      "One-shot query latency by family (us)");
}

inline Percentiles ComputePercentiles(std::vector<double> samples) {
  Percentiles out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  auto at = [&](double q) {
    size_t i = static_cast<size_t>(q * (samples.size() - 1));
    return samples[i];
  };
  out.p50 = at(0.50);
  out.p90 = at(0.90);
  out.p99 = at(0.99);
  out.max = samples.back();
  for (double s : samples) out.mean += s;
  out.mean /= static_cast<double>(samples.size());
  return out;
}

// Mean reciprocal rank helpers for the quality benches.
inline double ReciprocalRank(const std::vector<search::RankedPage>& pages,
                             const std::string& url) {
  for (size_t i = 0; i < pages.size(); ++i) {
    if (pages[i].url == url) return 1.0 / static_cast<double>(i + 1);
  }
  return 0.0;
}

}  // namespace bp::bench
