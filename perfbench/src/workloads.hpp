// The four workloads. Each one is a closed loop with one client thread
// and no think time; README.md gives the reasons, sizes and options.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "prov/provenance_db.hpp"
#include "sim/browser.hpp"
#include "util/rng.hpp"

namespace pb {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;  // sizes the timed phase (see PhaseOps)
  bool trace = false;
  std::string dir;     // fresh working directory, removed by the caller
};

// A p99 needs ten samples beyond it, so at least this many.
inline constexpr size_t kSamplesForP99 = 1000;

// A simulated browsing history, cut into sessions at idle gaps.
struct History {
  bp::sim::SimOutput out;
  // Event index where each session starts, plus events.size() at the end.
  std::vector<size_t> bounds;

  size_t sessions() const { return bounds.size() - 1; }
  // The query a session's read-your-writes search asks: the session's
  // last search, else the newest earlier one, else the title of the
  // session's last page.
  std::string SessionQuery(size_t session) const;
};
// `users` histories of `days` days each, browsing one simulated web;
// the same seed gives the same histories.
std::vector<History> MakeHistories(uint64_t seed, uint32_t days,
                                   size_t users);
History MakeHistory(uint64_t seed, uint32_t days);

// The facade defaults plus the options a workload defines: pool size
// and compression mode (an inherited BP_COMPRESSION is ignored). The
// one-argument form keeps the facade's pool size.
bp::prov::ProvenanceDb::Options DbOptions(bool compress, size_t pool_bytes);
bp::prov::ProvenanceDb::Options DbOptions(bool compress);

// How many root ops the timed phase runs: --seconds times the
// workload's nominal op rate (what a 4-vCPU machine sustains), and at
// least `min_ops` (a p99 needs kSamplesForP99 samples). Fixing the work
// rather than the wall time keeps a faster engine from growing a larger
// database than a slower one: every commit measures the same ops, and
// on the reference machine the phase lasts about --seconds.
inline size_t PhaseOps(double seconds, double nominal_ops_per_s,
                       size_t min_ops) {
  return std::max(min_ops, static_cast<size_t>(seconds * nominal_ops_per_s));
}

// Days of simulated history that hold `sessions` sessions with room to
// spare (the simulator averages 4.5 sessions a day).
uint32_t DaysFor(size_t sessions);

// Picks which root ops the traced run traces: half of them, at random
// from the seed, so the traced and untraced halves see the same mix.
class OpSampler {
 public:
  OpSampler(uint64_t seed, bool trace) : rng_(seed), trace_(trace) {}
  bool Next() { return trace_ && rng_.Bernoulli(0.5); }

 private:
  bp::util::Rng rng_;
  bool trace_;
};

// Runs `setup` `runs` times into fresh subdirectories of `dir` and
// returns the median wall time in seconds; `keep` receives the last
// run's state. `setup(subdir)` returns the state. Short set-ups run more
// often: their medians are otherwise the noisiest figures of a run.
template <typename State, typename Fn>
double RepeatSetup(const std::string& dir, int runs, Fn&& setup,
                   State& keep) {
  Samples seconds;
  for (int run = 0; run < runs; ++run) {
    keep = State{};  // tear the previous run down before timing the next
    const std::string subdir = dir + "/setup" + std::to_string(run);
    const int64_t start = NowNs();
    keep = setup(subdir);
    seconds.Add(MsSince(start) / 1e3);
  }
  return seconds.Quantile(0.5);
}

// One captured session: IngestAsync per event, then Flush, the browser
// thread's wait at session end.
struct SessionResult {
  bool ok = false;
  double flush_ms = 0;
  size_t events = 0;
};
SessionResult CaptureSession(bp::prov::ProvenanceDb& db, Tracer& tracer,
                             const History& history, size_t session,
                             bool traced, LayerData& layers);

// Whether a search for `query` must return pages. The user's own terms
// are always indexed, but the tokenizer drops stopwords and the
// simulator's made-up terms can be one ("have" at seed 801), so a
// query of such words alone must return none.
bool ExpectsPages(const std::string& query);

// What a text-backed query returned. `ok` means Ok and, for a search,
// pages exactly when ExpectsPages(query).
struct Answer {
  bool ok = false;
  bp::graph::QueryStats stats;
  std::vector<bp::search::RankedPage> pages;  // a search's results
  double begin_ms = 0;  // the traced op's BeginSnapshot
};
// Asks a Search, Personalize (on `query`) or TimeContext (`query` in
// the context of `context`). Untraced it is the one-shot call; traced it
// is issued as its public steps, Drain, BeginSnapshot and the view call,
// so the drain, the index refresh plus snapshot open, and the query
// itself get their own spans.
Answer AskText(bp::prov::ProvenanceDb& db, Tracer& tracer, Family family,
               const std::string& query, const std::string& context,
               bool traced, LayerData& layers);
// After a traced op, outside it: a second snapshot, with the index now
// current, and a BM25-only probe. The op's BeginSnapshot minus this one
// is the index refresh; the probe times the text stage alone.
void ProbeText(bp::prov::ProvenanceDb& db, Tracer& tracer,
               const std::string& query, double op_begin_ms,
               LayerData& layers);

Result RunCapture(const Args& args, Tracer& tracer);
Result RunRecall(const Args& args, Tracer& tracer);
Result RunForensics(const Args& args, Tracer& tracer);
Result RunProfiles(const Args& args, Tracer& tracer);

}  // namespace pb
