// recall: read-only queries on a bulk-loaded, reopened history. The
// client asks one-shot Search, Personalize and TimeContext queries on
// the user's own search terms, interleaved op by op. search, text and
// graph query work and the pool hit path do all the work; ingest does
// none. The 79-day database (about 6.4 MiB) fits the default 32 MiB
// pool, so after warm-up nearly every page read is a pool hit.
#include <filesystem>
#include <memory>

#include "bench/common.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr uint32_t kRecallDays = 79;

// One round of the interleaved mix: users search their history far
// more often than they ask for expansions or time context, and six
// searches per round give the search p99 its ten samples beyond.
constexpr Family kMix[] = {kSearch, kSearch, kSearch, kPersonalize,
                           kSearch, kSearch, kSearch, kTimeContext};
constexpr size_t kMixLength = sizeof(kMix) / sizeof(kMix[0]);
constexpr size_t kSearchesPerMix = 6;
// Enough ops for kSamplesForP99 searches; about 100 ops a second.
constexpr size_t kMinOps =
    (kSamplesForP99 * kMixLength + kSearchesPerMix - 1) / kSearchesPerMix;
constexpr double kNominalOpsPerSecond = 100;
// Untimed queries before the timed phase, from the end of the list.
constexpr size_t kWarmupOps = 2 * kMixLength;

struct RecallState {
  History history;
  std::string dir;
  std::unique_ptr<bp::prov::ProvenanceDb> db;
};

}  // namespace

Result RunRecall(const Args& args, Tracer& tracer) {
  Result r;
  const auto options = DbOptions(/*compress=*/false);
  RecallState s;
  const double setup_s = RepeatSetup(
      args.dir, 3,
      [&](const std::string& dir) {
        RecallState st;
        st.history = MakeHistory(args.seed, kRecallDays);
        std::filesystem::create_directories(dir);
        st.dir = dir;
        const std::string path = dir + "/history.db";
        auto db = bp::prov::ProvenanceDb::Open(path, options);
        if (!db.ok() || !(*db)->IngestAll(st.history.out.events).ok()) {
          return st;
        }
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
        const auto& searches = st.history.out.searches;
        for (size_t k = 0; k < kWarmupOps && k < searches.size(); ++k) {
          const std::string& q = searches[searches.size() - 1 - k].query;
          LayerData unused;
          (void)AskText(*st.db, tracer, kMix[k % kMixLength], q, q,
                        /*traced=*/false, unused);
        }
        return st;
      },
      s);
  const auto& searches = s.history.out.searches;
  if (s.db == nullptr || searches.empty()) {
    r.Fail("set-up failed");
    return r;
  }
  bp::prov::ProvenanceDb& db = *s.db;

  std::array<Samples, kFamilyCount> family_ms;
  Samples op_ms;
  double rr_sum = 0;
  size_t rr_count = 0;
  OpSampler sampler(args.seed, args.trace);
  const size_t ops = PhaseOps(args.seconds, kNominalOpsPerSecond, kMinOps);
  for (size_t k = 0; k < ops; ++k) {
    const Family family = kMix[k % kMixLength];
    const size_t pick = k % searches.size();
    const auto& episode = searches[pick];
    // TimeContext asks for a page seen around the previous search.
    const std::string& context =
        searches[(pick + searches.size() - 1) % searches.size()].query;
    const bool traced = sampler.Next();
    const Counters before =
        traced ? ReadCounters(&db, nullptr) : Counters{};
    tracer.BeginOp("op.query", traced);
    const Answer a =
        AskText(db, tracer, family, episode.query, context, traced, r.layers);
    const double ms = tracer.EndOp();
    ++r.attempted;
    if (!a.ok) {
      ++r.failed;
      continue;
    }
    op_ms.Add(ms);
    family_ms[family].Add(ms);
    if (family == kSearch && !episode.clicked_url.empty()) {
      rr_sum += bp::bench::ReciprocalRank(a.pages, episode.clicked_url);
      ++rr_count;
    }
    if (traced) {
      const Counters delta = Minus(ReadCounters(&db, nullptr), before);
      r.layers.AddOp(delta);
      r.layers.AddQueryPart(delta, 1);
      ProbeText(db, tracer, episode.query, a.begin_ms, r.layers);
    }
  }

  const size_t events = s.history.out.events.size();
  if (args.trace) r.layers.AddEngineBytes(db, events);
  if (!db.Close().ok()) r.Fail("close failed");
  s.db.reset();
  const uint64_t disk = AllocatedBytes(s.dir);

  r.Add("setup_s", setup_s, "s");
  r.AddPercentiles("search_ms", family_ms[kSearch], "ms");
  r.AddP50("personalize_ms", family_ms[kPersonalize], "ms");
  r.AddP50("time_context_ms", family_ms[kTimeContext], "ms");
  r.Add("search_mrr", rr_count ? rr_sum / static_cast<double>(rr_count) : 0,
        "1", rr_count);
  r.Add("disk_bytes_per_event", static_cast<double>(disk) / events,
        "B/event", events);
  r.AddOps(op_ms);
  return r;
}

}  // namespace pb
