// capture: replays a simulated history session by session through the
// async ingest path (IngestAsync per event, Flush at each session end),
// with no queries. The capture pipeline, the prov/graph inserts and the
// pager's commit, WAL, fsync and checkpoint path do nearly all the
// work; the text index, search and the pool miss path do none.
#include <filesystem>
#include <memory>

#include "workloads.hpp"

namespace pb {

namespace {

// About 110 sessions a second: 16 s is 1,760 sessions, about 390 days
// of history growing an empty database to about 30 MiB.
constexpr double kNominalSessionsPerSecond = 110;

struct CaptureState {
  History history;
  std::string dir;
  std::unique_ptr<bp::prov::ProvenanceDb> db;
};

}  // namespace

Result RunCapture(const Args& args, Tracer& tracer) {
  Result r;
  const auto options = DbOptions(/*compress=*/false);
  const size_t sessions =
      PhaseOps(args.seconds, kNominalSessionsPerSecond, kSamplesForP99);
  CaptureState s;
  const double setup_s = RepeatSetup(
      args.dir, 9,
      [&](const std::string& dir) {
        CaptureState st;
        st.history = MakeHistory(args.seed, DaysFor(sessions));
        std::filesystem::create_directories(dir);
        st.dir = dir;
        auto db = tracer.Wrap("ProvenanceDb::Open", [&] {
          return bp::prov::ProvenanceDb::Open(dir + "/history.db", options);
        });
        if (db.ok()) st.db = std::move(*db);
        return st;
      },
      s);
  if (s.db == nullptr || s.history.sessions() < sessions) {
    r.Fail("set-up failed");
    return r;
  }
  bp::prov::ProvenanceDb& db = *s.db;
  const History& h = s.history;

  Samples flush_ms, session_ms;
  size_t events = 0;
  OpSampler sampler(args.seed, args.trace);
  for (size_t session = 0; session < sessions; ++session) {
    const bool traced = sampler.Next();
    const Counters before =
        traced ? ReadCounters(&db, nullptr) : Counters{};
    tracer.BeginOp("op.session", traced);
    const SessionResult sr =
        CaptureSession(db, tracer, h, session, traced, r.layers);
    const double op_ms = tracer.EndOp();
    ++r.attempted;
    if (!sr.ok) {
      ++r.failed;
      continue;
    }
    flush_ms.Add(sr.flush_ms);
    session_ms.Add(op_ms);
    events += sr.events;
    if (traced) {
      const Counters delta = Minus(ReadCounters(&db, nullptr), before);
      r.layers.AddSession(delta, sr.events, sr.flush_ms);
      r.layers.AddOp(delta);
    }
  }

  // Ground truth: a clean close and reopen keep every node the live
  // database held after the last Flush. The live store is idle here
  // (the pipeline acknowledged everything), so it can be read directly;
  // a snapshot would refresh the text index and grow the file.
  auto live_nodes = db.store().NodeCount();
  double close_ms = 0;
  const bp::util::Status closed =
      tracer.Time("ProvenanceDb::Close", &close_ms, [&] { return db.Close(); });
  r.layers.close_ms.Add(close_ms);
  s.db.reset();
  const uint64_t disk = AllocatedBytes(s.dir);
  double open_ms = 0;
  auto reopened = tracer.Time("ProvenanceDb::Open", &open_ms, [&] {
    return bp::prov::ProvenanceDb::Open(s.dir + "/history.db", options);
  });
  r.layers.open_ms.Add(open_ms);
  if (!live_nodes.ok() || !closed.ok() || !reopened.ok()) {
    r.Fail("close or reopen failed");
  } else {
    auto nodes = (*reopened)->store().NodeCount();
    if (!nodes.ok() || *nodes != *live_nodes) {
      r.Fail("reopened database lost nodes");
    }
    if (args.trace) r.layers.AddEngineBytes(**reopened, events);
    (void)(*reopened)->Close();
  }

  r.Add("setup_s", setup_s, "s");
  r.Add("ingest_events_per_s", events / (session_ms.Sum() / 1e3), "events/s",
        session_ms.count());
  r.AddPercentiles("flush_ms", flush_ms, "ms");
  r.Add("disk_bytes_per_event", static_cast<double>(disk) / events,
        "B/event", events);
  r.AddOps(session_ms);
  return r;
}

}  // namespace pb
