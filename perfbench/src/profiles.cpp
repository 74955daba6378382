// profiles: one ProvenanceService hosting 16 profiles with short
// histories, 2 shard workers, max_live_handles = 4 and one shared
// pool. Sessions run round-robin across the profiles: Ingest per event,
// Flush(profile), then a WithSnapshot Search. It is the only workload
// through src/service: routing, the shard workers, and, because 16
// profiles cycle through 4 live handles, one handle eviction plus
// reopen in every round.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "service/provenance_service.hpp"
#include "storage/buffer_pool.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

constexpr size_t kProfiles = 16;
// About 55 service rounds a second; the 1,000 a p99 needs are 64
// sessions a profile, about 14 days of history each.
constexpr double kNominalRoundsPerSecond = 55;

struct ProfilesState {
  std::vector<History> histories;
  std::string root;
  std::unique_ptr<bp::service::ProvenanceService> svc;
};

std::string ProfileName(size_t p) {
  char name[16];
  std::snprintf(name, sizeof(name), "p%02zu", p);
  return name;
}

}  // namespace

Result RunProfiles(const Args& args, Tracer& tracer) {
  Result r;
  bp::service::ServiceOptions options;
  options.workers = 2;
  options.max_live_handles = 4;
  options.db = DbOptions(/*compress=*/false);
  const size_t rounds =
      PhaseOps(args.seconds, kNominalRoundsPerSecond, kSamplesForP99);
  const size_t sessions_per_profile = (rounds + kProfiles - 1) / kProfiles;
  ProfilesState s;
  const double setup_s = RepeatSetup(
      args.dir, 9,
      [&](const std::string& dir) {
        ProfilesState st;
        st.histories = MakeHistories(
            args.seed, DaysFor(sessions_per_profile), kProfiles);
        st.root = dir + "/profiles";
        std::filesystem::create_directories(st.root);
        // The service would build its shared pool with the default
        // CompressionOptions, which read BP_COMPRESSION; a pool built
        // here with the workload's mode keeps the cold tier off.
        bp::service::ServiceOptions with_pool = options;
        with_pool.db.db.buffer_pool =
            std::make_shared<bp::storage::BufferPool>(
                options.db.db.pool_bytes, options.db.db.compression);
        auto svc = bp::service::ProvenanceService::Create(st.root, with_pool);
        if (svc.ok()) st.svc = std::move(*svc);
        return st;
      },
      s);
  bool long_enough = true;
  for (const History& h : s.histories) {
    long_enough = long_enough && h.sessions() >= sessions_per_profile;
  }
  if (s.svc == nullptr || !long_enough) {
    r.Fail("set-up failed");
    return r;
  }
  bp::service::ProvenanceService& svc = *s.svc;
  std::vector<std::vector<std::string>> queries(kProfiles);
  for (size_t p = 0; p < kProfiles; ++p) {
    for (size_t i = 0; i < s.histories[p].sessions(); ++i) {
      queries[p].push_back(s.histories[p].SessionQuery(i));
    }
  }

  Samples flush_ms, search_ms, round_ms;
  double ingest_ms = 0;
  size_t events = 0;
  OpSampler sampler(args.seed, args.trace);
  for (size_t round = 0; round < rounds; ++round) {
    const size_t p = round % kProfiles;
    const size_t session = round / kProfiles;
    const History& h = s.histories[p];
    const std::string profile = ProfileName(p);
    const bool traced = sampler.Next();
    const bool expect_pages = ExpectsPages(queries[p][session]);
    const Counters before =
        traced ? ReadCounters(nullptr, &svc) : Counters{};
    tracer.BeginOp("op.round", traced);
    bool ok = true;
    for (size_t i = h.bounds[session]; ok && i < h.bounds[session + 1]; ++i) {
      double ingest_call_ms = 0;
      ok = tracer
               .Time("ProvenanceService::Ingest", &ingest_call_ms,
                     [&] { return svc.Ingest(profile, h.out.events[i]); })
               .ok();
      if (traced) r.layers.service_ingest_us.Add(ingest_call_ms * 1e3);
    }
    double wait_ms = 0;
    ok = ok && tracer
                   .Time("ProvenanceService::Flush", &wait_ms,
                         [&] { return svc.Flush(profile); })
                   .ok();
    const Counters after_flush =
        traced ? ReadCounters(nullptr, &svc) : Counters{};
    double snapshot_ms = 0, call_ms = 0;
    bp::graph::QueryStats stats;
    if (ok) {
      const bp::util::Status searched = tracer.Time(
          "ProvenanceService::WithSnapshot", &snapshot_ms, [&] {
            return svc.WithSnapshot(
                profile, [&](bp::prov::ProvenanceDb::SnapshotView& view) {
                  auto hits = tracer.Time(
                      "SnapshotView::Search", &call_ms,
                      [&] { return view.Search(queries[p][session]); });
                  if (!hits.ok()) return hits.status();
                  stats = hits->stats;
                  return hits->pages.empty() != expect_pages
                             ? bp::util::Status::Ok()
                             : bp::util::Status::NotFound("wrong answer");
                });
          });
      ok = searched.ok();
    }
    const double op_ms = tracer.EndOp();
    ++r.attempted;
    if (!ok) {
      ++r.failed;
      continue;
    }
    const size_t n = h.bounds[session + 1] - h.bounds[session];
    flush_ms.Add(wait_ms);
    search_ms.Add(snapshot_ms);
    round_ms.Add(op_ms);
    ingest_ms += op_ms - snapshot_ms;
    events += n;
    if (traced) {
      const Counters end = ReadCounters(nullptr, &svc);
      r.layers.AddSession(Minus(after_flush, before), n, wait_ms);
      r.layers.AddQueryPart(Minus(end, after_flush), 1);
      r.layers.AddOp(Minus(end, before));
      r.layers.AddQuery(kSearch, call_ms, stats);
      r.layers.acquire_ms.Add(snapshot_ms - call_ms);
    }
  }

  // Ground truth: after shutdown, each profile reopened on its own has
  // the node count its last WithSnapshot saw.
  std::vector<uint64_t> seen(kProfiles, 0);
  const size_t touched = std::min<size_t>(r.attempted, kProfiles);
  for (size_t p = 0; p < touched; ++p) {
    const bp::util::Status counted = svc.WithSnapshot(
        ProfileName(p), [&](bp::prov::ProvenanceDb::SnapshotView& view) {
          auto nodes = view.store().NodeCount();
          if (!nodes.ok()) return nodes.status();
          seen[p] = *nodes;
          return bp::util::Status::Ok();
        });
    if (!counted.ok()) r.Fail("final snapshot failed for " + ProfileName(p));
  }
  s.svc.reset();
  const uint64_t disk = AllocatedBytes(s.root);
  for (size_t p = 0; p < touched; ++p) {
    const std::string path = s.root + "/" + ProfileName(p) + ".db";
    double open_ms = 0, close_ms = 0;
    auto db = tracer.Time("ProvenanceDb::Open", &open_ms, [&] {
      return bp::prov::ProvenanceDb::Open(path, options.db);
    });
    if (!db.ok()) {
      r.Fail("reopen failed for " + ProfileName(p));
      continue;
    }
    auto nodes = (*db)->store().NodeCount();
    if (!nodes.ok() || *nodes != seen[p]) {
      r.Fail("reopened profile lost nodes: " + ProfileName(p));
    }
    if (!tracer.Time("ProvenanceDb::Close", &close_ms,
                     [&] { return (*db)->Close(); })
             .ok()) {
      r.Fail("close failed for " + ProfileName(p));
    }
    r.layers.open_ms.Add(open_ms);
    r.layers.close_ms.Add(close_ms);
  }

  r.Add("setup_s", setup_s, "s");
  r.Add("ingest_events_per_s", events / (ingest_ms / 1e3), "events/s",
        flush_ms.count());
  r.AddPercentiles("flush_ms", flush_ms, "ms");
  r.AddP50("search_ms", search_ms, "ms");
  r.Add("disk_bytes_per_event", static_cast<double>(disk) / events,
        "B/event", events);
  r.AddOps(round_ms);
  return r;
}

}  // namespace pb
