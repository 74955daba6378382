#include "harness.hpp"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>

#include "obs/metrics.hpp"
#include "prov/provenance_db.hpp"
#include "service/provenance_service.hpp"

namespace pb {

// ------------------------------------------------------------ Samples

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

size_t Samples::Beyond(double q) const {
  if (values_.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * values_.size()));
  rank = std::clamp<size_t>(rank, 1, values_.size());
  return values_.size() - rank;
}

// ------------------------------------------------------------- Tracer

void Tracer::BeginOp(const char* name, bool traced) {
  in_op_ = true;
  op_traced_ = traced;
  ++ops_;
  op_start_ns_ = NowNs();
  if (enabled_) {
    Span root;
    root.id = static_cast<uint32_t>(spans_.size() + 1);
    root.op = ops_;
    root.name = name;
    root.start_ns = op_start_ns_;
    root.traced = traced;
    spans_.push_back(root);
    open_.assign(1, root.id);
  }
}

double Tracer::EndOp() {
  const int64_t end = NowNs();
  if (enabled_) {
    spans_[open_.front() - 1].end_ns = end;
    open_.clear();
  }
  in_op_ = false;
  return static_cast<double>(end - op_start_ns_) / 1e6;
}

uint32_t Tracer::Push(const char* name, int64_t start_ns) {
  Span span;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.op = in_op_ ? ops_ : 0;
  span.name = name;
  span.start_ns = start_ns;
  spans_.push_back(span);
  open_.push_back(span.id);
  return span.id;
}

void Tracer::Pop(uint32_t id, int64_t end_ns) {
  spans_[id - 1].end_ns = end_ns;
  open_.pop_back();
}

// ----------------------------------------------------------- Counters

namespace {

// The engine's histograms, in Counter order (count, sum pairs). The
// registry find-or-creates, so reading one the engine has not recorded
// into yet is safe (it reads 0).
constexpr const char* kHistograms[] = {
    "bp_commit_us",          "bp_wal_fsync_us",
    "bp_pager_checkpoint_us", "bp_ingest_commit_batch_us",
    "bp_ingest_sync_us",     "bp_compress_us",
    "bp_decompress_us",
};

}  // namespace

Counters ReadCounters(bp::prov::ProvenanceDb* db,
                      bp::service::ProvenanceService* svc) {
  Counters c{};
  auto& registry = bp::obs::MetricsRegistry::Global();
  size_t slot = 0;
  for (const char* name : kHistograms) {
    const bp::obs::Histogram* h = registry.GetHistogram(name, "", "");
    c[slot++] = static_cast<int64_t>(h->count());
    c[slot++] = static_cast<int64_t>(h->sum());
  }
  if (db != nullptr) {
    const bp::storage::PagerStats p = db->storage_stats();
    c[kPagesWritten] = static_cast<int64_t>(p.pages_written);
    c[kCacheHits] = static_cast<int64_t>(p.cache_hits);
    c[kCacheMisses] = static_cast<int64_t>(p.cache_misses);
    c[kPoolHits] = static_cast<int64_t>(p.pool_hits);
    c[kPoolMisses] = static_cast<int64_t>(p.pool_misses);
    c[kPoolEvictions] = static_cast<int64_t>(p.pool_evictions);
    c[kPoolColdDemotions] = static_cast<int64_t>(p.pool_cold_demotions);
    c[kPoolColdHits] = static_cast<int64_t>(p.pool_cold_hits);
    c[kFsyncOverlaps] = static_cast<int64_t>(p.fsync_overlaps);
    c[kDecompressReads] = static_cast<int64_t>(p.decompress_reads);
    const bp::storage::Pager& pager = db->db().pager();
    for (bp::storage::WriteDomain d :
         {bp::storage::kGraphDomain, bp::storage::kTextDomain}) {
      c[kWalBytesSynced] +=
          static_cast<int64_t>(pager.domain_stats(d).bytes_synced);
    }
    c[kStream1Commits] = static_cast<int64_t>(
        pager.domain_stats(bp::storage::kTextDomain).commits);
    const bp::capture::PipelineStats ps = db->pipeline_stats();
    c[kPipelineBatches] = static_cast<int64_t>(ps.batches);
    c[kPipelineCommitted] = static_cast<int64_t>(ps.committed);
  }
  if (svc != nullptr) {
    const bp::service::ServiceStats s = svc->Stats();
    c[kHandleHits] = static_cast<int64_t>(s.handle_hits);
    c[kHandleMisses] = static_cast<int64_t>(s.handle_misses);
    c[kOpens] = static_cast<int64_t>(s.opens);
    c[kEvictions] = static_cast<int64_t>(s.evictions);
    const bp::storage::BufferPoolStats b = svc->buffer_pool()->stats();
    c[kPoolHits] = static_cast<int64_t>(b.hits);
    c[kPoolMisses] = static_cast<int64_t>(b.misses);
    c[kPoolEvictions] = static_cast<int64_t>(b.evictions);
    c[kPoolColdDemotions] = static_cast<int64_t>(b.cold_demotions);
    c[kPoolColdHits] = static_cast<int64_t>(b.cold_hits);
  }
  return c;
}

Counters Minus(const Counters& after, const Counters& before) {
  Counters d{};
  for (size_t i = 0; i < d.size(); ++i) d[i] = after[i] - before[i];
  return d;
}

void AddTo(Counters& total, const Counters& delta) {
  for (size_t i = 0; i < total.size(); ++i) total[i] += delta[i];
}

const char* FamilyName(Family f) {
  static const char* const kNames[kFamilyCount] = {
      "search", "personalize", "time_context", "lineage", "descendants"};
  return kNames[f];
}

// ---------------------------------------------------------- LayerData

void LayerData::AddSession(const Counters& delta, size_t session_events,
                           double flush_ms) {
  ++sessions;
  events += session_events;
  AddTo(ingest, delta);
  if (delta[kBatchN] > 0) {
    const double batch_ms = static_cast<double>(delta[kBatchUs]) / 1e3;
    const double sync = static_cast<double>(delta[kSyncUs]) / 1e3;
    commit_batch_ms.Add(batch_ms);
    sync_ms.Add(sync);
    flush_wait_ms.Add(flush_ms - batch_ms - sync);
  }
}

void LayerData::AddQueryPart(const Counters& delta, size_t query_count) {
  AddTo(query, delta);
  queries += query_count;
}

void LayerData::AddQuery(Family family, double ms,
                         const bp::graph::QueryStats& stats) {
  family_ms[family].Add(ms);
  family_stats[family] += stats;
  ++family_queries[family];
}

void LayerData::AddEngineBytes(bp::prov::ProvenanceDb& db,
                               uint64_t db_events) {
  if (!db.Checkpoint().ok()) return;
  auto space = db.db().Space();
  if (!space.ok()) return;
  for (const auto& tree : space->trees) frame_bytes += tree.stats.disk_bytes;
  frame_events += db_events;
}

void LayerData::AddOp(const Counters& delta) {
  AddTo(whole, delta);
  auto mean = [&delta](Counter n, Counter sum) {
    return static_cast<double>(delta[sum]) / static_cast<double>(delta[n]);
  };
  if (delta[kCommitN] > 0) commit_us.Add(mean(kCommitN, kCommitUs));
  if (delta[kFsyncN] > 0) fsync_us.Add(mean(kFsyncN, kFsyncUs));
  if (delta[kCheckpointN] > 0) {
    checkpoint_ms.Add(mean(kCheckpointN, kCheckpointUs) / 1e3);
  }
  if (delta[kCompressN] > 0) compress_us.Add(mean(kCompressN, kCompressUs));
  if (delta[kDecompressN] > 0) {
    decompress_us.Add(mean(kDecompressN, kDecompressUs));
  }
}

std::map<std::string, double> LayerData::Metrics() const {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  auto pct = [&ratio](double part, double whole_count) {
    return 100.0 * ratio(part, whole_count);
  };
  auto f = [](int64_t v) { return static_cast<double>(v); };
  const double ev = static_cast<double>(events);
  const double nq = static_cast<double>(queries);
  std::map<std::string, double> m;

  m["capture.enqueue_us_p50"] = enqueue_us.Quantile(0.5);
  m["capture.batch_events_mean"] =
      ratio(f(ingest[kPipelineCommitted]), f(ingest[kPipelineBatches]));
  m["capture.batches_per_session"] =
      ratio(f(ingest[kPipelineBatches]), static_cast<double>(sessions));
  m["capture.commit_batch_ms_p50"] = commit_batch_ms.Quantile(0.5);
  m["capture.sync_ms_p50"] = sync_ms.Quantile(0.5);
  m["capture.flush_wait_ms_p50"] = flush_wait_ms.Quantile(0.5);

  m["prov.insert_ms_per_session"] =
      ingest[kBatchN] > 0
          ? ratio(f(ingest[kBatchUs] - ingest[kCommitUs]) / 1e3,
                  static_cast<double>(sessions))
          : 0;
  m["prov.open_ms"] = open_ms.Quantile(0.5);
  m["prov.close_ms"] = close_ms.Quantile(0.5);

  uint64_t all_queries = 0;
  uint64_t pages_fetched = 0;
  uint64_t pool_hits = 0;
  for (size_t i = 0; i < kFamilyCount; ++i) {
    const std::string family = FamilyName(static_cast<Family>(i));
    const bp::graph::QueryStats& s = family_stats[i];
    const double n = static_cast<double>(family_queries[i]);
    m["graph.rows_scanned_per_query." + family] =
        ratio(static_cast<double>(s.rows_scanned), n);
    m["graph.edges_expanded_per_query." + family] =
        ratio(static_cast<double>(s.edges_expanded), n);
    m["graph.nodes_visited_per_query." + family] =
        ratio(static_cast<double>(s.nodes_visited), n);
    m["search." + family + "_ms_p50"] = family_ms[i].Quantile(0.5);
    all_queries += family_queries[i];
    pages_fetched += s.pages_fetched;
    pool_hits += s.pool_hits;
  }

  m["text.refresh_ms_p50"] = refresh_ms.Quantile(0.5);
  m["text.bm25_ms_p50"] = bm25_ms.Quantile(0.5);

  m["snapshot.begin_us_p50"] = begin_us.Quantile(0.5);
  m["snapshot.pages_fetched_per_query"] = ratio(
      static_cast<double>(pages_fetched), static_cast<double>(all_queries));
  m["snapshot.pool_hits_per_query"] = ratio(
      static_cast<double>(pool_hits), static_cast<double>(all_queries));

  // A cold-tier hit counts neither as a pool hit nor as a miss.
  const double lookups =
      f(query[kPoolHits] + query[kPoolMisses] + query[kPoolColdHits]);
  m["pool.hit_pct"] = pct(f(query[kPoolHits]), lookups);
  m["pool.cold_hit_pct"] = pct(f(query[kPoolColdHits]), lookups);
  m["pool.evictions_per_query"] = ratio(f(query[kPoolEvictions]), nq);
  m["pool.cold_demotions_per_query"] =
      ratio(f(query[kPoolColdDemotions]), nq);
  m["pool.compress_us_p50"] = compress_us.Quantile(0.5);
  m["pool.decompress_us_p50"] = decompress_us.Quantile(0.5);

  m["pager.commit_us_p50"] = commit_us.Quantile(0.5);
  m["pager.commits_per_1k_events"] = 1e3 * ratio(f(ingest[kCommitN]), ev);
  m["pager.pages_written_per_event"] = ratio(f(ingest[kPagesWritten]), ev);
  m["pager.cache_hit_pct"] =
      pct(f(whole[kCacheHits]), f(whole[kCacheHits] + whole[kCacheMisses]));
  m["pager.fsyncs_per_1k_events"] = 1e3 * ratio(f(ingest[kFsyncN]), ev);
  m["pager.fsync_us_p50"] = fsync_us.Quantile(0.5);
  m["pager.checkpoints"] = f(whole[kCheckpointN]);
  m["pager.checkpoint_ms_p50"] = checkpoint_ms.Quantile(0.5);

  m["wal.bytes_per_event"] = ratio(f(whole[kWalBytesSynced]), ev);
  m["wal.stream1_commits"] = f(whole[kStream1Commits]);
  m["wal.fsync_overlaps"] = f(whole[kFsyncOverlaps]);

  m["compress.frame_bytes_per_event"] = ratio(
      static_cast<double>(frame_bytes), static_cast<double>(frame_events));
  m["compress.decompress_reads_per_query"] =
      ratio(f(query[kDecompressReads]), nq);

  m["service.ingest_us_p50"] = service_ingest_us.Quantile(0.5);
  m["service.handle_hit_pct"] =
      pct(f(whole[kHandleHits]), f(whole[kHandleHits] + whole[kHandleMisses]));
  m["service.opens_per_session"] =
      ratio(f(whole[kOpens]), static_cast<double>(sessions));
  m["service.evictions"] = f(whole[kEvictions]);
  m["service.acquire_ms_p50"] = acquire_ms.Quantile(0.5);
  return m;
}

// ------------------------------------------------------------- Result

void Result::Fail(const std::string& what) {
  checks_ok = false;
  errors.push_back(what);
}

void Result::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples, size_t beyond) {
  e2e.push_back({name, value, unit, samples, beyond});
}

void Result::AddP50(const std::string& name, const Samples& s,
                    const std::string& unit) {
  Add(name + "_p50", s.Quantile(0.5), unit, s.count(), s.Beyond(0.5));
}

void Result::AddPercentiles(const std::string& name, const Samples& s,
                            const std::string& unit) {
  AddP50(name, s, unit);
  if (s.Beyond(0.99) >= 10) {
    Add(name + "_p99", s.Quantile(0.99), unit, s.count(), s.Beyond(0.99));
  }
}

void Result::AddOps(const Samples& op_ms) {
  AddPercentiles("op_ms", op_ms, "ms");
  Add("ops_per_s", op_ms.Sum() > 0 ? op_ms.count() / (op_ms.Sum() / 1e3) : 0,
      "1/s", op_ms.count());
}

// -------------------------------------------------------------- system

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t AllocatedBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    struct stat st {};
    if (entry.is_regular_file() && ::stat(entry.path().c_str(), &st) == 0) {
      total += static_cast<uint64_t>(st.st_blocks) * 512;
    }
  }
  return total;
}

}  // namespace pb
