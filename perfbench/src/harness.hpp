// Shared pieces of the end-to-end benchmark: the clock, sample sets,
// the in-memory span recorder, the engine counter probe, and the
// result a workload hands back to main().
//
// Everything here lives in the benchmark. The engine is only called
// through its public headers; its own histograms and stats structs are
// read, never changed.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/cursor.hpp"

namespace bp::prov {
class ProvenanceDb;
}  // namespace bp::prov
namespace bp::service {
class ProvenanceService;
}  // namespace bp::service

namespace pb {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

// A set of measurements. Quantiles are nearest-rank on the sorted
// samples, so a reported percentile is always one measured value.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t count() const { return values_.size(); }
  double Quantile(double q) const;
  double Sum() const;
  // Samples strictly above Quantile(q): a tail percentile is reported
  // only when at least ten samples lie beyond it.
  size_t Beyond(double q) const;

 private:
  std::vector<double> values_;
};

// One span: a call the benchmark made into the engine, or a root op.
// `traced` is false for root ops the traced run left untraced (they
// are the in-run baseline for the tracing overhead).
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = a root
  uint32_t op = 0;      // the root op this span belongs to (0 = none)
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool traced = true;
};

// Times root ops and the calls inside them, and keeps the spans in
// memory until the run writes them out. Disabled (the untraced run), it
// only times: no span is stored, so the untraced run pays two clock
// reads per timed call, which it needs for its own metrics anyway.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // Starts a root op (a session, a query, a service round). With
  // `traced` false the traced run still records the root's duration,
  // as the in-run baseline for the overhead, but none of its children.
  void BeginOp(const char* name, bool traced);
  // Ends the current root op and returns its duration in ms.
  double EndOp();
  // True when calls made now are recorded: the traced run, outside
  // ops (set-up, probes, checks) or inside a traced op.
  bool recording() const { return enabled_ && (!in_op_ || op_traced_); }

  // Runs `fn` and returns its result; stores its duration in `*ms` (when
  // non-null) and, when recording, a span named `name` under the
  // innermost open span.
  template <typename Fn>
  auto Time(const char* name, double* ms, Fn&& fn) {
    const int64_t start = NowNs();
    const uint32_t id = recording() ? Push(name, start) : 0;
    auto result = fn();
    const int64_t end = NowNs();
    if (id != 0) Pop(id, end);
    if (ms != nullptr) *ms = static_cast<double>(end - start) / 1e6;
    return result;
  }
  template <typename Fn>
  auto Wrap(const char* name, Fn&& fn) {
    return Time(name, nullptr, std::forward<Fn>(fn));
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t Push(const char* name, int64_t start_ns);
  void Pop(uint32_t id, int64_t end_ns);

  bool enabled_;
  bool in_op_ = false;
  bool op_traced_ = false;
  uint32_t ops_ = 0;
  int64_t op_start_ns_ = 0;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;  // ids of the open spans, innermost last
};

// The engine counters the benchmark reads around each traced op.
// Histogram entries are (count, sum) of the process-wide registry
// histograms; the rest come from the stats structs the public APIs
// return. A field a workload cannot observe stays 0.
enum Counter : size_t {
  kCommitN, kCommitUs,              // bp_commit_us
  kFsyncN, kFsyncUs,                // bp_wal_fsync_us
  kCheckpointN, kCheckpointUs,      // bp_pager_checkpoint_us
  kBatchN, kBatchUs,                // bp_ingest_commit_batch_us
  kSyncN, kSyncUs,                  // bp_ingest_sync_us
  kCompressN, kCompressUs,          // bp_compress_us
  kDecompressN, kDecompressUs,      // bp_decompress_us
  kPagesWritten, kCacheHits, kCacheMisses,   // PagerStats
  kPoolHits, kPoolMisses, kPoolEvictions, kPoolColdDemotions,
  kPoolColdHits, kFsyncOverlaps, kDecompressReads,
  kWalBytesSynced, kStream1Commits,          // DomainStats
  kPipelineBatches, kPipelineCommitted,      // PipelineStats
  kHandleHits, kHandleMisses, kOpens, kEvictions,  // ServiceStats
  kCounterCount
};
using Counters = std::array<int64_t, kCounterCount>;

// Reads every counter. Pass the database of a single-database workload,
// or the service of the multi-profile one (pool counters then come from
// the shared pool).
Counters ReadCounters(bp::prov::ProvenanceDb* db,
                      bp::service::ProvenanceService* svc);
Counters Minus(const Counters& after, const Counters& before);
void AddTo(Counters& total, const Counters& delta);

// The query families the workloads issue, in the order of the
// per-layer metric names.
enum Family : size_t {
  kSearch, kPersonalize, kTimeContext, kLineage, kDescendants, kFamilyCount
};
const char* FamilyName(Family f);

// What the traced run collects for the per-layer metrics.
struct LayerData {
  Samples enqueue_us;            // IngestAsync calls
  Samples flush_wait_ms;         // Flush minus commit-batch and sync time
  Samples commit_batch_ms;       // per-session bp_ingest_commit_batch_us
  Samples sync_ms;               // per-session bp_ingest_sync_us
  Samples open_ms, close_ms;     // ProvenanceDb::Open / Close
  Samples refresh_ms;            // BeginSnapshot after Flush minus current
  Samples bm25_ms;               // SnapshotView::TextualSearch probe
  Samples begin_us;              // BeginSnapshot with the index current
  std::array<Samples, kFamilyCount> family_ms;  // view (or one-shot) call
  std::array<bp::graph::QueryStats, kFamilyCount> family_stats;
  std::array<uint64_t, kFamilyCount> family_queries{};
  Samples commit_us, fsync_us, checkpoint_ms;   // per-op histogram means
  Samples compress_us, decompress_us;
  Samples service_ingest_us;     // ProvenanceService::Ingest calls
  Samples acquire_ms;            // WithSnapshot minus the view call
  Counters ingest{};             // deltas over the ingest part of ops
  Counters query{};              // deltas over the query part of ops
  Counters whole{};              // deltas over whole ops
  uint64_t sessions = 0;         // ops that ingested a session
  uint64_t events = 0;           // events those ops ingested
  uint64_t queries = 0;          // queries in the query parts
  uint64_t frame_bytes = 0;      // engine-accounted bytes at the end
  uint64_t frame_events = 0;     // events those bytes hold

  // One session ingested by a traced op: `ingest` is the counter delta
  // from the op's start to its Flush returning.
  void AddSession(const Counters& ingest, size_t session_events,
                  double flush_ms);
  // The query part of a traced op: its counter delta and query count.
  void AddQueryPart(const Counters& delta, size_t query_count);
  // One query of a traced op, timed at its view (or one-shot) call.
  void AddQuery(Family family, double ms, const bp::graph::QueryStats& stats);
  // The engine's own accounting of `db`'s pages (SpaceReport, after a
  // checkpoint), for `db_events` events.
  void AddEngineBytes(bp::prov::ProvenanceDb& db, uint64_t db_events);
  // The whole traced op: folds the per-op means of the engine's
  // histograms into the samples above.
  void AddOp(const Counters& delta);
  // The per-layer metrics by name: every name, 0 where unmeasured. The
  // trace.* metrics come from the span dump (trace_report.py).
  std::map<std::string, double> Metrics() const;
};

// One reported end-to-end number.
struct EndToEnd {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;  // for a percentile: the sample count
  size_t beyond = 0;   // for a percentile: samples above it
};

struct Result {
  std::string workload;
  uint64_t seed = 0;
  uint64_t attempted = 0;  // end-to-end ops attempted in the timed phase
  uint64_t failed = 0;     // ops not Ok or failing their ground truth
  bool checks_ok = true;   // the end-of-run ground-truth checks
  std::vector<std::string> errors;
  std::vector<EndToEnd> e2e;
  LayerData layers;

  void Fail(const std::string& what);
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0, size_t beyond = 0);
  // Adds name_p50 and, with ten samples beyond it, name_p99.
  void AddPercentiles(const std::string& name, const Samples& s,
                      const std::string& unit);
  void AddP50(const std::string& name, const Samples& s,
              const std::string& unit);
  // The workload-independent metrics of its root ops: op_ms_p50 (and
  // _p99), and ops_per_s, completed ops over the time spent in them.
  void AddOps(const Samples& op_ms);
};

// Peak resident set of this process, MiB.
double PeakRssMb();
// Allocated bytes (st_blocks) of every regular file under `dir`.
uint64_t AllocatedBytes(const std::string& dir);

}  // namespace pb
