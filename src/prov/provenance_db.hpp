// ProvenanceDb: the one supported way to stand the system up.
//
// Owns the whole stack — storage engine (Db), provenance store, event
// bus + recorder, and the history searcher — behind a single
// Open(path, Options), and exposes the paper's query surface directly:
//
//   auto db = prov::ProvenanceDb::Open("history.db", options);
//   BP_RETURN_IF_ERROR((*db)->IngestAll(session.events()));
//   auto hits = (*db)->Search("rosebud");
//   auto lineage = (*db)->TraceDownload(download_node);
//
// Every query result carries the QueryStats its cursors accumulated.
// The text index is refreshed lazily: ingestion marks it stale and the
// next text-backed query re-indexes the new pages, so bursts of capture
// never pay indexing latency inline.
//
// Concurrency model: capture threads -> bounded queue -> ONE committer
// thread, N snapshot readers. The preferred write path is IngestAsync:
// a non-blocking enqueue into the ingest pipeline, whose background
// committer coalesces pending events into adaptive batches — one
// storage transaction each, group-committed under load, fsynced
// immediately when the queue runs dry. The lazy text-index refresh a
// query runs never folds the log: threshold checkpoints land on ingest
// commits. Flush(ticket)/Drain() are the durability barriers: this
// facade's pipeline acknowledges a ticket only once the log holding its
// commit is fsynced. (A ProvenanceService shard runs the same pipeline
// but acknowledges at commit; see service/provenance_service.hpp.)
// Read-your-writes for queries is preserved by draining before one-shot
// queries and BeginSnapshot (see Options::async.drain_before_query).
// The synchronous Ingest/IngestAll path remains for callers that want
// commit-on-return semantics; both paths serialize on the same internal
// writer mutex, taken once per storage transaction, so they interleave
// at transaction granularity.
//
// One-shot query methods may be called from any thread, and every
// one-shot query runs against a fresh snapshot — so queries from other
// threads never observe a half-applied batch and never block behind
// each other, only behind snapshot creation. For
// query bursts that should share one consistent view (paging through
// results, multi-query forensics, repeated TimeContext against one
// interval index), BeginSnapshot() hands out a SnapshotView that pins
// the commit horizon once; its queries run with NO locking at all,
// fully in parallel with ingestion and each other (one SnapshotView per
// reader thread — the view itself is single-threaded, the snapshot
// layer below is what's shared). Destroy every SnapshotView before the
// ProvenanceDb.
//
// The owned EventBus is exposed so additional sinks (e.g. the Places
// baseline recorder used by the storage-overhead experiment) can ride
// the same stream; Publish delivers to every sink before reporting the
// first error, keeping those streams identical.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "capture/bus.hpp"
#include "capture/pipeline.hpp"
#include "capture/recorders.hpp"
#include "prov/prov_store.hpp"
#include "search/history_search.hpp"
#include "search/lineage.hpp"
#include "search/personalize.hpp"
#include "search/time_context.hpp"
#include "storage/db.hpp"
#include "storage/snapshot.hpp"
#include "util/mutex.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"

namespace bp::obs {
class Histogram;
}  // namespace bp::obs

namespace bp::prov {

class ProvenanceDb {
 public:
  struct Options {
    // Storage knobs (env, cache, group commit, buffer pool). The
    // default group-commit window is the sustained-capture path; pass a
    // MemEnv via db.env for tests and examples. The shared versioned
    // buffer pool behind every snapshot read is sized by db.pool_bytes
    // (must be > 0 unless db.buffer_pool shares one pool — one global
    // byte budget — across several databases). Hit/miss counters
    // surface through storage_stats() and per-query QueryStats.
    storage::DbOptions db;
    // Schema knobs (versioning policy, close-time recording).
    ProvOptions prov;
    // Events per storage transaction: IngestAll's chunk size AND the
    // async committer's coalescing cap (PipelineOptions::max_batch).
    size_t ingest_batch = 256;

    // Asynchronous ingest pipeline (IngestAsync / Flush / Drain).
    struct AsyncOptions {
      // When false, no committer thread is started and IngestAsync
      // returns FailedPrecondition; the synchronous paths are
      // unaffected.
      bool enabled = true;
      // Events the queue buffers before backpressure applies.
      size_t queue_capacity = 4096;
      // Full-queue policy: kBlock parks the capture thread (lossless);
      // kReject returns BudgetExhausted without blocking.
      capture::BackpressurePolicy backpressure =
          capture::BackpressurePolicy::kBlock;
      // Read-your-writes: one-shot queries and BeginSnapshot first
      // drain the pipeline up to the last enqueued ticket, so an
      // IngestAsync immediately followed by a query behaves like the
      // synchronous path. Turn off to let queries run against whatever
      // has committed (lower query latency under sustained ingest).
      bool drain_before_query = true;
    };
    AsyncOptions async;

    // A group-commit window of 8: every commit — ingest batches and
    // text-index refreshes alike — appends to the one log, <path>.wal;
    // an acknowledgement (Flush, Drain, Sync) is an fsync of that file,
    // and checkpoints fold it into the database file (see
    // storage/pager.hpp).
    Options() { db.wal_group_commit = 8; }
  };

  // Opens (creating if needed) the full stack at `path`. Rejects
  // unusable options up front (InvalidArgument on ingest_batch == 0,
  // async.queue_capacity == 0 with async enabled, or db.pool_bytes == 0
  // without an injected db.buffer_pool) instead of letting them
  // misbehave downstream.
  static util::Result<std::unique_ptr<ProvenanceDb>> Open(
      const std::string& path, Options options = {});

  // Explicit clean shutdown: drains the async pipeline, joins the
  // committer, checkpoints (folds the log into the database file), and
  // releases every resource — including this database's frames in a
  // shared buffer pool — without waiting for the destructor. This is
  // what lets a handle cache (service layer) evict a database
  // deterministically instead of relying on destructor ordering, and
  // it surfaces the errors a destructor would swallow (the first of:
  // drain failure, checkpoint failure).
  //
  // Preconditions: no live SnapshotView and — like the destructor — no
  // concurrent calls on this instance. Returns FailedPrecondition (and
  // closes nothing) while a snapshot is still open.
  //
  // Post-Close contract: Close() again is Ok (idempotent); every
  // ingestion, query, snapshot, and durability method returns
  // FailedPrecondition("ProvenanceDb is closed"); storage_stats()
  // keeps returning the final pre-close counters; DebugDump() still
  // works (the registry is process-wide). Reopening the same path is
  // supported and sees everything committed before the Close.
  util::Status Close();

  ~ProvenanceDb();
  ProvenanceDb(const ProvenanceDb&) = delete;
  ProvenanceDb& operator=(const ProvenanceDb&) = delete;

  // ----------------------------------------------------- ingestion
  //
  // Two write paths share one committed stream:
  //
  //   IngestAsync  — non-blocking enqueue; the background committer
  //                  batches, commits, and adaptively group-commits.
  //                  This is the capture path: a browser thread pays a
  //                  queue push, never a storage transaction.
  //   Ingest/IngestAll — synchronous; committed (though with group
  //                  commit not necessarily fsynced) on return.

  // Ticket identifying one asynchronously ingested event; pass it to
  // Flush to wait for durability. Tickets are dense and monotone.
  using IngestTicket = capture::IngestPipeline<capture::BrowserEvent>::Ticket;

  // Enqueues the event for the background committer and returns its
  // ticket without touching storage. On a full queue the configured
  // backpressure policy applies (block vs. BudgetExhausted). A prior
  // committer failure is sticky and is returned here and from Flush —
  // acknowledged events are never affected, unacknowledged events after
  // the failure point are dropped, never silently half-applied.
  util::Result<IngestTicket> IngestAsync(const capture::BrowserEvent& event);

  // Blocks until every event up to `ticket` is durable (committed AND
  // fsynced — stronger than synchronous Ingest under group commit).
  util::Status Flush(IngestTicket ticket);
  // Barrier over everything enqueued so far: Flush(last ticket).
  util::Status Drain();

  // The sticky committer status (Ok until an async commit/sync failed).
  util::Status pipeline_status() const;
  // Queue-depth / coalescing counters (zeroed struct when async is off).
  capture::PipelineStats pipeline_stats() const;
  // An EventSink forwarding to IngestAsync — subscribe it to an external
  // EventBus to feed capture straight into the pipeline (null when
  // async is disabled). The PlacesRecorder comparison can ride the same
  // external bus; this facade's own bus stays on the committer thread.
  capture::EventSink* async_sink() { return async_sink_.get(); }

  // Publishes one event to every subscribed sink as one storage
  // transaction: a one-event IngestAll.
  util::Status Ingest(const capture::BrowserEvent& event);

  // Publishes all events, `ingest_batch` per storage transaction (with
  // WAL group commit, adjacent batches additionally share an fsync).
  // Each chunk is all-or-nothing: a sink failure or a failed commit
  // rolls the chunk back and returns the error; earlier chunks stay
  // committed.
  util::Status IngestAll(const std::vector<capture::BrowserEvent>& events);

  // -------------------------------------------------- read snapshots
  //
  // A frozen, fully consistent view of everything committed so far,
  // exposing the complete query surface. Queries on a view never block
  // and are never blocked by the writer; results are identical no
  // matter how much is ingested after BeginSnapshot. Use one view per
  // reader thread; keep views short-lived under sustained ingest (live
  // snapshots pin WAL frames and defer checkpoints). Must be destroyed
  // before the ProvenanceDb.
  class SnapshotView {
   public:
    SnapshotView(SnapshotView&&) = default;
    SnapshotView& operator=(SnapshotView&&) = default;

    // The commit horizon this view observes.
    uint64_t commit_seq() const { return snap_->commit_seq(); }

    // The paper's query surface, frozen at commit_seq(). Semantics and
    // stats match the ProvenanceDb methods of the same names.
    util::Result<search::ContextualSearchResult> Search(
        const std::string& query,
        const search::ContextualSearchOptions& options = {});
    util::Result<search::ContextualSearchResult> TextualSearch(
        const std::string& query, size_t k = 10);
    util::Result<search::PersonalizationResult> Personalize(
        const std::string& query,
        const search::PersonalizeOptions& options = {});
    util::Result<search::TimeContextResult> TimeContext(
        const std::string& primary_query, const std::string& context_query,
        const search::TimeContextOptions& options = {});
    util::Result<search::LineageReport> TraceDownload(
        graph::NodeId download,
        const search::LineageOptions& options = {});
    util::Result<search::DescendantReport> DescendantDownloads(
        const std::string& url, const search::LineageOptions& options = {});

    // Raw graph cursors over the frozen view.
    graph::EdgeCursor Edges(graph::NodeId node, graph::Direction dir,
                            graph::QueryStats* stats = nullptr) const;
    graph::EdgeCursor Edges(graph::QueryStats* stats = nullptr) const;
    graph::NodeCursor Nodes(graph::NodeId min_id = 1,
                            graph::QueryStats* stats = nullptr) const;

    // Layer access (all snapshot-bound, read-only).
    const ProvStore& store() const { return *store_; }
    const storage::Snapshot& snapshot() const { return *snap_; }

   private:
    friend class ProvenanceDb;
    SnapshotView() = default;

    // Destruction order matters: the bound clones read through snap_,
    // so snap_ (declared first) must be destroyed last.
    std::unique_ptr<storage::Snapshot> snap_;
    std::unique_ptr<ProvStore> store_;
    std::unique_ptr<search::HistorySearcher> searcher_;
  };

  // Opens a snapshot of everything committed so far (draining the
  // ingest pipeline first when drain_before_query is on, then
  // refreshing the text index, so the frozen view is fully searchable
  // and covers every event already IngestAsync'd).
  util::Result<SnapshotView> BeginSnapshot() {
    return OpenView(/*with_searcher=*/true);
  }

  // ------------------------------------------------------ durability
  //
  // Makes every commit so far durable without waiting for the group
  // commit window to fill (-> Pager::SyncWal). After a failed log fsync
  // this, Flush, Drain and Checkpoint return that error until the
  // database is reopened (see Pager::SyncWal).
  util::Status Sync();
  // Folds the write-ahead log into the database file now (->
  // Pager::Checkpoint). FailedPrecondition while snapshots are live (a
  // deferred checkpoint re-arms automatically at the next commit).
  util::Status Checkpoint();

  // ------------------------------------------------------- queries
  //
  // One-shot: each call runs against a private snapshot opened for just
  // that call, so concurrent ingestion never tears a result. Prefer
  // BeginSnapshot when several queries must agree on one view or share
  // its caches.
  //
  // Use case 2.1: provenance-aware contextual history search.
  util::Result<search::ContextualSearchResult> Search(
      const std::string& query,
      const search::ContextualSearchOptions& options = {});
  // The textual baseline (BM25 only), for comparison.
  util::Result<search::ContextualSearchResult> TextualSearch(
      const std::string& query, size_t k = 10);
  // Use case 2.2: private query expansion from the user's own history.
  util::Result<search::PersonalizationResult> Personalize(
      const std::string& query, const search::PersonalizeOptions& options = {});
  // Use case 2.3: co-open boosting ("wine associated with plane tickets").
  util::Result<search::TimeContextResult> TimeContext(
      const std::string& primary_query, const std::string& context_query,
      const search::TimeContextOptions& options = {});
  // Use case 2.4: first recognizable ancestor of a download.
  util::Result<search::LineageReport> TraceDownload(
      graph::NodeId download, const search::LineageOptions& options = {});
  // Use case 2.4: all downloads descending from an (untrusted) page.
  util::Result<search::DescendantReport> DescendantDownloads(
      const std::string& url, const search::LineageOptions& options = {});

  // ------------------------------------------------------ statistics
  //
  // One coherent storage counter set: commits, cache and buffer-pool
  // hit/miss/eviction counts, resident pool bytes, WAL/fsync cost (see
  // storage::PagerStats). Cheap; safe from any thread.
  storage::PagerStats storage_stats() {
    util::MutexLock lock(mu_);
    if (closed_.load(std::memory_order_acquire)) return final_stats_;
    return db_->pager().stats();
  }

  // -------------------------------------------------- observability
  //
  // One-stop debug export of the whole engine: every registry
  // instrument — the process-wide latency histograms (WAL commit/fsync,
  // ingest stages, per-family query latency) plus each live subsystem's
  // counters, exported through pull collectors — and the slow-span ring
  // (obs/trace.hpp). DebugDump() is JSON (schema "bp-metrics-v1",
  // validated in CI against scripts/metrics_schema.json);
  // DebugDumpText() is Prometheus-style text. Safe from any thread;
  // both are dump-time exports that take no hot-path locks.
  std::string DebugDump() const;
  std::string DebugDumpText() const;

  // --------------------------------------------------- layer access
  //
  // The facade is the supported entry point; the layers stay reachable
  // for experiments, benches, and tests.
  storage::Db& db() { return *db_; }
  ProvStore& store() { return *store_; }
  search::HistorySearcher& searcher() { return *searcher_; }
  // Stream-id -> node mappings for events ingested through this facade
  // (a chunk that rolls back leaves them as they were).
  const capture::ProvenanceRecorder& recorder() const { return *recorder_; }
  // Subscribe additional sinks; they see exactly the ingested stream.
  capture::EventBus& bus() { return bus_; }

 private:
  ProvenanceDb() = default;

  // The post-Close error every operation returns (see Close()).
  static util::Status ClosedError() {
    return util::Status::FailedPrecondition("ProvenanceDb is closed");
  }
  // Re-indexes pages added since the last text-backed query.
  util::Status RefreshIndex() BP_REQUIRES(mu_);
  // Publishes `events` as ONE storage transaction. On a sink or commit
  // failure the whole chunk rolls back, the recorder's stream-id entries
  // with it: the writer lock is held from the first publish to the
  // commit, so no query can have indexed the doomed pages.
  util::Status IngestChunkLocked(std::span<const capture::BrowserEvent> events)
      BP_REQUIRES(mu_);

  // Every snapshot-opening path: the read-your-writes drain (which must
  // happen BEFORE the lock — the committer takes mu_ per batch), then
  // under the writer lock the text-index refresh (text-backed callers
  // only: graph-only one-shot queries pass with_searcher=false, since
  // lineage never touches the text index) and the snapshot itself.
  // The view's queries then run with no lock held.
  util::Result<SnapshotView> OpenView(bool with_searcher) BP_EXCLUDES(mu_);

  // Read-your-writes for queries: drains the ingest pipeline so events
  // already IngestAsync'd are committed before the query opens its
  // view. Skipped when async is off or drain_before_query is off. A
  // drain failure is the committer's sticky error — it surfaces on the
  // next IngestAsync/Flush; the query proceeds against what committed.
  void MaybeDrainForQuery() {
    if (pipeline_ == nullptr || !drain_before_query_) return;
    (void)pipeline_->Drain();
  }

  // Serializes writers (ingestion, index refresh, snapshot creation,
  // durability controls) against each other, one storage transaction
  // at a time. Queries on an open SnapshotView never take it.
  util::Mutex mu_;

  std::string path_;  // database path: the `db` label on exported samples
  // Set by Close() (under mu_; atomic so lock-free entry points such as
  // IngestAsync can read it). Once true, every member below except
  // final_stats_ may be null.
  std::atomic<bool> closed_{false};
  // The last stats() before teardown; what storage_stats() reports
  // after Close.
  storage::PagerStats final_stats_;
  std::unique_ptr<storage::Db> db_;
  std::unique_ptr<ProvStore> store_;
  std::unique_ptr<capture::ProvenanceRecorder> recorder_;
  capture::EventBus bus_;
  std::unique_ptr<search::HistorySearcher> searcher_;
  size_t ingest_batch_ = 256;
  bool index_stale_ BP_GUARDED_BY(mu_) = false;

  // --- async ingest pipeline ---------------------------------------
  // The committer-thread callbacks behind the pipeline: one storage
  // transaction per event batch, and the adaptive group close.
  util::Result<bool> CommitEventBatch(
      std::vector<capture::BrowserEvent>&& events, size_t backlog);
  util::Status SyncPipeline();

  bool drain_before_query_ = true;
  std::unique_ptr<capture::AsyncSink> async_sink_;

  // Observability: one bp_query_us histogram per query family (labels
  // family="search" etc.), recorded by the one-shot facade methods.
  // Registry-owned, fetched once at Open.
  obs::Histogram* query_us_search_ = nullptr;
  obs::Histogram* query_us_textual_ = nullptr;
  obs::Histogram* query_us_personalize_ = nullptr;
  obs::Histogram* query_us_time_context_ = nullptr;
  obs::Histogram* query_us_trace_ = nullptr;
  obs::Histogram* query_us_descendants_ = nullptr;
  // Pull collector exporting pipeline_stats(); removed in the
  // destructor BEFORE the pipeline is torn down.
  uint64_t metrics_token_ = 0;
  // Declared last (and reset first in the destructor): joining the
  // committer must happen while every member it reaches into is alive.
  std::unique_ptr<capture::IngestPipeline<capture::BrowserEvent>> pipeline_;
};

}  // namespace bp::prov
