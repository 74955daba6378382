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
// immediately when the queue runs dry. Flush(ticket)/Drain() are the
// durability barriers; read-your-writes for queries is preserved by
// draining before one-shot queries and BeginSnapshot (see
// Options::async.drain_before_query). The synchronous Ingest/IngestAll/
// Batch path remains for callers that want commit-on-return semantics;
// both paths serialize on the same internal writer mutex, so they
// interleave at transaction granularity.
//
// One-shot query methods may be called from any thread, and every
// one-shot query under WAL durability runs against a fresh snapshot —
// so queries from other threads never observe a half-applied batch and
// never block behind each other, only behind snapshot creation. For
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
#include <mutex>
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
#include "util/require.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"

namespace bp::obs {
class Histogram;
}  // namespace bp::obs

namespace bp::prov {

class ProvenanceDb {
 public:
  struct Options {
    // Storage knobs (env, cache, durability, buffer pool). The default
    // WAL + group commit configuration is the sustained-capture path;
    // pass a MemEnv via db.env for tests and examples. The shared
    // versioned buffer pool behind every snapshot read is sized by
    // db.pool_bytes (0 disables it; db.buffer_pool shares one pool —
    // one global byte budget — across several databases). Hit/miss
    // counters surface through storage_stats() and per-query
    // QueryStats.
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

    // WAL durability with a group-commit window of 8: every commit —
    // ingest batches and text-index refreshes alike — appends to the one
    // log, <path>.wal; an acknowledgement (Flush, Drain, Sync) is an
    // fsync of that file, and checkpoints fold it into the database
    // file (see storage/pager.hpp).
    Options() {
      db.durability = storage::DurabilityMode::kWal;
      db.wal_group_commit = 8;
    }
  };

  // Opens (creating if needed) the full stack at `path`. Rejects
  // unusable options up front (InvalidArgument on ingest_batch == 0, or
  // async.queue_capacity == 0 with async enabled) instead of letting
  // them misbehave downstream.
  static util::Result<std::unique_ptr<ProvenanceDb>> Open(
      const std::string& path, Options options = {});

  // Explicit clean shutdown: drains the async pipeline, joins the
  // committer, checkpoints (WAL mode: folds the log into the database
  // file), and releases every resource — including this database's
  // frames in a shared buffer pool — without waiting for the
  // destructor. This is what lets a handle cache (service layer) evict
  // a database deterministically instead of relying on destructor
  // ordering, and it surfaces the errors a destructor would swallow
  // (the first of: drain failure, checkpoint failure).
  //
  // Preconditions: no open Batch, no live SnapshotView, and — like the
  // destructor — no concurrent calls on this instance. Returns
  // FailedPrecondition (and closes nothing) when a Batch or snapshot is
  // still open.
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
  //   Ingest/IngestAll/Batch — synchronous; committed (though with
  //                  group commit not necessarily fsynced) on return.

  // Ticket identifying one asynchronously ingested event; pass it to
  // Flush to wait for durability. Tickets are dense and monotone.
  using IngestTicket = capture::IngestPipeline::Ticket;

  // Enqueues the event for the background committer and returns its
  // ticket without touching storage. On a full queue the configured
  // backpressure policy applies (block vs. BudgetExhausted). A prior
  // committer failure is sticky and is returned here and from Flush —
  // acknowledged events are never affected, unacknowledged events after
  // the failure point are dropped, never silently half-applied.
  util::Result<IngestTicket> IngestAsync(const capture::BrowserEvent& event);

  // Blocks until every event up to `ticket` is durable (committed AND
  // fsynced — stronger than synchronous Ingest under group commit).
  // Do not call inside an open Batch: the committer needs the writer
  // lock the Batch holds.
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

  // Publishes one event to every subscribed sink.
  util::Status Ingest(const capture::BrowserEvent& event);

  // Publishes all events, `ingest_batch` per storage transaction (with
  // WAL group commit, adjacent batches additionally share an fsync).
  util::Status IngestAll(const std::vector<capture::BrowserEvent>& events);

  // Groups many Ingest calls into one storage transaction, holding the
  // facade's writer lock for its whole lifetime (snapshot readers keep
  // running; other writers and one-shot queries wait). Destruction
  // without Commit rolls the batch back.
  //
  //   { prov::ProvenanceDb::Batch batch(*db);
  //     ... db->Ingest(...); db->Ingest(...); ...
  //     BP_RETURN_IF_ERROR(batch.Commit()); }
  class Batch {
   public:
    // Contract violation (throws) on a closed database: the batch
    // would have no storage to compose into.
    explicit Batch(ProvenanceDb& db)
        : db_(CheckOpenForBatch(db)), lock_(db.mu_), inner_(*db.store_) {
      // While any user Batch is open, queries skip the read-your-writes
      // drain: the committer needs mu_ (held right here) to make
      // progress, so a same-thread drain would deadlock — and mid-batch
      // queries want the live read-your-own-writes path anyway.
      db_.user_batches_.fetch_add(1, std::memory_order_release);
    }
    util::Status Commit() {
      util::Status status = inner_.Commit();
      committed_ = status.ok();
      return status;
    }
    // Destruction without Commit rolls the storage back (when this
    // batch owns the transaction). A mid-batch text query may have
    // indexed the batch's pages (RefreshIndex composes into the open
    // transaction), so the index's cached watermark and corpus stats
    // now cover rolled-back node ids; schedule their reload for the
    // next RefreshIndex — it must run AFTER the rollback, which member
    // destruction order puts after this body.
    ~Batch() {
      if (!committed_ && inner_.owns_transaction()) {
        db_.ScheduleIndexRestore();
      }
      db_.user_batches_.fetch_sub(1, std::memory_order_release);
    }

   private:
    ProvenanceDb& db_;
    util::RecursiveMutexLock lock_;
    bool committed_ = false;
    ProvStore::IngestBatch inner_;
  };

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
  // FailedPrecondition in journal mode (it rewrites the database file
  // in place) and inside an open Batch (the index refresh would
  // compose into the uncommitted batch, leaving the view silently
  // unsearchable for not-yet-indexed committed pages).
  util::Result<SnapshotView> BeginSnapshot();

  // ------------------------------------------------------ durability
  //
  // Makes every commit so far durable without waiting for the group
  // commit window to fill (-> Pager::SyncWal). No-op in journal mode,
  // where every commit is already durable on return. After a failed log
  // fsync this, Flush, Drain and Checkpoint return that error until the
  // database is reopened (see Pager::SyncWal).
  util::Status Sync();
  // Folds the write-ahead log into the database file now (->
  // Pager::Checkpoint). FailedPrecondition while snapshots are live (a
  // deferred checkpoint re-arms automatically at the next commit);
  // no-op in journal mode.
  util::Status Checkpoint();

  // ------------------------------------------------------- queries
  //
  // One-shot: each call runs against a private snapshot opened for just
  // that call (under WAL durability), so concurrent ingestion never
  // tears a result. Two cases stay on the serialized live path:
  // journal mode (no snapshots) and calls made inside an open Batch,
  // which read the batch's own uncommitted events. Prefer BeginSnapshot
  // when several queries must agree on one view or share its caches.
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
    util::RecursiveMutexLock lock(mu_);
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
  // Stream-id -> node mappings for events ingested through this facade.
  const capture::ProvenanceRecorder& recorder() const { return *recorder_; }
  // Subscribe additional sinks; they see exactly the ingested stream.
  capture::EventBus& bus() { return bus_; }

 private:
  ProvenanceDb() = default;

  // The post-Close error every operation returns (see Close()).
  static util::Status ClosedError() {
    return util::Status::FailedPrecondition("ProvenanceDb is closed");
  }
  // Batch's constructor guard: using a closed database is a caller bug.
  static ProvenanceDb& CheckOpenForBatch(ProvenanceDb& db) {
    BP_REQUIRE(!db.closed_.load(std::memory_order_acquire),
               "Batch on a closed ProvenanceDb");
    return db;
  }

  // Re-indexes pages added since the last text-backed query, first
  // undoing index state left behind by a rolled-back Batch.
  util::Status RefreshIndex() BP_REQUIRES(mu_);
  // Called by ~Batch on rollback; mu_ is held (the Batch holds it —
  // destructor bodies are outside the analysis, hence no caller check).
  void ScheduleIndexRestore() BP_REQUIRES(mu_) {
    restore_index_ = true;
    index_stale_ = true;
  }
  // BeginSnapshot body; mu_ must already be held. Graph-only one-shot
  // queries pass with_searcher=false to skip the text-index refresh
  // and the searcher bind (lineage never touches the text index).
  util::Result<SnapshotView> BeginSnapshotLocked(bool with_searcher)
      BP_REQUIRES(mu_);
  // True when one-shot queries should run on a private snapshot: WAL
  // durability and no open Batch (mid-batch queries keep the live,
  // read-your-own-writes path).
  bool UseSnapshotQueriesLocked() const BP_REQUIRES(mu_);

  // Read-your-writes for queries: drains the ingest pipeline so events
  // already IngestAsync'd are committed before the query opens its
  // view. Skipped when async is off, drain_before_query is off, or a
  // user Batch is open (see Batch's constructor). A drain failure is
  // the committer's sticky error — it surfaces on the next
  // IngestAsync/Flush; the query proceeds against what committed.
  void MaybeDrainForQuery() {
    if (pipeline_ == nullptr || !drain_before_query_ ||
        user_batches_.load(std::memory_order_acquire) > 0) {
      return;
    }
    (void)pipeline_->Drain();
  }

  // The one-shot dispatch every query method shares: after the
  // read-your-writes drain (which must happen BEFORE the lock — the
  // committer takes mu_ per batch), under the writer lock either open a
  // private snapshot and run `on_view` against it UNLOCKED (the
  // concurrent path), or run `on_live` while still holding the lock
  // (journal mode / mid-batch). Both callables return the same Result
  // type; on_live is responsible for RefreshIndex when the query is
  // text-backed.
  template <typename ViewFn, typename LiveFn>
  auto OneShot(bool with_searcher, ViewFn&& on_view, LiveFn&& on_live)
      -> decltype(on_live()) {
    MaybeDrainForQuery();
    util::RecursiveMutexLock lock(mu_);
    if (closed_.load(std::memory_order_acquire)) return ClosedError();
    if (UseSnapshotQueriesLocked()) {
      auto view = BeginSnapshotLocked(with_searcher);
      if (!view.ok()) return view.status();
      lock.Unlock();
      return on_view(*view);
    }
    return on_live();
  }

  // Serializes writers (ingestion, index refresh, snapshot creation,
  // durability controls) against each other. Recursive because Batch
  // holds it across user Ingest calls. Queries on an open SnapshotView
  // never take it.
  util::RecursiveMutex mu_;

  std::string path_;  // database path: the `db` label on exported samples
  // Set by Close() (under mu_; atomic so lock-free entry points —
  // IngestAsync, Batch's guard — can read it). Once true, every member
  // below except final_stats_ may be null.
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
  // Set by rolled-back Batches: reload the index state before the next
  // re-index.
  bool restore_index_ BP_GUARDED_BY(mu_) = false;

  // --- async ingest pipeline ---------------------------------------
  // The committer-thread callbacks behind the pipeline: one storage
  // transaction per event batch, and the adaptive group close.
  util::Result<bool> CommitEventBatch(
      std::vector<capture::BrowserEvent>&& events, size_t backlog);
  util::Status SyncPipeline();

  bool drain_before_query_ = true;
  // Open user Batches (writer lock held by a user thread); > 0 makes
  // MaybeDrainForQuery a no-op.
  std::atomic<int> user_batches_{0};
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
  std::unique_ptr<capture::IngestPipeline> pipeline_;
};

}  // namespace bp::prov
