#include "prov/provenance_db.hpp"

#include <algorithm>
#include <span>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace bp::prov {

using util::Result;
using util::Status;

Result<std::unique_ptr<ProvenanceDb>> ProvenanceDb::Open(
    const std::string& path, Options options) {
  // Validate up front: these zeros used to be silently coerced (or
  // worse, wedge the pipeline downstream); an explicit error at Open is
  // the only moment the caller is certainly looking.
  if (options.ingest_batch == 0) {
    return Status::InvalidArgument(
        "Options::ingest_batch must be >= 1 (events per storage "
        "transaction)");
  }
  if (options.async.enabled && options.async.queue_capacity == 0) {
    return Status::InvalidArgument(
        "Options::async.queue_capacity must be >= 1 when the async "
        "pipeline is enabled");
  }
  // An injected pool and a pool size that disagree is a configuration
  // contradiction, not a preference: the injected pool's budget always
  // wins, so a caller that set both to different values is mistaken
  // about one of them. pool_bytes = 0 means "defer to the injected
  // pool" (as does leaving it equal to the pool's budget).
  if (options.db.buffer_pool != nullptr && options.db.pool_bytes != 0 &&
      options.db.pool_bytes != options.db.buffer_pool->byte_budget()) {
    return Status::InvalidArgument(util::StrFormat(
        "Options::db.pool_bytes (%zu) disagrees with the injected "
        "db.buffer_pool's byte budget (%zu); set pool_bytes to 0 (or to "
        "the pool's budget) when sharing a pool",
        options.db.pool_bytes, options.db.buffer_pool->byte_budget()));
  }
  std::unique_ptr<ProvenanceDb> out(new ProvenanceDb());
  out->path_ = path;
  out->ingest_batch_ = options.ingest_batch;
  BP_ASSIGN_OR_RETURN(out->db_, storage::Db::Open(path, options.db));
  BP_ASSIGN_OR_RETURN(out->store_,
                      ProvStore::Open(*out->db_, options.prov));
  out->recorder_ =
      std::make_unique<capture::ProvenanceRecorder>(*out->store_);
  out->bus_.Subscribe(out->recorder_.get());
  BP_ASSIGN_OR_RETURN(out->searcher_,
                      search::HistorySearcher::Open(*out->db_, *out->store_));

  // Per-family one-shot query latency histograms: one bp_query_us
  // distribution per query family, shared process-wide (the family
  // label is the axis; per-database attribution is what the `db` label
  // on collector samples is for).
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  auto family_hist = [&reg](const char* family) {
    return reg.GetHistogram(
        "bp_query_us", std::string("family=\"") + family + "\"",
        "One-shot query latency by family (us)");
  };
  out->query_us_search_ = family_hist("search");
  out->query_us_textual_ = family_hist("textual_search");
  out->query_us_personalize_ = family_hist("personalize");
  out->query_us_time_context_ = family_hist("time_context");
  out->query_us_trace_ = family_hist("trace_download");
  out->query_us_descendants_ = family_hist("descendant_downloads");

  // Stand the async pipeline up LAST: its committer thread reaches into
  // every member above from the moment it starts.
  out->drain_before_query_ = options.async.drain_before_query;
  if (options.async.enabled) {
    capture::PipelineOptions popts;
    popts.queue_capacity = options.async.queue_capacity;
    popts.max_batch = out->ingest_batch_;
    popts.backpressure = options.async.backpressure;
    ProvenanceDb* raw = out.get();
    out->async_sink_ = std::make_unique<capture::AsyncSink>(
        [raw](const capture::BrowserEvent& event) {
          util::Result<IngestTicket> ticket = raw->IngestAsync(event);
          return ticket.ok() ? util::Status::Ok() : ticket.status();
        });
    out->pipeline_ = std::make_unique<
        capture::IngestPipeline<capture::BrowserEvent>>(
        popts,
        [raw](std::vector<capture::BrowserEvent>&& events, size_t backlog) {
          return raw->CommitEventBatch(std::move(events), backlog);
        },
        [raw] { return raw->SyncPipeline(); });
    // Export the pipeline's own counters at dump time (the Pager
    // registers its collector itself in Pager::Open). Safe raw capture:
    // the destructor removes the collector before touching pipeline_.
    out->metrics_token_ = reg.AddCollector([raw](obs::CollectionSink& sink) {
      const capture::PipelineStats p = raw->pipeline_stats();
      const std::string labels = "db=\"" + raw->path_ + "\"";
      sink.Counter("bp_ingest_enqueued", labels,
                   "Events accepted into the ingest queue", p.enqueued);
      sink.Counter("bp_ingest_committed", labels,
                   "Events whose transaction committed", p.committed);
      sink.Counter("bp_ingest_batches", labels,
                   "Storage transactions the committer ran", p.batches);
      sink.Counter("bp_ingest_coalesced_txns", labels,
                   "Batches carrying more than one event", p.coalesced_txns);
      sink.Counter("bp_ingest_early_flushes", labels,
                   "Group-commit windows closed early", p.early_flushes);
      sink.Counter("bp_ingest_rejected", labels,
                   "Enqueues refused on a full queue", p.rejected);
      sink.Counter("bp_ingest_blocked_enqueues", labels,
                   "Enqueues that waited on a full queue",
                   p.blocked_enqueues);
      sink.Gauge("bp_ingest_queue_depth", labels,
                 "Events waiting in the ingest queue", p.queue_depth);
      sink.Gauge("bp_ingest_max_queue_depth", labels,
                 "Deepest the ingest queue ever got", p.max_queue_depth);
      sink.Gauge("bp_ingest_mean_queue_depth", labels,
                 "Mean queue depth over enqueue/pop samples",
                 p.mean_queue_depth);
    });
  }
  return out;
}

ProvenanceDb::~ProvenanceDb() {
  // Detach from the metrics registry first: RemoveCollector blocks out
  // in-flight dumps, so no dump can reach pipeline_ mid-teardown.
  if (metrics_token_ != 0) {
    obs::MetricsRegistry::Global().RemoveCollector(metrics_token_);
  }
  // Join the committer (draining what it can) before any member it
  // reaches into goes away. After an explicit Close() both of the
  // above are already done and every reset below is a no-op.
  pipeline_.reset();
}

Status ProvenanceDb::Close() {
  if (closed_.load(std::memory_order_acquire)) return Status::Ok();
  // Refuse while state the teardown would invalidate is still live.
  // Checked before any irreversible step so a refused Close leaves a
  // fully working database.
  {
    util::MutexLock lock(mu_);
    if (db_->pager().live_snapshots() > 0) {
      return Status::FailedPrecondition(
          "Close with live SnapshotViews: destroy every view first");
    }
  }
  // Drain the pipeline OUTSIDE mu_ (the committer takes it per batch),
  // then join the committer and detach the collector — the same
  // sequence as the destructor, but with the drain's verdict kept.
  Status drain_status;
  if (pipeline_ != nullptr) drain_status = pipeline_->Drain();
  if (metrics_token_ != 0) {
    obs::MetricsRegistry::Global().RemoveCollector(metrics_token_);
    metrics_token_ = 0;
  }
  pipeline_.reset();
  async_sink_.reset();

  util::MutexLock lock(mu_);
  // Fold the log into the database file now. ~Pager would do this too,
  // but here the error surfaces — and on failure the log simply stays
  // behind for the next Open to replay, so closing remains safe to
  // continue.
  Status checkpoint_status = db_->pager().Checkpoint();
  final_stats_ = db_->pager().stats();
  closed_.store(true, std::memory_order_release);
  // Teardown in dependency order; ~Pager releases this database's
  // frames from a shared buffer pool (BufferPool::DropOwner).
  searcher_.reset();
  bus_ = capture::EventBus();  // drop the raw recorder pointer first
  recorder_.reset();
  store_.reset();
  db_.reset();
  if (!drain_status.ok()) return drain_status;
  return checkpoint_status;
}

// ------------------------------------------------------ async ingest

Result<ProvenanceDb::IngestTicket> ProvenanceDb::IngestAsync(
    const capture::BrowserEvent& event) {
  if (closed_.load(std::memory_order_acquire)) return ClosedError();
  if (pipeline_ == nullptr) {
    return Status::FailedPrecondition(
        "async ingest is disabled (Options::async.enabled = false)");
  }
  return pipeline_->Enqueue(event);
}

Status ProvenanceDb::Flush(IngestTicket ticket) {
  if (closed_.load(std::memory_order_acquire)) return ClosedError();
  if (pipeline_ == nullptr) return Status::Ok();  // nothing is buffered
  return pipeline_->Flush(ticket);
}

Status ProvenanceDb::Drain() {
  if (closed_.load(std::memory_order_acquire)) return ClosedError();
  if (pipeline_ == nullptr) return Status::Ok();
  return pipeline_->Drain();
}

Status ProvenanceDb::pipeline_status() const {
  return pipeline_ == nullptr ? Status::Ok() : pipeline_->status();
}

capture::PipelineStats ProvenanceDb::pipeline_stats() const {
  return pipeline_ == nullptr ? capture::PipelineStats{}
                              : pipeline_->stats();
}

// Committer thread: one storage transaction for the whole batch.
Result<bool> ProvenanceDb::CommitEventBatch(
    std::vector<capture::BrowserEvent>&& events, size_t backlog) {
  (void)backlog;  // batch size already adapted by the pipeline's pop
  util::MutexLock lock(mu_);
  BP_RETURN_IF_ERROR(IngestChunkLocked(events));
  // Durable already? True when the commit filled and flushed the
  // group-commit window.
  return db_->pager().unsynced_commits() == 0;
}

// Deliberately NOT under mu_: FlushPending only takes the pager's log
// mutex (WalWriter::Sync is the cross-thread half of the WAL protocol),
// so the committer's group-close fsync does not block synchronous
// writers and queries waiting on mu_. Ack correctness is untouched: any
// commit sequenced before the committer's last batch is visible to the
// unsynced-count load (the committer held mu_ for that batch after the
// earlier commit released it).
Status ProvenanceDb::SyncPipeline() {
  return db_->pager().FlushPending().status();
}

Status ProvenanceDb::Ingest(const capture::BrowserEvent& event) {
  util::MutexLock lock(mu_);
  if (closed_.load(std::memory_order_acquire)) return ClosedError();
  return IngestChunkLocked({&event, 1});
}

Status ProvenanceDb::IngestAll(
    const std::vector<capture::BrowserEvent>& events) {
  if (closed_.load(std::memory_order_acquire)) return ClosedError();
  const std::span<const capture::BrowserEvent> all(events);
  for (size_t start = 0; start < all.size(); start += ingest_batch_) {
    util::MutexLock lock(mu_);
    BP_RETURN_IF_ERROR(IngestChunkLocked(
        all.subspan(start, std::min(ingest_batch_, all.size() - start))));
  }
  return Status::Ok();
}

Status ProvenanceDb::IngestChunkLocked(
    std::span<const capture::BrowserEvent> events) {
  ProvStore::IngestBatch batch(*store_);
  for (const capture::BrowserEvent& event : events) {
    // On failure ~IngestBatch rolls the whole transaction back: a
    // mid-chunk sink failure never leaves a half-applied group behind.
    BP_RETURN_IF_ERROR(bus_.Publish(event));
  }
  index_stale_ = true;
  Status committed = batch.Commit();
  if (!committed.ok() && db_->pager().InTransaction()) {
    // Commit marks the AutoTxn retired before the pager runs, so a
    // pager commit that failed before its commit frame reached the log
    // leaves the transaction open; roll it back so the pager stays
    // usable.
    (void)db_->pager().Rollback();
  }
  return committed;
}

Status ProvenanceDb::RefreshIndex() {
  if (!index_stale_) return Status::Ok();
  // The refresh commits on a query's behalf; a threshold checkpoint
  // there would put the log fold on that query's latency. The next
  // ingest commit folds instead, so the writers that grow the log pay.
  storage::Pager::DeferCheckpoints defer(db_->pager());
  BP_RETURN_IF_ERROR(searcher_->IndexNewPages());
  index_stale_ = false;
  return Status::Ok();
}

Status ProvenanceDb::Sync() {
  util::MutexLock lock(mu_);
  if (closed_.load(std::memory_order_acquire)) return ClosedError();
  return db_->pager().SyncWal();
}

Status ProvenanceDb::Checkpoint() {
  util::MutexLock lock(mu_);
  if (closed_.load(std::memory_order_acquire)) return ClosedError();
  return db_->pager().Checkpoint();
}

// ------------------------------------------------------- snapshots

Result<ProvenanceDb::SnapshotView> ProvenanceDb::OpenView(
    bool with_searcher) {
  // Read-your-writes: everything IngestAsync'd so far must be inside
  // the frozen view.
  MaybeDrainForQuery();
  util::MutexLock lock(mu_);
  if (closed_.load(std::memory_order_acquire)) return ClosedError();
  SnapshotView view;
  if (with_searcher) {
    // Index first so text search over the frozen view covers everything
    // committed so far. Graph-only callers skip this: lineage queries
    // never touch the text index, and the header promises indexing
    // latency is paid only by text-backed queries.
    BP_RETURN_IF_ERROR(RefreshIndex());
  }
  BP_ASSIGN_OR_RETURN(view.snap_, db_->pager().BeginRead());
  view.store_ = store_->AtSnapshot(*view.snap_);
  if (with_searcher) {
    BP_ASSIGN_OR_RETURN(view.searcher_,
                        searcher_->AtSnapshot(*view.snap_, *view.store_));
  }
  return view;
}

namespace {

// Runs `fn` and folds the page-level work the snapshot performed during
// it (shared-pool hits vs. log/database fetches) into the result's
// QueryStats. Deltas, not totals, so attribution stays per-query even
// on a long-lived SnapshotView answering many queries.
template <typename Fn>
auto WithPageStats(const storage::Snapshot& snap, Fn&& fn)
    -> decltype(fn()) {
  const storage::SnapshotStats before = snap.stats();
  auto result = fn();
  if (result.ok()) {
    const storage::SnapshotStats after = snap.stats();
    result.value().stats.pool_hits += after.pool_hits - before.pool_hits;
    result.value().stats.pages_fetched +=
        after.pages_read - before.pages_read;
  }
  return result;
}

}  // namespace

Result<search::ContextualSearchResult> ProvenanceDb::SnapshotView::Search(
    const std::string& query,
    const search::ContextualSearchOptions& options) {
  return WithPageStats(*snap_, [&] {
    return searcher_->ContextualSearch(query, options);
  });
}

Result<search::ContextualSearchResult>
ProvenanceDb::SnapshotView::TextualSearch(const std::string& query,
                                          size_t k) {
  return WithPageStats(*snap_,
                       [&] { return searcher_->TextualSearch(query, k); });
}

Result<search::PersonalizationResult> ProvenanceDb::SnapshotView::Personalize(
    const std::string& query, const search::PersonalizeOptions& options) {
  return WithPageStats(*snap_, [&] {
    return search::PersonalizeQuery(*searcher_, query, options);
  });
}

Result<search::TimeContextResult> ProvenanceDb::SnapshotView::TimeContext(
    const std::string& primary_query, const std::string& context_query,
    const search::TimeContextOptions& options) {
  return WithPageStats(*snap_, [&] {
    return search::TimeContextualSearch(*searcher_, primary_query,
                                        context_query, options);
  });
}

Result<search::LineageReport> ProvenanceDb::SnapshotView::TraceDownload(
    graph::NodeId download, const search::LineageOptions& options) {
  return WithPageStats(*snap_, [&] {
    return search::TraceDownload(*store_, download, options);
  });
}

Result<search::DescendantReport>
ProvenanceDb::SnapshotView::DescendantDownloads(
    const std::string& url, const search::LineageOptions& options) {
  return WithPageStats(*snap_, [&] {
    return search::DescendantDownloads(*store_, url, options);
  });
}

graph::EdgeCursor ProvenanceDb::SnapshotView::Edges(
    graph::NodeId node, graph::Direction dir,
    graph::QueryStats* stats) const {
  return store_->graph().Edges(node, dir, stats);
}

graph::EdgeCursor ProvenanceDb::SnapshotView::Edges(
    graph::QueryStats* stats) const {
  return store_->graph().Edges(stats);
}

graph::NodeCursor ProvenanceDb::SnapshotView::Nodes(
    graph::NodeId min_id, graph::QueryStats* stats) const {
  return store_->graph().Nodes(min_id, stats);
}

// --------------------------------------------------- one-shot queries
//
// Each call opens a private snapshot — the lock is held only while the
// snapshot is created, and the query itself runs against the frozen
// view, concurrently with ingestion and other readers.

Result<search::ContextualSearchResult> ProvenanceDb::Search(
    const std::string& query,
    const search::ContextualSearchOptions& options) {
  obs::ScopedTimerUs timer(query_us_search_);
  obs::ScopedSpan span("query.search");
  BP_ASSIGN_OR_RETURN(SnapshotView view, OpenView(/*with_searcher=*/true));
  return view.Search(query, options);
}

Result<search::ContextualSearchResult> ProvenanceDb::TextualSearch(
    const std::string& query, size_t k) {
  obs::ScopedTimerUs timer(query_us_textual_);
  obs::ScopedSpan span("query.textual_search");
  BP_ASSIGN_OR_RETURN(SnapshotView view, OpenView(/*with_searcher=*/true));
  return view.TextualSearch(query, k);
}

Result<search::PersonalizationResult> ProvenanceDb::Personalize(
    const std::string& query, const search::PersonalizeOptions& options) {
  obs::ScopedTimerUs timer(query_us_personalize_);
  obs::ScopedSpan span("query.personalize");
  BP_ASSIGN_OR_RETURN(SnapshotView view, OpenView(/*with_searcher=*/true));
  return view.Personalize(query, options);
}

Result<search::TimeContextResult> ProvenanceDb::TimeContext(
    const std::string& primary_query, const std::string& context_query,
    const search::TimeContextOptions& options) {
  obs::ScopedTimerUs timer(query_us_time_context_);
  obs::ScopedSpan span("query.time_context");
  BP_ASSIGN_OR_RETURN(SnapshotView view, OpenView(/*with_searcher=*/true));
  return view.TimeContext(primary_query, context_query, options);
}

Result<search::LineageReport> ProvenanceDb::TraceDownload(
    graph::NodeId download, const search::LineageOptions& options) {
  obs::ScopedTimerUs timer(query_us_trace_);
  obs::ScopedSpan span("query.trace_download");
  BP_ASSIGN_OR_RETURN(SnapshotView view, OpenView(/*with_searcher=*/false));
  return view.TraceDownload(download, options);
}

Result<search::DescendantReport> ProvenanceDb::DescendantDownloads(
    const std::string& url, const search::LineageOptions& options) {
  obs::ScopedTimerUs timer(query_us_descendants_);
  obs::ScopedSpan span("query.descendant_downloads");
  BP_ASSIGN_OR_RETURN(SnapshotView view, OpenView(/*with_searcher=*/false));
  return view.DescendantDownloads(url, options);
}

// --------------------------------------------------- observability

std::string ProvenanceDb::DebugDump() const {
  return "{\n  \"schema\": \"bp-metrics-v1\",\n  \"metrics\": " +
         obs::MetricsRegistry::Global().DumpJsonMetricsArray() + ",\n  " +
         obs::Tracer::Global().DumpJsonSpans() + "\n}\n";
}

std::string ProvenanceDb::DebugDumpText() const {
  return obs::MetricsRegistry::Global().DumpText();
}

}  // namespace bp::prov
