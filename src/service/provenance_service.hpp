// ProvenanceService: many profile databases behind one process.
//
// The paper's engine is per-profile — one ProvenanceDb per browser
// profile (or per user on a shared machine). A deployment that hosts
// many profiles cannot afford one committer thread and one page-cache
// budget per profile, so the service multiplexes them:
//
//   capture threads ──Ingest(profile, event)──▶ shard router
//        │                                          │
//        │                 stable hash(profile) % N │
//        ▼                                          ▼
//   [shard 0]    [shard 1]    ...   [shard N-1]      (one IngestPipeline
//    pipeline     pipeline           pipeline         of (profile, event)
//        │            │                  │            each: its committer
//        │            │                  │            thread commits the
//        │            │                  │            shard's profiles)
//        └────────────┴──────────────────┘
//                     │ open-on-demand, pinned while in use
//                     ▼
//            handle cache (LRU, max_live_handles)
//                     │
//        ┌────────────┼──────────────────┐
//        ▼            ▼                  ▼
//   profile0.db   profile1.db   ...  profileK.db     (K can exceed the
//        └────────────┴──────────────────┘            live-handle cap)
//                     │
//                     ▼
//        one shared BufferPool byte budget
//
// Shard router. A profile's id hashes (FNV-1a, stable across runs and
// platforms) onto one of N shards; every event for that profile is
// committed by that shard's committer thread, so per-profile event
// order is preserved and a profile's database never sees two writers.
// Each shard is a capture::IngestPipeline<ProfileEvent>: its committer
// pops up to queue_capacity events at once, groups them by profile in
// first-appearance order and commits each group through the profile's
// pinned handle (ProvenanceDb::IngestAll). Profile databases are
// therefore opened with their own async pipeline DISABLED — N shard
// committers replace what would otherwise be one committer thread per
// open database.
//
// Handle cache. Handles open on demand and live in an intrusive LRU
// capped at max_live_handles. Eviction takes the coldest UNPINNED
// handle and closes it cleanly through ProvenanceDb::Close() — drain,
// checkpoint, release of its frames in the shared buffer pool — so a
// reopened profile recovers everything committed. A handle is pinned
// (like a buffer-pool frame) while a shard commits into it and for
// the whole lifetime of a WithSnapshot view; pinned handles are
// spared, which makes the cap soft: when live readers pin more than
// max_live_handles, the cache grows past the cap rather than failing.
//
// Backpressure and failures are the pipeline's. Each shard's queue is
// bounded (queue_capacity); kBlock parks the capture thread until the
// shard catches up (lossless), kReject returns BudgetExhausted
// immediately — the service-level saturation signal. A shard's first
// failure (a handle that will not open, a commit, or the close of one
// of its profiles' handles, whichever shard evicted it — see
// CloseVictims) is sticky: events queued behind it are dropped,
// acknowledged events are unaffected, and later Ingest/Flush on that
// shard return the error.
//
// Acknowledgement. A shard acknowledges each batch when it commits, so
// Flush is a commit barrier (read-your-writes) and never waits for an
// fsync. Durability comes from each profile database's own
// group-commit window (db.db.wal_group_commit) and from the checkpoint
// its Close runs on eviction and at shutdown.
//
// Memory. Every profile database shares ONE BufferPool (one global
// byte budget) via DbOptions::buffer_pool injection; the service
// creates the pool when the caller did not supply one.
//
// Lock order: registry mu_ before a shard pipeline's lock, never the
// reverse. CloseVictims calls Shard::Fail under mu_; a pipeline never
// calls out while holding its own lock (its committer runs CommitBatch
// with it released), so the two layers cannot deadlock. The registry
// mu_ is also never held across ProvenanceDb::Open or Close — both
// take the metrics registry's collector lock (under which dumps call
// this service's collector, which takes mu_) and both do disk I/O. An
// entry whose database is mid-open or mid-close is marked busy and
// later acquirers wait on a CV instead; eviction picks its victims
// under mu_ but closes them unlocked.
//
//   service::ServiceOptions options;
//   options.workers = 4;
//   options.max_live_handles = 8;
//   auto svc = service::ProvenanceService::Create("/profiles", options);
//   (*svc)->Ingest("alice", event);
//   (*svc)->WithSnapshot("alice", [&](prov::ProvenanceDb::SnapshotView& v) {
//     auto hits = v.Search("rosebud");
//     ...
//     return util::Status::Ok();
//   });
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "capture/events.hpp"
#include "capture/pipeline.hpp"
#include "prov/provenance_db.hpp"
#include "storage/buffer_pool.hpp"
#include "util/mutex.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"

namespace bp::obs {
class Histogram;
}  // namespace bp::obs

namespace bp::service {

struct ServiceOptions {
  // Shards: each owns a committer thread for its shard's profiles.
  size_t workers = 2;
  // Live-handle cap for the LRU cache (soft while handles are pinned).
  size_t max_live_handles = 8;
  // Events each shard's queue buffers before backpressure applies; also
  // the most events a shard commits in one pass.
  size_t queue_capacity = 4096;
  // Full-queue policy: kBlock parks the capture thread (lossless);
  // kReject returns BudgetExhausted without blocking.
  capture::BackpressurePolicy backpressure =
      capture::BackpressurePolicy::kBlock;
  // Template for every profile database the service opens. The service
  // overrides async.enabled (always false — the shard is the
  // committer) and db.buffer_pool (shared across all profiles; created
  // from db.db.pool_bytes, which must then be > 0, when left null).
  // Everything else — env, group commit, ingest_batch — applies per
  // profile.
  prov::ProvenanceDb::Options db;
};

// Aggregate service counters (see Stats()).
struct ServiceStats {
  // Handle cache.
  uint64_t live_handles = 0;    // open right now
  uint64_t handle_hits = 0;     // acquisitions served by an open handle
  uint64_t handle_misses = 0;   // acquisitions that had to open
  uint64_t opens = 0;           // databases opened (first opens + reopens)
  uint64_t reopens = 0;         // opens of a previously evicted profile
  uint64_t evictions = 0;       // handles closed by LRU pressure
  // Ingest, summed over the shards' PipelineStats.
  uint64_t enqueued = 0;        // events accepted into shard queues
  uint64_t committed = 0;       // events in batches that committed
  uint64_t rejected = 0;        // kReject refusals (BudgetExhausted)
  uint64_t blocked_enqueues = 0;  // kBlock waits on a full queue
  // Per-shard queue depth right now, indexed by shard; and the deepest
  // any shard's queue has ever been.
  std::vector<uint64_t> queue_depths;
  uint64_t max_queue_depth = 0;
};

class ProvenanceService {
 public:
  // Stands the service up at `root`: profile `p` lives at
  // `<root>/p.db`. Rejects unusable options (InvalidArgument on empty
  // root, workers == 0, max_live_handles == 0, or queue_capacity == 0)
  // and anything ProvenanceDb::Open would reject in the per-profile
  // template. Shard committer threads start immediately.
  static util::Result<std::unique_ptr<ProvenanceService>> Create(
      const std::string& root, ServiceOptions options = {});

  // Drains every shard, closes every handle, unregisters metrics.
  // Like ProvenanceDb, destruction must not race other calls.
  ~ProvenanceService();
  ProvenanceService(const ProvenanceService&) = delete;
  ProvenanceService& operator=(const ProvenanceService&) = delete;

  // Routes `event` to `profile`'s shard and returns once it is queued
  // (not committed — Flush is the barrier). InvalidArgument on
  // an invalid profile id (see ValidProfileId); BudgetExhausted when
  // the shard's queue is full under kReject; the shard's sticky error
  // after a commit or open failure. Any thread may call this
  // concurrently.
  util::Status Ingest(const std::string& profile,
                      const capture::BrowserEvent& event);

  // Blocks until everything enqueued on `profile`'s SHARD before this
  // call has committed (the barrier is per shard, a superset of the
  // profile's own events, which is what makes it a read-your-writes
  // barrier for the profile). A commit barrier, not an fsync: see
  // "Acknowledgement" above. Returns the shard's sticky error, if any.
  util::Status Flush(const std::string& profile);
  // Flush over every shard.
  util::Status Drain();

  // Read-your-writes snapshot query: flushes `profile`'s shard, pins
  // the profile's handle (opening it on demand — a pinned handle
  // cannot be evicted, so the view's pages stay reachable), opens a
  // SnapshotView and runs `fn` against it. The view dies before the
  // pin is released; do not stash it. `fn` runs on the calling thread
  // with no service lock held, fully in parallel with ingestion.
  util::Status WithSnapshot(
      const std::string& profile,
      const std::function<util::Status(prov::ProvenanceDb::SnapshotView&)>&
          fn);

  // Aggregate counters; safe from any thread, takes each lock briefly.
  ServiceStats Stats();

  size_t workers() const { return shards_.size(); }
  // The shard `profile` routes to (stable across runs).
  size_t ShardOf(const std::string& profile) const;
  // The shared pool behind every profile database.
  const std::shared_ptr<storage::BufferPool>& buffer_pool() const {
    return pool_;
  }

 private:
  // One cached profile database. Entries are map-owned (stable
  // addresses); the intrusive LRU links thread through OPEN entries
  // only. All fields are guarded by the registry mu_ — not spelled
  // BP_GUARDED_BY because the guarding mutex lives in the enclosing
  // service, not the entry.
  struct Entry {
    std::string profile;
    std::unique_ptr<prov::ProvenanceDb> db;  // null = not open
    size_t pins = 0;
    // An Open or Close for this entry is in flight on some thread with
    // mu_ RELEASED (both calls take the metrics registry's collector
    // lock and do disk I/O, so they must not run under mu_). While set,
    // only that thread may touch `db`; acquirers wait on handle_cv_.
    bool busy = false;
    bool ever_opened = false;  // distinguishes opens from reopens
    Entry* prev = nullptr;     // intrusive LRU; head = MRU
    Entry* next = nullptr;
  };

  // One shard: a pipeline whose committer runs CommitBatch.
  using Shard = capture::IngestPipeline<capture::ProfileEvent>;

  ProvenanceService() = default;

  // A shard's commit callback: groups the batch by profile in
  // FIRST-APPEARANCE order (so commit order follows enqueue order) and
  // commits group by group through pinned handles. Returns the first
  // failure (handle open or IngestAll).
  util::Status CommitBatch(std::vector<capture::ProfileEvent>&& batch);

  // Intrusive LRU surgery over registry entries; mirrors the buffer
  // pool's list. Callers hold mu_ (which guards the sentinel and every
  // link these touch).
  static void Unlink(Entry* entry);
  static void LinkFront(Entry& sentinel, Entry* entry);

  // Pins (opening on demand) `profile`'s handle. The returned entry
  // stays valid until ReleaseHandle; its db is non-null. May evict the
  // coldest unpinned handle(s) to respect max_live_handles; eviction
  // failures are the VICTIM's, never the acquirer's — they go to the
  // victim's shard as its sticky status, and the acquisition succeeds.
  util::Result<Entry*> AcquireHandle(const std::string& profile)
      BP_EXCLUDES(mu_);
  void ReleaseHandle(Entry* entry) BP_EXCLUDES(mu_);
  // Unlinks coldest unpinned handles until live_handles_ is within the
  // cap (or only pinned/busy handles remain — the cap is soft), marks
  // them busy, and returns them for CloseVictims. Selection counts
  // against live_handles_ immediately so concurrent acquirers see the
  // cache as already shrunk.
  std::vector<Entry*> PickVictimsLocked() BP_REQUIRES(mu_);
  // Closes picked victims with NO service lock held (Close removes
  // metrics collectors — see the lock-order note above). A Close
  // error then goes, under mu_, to the victim profile's shard
  // (Shard::Fail) as its sticky status; the victim's data is committed
  // up to the failure and the next reopen re-arms the checkpoint.
  void CloseVictims(const std::vector<Entry*>& victims) BP_EXCLUDES(mu_);

  // Profile ids become filenames (<root>/<id>.db) and metric label
  // values: reject empty ids, path separators, '..', double quotes,
  // and control characters so an id can neither escape the service
  // root nor corrupt a label string.
  static bool ValidProfileId(const std::string& profile);

  std::string PathFor(const std::string& profile) const {
    return root_ + "/" + profile + ".db";
  }

  std::string root_;
  ServiceOptions options_;
  std::shared_ptr<storage::BufferPool> pool_;

  // ---- handle registry -----------------------------------------------
  util::Mutex mu_;
  std::condition_variable handle_cv_;  // an entry's busy flag cleared
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_
      BP_GUARDED_BY(mu_);
  Entry lru_ BP_GUARDED_BY(mu_);  // sentinel: next = MRU, prev = coldest
  uint64_t live_handles_ BP_GUARDED_BY(mu_) = 0;
  uint64_t handle_hits_ BP_GUARDED_BY(mu_) = 0;
  uint64_t handle_misses_ BP_GUARDED_BY(mu_) = 0;
  uint64_t opens_ BP_GUARDED_BY(mu_) = 0;
  uint64_t reopens_ BP_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ BP_GUARDED_BY(mu_) = 0;
  // Set by the destructor before it stops any shard: from then on a
  // victim's close failure is not routed to its shard, which may
  // already be gone (teardown swallows close errors anyway).
  bool stopping_ BP_GUARDED_BY(mu_) = false;

  // ---- shards --------------------------------------------------------
  std::vector<std::unique_ptr<Shard>> shards_;

  // ---- observability -------------------------------------------------
  // Enqueue latency (includes kBlock waits), recorded by Ingest.
  obs::Histogram* ingest_us_ = nullptr;
  uint64_t metrics_token_ = 0;  // pull collector; removed in dtor
};

}  // namespace bp::service
