#include "service/provenance_service.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"

namespace bp::service {

using util::Result;
using util::Status;

void ProvenanceService::Unlink(Entry* entry) {
  entry->prev->next = entry->next;
  entry->next->prev = entry->prev;
  entry->prev = nullptr;
  entry->next = nullptr;
}

void ProvenanceService::LinkFront(Entry& sentinel, Entry* entry) {
  entry->next = sentinel.next;
  entry->prev = &sentinel;
  sentinel.next->prev = entry;
  sentinel.next = entry;
}

Result<std::unique_ptr<ProvenanceService>> ProvenanceService::Create(
    const std::string& root, ServiceOptions options) {
  if (root.empty()) {
    return Status::InvalidArgument("service root path must be non-empty");
  }
  if (options.workers == 0) {
    return Status::InvalidArgument("ServiceOptions::workers must be >= 1");
  }
  if (options.max_live_handles == 0) {
    return Status::InvalidArgument(
        "ServiceOptions::max_live_handles must be >= 1");
  }
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument(
        "ServiceOptions::queue_capacity must be >= 1");
  }
  // Mirror ProvenanceDb::Open's template validation here, so a bad
  // per-profile template fails at Create instead of at the first
  // (possibly much later) handle open on a shard thread.
  if (options.db.ingest_batch == 0) {
    return Status::InvalidArgument(
        "ServiceOptions::db.ingest_batch must be >= 1");
  }
  if (options.db.db.buffer_pool == nullptr && options.db.db.pool_bytes == 0) {
    return Status::InvalidArgument(
        "ServiceOptions::db.db.pool_bytes must be > 0 unless a buffer "
        "pool is injected");
  }
  if (options.db.db.buffer_pool != nullptr &&
      options.db.db.pool_bytes != 0 &&
      options.db.db.pool_bytes !=
          options.db.db.buffer_pool->byte_budget()) {
    return Status::InvalidArgument(util::StrFormat(
        "ServiceOptions::db.db.pool_bytes (%zu) disagrees with the "
        "injected buffer pool's byte budget (%zu); set pool_bytes to 0 "
        "(or to the pool's budget) when sharing a pool",
        options.db.db.pool_bytes,
        options.db.db.buffer_pool->byte_budget()));
  }

  auto svc = std::unique_ptr<ProvenanceService>(new ProvenanceService());
  svc->root_ = root;
  svc->options_ = std::move(options);
  // The shard is the committer: a per-profile pipeline thread would
  // multiply committers by open handles for no added overlap.
  svc->options_.db.async.enabled = false;
  // One byte budget across every profile: adopt the caller's shared
  // pool or create one from the template's pool_bytes.
  storage::DbOptions& db_template = svc->options_.db.db;
  if (db_template.buffer_pool == nullptr) {
    db_template.buffer_pool =
        std::make_shared<storage::BufferPool>(db_template.pool_bytes);
  }
  svc->pool_ = db_template.buffer_pool;
  // Normalize so the per-profile opens on shard threads see an
  // agreeing (pool, pool_bytes) pair whatever the template said.
  db_template.pool_bytes = svc->pool_->byte_budget();

  {
    util::MutexLock lock(svc->mu_);
    svc->lru_.prev = &svc->lru_;
    svc->lru_.next = &svc->lru_;
  }

  auto& reg = obs::MetricsRegistry::Global();
  svc->ingest_us_ = reg.GetHistogram(
      "bp_service_ingest_us", "service=\"" + root + "\"",
      "Service enqueue latency, including blocking backpressure (us)");

  ProvenanceService* raw = svc.get();
  capture::PipelineOptions shard_options;
  shard_options.queue_capacity = svc->options_.queue_capacity;
  shard_options.max_batch = svc->options_.queue_capacity;
  shard_options.backpressure = svc->options_.backpressure;
  for (size_t i = 0; i < svc->options_.workers; ++i) {
    svc->shards_.push_back(std::make_unique<Shard>(
        shard_options,
        [raw](std::vector<capture::ProfileEvent>&& batch,
              size_t) -> Result<bool> {
          BP_RETURN_IF_ERROR(raw->CommitBatch(std::move(batch)));
          return true;  // acknowledged at commit: Flush is no fsync
        },
        // Never called: every committed batch is already acknowledged.
        [] { return Status::Ok(); }));
  }
  svc->metrics_token_ = reg.AddCollector([raw](obs::CollectionSink& sink) {
    // Runs at dump time under the registry's collector lock. Stats()
    // takes mu_ and each shard's lock briefly — safe only because the
    // service never acquires the collector lock (via ProvenanceDb
    // Open/Close) while holding either; see the lock-order note in
    // the header.
    ServiceStats stats = raw->Stats();
    const std::string labels = "service=\"" + raw->root_ + "\"";
    sink.Gauge("bp_service_live_handles", labels,
               "Profile databases open right now",
               static_cast<double>(stats.live_handles));
    sink.Counter("bp_service_handle_hits", labels,
                 "Handle acquisitions served by an open handle",
                 static_cast<double>(stats.handle_hits));
    sink.Counter("bp_service_handle_misses", labels,
                 "Handle acquisitions that had to open",
                 static_cast<double>(stats.handle_misses));
    sink.Counter("bp_service_handle_opens", labels,
                 "Profile databases opened (first opens + reopens)",
                 static_cast<double>(stats.opens));
    sink.Counter("bp_service_handle_reopens", labels,
                 "Opens of a previously evicted profile",
                 static_cast<double>(stats.reopens));
    sink.Counter("bp_service_handle_evictions", labels,
                 "Handles closed by LRU pressure",
                 static_cast<double>(stats.evictions));
    sink.Counter("bp_service_enqueued", labels,
                 "Events accepted into shard queues",
                 static_cast<double>(stats.enqueued));
    sink.Counter("bp_service_committed", labels,
                 "Events in shard batches that committed",
                 static_cast<double>(stats.committed));
    sink.Counter("bp_service_rejected", labels,
                 "Full-queue rejections (BudgetExhausted)",
                 static_cast<double>(stats.rejected));
    sink.Counter("bp_service_blocked_enqueues", labels,
                 "Enqueues that blocked on a full queue",
                 static_cast<double>(stats.blocked_enqueues));
    sink.Gauge("bp_service_max_queue_depth", labels,
               "Deepest any shard queue has been",
               static_cast<double>(stats.max_queue_depth));
    for (size_t shard = 0; shard < stats.queue_depths.size(); ++shard) {
      sink.Gauge("bp_service_queue_depth",
                 labels + ",shard=\"" + std::to_string(shard) + "\"",
                 "Shard queue depth right now",
                 static_cast<double>(stats.queue_depths[shard]));
    }
  });
  return svc;
}

ProvenanceService::~ProvenanceService() {
  // Stop accepting dump callbacks into a dying instance first;
  // RemoveCollector blocks until any in-flight dump has finished.
  if (metrics_token_ != 0) {
    obs::MetricsRegistry::Global().RemoveCollector(metrics_token_);
  }
  // Stop the shards. Each drains its queue before its committer
  // exits, so everything accepted by Ingest reaches storage (lossless).
  {
    util::MutexLock lock(mu_);
    stopping_ = true;
  }
  shards_.clear();
  // Close every live handle cleanly (checkpoint + shared-pool frame
  // release). Close errors are swallowed here exactly as a destructor
  // chain would swallow them; call Drain() first to observe failures.
  // Handles are moved out under mu_ and closed unlocked, keeping the
  // never-hold-mu_-across-Close discipline even in teardown.
  std::vector<std::unique_ptr<prov::ProvenanceDb>> open;
  {
    util::MutexLock lock(mu_);
    for (auto& [profile, entry] : entries_) {
      if (entry->db != nullptr) open.push_back(std::move(entry->db));
    }
  }
  for (auto& db : open) (void)db->Close();
}

size_t ProvenanceService::ShardOf(const std::string& profile) const {
  // FNV-1a is stable across runs, platforms, and library versions —
  // a profile's shard (and therefore its event order) never migrates.
  return util::Fnv1a64(profile) % shards_.size();
}

bool ProvenanceService::ValidProfileId(const std::string& profile) {
  if (profile.empty()) return false;
  if (profile.find("..") != std::string::npos) return false;
  for (char c : profile) {
    if (c == '/' || c == '\\' || c == '"' ||
        static_cast<unsigned char>(c) < 0x20) {
      return false;
    }
  }
  return true;
}

namespace {
Status InvalidProfileId() {
  return Status::InvalidArgument(
      "profile id must be non-empty and free of path separators, '..', "
      "quotes, and control characters");
}
}  // namespace

Status ProvenanceService::Ingest(const std::string& profile,
                                 const capture::BrowserEvent& event) {
  if (!ValidProfileId(profile)) return InvalidProfileId();
  obs::ScopedTimerUs timer(ingest_us_);
  return shards_[ShardOf(profile)]->Enqueue({profile, event}).status();
}

Status ProvenanceService::Flush(const std::string& profile) {
  if (!ValidProfileId(profile)) return InvalidProfileId();
  // Shard-level barrier: everything enqueued on this shard before the
  // call — a superset of the profile's own events, which is what makes
  // it a read-your-writes barrier for the profile. A failure latched
  // after the last acknowledgement (a victim's close) still reports.
  Shard& shard = *shards_[ShardOf(profile)];
  BP_RETURN_IF_ERROR(shard.Drain());
  return shard.status();
}

Status ProvenanceService::Drain() {
  Status first;
  for (auto& shard : shards_) {
    Status result = shard->Drain();
    if (result.ok()) result = shard->status();
    if (!result.ok() && first.ok()) first = result;
  }
  return first;
}

Status ProvenanceService::WithSnapshot(
    const std::string& profile,
    const std::function<Status(prov::ProvenanceDb::SnapshotView&)>& fn) {
  // Read-your-writes: the profile's shard commits everything enqueued
  // before this call, then the snapshot freezes it.
  BP_RETURN_IF_ERROR(Flush(profile));
  Result<Entry*> entry = AcquireHandle(profile);
  if (!entry.ok()) return entry.status();
  Entry* e = *entry;
  Status out;
  {
    // The pin taken above is what keeps `e->db` alive and un-evicted
    // for the view's whole lifetime; the view must die before it.
    Result<prov::ProvenanceDb::SnapshotView> view = e->db->BeginSnapshot();
    if (!view.ok()) {
      out = view.status();
    } else {
      out = fn(*view);
    }
  }
  ReleaseHandle(e);
  return out;
}

ServiceStats ProvenanceService::Stats() {
  ServiceStats out;
  {
    util::MutexLock lock(mu_);
    out.live_handles = live_handles_;
    out.handle_hits = handle_hits_;
    out.handle_misses = handle_misses_;
    out.opens = opens_;
    out.reopens = reopens_;
    out.evictions = evictions_;
  }
  for (auto& shard : shards_) {
    const capture::PipelineStats p = shard->stats();
    out.queue_depths.push_back(p.queue_depth);
    out.enqueued += p.enqueued;
    out.committed += p.committed;
    out.rejected += p.rejected;
    out.blocked_enqueues += p.blocked_enqueues;
    out.max_queue_depth = std::max(out.max_queue_depth, p.max_queue_depth);
  }
  return out;
}

Status ProvenanceService::CommitBatch(
    std::vector<capture::ProfileEvent>&& batch) {
  // Group by profile in FIRST-APPEARANCE order — not map order — so
  // commit order follows enqueue order and a run's handle-cache churn
  // is deterministic for a deterministic enqueue sequence.
  std::vector<std::pair<std::string, std::vector<capture::BrowserEvent>>>
      groups;
  std::unordered_map<std::string, size_t> index;
  for (auto& [profile, event] : batch) {
    auto [it, inserted] = index.emplace(profile, groups.size());
    if (inserted) groups.emplace_back(profile, std::vector<capture::BrowserEvent>());
    groups[it->second].second.push_back(std::move(event));
  }
  // One profile's failure (open or commit) must not strand the other
  // profiles' already-accepted events: keep committing, report the
  // first error as the shard's sticky status.
  Status first;
  for (auto& [profile, events] : groups) {
    Result<Entry*> entry = AcquireHandle(profile);
    if (!entry.ok()) {
      if (first.ok()) first = entry.status();
      continue;
    }
    Status status = (*entry)->db->IngestAll(events);
    ReleaseHandle(*entry);
    if (!status.ok() && first.ok()) first = status;
  }
  return first;
}

Result<ProvenanceService::Entry*> ProvenanceService::AcquireHandle(
    const std::string& profile) {
  util::MutexLock lock(mu_);
  auto it = entries_.find(profile);
  Entry* entry;
  if (it == entries_.end()) {
    auto owned = std::make_unique<Entry>();
    owned->profile = profile;
    entry = owned.get();
    entries_.emplace(profile, std::move(owned));
  } else {
    entry = it->second.get();
  }
  for (;;) {
    // Busy is checked BEFORE db: a mid-close victim still has a
    // non-null db but is already off the LRU list — pinning it would
    // resurrect a dying handle (and Unlink would walk null links).
    // Wait out the open (we'll hit when it lands) or close (we'll
    // reopen once it is done) in flight on another thread.
    if (entry->busy) {
      handle_cv_.wait(lock.native());
      continue;
    }
    if (entry->db != nullptr) {
      ++handle_hits_;
      ++entry->pins;
      Unlink(entry);
      LinkFront(lru_, entry);
      return entry;
    }
    break;
  }
  ++handle_misses_;
  entry->busy = true;
  // Open with mu_ RELEASED: Open registers metrics collectors (the
  // registry's collector lock, under which dumps call back into
  // Stats() → mu_) and replays the profile's WAL from disk — holding
  // mu_ here would both deadlock against a concurrent dump and
  // serialize every other profile's handle traffic behind the I/O.
  // The busy flag keeps this entry ours while the lock is down; the
  // map never erases entries, so the pointer stays valid.
  lock.Unlock();
  Result<std::unique_ptr<prov::ProvenanceDb>> db =
      prov::ProvenanceDb::Open(PathFor(profile), options_.db);
  lock.Lock();
  entry->busy = false;
  handle_cv_.notify_all();
  if (!db.ok()) return db.status();
  entry->db = std::move(*db);
  ++opens_;
  if (entry->ever_opened) ++reopens_;
  entry->ever_opened = true;
  ++entry->pins;
  ++live_handles_;
  LinkFront(lru_, entry);
  // Our pin spares the new handle; victims' close failures go to their
  // own shards (CloseVictims), never to this acquisition — an
  // unrelated profile's trouble must not fail this profile's commit.
  std::vector<Entry*> victims = PickVictimsLocked();
  lock.Unlock();
  CloseVictims(victims);
  return entry;
}

void ProvenanceService::ReleaseHandle(Entry* entry) {
  std::vector<Entry*> victims;
  {
    util::MutexLock lock(mu_);
    --entry->pins;
    // The cache may be over its (soft) cap because everything was
    // pinned; shrink back as pins drop.
    victims = PickVictimsLocked();
  }
  CloseVictims(victims);
}

std::vector<ProvenanceService::Entry*> ProvenanceService::PickVictimsLocked() {
  std::vector<Entry*> victims;
  while (live_handles_ > options_.max_live_handles) {
    Entry* victim = lru_.prev;
    while (victim != &lru_ && victim->pins > 0) victim = victim->prev;
    if (victim == &lru_) break;  // only pinned handles left: cap is soft
    Unlink(victim);
    --live_handles_;
    ++evictions_;
    // Claim the entry for the unlocked Close; acquirers of this profile
    // now wait on handle_cv_ until CloseVictims clears the flag.
    victim->busy = true;
    victims.push_back(victim);
  }
  return victims;
}

void ProvenanceService::CloseVictims(const std::vector<Entry*>& victims) {
  for (Entry* victim : victims) {
    // Clean close: drain (trivial — async is off), checkpoint, release
    // shared-pool frames, remove the db's metrics collectors. Run with
    // no service lock held — RemoveCollector blocks on in-flight dumps,
    // and dumps call this service's collector. The entry stays in the
    // map so a later acquisition reopens (and is counted as a reopen).
    Status status = victim->db->Close();
    util::MutexLock lock(mu_);
    // The victim's shard, not the acquirer's, owns this failure (Fail
    // also wakes its blocked producers). Under mu_, so the destructor
    // cannot free that shard in between.
    if (!status.ok() && !stopping_) {
      shards_[ShardOf(victim->profile)]->Fail(status);
    }
    victim->db.reset();
    victim->busy = false;
    handle_cv_.notify_all();
  }
}

}  // namespace bp::service
