// Pager: page cache + transactions + crash recovery.
//
// The database file is an array of kPageSize pages. Page 0 holds the
// header (magic, page count, freelist, catalog root). All reads and
// writes go through pinned page references; mutations are transactional.
//
// Two durability modes (PagerOptions::durability):
//
// kRollbackJournal (SQLite journal mode; 2 fsyncs per commit):
//   1. During a transaction, dirty pages live only in the cache; the
//      first mutation of each pre-existing page captures its before-image.
//   2. Commit: write all before-images to <path>.journal, fsync it, then
//      write the dirty pages to the database file, fsync it, then remove
//      the journal. A crash before the journal fsync leaves the database
//      untouched; a crash after it is rolled back on the next Open by
//      replaying before-images and truncating to the journaled page count.
//   3. Rollback: restore before-images in cache; nothing reached the file.
//
// kWal (write-ahead log; 1 fsync per commit, or per GROUP of commits):
//   1. Commit appends the dirty pages plus a commit record to the one
//      log stream, <path>.wal, in one sequential write (see
//      wal/wal_format.hpp); the database file is not touched at all.
//      With wal_group_commit = N, the fsync is deferred until N
//      transactions have committed, so N commits share one fsync; a
//      crash may lose the tail of not-yet-synced transactions but
//      always recovers a consistent committed prefix (each transaction
//      stays atomic). A commit is acknowledged durable only once an
//      fsync of <path>.wal covering it succeeded (SyncWal,
//      FlushPending); the first failed log fsync is sticky, so nothing
//      is acknowledged after it until the database is reopened.
//   2. Reads hit the page cache; on a miss the latest committed version
//      is fetched from the log (wal_index_) or, failing that, the
//      database file.
//   3. A checkpoint — when the log crosses wal_checkpoint_bytes, and at
//      clean close — syncs the log, folds its latest committed pages
//      back into the database file, fsyncs it, and truncates the log.
//      Pager::Open folds whatever committed prefix of the log survives
//      a crash (see wal/checkpointer.hpp).
//
// Pick kRollbackJournal for read-mostly workloads with rare, large
// transactions; pick kWal for sustained bursty ingest (the browser
// provenance capture path), where commit latency is dominated by fsync
// count and group commit amortizes it. Either mode recovers a database
// left behind by the other (Open runs both recoveries), so the mode is
// a per-open choice, not a file-format commitment.
//
// Concurrency model: single writer, snapshot readers. Every mutating
// entry point (Begin/Commit/Rollback, GetMutable, Allocate, Free,
// Checkpoint) and the live read path (Get) belong to ONE writer thread
// at a time (serialized one layer up). The sync-only entry points
// (SyncWal, FlushPending) may additionally be called from a non-writer
// thread — the log's fsync state is serialized by wal_mu_, and the
// WalWriter publishes committed bytes atomically (see
// wal/wal_writer.hpp). Concurrent reads go through BeginRead() (kWal
// only), which returns a Snapshot — an immutable view of the committed
// state at a commit sequence number (see storage/snapshot.hpp).
// Snapshots are safe against a concurrently committing writer: commits
// only append to the log, and checkpointing (the one operation that
// rewrites bytes a snapshot may still need) is DEFERRED while any
// snapshot is live. All snapshots must be released before the pager
// closes.
//
// LOCK ORDER: commit_mu_ -> wal_mu_ (enforced by BP_ACQUIRED_BEFORE on
// commit_mu_). Never acquire commit_mu_ while holding wal_mu_.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/buffer_pool.hpp"
#include "storage/compress.hpp"
#include "storage/env.hpp"
#include "storage/page.hpp"
#include "util/mutex.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"

namespace bp::obs {
class CollectionSink;
class Histogram;
}  // namespace bp::obs

namespace bp::wal {
class WalWriter;
}  // namespace bp::wal

namespace bp::storage {

enum class DurabilityMode {
  kRollbackJournal,  // before-images to <path>.journal; 2 fsyncs/commit
  kWal,              // redo log to <path>.wal; <= 1 fsync/commit
};

struct PagerOptions {
  Env* env = Env::Posix();
  // Soft cap on cached pages; clean unpinned pages are evicted LRU beyond
  // it. Dirty pages are never evicted (they spill at commit).
  size_t cache_pages = 4096;
  // When false, skips fsync (faster tests/benches; crash safety off).
  bool sync = true;
  DurabilityMode durability = DurabilityMode::kRollbackJournal;
  // kWal only: CEILING on the number of committed transactions that
  // share one log fsync. 1 = every commit is durable on return; N > 1
  // trades a bounded durability lag (never consistency) for up to N×
  // fewer fsyncs. Commit fsyncs when the window fills; a caller that
  // knows the write stream went idle closes a partial window early with
  // FlushPending() (the async ingest committer's adaptive group commit).
  uint32_t wal_group_commit = 1;
  // kWal only: checkpoint (fold the log into the database file) once
  // the log exceeds this size.
  uint64_t wal_checkpoint_bytes = 4 << 20;
  // Byte budget of the versioned buffer pool the read path shares (all
  // snapshots + the live pager; see storage/buffer_pool.hpp). Replaces
  // the per-snapshot soft caps. 0 disables the pool: snapshots fall
  // back to a private copy-on-read cache capped at cache_pages, and
  // live misses always hit the log/database file. In WAL mode every
  // commit publishes its page images into the pool as they are logged,
  // so reader misses on hot, freshly written pages (tree roots, the
  // catalog) disappear.
  size_t pool_bytes = 32 << 20;
  // When set, this pager joins an existing pool (several databases
  // sharing one global byte budget) instead of creating its own from
  // pool_bytes. Keys carry a per-pager owner id, so pagers never alias.
  std::shared_ptr<BufferPool> buffer_pool;
  // Page compression (see storage/compress.hpp). With mode=kFast,
  // checkpoints fold eligible pages into compressed frames (the WAL hot
  // path stays raw); reads decode them before they enter the pool, so
  // pool images are always raw pages. Default mode comes from the
  // BP_COMPRESSION environment variable; unset means off.
  compress::CompressionOptions compression;
};

// Read-path counters of one Snapshot (storage/snapshot.hpp): where its
// page reads were served from. Folded into PagerStats when the
// snapshot is released.
struct SnapshotStats {
  uint64_t pages_read = 0;  // log/database file reads (missed everywhere)
  uint64_t cache_hits = 0;  // L1: the snapshot's own memo
  uint64_t pool_hits = 0;   // L2: the shared versioned buffer pool
  // Main-file reads that decoded a compressed checkpoint frame.
  uint64_t decompress_reads = 0;
};

struct PagerStats {
  uint64_t commits = 0;
  uint64_t rollbacks = 0;
  uint64_t pages_written = 0;
  uint64_t pages_read = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t evictions = 0;
  // Durability cost, counted in BOTH durability modes: fsync calls
  // issued, and the bytes each fsync made durable (0 when sync=false —
  // nothing is made durable).
  uint64_t fsyncs = 0;
  uint64_t bytes_synced = 0;
  // kWal only.
  uint64_t wal_frames = 0;   // page images appended to the logs
  uint64_t checkpoints = 0;  // threshold + close-time folds
  // Group-commit windows closed (each retired >= 1 committed txn): by
  // filling the wal_group_commit ceiling, by FlushPending/SyncWal, or
  // at checkpoint/close. fsyncs / group_commits is the amortization the
  // window actually achieved.
  uint64_t group_commits = 0;
  // Shared buffer pool, aggregated over every consumer of the pool this
  // pager belongs to (snapshots, the live read path, and — when
  // PagerOptions::buffer_pool is shared — other pagers). All zero when
  // the pool is disabled (pool_bytes = 0).
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t pool_bytes = 0;   // resident image bytes right now
  uint64_t pool_frames = 0;  // resident frames right now
  // Pool bytes currently pinned by live readers (see BufferPoolStats).
  uint64_t pool_pinned_bytes = 0;
  // Checkpoint compression (compression=fast): pages folded as
  // compressed frames, the physical frame bytes written for them, the
  // raw bytes those frames replace, and reads (live + snapshot) that
  // decoded a compressed main-file page.
  uint64_t compressed_pages = 0;
  uint64_t compressed_bytes = 0;
  uint64_t compressible_raw_bytes = 0;
  uint64_t decompress_reads = 0;
  // Snapshot read-path totals, folded in as each snapshot is released
  // (live snapshots report through their own SnapshotStats until then):
  // log/database reads, L1 memo hits, and shared-pool hits issued by
  // snapshot readers.
  uint64_t snapshot_pages_read = 0;
  uint64_t snapshot_cache_hits = 0;
  uint64_t snapshot_pool_hits = 0;
  // Always 0: compatibility stub for perfbench (see below).
  uint64_t fsync_overlaps = 0;
  uint64_t pool_cold_demotions = 0;
  uint64_t pool_cold_hits = 0;
};

// Compatibility stub for perfbench/src/{harness,profiles}.cpp, which
// were written against a two-stream WAL and a buffer pool with a
// compressed cold tier, both since deleted. Nothing in src/, tests/ or
// bench/ uses these names; remove all of them with the next benchmark
// change:
//   - WriteDomain, kGraphDomain, kTextDomain, DomainStats and
//     Pager::domain_stats(d): the WAL has one stream; domain 0 reports
//     it and domain 1 reads 0;
//   - PagerStats::fsync_overlaps, pool_cold_demotions and
//     pool_cold_hits, and BufferPoolStats::cold_demotions and
//     cold_hits: always 0;
//   - BufferPool(size_t, compress::CompressionOptions): the options are
//     ignored.
using WriteDomain = uint32_t;
inline constexpr WriteDomain kGraphDomain = 0;
inline constexpr WriteDomain kTextDomain = 1;
struct DomainStats {
  uint64_t commits = 0;       // transactions committed
  uint64_t bytes_synced = 0;  // log bytes made durable by fsync
};

class Pager;
class Snapshot;

namespace internal {
struct Frame {
  PageId id = kNoPage;
  std::string data;  // exactly kPageSize bytes
  int pins = 0;
  bool dirty = false;
  // Intrusive LRU list links (head = MRU); see Pager::lru_. Eviction
  // pops from the cold end instead of scanning and sorting every frame.
  Frame* lru_prev = nullptr;
  Frame* lru_next = nullptr;
};
}  // namespace internal

// RAII pinned view of one page. Obtained from Pager::Get (read-only) or
// Pager::GetMutable (writable, dirties the page). Movable, not copyable.
class PageRef {
 public:
  PageRef() = default;
  PageRef(Pager* pager, internal::Frame* frame, bool writable);
  ~PageRef();

  PageRef(PageRef&& other) noexcept { *this = std::move(other); }
  PageRef& operator=(PageRef&& other) noexcept;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;

  bool valid() const { return frame_ != nullptr; }
  PageId id() const;
  const char* data() const;
  // Precondition: acquired via GetMutable.
  char* mutable_data();

 private:
  Pager* pager_ = nullptr;
  internal::Frame* frame_ = nullptr;
  bool writable_ = false;
};

class Pager {
 public:
  // Opens (creating or recovering as needed) the database at `path`.
  static util::Result<std::unique_ptr<Pager>> Open(std::string path,
                                                   PagerOptions options);
  ~Pager();

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  // --- transactions -------------------------------------------------
  util::Status Begin();
  util::Status Commit();
  util::Status Rollback();
  bool InTransaction() const { return in_txn_; }

  // --- page access ---------------------------------------------------
  util::Result<PageRef> Get(PageId id);
  // Requires an open transaction.
  util::Result<PageRef> GetMutable(PageId id);

  // Allocates a zeroed page (freelist first, else grows the file).
  // Requires an open transaction.
  util::Result<PageId> Allocate();
  // Returns a page to the freelist. Requires an open transaction.
  util::Status Free(PageId id);

  // --- header fields -------------------------------------------------
  uint32_t page_count() const { return page_count_; }
  uint32_t freelist_length() const { return freelist_count_; }
  PageId catalog_root() const { return catalog_root_; }
  util::Status SetCatalogRoot(PageId root);

  // Point-in-time statistics: the pager's own counters plus (when a
  // pool is attached) the shared buffer pool's, folded into the pool_*
  // fields — one coherent set for benches and facade reporting.
  PagerStats stats() const BP_EXCLUDES(commit_mu_);

  // Compatibility stub for perfbench (see DomainStats). Thread-safe.
  DomainStats domain_stats(WriteDomain domain) const;

  // The shared versioned buffer pool (null when pool_bytes was 0 and no
  // pool was injected). Snapshots resolve through it; several pagers
  // may share one instance via PagerOptions::buffer_pool.
  const std::shared_ptr<BufferPool>& buffer_pool() const { return pool_; }

  // Monotone counter bumped by every page mutation (GetMutable) and by
  // Rollback. Open cursors snapshot it to detect interleaved writes: an
  // unchanged counter guarantees their (page, slot) position is still
  // exact; a changed one makes them re-seek by key.
  uint64_t change_count() const { return change_count_; }

  // Total bytes the database file occupies (page_count * kPageSize).
  uint64_t FileBytes() const {
    return static_cast<uint64_t>(page_count_) * kPageSize;
  }

  // Physical bytes page `id` occupies on disk: the compressed frame's
  // header+payload when its checkpoint slot holds one (the slot is
  // still padded to kPageSize, but only the frame bytes are live — the
  // hole-punch model), kPageSize otherwise (raw slot, WAL-resident, or
  // not yet folded). Writer thread only (peeks the main file).
  uint64_t OnDiskPageBytes(PageId id) const;

  // Test hook: when set, Commit() stops right after the journal fsync and
  // returns Aborted — simulating a crash between journal and database
  // writes. The next Open() must recover.
  void set_crash_after_journal_for_testing(bool v) {
    crash_after_journal_ = v;
  }

  // kWal only: makes every commit so far durable (fsyncs <path>.wal,
  // closing a partially filled group-commit window). This is the
  // acknowledgment barrier. No-op in journal mode or when nothing is
  // pending. Once a log fsync has failed, this and every later window
  // sync, FlushPending and Checkpoint return that first error: the
  // kernel may have dropped the pages the failed fsync was writing, so
  // a later successful fsync proves nothing about them. Only a reopen
  // (recovering from what the log really holds) clears it. Safe from a
  // non-writer thread.
  util::Status SyncWal() BP_EXCLUDES(wal_mu_);

  // Adaptive group-commit hook: closes a partially filled window ONLY
  // when committed transactions are actually awaiting fsync, and says
  // so. The async ingest committer calls this whenever its queue runs
  // dry, which collapses tail latency at low event rates while the
  // wal_group_commit ceiling still amortizes fsyncs under load. Returns
  // whether a flush ran (false: journal mode or nothing pending), or
  // the sticky sync error (see SyncWal).
  util::Result<bool> FlushPending() BP_EXCLUDES(wal_mu_);

  // Committed transactions whose log records await the next fsync
  // (always 0 in journal mode, where every commit is durable on
  // return). Thread-safe.
  uint32_t unsynced_commits() const {
    return unsynced_commits_.load(std::memory_order_relaxed);
  }

  // kWal only: forces a checkpoint now (normally driven by
  // wal_checkpoint_bytes and clean close). FailedPrecondition when a
  // transaction is open or live snapshots still pin WAL frames; the
  // sticky sync error after a failed log fsync (see SyncWal).
  util::Status Checkpoint() BP_EXCLUDES(commit_mu_, wal_mu_);

  DurabilityMode durability() const { return options_.durability; }

  // --- snapshots (read transactions) ---------------------------------
  //
  // Freezes the committed state as of now — the commit sequence
  // number, page count, catalog root, and the log offsets of every
  // committed page still living in the write-ahead log — into an
  // immutable view that any number of reader threads can read while
  // this (single-writer) pager keeps committing. kWal only: the log is
  // the device that makes committed history immutable; journal mode
  // rewrites the database file in place at every commit and returns
  // FailedPrecondition. Thread-safe (may be called off the writer
  // thread). While snapshots are live, checkpoints are deferred and the
  // log grows; release snapshots promptly under sustained ingest.
  util::Result<std::unique_ptr<Snapshot>> BeginRead() BP_EXCLUDES(commit_mu_);

  // Snapshots currently alive (they pin WAL frames and defer
  // checkpoints). Thread-safe.
  uint32_t live_snapshots() const BP_EXCLUDES(commit_mu_);

 private:
  friend class PageRef;
  friend class Snapshot;

  // Out of line: members include unique_ptr<wal::WalWriter>, which is an
  // incomplete type here.
  Pager(std::string path, PagerOptions options);

  // True when the pager runs in WAL mode.
  bool wal_mode() const { return wal_ != nullptr; }

  // Publish the current committed state into published_ under
  // commit_mu_ so BeginRead (any thread) sees either the pre- or
  // post-commit state, never a torn mix. Writer thread only.
  // PublishCommittedState rebuilds the published WAL index from
  // scratch (Open, checkpoint); PublishCommitDelta applies just one
  // commit's page offsets, copying the map only when a live snapshot
  // still shares it — so commits without snapshot pressure publish in
  // O(dirty pages), not O(index).
  void PublishCommittedState() BP_EXCLUDES(commit_mu_);
  void PublishCommitDelta(
      const std::vector<std::pair<PageId, uint64_t>>& offsets)
      BP_EXCLUDES(commit_mu_);
  // Copies the committed header fields (and, when non-null, the given
  // index) into published_ — commit_mu_ must already be held, and now
  // the compiler checks that.
  void PublishLocked(
      std::shared_ptr<std::unordered_map<PageId, uint64_t>> index)
      BP_REQUIRES(commit_mu_);
  void ReleaseSnapshot(const SnapshotStats& final_stats)
      BP_EXCLUDES(commit_mu_);

  util::Status InitializeNewDb();
  util::Status LoadHeader();
  std::string SerializedHeader() const;
  util::Status WriteHeaderToFrame();
  util::Status RecoverFromJournal();
  util::Status RecoverFromWal();
  util::Status CommitViaJournal(const std::vector<internal::Frame*>& dirty);
  util::Status CommitViaWal(const std::vector<internal::Frame*>& dirty);
  util::Status MaybeCheckpoint();
  std::string JournalPath() const { return path_ + ".journal"; }
  std::string WalPath() const { return path_ + ".wal"; }

  // Fsyncs the log's committed-but-unsynced transactions, or returns
  // the sticky error of an earlier failed fsync (see SyncWal).
  util::Status SyncLocked() BP_REQUIRES(wal_mu_);

  util::Result<internal::Frame*> FetchFrame(PageId id);
  void JournalBeforeImage(internal::Frame& frame);
  void Unpin(internal::Frame* frame);
  void MaybeEvict();

  // --- intrusive LRU over frames_ (writer cache) ---------------------
  void LruTouch(internal::Frame* frame);
  void LruRemove(internal::Frame* frame);

  // --- buffer pool (WAL mode; writer thread only) --------------------
  // The image key of `id`'s latest COMMITTED image, resolvable by any
  // reader: log offset when the image lives in the log, main-file key
  // when checkpointed. false when the page has no committed image yet
  // (allocated this transaction) or the pool is off.
  bool CommittedImageKey(PageId id, PageImageKey* key) const;
  // Publishes a clean committed image (copy or move) into the pool.
  void PublishToPool(const PageImageKey& key, std::string&& image);

  // Registry collector body: exports stats() as bp_pager_* / bp_pool_* /
  // bp_snapshot_* samples labeled with this pager's database path.
  void CollectMetrics(obs::CollectionSink& sink) const;

  std::string path_;
  PagerOptions options_;
  std::unique_ptr<File> file_;

  std::unordered_map<PageId, std::unique_ptr<internal::Frame>> frames_;
  internal::Frame lru_;  // sentinel: lru_.lru_next = MRU end
  uint64_t change_count_ = 0;

  // Shared versioned buffer pool (see storage/buffer_pool.hpp). Null
  // when disabled. Only consulted in WAL mode: journal mode rewrites
  // main-file pages in place at every commit, which would invalidate
  // main-file image keys mid-generation.
  std::shared_ptr<BufferPool> pool_;
  uint32_t pool_owner_ = 0;
  // Checkpoint generation of pool image keys: bumped by every
  // checkpoint that folded pages, which rewrites main-file pages and
  // frees the log's offsets for reuse, so no stale key can resolve.
  // Writer thread; snapshots read the published copy.
  uint32_t generation_ = 0;

  // Cached header fields (persisted in page 0).
  uint32_t page_count_ = 0;
  PageId freelist_head_ = kNoPage;
  uint32_t freelist_count_ = 0;
  PageId catalog_root_ = kNoPage;
  uint64_t commit_seq_ = 0;

  // Transaction state.
  bool in_txn_ = false;
  // Before-images of pre-existing pages dirtied in this transaction.
  std::unordered_map<PageId, std::string> before_images_;
  // Pages allocated in this transaction (no before-image; rollback drops).
  std::unordered_map<PageId, bool> fresh_pages_;
  uint32_t txn_orig_page_count_ = 0;
  // Pages physically valid in the main database file. In journal mode
  // this tracks page_count_ at the last commit; in WAL mode it only
  // advances at checkpoints — committed pages beyond it live in the
  // log and are fetched through wal_index_.
  uint32_t main_file_pages_ = 0;

  // --- WAL state (kWal mode only) ------------------------------------
  // The log stream (<path>.wal); null in journal mode. Appends belong to
  // the single writer; fsyncs may run on another thread and hand off
  // through WalWriter's atomic committed bytes (wal/wal_writer.hpp).
  std::unique_ptr<wal::WalWriter> wal_;
  // Serializes log fsyncs against each other and against checkpoint
  // truncation.
  util::Mutex wal_mu_;
  // Committed transactions not yet fsynced. Released by the committing
  // thread after the append, acquired by the syncing thread before it
  // snapshots committed bytes — so a sync that observes N pending
  // commits observes their appended bytes.
  std::atomic<uint32_t> unsynced_commits_{0};
  // The first failed log fsync; sticky for the pager's lifetime.
  util::Status sync_error_ BP_GUARDED_BY(wal_mu_);
  // page id -> log offset of its latest committed image.
  std::unordered_map<PageId, uint64_t> wal_index_;
  // The (page, offset) pairs of the most recent WAL commit; what
  // PublishCommitDelta applies to the published index.
  std::vector<std::pair<PageId, uint64_t>> last_commit_offsets_;
  // Commit sequence recovered from the log at Open (what Open bumps
  // commit_seq_ to when the folded header predates it).
  uint64_t recovered_commit_seq_ = 0;

  // --- snapshot support ----------------------------------------------
  // The committed state as readers may observe it. Guarded by
  // commit_mu_. The wal_index map is mutated in place only while no
  // snapshot shares it (use_count == 1 under the lock); once a
  // snapshot holds a reference the next publish copies instead, so
  // every snapshot's view stays immutable.
  struct PublishedState {
    uint64_t commit_seq = 0;
    uint32_t page_count = 0;
    PageId catalog_root = kNoPage;
    uint32_t main_file_pages = 0;
    uint32_t generation = 0;  // pool image keys
    std::shared_ptr<std::unordered_map<PageId, uint64_t>> wal_index;
  };
  // LOCK ORDER: commit_mu_ strictly before wal_mu_.
  mutable util::Mutex commit_mu_ BP_ACQUIRED_BEFORE(wal_mu_);
  PublishedState published_ BP_GUARDED_BY(commit_mu_);
  uint32_t live_snapshots_ BP_GUARDED_BY(commit_mu_) = 0;
  // Totals folded in by ReleaseSnapshot.
  SnapshotStats retired_snapshot_stats_ BP_GUARDED_BY(commit_mu_);

  bool crash_after_journal_ = false;

  // One hot counter, alone on its cache line — the same cell shape
  // obs::Counter stripes over. Single-writer: mutations are serialized
  // by the pager's single-writer contract, so Inc() is a plain
  // load+store (no lock-prefixed RMW — PR 8's fetch_add here cost +37%
  // on hit-lookup p99); the atomic only makes cross-thread stats()
  // reads tear-free, and the alignment keeps a metrics dump reading
  // one counter from bouncing the line another increment is writing.
  struct alignas(64) StatCell {
    std::atomic<uint64_t> v{0};
    void Inc(uint64_t n = 1) {
      v.store(v.load(std::memory_order_relaxed) + n,
              std::memory_order_relaxed);
    }
    uint64_t load() const { return v.load(std::memory_order_relaxed); }
  };
  // Writer-side counters. The StatCell block is single-writer (see
  // above); the trailing plain atomics are bumped with real fetch_add
  // because log fsyncs — and so these counters — can run on a
  // non-writer thread (SyncWal, FlushPending).
  struct AtomicPagerStats {
    StatCell commits;
    StatCell rollbacks;
    StatCell pages_written;
    StatCell pages_read;
    StatCell cache_hits;
    StatCell cache_misses;
    StatCell evictions;
    StatCell wal_frames;
    StatCell checkpoints;
    StatCell compressed_pages;
    StatCell compressed_bytes;
    StatCell compressible_raw_bytes;
    StatCell decompress_reads;
    // Multi-thread counters (fsync paths), on their own line.
    struct alignas(64) {
      std::atomic<uint64_t> fsyncs{0};
      std::atomic<uint64_t> bytes_synced{0};
      std::atomic<uint64_t> group_commits{0};
      // The log's share of bytes_synced (read by domain_stats only).
      std::atomic<uint64_t> wal_bytes_synced{0};
    } sync;
  };
  AtomicPagerStats stats_;

  // --- observability (src/obs) ---------------------------------------
  // Process-wide histograms shared by every pager (latency is a
  // process-level distribution; per-instance counters go through the
  // collector instead). Fetched once at Open; registry-owned.
  obs::Histogram* commit_latency_us_ = nullptr;
  obs::Histogram* fsync_latency_us_ = nullptr;
  obs::Histogram* group_commit_txns_ = nullptr;
  obs::Histogram* checkpoint_latency_us_ = nullptr;
  obs::Histogram* decompress_latency_us_ = nullptr;
  uint64_t metrics_token_ = 0;  // collector handle; removed in ~Pager
};

// Begins a transaction when none is open; a no-op when the caller already
// holds one (the operation then composes into the outer transaction).
// The destructor ROLLS BACK an owned, uncommitted
// transaction, so any early error return undoes partial mutations;
// success paths must end with `return txn.Commit();`.
//
// Note: when an operation fails inside an outer transaction, the partial
// mutations stay in that transaction — the outer caller must Rollback.
class AutoTxn {
 public:
  explicit AutoTxn(Pager& pager) : pager_(pager) {
    if (!pager_.InTransaction()) {
      begin_status_ = pager_.Begin();
      owns_ = begin_status_.ok();
    }
  }
  ~AutoTxn() {
    if (owns_ && !committed_) {
      // Rollback of in-memory state cannot fail in ways the destructor
      // could meaningfully handle.
      (void)pager_.Rollback();
    }
  }
  AutoTxn(const AutoTxn&) = delete;
  AutoTxn& operator=(const AutoTxn&) = delete;

  // Commits when owned; reports a failed Begin; no-op when nested.
  util::Status Commit() {
    if (!begin_status_.ok()) return begin_status_;
    if (!owns_) return util::Status::Ok();
    committed_ = true;
    return pager_.Commit();
  }

  // True when this AutoTxn opened the transaction (so its destruction
  // without Commit really rolls back; a nested AutoTxn never does).
  bool owns() const { return owns_; }

 private:
  Pager& pager_;
  util::Status begin_status_;
  bool owns_ = false;
  bool committed_ = false;
};

}  // namespace bp::storage
