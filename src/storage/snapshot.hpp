// Snapshot: a consistent, immutable read view of a WAL-mode database.
//
// BeginRead() freezes the committed state at a commit sequence number,
// along with the page count, catalog root, checkpoint generation, and a
// frozen copy of the WAL index (page id -> log offset of the latest
// committed image <= that commit). Reads resolve, in order, against
//
//   1. the snapshot's own L1 memo — a map from page id to the frame
//      this snapshot already resolved. A frozen view's page -> image
//      mapping never changes, so memoizing is free correctness-wise,
//      and the memo holds POINTERS into pool frames, not copies: it
//      restores the old private-cache hit cost (one u32 map find)
//      without duplicating a single page byte,
//   2. the pager's shared versioned buffer pool (storage/buffer_pool
//      .hpp), keyed by page image identity — (page, generation, WAL
//      offset) for log-resident images, (page, generation) for
//      main-file ones — so every snapshot observing the same image of
//      a page shares ONE frame, repeated one-shot queries run warm,
//      and the writer's committed pages arrive pre-published,
//   3. the write-ahead log at the frozen offset (the log is append-only
//      between checkpoints, so offsets recorded at snapshot time stay
//      valid no matter how far the writer has advanced), and
//   4. the main database file (stable while snapshots are live, because
//      checkpointing — the only writer of that file in WAL mode — is
//      deferred until every snapshot is released).
//
// A log/database read (a pool miss) is inserted back into the pool for
// every later reader. When the pool is disabled (PagerOptions::
// pool_bytes = 0), the L1 holds private page copies soft-capped at
// cache_pages — the pre-pool behavior — and past that cap reads stay
// read-through (correct, just uncached).
//
// The writer's in-memory page cache is never consulted, so uncommitted
// transaction state and post-snapshot commits are invisible by
// construction; there is no copy-out when the writer dirties a page.
//
// Thread safety: a Snapshot is safe to share across reader threads
// (the pool is sharded; the fallback cache takes the snapshot's own
// mutex), and any number of snapshots may be read while the single
// writer keeps committing. A snapshot must be released before its
// Pager closes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "storage/pager.hpp"
#include "util/mutex.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"

namespace bp::storage {

// SnapshotStats is defined in storage/pager.hpp (the pager aggregates
// released snapshots' counters into PagerStats).

class Snapshot {
 public:
  ~Snapshot();
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  // The latest committed page image of `id` as of this snapshot.
  // Thread-safe. The returned bytes (exactly kPageSize) stay valid for
  // as long as the caller holds the shared_ptr, even past the snapshot.
  util::Result<std::shared_ptr<const std::string>> ReadPage(PageId id) const
      BP_EXCLUDES(mu_);

  // Committed state this snapshot observes.
  uint64_t commit_seq() const { return commit_seq_; }
  uint32_t page_count() const { return page_count_; }
  PageId catalog_root() const { return catalog_root_; }

  SnapshotStats stats() const {
    SnapshotStats out;
    out.pages_read = pages_read_.load(std::memory_order_relaxed);
    out.cache_hits = cache_hits_.load(std::memory_order_relaxed);
    out.pool_hits = pool_hits_.load(std::memory_order_relaxed);
    out.decompress_reads =
        decompress_reads_.load(std::memory_order_relaxed);
    return out;
  }

 private:
  friend class Pager;
  Snapshot() = default;

  Pager* pager_ = nullptr;
  uint64_t commit_seq_ = 0;
  uint32_t page_count_ = 0;
  PageId catalog_root_ = kNoPage;
  // Pages <= this are served from the main database file when absent
  // from the frozen WAL index.
  uint32_t main_file_pages_ = 0;
  // Checkpoint generation at freeze time (pool image keys; constant
  // while the snapshot lives, because checkpoints are deferred).
  uint32_t generation_ = 0;
  // Frozen view of the WAL index (page id -> log offset), shared with
  // the pager's published state (immutable once published;
  // republished, not mutated).
  std::shared_ptr<const std::unordered_map<PageId, uint64_t>> wal_index_;

  // The pager's shared versioned buffer pool; null when disabled.
  std::shared_ptr<BufferPool> pool_;
  uint32_t pool_owner_ = 0;

  // L1 memo: page -> resolved frame. With a pool these are pointers
  // into shared pool frames (no byte duplication; holding them pins the
  // working set against eviction); without one they are private page
  // copies. Soft-capped: past `cache_cap_` pages reads stay
  // read-through (correct, just uncached).
  mutable util::Mutex mu_;
  mutable std::unordered_map<PageId, std::shared_ptr<const std::string>>
      cache_ BP_GUARDED_BY(mu_);
  size_t cache_cap_ = 0;  // frozen at BeginRead; read lock-free

  mutable std::atomic<uint64_t> pages_read_{0};
  mutable std::atomic<uint64_t> cache_hits_{0};
  mutable std::atomic<uint64_t> pool_hits_{0};
  mutable std::atomic<uint64_t> decompress_reads_{0};
};

// Read-only view of one page from either source: a pinned frame of the
// live pager (writer-side reads) or a shared-ownership snapshot page
// (reader-side). This is what the B+tree read path traffics in.
class PageView {
 public:
  PageView() = default;
  explicit PageView(PageRef live) : live_(std::move(live)) {}
  explicit PageView(std::shared_ptr<const std::string> snap)
      : snap_(std::move(snap)) {}

  bool valid() const { return live_.valid() || snap_ != nullptr; }
  const char* data() const {
    return snap_ != nullptr ? snap_->data() : live_.data();
  }

 private:
  PageRef live_;
  std::shared_ptr<const std::string> snap_;
};

}  // namespace bp::storage
