// BufferPool: a process-wide, sharded cache of immutable page images,
// shared by every snapshot (and the live pager's read path) instead of
// the per-snapshot copy-on-read caches it replaces.
//
// Identity, not recency, is the key. A frame is addressed by
// (owner, page id, generation, offset):
//
//   owner       — a process-unique id per Pager, so pagers sharing one
//                 pool (PagerOptions::buffer_pool) never alias pages;
//   generation  — the pager's checkpoint generation. A checkpoint is
//                 the only operation that rewrites the main database
//                 file in WAL mode AND the one that truncates the log
//                 (reusing its offsets), so bumping one counter at each
//                 checkpoint versions both sources at once;
//   offset      — for WAL-resident images, the log offset of the frame
//                 (the log is append-only within a generation, so the
//                 offset names exactly one byte image); kMainFileImage
//                 for images served from the main database file.
//
// Because the key names an immutable byte image, snapshots taken at
// different commit sequence numbers that observe the SAME image of a
// page resolve to the SAME frame — one copy in memory no matter how
// many snapshots or repeated one-shot queries touch it — and a cached
// frame can never go stale: a newer commit produces a new offset, a
// checkpoint a new generation, and the old key simply stops being
// asked for and ages out of the LRU.
//
// Sharding: keys hash onto kShards independent stripes, each with its
// own mutex, hash map, and intrusive LRU list, so concurrent readers
// on different pages do not serialize (the per-snapshot caches each
// funneled all of a snapshot's readers through one mutex).
//
// Eviction: a global byte budget, divided evenly across shards, is
// enforced at insert. Victims are taken from the cold end of the
// shard's LRU list; a frame whose image is still referenced outside
// the pool (use_count > 1 under the shard lock — a live PageView or a
// caller-held page) is PINNED: it is skipped (re-warmed to the MRU end
// so the scan terminates) and never evicted. Even if the budget is too
// small for the pinned set, correctness never depends on it: frames
// are shared-ownership (shared_ptr<const std::string>), so an evicted
// image stays alive and immutable for as long as any reader holds it —
// eviction only forgets, it never frees in-use bytes.
//
// There is no second, compressed tier behind the LRU: an evicted frame
// is forgotten, and the next miss re-reads the log or the database
// file. On real files the OS page cache already holds the (possibly
// compressed) checkpoint slots, so keeping compressed copies here would
// save nothing over re-reading a slot, while compressing each victim
// under the shard lock would cost a page compression per eviction.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "storage/compress.hpp"
#include "storage/page.hpp"

namespace bp::storage {

// Offset sentinel for images served from the main database file (whose
// version is carried entirely by the generation).
constexpr uint64_t kMainFileImage = UINT64_MAX;

// Identity of one immutable page image (see file header).
struct PageImageKey {
  uint32_t owner = 0;
  PageId id = kNoPage;
  uint32_t generation = 0;
  uint64_t offset = kMainFileImage;

  bool operator==(const PageImageKey& other) const {
    return owner == other.owner && id == other.id &&
           generation == other.generation && offset == other.offset;
  }
};

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;       // lookups that found nothing
  uint64_t inserts = 0;      // new frames admitted
  uint64_t reinserts = 0;    // insert races resolved to the existing frame
  uint64_t evictions = 0;
  uint64_t pinned_skips = 0; // eviction scans that spared a pinned frame
  uint64_t bytes = 0;        // resident image bytes right now
  uint64_t frames = 0;       // resident frames right now
  // Bytes of frames currently referenced outside the pool (a live
  // PageView or caller-held image) — the un-evictable floor. Computed
  // by stats() with an O(frames) walk, so it is a dump-time number,
  // not a hot-path counter.
  uint64_t pinned_bytes = 0;
  // Always 0: compatibility stub for perfbench (see the stub block in
  // storage/pager.hpp). Remove with the next benchmark change.
  uint64_t cold_demotions = 0;
  uint64_t cold_hits = 0;
};

class BufferPool {
 public:
  // `byte_budget` caps resident image bytes pool-wide (soft while
  // pinned frames exceed it). Shard count is fixed at kShards.
  explicit BufferPool(size_t byte_budget);
  // Compatibility stub for perfbench (see the stub block in
  // storage/pager.hpp): the options are ignored. Remove with the next
  // benchmark change.
  BufferPool(size_t byte_budget, compress::CompressionOptions /*ignored*/)
      : BufferPool(byte_budget) {}
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // The cached image for `key`, or null. A hit re-warms the frame to
  // the MRU end of its shard. Thread-safe.
  std::shared_ptr<const std::string> Lookup(const PageImageKey& key);

  // Admits `page` (exactly kPageSize bytes) under `key` and returns the
  // resident image: `page` itself, or — when another thread raced the
  // same key in first — the already-resident frame, so concurrent first
  // readers of one page converge on a single copy. May evict cold
  // frames to stay under budget. Thread-safe.
  std::shared_ptr<const std::string> Insert(
      const PageImageKey& key, std::shared_ptr<const std::string> page);

  // Drops every unpinned frame belonging to `owner` and returns how
  // many were dropped. A closing pager calls this: its owner id is
  // never reused, so its frames can never be looked up again — without
  // the drop they would squat on the shared budget until cold-end
  // pressure happened to age them out, which matters when many
  // databases share one pool (the multi-profile service opens and
  // closes handles continuously). Pinned frames (an image some reader
  // still holds) are left behind; they evict normally once released.
  // Thread-safe.
  uint64_t DropOwner(uint32_t owner);

  // Process-unique owner id for a pager joining this (or any) pool.
  static uint32_t NextOwnerId();

  size_t byte_budget() const { return byte_budget_; }
  BufferPoolStats stats() const;

  static constexpr size_t kShards = 16;  // power of two

  // Implementation detail, public only so the annotated LRU helpers in
  // buffer_pool.cpp (file-local free functions whose BP_REQUIRES name
  // shard.mu — impossible to spell on an in-class declaration, where
  // Shard is still incomplete) can take it by reference.
  struct Frame {
    PageImageKey key;
    std::shared_ptr<const std::string> data;
    Frame* prev = nullptr;  // intrusive LRU list; head = MRU
    Frame* next = nullptr;
  };
  struct Shard;

 private:
  Shard& ShardFor(const PageImageKey& key);

  const size_t byte_budget_;
  const size_t shard_budget_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace bp::storage
