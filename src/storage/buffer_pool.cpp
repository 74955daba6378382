#include "storage/buffer_pool.hpp"

#include "util/hash.hpp"
#include "util/mutex.hpp"
#include "util/require.hpp"
#include "util/thread_annotations.hpp"

namespace bp::storage {

namespace {

struct KeyHash {
  size_t operator()(const PageImageKey& key) const {
    // Mix64 gives full avalanche, so ShardFor's low bits are not at the
    // mercy of aligned offsets the way a plain xor-multiply would be.
    uint64_t h = util::HashCombine(
        (uint64_t{key.owner} << 32) | key.generation,
        (uint64_t{key.id} << 1) | (key.offset == kMainFileImage));
    return static_cast<size_t>(util::HashCombine(h, key.offset));
  }
};

}  // namespace

struct BufferPool::Shard {
  util::Mutex mu;
  std::unordered_map<PageImageKey, std::unique_ptr<Frame>, KeyHash> frames
      BP_GUARDED_BY(mu);
  // The intrusive links threaded through the frames are mu-guarded too,
  // but guarded_by cannot be spelled on Frame::prev/next (a Frame does
  // not know its shard); the sentinel annotation plus the BP_REQUIRES
  // on every function that walks the list covers them in practice.
  Frame lru BP_GUARDED_BY(mu);  // sentinel: next = MRU, prev = coldest
  uint64_t bytes BP_GUARDED_BY(mu) = 0;
  // Counters too (stats() locks each shard in turn).
  uint64_t hits BP_GUARDED_BY(mu) = 0;
  uint64_t misses BP_GUARDED_BY(mu) = 0;
  uint64_t inserts BP_GUARDED_BY(mu) = 0;
  uint64_t reinserts BP_GUARDED_BY(mu) = 0;
  uint64_t evictions BP_GUARDED_BY(mu) = 0;
  uint64_t pinned_skips BP_GUARDED_BY(mu) = 0;

  Shard() {
    lru.prev = &lru;
    lru.next = &lru;
  }
};

BufferPool::BufferPool(size_t byte_budget)
    : byte_budget_(byte_budget),
      shard_budget_(byte_budget / kShards),
      shards_(new Shard[kShards]) {}

BufferPool::~BufferPool() = default;

uint32_t BufferPool::NextOwnerId() {
  static std::atomic<uint32_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

BufferPool::Shard& BufferPool::ShardFor(const PageImageKey& key) {
  return shards_[KeyHash{}(key) & (kShards - 1)];
}

// LRU list surgery. File-local free functions (not members) so the
// annotations can name the shard's own mutex, which needs Shard to be a
// complete type — it never is at an in-class declaration.
namespace {

void Unlink(BufferPool::Frame* frame) {
  frame->prev->next = frame->next;
  frame->next->prev = frame->prev;
  frame->prev = nullptr;
  frame->next = nullptr;
}

void LinkFront(BufferPool::Shard& shard, BufferPool::Frame* frame)
    BP_REQUIRES(shard.mu) {
  frame->next = shard.lru.next;
  frame->prev = &shard.lru;
  shard.lru.next->prev = frame;
  shard.lru.next = frame;
}

// Unlinks `frame` and relinks it at the MRU end.
void Touch(BufferPool::Shard& shard, BufferPool::Frame* frame)
    BP_REQUIRES(shard.mu) {
  Unlink(frame);
  LinkFront(shard, frame);
}

// Evicts cold, unpinned frames until the shard is within its budget
// slice.
void EvictUnderLock(BufferPool::Shard& shard, size_t shard_budget)
    BP_REQUIRES(shard.mu) {
  // Walk from the cold end. Every step either evicts the frame or
  // re-warms a pinned one to the MRU end. Two bounds keep an insert
  // O(evicted) amortized even when the budget cannot be met: the scan
  // never exceeds one full pass, and it gives up after a run of
  // kMaxFruitlessProbes consecutive pinned frames — when live readers
  // pin more than the budget, burning the whole shard's LRU under the
  // lock on EVERY insert would serialize exactly the traffic the
  // shards exist to spread (the re-warmed pinned frames still migrate
  // off the cold end, so later inserts resume progress).
  constexpr size_t kMaxFruitlessProbes = 32;
  size_t examined = 0;
  size_t fruitless = 0;
  const size_t limit = shard.frames.size();
  while (shard.bytes > shard_budget && examined < limit &&
         fruitless < kMaxFruitlessProbes) {
    BufferPool::Frame* victim = shard.lru.prev;
    if (victim == &shard.lru) break;
    ++examined;
    if (victim->data.use_count() > 1) {
      // Referenced outside the pool (a live PageView or a caller-held
      // image): pinned. Never evicted; spare it and move on. use_count
      // is exact here: new references are only minted under this
      // shard's lock, so > 1 cannot turn into == 1 concurrently — at
      // worst a concurrent release makes us spare a frame one pass
      // longer than necessary.
      ++shard.pinned_skips;
      ++fruitless;
      Touch(shard, victim);
      continue;
    }
    fruitless = 0;
    shard.bytes -= victim->data->size();
    ++shard.evictions;
    Unlink(victim);
    // Copy the key out: erase(const key_type&) must not be handed a
    // reference into the node it is destroying.
    const PageImageKey victim_key = victim->key;
    shard.frames.erase(victim_key);
  }
}

}  // namespace

std::shared_ptr<const std::string> BufferPool::Lookup(
    const PageImageKey& key) {
  Shard& shard = ShardFor(key);
  util::MutexLock lock(shard.mu);
  auto it = shard.frames.find(key);
  if (it != shard.frames.end()) {
    ++shard.hits;
    Touch(shard, it->second.get());
    return it->second->data;
  }
  ++shard.misses;
  return nullptr;
}

std::shared_ptr<const std::string> BufferPool::Insert(
    const PageImageKey& key, std::shared_ptr<const std::string> page) {
  BP_CHECK(page != nullptr && page->size() == kPageSize,
           "pool frames are exactly one page");
  Shard& shard = ShardFor(key);
  util::MutexLock lock(shard.mu);
  auto it = shard.frames.find(key);
  if (it != shard.frames.end()) {
    // Another thread fetched the same image concurrently; keys name
    // immutable byte images, so the frames are identical — adopt the
    // resident one and let the caller's copy die.
    ++shard.reinserts;
    Touch(shard, it->second.get());
    return it->second->data;
  }
  auto frame = std::make_unique<Frame>();
  frame->key = key;
  frame->data = std::move(page);
  shard.bytes += frame->data->size();
  ++shard.inserts;
  LinkFront(shard, frame.get());
  std::shared_ptr<const std::string> out = frame->data;
  shard.frames.emplace(key, std::move(frame));
  EvictUnderLock(shard, shard_budget_);
  return out;
}

uint64_t BufferPool::DropOwner(uint32_t owner) {
  uint64_t dropped = 0;
  for (size_t i = 0; i < kShards; ++i) {
    Shard& shard = shards_[i];
    util::MutexLock lock(shard.mu);
    for (auto it = shard.frames.begin(); it != shard.frames.end();) {
      Frame* frame = it->second.get();
      if (frame->key.owner != owner || frame->data.use_count() > 1) {
        // Another owner's frame, or one still referenced outside the
        // pool (use_count is exact under the shard lock, same argument
        // as EvictUnderLock): leave it for the normal LRU to retire.
        ++it;
        continue;
      }
      shard.bytes -= frame->data->size();
      ++shard.evictions;
      Unlink(frame);
      it = shard.frames.erase(it);
      ++dropped;
    }
  }
  return dropped;
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats out;
  for (size_t i = 0; i < kShards; ++i) {
    Shard& shard = shards_[i];
    util::MutexLock lock(shard.mu);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.inserts += shard.inserts;
    out.reinserts += shard.reinserts;
    out.evictions += shard.evictions;
    out.pinned_skips += shard.pinned_skips;
    out.bytes += shard.bytes;
    out.frames += shard.frames.size();
    for (const auto& [key, frame] : shard.frames) {
      if (frame->data.use_count() > 1) out.pinned_bytes += frame->data->size();
    }
  }
  return out;
}

}  // namespace bp::storage
