// BufferPool unit tests: image-identity keying, insert-race adoption,
// byte-budget eviction in LRU order, pinned frames surviving every
// eviction pass, and counter accounting. The pool's integration with
// snapshots (sharing across commit horizons, thrash stability) lives in
// snapshot_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.hpp"

namespace bp::storage {
namespace {

std::shared_ptr<const std::string> Image(char fill) {
  return std::make_shared<const std::string>(kPageSize, fill);
}

PageImageKey Key(PageId id, uint64_t offset = kMainFileImage,
                 uint32_t generation = 0) {
  return PageImageKey{/*owner=*/1, id, generation, offset};
}

TEST(BufferPoolTest, LookupMissThenInsertThenHit) {
  BufferPool pool(1 << 20);
  EXPECT_EQ(pool.Lookup(Key(3)), nullptr);

  auto page = Image('a');
  auto resident = pool.Insert(Key(3), page);
  EXPECT_EQ(resident.get(), page.get());

  auto hit = pool.Lookup(Key(3));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), page.get());

  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.frames, 1u);
  EXPECT_EQ(stats.bytes, uint64_t{kPageSize});
}

TEST(BufferPoolTest, DistinctVersionsAreDistinctFrames) {
  // Same page id at different offsets/generations = different immutable
  // images; the pool must never conflate them.
  BufferPool pool(1 << 20);
  (void)pool.Insert(Key(7, /*offset=*/100), Image('x'));
  (void)pool.Insert(Key(7, /*offset=*/200), Image('y'));
  (void)pool.Insert(Key(7, kMainFileImage, /*generation=*/2), Image('z'));

  EXPECT_EQ(pool.Lookup(Key(7, 100))->front(), 'x');
  EXPECT_EQ(pool.Lookup(Key(7, 200))->front(), 'y');
  EXPECT_EQ(pool.Lookup(Key(7, kMainFileImage, 2))->front(), 'z');
  EXPECT_EQ(pool.stats().frames, 3u);
}

TEST(BufferPoolTest, InsertRaceAdoptsTheResidentFrame) {
  // Two concurrent first readers fetch the same image; the second
  // Insert must return the first frame so everyone shares one copy.
  BufferPool pool(1 << 20);
  auto winner = Image('w');
  auto loser = Image('w');
  auto first = pool.Insert(Key(9, 50), winner);
  auto second = pool.Insert(Key(9, 50), loser);
  EXPECT_EQ(first.get(), winner.get());
  EXPECT_EQ(second.get(), winner.get());
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.reinserts, 1u);
  EXPECT_EQ(stats.frames, 1u);
}

TEST(BufferPoolTest, EvictsColdestFirstUnderByteBudget) {
  // Budget of ~4 pages per shard; hammer one shard's keyspace far past
  // it and confirm (a) the budget holds, (b) recently touched frames
  // survive over cold ones.
  const size_t budget = BufferPool::kShards * 4 * kPageSize;
  BufferPool pool(budget);
  for (PageId id = 1; id <= 64; ++id) {
    (void)pool.Insert(Key(id, id), Image(static_cast<char>(id)));
  }
  BufferPoolStats stats = pool.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, budget);

  // The most recent insert in some shard must still be resident.
  EXPECT_NE(pool.Lookup(Key(64, 64)), nullptr);
}

TEST(BufferPoolTest, PinnedFramesAreNeverEvicted) {
  // Hold a reference to one image (a live PageView would do the same),
  // then thrash the pool way past its budget: the pinned frame must
  // stay resident AND byte-identical throughout.
  const size_t budget = BufferPool::kShards * 2 * kPageSize;
  BufferPool pool(budget);
  auto pinned = pool.Insert(Key(1, 10), Image('p'));
  for (PageId id = 2; id <= 200; ++id) {
    (void)pool.Insert(Key(id, uint64_t{id} * 16), Image('f'));
  }
  auto still_there = pool.Lookup(Key(1, 10));
  ASSERT_NE(still_there, nullptr);
  EXPECT_EQ(still_there.get(), pinned.get());
  EXPECT_EQ(*still_there, std::string(kPageSize, 'p'));
  EXPECT_GT(pool.stats().pinned_skips, 0u);
}

TEST(BufferPoolTest, ReleasedFramesBecomeEvictable) {
  const size_t budget = BufferPool::kShards * 2 * kPageSize;
  BufferPool pool(budget);
  auto pinned = pool.Insert(Key(1, 10), Image('p'));
  pinned.reset();  // unpin
  for (PageId id = 2; id <= 200; ++id) {
    (void)pool.Insert(Key(id, uint64_t{id} * 16), Image('f'));
  }
  // With 199 insertions across 16 shards, frame (1,10)'s shard has seen
  // many times its budget; the now-unpinned frame must be long gone.
  EXPECT_EQ(pool.Lookup(Key(1, 10)), nullptr);
}

TEST(BufferPoolTest, EvictedImageSurvivesViaSharedOwnership) {
  // Even when eviction does drop a frame the caller still holds, the
  // bytes must stay alive and immutable through the shared_ptr.
  const size_t budget = BufferPool::kShards * 1 * kPageSize;
  BufferPool pool(budget);
  std::shared_ptr<const std::string> held;
  {
    held = pool.Insert(Key(1, 10), Image('h'));
  }
  for (PageId id = 2; id <= 400; ++id) {
    (void)pool.Insert(Key(id, uint64_t{id} * 16), Image('f'));
  }
  EXPECT_EQ(*held, std::string(kPageSize, 'h'));
}

TEST(BufferPoolTest, OwnerIdsSeparateSharers) {
  // Two pagers sharing one pool must never alias, even at identical
  // (page, generation, offset) coordinates.
  BufferPool pool(1 << 20);
  PageImageKey a{/*owner=*/1, /*id=*/5, /*generation=*/0, /*offset=*/64};
  PageImageKey b{/*owner=*/2, /*id=*/5, /*generation=*/0, /*offset=*/64};
  (void)pool.Insert(a, Image('a'));
  (void)pool.Insert(b, Image('b'));
  EXPECT_EQ(pool.Lookup(a)->front(), 'a');
  EXPECT_EQ(pool.Lookup(b)->front(), 'b');
}

TEST(BufferPoolTest, ConcurrentMixedTrafficKeepsImagesIntact) {
  // 8 threads hammer overlapping keys with lookups and inserts under a
  // small budget (constant churn). Every observed image must be intact:
  // the key determines the fill byte, so any cross-thread tearing or
  // eviction-during-use shows up as a wrong byte. (Run under TSan in CI
  // via the storage test suite.)
  const size_t budget = BufferPool::kShards * 2 * kPageSize;
  BufferPool pool(budget);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::vector<std::thread> workers;
  std::atomic<uint64_t> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        PageId id = static_cast<PageId>(1 + (i * (t + 1)) % 97);
        const char fill = static_cast<char>('a' + id % 26);
        PageImageKey key = Key(id, uint64_t{id} * 8);
        std::shared_ptr<const std::string> image = pool.Lookup(key);
        if (image == nullptr) {
          image = pool.Insert(
              key, std::make_shared<const std::string>(kPageSize, fill));
        }
        if (image->front() != fill || image->back() != fill ||
            image->size() != kPageSize) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(pool.stats().hits, 0u);

  // The budget is soft while frames are pinned, and a shard that went
  // over while other threads held its frames stays over until its next
  // insert. Nothing is pinned now, so one insert into every shard must
  // bring the whole pool back under budget. The key hash is fixed, so
  // these keys land the same way every run; a pool with a one-page
  // slice per shard checks that they cover every shard.
  std::vector<PageImageKey> fresh;
  for (PageId id = 1000; id < 1256; ++id) {
    fresh.push_back(Key(id, uint64_t{id} * 8));
  }
  BufferPool probe(BufferPool::kShards * kPageSize);
  for (const PageImageKey& key : fresh) (void)probe.Insert(key, Image('p'));
  ASSERT_EQ(probe.stats().frames, BufferPool::kShards);
  for (const PageImageKey& key : fresh) (void)pool.Insert(key, Image('p'));
  EXPECT_LE(pool.stats().bytes, budget);
}

TEST(BufferPoolTest, DropOwnerForgetsOnlyThatOwnersUnpinnedFrames) {
  BufferPool pool(1 << 20);
  PageImageKey mine_cold{/*owner=*/1, /*id=*/1, /*generation=*/0,
                         /*offset=*/8};
  PageImageKey mine_held{/*owner=*/1, /*id=*/2, /*generation=*/0,
                         /*offset=*/16};
  PageImageKey theirs{/*owner=*/2, /*id=*/1, /*generation=*/0, /*offset=*/8};
  (void)pool.Insert(mine_cold, Image('c'));
  auto held = pool.Insert(mine_held, Image('h'));  // pinned by `held`
  (void)pool.Insert(theirs, Image('t'));

  // Drops the cold frame, spares the pinned one and the other owner's.
  EXPECT_EQ(pool.DropOwner(1), 1u);
  EXPECT_EQ(pool.Lookup(mine_cold), nullptr);
  ASSERT_NE(pool.Lookup(mine_held), nullptr);
  ASSERT_NE(pool.Lookup(theirs), nullptr);
  EXPECT_EQ(pool.Lookup(theirs)->front(), 't');

  // Once the caller releases the image, a second drop reclaims it.
  held.reset();
  EXPECT_EQ(pool.DropOwner(1), 1u);
  EXPECT_EQ(pool.Lookup(mine_held), nullptr);
  // The other owner is untouched throughout.
  EXPECT_NE(pool.Lookup(theirs), nullptr);
}

}  // namespace
}  // namespace bp::storage
