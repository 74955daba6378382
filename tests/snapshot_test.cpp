// Snapshot read transactions over the storage engine: a snapshot sees
// exactly the committed state at BeginRead — never later commits, never
// uncommitted transaction state — while the single writer keeps
// committing; live snapshots pin WAL frames (checkpoints defer, with
// FailedPrecondition on the explicit path); bound handles reject
// mutation; and a 4-reader / 1-writer stress (run under TSan in CI)
// checks bit-stable iteration against >= 1000 concurrent commits.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "storage/btree.hpp"
#include "storage/db.hpp"
#include "storage/env.hpp"
#include "storage/snapshot.hpp"
#include "util/hash.hpp"
#include "util/serde.hpp"
#include "util/strings.hpp"

namespace bp::storage {
namespace {

// Deterministic row value so any reader can verify any row in
// isolation: a torn or mixed-version read cannot forge the checksum.
std::string ValueFor(uint64_t id) {
  return util::StrFormat("v%llu:%llx", (unsigned long long)id,
                         (unsigned long long)util::Fnv1a64(
                             util::OrderedKeyU64(id)));
}

class SnapshotTest : public ::testing::Test {
 protected:
  std::unique_ptr<Db> OpenDb(uint64_t checkpoint_bytes = 4 << 20) {
    DbOptions opts;
    opts.env = &env_;
    opts.sync = false;
    opts.wal_checkpoint_bytes = checkpoint_bytes;
    auto db = Db::Open("snap.db", opts);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(*db);
  }

  // Rows [lo, hi) with self-verifying values, one commit per call.
  void PutRange(Db& db, BTree* tree, uint64_t lo, uint64_t hi) {
    ASSERT_TRUE(db.Begin().ok());
    for (uint64_t id = lo; id < hi; ++id) {
      ASSERT_TRUE(tree->Put(util::OrderedKeyU64(id), ValueFor(id)).ok());
    }
    ASSERT_TRUE(db.Commit().ok());
  }

  MemEnv env_;
};

TEST_F(SnapshotTest, SeesCommittedStateNotLaterWrites) {
  auto db = OpenDb();
  BTree* tree = *db->OpenOrCreateTree("t");
  PutRange(*db, tree, 1, 101);

  auto snap = db->BeginRead();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  BTree frozen = tree->BoundAt(**snap);

  // Writer moves on: new rows plus an overwrite of row 1.
  PutRange(*db, tree, 101, 201);
  ASSERT_TRUE(tree->Put(util::OrderedKeyU64(1), "rewritten").ok());

  // Live handle sees the new world...
  EXPECT_EQ(*tree->Count(), 200u);
  EXPECT_EQ(*tree->Get(util::OrderedKeyU64(1)), "rewritten");
  // ...the frozen handle still sees exactly the snapshot.
  EXPECT_EQ(*frozen.Count(), 100u);
  EXPECT_EQ(*frozen.Get(util::OrderedKeyU64(1)), ValueFor(1));
  EXPECT_TRUE(frozen.Get(util::OrderedKeyU64(150)).status().IsNotFound());

  // Cursor over the frozen view: every row, correct values, and the
  // same result on a second pass (bit-stable).
  for (int pass = 0; pass < 2; ++pass) {
    uint64_t seen = 0;
    BTree::Cursor cur = frozen.NewCursor();
    for (cur.SeekFirst(); cur.Valid(); cur.Next()) {
      ++seen;
      EXPECT_EQ(cur.value(), ValueFor(seen));
    }
    ASSERT_TRUE(cur.status().ok()) << cur.status().ToString();
    EXPECT_EQ(seen, 100u);
  }
}

TEST_F(SnapshotTest, IgnoresUncommittedTransactionState) {
  auto db = OpenDb();
  BTree* tree = *db->OpenOrCreateTree("t");
  PutRange(*db, tree, 1, 11);

  ASSERT_TRUE(db->Begin().ok());
  ASSERT_TRUE(tree->Put(util::OrderedKeyU64(99), "uncommitted").ok());
  // Mid-transaction snapshots are legal and see the last COMMITTED
  // state.
  auto snap = db->BeginRead();
  ASSERT_TRUE(snap.ok());
  BTree frozen = tree->BoundAt(**snap);
  EXPECT_EQ(*frozen.Count(), 10u);
  EXPECT_TRUE(frozen.Get(util::OrderedKeyU64(99)).status().IsNotFound());
  ASSERT_TRUE(db->Commit().ok());
  // Still the old view after the commit lands...
  EXPECT_EQ(*frozen.Count(), 10u);
  // ...and a fresh snapshot sees it.
  auto snap2 = db->BeginRead();
  ASSERT_TRUE(snap2.ok());
  BTree frozen2 = tree->BoundAt(**snap2);
  EXPECT_EQ(*frozen2.Count(), 11u);
  EXPECT_GT((*snap2)->commit_seq(), (*snap)->commit_seq());
}

TEST_F(SnapshotTest, OverflowValuesReadThroughSnapshot) {
  auto db = OpenDb();
  BTree* tree = *db->OpenOrCreateTree("t");
  const std::string big(3 * kPageSize, 'x');
  ASSERT_TRUE(tree->Put("big", big).ok());

  auto snap = db->BeginRead();
  ASSERT_TRUE(snap.ok());
  BTree frozen = tree->BoundAt(**snap);
  ASSERT_TRUE(tree->Put("big", "small now").ok());

  EXPECT_EQ(*frozen.Get("big"), big);
  EXPECT_EQ(*tree->Get("big"), "small now");
}

// Satellite regression: the documented Checkpoint preconditions are
// enforced as FailedPrecondition, not silently ignored.
TEST_F(SnapshotTest, CheckpointFailsWithOpenTransactionOrLiveSnapshot) {
  auto db = OpenDb();
  BTree* tree = *db->OpenOrCreateTree("t");
  PutRange(*db, tree, 1, 11);

  ASSERT_TRUE(db->Begin().ok());
  ASSERT_TRUE(tree->Put(util::OrderedKeyU64(11), ValueFor(11)).ok());
  util::Status in_txn = db->pager().Checkpoint();
  EXPECT_EQ(in_txn.code(), util::StatusCode::kFailedPrecondition);
  ASSERT_TRUE(db->Commit().ok());

  {
    auto snap = db->BeginRead();
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ(db->pager().live_snapshots(), 1u);
    util::Status pinned = db->pager().Checkpoint();
    EXPECT_EQ(pinned.code(), util::StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(db->pager().live_snapshots(), 0u);
  EXPECT_TRUE(db->pager().Checkpoint().ok());
}

TEST_F(SnapshotTest, SnapshotDecodesCompressedSlotsBeforePooling) {
  // Regression: Snapshot::ReadPage used to publish a still-compressed
  // checkpoint frame into the shared pool. Pool images must always be
  // raw pages — the writer's FetchFrame trusts them — so the poisoned
  // entry surfaced as a corrupt interior page on the writer's next
  // descent through an evicted page. The pool holds two pages per
  // shard, so the reads below run under constant eviction, and an
  // evicted image must leave the pool entirely: what stays resident is
  // whole raw pages only.
  DbOptions opts;
  opts.env = &env_;
  opts.sync = false;
  opts.compression.mode = compress::CompressionOptions::Mode::kFast;
  opts.cache_pages = 8;  // force writer cache misses onto the pool
  opts.pool_bytes = BufferPool::kShards * 2 * kPageSize;
  constexpr uint64_t kRows = 2000;  // far more pages than the pool holds
  auto db = Db::Open("snapcomp.db", opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  BTree* tree = *(*db)->OpenOrCreateTree("t");
  ASSERT_TRUE((*db)->Begin().ok());
  for (uint64_t id = 0; id < kRows; ++id) {
    // Compressible URL-shaped values so the fold compresses the tree.
    ASSERT_TRUE(tree->Put(util::OrderedKeyU64(id),
                          util::StrFormat(
                              "https://example.com/page/%04llu/section",
                              (unsigned long long)id))
                    .ok());
  }
  ASSERT_TRUE((*db)->Commit().ok());
  ASSERT_TRUE((*db)->pager().Checkpoint().ok());
  ASSERT_GT((*db)->pager().stats().compressed_pages, 0u);

  {
    // Snapshot reads pull the compressed slots out of the main file and
    // publish every image they resolve into the shared pool.
    auto snap = (*db)->BeginRead();
    ASSERT_TRUE(snap.ok());
    BTree frozen = tree->BoundAt(**snap);
    for (uint64_t id = 0; id < kRows; ++id) {
      auto got = frozen.Get(util::OrderedKeyU64(id));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(*got, util::StrFormat("https://example.com/page/%04llu/section",
                                      (unsigned long long)id));
    }
  }
  // The writer (cache of 8 pages, long since evicted) now resolves its
  // descent through the images the snapshot published.
  EXPECT_EQ(*tree->Count(), kRows);
  EXPECT_EQ(*tree->Get(util::OrderedKeyU64(7)),
            "https://example.com/page/0007/section");
  EXPECT_GT((*db)->pager().stats().decompress_reads, 0u);
  const BufferPoolStats pool = (*db)->pager().buffer_pool()->stats();
  EXPECT_GT(pool.evictions, 0u);
  EXPECT_EQ(pool.bytes, pool.frames * kPageSize);
}

TEST_F(SnapshotTest, AutomaticCheckpointDefersWhileSnapshotLive) {
  // Tiny threshold: normally every commit would checkpoint.
  auto db = OpenDb(/*checkpoint_bytes=*/4096);
  BTree* tree = *db->OpenOrCreateTree("t");
  PutRange(*db, tree, 1, 51);
  const uint64_t folded_before = db->pager().stats().checkpoints;

  auto snap = db->BeginRead();
  ASSERT_TRUE(snap.ok());
  BTree frozen = tree->BoundAt(**snap);
  // Far past the threshold — every MaybeCheckpoint defers.
  PutRange(*db, tree, 51, 301);
  EXPECT_EQ(db->pager().stats().checkpoints, folded_before);
  // The pinned log keeps the frozen view intact.
  EXPECT_EQ(*frozen.Count(), 50u);

  snap->reset();  // release the pin
  PutRange(*db, tree, 301, 311);  // next commit re-arms the checkpoint
  EXPECT_GT(db->pager().stats().checkpoints, folded_before);
  EXPECT_EQ(*tree->Count(), 310u);
}

TEST_F(SnapshotTest, BoundHandlesRejectMutation) {
  auto db = OpenDb();
  BTree* tree = *db->OpenOrCreateTree("t");
  PutRange(*db, tree, 1, 3);
  auto snap = db->BeginRead();
  ASSERT_TRUE(snap.ok());
  BTree frozen = tree->BoundAt(**snap);
  EXPECT_THROW((void)frozen.Put("k", "v"), std::logic_error);
  EXPECT_THROW((void)frozen.Delete(util::OrderedKeyU64(1)),
               std::logic_error);
  EXPECT_THROW((void)frozen.FreeAllPages(), std::logic_error);
}

TEST_F(SnapshotTest, SharedPoolServesRepeatedReads) {
  // With the shared buffer pool (default), commit-time publication means
  // a snapshot's working set is already resident: repeated reads are all
  // pool hits, and the log/database file is never touched.
  auto db = OpenDb();
  BTree* tree = *db->OpenOrCreateTree("t");
  PutRange(*db, tree, 1, 101);
  auto snap = db->BeginRead();
  ASSERT_TRUE(snap.ok());
  BTree frozen = tree->BoundAt(**snap);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(*frozen.Count(), 100u);
  }
  SnapshotStats stats = (*snap)->stats();
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_EQ(stats.pages_read, 0u);
  EXPECT_GT(db->pager().stats().pool_hits, 0u);
}

TEST_F(SnapshotTest, PinnedPagesSurvivePoolThrashByteForByte) {
  // A pool whose budget is a handful of pages, thrashed hard while a
  // reader still holds page images (as every live PageView does): the
  // held bytes must stay byte-identical — eviction may forget a frame,
  // never free or mutate one in use.
  DbOptions opts;
  opts.env = &env_;
  opts.sync = false;
  opts.pool_bytes = BufferPool::kShards * 2 * kPageSize;
  auto db = Db::Open("snap_thrash.db", opts);
  ASSERT_TRUE(db.ok());
  BTree* tree = *(*db)->OpenOrCreateTree("t");
  PutRange(**db, tree, 1, 201);

  auto snap = (*db)->BeginRead();
  ASSERT_TRUE(snap.ok());

  // Pin every page of the frozen view and remember its bytes.
  std::vector<std::shared_ptr<const std::string>> pinned;
  std::vector<std::string> expected;
  for (PageId id = 1; id < (*snap)->page_count(); ++id) {
    auto page = (*snap)->ReadPage(id);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    pinned.push_back(*page);
    expected.push_back(**page);
  }

  // A cursor parked mid-iteration holds its own PageView across the
  // thrash below; it must resume on stable bytes.
  BTree frozen = tree->BoundAt(**snap);
  BTree::Cursor parked = frozen.NewCursor();
  parked.SeekFirst();
  for (int i = 0; i < 50 && parked.Valid(); ++i) parked.Next();
  ASSERT_TRUE(parked.Valid());

  // Thrash: hundreds of commits, each cycled through fresh snapshots so
  // the tiny pool evicts constantly.
  for (uint64_t batch = 0; batch < 30; ++batch) {
    PutRange(**db, tree, 1000 + batch * 50, 1000 + (batch + 1) * 50);
    auto churn = (*db)->BeginRead();
    ASSERT_TRUE(churn.ok());
    BTree churn_tree = tree->BoundAt(**churn);
    uint64_t rows = 0;
    BTree::Cursor cur = churn_tree.NewCursor();
    for (cur.SeekFirst(); cur.Valid(); cur.Next()) ++rows;
    ASSERT_GT(rows, 0u);
  }
  ASSERT_GT((*db)->pager().stats().pool_evictions, 0u);

  // Every pinned image is byte-for-byte what it was.
  for (size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(*pinned[i], expected[i]) << "page " << (i + 1);
  }
  // The parked cursor finishes its frozen view: exactly the original
  // 200 self-verifying rows.
  uint64_t seen = 51;
  for (; parked.Valid(); parked.Next()) ++seen;
  ASSERT_TRUE(parked.status().ok()) << parked.status().ToString();
  EXPECT_EQ(seen, 201u);
}

// Eviction-correctness stress (run under TSan in CI): kReaders threads
// cycle through kSnapshotsPerReader snapshots each, two full passes per
// snapshot, while the writer commits kBatches batches and the pool —
// squeezed to a few pages per shard — evicts on nearly every read.
// Self-verifying row values catch any torn, stale, or recycled image;
// matching per-pass digests catch instability within a snapshot.
TEST_F(SnapshotTest, MultiSnapshotReadsStayStableWhilePoolThrashes) {
  constexpr int kReaders = 4;
  constexpr uint64_t kBatches = 200;
  constexpr uint64_t kRowsPerBatch = 8;
  DbOptions opts;
  opts.env = &env_;
  opts.sync = false;
  opts.pool_bytes = BufferPool::kShards * 2 * kPageSize;  // thrash hard
  auto opened = Db::Open("snap_stress.db", opts);
  ASSERT_TRUE(opened.ok());
  Db& db = **opened;
  BTree* tree = *db.OpenOrCreateTree("t");
  PutRange(db, tree, 1, 257);

  std::atomic<bool> writer_done{false};
  std::mutex failures_mu;
  std::vector<std::string> failures;
  auto fail = [&](std::string what) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(std::move(what));
  };

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t snapshots_taken = 0;
      while (!writer_done.load(std::memory_order_acquire) ||
             snapshots_taken < 3) {
        auto snap = db.BeginRead();
        if (!snap.ok()) {
          fail("BeginRead: " + snap.status().ToString());
          return;
        }
        ++snapshots_taken;
        BTree frozen = tree->BoundAt(**snap);
        uint64_t counts[2] = {0, 0};
        uint64_t digests[2] = {0, 0};
        for (int pass = 0; pass < 2; ++pass) {
          BTree::Cursor cur = frozen.NewCursor();
          for (cur.SeekFirst(); cur.Valid(); cur.Next()) {
            const uint64_t id = util::DecodeOrderedKeyU64(cur.key());
            if (cur.value() != ValueFor(id)) {
              fail(util::StrFormat("reader %d: row %llu corrupt", r,
                                   (unsigned long long)id));
              return;
            }
            ++counts[pass];
            digests[pass] ^= util::Fnv1a64(cur.value()) * (counts[pass]);
          }
        }
        if (counts[0] != counts[1] || digests[0] != digests[1]) {
          fail(util::StrFormat("reader %d: passes disagree", r));
          return;
        }
      }
    });
  }

  uint64_t next_row = 1000;
  for (uint64_t batch = 0; batch < kBatches; ++batch) {
    PutRange(db, tree, next_row, next_row + kRowsPerBatch);
    next_row += kRowsPerBatch;
  }
  writer_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  // The squeeze was real: the pool evicted throughout.
  EXPECT_GT(db.pager().stats().pool_evictions, 0u);
}

// The acceptance stress: 4 reader threads iterate cursors over their
// own snapshots while the writer commits >= 1000 batches. Every batch
// stamps a generation sentinel (read through the same snapshot), the
// appended rows, and one overwritten victim row with the batch number,
// so a snapshot that wrongly serves a post-snapshot committed image is
// caught by its too-new generation tag — not just by a count mismatch.
// Each reader checks, per snapshot: (a) row values verify against
// their key-derived checksum and carry generation <= the sentinel's,
// (b) the row count matches the sentinel generation exactly (atomicity
// — a snapshot can never surface half a batch), (c) a second full pass
// returns byte-identical results (bit-stability), and (d) commit
// horizons never move backwards.
TEST_F(SnapshotTest, FourReadersSeeBitStableViewsDuringThousandCommits) {
  constexpr uint64_t kInitialRows = 256;
  constexpr uint64_t kBatches = 1000;
  constexpr uint64_t kRowsPerBatch = 2;
  constexpr int kReaders = 4;
  // Generation sentinel: one reserved key (sorts after every row id)
  // rewritten by every batch.
  const std::string gen_key = util::OrderedKeyU64(UINT64_MAX);
  auto gen_value = [](uint64_t id, uint64_t gen) {
    return ValueFor(id) + util::StrFormat(":g%llu", (unsigned long long)gen);
  };
  // Returns the generation suffix, or UINT64_MAX on malformed values.
  auto parse_gen = [](std::string_view value) -> uint64_t {
    size_t at = value.rfind(":g");
    if (at == std::string_view::npos) return UINT64_MAX;
    return std::strtoull(std::string(value.substr(at + 2)).c_str(),
                         nullptr, 10);
  };

  auto db = OpenDb();
  BTree* tree = *db->OpenOrCreateTree("t");
  ASSERT_TRUE(db->Begin().ok());
  for (uint64_t id = 1; id <= kInitialRows; ++id) {
    ASSERT_TRUE(
        tree->Put(util::OrderedKeyU64(id), gen_value(id, 0)).ok());
  }
  ASSERT_TRUE(tree->Put(gen_key, util::OrderedKeyU64(0)).ok());
  ASSERT_TRUE(db->Commit().ok());

  std::atomic<bool> writer_done{false};
  std::mutex failures_mu;
  std::vector<std::string> failures;
  auto fail = [&](std::string what) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(std::move(what));
  };

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_seq = 0;
      uint64_t snapshots_taken = 0;
      while (!writer_done.load(std::memory_order_acquire) ||
             snapshots_taken < 3) {
        auto snap = db->BeginRead();
        if (!snap.ok()) {
          fail("BeginRead: " + snap.status().ToString());
          return;
        }
        ++snapshots_taken;
        if ((*snap)->commit_seq() < last_seq) {
          fail(util::StrFormat("reader %d: commit_seq went backwards", r));
          return;
        }
        last_seq = (*snap)->commit_seq();
        BTree frozen = tree->BoundAt(**snap);

        // The generation this snapshot froze at, via the same snapshot.
        auto gen_raw = frozen.Get(gen_key);
        if (!gen_raw.ok()) {
          fail("sentinel: " + gen_raw.status().ToString());
          return;
        }
        const uint64_t frozen_gen = util::DecodeOrderedKeyU64(*gen_raw);

        uint64_t counts[2] = {0, 0};
        uint64_t digests[2] = {0, 0};
        for (int pass = 0; pass < 2; ++pass) {
          BTree::Cursor cur = frozen.NewCursor();
          for (cur.SeekFirst(); cur.Valid(); cur.Next()) {
            const uint64_t id = util::DecodeOrderedKeyU64(cur.key());
            if (id == UINT64_MAX) continue;  // the sentinel itself
            ++counts[pass];
            const std::string_view value = cur.value();
            const uint64_t row_gen = parse_gen(value);
            if (value.substr(0, ValueFor(id).size()) != ValueFor(id) ||
                row_gen == UINT64_MAX) {
              fail(util::StrFormat("reader %d: row %llu corrupt", r,
                                   (unsigned long long)id));
              return;
            }
            if (row_gen > frozen_gen) {
              fail(util::StrFormat(
                  "reader %d: row %llu from generation %llu leaked into "
                  "a generation-%llu snapshot",
                  r, (unsigned long long)id, (unsigned long long)row_gen,
                  (unsigned long long)frozen_gen));
              return;
            }
            digests[pass] = util::Fnv1a64(value, digests[pass] ^ id);
          }
          if (!cur.status().ok()) {
            fail("cursor: " + cur.status().ToString());
            return;
          }
        }
        if (counts[0] != counts[1] || digests[0] != digests[1]) {
          fail(util::StrFormat("reader %d: snapshot not bit-stable", r));
          return;
        }
        // The sentinel pins the exact expected row count: any stale or
        // too-new leaf image in the append region breaks this equality.
        if (counts[0] != kInitialRows + frozen_gen * kRowsPerBatch) {
          fail(util::StrFormat(
              "reader %d: saw %llu rows at generation %llu — a torn or "
              "mixed-version batch",
              r, (unsigned long long)counts[0],
              (unsigned long long)frozen_gen));
          return;
        }
        // Spot-check point lookups through the same snapshot.
        for (uint64_t id = 1; id <= counts[0]; id += counts[0] / 7 + 1) {
          auto got = frozen.Get(util::OrderedKeyU64(id));
          if (!got.ok() || parse_gen(*got) > frozen_gen) {
            fail(util::StrFormat("reader %d: point get %llu failed", r,
                                 (unsigned long long)id));
            return;
          }
        }
      }
    });
  }

  // The single writer: >= 1000 batch commits, each appending rows,
  // rewriting one old victim row, and bumping the generation sentinel —
  // all tagged with the batch's generation number.
  uint64_t next = kInitialRows + 1;
  for (uint64_t b = 1; b <= kBatches; ++b) {
    ASSERT_TRUE(db->Begin().ok());
    for (uint64_t i = 0; i < kRowsPerBatch; ++i, ++next) {
      ASSERT_TRUE(
          tree->Put(util::OrderedKeyU64(next), gen_value(next, b)).ok());
    }
    const uint64_t victim = 1 + b % kInitialRows;
    ASSERT_TRUE(
        tree->Put(util::OrderedKeyU64(victim), gen_value(victim, b)).ok());
    ASSERT_TRUE(tree->Put(gen_key, util::OrderedKeyU64(b)).ok());
    ASSERT_TRUE(db->Commit().ok());
  }
  writer_done.store(true, std::memory_order_release);

  for (std::thread& t : readers) t.join();
  for (const std::string& what : failures) ADD_FAILURE() << what;
  // +1 for the generation sentinel.
  EXPECT_EQ(*tree->Count(), kInitialRows + kBatches * kRowsPerBatch + 1);
  EXPECT_EQ(db->pager().live_snapshots(), 0u);
}

}  // namespace
}  // namespace bp::storage
