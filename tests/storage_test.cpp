// Unit tests for the storage engine: env, pager (transactions, rollback,
// freelist, eviction), btree basics, db catalog, typed tables, indexes.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "obs/metrics.hpp"
#include "storage/btree.hpp"
#include "storage/db.hpp"
#include "storage/env.hpp"
#include "storage/pager.hpp"
#include "storage/table.hpp"
#include "util/serde.hpp"

namespace bp::storage {
namespace {

using util::OrderedKeyU64;
using util::Reader;
using util::Result;
using util::Status;
using util::Writer;

// ----------------------------------------------------------------- env

TEST(MemEnvTest, WriteReadRoundTrip) {
  MemEnv env;
  auto file = env.Open("f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Write(0, "hello world").ok());
  std::string out;
  ASSERT_TRUE((*file)->Read(6, 5, &out).ok());
  EXPECT_EQ(out, "world");
}

TEST(MemEnvTest, SharedContentAcrossHandles) {
  MemEnv env;
  auto a = env.Open("f");
  auto b = env.Open("f");
  ASSERT_TRUE((*a)->Write(0, "xyz").ok());
  std::string out;
  ASSERT_TRUE((*b)->Read(0, 3, &out).ok());
  EXPECT_EQ(out, "xyz");
}

TEST(MemEnvTest, ReadPastEofIsOutOfRange) {
  MemEnv env;
  auto file = env.Open("f");
  std::string out;
  EXPECT_EQ((*file)->Read(0, 1, &out).code(),
            util::StatusCode::kOutOfRange);
}

TEST(MemEnvTest, SnapshotRestore) {
  MemEnv env;
  auto file = env.Open("f");
  ASSERT_TRUE((*file)->Write(0, "before").ok());
  auto snap = env.SnapshotAll();
  ASSERT_TRUE((*file)->Write(0, "after!").ok());
  env.RestoreAll(snap);
  auto reopened = env.Open("f");
  std::string out;
  ASSERT_TRUE((*reopened)->Read(0, 6, &out).ok());
  EXPECT_EQ(out, "before");
}

TEST(MemEnvTest, RemoveAndExists) {
  MemEnv env;
  (void)env.Open("f");
  EXPECT_TRUE(env.Exists("f"));
  ASSERT_TRUE(env.Remove("f").ok());
  EXPECT_FALSE(env.Exists("f"));
}

TEST(MemEnvTest, SnapshotMidWriteRestoresExactPreWriteBytes) {
  // The WAL crash-injection property test depends on snapshots being
  // byte-exact: a snapshot taken between two writes of one logical
  // operation must restore to exactly the bytes the first write left.
  MemEnv env;
  auto file = env.Open("f");
  ASSERT_TRUE((*file)->Write(0, "aaaaaaaaaa").ok());
  ASSERT_TRUE((*file)->Write(4, "BB").ok());  // mid-file overwrite
  auto snap = env.SnapshotAll();

  // Whatever happens afterwards — more overwrites, truncation, removal
  // — restore must return the exact mid-write state.
  ASSERT_TRUE((*file)->Write(2, "zzzzzzzzzzzzzz").ok());
  ASSERT_TRUE((*file)->Truncate(3).ok());
  ASSERT_TRUE(env.Remove("f").ok());
  env.RestoreAll(snap);

  auto reopened = env.Open("f");
  auto size = (*reopened)->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 10u);
  std::string out;
  ASSERT_TRUE((*reopened)->Read(0, 10, &out).ok());
  EXPECT_EQ(out, "aaaaBBaaaa");
}

TEST(MemEnvTest, ShortReadMidFileIsIoErrorNotOutOfRange) {
  // File::Read contract (env.hpp): at-or-past EOF -> OutOfRange; a read
  // that STARTS in range but cannot be satisfied in full -> IoError.
  // WAL tail scanning relies on the distinction to classify torn frames.
  MemEnv env;
  auto file = env.Open("f");
  ASSERT_TRUE((*file)->Write(0, "0123456789").ok());
  std::string out;
  // Starts mid-file, runs past EOF: short read.
  EXPECT_EQ((*file)->Read(5, 10, &out).code(), util::StatusCode::kIoError);
  // Starts exactly at EOF: out of range.
  EXPECT_EQ((*file)->Read(10, 1, &out).code(),
            util::StatusCode::kOutOfRange);
  // Starts past EOF: out of range.
  EXPECT_EQ((*file)->Read(12, 1, &out).code(),
            util::StatusCode::kOutOfRange);
  // Exactly-at-boundary read succeeds.
  ASSERT_TRUE((*file)->Read(5, 5, &out).ok());
  EXPECT_EQ(out, "56789");
}

TEST(MemEnvTest, OpLogRecordsAndReplaysWriteSequence) {
  MemEnv env;
  auto file = env.Open("f");
  ASSERT_TRUE((*file)->Write(0, "base").ok());
  auto base = env.SnapshotAll();

  env.StartOpLog();
  ASSERT_TRUE((*file)->Write(4, "-one").ok());
  ASSERT_TRUE((*file)->Write(8, "-two").ok());
  ASSERT_TRUE((*file)->Truncate(10).ok());
  auto ops = env.StopOpLog();
  ASSERT_EQ(ops.size(), 3u);

  // Replaying a prefix reproduces the intermediate state...
  env.RestoreAll(base);
  ASSERT_TRUE(env.ApplyOps(ops, 1).ok());
  std::string out;
  auto f = env.Open("f");
  ASSERT_TRUE((*f)->Read(0, 8, &out).ok());
  EXPECT_EQ(out, "base-one");

  // ...and a torn final write applies only its leading bytes.
  env.RestoreAll(base);
  ASSERT_TRUE(env.ApplyOps(ops, 1, /*partial_bytes_of_last=*/2).ok());
  f = env.Open("f");
  ASSERT_TRUE((*f)->Read(0, 10, &out).ok());
  EXPECT_EQ(out, "base-one-t");
}

TEST(PosixEnvTest, ShortReadMidFileIsIoErrorNotOutOfRange) {
  // Same contract as MemEnv, against the real filesystem (a scratch
  // file in the test binary's working directory).
  Env* env = Env::Posix();
  const std::string path = "posix_env_short_read.tmp";
  auto file = env->Open(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Truncate(0).ok());
  ASSERT_TRUE((*file)->Write(0, "0123456789").ok());
  std::string out;
  EXPECT_EQ((*file)->Read(5, 10, &out).code(), util::StatusCode::kIoError);
  EXPECT_EQ((*file)->Read(10, 1, &out).code(),
            util::StatusCode::kOutOfRange);
  ASSERT_TRUE((*file)->Read(5, 5, &out).ok());
  EXPECT_EQ(out, "56789");
  ASSERT_TRUE(env->Remove(path).ok());
}

// --------------------------------------------------------------- pager

class PagerTest : public ::testing::Test {
 protected:
  std::unique_ptr<Pager> OpenPager() {
    PagerOptions opts;
    opts.env = &env_;
    auto pager = Pager::Open("db", opts);
    EXPECT_TRUE(pager.ok()) << pager.status().ToString();
    return std::move(*pager);
  }
  MemEnv env_;
};

TEST_F(PagerTest, FreshDbHasHeaderPage) {
  auto pager = OpenPager();
  EXPECT_EQ(pager->page_count(), 1u);
  EXPECT_EQ(pager->catalog_root(), kNoPage);
}

TEST_F(PagerTest, AllocateWriteCommitPersists) {
  {
    auto pager = OpenPager();
    ASSERT_TRUE(pager->Begin().ok());
    auto id = pager->Allocate();
    ASSERT_TRUE(id.ok());
    auto ref = pager->GetMutable(*id);
    ASSERT_TRUE(ref.ok());
    ref->mutable_data()[0] = 'Z';
    ASSERT_TRUE(pager->Commit().ok());
  }
  {
    auto pager = OpenPager();
    EXPECT_EQ(pager->page_count(), 2u);
    auto ref = pager->Get(1);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data()[0], 'Z');
  }
}

TEST_F(PagerTest, RollbackRestoresPageAndHeader) {
  auto pager = OpenPager();
  ASSERT_TRUE(pager->Begin().ok());
  auto id = pager->Allocate();
  ASSERT_TRUE(id.ok());
  {
    auto ref = pager->GetMutable(*id);
    ref->mutable_data()[0] = 'A';
  }
  ASSERT_TRUE(pager->Commit().ok());

  ASSERT_TRUE(pager->Begin().ok());
  {
    auto ref = pager->GetMutable(*id);
    ref->mutable_data()[0] = 'B';
  }
  auto extra = pager->Allocate();
  ASSERT_TRUE(extra.ok());
  ASSERT_TRUE(pager->Rollback().ok());

  EXPECT_EQ(pager->page_count(), 2u);  // the extra page is gone
  auto ref = pager->Get(*id);
  EXPECT_EQ(ref->data()[0], 'A');
}

TEST_F(PagerTest, FreelistReusesPages) {
  auto pager = OpenPager();
  ASSERT_TRUE(pager->Begin().ok());
  auto a = pager->Allocate();
  auto b = pager->Allocate();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(pager->Free(*a).ok());
  EXPECT_EQ(pager->freelist_length(), 1u);
  auto c = pager->Allocate();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);  // reused
  EXPECT_EQ(pager->freelist_length(), 0u);
  ASSERT_TRUE(pager->Commit().ok());
}

TEST_F(PagerTest, MutationOutsideTransactionThrows) {
  auto pager = OpenPager();
  EXPECT_THROW((void)pager->GetMutable(0), std::logic_error);
  EXPECT_THROW((void)pager->Allocate(), std::logic_error);
}

TEST_F(PagerTest, EvictionKeepsDataCorrect) {
  PagerOptions opts;
  opts.env = &env_;
  opts.cache_pages = 8;  // tiny cache to force eviction
  auto pager_or = Pager::Open("db", opts);
  ASSERT_TRUE(pager_or.ok());
  auto& pager = *pager_or;
  ASSERT_TRUE(pager->Begin().ok());
  std::vector<PageId> ids;
  for (int i = 0; i < 64; ++i) {
    auto id = pager->Allocate();
    ASSERT_TRUE(id.ok());
    auto ref = pager->GetMutable(*id);
    ref->mutable_data()[0] = static_cast<char>('a' + (i % 26));
    ids.push_back(*id);
  }
  ASSERT_TRUE(pager->Commit().ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto ref = pager->Get(ids[i]);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data()[0], static_cast<char>('a' + (i % 26)));
  }
  EXPECT_GT(pager->stats().evictions, 0u);
}

// --------------------------------------------------------------- btree

class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PagerOptions opts;
    opts.env = &env_;
    auto pager = Pager::Open("db", opts);
    ASSERT_TRUE(pager.ok());
    pager_ = std::move(*pager);
    ASSERT_TRUE(pager_->Begin().ok());
    auto root = BTree::Create(*pager_);
    ASSERT_TRUE(root.ok());
    ASSERT_TRUE(pager_->Commit().ok());
    tree_ = std::make_unique<BTree>(*pager_, *root);
  }

  MemEnv env_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, PutGetSingle) {
  ASSERT_TRUE(tree_->Put("key", "value").ok());
  auto v = tree_->Get("key");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "value");
}

TEST_F(BTreeTest, GetMissingIsNotFound) {
  EXPECT_TRUE(tree_->Get("nope").status().IsNotFound());
  auto c = tree_->Contains("nope");
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(*c);
}

TEST_F(BTreeTest, PutReplacesValue) {
  ASSERT_TRUE(tree_->Put("k", "v1").ok());
  ASSERT_TRUE(tree_->Put("k", "v2").ok());
  EXPECT_EQ(*tree_->Get("k"), "v2");
  EXPECT_EQ(*tree_->Count(), 1u);
}

TEST_F(BTreeTest, DeleteRemovesKey) {
  ASSERT_TRUE(tree_->Put("k", "v").ok());
  ASSERT_TRUE(tree_->Delete("k").ok());
  EXPECT_TRUE(tree_->Get("k").status().IsNotFound());
  EXPECT_TRUE(tree_->Delete("k").IsNotFound());
}

TEST_F(BTreeTest, ManyKeysSplitAndRemainSorted) {
  const int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    std::string key = OrderedKeyU64(static_cast<uint64_t>(i * 7 % kN));
    ASSERT_TRUE(tree_->Put(key, "v" + std::to_string(i)).ok());
  }
  // i*7 mod 2000 is not a permutation (gcd(7,2000)=1, it is); count once.
  EXPECT_EQ(*tree_->Count(), static_cast<uint64_t>(kN));
  std::string prev;
  uint64_t seen = 0;
  BTree::Cursor cur = tree_->NewCursor();
  for (cur.SeekFirst(); cur.Valid(); cur.Next()) {
    if (seen > 0) {
      EXPECT_LT(prev, cur.key());
    }
    prev = std::string(cur.key());
    ++seen;
  }
  ASSERT_TRUE(cur.status().ok());
  EXPECT_EQ(seen, static_cast<uint64_t>(kN));
  auto stats = tree_->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->depth, 1u);  // must have split
}

TEST_F(BTreeTest, LargeValuesUseOverflowPages) {
  std::string big(100000, 'x');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i % 26));
  }
  ASSERT_TRUE(tree_->Put("big", big).ok());
  auto v = tree_->Get("big");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, big);
  auto stats = tree_->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->overflow_pages, 20u);
  EXPECT_EQ(stats->value_bytes, big.size());

  // Replacing with a small value must free the chain.
  ASSERT_TRUE(tree_->Put("big", "small").ok());
  stats = tree_->Stats();
  EXPECT_EQ(stats->overflow_pages, 0u);
  EXPECT_GT(pager_->freelist_length(), 20u);
}

TEST_F(BTreeTest, RangeScan) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        tree_->Put(OrderedKeyU64(static_cast<uint64_t>(i)), "v").ok());
  }
  int count = 0;
  BTree::Cursor cur = tree_->NewCursor();
  for (cur.SeekRange(OrderedKeyU64(10), OrderedKeyU64(20)); cur.Valid();
       cur.Next()) {
    uint64_t id = util::DecodeOrderedKeyU64(cur.key());
    EXPECT_GE(id, 10u);
    EXPECT_LT(id, 20u);
    ++count;
  }
  ASSERT_TRUE(cur.status().ok());
  EXPECT_EQ(count, 10);
}

TEST_F(BTreeTest, PrefixScan) {
  ASSERT_TRUE(tree_->Put("app", "1").ok());
  ASSERT_TRUE(tree_->Put("apple", "2").ok());
  ASSERT_TRUE(tree_->Put("applesauce", "3").ok());
  ASSERT_TRUE(tree_->Put("banana", "4").ok());
  std::vector<std::string> keys;
  BTree::Cursor cur = tree_->NewCursor();
  for (cur.SeekPrefix("apple"); cur.Valid(); cur.Next()) {
    keys.emplace_back(cur.key());
  }
  ASSERT_TRUE(cur.status().ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"apple", "applesauce"}));
}

TEST_F(BTreeTest, DeleteAllKeysLeavesEmptyTree) {
  const int kN = 1200;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree_
                    ->Put(OrderedKeyU64(static_cast<uint64_t>(i)),
                          std::string(64, 'v'))
                    .ok());
  }
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(
        tree_->Delete(OrderedKeyU64(static_cast<uint64_t>(i))).ok())
        << "delete " << i;
  }
  EXPECT_EQ(*tree_->Count(), 0u);
  // Pages from emptied leaves should be back on the freelist.
  EXPECT_GT(pager_->freelist_length(), 0u);
  // Tree must still accept inserts.
  ASSERT_TRUE(tree_->Put("again", "works").ok());
  EXPECT_EQ(*tree_->Get("again"), "works");
}

TEST_F(BTreeTest, PersistsAcrossReopen) {
  PageId root = tree_->root();
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree_
                    ->Put("key" + std::to_string(i),
                          "value" + std::to_string(i))
                    .ok());
  }
  tree_.reset();
  pager_.reset();

  PagerOptions opts;
  opts.env = &env_;
  auto pager = Pager::Open("db", opts);
  ASSERT_TRUE(pager.ok());
  BTree tree(**pager, root);
  for (int i = 0; i < 500; ++i) {
    auto v = tree.Get("key" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, "value" + std::to_string(i));
  }
}

TEST_F(BTreeTest, RejectsInvalidKeys) {
  EXPECT_THROW((void)tree_->Put("", "v"), std::logic_error);
  EXPECT_THROW((void)tree_->Put(std::string(kMaxKeySize + 1, 'k'), "v"),
               std::logic_error);
}

TEST_F(BTreeTest, FreeAllPagesReturnsSpace) {
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree_
                    ->Put(OrderedKeyU64(static_cast<uint64_t>(i)),
                          std::string(100, 'x'))
                    .ok());
  }
  uint32_t pages_before_free = pager_->page_count();
  ASSERT_TRUE(tree_->FreeAllPages().ok());
  // All tree pages (including the root) are on the freelist now.
  EXPECT_EQ(pager_->freelist_length() + 1, pages_before_free);
}

// Point reads of every model key, then one ordered scan of the tree.
void ExpectTreeEquals(const BTree& tree,
                      const std::map<std::string, std::string>& model) {
  for (const auto& [key, value] : model) {
    auto got = tree.Get(key);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, value);
  }
  auto it = model.begin();
  BTree::Cursor cur = tree.NewCursor();
  for (cur.SeekFirst(); cur.Valid(); cur.Next()) {
    EXPECT_NE(it, model.end());
    if (it == model.end()) break;
    EXPECT_EQ(cur.key(), it->first);
    EXPECT_EQ(cur.value(), it->second);
    ++it;
  }
  ASSERT_TRUE(cur.status().ok());
  EXPECT_EQ(it, model.end());
}

uint64_t Compactions() {
  return obs::MetricsRegistry::Global()
      .GetCounter("bp_btree_compactions", "", "")
      ->value();
}

// A rewrite that does not grow its cell happens in place, the tail of a
// shortened cell counted as frag, and a cell that grows back fits in the
// frag a compaction reclaims. Leaves filled by sequential appends, as a
// Table fills them, keep their shape through three rewrites of every key
// in one transaction; the transaction rolls back to the original values,
// and a committed run survives log recovery and a checkpoint.
TEST_F(BTreeTest, RewritesInPlaceKeepPagesRollBackAndRecover) {
  constexpr uint64_t kKeys = 400;  // several full leaves
  const PageId root = tree_->root();
  // `len` bytes naming the key and the phase.
  auto value_for = [](uint64_t k, char phase, size_t len) {
    std::string v = phase + std::to_string(k);
    v.resize(len, phase);
    return v;
  };
  auto put_all = [&](char phase, size_t len) {
    std::map<std::string, std::string> model;
    for (uint64_t k = 1; k <= kKeys; ++k) {
      const std::string key = OrderedKeyU64(k);
      model[key] = value_for(k, phase, len);
      EXPECT_TRUE(tree_->Put(key, model[key]).ok()) << k;
    }
    return model;
  };

  ASSERT_TRUE(pager_->Begin().ok());
  const auto original = put_all('a', 40);
  ASSERT_TRUE(pager_->Commit().ok());
  const auto shape = tree_->Stats();
  ASSERT_TRUE(shape.ok());
  ASSERT_GE(shape->leaf_pages, 3u);
  ASSERT_EQ(shape->interior_pages, 1u);
  auto expect_shape = [&] {
    auto stats = tree_->Stats();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->leaf_pages, shape->leaf_pages);
    EXPECT_EQ(stats->interior_pages, shape->interior_pages);
    EXPECT_EQ(stats->cells, kKeys);
  };
  auto rewrite_three_times = [&] {
    const uint64_t before = Compactions();
    ExpectTreeEquals(*tree_, put_all('b', 40));  // equal size
    expect_shape();
    ExpectTreeEquals(*tree_, put_all('c', 12));  // shorter
    expect_shape();
    EXPECT_EQ(Compactions(), before) << "an in-place rewrite repacked a page";
    auto regrown = put_all('d', 40);  // the original length again
    ExpectTreeEquals(*tree_, regrown);
    expect_shape();  // the regrow fit in the reclaimed frag: no split
    EXPECT_GT(Compactions(), before);
    return regrown;
  };

  ASSERT_TRUE(pager_->Begin().ok());
  rewrite_three_times();
  ASSERT_TRUE(pager_->Rollback().ok());
  ExpectTreeEquals(*tree_, original);
  expect_shape();

  ASSERT_TRUE(pager_->Begin().ok());
  const auto committed = rewrite_three_times();
  ASSERT_TRUE(pager_->Commit().ok());

  auto reopen = [&] {
    PagerOptions opts;
    opts.env = &env_;
    auto pager = Pager::Open("db", opts);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    pager_ = std::move(*pager);
    tree_ = std::make_unique<BTree>(*pager_, root);
  };
  // Power loss instead of a clean close: Open replays the log.
  const auto files = env_.SnapshotAll();
  tree_.reset();
  pager_.reset();
  env_.RestoreAll(files);
  reopen();
  ExpectTreeEquals(*tree_, committed);
  ASSERT_TRUE(pager_->Checkpoint().ok());
  ExpectTreeEquals(*tree_, committed);
  // Only the database file the checkpoint folded remains.
  tree_.reset();
  pager_.reset();
  reopen();
  ExpectTreeEquals(*tree_, committed);
  expect_shape();
}

// ------------------------------------------------------------------ db

TEST(DbTest, CreateOpenRoundTrip) {
  MemEnv env;
  DbOptions opts;
  opts.env = &env;
  auto db = Db::Open("test.db", opts);
  ASSERT_TRUE(db.ok());
  auto tree = (*db)->CreateTree("mytree");
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE((*tree)->Put("k", "v").ok());

  EXPECT_TRUE((*db)->CreateTree("mytree").status().code() ==
              util::StatusCode::kAlreadyExists);

  auto again = (*db)->OpenTree("mytree");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*tree, *again);  // same handle
  EXPECT_TRUE((*db)->OpenTree("missing").status().IsNotFound());
}

TEST(DbTest, TreesSurviveReopen) {
  MemEnv env;
  DbOptions opts;
  opts.env = &env;
  {
    auto db = Db::Open("test.db", opts);
    ASSERT_TRUE(db.ok());
    auto tree = (*db)->CreateTree("t1");
    ASSERT_TRUE(tree.ok());
    ASSERT_TRUE((*tree)->Put("persist", "yes").ok());
  }
  {
    auto db = Db::Open("test.db", opts);
    ASSERT_TRUE(db.ok());
    auto tree = (*db)->OpenTree("t1");
    ASSERT_TRUE(tree.ok());
    EXPECT_EQ(*(*tree)->Get("persist"), "yes");
  }
}

TEST(DbTest, ListAndDropTrees) {
  MemEnv env;
  DbOptions opts;
  opts.env = &env;
  auto db = Db::Open("test.db", opts);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTree("b").ok());
  ASSERT_TRUE((*db)->CreateTree("a").ok());
  auto names = (*db)->ListTrees();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"a", "b"}));

  ASSERT_TRUE((*db)->DropTree("a").ok());
  names = (*db)->ListTrees();
  EXPECT_EQ(*names, (std::vector<std::string>{"b"}));
  EXPECT_TRUE((*db)->OpenTree("a").status().IsNotFound());
}

TEST(DbTest, MultiTreeTransactionIsAtomic) {
  MemEnv env;
  DbOptions opts;
  opts.env = &env;
  auto db = Db::Open("test.db", opts);
  ASSERT_TRUE(db.ok());
  auto t1 = (*db)->CreateTree("t1");
  auto t2 = (*db)->CreateTree("t2");
  ASSERT_TRUE(t1.ok() && t2.ok());

  ASSERT_TRUE((*db)->Begin().ok());
  ASSERT_TRUE((*t1)->Put("a", "1").ok());
  ASSERT_TRUE((*t2)->Put("b", "2").ok());
  ASSERT_TRUE((*db)->Rollback().ok());

  EXPECT_TRUE((*t1)->Get("a").status().IsNotFound());
  EXPECT_TRUE((*t2)->Get("b").status().IsNotFound());

  ASSERT_TRUE((*db)->Begin().ok());
  ASSERT_TRUE((*t1)->Put("a", "1").ok());
  ASSERT_TRUE((*t2)->Put("b", "2").ok());
  ASSERT_TRUE((*db)->Commit().ok());
  EXPECT_EQ(*(*t1)->Get("a"), "1");
  EXPECT_EQ(*(*t2)->Get("b"), "2");
}

TEST(DbTest, SpaceReportCoversTrees) {
  MemEnv env;
  DbOptions opts;
  opts.env = &env;
  auto db = Db::Open("test.db", opts);
  ASSERT_TRUE(db.ok());
  auto t1 = (*db)->CreateTree("places.visits");
  auto t2 = (*db)->CreateTree("prov.nodes");
  ASSERT_TRUE(t1.ok() && t2.ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        (*t1)->Put(OrderedKeyU64(static_cast<uint64_t>(i)), "visit").ok());
    ASSERT_TRUE((*t2)
                    ->Put(OrderedKeyU64(static_cast<uint64_t>(i)),
                          "node-with-longer-payload")
                    .ok());
  }
  auto space = (*db)->Space();
  ASSERT_TRUE(space.ok());
  EXPECT_EQ(space->trees.size(), 2u);
  EXPECT_GT(space->BytesForPrefix("places."), 0u);
  EXPECT_GT(space->BytesForPrefix("prov."), 0u);
  EXPECT_EQ(space->BytesForPrefix("nothing."), 0u);
  EXPECT_GE(space->file_bytes,
            space->BytesForPrefix("places.") + space->BytesForPrefix("prov."));
}

TEST(DbTest, CompressedCheckpointSurvivesReopenAndModeSwitch) {
  // The storage diet's durability contract: pages compressed into
  // checkpoint slots must read back exactly across reopen — including a
  // reopen with compression OFF, because frames are self-describing
  // (the read path never consults the knob to decode).
  MemEnv env;
  DbOptions opts;
  opts.env = &env;
  opts.compression.mode = compress::CompressionOptions::Mode::kFast;

  std::map<std::string, std::string> model;
  uint64_t logical_bytes = 0;
  uint64_t disk_bytes = 0;
  {
    auto db = Db::Open("c.db", opts);
    ASSERT_TRUE(db.ok());
    auto tree = (*db)->CreateTree("t");
    ASSERT_TRUE(tree.ok());
    for (int i = 0; i < 400; ++i) {
      std::string key = OrderedKeyU64(static_cast<uint64_t>(i));
      std::string value = "https://example.com/articles/" +
                          std::to_string(i % 13) + "/page?visit=" +
                          std::to_string(i) + std::string(64, 'p');
      ASSERT_TRUE((*tree)->Put(key, value).ok());
      model[key] = value;
    }
    ASSERT_TRUE((*db)->pager().Checkpoint().ok());
    PagerStats stats = (*db)->pager().stats();
    EXPECT_GT(stats.compressed_pages, 0u);
    EXPECT_LT(stats.compressed_bytes, stats.compressible_raw_bytes);
    auto space = (*db)->Space();
    ASSERT_TRUE(space.ok());
    ASSERT_EQ(space->trees.size(), 1u);
    logical_bytes = space->trees[0].stats.TotalBytes();
    disk_bytes = space->trees[0].stats.disk_bytes;
    EXPECT_LT(disk_bytes, logical_bytes)
        << "compressed slots must shrink the physical footprint";
  }

  // Reopen with compression off: every compressed slot must still
  // decode, and new checkpoints simply write raw slots alongside.
  opts.compression.mode = compress::CompressionOptions::Mode::kOff;
  {
    auto db = Db::Open("c.db", opts);
    ASSERT_TRUE(db.ok());
    auto tree = (*db)->OpenTree("t");
    ASSERT_TRUE(tree.ok());
    for (const auto& [key, value] : model) {
      auto got = (*tree)->Get(key);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, value);
    }
    EXPECT_GT((*db)->pager().stats().decompress_reads, 0u)
        << "reads of compressed slots must be visible in the stats";
    // Mutate and fold again with the diet off: mixed raw/compressed
    // slots in one file.
    std::string extra_key = OrderedKeyU64(uint64_t{10'000});
    ASSERT_TRUE((*tree)->Put(extra_key, std::string(200, 'z')).ok());
    model[extra_key] = std::string(200, 'z');
    ASSERT_TRUE((*db)->pager().Checkpoint().ok());
  }
  {
    auto db = Db::Open("c.db", opts);
    ASSERT_TRUE(db.ok());
    auto tree = (*db)->OpenTree("t");
    ASSERT_TRUE(tree.ok());
    for (const auto& [key, value] : model) {
      auto got = (*tree)->Get(key);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, value);
    }
  }
}

// --------------------------------------------------------------- table

struct TestRow {
  std::string name;
  int64_t score = 0;
};

}  // namespace

template <>
struct RowCodec<TestRow> {
  static void Encode(const TestRow& row, util::Writer& w) {
    w.PutString(row.name);
    w.PutSignedVarint64(row.score);
  }
  static util::Result<TestRow> Decode(util::Reader& r) {
    TestRow row;
    row.name = std::string(r.ReadString());
    row.score = r.ReadSignedVarint64();
    return row;
  }
};

namespace {

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DbOptions opts;
    opts.env = &env_;
    auto db = Db::Open("test.db", opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto tree = db_->CreateTree("rows");
    ASSERT_TRUE(tree.ok());
    table_ = std::make_unique<Table<TestRow>>(*tree);
  }

  MemEnv env_;
  std::unique_ptr<Db> db_;
  std::unique_ptr<Table<TestRow>> table_;
};

TEST_F(TableTest, InsertAssignsSequentialIds) {
  auto id1 = table_->Insert({"alice", 10});
  auto id2 = table_->Insert({"bob", 20});
  ASSERT_TRUE(id1.ok() && id2.ok());
  EXPECT_EQ(*id1, 1u);
  EXPECT_EQ(*id2, 2u);
  EXPECT_EQ(table_->Get(1)->name, "alice");
  EXPECT_EQ(table_->Get(2)->score, 20);
}

TEST_F(TableTest, CountExcludesAllocatorCell) {
  EXPECT_EQ(*table_->Count(), 0u);
  ASSERT_TRUE(table_->Insert({"x", 1}).ok());
  EXPECT_EQ(*table_->Count(), 1u);
}

TEST_F(TableTest, DeleteDoesNotReuseIds) {
  ASSERT_TRUE(table_->Insert({"a", 1}).ok());
  ASSERT_TRUE(table_->Delete(1).ok());
  auto id = table_->Insert({"b", 2});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 2u);
  EXPECT_TRUE(table_->Get(1).status().IsNotFound());
}

TEST_F(TableTest, ScanVisitsInIdOrder) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(table_->Insert({"n" + std::to_string(i), i}).ok());
  }
  uint64_t expected = 1;
  Table<TestRow>::Cursor cur = table_->Scan();
  for (; cur.Valid(); cur.Next()) {
    auto row = cur.row();
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(cur.id(), expected);
    EXPECT_EQ(row->score, static_cast<int64_t>(expected - 1));
    ++expected;
  }
  ASSERT_TRUE(cur.status().ok());
  EXPECT_EQ(expected, 51u);
}

TEST_F(TableTest, RejectsReservedId) {
  EXPECT_THROW((void)table_->Put(0, {"zero", 0}), std::logic_error);
}

// --------------------------------------------------------------- index

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DbOptions opts;
    opts.env = &env_;
    auto db = Db::Open("test.db", opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto tree = db_->CreateTree("idx");
    ASSERT_TRUE(tree.ok());
    tree_ = *tree;
    index_ = std::make_unique<Index>(tree_);
  }

  // Reads the index tree itself. An entry is key + '\0' + big-endian
  // row id, so the 8 last bytes are the id.
  std::vector<uint64_t> Lookup(std::string_view key) {
    std::vector<uint64_t> ids;
    BTree::Cursor cur = tree_->NewCursor();
    for (cur.SeekPrefix(std::string(key) + '\0'); cur.Valid(); cur.Next()) {
      ids.push_back(
          util::DecodeOrderedKeyU64(cur.key().substr(cur.key().size() - 8)));
    }
    EXPECT_TRUE(cur.status().ok());
    return ids;
  }

  MemEnv env_;
  std::unique_ptr<Db> db_;
  BTree* tree_ = nullptr;
  std::unique_ptr<Index> index_;
};

TEST_F(IndexTest, MultiMapSemantics) {
  ASSERT_TRUE(index_->Add("wine", 3).ok());
  ASSERT_TRUE(index_->Add("wine", 1).ok());
  ASSERT_TRUE(index_->Add("water", 2).ok());
  EXPECT_EQ(Lookup("wine"), (std::vector<uint64_t>{1, 3}));
  EXPECT_EQ(Lookup("water"), (std::vector<uint64_t>{2}));
  EXPECT_EQ(Lookup("beer"), (std::vector<uint64_t>{}));
}

TEST_F(IndexTest, ExactMatchDoesNotBleedIntoLongerKeys) {
  ASSERT_TRUE(index_->Add("win", 1).ok());
  ASSERT_TRUE(index_->Add("wine", 2).ok());
  EXPECT_EQ(Lookup("win"), (std::vector<uint64_t>{1}));
}

TEST_F(IndexTest, RemoveSpecificEntry) {
  ASSERT_TRUE(index_->Add("k", 1).ok());
  ASSERT_TRUE(index_->Add("k", 2).ok());
  ASSERT_TRUE(index_->Remove("k", 1).ok());
  EXPECT_EQ(Lookup("k"), (std::vector<uint64_t>{2}));
  EXPECT_TRUE(index_->Remove("k", 99).IsNotFound());
}

TEST_F(IndexTest, PrefixIterationYieldsKeysAndIds) {
  ASSERT_TRUE(index_->Add("apple", 1).ok());
  ASSERT_TRUE(index_->Add("apricot", 2).ok());
  ASSERT_TRUE(index_->Add("banana", 3).ok());
  std::vector<std::pair<std::string, uint64_t>> got;
  BTree::Cursor cur = tree_->NewCursor();
  for (cur.SeekPrefix("ap"); cur.Valid(); cur.Next()) {
    std::string_view entry = cur.key();  // key + '\0' + row id
    got.emplace_back(
        std::string(entry.substr(0, entry.size() - 9)),
        util::DecodeOrderedKeyU64(entry.substr(entry.size() - 8)));
  }
  ASSERT_TRUE(cur.status().ok());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<std::string, uint64_t>{"apple", 1}));
  EXPECT_EQ(got[1], (std::pair<std::string, uint64_t>{"apricot", 2}));
}

TEST_F(IndexTest, RejectsNulInKeys) {
  EXPECT_THROW((void)index_->Add(std::string("a\0b", 3), 1),
               std::logic_error);
}

}  // namespace
}  // namespace bp::storage
