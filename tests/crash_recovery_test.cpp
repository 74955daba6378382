// Crash recovery of the one WAL stream under interleaved workloads.
//
// Graph transactions and text-index transactions (the two kinds of
// commit the facade issues) append to the same log, <db>.wal, in one
// commit order. These tests prove the property recovery hangs on:
// EVERY crash point recovers to exactly a transaction boundary of that
// order — never a state where one tree's effects are visible past a
// lost commit of the other.
//
//   1. InterleavedCrashInjectionPropertyTest — the full stack: a
//      scripted workload with the MemEnv op log recording every byte
//      that hits the "disk"; then, for every prefix of the op sequence
//      (plus torn cuts through the next write), restore, replay, REOPEN,
//      and require the recovered database to be exactly a transaction
//      boundary state.
//   2. LeftoverSecondStreamTest / LeftoverJournalTest — a <db>.wal1
//      written by a two-stream build, or a hot <db>.journal written by
//      a build with a rollback-journal mode, makes Open fail instead of
//      being dropped.
//
// Runs under TSan and ASan+UBSan in CI like the rest of the suite.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "storage/btree.hpp"
#include "storage/db.hpp"
#include "storage/env.hpp"
#include "storage/pager.hpp"
#include "util/hash.hpp"
#include "util/serde.hpp"
#include "wal/wal_writer.hpp"

namespace bp::wal {
namespace {

using storage::Db;
using storage::DbOptions;
using storage::kPageSize;
using storage::MemEnv;
using storage::MemEnvOp;
using util::OrderedKeyU64;

// ------------------------------------------------ crash at every prefix

// The database state a crash point must recover to: the graph tree and
// the text tree TOGETHER — the whole point is that they stay mutually
// consistent as one committed prefix.
struct TwoTreeModel {
  std::map<uint64_t, std::string> graph;
  std::map<uint64_t, std::string> text;
  bool operator==(const TwoTreeModel& o) const {
    return graph == o.graph && text == o.text;
  }
};

std::map<uint64_t, std::string> ReadTree(storage::BTree* tree) {
  std::map<uint64_t, std::string> out;
  storage::BTree::Cursor cur = tree->NewCursor();
  for (cur.SeekFirst(); cur.Valid(); cur.Next()) {
    out[util::DecodeOrderedKeyU64(cur.key())] = std::string(cur.value());
  }
  EXPECT_TRUE(cur.status().ok());
  return out;
}

TwoTreeModel ReadTrees(storage::BTree* g, storage::BTree* x) {
  return TwoTreeModel{ReadTree(g), ReadTree(x)};
}

struct TxnBoundary {
  size_t ops_done = 0;  // op-log length right after this txn's Commit
  TwoTreeModel state;   // expected contents at that point
};

// Scripted interleaved workload: graph transactions and text
// transactions alternate on the one log. Every text transaction writes
// a marker summarizing how many graph transactions it has observed — so
// a recovery that surfaced a text state from beyond a lost graph commit
// would not merely differ, it would be semantically inconsistent (the
// exact-state check below subsumes the marker check; the marker makes
// the workload's cross-tree dependency real rather than incidental).
void RunInterleavedCrashInjection(
    uint32_t wal_group_commit, uint64_t checkpoint_bytes,
    storage::compress::CompressionOptions::Mode compression =
        storage::compress::CompressionOptions::Mode::kOff) {
  MemEnv env;
  DbOptions opts;
  opts.env = &env;
  opts.wal_group_commit = wal_group_commit;
  opts.wal_checkpoint_bytes = checkpoint_bytes;
  opts.compression.mode = compression;

  // Set up the database (catalog + both trees) BEFORE logging starts,
  // so every crash point has a well-formed database underneath it.
  {
    auto db = Db::Open("db", opts);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTree("g").ok());
    ASSERT_TRUE((*db)->CreateTree("x").ok());
  }
  auto base = env.SnapshotAll();

  std::vector<TxnBoundary> boundaries;
  std::vector<MemEnvOp> ops;
  {
    env.StartOpLog();
    auto db = Db::Open("db", opts);
    ASSERT_TRUE(db.ok());
    auto g = (*db)->OpenTree("g");
    auto x = (*db)->OpenTree("x");
    ASSERT_TRUE(g.ok() && x.ok());
    TwoTreeModel model;
    boundaries.push_back({env.OpLogSize(), model});  // empty trees
    int graph_txns = 0;
    for (int t = 0; t < 18; ++t) {
      if (t % 3 != 2) {
        // Graph transaction.
        ASSERT_TRUE((*db)->Begin().ok());
        for (int i = 0; i < 3; ++i) {
          uint64_t key = (t * 7 + i * 3) % 20;
          std::string value = "g" + std::to_string(t) + "v" +
                              std::string(40 + (t % 5) * 25, 'x');
          ASSERT_TRUE((*g)->Put(OrderedKeyU64(key), value).ok());
          model.graph[key] = value;
        }
        ASSERT_TRUE((*db)->Commit().ok());
        ++graph_txns;
      } else {
        // Text transaction, carrying the cross-tree marker plus its own
        // payload.
        ASSERT_TRUE((*db)->Begin().ok());
        std::string marker = "seen" + std::to_string(graph_txns);
        ASSERT_TRUE((*x)->Put(OrderedKeyU64(0), marker).ok());
        model.text[0] = marker;
        uint64_t key = 1 + (t % 7);
        std::string value =
            "x" + std::to_string(t) + std::string(60, 'y');
        ASSERT_TRUE((*x)->Put(OrderedKeyU64(key), value).ok());
        model.text[key] = value;
        ASSERT_TRUE((*db)->Commit().ok());
      }
      boundaries.push_back({env.OpLogSize(), model});

      // Uncommitted mutations on BOTH trees between transactions: they
      // must never surface, wherever the crash tears the log.
      ASSERT_TRUE((*db)->Begin().ok());
      ASSERT_TRUE((*g)->Put(OrderedKeyU64(99), "UNCOMMITTED-G").ok());
      ASSERT_TRUE((*x)->Put(OrderedKeyU64(99), "UNCOMMITTED-X").ok());
      ASSERT_TRUE((*db)->Rollback().ok());
    }
    // Stop BEFORE the db destructor so the clean-close fold is not in
    // the log: the crash window ends at the last commit.
    ops = env.StopOpLog();
  }
  ASSERT_GT(ops.size(), 18u);

  size_t checked = 0;
  for (size_t p = 0; p <= ops.size(); ++p) {
    std::vector<int64_t> cuts = {-1};  // -1: clean crash between ops
    if (p < ops.size() && ops[p].kind == MemEnvOp::Kind::kWrite) {
      int64_t len = static_cast<int64_t>(ops[p].data.size());
      for (int64_t cut :
           {int64_t{1}, len / 4, len / 2, 3 * len / 4, len - 1}) {
        if (cut > 0 && cut < len) cuts.push_back(cut);
      }
    }
    for (int64_t partial : cuts) {
      env.RestoreAll(base);
      ASSERT_TRUE(env.ApplyOps(ops, p, partial).ok());

      auto db = Db::Open("db", opts);
      ASSERT_TRUE(db.ok())
          << "crash at op " << p << " cut " << partial << ": "
          << db.status().ToString();
      auto g = (*db)->OpenTree("g");
      auto x = (*db)->OpenTree("x");
      ASSERT_TRUE(g.ok() && x.ok());
      TwoTreeModel recovered = ReadTrees(*g, *x);

      // The recovered database must be EXACTLY a commit-order boundary
      // state: the last boundary fully contained in the prefix, or the
      // next one (legal when the crash point already has all of txn
      // li+1's bytes durable — e.g. mid-checkpoint, where the log
      // retirement is the only thing missing). A mix of two boundary
      // states — including any state where one tree runs ahead of what
      // the other observed — is a consistency bug.
      size_t li = 0;
      for (size_t b = 0; b < boundaries.size(); ++b) {
        if (boundaries[b].ops_done <= p) li = b;
      }
      bool matches_li = recovered == boundaries[li].state;
      bool matches_next = li + 1 < boundaries.size() &&
                          recovered == boundaries[li + 1].state;
      EXPECT_TRUE(matches_li || matches_next)
          << "crash at op " << p << " cut " << partial << ": recovered "
          << recovered.graph.size() << "+" << recovered.text.size()
          << " keys; expected boundary " << li << " ("
          << boundaries[li].state.graph.size() << "+"
          << boundaries[li].state.text.size() << " keys) or " << li + 1;
      EXPECT_EQ(recovered.graph.count(99), 0u)
          << "uncommitted graph key visible after crash at op " << p;
      EXPECT_EQ(recovered.text.count(99), 0u)
          << "uncommitted text key visible after crash at op " << p;
      ++checked;
    }
  }
  EXPECT_GT(checked, ops.size());
}

TEST(InterleavedCrashInjectionPropertyTest, StrictDurabilityEveryPrefix) {
  // Group window of 1: every commit fsyncs the log before the next
  // begins; checkpoints interleave (small threshold), so crash points
  // land mid-fold and mid-log-reset too.
  RunInterleavedCrashInjection(1, 24 * kPageSize);
}

TEST(InterleavedCrashInjectionPropertyTest, GroupedCommitsEveryPrefix) {
  // Group window of 3: commits ride unsynced windows, so crash points
  // tear the log mid-window. Large checkpoint threshold keeps the log
  // long.
  RunInterleavedCrashInjection(3, 4 << 20);
}

TEST(InterleavedCrashInjectionPropertyTest,
     CompressedCheckpointsEveryPrefix) {
  // The storage diet on, with the small checkpoint threshold so folds
  // (now writing compressed frames into checkpoint slots) land inside
  // the crash window: every prefix must still recover to a boundary
  // state, with recovery reading back a MIX of compressed and raw
  // slots. Idempotence matters here too — a re-run fold after a crash
  // mid-checkpoint must overwrite slots byte-identically.
  RunInterleavedCrashInjection(
      1, 24 * kPageSize, storage::compress::CompressionOptions::Mode::kFast);
}

TEST(InterleavedCrashInjectionPropertyTest,
     CompressedGroupedCommitsEveryPrefix) {
  // Diet + group commit: torn unsynced windows with compression enabled
  // in the fold path.
  RunInterleavedCrashInjection(
      3, 4 << 20, storage::compress::CompressionOptions::Mode::kFast);
}

// ---------------------------------------- leftover second WAL stream

TEST(LeftoverSecondStreamTest, OpenFailsAndKeepsTheFile) {
  // Earlier builds split the log into <db>.wal and <db>.wal1, ordered
  // against each other by commit sequence. Folding <db>.wal alone could
  // apply commits past one that only <db>.wal1 holds, so Open must
  // refuse — naming the file — and leave both logs untouched.
  MemEnv env;
  DbOptions opts;
  opts.env = &env;
  {
    auto db = Db::Open("db", opts);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTree("g").ok());
  }
  {
    auto wal1 = WalWriter::Open(&env, "db.wal1");
    ASSERT_TRUE(wal1.ok());
    (*wal1)->AddPage(1, std::string(kPageSize, 'x'));
    ASSERT_TRUE((*wal1)->CommitTxn(7, 2).ok());
  }
  auto db = Db::Open("db", opts);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(db.status().ToString().find("db.wal1"), std::string::npos)
      << db.status().ToString();
  EXPECT_TRUE(env.Exists("db.wal1"));
}

// ------------------------------------------ leftover rollback journal

TEST(LeftoverJournalTest, OpenFailsAndKeepsTheFile) {
  // Builds with a rollback-journal mode left <db>.journal behind when a
  // commit crashed while rewriting the database file in place. Only the
  // journal's before-images repair such a file, so Open must refuse —
  // naming the journal — and leave every file untouched.
  MemEnv env;
  DbOptions opts;
  opts.env = &env;
  {
    auto db = Db::Open("db", opts);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTree("g").ok());
  }
  // A well-formed hot journal in that layout: magic "BPJL", commit
  // sequence, page size, original page count, entry count, then one
  // before-image entry (page id, page bytes, FNV-1a checksum).
  const std::string before_image(kPageSize, 'j');
  util::Writer journal;
  journal.PutU32(0x42504a4c);
  journal.PutU64(2);
  journal.PutU32(kPageSize);
  journal.PutU32(3);
  journal.PutU32(1);
  journal.PutU32(1);
  journal.PutRaw(before_image);
  journal.PutU64(util::Fnv1a64(before_image));
  {
    auto file = env.Open("db.journal");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Write(0, journal.data()).ok());
  }
  const std::map<std::string, std::string> files = env.SnapshotAll();

  auto db = Db::Open("db", opts);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(db.status().ToString().find("db.journal"), std::string::npos)
      << db.status().ToString();
  EXPECT_EQ(env.SnapshotAll(), files);
}

}  // namespace
}  // namespace bp::wal
