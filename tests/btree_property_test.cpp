// Property tests: the B+tree must behave exactly like std::map under
// arbitrary interleavings of Put/Get/Delete/scan, across a sweep of key
// distributions, value sizes (inline vs overflow), and operation mixes;
// and the pager must recover the committed prefix after a crash inside
// any commit's log append.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "storage/btree.hpp"
#include "storage/db.hpp"
#include "storage/env.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"
#include "util/strings.hpp"

namespace bp::storage {
namespace {

using util::Rng;

struct FuzzParams {
  uint64_t seed;
  int operations;
  int key_space;       // number of distinct keys
  int min_value_size;  // values uniform in [min, max]
  int max_value_size;
  int delete_percent;  // share of ops that are deletes
  std::string label;
};

std::string KeyForIndex(Rng& rng, const FuzzParams& params) {
  uint64_t idx = rng.Zipf(static_cast<uint64_t>(params.key_space), 1.05);
  // Mix fixed-width numeric keys and variable-length string keys, since
  // callers use both.
  if (idx % 3 == 0) return util::OrderedKeyU64(idx);
  return "key/" + std::to_string(idx * 2654435761u % params.key_space);
}

class BTreeFuzzTest : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(BTreeFuzzTest, MatchesReferenceModel) {
  const FuzzParams& params = GetParam();
  Rng rng(params.seed);

  MemEnv env;
  PagerOptions opts;
  opts.env = &env;
  auto pager_or = Pager::Open("db", opts);
  ASSERT_TRUE(pager_or.ok());
  auto& pager = *pager_or;
  ASSERT_TRUE(pager->Begin().ok());
  auto root = BTree::Create(*pager);
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(pager->Commit().ok());
  BTree tree(*pager, *root);

  std::map<std::string, std::string> model;

  for (int op = 0; op < params.operations; ++op) {
    std::string key = KeyForIndex(rng, params);
    int roll = static_cast<int>(rng.Uniform(100));
    if (roll < params.delete_percent) {
      Status st = tree.Delete(key);
      if (model.count(key) > 0) {
        ASSERT_TRUE(st.ok()) << "op " << op << ": " << st.ToString();
        model.erase(key);
      } else {
        ASSERT_TRUE(st.IsNotFound()) << "op " << op;
      }
    } else if (roll < params.delete_percent + 10) {
      // Point lookup against the model.
      auto got = tree.Get(key);
      auto it = model.find(key);
      if (it == model.end()) {
        ASSERT_TRUE(got.status().IsNotFound()) << "op " << op;
      } else {
        ASSERT_TRUE(got.ok()) << "op " << op;
        ASSERT_EQ(*got, it->second) << "op " << op;
      }
    } else {
      const int spread = params.max_value_size - params.min_value_size;
      size_t len = static_cast<size_t>(params.min_value_size) +
                   rng.Uniform(static_cast<uint64_t>(spread) + 1);
      std::string value(len, '\0');
      for (char& c : value) {
        c = static_cast<char>('a' + rng.Uniform(26));
      }
      ASSERT_TRUE(tree.Put(key, value).ok()) << "op " << op;
      model[key] = value;
    }
  }

  // Full-scan equivalence: same keys, same values, same order.
  auto it = model.begin();
  uint64_t scanned = 0;
  ASSERT_TRUE(tree.ForEach([&](std::string_view key, std::string_view value) {
                    EXPECT_NE(it, model.end());
                    if (it == model.end()) return false;
                    EXPECT_EQ(key, it->first);
                    EXPECT_EQ(value, it->second);
                    ++it;
                    ++scanned;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(it, model.end());
  EXPECT_EQ(scanned, model.size());
  EXPECT_EQ(*tree.Count(), model.size());

  // Structural sanity via stats.
  auto stats = tree.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->cells, model.size());
  uint64_t value_bytes = 0;
  for (const auto& [k, v] : model) value_bytes += v.size();
  EXPECT_EQ(stats->value_bytes, value_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BTreeFuzzTest,
    ::testing::Values(
        FuzzParams{101, 4000, 500, 0, 40, 10, "small_values_light_delete"},
        FuzzParams{202, 3000, 200, 0, 40, 45, "small_values_heavy_delete"},
        FuzzParams{303, 1200, 150, 0, 3000, 20, "overflow_values"},
        FuzzParams{404, 2500, 50, 0, 200, 30, "hot_keys_replacement"},
        FuzzParams{505, 4000, 4000, 0, 20, 5, "wide_keyspace_append"},
        FuzzParams{606, 800, 30, 0, 8000, 40, "giant_values_churn"},
        // One value size over a hot key space: most Puts replace a cell
        // with one of equal size, which is rewritten in place.
        FuzzParams{707, 6000, 300, 24, 24, 5, "equal_size_hot_rewrites"}),
    [](const ::testing::TestParamInfo<FuzzParams>& info) {
      return info.param.label;
    });

// Crash-recovery property: run random committed batches; at a random
// commit, lose power partway through that batch's log append (the write
// torn at a random byte); after reopen the tree must equal the model as
// of the last *successful* commit.
struct CrashParams {
  uint64_t seed;
  int batches;
  int ops_per_batch;
  std::string label;
};

class CrashRecoveryTest : public ::testing::TestWithParam<CrashParams> {};

TEST_P(CrashRecoveryTest, RecoversToLastCommittedState) {
  const CrashParams& params = GetParam();
  Rng rng(params.seed);

  MemEnv env;
  PagerOptions opts;
  opts.env = &env;
  PageId root;
  std::map<std::string, std::string> committed;
  // The files as they stood before the crash batch's commit, and every
  // write that commit issued.
  std::map<std::string, std::string> before_crash;
  std::vector<MemEnvOp> crash_ops;
  {
    auto pager_or = Pager::Open("db", opts);
    ASSERT_TRUE(pager_or.ok());
    auto& pager = *pager_or;
    ASSERT_TRUE(pager->Begin().ok());
    auto root_or = BTree::Create(*pager);
    ASSERT_TRUE(root_or.ok());
    root = *root_or;
    ASSERT_TRUE(pager->Commit().ok());

    BTree tree(*pager, root);
    std::map<std::string, std::string> pending;

    int crash_batch = static_cast<int>(rng.Uniform(params.batches));
    for (int batch = 0; batch <= crash_batch; ++batch) {
      pending = committed;
      ASSERT_TRUE(pager->Begin().ok());
      for (int op = 0; op < params.ops_per_batch; ++op) {
        std::string key = "k" + std::to_string(rng.Uniform(200));
        if (rng.Bernoulli(0.25) && pending.count(key) > 0) {
          ASSERT_TRUE(tree.Delete(key).ok());
          pending.erase(key);
        } else {
          std::string value =
              "batch" + std::to_string(batch) + "/op" + std::to_string(op) +
              std::string(rng.Uniform(120), 'p');
          ASSERT_TRUE(tree.Put(key, value).ok());
          pending[key] = value;
        }
      }
      if (batch == crash_batch) {
        before_crash = env.SnapshotAll();
        env.StartOpLog();
        ASSERT_TRUE(pager->Commit().ok());
        crash_ops = env.StopOpLog();
      } else {
        ASSERT_TRUE(pager->Commit().ok());
        committed = pending;
      }
    }
  }

  // Power loss inside the crash batch's log append: restore the files
  // from before that commit (discarding the clean close above) and
  // replay its writes, tearing the append at a random byte.
  auto is_log_append = [](const MemEnvOp& op) {
    return op.kind == MemEnvOp::Kind::kWrite && op.file == "db.wal";
  };
  auto append = std::find_if(crash_ops.begin(), crash_ops.end(), is_log_append);
  ASSERT_NE(append, crash_ops.end());
  const size_t append_at = static_cast<size_t>(append - crash_ops.begin());
  const int64_t torn_bytes = rng.UniformRange(
      1, static_cast<int64_t>(append->data.size()) - 1);
  env.RestoreAll(before_crash);
  ASSERT_TRUE(env.ApplyOps(crash_ops, append_at, torn_bytes).ok());

  // Reopen (recovery path) and verify every committed key/value — and
  // nothing else — survived.
  auto reopened_or = Pager::Open("db", opts);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  BTree recovered(**reopened_or, root);
  auto it = committed.begin();
  ASSERT_TRUE(recovered
                  .ForEach([&](std::string_view key, std::string_view value) {
                    EXPECT_NE(it, committed.end());
                    if (it == committed.end()) return false;
                    EXPECT_EQ(key, it->first);
                    EXPECT_EQ(value, it->second);
                    ++it;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(it, committed.end());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrashRecoveryTest,
    ::testing::Values(CrashParams{11, 8, 60, "early_crash"},
                      CrashParams{22, 16, 40, "mid_crash"},
                      CrashParams{33, 24, 25, "late_crash"},
                      CrashParams{44, 6, 200, "big_batches"},
                      CrashParams{55, 30, 10, "many_small_batches"}),
    [](const ::testing::TestParamInfo<CrashParams>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace bp::storage
