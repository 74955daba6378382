// E11 — Storage-engine microbenchmarks.
//
// Substrate soundness for every experiment above: B+tree point ops and
// scans, transaction commit, overflow values, snapshot reads, and
// inverted-index postings. Not a paper claim per se — it grounds the
// latency results by showing where the time goes.
//
// Ported to the shared bench harness (--json/--smoke, BENCH_*.json)
// like every other bench, so CI smoke-runs it per commit and the
// metrics land in the perf-trajectory artifacts; google-benchmark is no
// longer required.
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "obs/metrics.hpp"
#include "storage/btree.hpp"
#include "storage/db.hpp"
#include "storage/env.hpp"
#include "storage/snapshot.hpp"
#include "text/index.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace {

using namespace bp;
using bp::bench::Metric;
using bp::bench::MustOk;
using bp::bench::Row;

struct EngineFixture {
  storage::MemEnv env;
  std::unique_ptr<storage::Db> db;
  storage::BTree* tree = nullptr;

  explicit EngineFixture(size_t preload = 0) {
    storage::DbOptions opts;
    opts.env = &env;
    opts.sync = false;
    db = MustOk(storage::Db::Open("bench.db", opts), "open db");
    tree = MustOk(db->CreateTree("t"), "create tree");
    util::Rng rng(1);
    for (size_t i = 0; i < preload; ++i) {
      MustOk(tree->Put(util::OrderedKeyU64(rng.NextU64()),
                       std::string(64, 'v')),
             "preload");
    }
  }
};

// Runs `op` `iters` times and reports ops/sec plus per-op microseconds.
void Bench(const char* name, uint64_t iters, uint64_t items_per_iter,
           const std::function<void(uint64_t)>& op) {
  util::Stopwatch watch;
  for (uint64_t i = 0; i < iters; ++i) op(i);
  const double ms = watch.ElapsedMs();
  const double items =
      static_cast<double>(iters) * static_cast<double>(items_per_iter);
  const double per_sec = items / (ms / 1000.0);
  Row("%-32s %12.0f ops/s  %10.3f us/op", name, per_sec,
      ms * 1000.0 / items);
  Metric(std::string(name) + "_ops_per_sec", per_sec);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bp::bench;
  Init(argc, argv, "bench_storage_engine");

  Header("E11", "storage-engine microbenchmarks",
         "substrate soundness: where the query/capture time goes");

  const uint64_t n = State().smoke ? 4000 : 40000;
  const size_t kPreload = State().smoke ? 10000 : 30000;

  {
    EngineFixture fx;
    uint64_t key = 0;
    std::string value(64, 'v');
    Bench("btree_put_sequential", n, 1, [&](uint64_t) {
      MustOk(fx.tree->Put(util::OrderedKeyU64(key++), value), "put");
    });
  }
  {
    EngineFixture fx;
    util::Rng rng(2);
    std::string value(64, 'v');
    Bench("btree_put_random", n, 1, [&](uint64_t) {
      MustOk(fx.tree->Put(util::OrderedKeyU64(rng.NextU64()), value),
             "put");
    });
  }
  {
    EngineFixture fx(kPreload);
    // Re-derive the preloaded keys.
    util::Rng rng(1);
    std::vector<std::string> keys;
    keys.reserve(kPreload);
    for (size_t i = 0; i < kPreload; ++i) {
      keys.push_back(util::OrderedKeyU64(rng.NextU64()));
    }
    Bench("btree_get_hit", n, 1, [&](uint64_t i) {
      MustOk(fx.tree->Get(keys[i % keys.size()]).status(), "get");
    });

    Bench("btree_scan_100", n / 20, 100, [&](uint64_t) {
      int rows = 0;
      storage::BTree::Cursor cur = fx.tree->NewCursor();
      for (cur.SeekFirst(); cur.Valid() && rows < 100; cur.Next()) ++rows;
      MustOk(cur.status(), "scan");
    });

    // The same point reads through a snapshot: what the concurrent
    // read path costs per op (snapshot page cache + shared pages).
    auto snap = MustOk(fx.db->BeginRead(), "snapshot");
    storage::BTree frozen = fx.tree->BoundAt(*snap);
    Bench("btree_get_hit_snapshot", n, 1, [&](uint64_t i) {
      MustOk(frozen.Get(keys[i % keys.size()]).status(), "snap get");
    });
    Bench("snapshot_open_close", State().smoke ? 2000 : 20000, 1,
          [&](uint64_t) {
            MustOk(fx.db->BeginRead().status(), "begin read");
          });
  }
  {
    // Hot rewrites, the shape of Table's id-allocator cell and of row
    // updates: sequential keys fill their leaves, then keys among the
    // first 200 are overwritten with values of the same size, 1,000 per
    // transaction. Each rewrite fits where the old cell stood, so the
    // row should repack no page (bp_btree_compactions delta 0).
    EngineFixture fx;
    const std::string value(64, 'v');
    MustOk(fx.db->Begin(), "begin");
    for (uint64_t k = 0; k < kPreload; ++k) {
      MustOk(fx.tree->Put(util::OrderedKeyU64(k), value), "preload");
    }
    MustOk(fx.db->Commit(), "commit");
    const obs::Counter& compactions = *obs::MetricsRegistry::Global()
        .GetCounter("bp_btree_compactions", "", "");
    const uint64_t before = compactions.value();
    util::Rng rng(4);
    const std::string rewrite(64, 'w');
    Bench("btree_overwrite_hot", n / 1000, 1000, [&](uint64_t) {
      MustOk(fx.db->Begin(), "begin");
      for (int i = 0; i < 1000; ++i) {
        MustOk(fx.tree->Put(util::OrderedKeyU64(rng.Uniform(200)), rewrite),
               "overwrite");
      }
      MustOk(fx.db->Commit(), "commit");
    });
    const uint64_t compacted = compactions.value() - before;
    Row("%-32s %12llu", "btree_overwrite_compactions",
        static_cast<unsigned long long>(compacted));
    Metric("btree_overwrite_compactions", static_cast<double>(compacted));
  }
  {
    EngineFixture fx;
    const std::string big(65536, 'x');
    uint64_t key = 0;
    Bench("overflow_roundtrip_64k", n / 40, 1, [&](uint64_t) {
      std::string k = util::OrderedKeyU64(key++ % 64);
      MustOk(fx.tree->Put(k, big), "overflow put");
      MustOk(fx.tree->Get(k).status(), "overflow get");
    });
  }
  {
    EngineFixture fx;
    uint64_t key = 0;
    std::string value(64, 'v');
    Bench("txn_commit_64_puts", n / 64, 64, [&](uint64_t) {
      MustOk(fx.db->Begin(), "begin");
      for (int i = 0; i < 64; ++i) {
        MustOk(fx.tree->Put(util::OrderedKeyU64(key++), value), "put");
      }
      MustOk(fx.db->Commit(), "commit");
    });
  }
  {
    storage::MemEnv env;
    storage::DbOptions opts;
    opts.env = &env;
    opts.sync = false;
    auto db = MustOk(storage::Db::Open("idx.db", opts), "open idx db");
    auto index =
        MustOk(text::InvertedIndex::Open(*db, "ix"), "open index");
    util::Rng rng(3);
    std::vector<std::string> vocabulary;
    for (int i = 0; i < 500; ++i) {
      vocabulary.push_back("term" + std::to_string(i));
    }
    text::DocId doc = 1;
    Bench("postings_append_and_search", n / 4, 1, [&](uint64_t) {
      std::vector<std::string> tokens;
      for (int i = 0; i < 12; ++i) {
        tokens.push_back(vocabulary[rng.Zipf(vocabulary.size(), 1.1)]);
      }
      MustOk(index->AddDocument(doc++, tokens), "add doc");
      if (doc % 64 == 0) {
        MustOk(index->Search({tokens[0]}, 10).status(), "search");
      }
    });
  }

  // Per-commit latency distribution from the pager's own registry
  // histogram (every Put/Commit above funnels through Pager::Commit):
  // the tail the mean us/op rows can't show.
  MetricObsHistogram("obs_commit_us", CommitLatencyHistogram());

  return Finish();
}
