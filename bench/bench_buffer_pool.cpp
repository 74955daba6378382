// E14 — Versioned buffer pool microbenchmarks.
//
// The shared pool is the hot path of every snapshot read, so its raw
// costs matter: a hit must be cheap enough to beat re-reading a page
// from the OS, eviction must be O(evicted), and the striped locks must
// actually let concurrent readers through. Four sections:
//
//   hit          — resident set, 100% hits (the steady state of a warm
//                  read path);
//   miss+insert  — unique keys forever, constant eviction at budget
//                  (cold scans / thrash floor);
//   pin churn    — hit + hold + release, with a pinned working set the
//                  evictor must skip (live PageView traffic);
//   contention   — 1/2/4/8 threads hammering one pool, uniform keys
//                  (shared-shard scaling; the per-snapshot caches this
//                  pool replaced serialized every reader on one mutex).
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "storage/buffer_pool.hpp"

int main(int argc, char** argv) {
  using namespace bp;
  using namespace bp::bench;
  using storage::BufferPool;
  using storage::BufferPoolStats;
  using storage::kPageSize;
  using storage::PageImageKey;
  Init(argc, argv, "bench_buffer_pool");

  Header("E14", "shared buffer pool: hit/miss/eviction/pin/contention",
         "(engineering bench; pool must outrun per-snapshot caches)");

  const uint64_t scale = State().smoke ? 1 : 8;
  auto image = [](char fill) {
    return std::make_shared<const std::string>(kPageSize, fill);
  };
  auto key = [](uint64_t i) {
    return PageImageKey{/*owner=*/1, static_cast<storage::PageId>(i),
                        /*generation=*/0, /*offset=*/i * 16};
  };

  // ------------------------------------------------------------- hits
  {
    const uint64_t kResident = 1024;
    const uint64_t kLookups = scale * 2'000'000;
    BufferPool pool(kResident * 2 * kPageSize);
    for (uint64_t i = 0; i < kResident; ++i) {
      (void)pool.Insert(key(i), image('r'));
    }
    // Per-lookup cost sampled per block (timing every lookup would
    // dominate the thing measured): the distribution catches shard-map
    // outliers a mean would hide.
    const uint64_t kBlock = 10'000;
    std::vector<double> block_ns;
    block_ns.reserve(kLookups / kBlock);
    util::Stopwatch watch;
    uint64_t found = 0;
    for (uint64_t start = 0; start < kLookups; start += kBlock) {
      util::Stopwatch block;
      for (uint64_t i = start; i < start + kBlock; ++i) {
        found += pool.Lookup(key(i % kResident)) != nullptr;
      }
      block_ns.push_back(1000.0 * static_cast<double>(block.ElapsedUs()) /
                         static_cast<double>(kBlock));
    }
    const double ms = watch.ElapsedMs();
    BP_CHECK(found == kLookups, "every resident lookup must hit");
    const double per_sec = 1000.0 * static_cast<double>(kLookups) / ms;
    const Percentiles lookup_ns = ComputePercentiles(std::move(block_ns));
    Row("hit:         %9llu lookups in %7.1f ms  (%12.0f hits/s, "
        "%.0f/%.0f ns p50/p99)",
        (unsigned long long)kLookups, ms, per_sec, lookup_ns.p50,
        lookup_ns.p99);
    Metric("hit_lookups_per_sec", per_sec);
    MetricPercentiles("hit_lookup_ns", lookup_ns);
  }

  // ----------------------------------------------------- miss + insert
  {
    const uint64_t kInserts = scale * 200'000;
    BufferPool pool(BufferPool::kShards * 16 * kPageSize);
    util::Stopwatch watch;
    for (uint64_t i = 0; i < kInserts; ++i) {
      // One image per insert: the allocation is part of the real miss
      // path (and a shared payload would read as pinned to the evictor).
      (void)pool.Insert(key(i), image('m'));
    }
    const double ms = watch.ElapsedMs();
    BufferPoolStats stats = pool.stats();
    const double per_sec = 1000.0 * static_cast<double>(kInserts) / ms;
    Row("miss+insert: %9llu inserts in %7.1f ms  (%12.0f inserts/s, "
        "%llu evictions)",
        (unsigned long long)kInserts, ms, per_sec,
        (unsigned long long)stats.evictions);
    BP_CHECK(stats.evictions > 0, "budget must have forced eviction");
    BP_CHECK(stats.bytes <= pool.byte_budget(),
             "insert path must hold the byte budget");
    Metric("insert_evict_per_sec", per_sec);
    Metric("insert_evictions", static_cast<double>(stats.evictions));
  }

  // --------------------------------------------------------- pin churn
  {
    const uint64_t kOps = scale * 1'000'000;
    const uint64_t kResident = 512;
    BufferPool pool(kResident * kPageSize);  // tight: evictor runs often
    std::vector<std::shared_ptr<const std::string>> pins;
    for (uint64_t i = 0; i < kResident / 2; ++i) {
      pins.push_back(pool.Insert(key(i), image('p')));  // pinned half
    }
    util::Stopwatch watch;
    std::shared_ptr<const std::string> held;
    for (uint64_t i = 0; i < kOps; ++i) {
      const uint64_t k = kResident / 2 + i % kResident;  // unpinned keys
      held = pool.Lookup(key(k));
      if (held == nullptr) held = pool.Insert(key(k), image('c'));
      // `held` drops at the next iteration: a one-op pin lifetime.
    }
    const double ms = watch.ElapsedMs();
    BufferPoolStats stats = pool.stats();
    for (auto& pin : pins) {
      BP_CHECK(pin != nullptr && pin->front() == 'p',
               "pinned images must survive the churn");
    }
    const double per_sec = 1000.0 * static_cast<double>(kOps) / ms;
    Row("pin churn:   %9llu ops     in %7.1f ms  (%12.0f ops/s, "
        "%llu pinned skips)",
        (unsigned long long)kOps, ms, per_sec,
        (unsigned long long)stats.pinned_skips);
    Metric("pin_churn_ops_per_sec", per_sec);
  }

  // ----------------------------------------------- counter striping
  {
    // The pager bumps a stats counter on every pool hit. PR 8 packed
    // those counters as adjacent atomics (several per cache line) and
    // bumped with fetch_add — and the hit-lookup p99 regressed +37%
    // whenever OTHER pager threads bumped neighboring counters. The
    // pager now stripes each single-writer counter into its own
    // 64-byte cell and bumps with a plain load/store. Both layouts are
    // replicated here (the real structs are private to the Pager) and
    // measured on the same path: pool hit + one counter bump, while
    // three noise threads hammer the NEIGHBORING counters of the same
    // stats object — the false-sharing traffic the stripe removes.
    struct PackedStats {           // PR 8 shape: one line holds several
      std::atomic<uint64_t> c[9];
    };
    struct StripedCell {
      alignas(64) std::atomic<uint64_t> v{0};
    };
    struct StripedStats {          // this PR: cell per counter
      StripedCell c[9];
    };
    static PackedStats packed;     // static: no stack-line luck
    static StripedStats striped;

    const uint64_t kResident = 1024;
    const uint64_t kLookups = 1'000'000;  // per layout per round
    const uint64_t kBlock = 10'000;
    BufferPool pool(kResident * 2 * kPageSize);
    for (uint64_t i = 0; i < kResident; ++i) {
      (void)pool.Insert(key(i), image('l'));
    }

    // layout == 0: packed + fetch_add; layout == 1: striped + store.
    // Returns one per-lookup cost sample per block of lookups.
    auto run = [&](int layout) {
      std::atomic<bool> stop{false};
      std::atomic<int> running{0};
      std::vector<std::thread> noise;
      for (int n = 1; n <= 3; ++n) {
        noise.emplace_back([&, n] {
          running.fetch_add(1);
          while (!stop.load(std::memory_order_relaxed)) {
            if (layout == 0) {
              packed.c[n].fetch_add(1, std::memory_order_relaxed);
            } else {
              striped.c[n].v.store(
                  striped.c[n].v.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
            }
          }
        });
      }
      // Time nothing until all three neighbors are running.
      while (running.load() < 3) std::this_thread::yield();
      std::vector<double> block_ns;
      block_ns.reserve(kLookups / kBlock);
      uint64_t found = 0;
      for (uint64_t start = 0; start < kLookups; start += kBlock) {
        util::Stopwatch block;
        for (uint64_t i = start; i < start + kBlock; ++i) {
          found += pool.Lookup(key(i % kResident)) != nullptr;
          if (layout == 0) {
            packed.c[0].fetch_add(1, std::memory_order_relaxed);
          } else {
            striped.c[0].v.store(
                striped.c[0].v.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
          }
        }
        block_ns.push_back(1000.0 *
                           static_cast<double>(block.ElapsedUs()) /
                           static_cast<double>(kBlock));
      }
      stop.store(true, std::memory_order_relaxed);
      for (std::thread& t : noise) t.join();
      BP_CHECK(found == kLookups, "every resident lookup must hit");
      return block_ns;
    };

    // The layouts run in interleaved rounds, each with fresh noise
    // threads, so a stretch of host noise or an unlucky thread placement
    // lands on both layouts rather than on whichever one it overlapped.
    // The p50 of each layout is the median of its per-round p50s; the
    // other percentiles pool every round's blocks. One untimed round of
    // each layout goes first: after the host has been idle, the noise
    // threads can take a few hundred milliseconds of load to really run
    // beside the main thread, and until they do neither layout sees any
    // neighbor traffic.
    constexpr int kRounds = 5;
    (void)run(0);
    (void)run(1);
    std::vector<double> blocks[2];
    std::vector<double> round_p50s[2];
    for (int round = 0; round < kRounds; ++round) {
      for (int layout : {0, 1}) {
        std::vector<double> block_ns = run(layout);
        round_p50s[layout].push_back(ComputePercentiles(block_ns).p50);
        blocks[layout].insert(blocks[layout].end(), block_ns.begin(),
                              block_ns.end());
      }
    }
    Percentiles packed_ns = ComputePercentiles(std::move(blocks[0]));
    Percentiles striped_ns = ComputePercentiles(std::move(blocks[1]));
    packed_ns.p50 = ComputePercentiles(std::move(round_p50s[0])).p50;
    striped_ns.p50 = ComputePercentiles(std::move(round_p50s[1])).p50;

    Blank();
    // Gate on p50: the locked-RMW-vs-plain-store gap is deterministic
    // there, while the block p99 also absorbs scheduler preemption from
    // the noise threads (it is reported, and tracked, but not gated).
    const double p50_speedup =
        striped_ns.p50 > 0 ? packed_ns.p50 / striped_ns.p50 : 0.0;
    Row("counter layout (hit + stat bump, 3 neighbor-counter noise "
        "threads, %d interleaved rounds):", kRounds);
    Row("  packed  (PR 8): %6.0f/%6.0f ns p50/p99", packed_ns.p50,
        packed_ns.p99);
    Row("  striped (cell): %6.0f/%6.0f ns p50/p99  (p50 %.2fx faster)",
        striped_ns.p50, striped_ns.p99, p50_speedup);
    MetricPercentiles("hit_bump_packed_ns", packed_ns);
    MetricPercentiles("hit_bump_striped_ns", striped_ns);
    Metric("counter_stripe_p50_speedup", p50_speedup);
    BP_CHECK(p50_speedup > 1.0,
             "striped cells must beat packed counters under neighbor "
             "traffic");
  }

  // -------------------------------------------------------- contention
  {
    Blank();
    Row("contention (uniform keys over a resident set, lookup-or-insert):");
    const uint64_t kResident = 4096;
    const uint64_t kOpsPerThread = scale * 500'000;
    double ops_at_1 = 0;
    for (int threads : {1, 2, 4, 8}) {
      BufferPool pool(kResident * 2 * kPageSize);
      for (uint64_t i = 0; i < kResident; ++i) {
        (void)pool.Insert(key(i), image('s'));
      }
      std::atomic<uint64_t> bad{0};
      std::vector<std::thread> workers;
      workers.reserve(threads);
      util::Stopwatch watch;
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          // Per-thread stride decorrelates the walks without RNG cost.
          uint64_t at = static_cast<uint64_t>(t) * 7919;
          for (uint64_t i = 0; i < kOpsPerThread; ++i) {
            at = (at + 12289) % kResident;
            if (pool.Lookup(key(at)) == nullptr) bad.fetch_add(1);
          }
        });
      }
      for (std::thread& w : workers) w.join();
      const double ms = watch.ElapsedMs();
      BP_CHECK(bad.load() == 0, "resident set must stay resident");
      const double total =
          static_cast<double>(kOpsPerThread) * threads;
      const double per_sec = 1000.0 * total / ms;
      if (threads == 1) ops_at_1 = per_sec;
      Row("  %d thread%s: %12.0f lookups/s  (%.2fx single-thread)",
          threads, threads == 1 ? " " : "s", per_sec,
          ops_at_1 > 0 ? per_sec / ops_at_1 : 0.0);
      Metric(util::StrFormat("contention_lookups_per_sec_%d", threads),
             per_sec);
    }
  }

  return Finish();
}
