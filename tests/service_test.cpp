// ProvenanceService: shard routing and per-profile isolation, the LRU
// handle cache (open-on-demand, eviction through clean Close, reopen
// sees everything, pins beat eviction), per-shard backpressure (block
// and reject), read-your-writes flushes, snapshot isolation, and the
// exported bp_service metrics. The concurrent stress cases double as
// the TSan workload.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "service/provenance_service.hpp"
#include "storage/env.hpp"
#include "util/time.hpp"

namespace bp::service {
namespace {

capture::VisitEvent MakeVisit(const std::string& profile, int i) {
  capture::VisitEvent v;
  v.time = util::Days(1) + static_cast<util::TimeMs>(i) * 1000;
  v.tab = 1;
  v.visit_id = static_cast<uint64_t>(i) + 1;
  v.url = "https://" + profile + ".example/page/" + std::to_string(i);
  v.title = profile + " page " + std::to_string(i);
  v.action = capture::NavigationAction::kTyped;
  return v;
}

std::string UrlOf(const std::string& profile, int i) {
  return "https://" + profile + ".example/page/" + std::to_string(i);
}

class ServiceTest : public ::testing::Test {
 protected:
  ServiceOptions BaseOptions() {
    ServiceOptions options;
    options.db.db.env = &env_;
    return options;
  }

  // True when `profile`'s frozen view resolves the URL of event `i`.
  bool Sees(ProvenanceService& svc, const std::string& profile, int i) {
    bool found = false;
    EXPECT_TRUE(svc.WithSnapshot(profile,
                                 [&](prov::ProvenanceDb::SnapshotView& view) {
                                   found =
                                       view.store().PageForUrl(UrlOf(profile, i))
                                           .ok();
                                   return util::Status::Ok();
                                 })
                    .ok());
    return found;
  }

  storage::MemEnv env_;
};

TEST_F(ServiceTest, CreateRejectsInvalidOptions) {
  auto no_root = ProvenanceService::Create("", BaseOptions());
  EXPECT_EQ(no_root.status().code(), util::StatusCode::kInvalidArgument);

  ServiceOptions options = BaseOptions();
  options.workers = 0;
  EXPECT_EQ(ProvenanceService::Create("/p", options).status().code(),
            util::StatusCode::kInvalidArgument);

  options = BaseOptions();
  options.max_live_handles = 0;
  EXPECT_EQ(ProvenanceService::Create("/p", options).status().code(),
            util::StatusCode::kInvalidArgument);

  options = BaseOptions();
  options.queue_capacity = 0;
  EXPECT_EQ(ProvenanceService::Create("/p", options).status().code(),
            util::StatusCode::kInvalidArgument);

  options = BaseOptions();
  options.db.ingest_batch = 0;
  EXPECT_EQ(ProvenanceService::Create("/p", options).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(ServiceTest, RejectsInvalidProfileIds) {
  auto svc = ProvenanceService::Create("/p", BaseOptions());
  ASSERT_TRUE(svc.ok());
  // Ids become <root>/<id>.db and metric label values: anything that
  // could escape the service root ('/', '\\', '..') or corrupt a label
  // ('"', control characters) is refused at the door, by every
  // profile-taking entry point.
  const std::string bad[] = {"",    "../evil", "a/b",
                             "a\\b", "a\"b",   std::string("a\nb")};
  for (const std::string& profile : bad) {
    EXPECT_EQ((*svc)->Ingest(profile, MakeVisit("x", 0)).code(),
              util::StatusCode::kInvalidArgument)
        << profile;
    EXPECT_EQ((*svc)->Flush(profile).code(),
              util::StatusCode::kInvalidArgument)
        << profile;
    EXPECT_EQ((*svc)
                  ->WithSnapshot(profile,
                                 [](prov::ProvenanceDb::SnapshotView&) {
                                   return util::Status::Ok();
                                 })
                  .code(),
              util::StatusCode::kInvalidArgument)
        << profile;
  }
  // Nothing slipped past validation into a queue.
  EXPECT_EQ((*svc)->Stats().enqueued, 0u);
}

TEST_F(ServiceTest, RoutesProfilesToStableShardsAndIsolatesThem) {
  ServiceOptions options = BaseOptions();
  options.workers = 3;
  auto svc = ProvenanceService::Create("/p", options);
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();

  // The route is a pure function of the profile id.
  EXPECT_EQ((*svc)->ShardOf("alice"), (*svc)->ShardOf("alice"));
  EXPECT_LT((*svc)->ShardOf("alice"), (*svc)->workers());

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*svc)->Ingest("alice", MakeVisit("alice", i)).ok());
    ASSERT_TRUE((*svc)->Ingest("bob", MakeVisit("bob", i)).ok());
  }
  ASSERT_TRUE((*svc)->Drain().ok());

  // Each profile's view holds its own pages and none of the other's.
  ASSERT_TRUE(
      (*svc)
          ->WithSnapshot("alice",
                         [&](prov::ProvenanceDb::SnapshotView& view) {
                           EXPECT_TRUE(
                               view.store().PageForUrl(UrlOf("alice", 0)).ok());
                           EXPECT_FALSE(
                               view.store().PageForUrl(UrlOf("bob", 0)).ok());
                           return util::Status::Ok();
                         })
          .ok());
  ASSERT_TRUE(
      (*svc)
          ->WithSnapshot("bob",
                         [&](prov::ProvenanceDb::SnapshotView& view) {
                           EXPECT_TRUE(
                               view.store().PageForUrl(UrlOf("bob", 4)).ok());
                           EXPECT_FALSE(
                               view.store().PageForUrl(UrlOf("alice", 4)).ok());
                           return util::Status::Ok();
                         })
          .ok());
}

TEST_F(ServiceTest, EvictionClosesCleanlyAndReopenSeesEverything) {
  ServiceOptions options = BaseOptions();
  options.workers = 1;
  options.max_live_handles = 1;  // every profile switch evicts
  auto svc = ProvenanceService::Create("/p", options);
  ASSERT_TRUE(svc.ok());

  const int kProfiles = 4;
  for (int round = 0; round < 2; ++round) {
    for (int p = 0; p < kProfiles; ++p) {
      std::string profile = "p" + std::to_string(p);
      ASSERT_TRUE((*svc)->Ingest(profile, MakeVisit(profile, round)).ok());
    }
    ASSERT_TRUE((*svc)->Drain().ok());
  }

  // Every profile's data survived its evictions (Close checkpoints;
  // reopen recovers), across rounds.
  for (int p = 0; p < kProfiles; ++p) {
    std::string profile = "p" + std::to_string(p);
    EXPECT_TRUE(Sees(**svc, profile, 0)) << profile;
    EXPECT_TRUE(Sees(**svc, profile, 1)) << profile;
  }

  ServiceStats stats = (*svc)->Stats();
  EXPECT_LE(stats.live_handles, 1u);
  EXPECT_GE(stats.evictions, 3u);  // at least the first round's churn
  EXPECT_GE(stats.reopens, 3u);    // round two reopened evicted profiles
  EXPECT_EQ(stats.opens, stats.handle_misses);
  EXPECT_EQ(stats.committed, stats.enqueued);
}

TEST_F(ServiceTest, EvictionAndReopenLeaveSearchScoresUnchanged) {
  ServiceOptions options = BaseOptions();
  options.workers = 1;
  options.max_live_handles = 1;  // every profile switch evicts
  auto svc = ProvenanceService::Create("/p", options);
  ASSERT_TRUE(svc.ok());

  for (int i = 0; i < 4; ++i) {
    capture::VisitEvent v = MakeVisit("alice", i);
    if (i == 1) v.title = "rosebud flower garden";
    ASSERT_TRUE((*svc)->Ingest("alice", v).ok());
  }
  // Url and total score of every hit, in rank order.
  auto search = [&] {
    std::vector<std::pair<std::string, double>> hits;
    auto collect = [&](prov::ProvenanceDb::SnapshotView& view) {
      auto result = view.Search("rosebud garden");
      BP_RETURN_IF_ERROR(result.status());
      for (const auto& page : result->pages) {
        hits.emplace_back(page.url, page.total);
      }
      return util::Status::Ok();
    };
    EXPECT_TRUE((*svc)->WithSnapshot("alice", collect).ok());
    return hits;
  };
  const auto fresh = search();
  ASSERT_FALSE(fresh.empty());
  EXPECT_EQ(fresh[0].first, UrlOf("alice", 1));

  for (int round = 0; round < 3; ++round) {
    // Ingesting into another profile evicts alice's handle; the next
    // search reopens it.
    ASSERT_TRUE((*svc)->Ingest("bob", MakeVisit("bob", round)).ok());
    ASSERT_TRUE((*svc)->Drain().ok());
    const auto again = search();
    ASSERT_EQ(again.size(), fresh.size()) << "round " << round;
    for (size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(again[i].first, fresh[i].first) << "round " << round;
      EXPECT_DOUBLE_EQ(again[i].second, fresh[i].second)
          << "round " << round << " rank " << i;
    }
  }
  EXPECT_GE((*svc)->Stats().reopens, 3u);
}

TEST_F(ServiceTest, SustainsMoreProfilesThanTheHandleCap) {
  ServiceOptions options = BaseOptions();
  options.workers = 2;
  options.max_live_handles = 2;
  auto svc = ProvenanceService::Create("/p", options);
  ASSERT_TRUE(svc.ok());

  const int kProfiles = 8;
  for (int i = 0; i < 3; ++i) {
    for (int p = 0; p < kProfiles; ++p) {
      std::string profile = "prof" + std::to_string(p);
      ASSERT_TRUE((*svc)->Ingest(profile, MakeVisit(profile, i)).ok());
    }
  }
  ASSERT_TRUE((*svc)->Drain().ok());
  for (int p = 0; p < kProfiles; ++p) {
    EXPECT_TRUE(Sees(**svc, "prof" + std::to_string(p), 2));
  }
  EXPECT_LE((*svc)->Stats().live_handles, 2u);
}

TEST_F(ServiceTest, FlushIsAReadYourWritesBarrier) {
  auto svc = ProvenanceService::Create("/p", BaseOptions());
  ASSERT_TRUE(svc.ok());
  ASSERT_TRUE((*svc)->Ingest("alice", MakeVisit("alice", 7)).ok());
  ASSERT_TRUE((*svc)->Flush("alice").ok());
  ServiceStats stats = (*svc)->Stats();
  EXPECT_EQ(stats.committed, stats.enqueued);
  EXPECT_TRUE(Sees(**svc, "alice", 7));
}

TEST_F(ServiceTest, SnapshotViewIsFrozenAgainstLaterIngest) {
  auto svc = ProvenanceService::Create("/p", BaseOptions());
  ASSERT_TRUE(svc.ok());
  ASSERT_TRUE((*svc)->Ingest("alice", MakeVisit("alice", 0)).ok());

  ASSERT_TRUE(
      (*svc)
          ->WithSnapshot(
              "alice",
              [&](prov::ProvenanceDb::SnapshotView& view) {
                // WithSnapshot flushed: the earlier event is visible.
                EXPECT_TRUE(view.store().PageForUrl(UrlOf("alice", 0)).ok());
                // Ingested AND committed after the freeze: invisible
                // here, visible to the next snapshot.
                EXPECT_TRUE(
                    (*svc)->Ingest("alice", MakeVisit("alice", 1)).ok());
                EXPECT_TRUE((*svc)->Flush("alice").ok());
                EXPECT_FALSE(view.store().PageForUrl(UrlOf("alice", 1)).ok());
                return util::Status::Ok();
              })
          .ok());
  EXPECT_TRUE(Sees(**svc, "alice", 1));
}

TEST_F(ServiceTest, PinnedHandleSurvivesCachePressure) {
  ServiceOptions options = BaseOptions();
  options.workers = 1;
  options.max_live_handles = 1;
  auto svc = ProvenanceService::Create("/p", options);
  ASSERT_TRUE(svc.ok());
  ASSERT_TRUE((*svc)->Ingest("alice", MakeVisit("alice", 0)).ok());

  ASSERT_TRUE(
      (*svc)
          ->WithSnapshot(
              "alice",
              [&](prov::ProvenanceDb::SnapshotView& view) {
                // Committing to a second profile wants a second handle;
                // alice's is pinned by this view, so the cache must run
                // over its cap instead of evicting it. (The overshoot
                // itself is transient — the worker's unpin shrinks the
                // cache back — so the durable evidence is that alice
                // never had to be reopened: both profiles were first
                // opens, zero reopens, while the cap is 1.)
                EXPECT_TRUE((*svc)->Ingest("bob", MakeVisit("bob", 0)).ok());
                EXPECT_TRUE((*svc)->Flush("bob").ok());
                ServiceStats mid = (*svc)->Stats();
                EXPECT_GE(mid.opens, 2u);
                EXPECT_EQ(mid.reopens, 0u);
                // The pinned view still reads.
                EXPECT_TRUE(view.store().PageForUrl(UrlOf("alice", 0)).ok());
                return util::Status::Ok();
              })
          .ok());
  // Pins dropped: the cache shrinks back under its cap.
  EXPECT_LE((*svc)->Stats().live_handles, 1u);
  EXPECT_TRUE(Sees(**svc, "alice", 0));
  EXPECT_TRUE(Sees(**svc, "bob", 0));
}

TEST_F(ServiceTest, RejectBackpressureReturnsBudgetExhausted) {
  ServiceOptions options = BaseOptions();
  options.workers = 1;
  options.queue_capacity = 2;
  options.backpressure = capture::BackpressurePolicy::kReject;
  // Make every commit pay a visible fsync so the queue can actually
  // fill while the worker is busy.
  options.db.db.sync = true;
  options.db.db.wal_group_commit = 1;
  auto svc = ProvenanceService::Create("/p", options);
  ASSERT_TRUE(svc.ok());
  env_.set_sync_cost_us(20000);

  bool saw_reject = false;
  for (int i = 0; i < 200 && !saw_reject; ++i) {
    util::Status status = (*svc)->Ingest("alice", MakeVisit("alice", i));
    if (status.code() == util::StatusCode::kBudgetExhausted) {
      saw_reject = true;
    } else {
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
  }
  env_.set_sync_cost_us(0);
  EXPECT_TRUE(saw_reject);
  ASSERT_TRUE((*svc)->Drain().ok());
  ServiceStats stats = (*svc)->Stats();
  EXPECT_GT(stats.rejected, 0u);
  // Rejected events were refused at the door, not half-applied.
  EXPECT_EQ(stats.committed, stats.enqueued);
}

TEST_F(ServiceTest, BlockBackpressureIsLossless) {
  ServiceOptions options = BaseOptions();
  options.workers = 2;
  options.queue_capacity = 4;
  options.backpressure = capture::BackpressurePolicy::kBlock;
  options.db.db.sync = true;
  options.db.db.wal_group_commit = 1;
  auto svc = ProvenanceService::Create("/p", options);
  ASSERT_TRUE(svc.ok());
  env_.set_sync_cost_us(500);

  const int kThreads = 3;
  const int kPerThread = 40;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string profile = "prof" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        if (!(*svc)->Ingest(profile, MakeVisit(profile, i)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  env_.set_sync_cost_us(0);
  ASSERT_TRUE((*svc)->Drain().ok());
  EXPECT_EQ(failures.load(), 0);

  ServiceStats stats = (*svc)->Stats();
  EXPECT_EQ(stats.enqueued, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.committed, stats.enqueued);
  EXPECT_EQ(stats.rejected, 0u);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(Sees(**svc, "prof" + std::to_string(t), kPerThread - 1));
  }
}

// The TSan workload: capture threads spraying many profiles across a
// small handle cache while snapshot readers pin and release handles
// concurrently — eviction under load.
TEST_F(ServiceTest, ConcurrentIngestAndSnapshotsUnderEvictionPressure) {
  ServiceOptions options = BaseOptions();
  options.workers = 3;
  options.max_live_handles = 2;
  options.queue_capacity = 64;
  auto svc = ProvenanceService::Create("/p", options);
  ASSERT_TRUE(svc.ok());

  const int kProfiles = 6;
  const int kThreads = 4;
  const int kPerThread = 30;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string profile =
            "prof" + std::to_string((t * kPerThread + i) % kProfiles);
        int id = t * kPerThread + i;
        if (!(*svc)->Ingest(profile, MakeVisit(profile, id)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    int p = 0;
    while (!stop.load()) {
      std::string profile = "prof" + std::to_string(p++ % kProfiles);
      util::Status status = (*svc)->WithSnapshot(
          profile, [](prov::ProvenanceDb::SnapshotView& view) {
            // Touch the frozen view; content depends on timing.
            (void)view.commit_seq();
            return util::Status::Ok();
          });
      if (!status.ok()) failures.fetch_add(1);
    }
  });
  for (auto& thread : writers) thread.join();
  stop.store(true);
  reader.join();
  ASSERT_TRUE((*svc)->Drain().ok());
  EXPECT_EQ(failures.load(), 0);
  ServiceStats stats = (*svc)->Stats();
  EXPECT_EQ(stats.enqueued, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.committed, stats.enqueued);
}

// Regression: metrics dumps (registry collector lock → service
// collector → Stats() → registry mu_) used to deadlock against handle
// churn, which held mu_ across ProvenanceDb::Open/Close (both take the
// collector lock). Churn a cap-1 cache while a thread dumps in a loop;
// the test finishing at all is the assertion.
TEST_F(ServiceTest, MetricsDumpsConcurrentWithHandleChurn) {
  ServiceOptions options = BaseOptions();
  options.workers = 2;
  options.max_live_handles = 1;  // every profile switch opens + evicts
  auto svc = ProvenanceService::Create("/churn", options);
  ASSERT_TRUE(svc.ok());

  std::atomic<bool> stop{false};
  std::thread dumper([&] {
    while (!stop.load()) {
      (void)obs::MetricsRegistry::Global().DumpJson();
    }
  });
  const int kProfiles = 4;
  const int kEvents = 60;
  for (int i = 0; i < kEvents; ++i) {
    std::string profile = "prof" + std::to_string(i % kProfiles);
    ASSERT_TRUE((*svc)->Ingest(profile, MakeVisit(profile, i)).ok());
    // Periodic barriers keep the workers opening and evicting (rather
    // than folding a whole round into one batch on a warm handle).
    if (i % kProfiles == kProfiles - 1) ASSERT_TRUE((*svc)->Drain().ok());
  }
  ASSERT_TRUE((*svc)->Drain().ok());
  stop.store(true);
  dumper.join();

  ServiceStats stats = (*svc)->Stats();
  EXPECT_EQ(stats.committed, static_cast<uint64_t>(kEvents));
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.live_handles, 1u);
}

TEST_F(ServiceTest, ExportsServiceMetrics) {
  auto svc = ProvenanceService::Create("/metrics-probe", BaseOptions());
  ASSERT_TRUE(svc.ok());
  ASSERT_TRUE((*svc)->Ingest("alice", MakeVisit("alice", 0)).ok());
  ASSERT_TRUE((*svc)->Drain().ok());

  std::string json = obs::MetricsRegistry::Global().DumpJson();
  EXPECT_NE(json.find("bp_service_live_handles"), std::string::npos);
  EXPECT_NE(json.find("bp_service_ingest_us"), std::string::npos);
  EXPECT_NE(json.find("/metrics-probe"), std::string::npos);
  EXPECT_NE(json.find("bp_service_queue_depth"), std::string::npos);
}

}  // namespace
}  // namespace bp::service
