// Asynchronous ingest pipeline: IngestAsync never commits inline,
// Flush/Drain are durability barriers, read-your-writes holds through
// one-shot queries and snapshots, backpressure follows the configured
// policy, committer errors are sticky, the adaptive group commit
// collapses tail latency when the queue runs dry — and, via the
// crash-at-every-prefix harness, a crash never loses an acknowledged
// event and always recovers a clean prefix of the ticket order.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "capture/events.hpp"
#include "capture/pipeline.hpp"
#include "prov/provenance_db.hpp"
#include "sim/scenario.hpp"
#include "storage/env.hpp"

namespace bp::prov {
namespace {

using capture::BrowserEvent;
using capture::VisitEvent;

std::string Url(int i) {
  return "http://site" + std::to_string(i) + ".example/";
}

VisitEvent MakeVisit(uint64_t visit_id, std::string url,
                     util::TimeMs time = util::Days(1)) {
  VisitEvent v;
  v.time = time;
  v.tab = 1;
  v.visit_id = visit_id;
  v.url = std::move(url);
  v.title = "an example page";
  v.action = capture::NavigationAction::kTyped;
  return v;
}

ProvenanceDb::Options MemOptions(storage::MemEnv* env) {
  ProvenanceDb::Options options;
  options.db.env = env;
  return options;
}

// ------------------------------------------------------ read-your-writes

TEST(IngestPipelineTest, TicketsAreDenseAndMonotone) {
  storage::MemEnv env;
  auto db = ProvenanceDb::Open("async.db", MemOptions(&env));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (uint64_t i = 1; i <= 5; ++i) {
    auto ticket = (*db)->IngestAsync(MakeVisit(i, Url(static_cast<int>(i))));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    EXPECT_EQ(*ticket, i);
  }
  EXPECT_TRUE((*db)->Drain().ok());
  EXPECT_EQ((*db)->pipeline_stats().enqueued, 5u);
  EXPECT_EQ((*db)->pipeline_stats().committed, 5u);
}

TEST(IngestPipelineTest, OneShotQueriesSeeAsyncIngestWithoutExplicitFlush) {
  storage::MemEnv env;
  auto db = ProvenanceDb::Open("async.db", MemOptions(&env));
  ASSERT_TRUE(db.ok());

  sim::ScenarioBuilder s;
  uint64_t search = s.Search(1, "rosebud");
  s.Wait(util::Seconds(1));
  uint64_t results =
      s.Visit(1, "https://search.example/results?q=rosebud",
              "rosebud - search results",
              capture::NavigationAction::kSearchResult, 0, search);
  s.Wait(util::Seconds(5));
  s.Visit(1, "http://films.example/citizen-kane", "citizen kane 1941 film",
          capture::NavigationAction::kLink, results);
  for (const BrowserEvent& event : s.events()) {
    ASSERT_TRUE((*db)->IngestAsync(event).ok());
  }

  // No Flush: the one-shot query drains the pipeline itself
  // (drain_before_query), so it reads its own async writes.
  auto hits = (*db)->Search("rosebud");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  bool found_kane = false;
  for (const auto& page : hits->pages) {
    if (page.url == "http://films.example/citizen-kane") found_kane = true;
  }
  EXPECT_TRUE(found_kane);
}

TEST(IngestPipelineTest, BeginSnapshotDrainsSoTheViewCoversAsyncIngest) {
  storage::MemEnv env;
  auto db = ProvenanceDb::Open("async.db", MemOptions(&env));
  ASSERT_TRUE(db.ok());
  for (uint64_t i = 1; i <= 8; ++i) {
    ASSERT_TRUE((*db)->IngestAsync(MakeVisit(i, Url(static_cast<int>(i)))).ok());
  }
  auto view = (*db)->BeginSnapshot();
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  // The frozen view includes every enqueued event (node-policy: one page
  // + one visit node per event).
  graph::QueryStats stats;
  uint64_t nodes = 0;
  for (auto cursor = view->Nodes(1, &stats); cursor.Valid(); cursor.Next()) {
    ++nodes;
  }
  EXPECT_EQ(nodes, 16u);
}

TEST(IngestPipelineTest, DrainBeforeQueryOffLeavesQueriesUnblocked) {
  storage::MemEnv env;
  ProvenanceDb::Options options = MemOptions(&env);
  options.async.drain_before_query = false;
  auto db = ProvenanceDb::Open("async.db", options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->IngestAsync(MakeVisit(1, Url(1))).ok());
  // The query may or may not see the event (no drain) — it must simply
  // succeed against whatever committed; an explicit Drain then makes
  // the event visible.
  EXPECT_TRUE((*db)->TextualSearch("example").ok());
  ASSERT_TRUE((*db)->Drain().ok());
  EXPECT_TRUE((*db)->store().PageForUrl(Url(1)).ok());
}

// ---------------------------------------------------------- durability

TEST(IngestPipelineTest, FlushClosesThePartialGroupCommitWindow) {
  storage::MemEnv env;
  ProvenanceDb::Options options = MemOptions(&env);
  options.db.wal_group_commit = 64;  // a window ingest alone never fills
  auto db = ProvenanceDb::Open("async.db", options);
  ASSERT_TRUE(db.ok());

  auto ticket = (*db)->IngestAsync(MakeVisit(1, Url(1)));
  ASSERT_TRUE(ticket.ok());
  for (uint64_t i = 2; i <= 5; ++i) {
    ticket = (*db)->IngestAsync(MakeVisit(i, Url(static_cast<int>(i))));
    ASSERT_TRUE(ticket.ok());
  }
  ASSERT_TRUE((*db)->Flush(*ticket).ok());
  // Acknowledged means DURABLE: nothing committed awaits an fsync, even
  // though the 64-commit window never filled — the adaptive group close
  // is what fixes the fixed-cadence tail-latency cliff.
  EXPECT_EQ((*db)->db().pager().unsynced_commits(), 0u);
  EXPECT_GE((*db)->db().pager().stats().group_commits, 1u);
  EXPECT_GE((*db)->pipeline_stats().early_flushes, 1u);
}

TEST(IngestPipelineTest, FlushBehindQueuedEventsSyncsOnceAfterTheyCommit) {
  // The first batch stays open until the rest of the events are queued
  // and a Flush waits on the last of them. A sync between the batches
  // would release no one, so the group closes once, after the batch
  // that commits the flushed ticket.
  std::mutex mu;
  std::condition_variable cv;
  bool first_open = false;
  bool release = false;
  std::atomic<int> commits{0};
  std::atomic<int> syncs{0};
  capture::IngestPipeline<BrowserEvent> pipeline(
      capture::PipelineOptions{},
      [&](std::vector<BrowserEvent>&&, size_t) -> util::Result<bool> {
        std::unique_lock<std::mutex> lock(mu);
        if (++commits == 1) {
          first_open = true;
          cv.notify_all();
          cv.wait(lock, [&] { return release; });
        }
        return false;  // durable only once the pipeline syncs
      },
      [&] {
        syncs.fetch_add(1);
        return util::Status::Ok();
      });
  ASSERT_TRUE(pipeline.Enqueue(MakeVisit(1, Url(1))).ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return first_open; });
  }
  capture::IngestPipeline<BrowserEvent>::Ticket last = 0;
  for (uint64_t i = 2; i <= 6; ++i) {
    auto ticket = pipeline.Enqueue(MakeVisit(i, Url(static_cast<int>(i))));
    ASSERT_TRUE(ticket.ok());
    last = *ticket;
  }
  std::thread flusher([&] { EXPECT_TRUE(pipeline.Flush(last).ok()); });
  // Let the flusher block on its ticket before the first batch ends.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  flusher.join();
  EXPECT_EQ(pipeline.durable_ticket(), last);
  EXPECT_EQ(commits.load(), 2);
  EXPECT_EQ(syncs.load(), 1);
}

TEST(IngestPipelineTest, SynchronousIngestLeavesTheTailUnsynced) {
  // The contrast case for the test above: with a large group window and
  // no pipeline barrier, synchronous per-event ingest strands every
  // commit in the unfilled window until someone calls Sync().
  storage::MemEnv env;
  ProvenanceDb::Options options = MemOptions(&env);
  options.db.wal_group_commit = 64;
  auto db = ProvenanceDb::Open("sync.db", options);
  ASSERT_TRUE(db.ok());
  for (uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE((*db)->Ingest(MakeVisit(i, Url(static_cast<int>(i)))).ok());
  }
  EXPECT_GE((*db)->db().pager().unsynced_commits(), 5u);
  ASSERT_TRUE((*db)->Sync().ok());
  EXPECT_EQ((*db)->db().pager().unsynced_commits(), 0u);
}

// --------------------------------------------------------- backpressure

// Subscribed to a database's bus, holds the committer inside its first
// Publish until Open(): a stalled committer, so producers meet a full
// queue. Declare it before the database, which must not outlive it.
class GateSink : public capture::EventSink {
 public:
  util::Status OnEvent(const BrowserEvent&) override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
    return util::Status::Ok();
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(IngestPipelineTest, RejectPolicySurfacesFullQueueWithoutBlocking) {
  storage::MemEnv env;
  GateSink gate;
  ProvenanceDb::Options options = MemOptions(&env);
  options.async.queue_capacity = 2;
  options.async.backpressure = capture::BackpressurePolicy::kReject;
  auto db = ProvenanceDb::Open("async.db", options);
  ASSERT_TRUE(db.ok());
  (*db)->bus().Subscribe(&gate);

  std::vector<int> accepted;
  bool rejected = false;
  {
    // Stall the committer: the gate holds it inside its first batch.
    // The pipeline can absorb at most one in-flight batch plus a full
    // queue; with capacity 2 a reject MUST appear within a handful of
    // enqueues, and the capture thread never blocks.
    for (int i = 1; i <= 20 && !rejected; ++i) {
      auto ticket = (*db)->IngestAsync(MakeVisit(i, Url(i)));
      if (ticket.ok()) {
        accepted.push_back(i);
      } else {
        EXPECT_TRUE(ticket.status().IsBudgetExhausted())
            << ticket.status().ToString();
        rejected = true;
      }
    }
    gate.Open();
  }
  EXPECT_TRUE(rejected);
  EXPECT_GE((*db)->pipeline_stats().rejected, 1u);
  ASSERT_TRUE((*db)->Drain().ok());
  // Lossy but honest: every ACCEPTED event committed, no more, no less.
  for (int i : accepted) {
    EXPECT_TRUE((*db)->store().PageForUrl(Url(i)).ok()) << Url(i);
  }
  EXPECT_EQ((*db)->pipeline_stats().committed, accepted.size());
}

TEST(IngestPipelineTest, BlockPolicyIsLosslessUnderAFullQueue) {
  storage::MemEnv env;
  GateSink gate;
  ProvenanceDb::Options options = MemOptions(&env);
  options.async.queue_capacity = 2;  // default kBlock
  auto db = ProvenanceDb::Open("async.db", options);
  ASSERT_TRUE(db.ok());
  (*db)->bus().Subscribe(&gate);  // stall the committer

  constexpr int kEvents = 8;
  std::thread producer;
  {
    producer = std::thread([&] {
      for (int i = 1; i <= kEvents; ++i) {
        auto ticket = (*db)->IngestAsync(MakeVisit(i, Url(i)));
        EXPECT_TRUE(ticket.ok()) << ticket.status().ToString();
      }
    });
    // 8 events cannot fit in one in-flight batch + a 2-slot queue, so
    // the producer is guaranteed to hit the blocking path while the
    // gate pins the committer. Wait (bounded) until it has, then open
    // the gate to let it finish.
    for (int waited_ms = 0; waited_ms < 10000 &&
                            (*db)->pipeline_stats().blocked_enqueues == 0;
         ++waited_ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    gate.Open();
  }
  producer.join();
  ASSERT_TRUE((*db)->Drain().ok());
  EXPECT_GE((*db)->pipeline_stats().blocked_enqueues, 1u);
  EXPECT_EQ((*db)->pipeline_stats().committed,
            static_cast<uint64_t>(kEvents));
  for (int i = 1; i <= kEvents; ++i) {
    EXPECT_TRUE((*db)->store().PageForUrl(Url(i)).ok()) << Url(i);
  }
}

// --------------------------------------------------------- sticky errors

class PoisonSink : public capture::EventSink {
 public:
  util::Status OnEvent(const BrowserEvent& event) override {
    const auto* visit = std::get_if<VisitEvent>(&event);
    if (visit != nullptr && visit->url == "http://poison.example/") {
      return util::Status::IoError("poison event");
    }
    return util::Status::Ok();
  }
};

TEST(IngestPipelineTest, CommitterErrorIsStickyAndDropsTheBacklog) {
  storage::MemEnv env;
  auto db = ProvenanceDb::Open("async.db", MemOptions(&env));
  ASSERT_TRUE(db.ok());
  PoisonSink poison;
  (*db)->bus().Subscribe(&poison);

  ASSERT_TRUE((*db)->IngestAsync(MakeVisit(1, Url(1))).ok());
  ASSERT_TRUE((*db)->IngestAsync(
                      MakeVisit(2, "http://poison.example/"))
                  .ok());
  ASSERT_TRUE((*db)->IngestAsync(MakeVisit(3, Url(3))).ok());

  // The barrier reports the committer's failure...
  util::Status drained = (*db)->Drain();
  EXPECT_FALSE(drained.ok());
  EXPECT_EQ(drained.code(), util::StatusCode::kIoError);
  // ...the status is sticky on every subsequent entry point...
  EXPECT_EQ((*db)->pipeline_status().code(), util::StatusCode::kIoError);
  EXPECT_EQ((*db)->IngestAsync(MakeVisit(4, Url(4))).status().code(),
            util::StatusCode::kIoError);
  EXPECT_EQ((*db)->Drain().code(), util::StatusCode::kIoError);
  // ...and the poisoned batch is all-or-nothing: the event behind the
  // failure never surfaces (its batch rolled back / backlog dropped).
  EXPECT_FALSE((*db)->store().PageForUrl(Url(3)).ok());
  EXPECT_FALSE(
      (*db)->store().PageForUrl("http://poison.example/").ok());
}

// ------------------------------------------------------ async disabled

TEST(IngestPipelineTest, DisabledPipelineRejectsIngestAsyncOnly) {
  storage::MemEnv env;
  ProvenanceDb::Options options = MemOptions(&env);
  options.async.enabled = false;
  auto db = ProvenanceDb::Open("sync-only.db", options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->IngestAsync(MakeVisit(1, Url(1))).status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ((*db)->async_sink(), nullptr);
  // Barriers are trivially satisfied; the sync path is unaffected.
  EXPECT_TRUE((*db)->Drain().ok());
  EXPECT_TRUE((*db)->Ingest(MakeVisit(1, Url(1))).ok());
  EXPECT_TRUE((*db)->store().PageForUrl(Url(1)).ok());
}

// ------------------------------------------------- AsyncSink adapter

TEST(IngestPipelineTest, ExternalBusFeedsThePipelineThroughAsyncSink) {
  storage::MemEnv env;
  auto db = ProvenanceDb::Open("async.db", MemOptions(&env));
  ASSERT_TRUE(db.ok());

  // An instrumented browser's own bus, fanning out to the async
  // provenance path — Publish returns without any storage work.
  capture::EventBus browser_bus;
  ASSERT_NE((*db)->async_sink(), nullptr);
  browser_bus.Subscribe((*db)->async_sink());
  ASSERT_EQ(browser_bus.sink_count(), 1u);

  sim::ScenarioBuilder s;
  s.Visit(1, "http://a.example/", "A", capture::NavigationAction::kTyped);
  s.Visit(1, "http://b.example/", "B", capture::NavigationAction::kTyped);
  ASSERT_TRUE(browser_bus.PublishAll(s.events()).ok());
  ASSERT_TRUE((*db)->Drain().ok());
  EXPECT_TRUE((*db)->store().PageForUrl("http://a.example/").ok());
  EXPECT_TRUE((*db)->store().PageForUrl("http://b.example/").ok());
}

TEST(IngestPipelineTest, SelfFeedingSinkIsRefusedInsteadOfDeadlocking) {
  // Subscribing the async sink to the facade's OWN bus would make the
  // committer re-enqueue every event it commits — an infinite loop
  // that, under kBlock backpressure, wedges the committer against
  // itself. The pipeline refuses committer-thread enqueues instead:
  // the batch fails, the error latches, nothing hangs.
  storage::MemEnv env;
  auto db = ProvenanceDb::Open("async.db", MemOptions(&env));
  ASSERT_TRUE(db.ok());
  (*db)->bus().Subscribe((*db)->async_sink());

  ASSERT_TRUE((*db)->IngestAsync(MakeVisit(1, Url(1))).ok());
  util::Status drained = (*db)->Drain();  // must return, not deadlock
  EXPECT_EQ(drained.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ((*db)->pipeline_status().code(),
            util::StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------- stress (TSan)

TEST(IngestPipelineStressTest, ProducersFlushesAndSnapshotReaders) {
  storage::MemEnv env;
  ProvenanceDb::Options options = MemOptions(&env);
  options.ingest_batch = 32;
  options.async.queue_capacity = 64;
  auto db = ProvenanceDb::Open("stress.db", options);
  ASSERT_TRUE(db.ok());

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  std::atomic<bool> stop{false};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        uint64_t id = static_cast<uint64_t>(p) * 1000000 + i + 1;
        std::string url = "http://p" + std::to_string(p) + ".example/" +
                          std::to_string(i);
        auto ticket = (*db)->IngestAsync(
            MakeVisit(id, std::move(url), util::Days(1) + id));
        ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
        if (i % 50 == 49) {
          ASSERT_TRUE((*db)->Flush(*ticket).ok());
        }
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t last_nodes = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto view = (*db)->BeginSnapshot();
        ASSERT_TRUE(view.ok()) << view.status().ToString();
        graph::QueryStats stats;
        uint64_t nodes = 0;
        for (auto cursor = view->Nodes(1, &stats); cursor.Valid();
             cursor.Next()) {
          ++nodes;
        }
        // Commit horizons only move forward.
        ASSERT_GE(nodes, last_nodes);
        last_nodes = nodes;
      }
    });
  }

  for (std::thread& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  ASSERT_TRUE((*db)->Drain().ok());

  const capture::PipelineStats stats = (*db)->pipeline_stats();
  EXPECT_EQ(stats.enqueued,
            static_cast<uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(stats.committed, stats.enqueued);
  EXPECT_GE(stats.coalesced_txns, 1u);
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_TRUE((*db)
                    ->store()
                    .PageForUrl("http://p" + std::to_string(p) +
                                ".example/" +
                                std::to_string(kPerProducer - 1))
                    .ok());
  }
  EXPECT_TRUE((*db)->pipeline_status().ok());
}

// -------------------------------------------- crash-at-every-prefix
//
// The async extension of wal_test's crash-injection property: drive the
// pipeline with periodic Flush barriers while the MemEnv op log records
// every byte that hits the "disk", then crash at every prefix of the op
// sequence (plus torn cuts through each write), reopen, and require
// (a) the recovered database is a clean prefix of the ticket order —
// never a hole, never a torn batch — and (b) every event a Flush
// acknowledged before the crash point is present: an acknowledged event
// is NEVER lost.

TEST(IngestPipelineCrashTest, AcknowledgedEventsSurviveEveryCrashPrefix) {
  storage::MemEnv env;
  ProvenanceDb::Options options = MemOptions(&env);
  options.db.wal_group_commit = 4;
  options.ingest_batch = 3;  // small batches -> many txn boundaries

  // Schema setup BEFORE logging starts, so every crash point sits on a
  // well-formed database.
  {
    auto db = ProvenanceDb::Open("crash.db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
  }
  auto base = env.SnapshotAll();

  constexpr int kEvents = 30;
  constexpr int kFlushEvery = 5;
  struct AckPoint {
    size_t ops_done;  // op-log length when the Flush returned
    int acked;        // events acknowledged durable at that point
  };
  std::vector<AckPoint> acks;
  std::vector<storage::MemEnvOp> ops;
  {
    env.StartOpLog();
    auto db = ProvenanceDb::Open("crash.db", options);
    ASSERT_TRUE(db.ok());
    acks.push_back({env.OpLogSize(), 0});
    for (int i = 0; i < kEvents; ++i) {
      auto ticket = (*db)->IngestAsync(
          MakeVisit(static_cast<uint64_t>(i) + 1, Url(i)));
      ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
      if ((i + 1) % kFlushEvery == 0) {
        ASSERT_TRUE((*db)->Flush(*ticket).ok());
        // Flush(last enqueued) quiesces the committer (everything is
        // durable and the queue is empty), so the op log is stable.
        acks.push_back({env.OpLogSize(), i + 1});
      }
    }
    ASSERT_TRUE((*db)->Drain().ok());
    acks.push_back({env.OpLogSize(), kEvents});
    // Stop BEFORE the clean close: the crash window under test ends at
    // the last acknowledgment.
    ops = env.StopOpLog();
  }
  ASSERT_GT(ops.size(), acks.size());

  size_t checked = 0;
  for (size_t p = 0; p <= ops.size(); ++p) {
    std::vector<int64_t> cuts = {-1};  // clean crash between ops
    if (p < ops.size() && ops[p].kind == storage::MemEnvOp::Kind::kWrite) {
      int64_t len = static_cast<int64_t>(ops[p].data.size());
      for (int64_t cut : {int64_t{1}, len / 4, len / 2, 3 * len / 4,
                          len - 1}) {
        if (cut > 0 && cut < len) cuts.push_back(cut);
      }
    }
    for (int64_t partial : cuts) {
      env.RestoreAll(base);
      ASSERT_TRUE(env.ApplyOps(ops, p, partial).ok());

      auto db = ProvenanceDb::Open("crash.db", options);
      ASSERT_TRUE(db.ok()) << "crash at op " << p << " cut " << partial
                           << ": " << db.status().ToString();
      // (a) Clean prefix of the ticket order.
      int recovered = 0;
      while (recovered < kEvents &&
             (*db)->store().PageForUrl(Url(recovered)).ok()) {
        ++recovered;
      }
      for (int i = recovered; i < kEvents; ++i) {
        EXPECT_FALSE((*db)->store().PageForUrl(Url(i)).ok())
            << "hole in recovered prefix: event " << i
            << " present but event " << recovered
            << " absent (crash at op " << p << " cut " << partial << ")";
      }
      // (b) No acknowledged event lost.
      int acked = 0;
      for (const AckPoint& ack : acks) {
        if (ack.ops_done <= p) acked = ack.acked;
      }
      EXPECT_GE(recovered, acked)
          << "crash at op " << p << " cut " << partial << " lost "
          << (acked - recovered) << " acknowledged events";
      ++checked;
    }
  }
  EXPECT_GT(checked, ops.size());
}

}  // namespace
}  // namespace bp::prov
