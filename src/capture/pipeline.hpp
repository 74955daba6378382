// IngestPipeline: the staged, asynchronous write path.
//
// Capture threads must never stall on storage — the paper's feasibility
// claim is that provenance capture rides along with normal browsing.
// The pipeline decouples capture from commit:
//
//   capture threads --Enqueue--> [bounded MPSC queue] --> committer thread
//                                                          |  coalesces whatever
//                                                          |  is pending (up to
//                                                          |  max_batch) into ONE
//                                                          v  CommitFn call
//                                                        CommitFn / SyncFn
//
// Enqueue is a mutex-protected queue push (no storage work, no fsync);
// it returns a monotonically increasing Ticket. A single background
// committer drains the queue in adaptive batches: under load it
// coalesces up to `max_batch` items per CommitFn call, and when the
// queue runs dry (or a Flush waits on items already committed) it calls
// SyncFn to close a storage group-commit window early — so tail latency
// collapses at low event rates instead of waiting for a fixed group to
// fill. A Flush whose items are still queued gets one sync after they
// commit, not one per batch on the way.
//
// Acknowledgement is a watermark: Flush(ticket) blocks until every item
// up to `ticket` is acknowledged, Drain() is Flush(last enqueued). What
// an acknowledgement means is the owner's choice, made through CommitFn's
// return value:
//   - ProvenanceDb's pipeline acknowledges at fsync: a committed batch
//     is acknowledged once the storage group-commit window holding it
//     is synced (CommitFn returns true only when the commit itself
//     filled and synced the window; otherwise the pipeline calls
//     SyncFn first).
//   - A ProvenanceService shard acknowledges at commit: its CommitFn
//     returns true for every batch that committed, so the shard's Flush
//     is a commit barrier and never waits for an fsync. Durability
//     there comes from each profile database's group-commit window and
//     its checkpoint at close.
//
// A failure is sticky: the batch a CommitFn or SyncFn failed on (and
// everything queued behind it) is dropped, and the error surfaces on
// every subsequent Enqueue/Flush — acknowledged tickets stay
// acknowledged, unacknowledged ones report the failure. Fail() latches
// an error found outside the committer the same way.
//
// Backpressure on a full queue is a policy: kBlock parks the capture
// thread until the committer frees space (lossless), kReject returns
// BudgetExhausted immediately (lossy, never blocks capture).
//
// The pipeline is a template over the queued item. Two instantiations
// exist (pipeline.cpp): IngestPipeline<BrowserEvent> behind
// ProvenanceDb, and IngestPipeline<ProfileEvent> behind each
// ProvenanceService shard.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "capture/bus.hpp"
#include "capture/events.hpp"
#include "util/mutex.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"

namespace bp::obs {
class Histogram;
}  // namespace bp::obs

namespace bp::capture {

enum class BackpressurePolicy : uint8_t {
  kBlock,   // Enqueue waits for queue space (capture is lossless)
  kReject,  // Enqueue returns BudgetExhausted on a full queue (no stall)
};

struct PipelineOptions {
  // Items the queue holds before backpressure applies.
  size_t queue_capacity = 4096;
  // Items coalesced into one CommitFn call per committer pass.
  size_t max_batch = 256;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
};

// Counters the pipeline maintains about itself (storage-side costs live
// in storage::PagerStats; the two meet in bench_ingest_pipeline's JSON).
struct PipelineStats {
  uint64_t enqueued = 0;        // tickets handed out
  uint64_t committed = 0;       // items in batches whose commit succeeded
  uint64_t batches = 0;         // batches that committed
  uint64_t coalesced_txns = 0;  // batches that carried more than 1 item
  uint64_t early_flushes = 0;   // groups closed early (queue dry / Flush)
  uint64_t rejected = 0;        // kReject refusals on a full queue
  uint64_t blocked_enqueues = 0;  // kBlock waits on a full queue
  uint64_t queue_depth = 0;       // items waiting right now
  uint64_t max_queue_depth = 0;   // deepest the queue ever got
  // Mean depth over samples taken at BOTH transition points — after
  // every enqueue and after every batch pop — so bursts the committer
  // drains between enqueues and idle stretches both weigh in (sampling
  // only at pops overstated the mean under bursty load: pops see the
  // queue at its fullest).
  double mean_queue_depth = 0;
};

// The queued item of a ProvenanceService shard: a profile id and one of
// its events.
using ProfileEvent = std::pair<std::string, BrowserEvent>;

template <typename Item>
class IngestPipeline {
 public:
  // 1-based, dense: the Nth enqueued item holds ticket N. 0 = "nothing".
  using Ticket = uint64_t;

  // Commits `items` as ONE batch. `backlog` is how many items were
  // still queued behind this batch when it was popped (0 means the
  // committer is about to go idle — sizing input for adaptive
  // policies). Returns whether every batch committed so far is
  // acknowledged (see the header comment); when false, the pipeline
  // calls SyncFn before acknowledging watermarks.
  using CommitFn =
      std::function<util::Result<bool>(std::vector<Item>&& items,
                                        size_t backlog)>;
  // Acknowledges every committed batch now (closes a partially filled
  // group-commit window).
  using SyncFn = std::function<util::Status()>;

  // Starts the committer thread. The callables run ON that thread and
  // must synchronize their storage access themselves (ProvenanceDb
  // passes closures that take its writer mutex).
  IngestPipeline(PipelineOptions options, CommitFn commit, SyncFn sync);
  // Drains what it can (a final implicit Flush of the last enqueued
  // ticket; skipped once a sticky error latched), then joins.
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  // Non-blocking under kBlock until the queue fills; never commits
  // inline. Returns the item's ticket, the sticky error, or
  // BudgetExhausted (kReject, queue full).
  util::Result<Ticket> Enqueue(Item item) BP_EXCLUDES(mu_);

  // Blocks until every item up to `ticket` is acknowledged, or returns
  // the sticky error if the pipeline failed before reaching it. Tickets
  // beyond the last enqueued are clamped (Flush(UINT64_MAX) == Drain).
  util::Status Flush(Ticket ticket) BP_EXCLUDES(mu_);
  // Barrier over everything enqueued so far.
  util::Status Drain() BP_EXCLUDES(mu_) { return Flush(UINT64_MAX); }

  // Latches `status` (not Ok) as the sticky error when none is latched
  // yet, for a failure the owner found outside CommitFn and SyncFn (a
  // service shard takes the close failures of its profiles' evicted
  // handles here). The queued backlog is dropped as after a failed
  // commit. Callable from any thread, the committer included.
  void Fail(util::Status status) BP_EXCLUDES(mu_);

  // Most recent ticket handed out (0 before the first Enqueue).
  Ticket last_enqueued() const BP_EXCLUDES(mu_);
  // Highest ticket acknowledged.
  Ticket durable_ticket() const BP_EXCLUDES(mu_);
  // The sticky status (Ok until a commit, sync or Fail).
  util::Status status() const BP_EXCLUDES(mu_);
  PipelineStats stats() const BP_EXCLUDES(mu_);

 private:
  void CommitterLoop() BP_EXCLUDES(mu_);
  // Committer must wake to close the group early: something committed
  // is not yet acknowledged and a blocked Flush waits on no more than
  // that.
  bool SyncWantedLocked() const BP_REQUIRES(mu_) {
    return status_.ok() && durable_ < committed_ && FlushCommittedLocked();
  }
  // Some blocked Flush waits only on committed items, so a sync now
  // releases it. A Flush still waiting on queued items gains nothing
  // from a sync before they commit.
  bool FlushCommittedLocked() const BP_REQUIRES(mu_) {
    return !flush_waits_.empty() && *flush_waits_.begin() <= committed_;
  }
  // First failure wins. Drops the backlog and wakes blocked producers
  // and Flush waiters so they see the error.
  void LatchLocked(util::Status status) BP_REQUIRES(mu_);

  const PipelineOptions options_;
  const CommitFn commit_;
  const SyncFn sync_;

  mutable util::Mutex mu_;
  std::condition_variable work_cv_;   // wakes the committer
  std::condition_variable space_cv_;  // wakes producers blocked on space
  std::condition_variable ack_cv_;    // wakes Flush/Drain waiters
  std::deque<Item> queue_ BP_GUARDED_BY(mu_);
  Ticket next_ticket_ BP_GUARDED_BY(mu_) = 1;  // next Enqueue's ticket
  Ticket popped_ BP_GUARDED_BY(mu_) = 0;     // last handed to committer
  Ticket committed_ BP_GUARDED_BY(mu_) = 0;  // last committed
  Ticket durable_ BP_GUARDED_BY(mu_) = 0;    // last acknowledged
  // The ticket of every blocked Flush, one entry per caller.
  std::multiset<Ticket> flush_waits_ BP_GUARDED_BY(mu_);
  util::Status status_ BP_GUARDED_BY(mu_);      // sticky first error
  bool stop_ BP_GUARDED_BY(mu_) = false;
  PipelineStats stats_ BP_GUARDED_BY(mu_);
  uint64_t depth_samples_ BP_GUARDED_BY(mu_) = 0;
  uint64_t depth_sum_ BP_GUARDED_BY(mu_) = 0;

  // Observability (src/obs): process-wide stage-latency histograms,
  // shared by every pipeline and fetched once at construction.
  // Registry-owned; no unregistration needed (instruments are eternal).
  // The live queue depth is per pipeline: PipelineStats::queue_depth,
  // which each owner's pull collector exports.
  obs::Histogram* enqueue_latency_us_ = nullptr;
  obs::Histogram* commit_batch_latency_us_ = nullptr;
  obs::Histogram* sync_latency_us_ = nullptr;
  obs::Histogram* batch_events_ = nullptr;
  // Declared last: starts after every member above is initialized.
  std::thread committer_;
};

extern template class IngestPipeline<BrowserEvent>;
extern template class IngestPipeline<ProfileEvent>;

// EventSink adapter: lets an EventBus feed a pipeline directly, so an
// instrumented browser's bus fans out to the Places baseline AND the
// async provenance path in one Publish. OnEvent forwards to the enqueue
// function and returns its status (under kReject backpressure a full
// queue surfaces as BudgetExhausted to the bus caller; the sticky
// pipeline error surfaces the same way).
class AsyncSink : public EventSink {
 public:
  using EnqueueFn = std::function<util::Status(const BrowserEvent&)>;
  explicit AsyncSink(EnqueueFn enqueue) : enqueue_(std::move(enqueue)) {}

  util::Status OnEvent(const BrowserEvent& event) override {
    return enqueue_(event);
  }

 private:
  EnqueueFn enqueue_;
};

}  // namespace bp::capture
