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
//                                                          v  storage transaction
//                                                        CommitFn / SyncFn
//
// Enqueue is a mutex-protected queue push (no storage work, no fsync);
// it returns a monotonically increasing Ticket. A single background
// committer drains the queue in adaptive batches: under load it
// coalesces up to `max_batch` events per storage transaction and lets
// the storage layer's group-commit window amortize fsyncs, and when the
// queue runs dry (or a Flush barrier is waiting) it calls SyncFn to
// close the group early — so tail latency collapses at low event rates
// instead of waiting for a fixed group to fill.
//
// Durability acknowledgment is a watermark: Flush(ticket) blocks until
// every event up to `ticket` is DURABLE (committed and fsynced), Drain()
// is Flush(last enqueued). A committer error is sticky: the batch it
// failed on (and everything queued behind it) is dropped, and the error
// surfaces on every subsequent Enqueue/Flush — acknowledged tickets stay
// acknowledged, unacknowledged ones report the failure.
//
// Backpressure on a full queue is a policy: kBlock parks the capture
// thread until the committer frees space (lossless), kReject returns
// BudgetExhausted immediately (lossy, never blocks capture).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "capture/bus.hpp"
#include "capture/events.hpp"
#include "util/mutex.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"

namespace bp::obs {
class Gauge;
class Histogram;
}  // namespace bp::obs

namespace bp::capture {

enum class BackpressurePolicy : uint8_t {
  kBlock,   // Enqueue waits for queue space (capture is lossless)
  kReject,  // Enqueue returns BudgetExhausted on a full queue (no stall)
};

struct PipelineOptions {
  // Events the queue holds before backpressure applies.
  size_t queue_capacity = 4096;
  // Events coalesced into one storage transaction per committer pass.
  size_t max_batch = 256;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
};

// Counters the pipeline maintains about itself (storage-side costs live
// in storage::PagerStats; the two meet in bench_ingest_pipeline's JSON).
struct PipelineStats {
  uint64_t enqueued = 0;        // tickets handed out
  uint64_t committed = 0;       // events whose transaction committed
  uint64_t batches = 0;         // storage transactions the committer ran
  uint64_t coalesced_txns = 0;  // batches that carried more than 1 event
  uint64_t early_flushes = 0;   // groups closed early (queue dry / Flush)
  uint64_t rejected = 0;        // kReject refusals on a full queue
  uint64_t blocked_enqueues = 0;  // kBlock waits on a full queue
  uint64_t max_queue_depth = 0;   // deepest the queue ever got
  // Mean depth over samples taken at BOTH transition points — after
  // every enqueue and after every batch pop — so bursts the committer
  // drains between enqueues and idle stretches both weigh in (sampling
  // only at pops overstated the mean under bursty load: pops see the
  // queue at its fullest).
  double mean_queue_depth = 0;
};

class IngestPipeline {
 public:
  // 1-based, dense: the Nth enqueued event holds ticket N. 0 = "nothing".
  using Ticket = uint64_t;

  // Commits `events` as ONE storage transaction. `backlog` is how many
  // events were still queued behind this batch when it was popped (0
  // means the committer is about to go idle — sizing input for adaptive
  // policies). Returns whether every commit so far is durable (e.g. the
  // commit filled and flushed the storage group-commit window); when
  // false, the pipeline calls SyncFn before acknowledging watermarks.
  using CommitFn = std::function<util::Result<bool>(
      std::vector<BrowserEvent>&& events, size_t backlog)>;
  // Makes every committed event durable now (closes a partially filled
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
  // inline. Returns the event's ticket, the sticky committer error, or
  // BudgetExhausted (kReject, queue full).
  util::Result<Ticket> Enqueue(const BrowserEvent& event) BP_EXCLUDES(mu_);

  // Blocks until every event up to `ticket` is durable, or returns the
  // sticky error if the committer failed before reaching it. Tickets
  // beyond the last enqueued are clamped (Flush(UINT64_MAX) == Drain).
  util::Status Flush(Ticket ticket) BP_EXCLUDES(mu_);
  // Barrier over everything enqueued so far.
  util::Status Drain() BP_EXCLUDES(mu_) { return Flush(UINT64_MAX); }

  // Most recent ticket handed out (0 before the first Enqueue).
  Ticket last_enqueued() const BP_EXCLUDES(mu_);
  // Highest ticket acknowledged durable.
  Ticket durable_ticket() const BP_EXCLUDES(mu_);
  // The sticky committer status (Ok until a commit or sync fails).
  util::Status status() const BP_EXCLUDES(mu_);
  PipelineStats stats() const BP_EXCLUDES(mu_);

 private:
  void CommitterLoop() BP_EXCLUDES(mu_);
  // Committer must wake to close the group early: something committed
  // is not yet durable and a Flush barrier (or shutdown) wants it.
  bool SyncWantedLocked() const BP_REQUIRES(mu_) {
    return status_.ok() && durable_ < committed_ && flush_target_ > durable_;
  }

  const PipelineOptions options_;
  const CommitFn commit_;
  const SyncFn sync_;

  mutable util::Mutex mu_;
  std::condition_variable work_cv_;   // wakes the committer
  std::condition_variable space_cv_;  // wakes producers blocked on space
  std::condition_variable ack_cv_;    // wakes Flush/Drain waiters
  std::deque<BrowserEvent> queue_ BP_GUARDED_BY(mu_);
  Ticket next_ticket_ BP_GUARDED_BY(mu_) = 1;  // next Enqueue's ticket
  Ticket popped_ BP_GUARDED_BY(mu_) = 0;     // last handed to committer
  Ticket committed_ BP_GUARDED_BY(mu_) = 0;  // last txn-committed
  Ticket durable_ BP_GUARDED_BY(mu_) = 0;    // last known durable
  Ticket flush_target_ BP_GUARDED_BY(mu_) = 0;  // highest Flush() wait
  util::Status status_ BP_GUARDED_BY(mu_);      // sticky committer error
  bool stop_ BP_GUARDED_BY(mu_) = false;
  PipelineStats stats_ BP_GUARDED_BY(mu_);
  uint64_t depth_samples_ BP_GUARDED_BY(mu_) = 0;
  uint64_t depth_sum_ BP_GUARDED_BY(mu_) = 0;

  // Observability (src/obs): process-wide stage-latency histograms and
  // the live queue-depth gauge, fetched once at construction.
  // Registry-owned; no unregistration needed (instruments are eternal).
  obs::Histogram* enqueue_latency_us_ = nullptr;
  obs::Histogram* commit_batch_latency_us_ = nullptr;
  obs::Histogram* sync_latency_us_ = nullptr;
  obs::Histogram* batch_events_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  // Declared last: starts after every member above is initialized.
  std::thread committer_;
};

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
