#pragma once
// ShardPool: the runtime's worker pool — one run queue, one pending-frame
// budget, one FrameArena and `workers` threads.
//
// Ordering: streams are serialized through *strands*. A strand is an inbox
// of jobs plus an "active" flag; at most one runnable token per strand
// exists in the run queue at a time, and the token executes exactly one
// inbox job before reposting itself to the back of the queue. That gives
// two properties at once:
//  * a stream's jobs run (and complete) strictly in submission order, on
//    whichever worker picks the token up;
//  * between jobs the token waits its turn behind the other streams, so a
//    hot stream still spreads over every idle worker, job by job.
//
// Backpressure: the budget counts frames admitted but not yet started (at
// least 1). Block waits for budget, Reject fails fast with QueueFull; after
// shutdown every submission returns ShutDown.
//
// Shutdown: after close, queued tokens still drain — a token that runs
// under a closed pool drains its strand's whole inbox in place instead of
// reposting, so every accepted job executes before the workers join.
//
// Wake-up rule: idle workers sleep on the condition variable until
// notified; nothing re-polls. A worker exits once the pool is closed, the
// run queue is empty and no producer is between budget and enqueue. One
// that finds a producer still in that window sleeps on, so the producer
// ending the last window on a closed pool wakes every worker: its own
// strand token may already be queued or running, in which case it pushes
// nothing and a single wake-up could reach no worker that can exit.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "runtime/frame_arena.hpp"

namespace swc::runtime {

enum class SubmitPolicy : std::uint8_t {
  Block,   // wait for budget (backpressure)
  Reject,  // fail fast when the budget is spent
};

// Why a submission was (not) accepted, for callers that must report the
// cause upstream (the serve layer maps these onto wire-level responses).
enum class SubmitOutcome : std::uint8_t {
  Accepted,   // job enqueued
  QueueFull,  // Reject policy and the budget was spent
  ShutDown,   // pool is shutting down; nothing will be accepted again
};

struct ShardPoolOptions {
  std::size_t workers = 4;          // 0 means 1
  std::size_t queue_capacity = 64;  // pending-frame budget; 0 means 1
};

// Point-in-time view of the pool, folded into RuntimeStatsSnapshot.
struct ShardStatsSnapshot {
  std::size_t workers = 0;
  std::size_t queue_depth = 0;  // admitted frames not yet started
  std::size_t queue_capacity = 0;
  std::size_t queue_high_water = 0;
  std::uint64_t executed = 0;  // jobs started
  std::uint64_t parks = 0;     // times a worker slept with nothing to do
  std::vector<double> worker_utilization;
  FrameArenaStats arena;
};

class ShardPool {
 public:
  using Job = std::function<void()>;

  // Serialization domain: all jobs submitted to one strand run in
  // submission order, one at a time. Obtain via make_strand(); one per
  // stream.
  class Strand {
    friend class ShardPool;
    Strand() = default;

    swc::Mutex mutex_;
    std::deque<Job> inbox_ SWC_GUARDED_BY(mutex_);
    bool active_ SWC_GUARDED_BY(mutex_) = false;  // a token is queued or running
  };

  explicit ShardPool(ShardPoolOptions options);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  [[nodiscard]] std::shared_ptr<Strand> make_strand();

  // Ordered submission through a strand.
  SubmitOutcome submit_outcome(const std::shared_ptr<Strand>& strand, Job job,
                               SubmitPolicy policy = SubmitPolicy::Block) SWC_EXCLUDES(mutex_);
  bool submit(const std::shared_ptr<Strand>& strand, Job job,
              SubmitPolicy policy = SubmitPolicy::Block) {
    return submit_outcome(strand, std::move(job), policy) == SubmitOutcome::Accepted;
  }

  // Unordered submission (stripe fan-out, fire-and-forget work).
  SubmitOutcome submit_outcome(Job job, SubmitPolicy policy = SubmitPolicy::Block)
      SWC_EXCLUDES(mutex_);
  bool submit(Job job, SubmitPolicy policy = SubmitPolicy::Block) {
    return submit_outcome(std::move(job), policy) == SubmitOutcome::Accepted;
  }

  // Blocks until every accepted job has finished executing.
  void wait_idle() SWC_EXCLUDES(mutex_);

  // Stops accepting work, drains the queue and every strand, joins the
  // workers. Idempotent.
  void shutdown() SWC_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t worker_count() const noexcept { return threads_.size(); }

  [[nodiscard]] std::size_t queue_depth() const SWC_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t queue_capacity() const noexcept { return options_.queue_capacity; }
  [[nodiscard]] std::size_t queue_high_water() const SWC_EXCLUDES(mutex_);

  // Busy fraction per worker since that worker entered its loop, in [0, 1].
  [[nodiscard]] std::vector<double> worker_utilization() const;

  [[nodiscard]] ShardStatsSnapshot stats() const SWC_EXCLUDES(mutex_);

  // The frame-payload arena (thread-safe; valid for the pool's lifetime).
  // Codec scratch is not pooled here: each stream reuses its own
  // CompressedEngine::Scratch.
  [[nodiscard]] FrameArena& arena() noexcept { return arena_; }

 private:
  struct Token {
    std::shared_ptr<Strand> strand;  // null: plain job token
    Job job;                         // set only for plain tokens
  };

  // Charges one frame to the budget; Block waits for it.
  SubmitOutcome admit(swc::UniqueLock& lock, SubmitPolicy policy) SWC_REQUIRES(mutex_);
  void run_job(Job& job, std::size_t worker_slot) SWC_EXCLUDES(mutex_);
  void run_token(Token token, std::size_t worker_slot) SWC_EXCLUDES(mutex_);
  void worker_loop(std::size_t worker_slot) SWC_EXCLUDES(mutex_);

  const ShardPoolOptions options_;
  FrameArena arena_;

  // Lock order: the arena's freelist mutex is always innermost — never held
  // while taking this mutex, and never locked from inside a budget wait.
  mutable swc::Mutex mutex_ SWC_ACQUIRED_AFTER(arena_.mu());
  swc::CondVar work_cv_;    // workers wait for tokens here
  swc::CondVar budget_cv_;  // Block submitters wait for budget
  swc::CondVar idle_cv_;    // wait_idle() waits for in_flight_ == 0
  std::deque<Token> runq_ SWC_GUARDED_BY(mutex_);
  bool closed_ SWC_GUARDED_BY(mutex_) = false;
  std::size_t pending_ SWC_GUARDED_BY(mutex_) = 0;  // admitted, not started
  std::size_t pending_high_water_ SWC_GUARDED_BY(mutex_) = 0;
  std::size_t submitting_ SWC_GUARDED_BY(mutex_) = 0;  // budget..enqueue window
  std::size_t in_flight_ SWC_GUARDED_BY(mutex_) = 0;   // admitted, not finished
  std::uint64_t executed_ SWC_GUARDED_BY(mutex_) = 0;
  std::uint64_t parks_ SWC_GUARDED_BY(mutex_) = 0;

  std::vector<std::atomic<std::uint64_t>> busy_ns_;   // per worker
  std::vector<std::atomic<std::uint64_t>> start_ns_;  // per worker loop entry
  std::vector<std::thread> threads_;
};

}  // namespace swc::runtime
