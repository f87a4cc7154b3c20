#include "runtime/shard_pool.hpp"

#include <algorithm>

namespace swc::runtime {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ShardPool::ShardPool(ShardPoolOptions options)
    : options_{.workers = std::max<std::size_t>(1, options.workers),
               .queue_capacity = std::max<std::size_t>(1, options.queue_capacity)},
      busy_ns_(options_.workers),
      start_ns_(options_.workers) {
  const std::uint64_t born = now_ns();
  for (auto& s : start_ns_) s.store(born, std::memory_order_relaxed);
  threads_.reserve(options_.workers);
  try {
    for (std::size_t slot = 0; slot < options_.workers; ++slot) {
      threads_.emplace_back([this, slot] { worker_loop(slot); });
    }
  } catch (...) {
    shutdown();  // join the workers already started before rethrowing
    throw;
  }
}

ShardPool::~ShardPool() { shutdown(); }

std::shared_ptr<ShardPool::Strand> ShardPool::make_strand() {
  return std::shared_ptr<Strand>(new Strand());
}

SubmitOutcome ShardPool::admit(swc::UniqueLock& lock, SubmitPolicy policy) {
  if (policy == SubmitPolicy::Block) {
    while (!closed_ && pending_ >= options_.queue_capacity) budget_cv_.wait(lock);
  }
  if (closed_) return SubmitOutcome::ShutDown;
  if (pending_ >= options_.queue_capacity) return SubmitOutcome::QueueFull;
  ++pending_;
  pending_high_water_ = std::max(pending_high_water_, pending_);
  ++in_flight_;
  return SubmitOutcome::Accepted;
}

SubmitOutcome ShardPool::submit_outcome(const std::shared_ptr<Strand>& strand, Job job,
                                        SubmitPolicy policy) {
  {
    swc::UniqueLock lock(mutex_);
    const SubmitOutcome admitted = admit(lock, policy);
    if (admitted != SubmitOutcome::Accepted) return admitted;
    // Strand and pool mutexes are never held together, so the job reaches
    // the inbox in a window of its own. Workers only exit once closed, the
    // run queue is empty AND no producer is inside such a window — so a
    // token pushed below is always drained.
    ++submitting_;
  }
  bool need_token = false;
  {
    swc::MutexLock lock(strand->mutex_);
    strand->inbox_.push_back(std::move(job));
    if (!strand->active_) {
      strand->active_ = true;
      need_token = true;
    }
  }
  bool last_on_closed_pool = false;
  {
    swc::MutexLock lock(mutex_);
    if (need_token) runq_.push_back(Token{.strand = strand, .job = {}});
    --submitting_;
    last_on_closed_pool = closed_ && submitting_ == 0;
  }
  // The wake-up rule (see the header): workers that saw this window open on
  // a closed pool are asleep and wait for it to end.
  if (last_on_closed_pool) {
    work_cv_.notify_all();
  } else if (need_token) {
    work_cv_.notify_one();
  }
  return SubmitOutcome::Accepted;
}

SubmitOutcome ShardPool::submit_outcome(Job job, SubmitPolicy policy) {
  {
    swc::UniqueLock lock(mutex_);
    const SubmitOutcome admitted = admit(lock, policy);
    if (admitted != SubmitOutcome::Accepted) return admitted;
    runq_.push_back(Token{.strand = nullptr, .job = std::move(job)});
  }
  work_cv_.notify_one();
  return SubmitOutcome::Accepted;
}

void ShardPool::wait_idle() {
  swc::UniqueLock lock(mutex_);
  while (in_flight_ != 0) idle_cv_.wait(lock);
}

void ShardPool::shutdown() {
  {
    swc::MutexLock lock(mutex_);
    if (closed_) return;
    closed_ = true;
  }
  work_cv_.notify_all();
  budget_cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ShardPool::run_job(Job& job, std::size_t worker_slot) {
  {
    swc::MutexLock lock(mutex_);
    --pending_;
    ++executed_;
  }
  budget_cv_.notify_one();
  const auto t0 = std::chrono::steady_clock::now();
  job();
  const auto t1 = std::chrono::steady_clock::now();
  busy_ns_[worker_slot].fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()),
      std::memory_order_relaxed);
  swc::MutexLock lock(mutex_);
  if (--in_flight_ == 0) idle_cv_.notify_all();
}

void ShardPool::run_token(Token token, std::size_t worker_slot) {
  if (token.strand == nullptr) {
    run_job(token.job, worker_slot);
    return;
  }
  Strand& strand = *token.strand;
  for (;;) {
    Job job;
    {
      swc::MutexLock lock(strand.mutex_);
      job = std::move(strand.inbox_.front());
      strand.inbox_.pop_front();
    }
    run_job(job, worker_slot);

    // Retire the token, repost it behind the other streams for the next
    // inbox job, or — under a closed pool — drain the inbox here.
    {
      swc::MutexLock lock(strand.mutex_);
      if (strand.inbox_.empty()) {
        strand.active_ = false;
        return;
      }
    }
    swc::UniqueLock lock(mutex_);
    if (!closed_) {
      runq_.push_back(std::move(token));
      lock.unlock();
      work_cv_.notify_one();
      return;
    }
  }
}

void ShardPool::worker_loop(std::size_t worker_slot) {
  start_ns_[worker_slot].store(now_ns(), std::memory_order_relaxed);
  for (;;) {
    Token token;
    {
      swc::UniqueLock lock(mutex_);
      while (runq_.empty()) {
        if (closed_ && submitting_ == 0) return;
        ++parks_;
        work_cv_.wait(lock);
      }
      token = std::move(runq_.front());
      runq_.pop_front();
    }
    run_token(std::move(token), worker_slot);
  }
}

std::size_t ShardPool::queue_depth() const {
  swc::MutexLock lock(mutex_);
  return pending_;
}

std::size_t ShardPool::queue_high_water() const {
  swc::MutexLock lock(mutex_);
  return pending_high_water_;
}

std::vector<double> ShardPool::worker_utilization() const {
  const std::uint64_t now = now_ns();
  std::vector<double> utilization(threads_.size(), 0.0);
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    // Busy time over *this worker's* elapsed loop lifetime (not the pool's
    // construction time), so late-started workers are not under-reported.
    const std::uint64_t start = start_ns_[i].load(std::memory_order_relaxed);
    if (now <= start) continue;
    utilization[i] = static_cast<double>(busy_ns_[i].load(std::memory_order_relaxed)) /
                     static_cast<double>(now - start);
    utilization[i] = std::min(utilization[i], 1.0);
  }
  return utilization;
}

ShardStatsSnapshot ShardPool::stats() const {
  ShardStatsSnapshot snap;
  snap.workers = threads_.size();
  snap.queue_capacity = options_.queue_capacity;
  {
    swc::MutexLock lock(mutex_);
    snap.queue_depth = pending_;
    snap.queue_high_water = pending_high_water_;
    snap.executed = executed_;
    snap.parks = parks_;
  }
  snap.worker_utilization = worker_utilization();
  snap.arena = arena_.stats();
  return snap;
}

}  // namespace swc::runtime
