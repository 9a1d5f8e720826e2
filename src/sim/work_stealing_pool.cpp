#include "sim/work_stealing_pool.hpp"

#include <limits>
#include <utility>

#include "sim/contracts.hpp"

namespace mkos::sim {

WorkStealingPool::WorkStealingPool(int threads) {
  MKOS_EXPECTS(threads >= 1);
  shards_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) shards_.push_back(std::make_unique<Shard>());
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(static_cast<std::size_t>(i)); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  {
    const MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void WorkStealingPool::submit_weighted(double cost, Task task) {
  MKOS_EXPECTS(task != nullptr);
  // Account the task before it becomes stealable: a worker that grabs it
  // the instant it lands must find pending_ already raised.
  {
    const MutexLock lock(mu_);
    MKOS_EXPECTS(!stop_);
    ++pending_;
  }
  // Least-loaded placement: the deque with the smallest queued cost (ties
  // to the lowest index). Snapshots race with workers draining — harmless,
  // placement is a heuristic; correctness never depends on where a task
  // sits because any worker can steal it.
  std::size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    double queued = 0.0;
    {
      const MutexLock lock(s.mu);
      queued = s.queued_cost;
    }
    if (queued < best_cost) {
      best_cost = queued;
      best = i;
    }
  }
  {
    Shard& s = *shards_[best];
    const MutexLock lock(s.mu);
    s.deque.push_back(Item{cost, std::move(task)});
    s.queued_cost += cost;
  }
  work_cv_.notify_one();
}

bool WorkStealingPool::take(std::size_t self, Item* out, bool* stolen) {
  {
    Shard& s = *shards_[self];
    const MutexLock lock(s.mu);
    if (!s.deque.empty()) {
      // Owner pops LIFO: the most recently placed (for LPT submissions:
      // lightest remaining) entry, cache-warm and contention-free.
      *out = std::move(s.deque.back());
      s.deque.pop_back();
      s.queued_cost -= out->cost;
      *stolen = false;
      return true;
    }
  }
  const std::size_t n = shards_.size();
  for (std::size_t k = 1; k < n; ++k) {
    Shard& s = *shards_[(self + k) % n];
    const MutexLock lock(s.mu);
    if (!s.deque.empty()) {
      // Thieves steal FIFO: the oldest (for LPT submissions: heaviest)
      // entry, the end the owner is not working.
      *out = std::move(s.deque.front());
      s.deque.pop_front();
      s.queued_cost -= out->cost;
      *stolen = true;
      return true;
    }
  }
  return false;
}

void WorkStealingPool::worker_loop(std::size_t self) {
  while (true) {
    Item item{0.0, nullptr};
    bool stolen = false;
    if (take(self, &item, &stolen)) {
      {
        const MutexLock lock(mu_);
        --pending_;
        ++running_;
        if (stolen) {
          ++steals_;
        } else {
          ++local_pops_;
        }
      }
      item.task();
      {
        Shard& s = *shards_[self];
        const MutexLock lock(s.mu);
        s.executed_cost += item.cost;
      }
      {
        const MutexLock lock(mu_);
        --running_;
        ++completed_;
        if (pending_ == 0 && running_ == 0) idle_cv_.notify_all();
      }
      continue;
    }
    MutexLock lock(mu_);
    if (pending_ > 0) {
      // The scan raced a submit (accounted but not yet pushed) or another
      // thief: a genuine failed steal. Yield the lock and rescan.
      ++steal_fails_;
      continue;
    }
    if (stop_) return;
    while (!stop_ && pending_ == 0) lock.wait(work_cv_);
    if (stop_ && pending_ == 0) return;
  }
}

void WorkStealingPool::wait_idle() {
  MutexLock lock(mu_);
  // Predicate loop, not the lambda overload: the capability analysis must
  // see the guarded reads under this scope's lock.
  while (pending_ != 0 || running_ != 0) lock.wait(idle_cv_);
}

std::uint64_t WorkStealingPool::completed() const {
  const MutexLock lock(mu_);
  return completed_;
}

TaskPool::SchedTelemetry WorkStealingPool::sched_telemetry() const {
  SchedTelemetry t;
  {
    const MutexLock lock(mu_);
    t.steals = steals_;
    t.steal_fails = steal_fails_;
    t.local_pops = local_pops_;
  }
  double total = 0.0;
  double peak = 0.0;
  for (const auto& shard : shards_) {
    const Shard& s = *shard;
    const MutexLock lock(s.mu);
    total += s.executed_cost;
    if (s.executed_cost > peak) peak = s.executed_cost;
  }
  if (total > 0.0) {
    t.imbalance = peak / (total / static_cast<double>(shards_.size()));
  }
  return t;
}

}  // namespace mkos::sim
