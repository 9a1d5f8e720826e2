#pragma once
// The campaign engine's task pool: work stealing over a skewed cell mix.
//
// A design-space sweep's cell costs span orders of magnitude (a 64-node
// CCS-QCD cell vs a 1-node brk cell), and a single shared FIFO starts the
// heavy tail last — the whole pool then drains while one worker grinds the
// straggler. This pool keeps one deque per worker:
//
//   placement  submit_weighted() appends to the deque with the least queued
//              cost, so a heaviest-first (LPT) submission order spreads the
//              skewed tail across workers up front;
//   owner      pops its own deque LIFO (back) — cache-warm, no contention;
//   thieves    steal FIFO (front) from the next non-empty deque in rotation,
//              taking the oldest (for LPT submissions: heaviest) entry, the
//              classic work-stealing arrangement;
//   locking    a mutex per deque plus one pool mutex for pending/running
//              bookkeeping. Steals are the rare path by construction, and
//              campaign cells are coarse (a whole simulated app run), so
//              mutexes — not Chase–Lev atomics — are the right tradeoff.
//
// Determinism: tasks use positional seeds and write caller-indexed slots,
// so placement and stealing cannot change a result byte at any worker count
// (tests/test_campaign.cpp proves ledger byte-identity).

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "sim/thread_pool.hpp"
#include "sim/thread_safety.hpp"

namespace mkos::sim {

class WorkStealingPool final : public TaskPool {
 public:
  /// Spawns `threads` workers (>= 1), one deque each. Defaults to
  /// `default_threads()` (MKOS_THREADS).
  explicit WorkStealingPool(int threads = default_threads());
  ~WorkStealingPool() override;

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  void submit_weighted(double cost, Task task) override MKOS_EXCLUDES(mu_);
  void wait_idle() override MKOS_EXCLUDES(mu_);

  [[nodiscard]] int size() const override {
    return static_cast<int>(workers_.size());
  }

  /// Total tasks completed over the pool's lifetime.
  [[nodiscard]] std::uint64_t completed() const MKOS_EXCLUDES(mu_);

  /// steals/steal_fails/local_pops are cumulative, imbalance is the max/mean
  /// executed cost across workers (1.0 = perfectly even, 0 when nothing
  /// ran). Stable only while the pool is idle — call after wait_idle().
  [[nodiscard]] SchedTelemetry sched_telemetry() const override
      MKOS_EXCLUDES(mu_);

 private:
  struct Item {
    double cost;
    Task task;
  };

  /// One worker's deque. Lock ordering: a shard mutex and the pool mutex are
  /// never held together.
  struct Shard {
    mutable Mutex mu;
    std::deque<Item> deque MKOS_GUARDED_BY(mu);
    double queued_cost MKOS_GUARDED_BY(mu) = 0.0;    ///< sum of queued items
    double executed_cost MKOS_GUARDED_BY(mu) = 0.0;  ///< charged to the popper
  };

  void worker_loop(std::size_t self) MKOS_EXCLUDES(mu_);
  /// Try the owner's deque (LIFO), then every other deque in rotation
  /// (FIFO). Returns false when all scans came up empty.
  bool take(std::size_t self, Item* out, bool* stolen);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;  // written in ctor, joined in dtor only

  mutable Mutex mu_;
  std::condition_variable work_cv_;   // workers wait for tasks
  std::condition_variable idle_cv_;   // wait_idle() waits for drain
  std::size_t pending_ MKOS_GUARDED_BY(mu_) = 0;
  std::size_t running_ MKOS_GUARDED_BY(mu_) = 0;
  std::uint64_t completed_ MKOS_GUARDED_BY(mu_) = 0;
  std::uint64_t steals_ MKOS_GUARDED_BY(mu_) = 0;
  std::uint64_t steal_fails_ MKOS_GUARDED_BY(mu_) = 0;
  std::uint64_t local_pops_ MKOS_GUARDED_BY(mu_) = 0;
  bool stop_ MKOS_GUARDED_BY(mu_) = false;
};

}  // namespace mkos::sim
