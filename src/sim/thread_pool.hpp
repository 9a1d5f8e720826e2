#pragma once
// The task-pool seam of the campaign engine.
//
// TaskPool is the interface the campaign fans cells out through; it never
// learns how the pool places or orders work. sim/work_stealing_pool.hpp
// holds the implementation (per-worker deques with cost-guided placement).
// Determinism is never the pool's job — tasks derive every random stream
// from positional seeds and write results into caller-indexed slots, so
// execution order cannot leak into results at any worker count.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace mkos::sim {

class TaskPool {
 public:
  using Task = std::function<void()>;

  /// Scheduler telemetry snapshot (see WorkStealingPool).
  struct SchedTelemetry {
    std::uint64_t steals = 0;       ///< tasks taken from a foreign deque
    std::uint64_t steal_fails = 0;  ///< full scans that raced to nothing
    std::uint64_t local_pops = 0;   ///< tasks served from the owner's deque
    double imbalance = 0.0;         ///< max/mean executed cost across workers
  };

  virtual ~TaskPool() = default;

  /// Enqueue a task with a relative execution-cost estimate, which steers
  /// placement. Tasks must not throw and must not call back into the pool's
  /// blocking APIs (wait_idle / parallel_for) — cells are leaves.
  virtual void submit_weighted(double cost, Task task) = 0;

  /// Block until no task is queued AND no task is executing.
  virtual void wait_idle() = 0;

  [[nodiscard]] virtual int size() const = 0;

  /// Cumulative scheduler counters; meaningful after wait_idle().
  [[nodiscard]] virtual SchedTelemetry sched_telemetry() const = 0;
};

/// `MKOS_THREADS` env var when set (strictly validated: integer in
/// [1, 4096], anything else is a hard error via sim::env_int), otherwise
/// `std::thread::hardware_concurrency()`.
[[nodiscard]] int default_threads();

/// parallel_for_weighted at unit cost: every index weighs the same, so
/// submission stays in index order.
void parallel_for(TaskPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// Run `body(0..n-1)` across the pool, given a per-index cost estimate
/// (`costs.size() == n`), and block until all complete. Indices are
/// submitted heaviest-first (LPT order, ties in index order) through
/// submit_weighted so the skewed tail starts early. Results are unaffected:
/// bodies write caller-indexed slots. The first exception thrown by any
/// body is rethrown in the caller (remaining iterations still run to
/// completion). Must not be called from inside a pool task.
void parallel_for_weighted(TaskPool& pool, const std::vector<double>& costs,
                           const std::function<void(std::size_t)>& body);

}  // namespace mkos::sim
