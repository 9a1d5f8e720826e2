#include "sim/thread_pool.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <numeric>
#include <thread>

#include "sim/env.hpp"
#include "sim/thread_safety.hpp"

namespace mkos::sim {

int default_threads() {
  // 0 = "unset" sentinel; a literal MKOS_THREADS=0 is rejected as out of range.
  const int n = env_int("MKOS_THREADS", /*fallback=*/0, /*lo=*/1, /*hi=*/4096);
  if (n >= 1) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

/// Join block of one fan-out: counts completions and keeps the first
/// exception for rethrow in the caller.
struct Join {
  Mutex mu;
  std::condition_variable cv;
  std::size_t remaining MKOS_GUARDED_BY(mu);
  std::exception_ptr error MKOS_GUARDED_BY(mu);
};

}  // namespace

void parallel_for_weighted(TaskPool& pool, const std::vector<double>& costs,
                           const std::function<void(std::size_t)>& body) {
  const std::size_t n = costs.size();
  if (n == 0) return;
  Join join{.mu = {}, .cv = {}, .remaining = n, .error = nullptr};
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  // LPT: heaviest first so the longest chains start as early as possible;
  // stable on ties so equal-cost work keeps its deterministic index order.
  std::stable_sort(order.begin(), order.end(),
                   [&costs](std::size_t a, std::size_t b) {
                     return costs[a] > costs[b];
                   });
  for (const std::size_t i : order) {
    pool.submit_weighted(costs[i], [&join, &body, i] {
      std::exception_ptr ep;
      try {
        body(i);
      } catch (...) {
        ep = std::current_exception();
      }
      const MutexLock lock(join.mu);
      if (ep != nullptr && join.error == nullptr) join.error = ep;
      if (--join.remaining == 0) join.cv.notify_all();
    });
  }
  std::exception_ptr error;
  {
    MutexLock lock(join.mu);
    while (join.remaining != 0) lock.wait(join.cv);
    error = join.error;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace mkos::sim
