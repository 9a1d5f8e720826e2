// Event-arena microbenchmark: the pointer-heap event queue the arena rewrite
// replaced vs sim::EventQueue (flat slab arena + 4-ary implicit index heap,
// DESIGN.md §13). The acceptance bar for the rewrite is a >= 2x events/sec
// advantage on the combined schedule/drain + timer-churn workload; this
// binary measures exactly that, against a faithful in-binary reimplementation
// of the old design (unique_ptr heap nodes, std::function actions, an id ->
// node map consulted on every cancel), and cross-checks that both engines
// execute the same events in the same order (order-sensitive checksums).
//
// The ledger also surfaces the data-layout telemetry the rewrite added but
// deliberately keeps out of obs::record_world (pre-rewrite ledgers stay
// byte-identical): open-table probe counts and whole-cycle heap memo hits as
// engine.cache.*, and the arena's slab/tombstone accounting as engine.queue.*.
//
//   MKOS_EQ_EVENTS scales the per-workload event counts (default 200000).
//   MKOS_EQ_REPS   timed repetitions per side, interleaved; min wall wins.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/obs_glue.hpp"
#include "runtime/simmpi.hpp"
#include "sim/contracts.hpp"
#include "sim/env.hpp"
#include "sim/event_queue.hpp"
#include "sim/format.hpp"
#include "sim/rng.hpp"

namespace {

using namespace mkos;

// ------------------------------------------------------------ legacy queue
/// The pre-arena design, reimplemented verbatim as the benchmark reference:
/// a binary heap of raw pointers into unique_ptr-owned nodes, std::function
/// payloads, and an id -> node map that every schedule inserts into and
/// every cancel/pop erases from. Semantics match sim::EventQueue exactly
/// (FIFO among equal timestamps, O(1)-ish cancel via lazy tombstones).
class LegacyQueue {
 public:
  std::uint64_t schedule_at(sim::TimeNs at, std::function<void()> action) {
    MKOS_EXPECTS(at >= now_);
    auto node = std::make_unique<Node>();
    node->at = at;
    node->seq = next_seq_++;
    node->action = std::move(action);
    const std::uint64_t id = node->seq + 1;  // 0 is never issued
    heap_.push_back(node.get());
    std::push_heap(heap_.begin(), heap_.end(), later);
    index_.emplace(id, std::move(node));
    ++live_;
    return id;
  }

  std::uint64_t schedule_after(sim::TimeNs delay, std::function<void()> action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  bool cancel(std::uint64_t id) {
    const auto it = index_.find(id);
    if (it == index_.end() || !it->second->armed) return false;
    it->second->armed = false;  // lazy tombstone; the heap entry pops later
    --live_;
    return true;
  }

  bool step() {
    skim();
    if (heap_.empty()) return false;
    Node* top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
    now_ = top->at;
    std::function<void()> action = std::move(top->action);
    index_.erase(top->seq + 1);
    --live_;
    ++executed_;
    action();
    return true;
  }

  void run() {
    while (step()) {
    }
  }

  [[nodiscard]] sim::TimeNs now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] std::uint64_t compactions() const { return 0; }
  [[nodiscard]] std::size_t slot_capacity() const { return 0; }

 private:
  struct Node {
    sim::TimeNs at{0};
    std::uint64_t seq = 0;
    std::function<void()> action;
    bool armed = true;
  };
  /// Min-heap comparator for std::push_heap (which builds a max-heap).
  static bool later(const Node* a, const Node* b) {
    if (a->at != b->at) return a->at > b->at;
    return a->seq > b->seq;
  }
  void skim() {
    while (!heap_.empty() && !heap_.front()->armed) {
      Node* top = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), later);
      heap_.pop_back();
      index_.erase(top->seq + 1);
    }
  }

  sim::TimeNs now_{0};
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Node*> heap_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Node>> index_;
};

// -------------------------------------------------------------- workloads
/// What one side produced: order-sensitive checksum plus the queue's own
/// accounting. Everything but the arena telemetry must match across engines.
struct Outcome {
  std::uint64_t checksum = 0;
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  std::int64_t final_now_ns = 0;
  std::size_t peak_pending = 0;
  std::uint64_t compactions = 0;
  std::size_t slot_capacity = 0;
};

/// Bulk schedule at pseudo-random times, then drain — the trace-replay /
/// noise-timeline shape: insertion-heavy, no cancellation.
template <typename Queue>
Outcome schedule_drain(int events, std::uint64_t seed) {
  Queue q;
  sim::Rng rng(seed);
  Outcome out;
  std::uint64_t sum = 0;
  for (int i = 0; i < events; ++i) {
    const sim::TimeNs at{static_cast<std::int64_t>(rng.uniform_index(1u << 20))};
    q.schedule_at(at, [&sum, i] { sum = sum * 31 + static_cast<std::uint64_t>(i); });
    out.peak_pending = std::max(out.peak_pending, q.pending());
  }
  q.run();
  out.checksum = sum;
  out.executed = q.executed();
  out.final_now_ns = q.now().ns();
  out.compactions = q.compactions();
  out.slot_capacity = q.slot_capacity();
  return out;
}

/// Retransmit-timer churn — the IKC/scheduler shape: a sliding window of
/// armed timers where most are cancelled and rearmed before they fire, with
/// interleaved stepping. Exercises cancel, slot reuse and tombstone sweeps.
template <typename Queue>
Outcome timer_churn(int iters, std::uint64_t seed) {
  Queue q;
  sim::Rng rng(seed);
  Outcome out;
  std::uint64_t sum = 0;
  constexpr std::size_t kWindow = 512;
  std::vector<std::uint64_t> ring(kWindow, 0);
  for (int i = 0; i < iters; ++i) {
    const std::size_t slot = static_cast<std::size_t>(i) % kWindow;
    if (ring[slot] != 0 && q.cancel(ring[slot])) ++out.cancelled;
    const sim::TimeNs delay{100 + static_cast<std::int64_t>(rng.uniform_index(10000))};
    ring[slot] =
        q.schedule_after(delay, [&sum, i] { sum = sum * 31 + static_cast<std::uint64_t>(i); });
    if ((i & 3) == 3) q.step();
    out.peak_pending = std::max(out.peak_pending, q.pending());
  }
  q.run();
  out.checksum = sum;
  out.executed = q.executed();
  out.final_now_ns = q.now().ns();
  out.compactions = q.compactions();
  out.slot_capacity = q.slot_capacity();
  return out;
}

bool same_events(const Outcome& a, const Outcome& b) {
  return a.checksum == b.checksum && a.executed == b.executed &&
         a.cancelled == b.cancelled && a.final_now_ns == b.final_now_ns &&
         a.peak_pending == b.peak_pending;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  // mkos-lint: allow(wall-clock) — host-side telemetry: this binary exists
  // to time the two queue engines; the measurements land in the host block.
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Time both workloads back to back on one engine.
template <typename Queue>
double run_side(int events, std::uint64_t seed, Outcome* drain, Outcome* churn) {
  // mkos-lint: allow(wall-clock) — host telemetry: queue engine throughput.
  const auto t0 = std::chrono::steady_clock::now();
  *drain = schedule_drain<Queue>(events, seed);
  *churn = timer_churn<Queue>(events, seed + 1);
  return seconds_since(t0);
}

/// Drive the cost-cache / heap-memo fast paths the way the engine
/// equivalence tests do, so the ledger carries real engine.cache.* numbers.
runtime::MpiWorld::EngineCounters sample_cache_counters() {
  const runtime::Machine m = core::SystemConfig::mckernel().machine(4);
  runtime::Job job{m, runtime::JobSpec{4, 8, 1}, 1};
  runtime::MpiWorld world{job, 1234};
  world.mpi_init();
  const std::int64_t grow = 8 * static_cast<std::int64_t>(sim::MiB);
  const std::vector<std::int64_t> cycle{grow, 0, -grow};
  for (int step = 0; step < 8; ++step) {
    world.heap_cycle(cycle);
    world.compute_bytes(32 * sim::MiB);
    world.allreduce(64 * sim::KiB);
    world.halo_exchange(256 * sim::KiB, 6);
  }
  world.barrier();
  (void)world.finish();
  return world.engine_counters();
}

}  // namespace

int main() {
  const int events = sim::env_int("MKOS_EQ_EVENTS", 200000, 1000, 100000000);
  const int reps = sim::env_int("MKOS_EQ_REPS", 3, 1, 100);

  sim::print_banner("event_queue — pointer-heap vs flat event arena",
                    "event-arena acceptance microbenchmark (DESIGN.md §13)");

  // Interleave the reps so host-side drift hits both engines alike; keep the
  // best (least-disturbed) wall time per side.
  double legacy_wall = 0.0;
  double arena_wall = 0.0;
  Outcome legacy_drain;
  Outcome legacy_churn;
  Outcome arena_drain;
  Outcome arena_churn;
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t seed = 42 + 2 * static_cast<std::uint64_t>(rep);
    const double lw = run_side<LegacyQueue>(events, seed, &legacy_drain, &legacy_churn);
    const double aw = run_side<sim::EventQueue>(events, seed, &arena_drain, &arena_churn);
    legacy_wall = rep == 0 ? lw : std::min(legacy_wall, lw);
    arena_wall = rep == 0 ? aw : std::min(arena_wall, aw);
    // Equivalence gate: both engines executed the same events in the same
    // order. A checksum split here means the rewrite changed semantics.
    MKOS_ASSERT(same_events(legacy_drain, arena_drain));
    MKOS_ASSERT(same_events(legacy_churn, arena_churn));
  }

  const double total_events = 2.0 * static_cast<double>(events);
  const double legacy_rate = total_events / legacy_wall;
  const double arena_rate = total_events / arena_wall;
  const double speedup = arena_rate / legacy_rate;

  sim::Table t{{"engine", "events/s", "executed", "cancelled", "peak pending"}};
  t.add_row({"legacy pointer heap", sim::fmt(legacy_rate, 0),
             std::to_string(legacy_drain.executed + legacy_churn.executed),
             std::to_string(legacy_churn.cancelled),
             std::to_string(legacy_drain.peak_pending)});
  t.add_row({"flat event arena", sim::fmt(arena_rate, 0),
             std::to_string(arena_drain.executed + arena_churn.executed),
             std::to_string(arena_churn.cancelled),
             std::to_string(arena_drain.peak_pending)});
  std::printf("%s\n", t.to_string().c_str());
  std::printf("queue speedup: %.2fx   (acceptance bar: >= 2x)\n", speedup);
  std::printf("arena slab: %zu slots for %zu peak events, %llu tombstone sweeps\n\n",
              std::max(arena_drain.slot_capacity, arena_churn.slot_capacity),
              std::max(arena_drain.peak_pending, arena_churn.peak_pending),
              static_cast<unsigned long long>(arena_drain.compactions +
                                              arena_churn.compactions));

  const runtime::MpiWorld::EngineCounters cache = sample_cache_counters();

  obs::RunLedger ledger = core::bench_ledger(
      "event_queue", "event-arena acceptance microbenchmark", 42);
  ledger.set_meta("events", std::to_string(events));
  ledger.set_meta("reps", std::to_string(reps));
  // Deterministic block — the arena's slab/tombstone accounting...
  ledger.incr("engine.queue.executed", arena_drain.executed + arena_churn.executed);
  ledger.incr("engine.queue.cancelled", arena_drain.cancelled + arena_churn.cancelled);
  ledger.incr("engine.queue.compactions",
              arena_drain.compactions + arena_churn.compactions);
  ledger.incr("engine.queue.peak_pending",
              std::max(arena_drain.peak_pending, arena_churn.peak_pending));
  ledger.incr("engine.queue.slot_capacity",
              std::max(arena_drain.slot_capacity, arena_churn.slot_capacity));
  // ...and the cost-cache / heap-memo layout telemetry (kept out of
  // obs::record_world so pre-rewrite ledgers stay byte-identical).
  ledger.incr("engine.cache.coll_hits", cache.coll_cache_hits);
  ledger.incr("engine.cache.coll_misses", cache.coll_cache_misses);
  ledger.incr("engine.cache.coll_probes", cache.coll_cache_probes);
  ledger.incr("engine.cache.msg_hits", cache.msg_cache_hits);
  ledger.incr("engine.cache.msg_misses", cache.msg_cache_misses);
  ledger.incr("engine.cache.msg_probes", cache.msg_cache_probes);
  ledger.incr("engine.cache.heap_memo_hits", cache.heap_memo_hits);
  ledger.incr("engine.cache.heap_memo_misses", cache.heap_memo_misses);
  // Host block: the wall-clock measurements themselves.
  ledger.set_host("legacy_events_per_s", sim::json_number(legacy_rate));
  ledger.set_host("arena_events_per_s", sim::json_number(arena_rate));
  ledger.set_host("queue_speedup", sim::json_number(speedup));
  core::emit(ledger);
  return 0;
}
