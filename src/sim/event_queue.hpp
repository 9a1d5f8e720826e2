#pragma once
// Discrete-event engine.
//
// Most of the mkos performance pipeline advances per-rank clocks
// analytically; the fault injector's timeline is genuinely event-driven.
// This engine provides a classic time-ordered queue with stable FIFO
// ordering among simultaneous events and O(1) cancellation via handles.
//
// Layout (DESIGN.md §13): events live in a flat slab arena of Slots recycled
// through a freelist; ordering is a 4-ary implicit index heap over (at, seq)
// keys — one cache line per sift level instead of pointer-chasing
// unique_ptr heap nodes. EventIds carry the slot's generation in the high
// 32 bits, so a stale handle (executed, cancelled, or reused slot) fails an
// O(1) validity check instead of consulting an ever-growing id map.
// Cancellation disarms the slot and leaves a lazy tombstone in the heap;
// tombstones are skipped on pop and swept by a deterministic compaction
// when they outnumber live events.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/inplace_function.hpp"
#include "sim/thread_safety.hpp"
#include "sim/time.hpp"

namespace mkos::sim {

/// Opaque handle: (generation << 32) | (slot index + 1). 0 is never issued.
using EventId = std::uint64_t;

class MKOS_THREAD_CONFINED("the owning simulation task") EventQueue {
 public:
  using Action = InplaceAction;

  /// Schedule `action` at absolute time `at` (must be >= now()).
  EventId schedule_at(TimeNs at, Action action);

  /// Schedule `action` `delay` after now().
  EventId schedule_after(TimeNs delay, Action action);

  /// Cancel a pending event. Returns false if it already ran or was cancelled.
  bool cancel(EventId id);

  /// Run the next event; returns false when the queue is empty.
  bool step();

  /// Run events until the queue is empty or the clock would pass `limit`.
  /// Events scheduled exactly at `limit` are executed.
  void run_until(TimeNs limit);

  /// Drain the queue completely.
  void run();

  [[nodiscard]] TimeNs now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Number of slots in the slab arena. Bounded by the peak pending() over
  /// the queue's lifetime (freelist reuse) — the memory-bound invariant
  /// long cancel/reschedule churn regression-tests against.
  [[nodiscard]] std::size_t slot_capacity() const { return slots_.size(); }

  /// Cumulative lazy-deletion tombstones swept by heap compaction — the
  /// engine.queue.* telemetry the event_queue microbench reports.
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffff'ffffU;

  struct Slot {
    TimeNs at{0};
    std::uint64_t seq = 0;       // global, never reused: staleness witness
    Action action;
    std::uint32_t gen = 0;       // bumped on every release; high bits of the id
    std::uint32_t next_free = kNoSlot;
    bool armed = false;
  };
  /// Heap entries are 16-byte POD keys; the payload stays in the slab.
  struct HeapItem {
    TimeNs at;
    std::uint64_t seq : 40;  // 2^40 events per queue; seq is the slot's witness
    std::uint64_t slot : 24;
  };

  static bool item_less(const HeapItem& a, const HeapItem& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }
  [[nodiscard]] bool item_live(const HeapItem& it) const {
    const Slot& s = slots_[it.slot];
    return s.armed && (s.seq & kSeqMask) == it.seq;
  }

  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 40) - 1;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void pop_root();
  void compact_heap();
  /// Drop stale tombstones off the heap root; leaves a live root or empty.
  void skim_root();

  TimeNs now_{0};
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  std::vector<Slot> slots_;
  std::vector<HeapItem> heap_;
};

}  // namespace mkos::sim
