#pragma once
// Heap (brk/sbrk) engines.
//
// The paper's Table I and the Lulesh discussion (Section IV) hinge on brk()
// semantics:
//
//   Linux      — page-granular break; shrink returns memory to the system;
//                growth maps the zero page and charges a fault + clear on
//                first write; large pages only when the break happens to be
//                2 MiB aligned *and* the request is large enough.
//   LWK (HPC)  — heap aligned to 2 MiB; grows in 2 MiB increments; shrink
//                requests ignored; physical pages allocated at brk() time;
//                on growth only the first 4 KiB of a fresh 2 MiB page is
//                zeroed (the AMG workaround); no faults ever reach the app.
//
// LwkHeap has an `hpc_mode` toggle: when off it reproduces the Linux
// behaviour while keeping the surrounding LWK benefits — this is exactly the
// "mOS, heap management disabled" row of Table I.

#include <cstdint>
#include <memory>

#include "mem/placement.hpp"
#include "mem/phys_allocator.hpp"

namespace mkos::mem {

struct HeapStats {
  std::uint64_t queries = 0;     ///< sbrk(0)
  std::uint64_t grows = 0;       ///< positive increments
  std::uint64_t shrinks = 0;     ///< negative increments
  sim::Bytes current = 0;        ///< break offset from heap base
  sim::Bytes max_break = 0;      ///< high-water mark
  sim::Bytes cum_growth = 0;     ///< sum of all positive increments
  std::uint64_t faults = 0;      ///< faults taken on heap pages
  sim::Bytes zeroed = 0;         ///< bytes cleared on behalf of the app

  [[nodiscard]] std::uint64_t calls() const { return queries + grows + shrinks; }
};

class HeapEngine {
 public:
  virtual ~HeapEngine() = default;

  /// sbrk(delta): delta == 0 queries, > 0 grows, < 0 shrinks (clamped at 0).
  /// Returns the cost of the call itself (syscall + any mapping work).
  sim::TimeNs sbrk(std::int64_t delta) {
    ++rev_;
    return do_sbrk(delta);
  }

  /// Cost of the application touching every byte grown since the last call
  /// (page faults + zeroing for demand-paged heaps; zero for HPC heaps).
  /// `concurrent_faulters`: ranks on this node concurrently in the fault path.
  sim::TimeNs touch_new(int concurrent_faulters) {
    ++rev_;
    return do_touch_new(concurrent_faulters);
  }

  /// The process changed its NUMA policy (set_mempolicy); demand-paged heaps
  /// place subsequent faults accordingly.
  void set_policy(const MemPolicy& policy) {
    ++rev_;
    do_set_policy(policy);
  }

  /// The engine's physical placement record, or nullptr when it keeps none.
  /// Lets hot read paths reach the placement without a dynamic_cast.
  [[nodiscard]] virtual const Placement* placement_or_null() const { return nullptr; }

  /// O(1) hash of the cost-relevant heap state: break offset, backing
  /// volume and policy — the scalars that determine how many bytes a future
  /// sbrk()/touch_new() moves (per-byte costs are domain-independent, so
  /// the placement's chunk composition never enters the price). Monotone
  /// counters (queries, faults, cum_growth, ...) are deliberately excluded
  /// so that a brk cycle which restores the heap shape maps to the same
  /// fingerprint. Used by MpiWorld::heap_cycle's symmetric-lane and
  /// per-class replay to detect lanes in identical states.
  ///
  /// Memoized against a mutation revision counter: the SPMD steady state
  /// fingerprints every lane between every cycle, so recomputing the hash
  /// only after sbrk/touch_new/set_policy turns the dominant profile entry
  /// into a counter compare. apply_replay_delta() deliberately does not bump
  /// the revision — it advances only the monotone counters the hash excludes.
  [[nodiscard]] std::uint64_t state_fingerprint() const {
    if (fp_rev_ != rev_) {
      fp_cache_ = compute_fingerprint();
      fp_rev_ = rev_;
    }
    return fp_cache_;
  }

  /// The monotone-counter delta of a state-neutral cycle. Precondition
  /// (checked): the cycle left the break and high-water mark unchanged, so
  /// only monotone counters advance. Checked once, so a replay across many
  /// lanes can apply the subtraction-free form below.
  [[nodiscard]] static HeapStats replay_delta(const HeapStats& before, const HeapStats& after) {
    MKOS_EXPECTS(after.current == before.current);
    MKOS_EXPECTS(after.max_break == before.max_break);
    HeapStats d;
    d.queries = after.queries - before.queries;
    d.grows = after.grows - before.grows;
    d.shrinks = after.shrinks - before.shrinks;
    d.cum_growth = after.cum_growth - before.cum_growth;
    d.faults = after.faults - before.faults;
    d.zeroed = after.zeroed - before.zeroed;
    return d;
  }

  /// Replay a recorded cycle's counter delta onto this engine without
  /// re-simulating it. Header-inline: the fast paths call this once per
  /// lane per replayed cycle, so call overhead was measurable.
  void apply_replay_delta(const HeapStats& d) {
    stats_.queries += d.queries;
    stats_.grows += d.grows;
    stats_.shrinks += d.shrinks;
    stats_.cum_growth += d.cum_growth;
    stats_.faults += d.faults;
    stats_.zeroed += d.zeroed;
  }

  [[nodiscard]] const HeapStats& stats() const { return stats_; }

 protected:
  virtual sim::TimeNs do_sbrk(std::int64_t delta) = 0;
  virtual sim::TimeNs do_touch_new(int concurrent_faulters) = 0;
  virtual void do_set_policy(const MemPolicy& policy) { (void)policy; }
  [[nodiscard]] virtual std::uint64_t compute_fingerprint() const = 0;

  HeapStats stats_;

 private:
  std::uint64_t rev_ = 1;
  mutable std::uint64_t fp_rev_ = 0;
  mutable std::uint64_t fp_cache_ = 0;
};

/// Linux brk(): demand-paged 4 KiB heap.
class LinuxHeap final : public HeapEngine {
 public:
  LinuxHeap(PhysMemory& phys, const hw::NodeTopology& topo, MemCostModel cost,
            MemPolicy policy, int home_quadrant);

  /// Physically backed (faulted-in) heap bytes.
  [[nodiscard]] sim::Bytes backed() const { return placement_.total(); }
  [[nodiscard]] const Placement& placement() const { return placement_; }
  [[nodiscard]] const Placement* placement_or_null() const override { return &placement_; }

 protected:
  sim::TimeNs do_sbrk(std::int64_t delta) override;
  sim::TimeNs do_touch_new(int concurrent_faulters) override;
  void do_set_policy(const MemPolicy& policy) override { policy_ = policy; }
  [[nodiscard]] std::uint64_t compute_fingerprint() const override;

 private:
  PhysMemory& phys_;
  const hw::NodeTopology& topo_;
  MemCostModel cost_;
  MemPolicy policy_;
  int home_quadrant_;
  Placement placement_;
  std::vector<Extent> extents_;
};

struct LwkHeapOptions {
  bool hpc_mode = true;        ///< the brk() optimizations of Section IV
  bool prefer_mcdram = true;   ///< heap placement order
  bool zero_first_4k_only = true;  ///< the AMG-bug workaround
  sim::Bytes growth_granule = 2 * sim::MiB;
  /// "Aggressively extend the heap": each physical growth over-allocates by
  /// this factor so subsequent brk() calls are satisfied without allocation.
  double aggressive_extension = 1.0;
};

/// LWK brk(): upfront physical backing, 2 MiB granularity, shrinks ignored.
class LwkHeap final : public HeapEngine {
 public:
  LwkHeap(PhysMemory& phys, const hw::NodeTopology& topo, MemCostModel cost,
          LwkHeapOptions options, int home_quadrant);

  [[nodiscard]] const LwkHeapOptions& options() const { return options_; }
  /// Physically backed extent of the heap (>= stats().current in HPC mode).
  [[nodiscard]] sim::Bytes backed() const { return backed_; }
  [[nodiscard]] const Placement& placement() const { return placement_; }
  [[nodiscard]] const Placement* placement_or_null() const override { return &placement_; }

 protected:
  sim::TimeNs do_sbrk(std::int64_t delta) override;
  sim::TimeNs do_touch_new(int concurrent_faulters) override;
  [[nodiscard]] std::uint64_t compute_fingerprint() const override;

 private:
  sim::TimeNs grow_backing(sim::Bytes target);

  PhysMemory& phys_;
  const hw::NodeTopology& topo_;
  MemCostModel cost_;
  LwkHeapOptions options_;
  int home_quadrant_;
  sim::Bytes backed_ = 0;
  sim::Bytes untouched_ = 0;  ///< only used when hpc_mode is off
  Placement placement_;
  std::vector<Extent> extents_;
};

}  // namespace mkos::mem
