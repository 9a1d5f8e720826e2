#pragma once
// SlabCache — object cache with per-CPU magazine depots, after Bonwick &
// Adams ("Magazines and Vmem", USENIX ATC 2001; the SCAL-UX/Keyronex
// rendition in SNIPPETS.md). Each CPU holds a loaded and a previous
// magazine of pre-constructed objects; the shared depot holds full
// magazines behind a lock; empty depots cascade to slab construction from
// a backing VmemArena behind the zone lock.
//
// Like VmemArena, this is a cost model over simulated handles: `churn`
// charges a lane the modeled CPU time of an alloc/free burst and moves
// rounds between the per-CPU layer, the depot, and the arena. Depot and
// zone lock costs scale with the number of concurrently churning CPUs via
// a per-personality contention coefficient — the axis that separates
// Linux's fine-grained-but-contended zone locks from the LWKs'
// near-contention-free large-quantum paths.

#include <cstdint>
#include <vector>

#include "alloc/vmem.hpp"
#include "sim/time.hpp"
#include "sim/units.hpp"

namespace mkos::alloc {

/// Magazine resize policy: magazines double under depot pressure (many
/// depot trips in one burst) and halve after a sustained quiet streak.
struct MagazinePolicy {
  int min_rounds = 8;
  int max_rounds = 128;
  /// More than this many depot trips in one churn burst → grow.
  int grow_trip_threshold = 4;
  /// This many consecutive zero-depot-trip bursts → shrink.
  int shrink_quiet_bursts = 8;
};

/// Modeled CPU costs of the cache's layers, per kernel personality.
struct SlabCosts {
  sim::TimeNs cpu_hit{0};     ///< per alloc/free served from the loaded magazine
  sim::TimeNs depot_lock{0};  ///< per depot round-trip (magazine load/unload)
  sim::TimeNs zone_lock{0};   ///< per slab construction/destruction
  /// Per-extra-CPU multiplier on lock costs:
  /// factor = 1 + lock_contention * contention_scale * (active_cpus - 1).
  double lock_contention = 0.0;
};

class SlabCache {
 public:
  struct Stats {
    std::uint64_t magazine_hits = 0;    ///< rounds served per-CPU, no lock
    std::uint64_t magazine_misses = 0;  ///< rounds that had to leave the CPU
    std::uint64_t depot_loads = 0;      ///< magazines fetched from the depot
    std::uint64_t depot_unloads = 0;    ///< magazines returned to the depot
    std::uint64_t depot_lock_ns = 0;    ///< modeled ns under the depot lock
    std::uint64_t zone_lock_ns = 0;     ///< modeled ns under the zone lock
    std::uint64_t slab_creates = 0;
    std::uint64_t slab_frees = 0;
    std::uint64_t resizes_up = 0;
    std::uint64_t resizes_down = 0;
  };

  struct ReclaimResult {
    std::uint64_t trimmed_rounds = 0;
    std::uint64_t freed_slabs = 0;
  };

  /// `arena` must outlive the cache. `slab_span` is the bytes carved from
  /// the arena per slab; `obj_bytes` the object size this cache serves.
  SlabCache(VmemArena* arena, sim::Bytes obj_bytes, sim::Bytes slab_span,
            SlabCosts costs, MagazinePolicy policy, int cpus);

  /// Charge `cpu` for a burst of `pairs` alloc+free pairs while
  /// `active_cpus` lanes churn concurrently (drives the contention factor).
  /// `contention_scale` and `churn_cost_scale` come from the AllocSpec.
  [[nodiscard]] sim::TimeNs churn(int cpu, std::uint64_t pairs,
                                  int active_cpus, double contention_scale,
                                  double churn_cost_scale);

  /// Return the CPU's loaded+previous rounds to the depot (lane teardown).
  void drain(int cpu);

  /// Trim up to `target_rounds` out of the depot, freeing whole slabs back
  /// to the arena where possible (Linux reclaim daemon).
  ReclaimResult reclaim(std::uint64_t target_rounds);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] sim::Bytes obj_bytes() const { return obj_bytes_; }
  [[nodiscard]] std::uint64_t depot_rounds() const { return depot_rounds_; }
  [[nodiscard]] int magazine_rounds(int cpu) const;
  [[nodiscard]] std::uint64_t cached_rounds(int cpu) const;

 private:
  struct CpuCache {
    std::uint64_t loaded = 0;    ///< rounds in the loaded magazine
    std::uint64_t previous = 0;  ///< rounds in the previous magazine
    int mag_rounds = 0;          ///< current magazine size for this CPU
    int quiet_bursts = 0;        ///< consecutive bursts without depot traffic
  };

  VmemArena* arena_;
  sim::Bytes obj_bytes_;
  sim::Bytes slab_span_;
  std::uint64_t rounds_per_slab_;
  SlabCosts costs_;
  MagazinePolicy policy_;

  std::vector<CpuCache> cpus_;
  std::uint64_t depot_rounds_ = 0;
  /// Live slabs in the order they were built, as runs of slabs that lie end
  /// to end in the arena, `slab_stride_` apart.
  std::vector<VmemRun> slab_runs_;
  sim::Bytes slab_stride_ = 0;  ///< slab_span_ rounded up to the quantum
  Stats stats_;
};

}  // namespace mkos::alloc
