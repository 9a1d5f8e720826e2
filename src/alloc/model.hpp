#pragma once
// NodeAllocModel — per-node instantiation of the allocator model, with one
// kernel "personality" per OsKind (DESIGN.md §17):
//
//   Linux     — 4 KiB vmem quantum, small slab spans, fine-grained but
//               contended depot/zone locks, and a kreclaimd-style daemon
//               that trims the depot (forcing repeated slab reconstruction
//               under the zone lock).
//   McKernel  — 2 MiB quantum, huge import spans, near-contention-free
//               locks, no reclaim: allocation is a bump down a large
//               pre-reserved region, as in IHK/McKernel.
//   mOS       — like McKernel with slightly cheaper paths (memory was
//               grabbed contiguously at boot) — the mOS "lean LWK" story.
//   FusedOS   — mOS-like (CL partitions own their memory outright).
//
// One VmemArena per node imports DDR4 backing from `mem::DomainAllocator`
// best-effort carving (attributed per lane via the TrafficHook), and a small
// family of SlabCaches serves per-object-size churn from the workloads.

#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/slab.hpp"
#include "alloc/spec.hpp"
#include "alloc/vmem.hpp"
#include "hw/topology.hpp"
#include "kernel/kernel.hpp"
#include "mem/phys_allocator.hpp"
#include "sim/time.hpp"
#include "sim/units.hpp"

namespace mkos::alloc {

/// Calibrated per-kernel parameters of the model. Values are modeled costs
/// (see DESIGN.md §17 for provenance), scaled by the AllocSpec knobs.
struct PersonalityParams {
  sim::Bytes vmem_quantum = 0;
  sim::Bytes import_quantum = 0;
  sim::Bytes slab_span = 0;
  sim::TimeNs cpu_hit{0};
  sim::TimeNs depot_lock{0};
  sim::TimeNs zone_lock{0};
  sim::TimeNs segment_op{0};
  sim::TimeNs import_cpu{0};
  double lock_contention = 0.0;
  bool reclaim_daemon = false;
  MagazinePolicy magazines;
};

[[nodiscard]] PersonalityParams params_for(kernel::OsKind os,
                                           const AllocSpec& spec);

/// Snapshot of every `alloc.*` counter (all registered in
/// tools/counter_schema.json; obs::record_alloc emits them 1:1).
struct AllocCounters {
  std::uint64_t magazine_hits = 0;
  std::uint64_t magazine_misses = 0;
  std::uint64_t depot_loads = 0;
  std::uint64_t depot_unloads = 0;
  std::uint64_t depot_lock_ns = 0;
  std::uint64_t zone_lock_ns = 0;
  std::uint64_t slab_creates = 0;
  std::uint64_t slab_frees = 0;
  std::uint64_t resizes_up = 0;
  std::uint64_t resizes_down = 0;
  std::uint64_t vmem_allocs = 0;
  std::uint64_t vmem_frees = 0;
  std::uint64_t vmem_qcache_hits = 0;
  std::uint64_t vmem_imports = 0;
  std::uint64_t vmem_import_bytes = 0;
  std::uint64_t vmem_import_fails = 0;
  std::uint64_t refill_bytes = 0;
  std::uint64_t reclaims = 0;
  std::uint64_t reclaimed_slabs = 0;
};

class NodeAllocModel {
 public:
  /// `topo`/`phys` describe the job's representative node and must outlive
  /// the model. Installs a TrafficHook on every DDR4 DomainAllocator to
  /// attribute refill traffic per lane; the destructor removes it.
  NodeAllocModel(const hw::NodeTopology& topo, mem::PhysMemory& phys,
                 kernel::OsKind os, const AllocSpec& spec, int lanes);
  ~NodeAllocModel();

  NodeAllocModel(const NodeAllocModel&) = delete;
  NodeAllocModel& operator=(const NodeAllocModel&) = delete;

  /// Charge `lane` for `pairs` alloc/free pairs of `obj_bytes` objects,
  /// assuming all lanes churn concurrently (worst-case lock contention).
  /// Runs the Linux reclaim daemon policy when the personality has one.
  [[nodiscard]] sim::TimeNs churn(int lane, std::uint64_t pairs,
                                  sim::Bytes obj_bytes);

  /// Lane teardown: return every per-CPU magazine to the depots.
  void drain_lanes();

  [[nodiscard]] AllocCounters counters() const;
  [[nodiscard]] sim::Bytes lane_refill_bytes(int lane) const;
  [[nodiscard]] const VmemArena& arena() const { return *arena_; }
  [[nodiscard]] int lane_count() const { return lanes_; }

  /// Depot occupancy (rounds) above which the reclaim daemon trims, per
  /// cache. Deterministic function of allocator state — the daemon's *noise*
  /// cost is modeled separately by the kreclaimd NoiseComponent.
  static constexpr std::uint64_t kReclaimThresholdMags = 16;

 private:
  SlabCache& cache_for(sim::Bytes obj_bytes);
  void maybe_reclaim(SlabCache& cache);

  mem::PhysMemory* phys_;
  AllocSpec spec_;
  PersonalityParams params_;
  int lanes_;
  std::vector<hw::DomainId> import_order_;  ///< DDR4 domains, id order
  std::unique_ptr<VmemArena> arena_;
  // Sorted by object size; workloads use a handful of size classes.
  std::vector<std::unique_ptr<SlabCache>> caches_;
  std::vector<sim::Bytes> lane_refill_bytes_;
  sim::Bytes refill_bytes_ = 0;
  int import_lane_ = -1;  ///< lane attributed with in-flight import traffic
  std::uint64_t reclaims_ = 0;
  std::uint64_t reclaimed_slabs_ = 0;
};

}  // namespace mkos::alloc
