#pragma once
// Physical memory: per-NUMA-domain extent allocators.
//
// Kernels carve physical backing out of these. Contiguity matters: large
// pages need naturally aligned free extents, and the paper's IHK-vs-mOS
// boot-order difference ("mOS can grab large contiguous physical memory
// blocks early during the boot sequence, McKernel has to request them from
// Linux later, potentially after Linux has already placed unmovable data
// structures into it") is modeled by punching unmovable holes into a domain
// before the LWK reserves from it.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "hw/topology.hpp"
#include "mem/page.hpp"
#include "sim/rng.hpp"

namespace mkos::mem {

/// A physically contiguous run of memory inside one domain.
struct Extent {
  hw::DomainId domain = -1;
  sim::Bytes start = 0;
  sim::Bytes length = 0;

  [[nodiscard]] sim::Bytes end() const { return start + length; }
};

/// First-fit extent allocator for a single NUMA domain.
class DomainAllocator {
 public:
  DomainAllocator(hw::DomainId id, sim::Bytes capacity);

  [[nodiscard]] hw::DomainId id() const { return id_; }
  [[nodiscard]] sim::Bytes capacity() const { return capacity_; }
  [[nodiscard]] sim::Bytes free_bytes() const { return free_bytes_; }
  [[nodiscard]] sim::Bytes used_bytes() const { return capacity_ - free_bytes_; }
  [[nodiscard]] sim::Bytes largest_free_extent() const;

  /// Allocate exactly `length` bytes in one contiguous, `align`-aligned run.
  /// Returns nullopt when no such run exists (fragmentation or exhaustion).
  std::optional<Extent> alloc_contiguous(sim::Bytes length, sim::Bytes align);

  /// Allocate up to `length` bytes as multiple extents, each aligned to and
  /// a multiple of `granule` (the page size being mapped). May return less
  /// than requested; the caller decides whether to spill to another domain.
  /// Returns a reference to an internal scratch buffer that the next
  /// alloc_best_effort call on this allocator overwrites — consume it before
  /// allocating again (the fault paths call this once per spill step, so the
  /// reuse removes one heap allocation per step).
  const std::vector<Extent>& alloc_best_effort(sim::Bytes length, sim::Bytes granule);

  /// Fault-injection hook, consulted once at the top of each public
  /// allocation call (never on internal retries). Returning true denies the
  /// allocation as if the domain were exhausted, which drives callers onto
  /// their existing spill paths (MCDRAM -> DDR4). nullptr (the default)
  /// disables injection with zero cost on the allocation path.
  using FaultHook = std::function<bool(sim::Bytes length)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }
  [[nodiscard]] bool has_fault_hook() const { return fault_hook_ != nullptr; }

  /// Contention-visibility hook, fired once at the top of every
  /// alloc_best_effort call with the current caller id (see
  /// set_traffic_caller) and the requested length. The allocator model uses
  /// it to attribute kernel-heap refill traffic per lane; nullptr (the
  /// default) costs nothing on the allocation path.
  using TrafficHook = std::function<void(int caller, sim::Bytes length)>;
  void set_traffic_hook(TrafficHook hook) { traffic_hook_ = std::move(hook); }
  [[nodiscard]] bool has_traffic_hook() const { return traffic_hook_ != nullptr; }

  /// Tag subsequent allocations with a caller id (e.g. a lane index) for the
  /// TrafficHook; -1 (the default) means "unattributed" and hook consumers
  /// typically ignore it.
  void set_traffic_caller(int id) { traffic_caller_ = id; }

  /// Return an extent previously handed out.
  void free(const Extent& e);

  /// Permanently remove `total` bytes in `chunks` randomly placed unmovable
  /// chunks (models Linux boot-time allocations that IHK cannot relocate).
  /// Returns the number of bytes actually pinned.
  sim::Bytes pin_unmovable(sim::Bytes total, int chunks, sim::Rng& rng);

  /// Number of distinct free extents (fragmentation indicator).
  [[nodiscard]] std::size_t free_extent_count() const { return free_.size(); }

  /// One entry of the free map: a maximal free run [start, start + length).
  struct FreeExtent {
    sim::Bytes start = 0;
    sim::Bytes length = 0;
  };

  /// O(1) hash of the free-map state (volume, extent count, boundary
  /// extents). A sequence of allocations exactly undone by frees maps back
  /// to the same fingerprint; used by the symmetric-lane heap fast path to
  /// verify a brk cycle left the allocator where it found it. Memoized
  /// against a mutation revision: the fast path probes it on every cycle,
  /// mutations are comparatively rare.
  [[nodiscard]] std::uint64_t state_fingerprint() const {
    if (fp_rev_ != rev_) {
      fp_cache_ = compute_fingerprint();
      fp_rev_ = rev_;
    }
    return fp_cache_;
  }

 private:
  [[nodiscard]] std::uint64_t compute_fingerprint() const;
  void insert_free(sim::Bytes start, sim::Bytes length);
  /// alloc_contiguous without the fault hook (internal callers that already
  /// passed the injection gate for the whole request).
  std::optional<Extent> alloc_contiguous_impl(sim::Bytes length, sim::Bytes align);

  hw::DomainId id_;
  sim::Bytes capacity_;
  sim::Bytes free_bytes_;
  /// Free map as a flat vector sorted by start, coalesced. Domains hold a
  /// handful of extents, so first-fit scans and lower_bound insertions are
  /// contiguous loads and a short memmove — the node-based map this
  /// replaces paid an allocation and a pointer chase per carve on the
  /// hottest setup path in the simulator.
  std::vector<FreeExtent> free_;
  std::vector<Extent> best_effort_scratch_;
  FaultHook fault_hook_;
  TrafficHook traffic_hook_;
  int traffic_caller_ = -1;
  std::uint64_t rev_ = 1;  // bumped by every free-map mutation
  mutable std::uint64_t fp_rev_ = 0;
  mutable std::uint64_t fp_cache_ = 0;
};

/// All domains of one node.
class PhysMemory {
 public:
  explicit PhysMemory(const hw::NodeTopology& topo);

  [[nodiscard]] DomainAllocator& domain(hw::DomainId id) {
    MKOS_EXPECTS(id >= 0 && id < domain_count());
    return domains_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const DomainAllocator& domain(hw::DomainId id) const {
    MKOS_EXPECTS(id >= 0 && id < domain_count());
    return domains_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] int domain_count() const { return static_cast<int>(domains_.size()); }

  [[nodiscard]] sim::Bytes free_bytes_of_kind(const hw::NodeTopology& topo,
                                              hw::MemKind kind) const;

 private:
  std::vector<DomainAllocator> domains_;
};

}  // namespace mkos::mem
