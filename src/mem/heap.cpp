#include "mem/heap.hpp"

#include <algorithm>

#include "sim/contracts.hpp"
#include "sim/hash.hpp"

namespace mkos::mem {

namespace {

/// Free `bytes` from the tail of an extent list (heap shrink — the tail is
/// the most recently grown region). Returns the page-table teardown cost.
sim::TimeNs free_tail(PhysMemory& phys, std::vector<Extent>& extents, Placement& placement,
                      const MemCostModel& cost, sim::Bytes bytes, PageSize page) {
  sim::TimeNs t{0};
  sim::Bytes remaining = bytes;
  while (remaining > 0 && !extents.empty()) {
    Extent& e = extents.back();
    const sim::Bytes take = std::min(remaining, e.length);
    Extent freed{e.domain, e.start + e.length - take, take};
    phys.domain(e.domain).free(freed);
    t += cost.pte_per_page * static_cast<std::int64_t>(pages_for(take, page));
    e.length -= take;
    remaining -= take;
    if (e.length == 0) extents.pop_back();
  }
  // Rebuild the placement from the surviving extents (domain mix may shift).
  Placement np;
  for (const auto& e : extents) np.add(e.domain, page, e.length);
  placement = np;
  // Audit: the rebuilt placement accounts for exactly the surviving extent
  // bytes — drift here would misprice every later fault and TLB walk.
  MKOS_AUDIT([&] {
    sim::Bytes total = 0;
    for (const auto& e : extents) total += e.length;
    return placement.total() == total;
  }());
  return t;
}

/// Demand-fault `bytes` of heap at 4 KiB granularity along `order`.
struct FaultBill {
  sim::TimeNs cost{0};
  std::uint64_t faults = 0;
  sim::Bytes zeroed = 0;
  sim::Bytes backed = 0;
};

FaultBill fault_in(PhysMemory& phys, const MemCostModel& cost,
                   const std::vector<hw::DomainId>& order, std::vector<Extent>& extents,
                   Placement& placement, sim::Bytes bytes, int concurrent) {
  FaultBill bill;
  sim::Bytes remaining = sim::align_up(bytes, 4 * sim::KiB);
  const double contention = cost.contention(concurrent);
  for (hw::DomainId d : order) {
    if (remaining == 0) break;
    const auto& got = phys.domain(d).alloc_best_effort(remaining, 4 * sim::KiB);
    for (const auto& e : got) {
      extents.push_back(e);
      placement.add(d, PageSize::k4K, e.length);
      const std::uint64_t n = pages_for(e.length, PageSize::k4K);
      bill.faults += n;
      bill.cost += (cost.fault_4k * static_cast<std::int64_t>(n)).scaled(contention);
      bill.cost += cost.zero_cost(e.length);
      bill.zeroed += e.length;
      bill.backed += e.length;
      remaining -= e.length;
    }
  }
  return bill;
}

}  // namespace

// ---------------------------------------------------------------- LinuxHeap

LinuxHeap::LinuxHeap(PhysMemory& phys, const hw::NodeTopology& topo, MemCostModel cost,
                     MemPolicy policy, int home_quadrant)
    : phys_(phys), topo_(topo), cost_(cost), policy_(std::move(policy)),
      home_quadrant_(home_quadrant) {}

sim::TimeNs LinuxHeap::do_sbrk(std::int64_t delta) {
  sim::TimeNs t = cost_.syscall_entry;
  if (delta == 0) {
    ++stats_.queries;
    return t;
  }
  if (delta > 0) {
    ++stats_.grows;
    const auto d = static_cast<sim::Bytes>(delta);
    stats_.current += d;
    stats_.cum_growth += d;
    stats_.max_break = std::max(stats_.max_break, stats_.current);
    // brk() itself only moves the break; pages arrive on first touch.
    return t;
  }
  ++stats_.shrinks;
  const auto d = std::min(static_cast<sim::Bytes>(-delta), stats_.current);
  stats_.current -= d;
  // Linux returns the memory: tear down any backed pages beyond the break.
  if (placement_.total() > stats_.current) {
    const sim::Bytes excess = placement_.total() - stats_.current;
    t += free_tail(phys_, extents_, placement_, cost_, excess, PageSize::k4K);
  }
  return t;
}

sim::TimeNs LinuxHeap::do_touch_new(int concurrent_faulters) {
  const sim::Bytes to_fault =
      stats_.current > placement_.total() ? stats_.current - placement_.total() : 0;
  if (to_fault == 0) return sim::TimeNs{0};
  const auto& order = linux_domain_order(topo_, policy_, home_quadrant_);
  const FaultBill bill =
      fault_in(phys_, cost_, order, extents_, placement_, to_fault, concurrent_faulters);
  stats_.faults += bill.faults;
  stats_.zeroed += bill.zeroed;
  return bill.cost;
}

// Deliberately O(1): no walk over extents or placement chunks. The scalars
// below determine how many bytes a cycle faults, tears down, or zeroes —
// per-byte costs are domain-independent, so the chunk composition (which
// quadrant's domain backs which byte) never enters a cycle's price and can
// legitimately differ between lanes the fast path treats as identical.
std::uint64_t LinuxHeap::compute_fingerprint() const {
  std::uint64_t h = 0x243f6a8885a308d3ULL;  // class tag
  h = sim::hash_combine(h, stats_.current);
  h = sim::hash_combine(h, stats_.max_break);
  h = sim::hash_combine(h, static_cast<std::uint64_t>(policy_.mode));
  for (const auto d : policy_.domains) h = sim::hash_combine(h, static_cast<std::uint64_t>(d));
  h = sim::hash_combine(h, extents_.size());
  return sim::hash_combine(h, placement_.total());
}

// ------------------------------------------------------------------ LwkHeap

LwkHeap::LwkHeap(PhysMemory& phys, const hw::NodeTopology& topo, MemCostModel cost,
                 LwkHeapOptions options, int home_quadrant)
    : phys_(phys), topo_(topo), cost_(cost), options_(options),
      home_quadrant_(home_quadrant) {
  MKOS_EXPECTS(options_.growth_granule >= 4 * sim::KiB);
  MKOS_EXPECTS(options_.aggressive_extension >= 1.0);
}

sim::TimeNs LwkHeap::grow_backing(sim::Bytes target) {
  // Back the heap up to `target` (already granule-aligned) with physical
  // pages allocated *now*, in the LWK placement order.
  sim::TimeNs t{0};
  if (target <= backed_) return t;
  sim::Bytes need = target - backed_;
  const auto& order = lwk_domain_order(topo_, home_quadrant_, options_.prefer_mcdram);
  for (hw::DomainId d : order) {
    if (need == 0) break;
    const auto& got = phys_.domain(d).alloc_best_effort(need, options_.growth_granule);
    for (const auto& e : got) {
      extents_.push_back(e);
      const PageSize page =
          options_.growth_granule >= 2 * sim::MiB ? PageSize::k2M : PageSize::k4K;
      placement_.add(d, page, e.length);
      t += cost_.pte_per_page * static_cast<std::int64_t>(pages_for(e.length, page));
      // "upon a growth request and allocation of a new 2 MB page, only the
      //  first 4 kB are zeroed" — the AMG 2013 workaround.
      const sim::Bytes zero_bytes =
          options_.zero_first_4k_only
              ? 4 * sim::KiB * pages_for(e.length, page)
              : e.length;
      t += cost_.zero_cost(zero_bytes);
      stats_.zeroed += zero_bytes;
      backed_ += e.length;
      need -= std::min(need, e.length);
    }
  }
  return t;
}

sim::TimeNs LwkHeap::do_sbrk(std::int64_t delta) {
  sim::TimeNs t = cost_.syscall_entry;
  if (delta == 0) {
    ++stats_.queries;
    return t;
  }
  if (delta > 0) {
    ++stats_.grows;
    const auto d = static_cast<sim::Bytes>(delta);
    stats_.current += d;
    stats_.cum_growth += d;
    stats_.max_break = std::max(stats_.max_break, stats_.current);
    if (options_.hpc_mode) {
      sim::Bytes target = sim::align_up(stats_.current, options_.growth_granule);
      if (options_.aggressive_extension > 1.0 && target > backed_) {
        target = sim::align_up(
            static_cast<sim::Bytes>(static_cast<double>(target) * options_.aggressive_extension),
            options_.growth_granule);
      }
      t += grow_backing(target);
    } else {
      untouched_ += d;  // Linux-like: pages arrive on first touch
    }
    return t;
  }
  ++stats_.shrinks;
  const auto d = std::min(static_cast<sim::Bytes>(-delta), stats_.current);
  stats_.current -= d;
  if (!options_.hpc_mode) {
    // Heap management disabled: honor the shrink like Linux does.
    if (backed_ > stats_.current) {
      const sim::Bytes excess = backed_ - stats_.current;
      t += free_tail(phys_, extents_, placement_, cost_, excess, PageSize::k4K);
      backed_ = stats_.current;
    }
    untouched_ = std::min(untouched_, stats_.current - backed_);
  }
  // HPC mode: "Shrink requests are ignored" — backing stays; regrowth is free.
  return t;
}

sim::TimeNs LwkHeap::do_touch_new(int concurrent_faulters) {
  if (options_.hpc_mode) return sim::TimeNs{0};  // never faults
  const sim::Bytes to_fault = stats_.current > backed_ ? stats_.current - backed_ : 0;
  if (to_fault == 0) return sim::TimeNs{0};
  const auto& order = lwk_domain_order(topo_, home_quadrant_, options_.prefer_mcdram);
  const FaultBill bill =
      fault_in(phys_, cost_, order, extents_, placement_, to_fault, concurrent_faulters);
  stats_.faults += bill.faults;
  stats_.zeroed += bill.zeroed;
  backed_ += bill.backed;
  untouched_ = 0;
  return bill.cost;
}

std::uint64_t LwkHeap::compute_fingerprint() const {
  std::uint64_t h = 0x13198a2e03707344ULL;  // class tag
  h = sim::hash_combine(h, stats_.current);
  h = sim::hash_combine(h, stats_.max_break);
  h = sim::hash_combine(h, backed_);
  h = sim::hash_combine(h, untouched_);
  h = sim::hash_combine(h, extents_.size());
  return sim::hash_combine(h, placement_.total());
}

}  // namespace mkos::mem
