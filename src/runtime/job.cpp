#include "runtime/job.hpp"

#include <algorithm>

#include "mem/tlb.hpp"

#include "sim/contracts.hpp"

namespace mkos::runtime {

Job::Job(const Machine& machine, JobSpec spec, std::uint64_t seed)
    : machine_(machine), spec_(spec) {
  MKOS_EXPECTS(spec.nodes >= 1);
  MKOS_EXPECTS(spec.ranks_per_node >= 1);
  MKOS_EXPECTS(spec.threads_per_rank >= 1);
  MKOS_EXPECTS(spec.nodes <= machine.cluster.node_count());

  node_ = std::make_unique<kernel::Node>(machine.cluster.node(), machine.os, seed);

  const int quadrants = node_->topo().quadrant_count();
  lanes_.reserve(static_cast<std::size_t>(spec.ranks_per_node));
  for (int i = 0; i < spec.ranks_per_node; ++i) {
    // Block binding: consecutive ranks fill a quadrant before moving on,
    // matching how MPI_PROC_BIND-style launches lay ranks out on SNC-4.
    const int quadrant = i / std::max(1, spec.ranks_per_node / quadrants) % quadrants;
    kernel::Process& p = node_->launch_rank(quadrant, spec.ranks_per_node);
    for (int t = 0; t < spec.threads_per_rank; ++t) {
      p.add_thread(static_cast<hw::CoreId>(i));
    }
    lanes_.push_back(&p);
  }
}

kernel::Process& Job::lane(int i) {
  MKOS_EXPECTS(i >= 0 && i < lane_count());
  return *lanes_[static_cast<std::size_t>(i)];
}

double Job::lane_fraction_in(int i, hw::MemKind kind) const {
  MKOS_EXPECTS(i >= 0 && i < lane_count());
  const kernel::Process& p = *lanes_[static_cast<std::size_t>(i)];
  const auto& topo = node_->topo();
  sim::Bytes res = p.address_space().resident_bytes();
  sim::Bytes in_kind = p.address_space().resident_in_kind(topo, kind);
  // The heap engine tracks its placement outside the address space.
  const mem::Placement* hp =
      p.heap() != nullptr ? p.heap()->placement_or_null() : nullptr;
  if (hp != nullptr) {
    res += hp->total();
    in_kind += hp->bytes_in_kind(topo, kind);
  }
  return res == 0 ? 0.0 : static_cast<double>(in_kind) / static_cast<double>(res);
}

double Job::lane_effective_gbps(int i) const {
  MKOS_EXPECTS(i >= 0 && i < lane_count());
  const kernel::Process& p = *lanes_[static_cast<std::size_t>(i)];
  const auto& topo = node_->topo();

  // Communication buffers (shm) are excluded: the roofline streams the
  // application's working set, not the MPI segment.
  sim::Bytes res = 0;
  sim::Bytes in_mcdram = 0;
  sim::Bytes in_4k = 0;
  sim::Bytes in_1g = 0;
  p.address_space().for_each([&](const mem::Vma& v) {
    if (v.kind == mem::VmaKind::kShm) return;
    res += v.backed();
    in_mcdram += v.placement.bytes_in_kind(topo, hw::MemKind::kMcdram);
    in_4k += v.placement.bytes_with_page(mem::PageSize::k4K);
    in_1g += v.placement.bytes_with_page(mem::PageSize::k1G);
  });
  const mem::Placement* hp =
      p.heap() != nullptr ? p.heap()->placement_or_null() : nullptr;
  if (hp != nullptr) {
    res += hp->total();
    in_mcdram += hp->bytes_in_kind(topo, hw::MemKind::kMcdram);
    in_4k += hp->bytes_with_page(mem::PageSize::k4K);
  }
  if (res == 0) {
    // Nothing resident yet: assume the DDR4 rate.
    return topo.total_bandwidth_gbps(hw::MemKind::kDdr4) / spec_.ranks_per_node;
  }

  const double f_mcdram = static_cast<double>(in_mcdram) / static_cast<double>(res);
  const double bw_mcdram = topo.total_bandwidth_gbps(hw::MemKind::kMcdram);
  const double bw_ddr = topo.total_bandwidth_gbps(hw::MemKind::kDdr4);

  // Harmonic blend: time per byte is the placement-weighted sum of the
  // per-kind costs, each kind's node bandwidth shared across all ranks.
  const double ranks = static_cast<double>(spec_.ranks_per_node);
  const double t_per_byte =
      f_mcdram * (ranks / bw_mcdram) + (1.0 - f_mcdram) * (ranks / bw_ddr);
  double gbps = 1.0 / t_per_byte;

  // Page-granularity factor from the TLB-coverage model: 4 KiB-backed data
  // pays a page-table walk per streamed page once the working set exceeds
  // the TLB reach; 2 MiB/1 GiB mappings are covered (mem/tlb.hpp).
  mem::Placement mix;
  mix.add(0, mem::PageSize::k4K, in_4k);
  mix.add(0, mem::PageSize::k1G, in_1g);
  mix.add(0, mem::PageSize::k2M, res - in_4k - in_1g);
  gbps *= mem::tlb_bandwidth_factor(mem::TlbSpec::knl(), mix, gbps);
  return gbps;
}

}  // namespace mkos::runtime
