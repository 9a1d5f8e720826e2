#include "kernel/node.hpp"

#include "sim/contracts.hpp"

namespace mkos::kernel {

NodeOsConfig NodeOsConfig::linux_default() { return NodeOsConfig{}; }

NodeOsConfig NodeOsConfig::mckernel_default() {
  NodeOsConfig c;
  c.os = OsKind::kMcKernel;
  return c;
}

NodeOsConfig NodeOsConfig::mos_default() {
  NodeOsConfig c;
  c.os = OsKind::kMos;
  return c;
}

NodeOsConfig NodeOsConfig::fusedos_default() {
  NodeOsConfig c;
  c.os = OsKind::kFusedOs;
  return c;
}

Node::Node(const hw::NodeTopology& topo, NodeOsConfig config, std::uint64_t seed)
    : topo_(topo), config_(config), phys_(topo_) {
  MKOS_EXPECTS(config_.app_cores + config_.service_cores <= topo_.core_count());
  sim::Rng rng{seed};

  PartitionSpec spec;
  spec.lwk_cores = config_.app_cores;
  spec.linux_cores = config_.service_cores;
  spec.late_reservation = config_.os == OsKind::kMcKernel;

  partition_ = mkos::kernel::partition(phys_, topo_, spec, rng);

  linux_ = std::make_unique<LinuxKernel>(topo_, phys_, config_.linux_opts);
  switch (config_.os) {
    case OsKind::kLinux:
      break;
    case OsKind::kMcKernel: {
      // IKC endpoints: LWK cores sit in all quadrants; Linux cores are the
      // first few (quadrant 0). Use the worst-case quadrant distance of an
      // application core for the channel model.
      IkcChannel ikc{IkcCosts{}, topo_.quadrant_count() - 1, 0};
      lwk_ = std::make_unique<McKernel>(topo_, phys_, ikc, config_.mckernel_opts);
      break;
    }
    case OsKind::kMos:
      lwk_ = std::make_unique<Mos>(topo_, phys_, config_.mos_opts);
      break;
    case OsKind::kFusedOs: {
      // The CL proxy inherits Blue Gene heritage: memory grabbed early.
      IkcChannel channel{IkcCosts{}, topo_.quadrant_count() - 1, 0};
      lwk_ = std::make_unique<FusedOs>(topo_, phys_, channel);
      break;
    }
  }
}

Kernel& Node::app_kernel() { return lwk_ ? *lwk_ : *linux_; }

const Kernel& Node::app_kernel() const { return lwk_ ? *lwk_ : *linux_; }

LinuxKernel& Node::linux() { return *linux_; }

Process& Node::launch_rank(int home_quadrant, int expected_ranks_on_node) {
  MKOS_EXPECTS(expected_ranks_on_node >= 1);
  Process& p = app_kernel().create_process(home_quadrant);

  if (config_.os == OsKind::kMcKernel || config_.os == OsKind::kFusedOs) {
    // "For every single process running on McKernel there is a process
    // spawned on Linux, called the proxy process." (FusedOS: the CL proxy.)
    Process& proxy = linux_->create_process(0);
    (void)proxy;
    ++proxy_count_;
  } else if (config_.os == OsKind::kMos && config_.mos_opts.partition_mcdram_per_rank) {
    // "mOS allows LWK resources to be divided at the time of application
    // launch. This division respects NUMA boundaries."
    const sim::Bytes mcdram_free =
        phys_.free_bytes_of_kind(topo_, hw::MemKind::kMcdram);
    p.set_mcdram_quota(mcdram_free / static_cast<sim::Bytes>(expected_ranks_on_node));
  }
  return p;
}

}  // namespace mkos::kernel
