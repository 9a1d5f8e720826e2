#pragma once
// A booted compute node: hardware + operating system stack.
//
// Linux-only nodes run one kernel. Multi-kernel nodes run Linux on the
// service cores and an LWK (McKernel or mOS) on the application cores, with
// the partition applied to physical memory at boot:
//   * mOS grabs its contiguous blocks early (compiled into Linux);
//   * McKernel reserves through IHK after Linux booted, inheriting
//     fragmentation from Linux's unmovable allocations.
// For every McKernel application process a proxy process is spawned on the
// Linux side (system-call offloading requires its execution context).

#include <memory>

#include "hw/topology.hpp"
#include "kernel/ihk.hpp"
#include "kernel/linux_kernel.hpp"
#include "kernel/fusedos.hpp"
#include "kernel/mckernel.hpp"
#include "kernel/mos.hpp"

namespace mkos::kernel {

struct NodeOsConfig {
  OsKind os = OsKind::kLinux;
  int app_cores = 64;      ///< "we dedicated 64 CPU cores to the application"
  int service_cores = 4;   ///< "and reserved 4 CPU cores for OS activities"
  LinuxOptions linux_opts;
  McKernelOptions mckernel_opts;
  MosOptions mos_opts;

  [[nodiscard]] static NodeOsConfig linux_default();
  [[nodiscard]] static NodeOsConfig mckernel_default();
  [[nodiscard]] static NodeOsConfig mos_default();
  [[nodiscard]] static NodeOsConfig fusedos_default();
};

class Node {
 public:
  /// `topo` is shared, not copied: it must outlive the node (the KNL
  /// presets live for the whole process).
  Node(const hw::NodeTopology& topo, NodeOsConfig config, std::uint64_t seed);
  Node(hw::NodeTopology&& topo, NodeOsConfig config, std::uint64_t seed) = delete;

  /// The kernel HPC ranks run on (the LWK, or Linux itself).
  [[nodiscard]] Kernel& app_kernel();
  [[nodiscard]] const Kernel& app_kernel() const;
  /// The Linux instance (service side on multi-kernels).
  [[nodiscard]] LinuxKernel& linux();

  [[nodiscard]] const NodeOsConfig& config() const { return config_; }
  [[nodiscard]] const hw::NodeTopology& topo() const { return topo_; }
  [[nodiscard]] mem::PhysMemory& phys() { return phys_; }
  [[nodiscard]] const PartitionResult& partition() const { return partition_; }

  /// Launch one application rank homed on `home_quadrant`. On McKernel this
  /// also spawns the Linux-side proxy process. On mOS it assigns the
  /// launch-time MCDRAM quota (reserved MCDRAM / expected ranks).
  Process& launch_rank(int home_quadrant, int expected_ranks_on_node);

  [[nodiscard]] int proxy_process_count() const { return proxy_count_; }
  [[nodiscard]] int app_core_count() const { return config_.app_cores; }

  /// Partitioning means a Linux-side kernel crash does not take the
  /// application down: the LWK keeps computing while Linux reboots (it only
  /// stalls on offloaded services). A Linux-only node loses everything.
  [[nodiscard]] bool lwk_survives_linux_crash() const { return lwk_ != nullptr; }

 private:
  const hw::NodeTopology& topo_;
  NodeOsConfig config_;
  mem::PhysMemory phys_;
  std::unique_ptr<LinuxKernel> linux_;
  std::unique_ptr<Kernel> lwk_;  // null on Linux-only nodes
  PartitionResult partition_;
  int proxy_count_ = 0;
};

}  // namespace mkos::kernel
