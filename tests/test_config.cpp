// Unit tests: SystemConfig -> NodeOsConfig / Machine wiring. Every public
// toggle must reach the component that implements it.

#include <gtest/gtest.h>

#include "core/config.hpp"
#include "hw/knl.hpp"
#include "kernel/node.hpp"

namespace {

using namespace mkos;
using core::MemMode;
using core::SystemConfig;

TEST(ConfigWiring, HpcBrkReachesBothLwks) {
  SystemConfig c = SystemConfig::mckernel();
  c.hpc_brk = false;
  EXPECT_FALSE(c.node_config().mckernel_opts.hpc_brk);
  c.os = kernel::OsKind::kMos;
  EXPECT_FALSE(c.node_config().mos_opts.hpc_brk);
}

TEST(ConfigWiring, PreferMcdramReachesBothLwks) {
  SystemConfig c = SystemConfig::mos();
  c.lwk_prefer_mcdram = false;
  const auto nc = c.node_config();
  EXPECT_FALSE(nc.mos_opts.prefer_mcdram);
  EXPECT_FALSE(nc.mckernel_opts.prefer_mcdram);
}

TEST(ConfigWiring, McKernelProxyOptions) {
  SystemConfig c = SystemConfig::mckernel();
  c.mckernel_mpol_shm_premap = true;
  c.mckernel_disable_sched_yield = true;
  c.mckernel_demand_fallback = false;
  const auto nc = c.node_config();
  EXPECT_TRUE(nc.mckernel_opts.mpol_shm_premap);
  EXPECT_TRUE(nc.mckernel_opts.disable_sched_yield);
  EXPECT_FALSE(nc.mckernel_opts.demand_fallback);
}

TEST(ConfigWiring, CoreSplitPropagates) {
  SystemConfig c = SystemConfig::mos();
  c.app_cores = 66;
  c.service_cores = 2;
  const auto nc = c.node_config();
  EXPECT_EQ(nc.app_cores, 66);
  EXPECT_EQ(nc.service_cores, 2);
  kernel::Node node{c.node_topology(), nc, 1};
  EXPECT_EQ(node.partition().lwk_cores, 66);
}

TEST(ConfigWiring, ServiceCoreSharingOnlyWithoutReservedCores) {
  SystemConfig c = SystemConfig::linux_default();
  EXPECT_FALSE(c.node_config().linux_opts.service_core_shared);
  c.app_cores = 68;
  c.service_cores = 0;
  EXPECT_TRUE(c.node_config().linux_opts.service_core_shared);
}

TEST(ConfigWiring, CoTenantConfinement) {
  // On Linux the tenant shares the app cores; on a multi-kernel it only
  // reaches the Linux side.
  SystemConfig lin = SystemConfig::linux_default();
  lin.co_tenant = true;
  EXPECT_TRUE(lin.node_config().linux_opts.co_tenant);

  SystemConfig mck = SystemConfig::mckernel();
  mck.co_tenant = true;
  const auto nc = mck.node_config();
  EXPECT_FALSE(nc.linux_opts.co_tenant);  // app cores belong to the LWK
  EXPECT_TRUE(nc.mckernel_opts.co_tenant_on_linux);
}

TEST(ConfigWiring, MemModeSelectsTopology) {
  SystemConfig c = SystemConfig::linux_default();
  EXPECT_EQ(c.node_topology().domains().size(), 8u);
  c.mem_mode = MemMode::kQuadrantFlat;
  EXPECT_EQ(c.node_topology().domains().size(), 2u);
  EXPECT_EQ(c.node_topology().total_capacity(hw::MemKind::kMcdram),
            16ull * sim::GiB);
}

TEST(ConfigWiring, MachinesShareOneTopologyPerMemMode) {
  // The KNL presets are built once per process; every machine and node
  // refers to them instead of holding a copy.
  const runtime::Machine small = SystemConfig::linux_default().machine(1);
  const runtime::Machine large = SystemConfig::mos().machine(2048);
  EXPECT_EQ(&small.cluster.node(), &large.cluster.node());
  EXPECT_EQ(&small.cluster.node(), &hw::knl_snc4_flat());

  SystemConfig quad = SystemConfig::mckernel();
  quad.mem_mode = MemMode::kQuadrantFlat;
  const runtime::Machine q = quad.machine(16);
  EXPECT_EQ(&q.cluster.node(), &hw::knl_quadrant_flat());
  EXPECT_NE(&q.cluster.node(), &small.cluster.node());

  runtime::Job job{large, runtime::JobSpec{1, 4, 1}, 3};
  EXPECT_EQ(&job.node().topo(), &hw::knl_snc4_flat());
}

TEST(ConfigWiring, NetworkToggle) {
  SystemConfig c = SystemConfig::mckernel();
  EXPECT_EQ(c.network().name, "omni-path-100");
  c.user_space_network = true;
  EXPECT_EQ(c.network().name, "omni-path-bypass");
}

TEST(ConfigWiring, FusedOsBootsThroughConfig) {
  const SystemConfig c = SystemConfig::for_os(kernel::OsKind::kFusedOs);
  EXPECT_EQ(c.label(), "FusedOS");
  const auto machine = c.machine(2);
  runtime::Job job{machine, runtime::JobSpec{2, 8, 1}, 1};
  EXPECT_EQ(job.kernel().kind(), kernel::OsKind::kFusedOs);
  EXPECT_EQ(job.node().proxy_process_count(), 8);  // one CL per rank
}

TEST(ConfigWiring, MachineNodeCountHonored) {
  const auto machine = SystemConfig::linux_default().machine(37);
  EXPECT_EQ(machine.cluster.node_count(), 37);
}

}  // namespace
