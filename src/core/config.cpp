#include "core/config.hpp"

#include <cstdio>

#include "hw/knl.hpp"
#include "sim/hash.hpp"

namespace mkos::core {

SystemConfig SystemConfig::linux_default() { return SystemConfig{}; }

SystemConfig SystemConfig::mckernel() {
  SystemConfig c;
  c.os = kernel::OsKind::kMcKernel;
  return c;
}

SystemConfig SystemConfig::mos() {
  SystemConfig c;
  c.os = kernel::OsKind::kMos;
  return c;
}

SystemConfig SystemConfig::for_os(kernel::OsKind os) {
  SystemConfig c;
  c.os = os;
  return c;
}

std::string SystemConfig::label() const { return std::string(kernel::to_string(os)); }

std::uint64_t SystemConfig::fingerprint() const {
  // FNV-1a over a canonical field sequence. Every knob participates; adding a
  // field to SystemConfig must extend this list or cells with different
  // behavior would alias in the campaign cache.
  std::uint64_t h = sim::kFnvOffsetBasis;
  const auto mix = [&h](std::uint64_t v) { h = sim::fnv1a_word(h, v); };
  mix(static_cast<std::uint64_t>(os));
  mix(static_cast<std::uint64_t>(mem_mode));
  mix(static_cast<std::uint64_t>(app_cores));
  mix(static_cast<std::uint64_t>(service_cores));
  std::uint64_t bools = 0;
  for (const bool b : {linux_nohz_full, linux_thp, hpc_brk, lwk_prefer_mcdram,
                       mckernel_demand_fallback, mckernel_mpol_shm_premap,
                       mckernel_disable_sched_yield, mos_partition_mcdram,
                       user_space_network, co_tenant}) {
    bools = (bools << 1) | static_cast<std::uint64_t>(b);
  }
  mix(bools);
  // Fold the resilience spec only when it can change observable behavior:
  // an inert spec must keep every pre-existing fingerprint (cache keys,
  // ledger meta) exactly as it was before the fault subsystem existed.
  if (resilience.enabled()) mix(resilience.fingerprint());
  // Same contract for the allocator model: inert means invisible.
  if (alloc.enabled()) mix(alloc.fingerprint());
  return h;
}

std::string SystemConfig::digest() const {
  // Mirrors fingerprint()'s field sequence exactly; see the header contract.
  std::string out = "os=" + std::to_string(static_cast<int>(os));
  out += " mem=" + std::to_string(static_cast<int>(mem_mode));
  out += " cores=" + std::to_string(app_cores) + "+" + std::to_string(service_cores);
  out += " flags=";
  for (const bool b : {linux_nohz_full, linux_thp, hpc_brk, lwk_prefer_mcdram,
                       mckernel_demand_fallback, mckernel_mpol_shm_premap,
                       mckernel_disable_sched_yield, mos_partition_mcdram,
                       user_space_network, co_tenant}) {
    out += b ? '1' : '0';
  }
  // Like fingerprint(): an inert resilience spec is invisible, so digests
  // (and therefore stored cells) survive the fault subsystem being compiled
  // in or out.
  if (resilience.enabled()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " res=%016llx",
                  static_cast<unsigned long long>(resilience.fingerprint()));
    out += buf;
  } else {
    out += " res=off";
  }
  // The allocator spec appends a token ONLY when enabled — unlike the
  // " res=off" above (already baked into every stored digest), an
  // unconditional " alloc=off" would invalidate every pre-existing cell.
  if (alloc.enabled()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " alloc=%016llx",
                  static_cast<unsigned long long>(alloc.fingerprint()));
    out += buf;
  }
  return out;
}

kernel::NodeOsConfig SystemConfig::node_config() const {
  kernel::NodeOsConfig nc;
  nc.os = os;
  nc.app_cores = app_cores;
  nc.service_cores = service_cores;
  nc.linux_opts.nohz_full = linux_nohz_full;
  nc.linux_opts.thp = linux_thp;
  // With no reserved service cores, application ranks share CPU 0 with the
  // system daemons ("often due to CPU 0 running services and introducing
  // noise", Section III-A).
  nc.linux_opts.service_core_shared = service_cores == 0;
  nc.mckernel_opts.hpc_brk = hpc_brk;
  nc.mckernel_opts.prefer_mcdram = lwk_prefer_mcdram;
  nc.mckernel_opts.demand_fallback = mckernel_demand_fallback;
  nc.mckernel_opts.mpol_shm_premap = mckernel_mpol_shm_premap;
  nc.mckernel_opts.disable_sched_yield = mckernel_disable_sched_yield;
  nc.mos_opts.hpc_brk = hpc_brk;
  nc.mos_opts.prefer_mcdram = lwk_prefer_mcdram;
  nc.mos_opts.partition_mcdram_per_rank = mos_partition_mcdram;
  nc.linux_opts.co_tenant = co_tenant && os == kernel::OsKind::kLinux;
  if (alloc.enabled() && alloc.linux_reclaim_daemon &&
      os == kernel::OsKind::kLinux) {
    nc.linux_opts.alloc_reclaim_rate_hz = alloc.reclaim_rate_hz;
  }
  nc.mckernel_opts.co_tenant_on_linux = co_tenant;
  nc.mos_opts.co_tenant_on_linux = co_tenant;
  return nc;
}

const hw::NodeTopology& SystemConfig::node_topology() const {
  return mem_mode == MemMode::kSnc4Flat ? hw::knl_snc4_flat() : hw::knl_quadrant_flat();
}

hw::NetworkModel SystemConfig::network() const {
  return user_space_network ? hw::omni_path_user_space() : hw::omni_path_100();
}

runtime::Machine SystemConfig::machine(int nodes) const {
  return runtime::Machine{hw::Cluster{nodes, node_topology(), network()}, node_config()};
}

}  // namespace mkos::core
