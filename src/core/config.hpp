#pragma once
// SystemConfig — the top-level deployment choice an experiment runs under:
// which OS stack, which feature toggles, which memory mode, which fabric.
// This is the public entry point a downstream user starts from.

#include <cstdint>
#include <string>

#include "alloc/spec.hpp"
#include "fault/fault.hpp"
#include "hw/cluster.hpp"
#include "kernel/node.hpp"
#include "runtime/job.hpp"

namespace mkos::core {

enum class MemMode : std::uint8_t { kSnc4Flat, kQuadrantFlat };

struct SystemConfig {
  kernel::OsKind os = kernel::OsKind::kLinux;
  MemMode mem_mode = MemMode::kSnc4Flat;

  int app_cores = 64;
  int service_cores = 4;

  // Linux knobs.
  bool linux_nohz_full = true;
  bool linux_thp = true;

  // LWK knobs.
  bool hpc_brk = true;
  bool lwk_prefer_mcdram = true;
  bool mckernel_demand_fallback = true;
  bool mckernel_mpol_shm_premap = false;
  bool mckernel_disable_sched_yield = false;
  bool mos_partition_mcdram = true;

  // Fabric: first-generation Omni-Path (kernel-involved send path) vs a
  // hypothetical user-space-driven generation (the Section IV outlook).
  bool user_space_network = false;

  /// Multi-tenancy extension: a co-located tenant on every node. On Linux it
  /// shares the application cores; on a multi-kernel it is confined to the
  /// Linux partition — the isolation experiment of the papers the related
  /// work cites ([31], [32]).
  bool co_tenant = false;

  /// Fault injection and recovery (inert by default: all rates zero). Folded
  /// into fingerprint() only when enabled(), so pre-existing configs keep
  /// their cache keys and ledger meta entries.
  fault::Spec resilience;

  /// Kernel-allocator scalability model (inert by default: allocation stays
  /// free). Folded into fingerprint()/digest() only when enabled(), exactly
  /// like `resilience`, so pre-existing cells and cache keys survive.
  alloc::AllocSpec alloc;

  [[nodiscard]] static SystemConfig linux_default();
  [[nodiscard]] static SystemConfig mckernel();
  [[nodiscard]] static SystemConfig mos();
  [[nodiscard]] static SystemConfig for_os(kernel::OsKind os);

  /// Short human label ("McKernel", "Linux", "mOS").
  [[nodiscard]] std::string label() const;

  /// Stable 64-bit fingerprint over every knob above. Two configs compare
  /// equal iff they produce the same fingerprint (field-by-field hash, not a
  /// memory hash — padding and field order changes don't perturb it). The
  /// campaign engine derives cell seeds and cache keys from this, so it must
  /// stay identical across processes and runs.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Canonical rendering of exactly the fields fingerprint() hashes, in
  /// hash order ("os=1 mem=0 cores=64+4 flags=0111010000 res=off"). The
  /// campaign cache stores this next to the 64-bit hash and compares it on
  /// every hit: two configs whose knobs differ can collide on the hash, but
  /// never on the digest, so a collision reads as a miss instead of serving
  /// the wrong cell. Keep in lockstep with fingerprint() — a field added to
  /// one but not the other either defeats collision detection or invalidates
  /// every stored cell.
  [[nodiscard]] std::string digest() const;

  [[nodiscard]] kernel::NodeOsConfig node_config() const;
  [[nodiscard]] const hw::NodeTopology& node_topology() const;
  [[nodiscard]] hw::NetworkModel network() const;

  /// Assemble the machine an experiment boots.
  [[nodiscard]] runtime::Machine machine(int nodes) const;
};

}  // namespace mkos::core
