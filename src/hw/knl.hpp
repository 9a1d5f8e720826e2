#pragma once
// Intel Xeon Phi 7250 "Knights Landing" node presets, modeled after the
// Oakforest-PACS compute node used throughout the paper's evaluation:
// 68 cores x 4 hardware threads, 16 GB on-package MCDRAM, 96 GB DDR4.
//
// Two memory modes matter for the reproduction:
//  * SNC-4 flat: MCDRAM and DDR4 each split into four NUMA domains (eight
//    total). Highest hardware performance, but Linux's one-preferred-domain
//    NUMA policy cannot express "all MCDRAM then spill to DDR4".
//  * Quadrant flat: one DDR4 domain + one MCDRAM domain; `numactl -p` works.

#include "hw/topology.hpp"

namespace mkos::hw {

// Both presets are built once per process, on first use (thread-safe
// function-local statics), and never change afterwards: every node of every
// repetition shares them by reference.

/// SNC-4 flat mode: domains 0..3 are DDR4 (one per quadrant), 4..7 MCDRAM.
[[nodiscard]] const NodeTopology& knl_snc4_flat();

/// Quadrant flat mode: domain 0 is DDR4, domain 1 is MCDRAM.
[[nodiscard]] const NodeTopology& knl_quadrant_flat();

/// Per-node capacities used by the presets (exposed for tests/benches).
struct KnlSpec {
  static constexpr int kCores = 68;
  static constexpr int kSmtPerCore = 4;
  static constexpr sim::Bytes kMcdramTotal = 16 * sim::GiB;
  static constexpr sim::Bytes kDdr4Total = 96 * sim::GiB;
  static constexpr double kMcdramGbps = 480.0;  // aggregate stream
  static constexpr double kDdr4Gbps = 90.0;     // aggregate stream
};

}  // namespace mkos::hw
