#include "hw/knl.hpp"

using mkos::sim::GiB;
using mkos::sim::TimeNs;

namespace mkos::hw {

namespace {

std::vector<Core> knl_cores() {
  std::vector<Core> cores;
  cores.reserve(KnlSpec::kCores);
  for (int c = 0; c < KnlSpec::kCores; ++c) {
    // 68 cores across 4 quadrants -> 17 per quadrant. (Real SNC-4 tiles are
    // slightly uneven; the even split preserves every policy decision.)
    cores.push_back(Core{c, c / 17, KnlSpec::kSmtPerCore});
  }
  return cores;
}

NodeTopology build_snc4_flat() {
  std::vector<MemoryDomain> domains;
  for (int q = 0; q < 4; ++q) {
    domains.push_back(MemoryDomain{q, MemKind::kDdr4, KnlSpec::kDdr4Total / 4,
                                   KnlSpec::kDdr4Gbps / 4, TimeNs{130}, q});
  }
  for (int q = 0; q < 4; ++q) {
    domains.push_back(MemoryDomain{4 + q, MemKind::kMcdram, KnlSpec::kMcdramTotal / 4,
                                   KnlSpec::kMcdramGbps / 4, TimeNs{155}, q});
  }
  // SLIT distances as Linux reports them on SNC-4 KNL: local DDR 10, remote
  // DDR 21, local MCDRAM 31, remote MCDRAM 41. MCDRAM being "farther" than
  // remote DDR4 is exactly why naive NUMA fallback ordering avoids it.
  std::vector<std::vector<int>> dist(8, std::vector<int>(8, 0));
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      const bool a_hbm = a >= 4;
      const bool b_hbm = b >= 4;
      const int qa = a % 4;
      const int qb = b % 4;
      if (a == b) {
        dist[a][b] = a_hbm ? 31 : 10;  // MCDRAM has no CPUs: min distance 31
      } else if (!b_hbm) {
        dist[a][b] = qa == qb ? 10 : 21;
      } else {
        dist[a][b] = qa == qb ? 31 : 41;
      }
    }
  }
  return NodeTopology{"knl-snc4-flat", knl_cores(), std::move(domains), std::move(dist)};
}

NodeTopology build_quadrant_flat() {
  std::vector<MemoryDomain> domains{
      MemoryDomain{0, MemKind::kDdr4, KnlSpec::kDdr4Total, KnlSpec::kDdr4Gbps, TimeNs{130}, 0},
      MemoryDomain{1, MemKind::kMcdram, KnlSpec::kMcdramTotal, KnlSpec::kMcdramGbps, TimeNs{155}, 0},
  };
  std::vector<std::vector<int>> dist{{10, 31}, {31, 31}};
  std::vector<Core> cores;
  cores.reserve(KnlSpec::kCores);
  for (int c = 0; c < KnlSpec::kCores; ++c) {
    cores.push_back(Core{c, 0, KnlSpec::kSmtPerCore});
  }
  return NodeTopology{"knl-quadrant-flat", std::move(cores), std::move(domains), std::move(dist)};
}

}  // namespace

const NodeTopology& knl_snc4_flat() {
  static const NodeTopology topo = build_snc4_flat();
  return topo;
}

const NodeTopology& knl_quadrant_flat() {
  static const NodeTopology topo = build_quadrant_flat();
  return topo;
}

}  // namespace mkos::hw
