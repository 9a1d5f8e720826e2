#pragma once
// A cluster: N identical nodes joined by a network model. This is the
// machine an Experiment boots operating systems onto. It refers to its node
// topology rather than copying it; the KNL presets live for the whole
// process (hw/knl.hpp).

#include "hw/network.hpp"
#include "hw/topology.hpp"

namespace mkos::hw {

class Cluster {
 public:
  Cluster(int node_count, const NodeTopology& node, NetworkModel network);
  /// A temporary topology would dangle.
  Cluster(int node_count, NodeTopology&& node, NetworkModel network) = delete;

  [[nodiscard]] int node_count() const { return node_count_; }
  [[nodiscard]] const NodeTopology& node() const { return *node_; }
  [[nodiscard]] const NetworkModel& network() const { return network_; }

  [[nodiscard]] sim::Bytes total_memory() const;
  [[nodiscard]] int total_cores() const;

 private:
  int node_count_;
  const NodeTopology* node_;
  NetworkModel network_;
};

/// The machine the paper evaluates on: Oakforest-PACS (Fujitsu, 25 PF), KNL
/// SNC-4 flat nodes on 100 Gbit Omni-Path, sized to `node_count` nodes.
[[nodiscard]] Cluster oakforest_pacs(int node_count);

}  // namespace mkos::hw
