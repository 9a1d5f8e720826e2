#include "hw/cluster.hpp"

#include "hw/knl.hpp"
#include "sim/contracts.hpp"

namespace mkos::hw {

Cluster::Cluster(int node_count, const NodeTopology& node, NetworkModel network)
    : node_count_(node_count), node_(&node), network_(std::move(network)) {
  MKOS_EXPECTS(node_count >= 1);
}

sim::Bytes Cluster::total_memory() const {
  sim::Bytes per_node = 0;
  for (const auto& d : node_->domains()) per_node += d.capacity;
  return per_node * static_cast<sim::Bytes>(node_count_);
}

int Cluster::total_cores() const { return node_count_ * node_->core_count(); }

Cluster oakforest_pacs(int node_count) {
  return Cluster{node_count, knl_snc4_flat(), omni_path_100()};
}

}  // namespace mkos::hw
