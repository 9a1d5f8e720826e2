#include "hw/topology.hpp"

#include <algorithm>

namespace mkos::hw {

NodeTopology::NodeTopology(std::string name, std::vector<Core> cores,
                           std::vector<MemoryDomain> domains,
                           std::vector<std::vector<int>> distances)
    : name_(std::move(name)),
      cores_(std::move(cores)),
      domains_(std::move(domains)),
      distances_(std::move(distances)) {
  MKOS_EXPECTS(!cores_.empty());
  MKOS_EXPECTS(!domains_.empty());
  MKOS_EXPECTS(domains_.size() <= static_cast<std::size_t>(kMaxDomains));
  MKOS_EXPECTS(distances_.size() == domains_.size());
  for (const auto& row : distances_) MKOS_EXPECTS(row.size() == domains_.size());
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    MKOS_EXPECTS(domains_[i].id == static_cast<DomainId>(i));
  }
  int max_q = 0;
  for (const auto& c : cores_) max_q = std::max(max_q, c.quadrant);
  for (const auto& d : domains_) max_q = std::max(max_q, d.quadrant);
  quadrants_ = max_q + 1;

  for (const MemKind kind : {MemKind::kMcdram, MemKind::kDdr4}) {
    const std::size_t k = kind_index(kind);
    for (const auto& d : domains_) {
      if (d.kind != kind) continue;
      kind_domains_[k].push_back(d.id);
      capacity_by_kind_[k] += d.capacity;
      bandwidth_by_kind_[k] += d.stream_gbps;
    }
  }
  in_quadrant_.assign(static_cast<std::size_t>(quadrants_), {-1, -1});
  for (const auto& d : domains_) {
    auto& slots = in_quadrant_[static_cast<std::size_t>(d.quadrant)];
    if (slots[kind_index(d.kind)] < 0) slots[kind_index(d.kind)] = d.id;
  }
  fallback_.reserve(static_cast<std::size_t>(quadrants_));
  for (int q = 0; q < quadrants_; ++q) {
    DomainId home = domain_in_quadrant(q, MemKind::kDdr4);
    if (home < 0) home = 0;
    std::vector<DomainId> order;
    order.reserve(domains_.size());
    for (const auto& d : domains_) order.push_back(d.id);
    std::sort(order.begin(), order.end(), [&](DomainId a, DomainId b) {
      const int da = distance(home, a);
      const int db = distance(home, b);
      if (da != db) return da < db;
      return a < b;
    });
    fallback_.push_back(std::move(order));
  }
  kind_major_.resize(static_cast<std::size_t>(quadrants_));
  fallback_from_.resize(static_cast<std::size_t>(quadrants_));
  for (int q = 0; q < quadrants_; ++q) {
    const auto qi = static_cast<std::size_t>(q);
    for (const MemKind first : {MemKind::kMcdram, MemKind::kDdr4}) {
      const MemKind second = first == MemKind::kMcdram ? MemKind::kDdr4 : MemKind::kMcdram;
      std::vector<DomainId>& order = kind_major_[qi][kind_index(first)];
      for (const MemKind kind : {first, second}) {
        const DomainId local = domain_in_quadrant(q, kind);
        if (local >= 0) order.push_back(local);
        for (const DomainId d : kind_domains_[kind_index(kind)]) {
          if (d != local) order.push_back(d);
        }
      }
    }
    fallback_from_[qi].resize(domains_.size());
    for (std::size_t h = 0; h < domains_.size(); ++h) {
      std::vector<DomainId>& order = fallback_from_[qi][h];
      order.push_back(static_cast<DomainId>(h));
      for (const DomainId d : fallback_[qi]) {
        if (d != static_cast<DomainId>(h)) order.push_back(d);
      }
    }
  }
}

int NodeTopology::distance(DomainId a, DomainId b) const {
  MKOS_EXPECTS(a >= 0 && a < static_cast<DomainId>(domains_.size()));
  MKOS_EXPECTS(b >= 0 && b < static_cast<DomainId>(domains_.size()));
  return distances_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
}

}  // namespace mkos::hw
