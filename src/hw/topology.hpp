#pragma once
// Node hardware model: cores, hardware threads, and NUMA memory domains.
//
// This is the resource inventory every kernel model partitions and every
// memory policy places pages into. It deliberately carries exactly the
// attributes the paper's mechanisms depend on: domain kind (MCDRAM vs DDR4),
// capacity, stream bandwidth, latency, the NUMA distance matrix Linux uses
// for fallback ordering, and the core <-> quadrant affinity SNC-4 exposes.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/contracts.hpp"
#include "sim/time.hpp"
#include "sim/units.hpp"

namespace mkos::hw {

enum class MemKind : std::uint8_t { kMcdram, kDdr4 };

[[nodiscard]] constexpr const char* to_string(MemKind k) {
  return k == MemKind::kMcdram ? "MCDRAM" : "DDR4";
}

using DomainId = int;
using CoreId = int;

/// Most memory domains a node may have: KNL SNC-4 flat's eight (four DDR4,
/// four MCDRAM). Placement records size their inline storage by it.
inline constexpr int kMaxDomains = 8;

struct MemoryDomain {
  DomainId id = 0;
  MemKind kind = MemKind::kDdr4;
  sim::Bytes capacity = 0;
  double stream_gbps = 0.0;      ///< sustainable bandwidth, GB/s
  sim::TimeNs load_latency{0};   ///< idle load-to-use latency
  int quadrant = 0;              ///< SNC cluster this domain belongs to
};

struct Core {
  CoreId id = 0;
  int quadrant = 0;
  int smt_threads = 4;
};

class NodeTopology {
 public:
  NodeTopology(std::string name, std::vector<Core> cores,
               std::vector<MemoryDomain> domains,
               std::vector<std::vector<int>> distances);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int core_count() const { return static_cast<int>(cores_.size()); }
  [[nodiscard]] int quadrant_count() const { return quadrants_; }
  [[nodiscard]] const std::vector<Core>& cores() const { return cores_; }
  [[nodiscard]] const Core& core(CoreId id) const {
    MKOS_EXPECTS(id >= 0 && id < core_count());
    return cores_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const std::vector<MemoryDomain>& domains() const { return domains_; }
  [[nodiscard]] const MemoryDomain& domain(DomainId id) const {
    MKOS_EXPECTS(id >= 0 && id < static_cast<DomainId>(domains_.size()));
    return domains_[static_cast<std::size_t>(id)];
  }

  /// NUMA distance in Linux's SLIT convention (local == 10).
  [[nodiscard]] int distance(DomainId a, DomainId b) const;

  // The topology is immutable after construction, so every derived lookup
  // below is precomputed once in the constructor and served by reference.
  // Placement and heap code query them per fault / per carve, which made
  // the build-a-vector-per-call versions a top allocation source.

  [[nodiscard]] const std::vector<DomainId>& domains_of_kind(MemKind kind) const {
    return kind_domains_[kind_index(kind)];
  }

  /// The domain of `kind` in the given quadrant, or -1 if none.
  [[nodiscard]] DomainId domain_in_quadrant(int quadrant, MemKind kind) const {
    MKOS_EXPECTS(quadrant >= 0 && quadrant < quadrants_);
    return in_quadrant_[static_cast<std::size_t>(quadrant)][kind_index(kind)];
  }

  /// Domains sorted by distance from the DDR4 domain of `quadrant`
  /// (ties broken by id) — the order Linux's zonelist fallback walks.
  [[nodiscard]] const std::vector<DomainId>& fallback_order(int quadrant) const {
    MKOS_EXPECTS(quadrant >= 0 && quadrant < quadrants_);
    return fallback_[static_cast<std::size_t>(quadrant)];
  }

  /// Domains of `first` kind (home-quadrant domain leading, then the rest of
  /// that kind), followed by the other kind in the same shape — the LWK
  /// MCDRAM-first spill order when `first` is kMcdram.
  [[nodiscard]] const std::vector<DomainId>& kind_major_order(int quadrant, MemKind first) const {
    MKOS_EXPECTS(quadrant >= 0 && quadrant < quadrants_);
    return kind_major_[static_cast<std::size_t>(quadrant)][kind_index(first)];
  }

  /// fallback_order(quadrant) rotated so `head` leads — the zonelist a
  /// Preferred-policy first touch walks.
  [[nodiscard]] const std::vector<DomainId>& fallback_order_from(int quadrant,
                                                                 DomainId head) const {
    MKOS_EXPECTS(quadrant >= 0 && quadrant < quadrants_);
    MKOS_EXPECTS(head >= 0 && head < static_cast<DomainId>(domains_.size()));
    return fallback_from_[static_cast<std::size_t>(quadrant)][static_cast<std::size_t>(head)];
  }

  [[nodiscard]] sim::Bytes total_capacity(MemKind kind) const {
    return capacity_by_kind_[kind_index(kind)];
  }
  [[nodiscard]] double total_bandwidth_gbps(MemKind kind) const {
    return bandwidth_by_kind_[kind_index(kind)];
  }

 private:
  static constexpr std::size_t kind_index(MemKind kind) {
    return kind == MemKind::kMcdram ? 0 : 1;
  }

  std::string name_;
  std::vector<Core> cores_;
  std::vector<MemoryDomain> domains_;
  std::vector<std::vector<int>> distances_;
  int quadrants_ = 1;
  std::array<std::vector<DomainId>, 2> kind_domains_;
  std::vector<std::vector<DomainId>> fallback_;
  std::vector<std::array<std::vector<DomainId>, 2>> kind_major_;
  std::vector<std::vector<std::vector<DomainId>>> fallback_from_;
  std::vector<std::array<DomainId, 2>> in_quadrant_;
  std::array<sim::Bytes, 2> capacity_by_kind_{};
  std::array<double, 2> bandwidth_by_kind_{};
};

}  // namespace mkos::hw
