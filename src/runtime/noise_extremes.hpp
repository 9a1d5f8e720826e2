#pragma once
// Extreme-value statistics of OS noise across a parallel job.
//
// In a bulk-synchronous phase every rank waits for the slowest one, so what
// matters at scale is not the *mean* stolen time but the *maximum* over all
// application cores — this is the noise-amplification mechanism that makes
// Linux collapse under MiniFE at 1,024 nodes while the LWKs do not.
//
// Sampling every core individually would cost O(cores) per phase (131,072
// ranks x thousands of phases). Instead, per noise component:
//   * sparse components (expected events *per core* at most ~1, where most
//     cores see zero events and the max over cores is the max over events):
//     draw the actual number of events N ~ Poisson(total rate), then the
//     maximum of the N durations as a single inverse-CDF draw at U^(1/N) —
//     exact in distribution, one uniform instead of N full draws;
//   * frequent components (events per core well above 1): the per-core
//     stolen sum is approximately normal (CLT over many small detours); the
//     maximum over C cores follows a Gumbel law around
//     mu + sigma * sqrt(2 ln C).
// Component moments are closed-form (kernel::component_moments) — nothing is
// estimated by Monte Carlo.

#include <cstdint>

#include "kernel/noise.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mkos::runtime {

struct NoiseWindow {
  sim::TimeNs mean{0};  ///< expected stolen time per core over the span
  sim::TimeNs max{0};   ///< sampled maximum over all cores
};

class NoiseExtremes {
 public:
  explicit NoiseExtremes(kernel::NoiseModel model);

  /// Stolen-time statistics for one synchronized window of length `span`
  /// across `cores` application cores. `counters`, when non-null, tallies
  /// which sampling paths fired (run-ledger `engine` group).
  [[nodiscard]] NoiseWindow sample(sim::TimeNs span, std::uint64_t cores,
                                   sim::Rng& rng,
                                   kernel::SampleCounters* counters = nullptr) const;

  /// Expected stolen fraction (mirror of NoiseModel::expected_fraction()).
  [[nodiscard]] double mean_fraction() const;

  /// Aggregate event rate across components (per core-second).
  [[nodiscard]] double total_rate_hz() const;
  /// Rate-weighted mean event duration (seconds); 0 for an empty model.
  [[nodiscard]] double mean_duration_s() const;
  /// Largest component cap (ns); 0 when any component is uncapped.
  [[nodiscard]] sim::TimeNs max_cap() const;

 private:
  kernel::NoiseModel model_;  ///< owned copy — callers may pass temporaries
  double rate_mean_sum_ = 0.0;  ///< sum of rate_hz * m1_ns (hoisted)
};

}  // namespace mkos::runtime
