#include "runtime/noise_extremes.hpp"

#include <algorithm>
#include <cmath>

#include "sim/contracts.hpp"

namespace mkos::runtime {

namespace {
/// Below this expected per-core event count the per-core stolen sums are
/// nowhere near normal (most cores see zero events), so the Gumbel-located
/// normal maximum would badly underestimate the true max; the exact
/// event-maximum draw is used instead. Now that the maximum of n draws is a
/// single inverse-CDF evaluation, the exact path is O(1) at any event count
/// — the old cap on total events across the job (it priced an O(n) loop) is
/// kept only as a lower bound that preserves its behaviour for small jobs.
constexpr double kSparsePerCore = 1.0;           ///< expected events per core
constexpr double kRareEventThreshold = 2048.0;   ///< expected events across job
}  // namespace

NoiseExtremes::NoiseExtremes(kernel::NoiseModel model) : model_(std::move(model)) {
  const auto& comps = model_.components();
  for (std::size_t ci = 0; ci < comps.size(); ++ci) {
    // The Gumbel path prices the per-core sum from m2_ns2. An uncapped
    // Pareto with alpha <= 2 has no finite variance, and m2_ns2 is then only
    // a proxy (the draw capped at 100x its scale): such a source needs a cap.
    const auto& c = comps[ci];
    MKOS_EXPECTS(!(c.dist == kernel::NoiseComponent::Dist::kPareto && c.pareto_alpha <= 2.0 &&
                   c.cap.ns() == 0));
    rate_mean_sum_ += c.rate_hz * model_.moments()[ci].m1_ns;
  }
}

double NoiseExtremes::mean_fraction() const { return rate_mean_sum_ * 1e-9; }

double NoiseExtremes::total_rate_hz() const {
  double r = 0.0;
  for (const auto& c : model_.components()) r += c.rate_hz;
  return r;
}

double NoiseExtremes::mean_duration_s() const {
  const double r = total_rate_hz();
  if (r <= 0.0) return 0.0;
  return rate_mean_sum_ / r * 1e-9;
}

sim::TimeNs NoiseExtremes::max_cap() const {
  sim::TimeNs cap{0};
  for (const auto& c : model_.components()) {
    if (c.cap.ns() == 0) return sim::TimeNs{0};
    cap = std::max(cap, c.cap);
  }
  return cap;
}

NoiseWindow NoiseExtremes::sample(sim::TimeNs span, std::uint64_t cores,
                                  sim::Rng& rng,
                                  kernel::SampleCounters* counters) const {
  MKOS_EXPECTS(span >= sim::TimeNs{0});
  MKOS_EXPECTS(cores >= 1);
  if (span.ns() == 0) return {};

  const double span_s = span.sec();
  const auto& comps = model_.components();
  const double mean_total = rate_mean_sum_ * span_s;

  double max_total = 0.0;
  for (std::size_t ci = 0; ci < comps.size(); ++ci) {
    const auto& c = comps[ci];
    const auto& m = model_.moments()[ci];
    const double lambda_core = c.rate_hz * span_s;       // events per core
    const double lambda_total = lambda_core * static_cast<double>(cores);
    const double comp_mean = lambda_core * m.m1_ns;

    double comp_max;
    if (lambda_core <= kSparsePerCore || lambda_total <= kRareEventThreshold) {
      // Sparse: almost every core sees 0 or 1 events, so the maximum over
      // cores is the maximum over the events themselves. Count the events
      // that actually happen across the job, then draw their maximum
      // directly (inverse CDF at U^(1/n)).
      const std::uint64_t n = rng.poisson(lambda_total);
      if (n == 0) {
        comp_max = 0.0;
      } else {
        comp_max = kernel::sample_component_max_ns(c, n, rng);
        if (counters != nullptr) ++counters->analytic_maxima;
      }
    } else {
      // Frequent: per-core sum ~ Normal(mu, sigma^2); Gumbel-located max.
      const double mu = comp_mean;
      const double var = lambda_core * m.m2_ns2;
      const double sigma = std::sqrt(std::max(var, 0.0));
      const double ln_c = std::log(static_cast<double>(cores));
      const double a = std::sqrt(2.0 * ln_c);
      double u = rng.next_double();
      if (u <= 0.0) u = 0x1.0p-53;
      if (u >= 1.0) u = 1.0 - 0x1.0p-53;
      const double gumbel = -std::log(-std::log(u));
      comp_max = mu + sigma * (a + (gumbel - (std::log(ln_c) + std::log(12.566370614)) / 2.0 / a));
      comp_max = std::max(comp_max, mu);
      if (counters != nullptr) ++counters->gumbel_draws;
    }
    // Combining components: the slowest core for one component very likely
    // carries only the mean of the others.
    max_total = std::max(max_total, comp_max + (mean_total - comp_mean));
  }
  max_total = std::max(max_total, mean_total);

  return NoiseWindow{sim::from_double_ns(mean_total), sim::from_double_ns(max_total)};
}

}  // namespace mkos::runtime
