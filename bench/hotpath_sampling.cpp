// Hot-path sampling microbenchmark: naive per-event noise draws vs the
// analytic engine (Gamma-batched sums, moment-matched normals, inverse-CDF
// maxima). The acceptance bar for the sampling rewrite started at a >= 5x
// samples/sec advantage for NoiseModel::sample over the per-event loop it
// replaced and was ratcheted to >= 8x once the arena/SoA rewrite left that
// much headroom; this binary measures exactly that, plus the equivalent ratio
// for maximum-of-n draws, and cross-checks that both samplers agree on the
// mean stolen fraction (they are distribution-equivalent, not bit-equal).
// Each side times 20,000 sum draws and 1,250 maximum draws.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "core/obs_glue.hpp"
#include "kernel/noise.hpp"
#include "sim/format.hpp"

namespace {

using namespace mkos;
using kernel::NoiseComponent;

/// The per-event reference sampler: the exact loop NoiseModel::sample ran
/// before the analytic engine — one Poisson count per component, then one
/// full distribution draw (plus cap clamp) per event.
double naive_sample_ns(const kernel::NoiseModel& model, sim::TimeNs span, sim::Rng& rng,
                       std::uint64_t* events) {
  const double span_s = static_cast<double>(span.ns()) * 1e-9;
  double total_ns = 0.0;
  for (const NoiseComponent& c : model.components()) {
    const std::uint64_t n = rng.poisson(c.rate_hz * span_s);
    *events += n;
    for (std::uint64_t i = 0; i < n; ++i) {
      double d = 0.0;
      switch (c.dist) {
        case NoiseComponent::Dist::kFixed:
          d = static_cast<double>(c.duration.ns());
          break;
        case NoiseComponent::Dist::kExponential:
          d = rng.exponential(static_cast<double>(c.duration.ns()));
          break;
        case NoiseComponent::Dist::kPareto:
          d = rng.pareto(static_cast<double>(c.duration.ns()), c.pareto_alpha);
          break;
      }
      if (c.cap.ns() > 0) d = std::min(d, static_cast<double>(c.cap.ns()));
      total_ns += d;
    }
  }
  return total_ns;
}

/// Maximum-of-n reference: draw all n events and keep the largest.
double naive_max_ns(const NoiseComponent& c, std::uint64_t n, sim::Rng& rng) {
  double best = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    double d = c.dist == NoiseComponent::Dist::kExponential
                   ? rng.exponential(static_cast<double>(c.duration.ns()))
                   : rng.pareto(static_cast<double>(c.duration.ns()), c.pareto_alpha);
    if (c.cap.ns() > 0) d = std::min(d, static_cast<double>(c.cap.ns()));
    best = std::max(best, d);
  }
  return best;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  // mkos-lint: allow(wall-clock) — host-side telemetry: this binary exists
  // to time the two samplers; the measurements land in the host block only.
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct SideResult {
  double wall_s = 0.0;
  double mean_fraction = 0.0;  ///< deterministic per seed
  std::uint64_t events = 0;
};

}  // namespace

int main() {
  constexpr int kSamples = 20000;
  const sim::TimeNs span = sim::seconds(10.0);
  const kernel::NoiseModel model = kernel::noise_linux_co_tenant();

  sim::print_banner("hotpath_sampling — naive per-event vs analytic noise draws",
                    "sampling-engine acceptance microbenchmark");

  // ------------------------------------------------------------------- sums
  // Same workload both sides: `samples` windows of 10 s of co-tenant Linux
  // noise (~390 events/window naive). Forked child streams keep the two
  // measurements independent of each other and of iteration order. Each side
  // is timed kReps times with a fresh identically-seeded stream (so every rep
  // draws the same variates and the deterministic ledger block stays
  // byte-stable), interleaved so host drift hits both alike; the best wall
  // time per side feeds the CI speedup bar.
  constexpr int kReps = 3;
  SideResult naive;
  kernel::SampleCounters counters;
  SideResult analytic;
  for (int rep = 0; rep < kReps; ++rep) {
    {
      sim::Rng rng = sim::Rng(42).fork(1);
      std::uint64_t events = 0;
      double stolen_ns = 0.0;
      // mkos-lint: allow(wall-clock) — host telemetry: sampler throughput.
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kSamples; ++i) {
        stolen_ns += naive_sample_ns(model, span, rng, &events);
      }
      const double wall = seconds_since(t0);
      naive.wall_s = rep == 0 ? wall : std::min(naive.wall_s, wall);
      if (rep == 0) {
        naive.events = events;
        naive.mean_fraction =
            stolen_ns / (static_cast<double>(kSamples) * static_cast<double>(span.ns()));
      }
    }
    {
      sim::Rng rng = sim::Rng(42).fork(2);
      kernel::SampleCounters rep_counters;
      double stolen_ns = 0.0;
      // mkos-lint: allow(wall-clock) — host telemetry: sampler throughput.
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kSamples; ++i) {
        stolen_ns += static_cast<double>(model.sample(span, rng, &rep_counters).ns());
      }
      const double wall = seconds_since(t0);
      analytic.wall_s = rep == 0 ? wall : std::min(analytic.wall_s, wall);
      if (rep == 0) {
        counters = rep_counters;
        analytic.mean_fraction =
            stolen_ns / (static_cast<double>(kSamples) * static_cast<double>(span.ns()));
      }
    }
  }

  const double naive_rate = static_cast<double>(kSamples) / naive.wall_s;
  const double analytic_rate = static_cast<double>(kSamples) / analytic.wall_s;
  const double sum_speedup = analytic_rate / naive_rate;

  sim::Table sums{{"sampler", "samples/s", "events drawn", "mean stolen fraction"}};
  sums.add_row({"naive per-event", sim::fmt(naive_rate, 0), std::to_string(naive.events),
                sim::fmt(naive.mean_fraction, 6)});
  sums.add_row({"analytic", sim::fmt(analytic_rate, 0),
                std::to_string(counters.exact_events), sim::fmt(analytic.mean_fraction, 6)});
  std::printf("%s\n", sums.to_string().c_str());
  std::printf("sum speedup: %.1fx   (acceptance bar: >= 8x, ratcheted from 5x)\n",
              sum_speedup);
  std::printf("expected fraction (closed form): %s\n\n",
              sim::fmt(model.expected_fraction(), 6).c_str());

  // ------------------------------------------------------------------ maxima
  // Max of n=4096 exponential housekeeping draws — the shape NoiseExtremes
  // needs for its sparse regime. Inverse CDF at U^(1/n) is O(1) in n, the
  // reference is O(n); an uncapped shape keeps the comparison informative
  // (a capped heavy tail maxes out at the cap almost surely at this n).
  const NoiseComponent burst{"housekeeping", 25.0, sim::microseconds(4),
                             NoiseComponent::Dist::kExponential, 1.5, sim::TimeNs{0}};
  const std::uint64_t max_n = 4096;
  constexpr int kMaxIters = kSamples / 16;

  double naive_max_mean = 0.0;
  double naive_max_wall = 0.0;
  {
    sim::Rng rng = sim::Rng(42).fork(3);
    // mkos-lint: allow(wall-clock) — host telemetry: sampler throughput.
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kMaxIters; ++i) naive_max_mean += naive_max_ns(burst, max_n, rng);
    naive_max_wall = seconds_since(t0);
    naive_max_mean /= static_cast<double>(kMaxIters);
  }
  double analytic_max_mean = 0.0;
  double analytic_max_wall = 0.0;
  {
    sim::Rng rng = sim::Rng(42).fork(4);
    // mkos-lint: allow(wall-clock) — host telemetry: sampler throughput.
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kMaxIters; ++i) {
      analytic_max_mean += kernel::sample_component_max_ns(burst, max_n, rng);
    }
    analytic_max_wall = seconds_since(t0);
    analytic_max_mean /= static_cast<double>(kMaxIters);
  }
  const double max_speedup = naive_max_wall / analytic_max_wall;
  std::printf("max-of-%llu draws: naive %.3f ms mean, analytic %.3f ms mean, %.0fx faster\n\n",
              static_cast<unsigned long long>(max_n), naive_max_mean * 1e-6,
              analytic_max_mean * 1e-6, max_speedup);

  obs::RunLedger ledger = core::bench_ledger(
      "hotpath_sampling", "sampling-engine acceptance microbenchmark", 42);
  ledger.set_meta("samples", std::to_string(kSamples));
  ledger.set_meta("span_s", "10");
  ledger.set_meta("model", "noise_linux_co_tenant");
  // Deterministic block: what was drawn and what it averaged to.
  ledger.incr("engine.noise_analytic_sums", counters.analytic_sums);
  ledger.incr("engine.noise_exact_events", counters.exact_events);
  ledger.incr("engine.noise_analytic_maxima", counters.analytic_maxima);
  ledger.incr("engine.noise_gumbel_draws", counters.gumbel_draws);
  ledger.incr("naive.events", naive.events);
  ledger.set_gauge("naive.mean_fraction", naive.mean_fraction);
  ledger.set_gauge("analytic.mean_fraction", analytic.mean_fraction);
  ledger.set_gauge("expected_fraction", model.expected_fraction());
  ledger.set_gauge("max4096.naive_mean_ns", naive_max_mean);
  ledger.set_gauge("max4096.analytic_mean_ns", analytic_max_mean);
  // Host block: the wall-clock measurements themselves.
  ledger.set_host("naive_samples_per_s", sim::json_number(naive_rate));
  ledger.set_host("analytic_samples_per_s", sim::json_number(analytic_rate));
  ledger.set_host("sum_speedup", sim::json_number(sum_speedup));
  ledger.set_host("max_speedup", sim::json_number(max_speedup));
  core::emit(ledger);
  return 0;
}
