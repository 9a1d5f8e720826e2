// Unit tests: noise models — presets, distribution components, co-tenancy,
// and the collective-stall source.

#include <gtest/gtest.h>

#include "kernel/noise.hpp"
#include "runtime/noise_extremes.hpp"

namespace {

using namespace mkos;
using namespace mkos::kernel;

// ------------------------------------------------------------------ presets

TEST(NoisePresets, OrderingAcrossDeployments) {
  const double lwk = noise_lwk().expected_fraction();
  const double mos = noise_lwk_mos().expected_fraction();
  const double lin = noise_linux_nohz_full().expected_fraction();
  const double svc = noise_linux_service_core().expected_fraction();
  const double tenant = noise_linux_co_tenant().expected_fraction();
  EXPECT_LT(lwk, mos);     // mOS: rare stray Linux tasks
  EXPECT_LT(mos, lin);     // any Linux beats any LWK for noise
  EXPECT_LT(lin, svc);     // sharing the service core is worse
  EXPECT_LT(lin, tenant);  // a tenant is worse
}

TEST(NoisePresets, CollectiveTailOnlyOnLinux) {
  EXPECT_GT(noise_linux_collective_tail().expected_fraction(), 0.0);
  EXPECT_GT(noise_linux_collective_tail_co_tenant().expected_fraction(),
            noise_linux_collective_tail().expected_fraction());
}

TEST(NoisePresets, ComponentsAreLabelled) {
  const NoiseModel model = noise_linux_nohz_full();
  for (const auto& c : model.components()) {
    EXPECT_FALSE(c.label.empty());
    EXPECT_GT(c.rate_hz, 0.0);
  }
}

// -------------------------------------------------------------------- model

TEST(NoiseModel, ExpectedFractionAdditive) {
  NoiseModel m = noise_lwk();
  const double before = m.expected_fraction();
  m.add(NoiseComponent{"extra", 10.0, sim::microseconds(10),
                       NoiseComponent::Dist::kFixed, 1.5, sim::TimeNs{0}});
  EXPECT_NEAR(m.expected_fraction() - before, 1e-4, 1e-6);
}

// --------------------------------------------------------- extremes wiring

TEST(NoiseExtremesStats, RateAndMeanAggregates) {
  const runtime::NoiseExtremes ex{noise_linux_collective_tail()};
  EXPECT_NEAR(ex.total_rate_hz(), 0.004, 1e-9);
  EXPECT_NEAR(ex.mean_duration_s(), 0.0055, 0.0015);  // exp(5.5ms) capped
  EXPECT_EQ(ex.max_cap().ns(), sim::milliseconds(22).ns());
}

TEST(NoiseExtremesStats, UncappedComponentReportsNoCap) {
  NoiseModel m{{NoiseComponent{"free", 1.0, sim::microseconds(1),
                               NoiseComponent::Dist::kExponential, 1.5, sim::TimeNs{0}}}};
  EXPECT_EQ(runtime::NoiseExtremes{m}.max_cap().ns(), 0);
}

TEST(NoiseExtremesStats, EmptyModelIsSilent) {
  const runtime::NoiseExtremes ex{NoiseModel{}};
  sim::Rng rng{3};
  const auto w = ex.sample(sim::seconds(1.0), 1u << 20, rng);
  EXPECT_EQ(w.max.ns(), 0);
  EXPECT_DOUBLE_EQ(ex.total_rate_hz(), 0.0);
  EXPECT_DOUBLE_EQ(ex.mean_duration_s(), 0.0);
}

// The supercriticality product that drives the Fig. 5b cliff: crosses 1
// between 512 and 1,024 nodes (64 app cores each) for the Linux tail.
TEST(NoiseExtremesStats, StallCouplingThresholdBetween512And1024Nodes) {
  const runtime::NoiseExtremes ex{noise_linux_collective_tail()};
  const double product_per_core = ex.total_rate_hz() * ex.mean_duration_s();
  EXPECT_LT(product_per_core * 512 * 64, 1.0);
  EXPECT_GT(product_per_core * 1024 * 64, 1.0);
}

}  // namespace
