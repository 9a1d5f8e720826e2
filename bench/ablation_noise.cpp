// Ablation D5 (DESIGN.md): noise isolation — where does the collective
// collapse threshold sit as a function of the noise tail, and how much of
// the LWK advantage is jitter vs memory management?

#include <cstdio>

#include "core/experiment.hpp"
#include "core/obs_glue.hpp"
#include "runtime/noise_extremes.hpp"
#include "sim/format.hpp"

namespace {

using namespace mkos;

// Iteration time of a MiniFE-shaped loop under an arbitrary noise model.
double loop_time_us(const kernel::NoiseModel& noise, int nodes) {
  const runtime::NoiseExtremes ex{noise};
  sim::Rng rng{99};
  const sim::TimeNs window = sim::microseconds(200);
  const auto cores = static_cast<std::uint64_t>(nodes) * 64;
  sim::TimeNs total{0};
  constexpr int kIters = 50;
  for (int i = 0; i < kIters; ++i) {
    const auto w = ex.sample(window, cores, rng);
    total += window + w.max;
  }
  return total.us() / kIters;
}

}  // namespace

int main() {
  sim::print_banner("Ablation — noise tails vs collective collapse (D5)",
                    "DESIGN.md Section 6; the Fig. 5b mechanism swept");

  obs::RunLedger ledger =
      core::bench_ledger("ablation_noise", "DESIGN.md Section 6 (D5)", 61);

  // Sweep the heavy-tail rate: where does a 200 us window double?
  sim::Table t{{"tail rate (1/s/core)", "64 nodes us", "512 nodes us", "2048 nodes us"}};
  for (double rate : {0.0, 0.005, 0.02, 0.05, 0.15}) {
    kernel::NoiseModel m = kernel::noise_lwk();
    if (rate > 0) {
      m.add(kernel::NoiseComponent{"tail", rate, sim::milliseconds(1.1),
                                   kernel::NoiseComponent::Dist::kPareto, 1.35,
                                   sim::milliseconds(24)});
    }
    const double us64 = loop_time_us(m, 64);
    const double us512 = loop_time_us(m, 512);
    const double us2048 = loop_time_us(m, 2048);
    t.add_row({sim::fmt(rate, 3), sim::fmt(us64, 1), sim::fmt(us512, 1),
               sim::fmt(us2048, 1)});
    const std::string key = "window_us.rate_" + sim::fmt(rate, 3);
    ledger.set_gauge(key + ".n64", us64);
    ledger.set_gauge(key + ".n512", us512);
    ledger.set_gauge(key + ".n2048", us2048);
  }
  std::printf("%s\n", t.to_string().c_str());

  // Cross-check with the full pipeline: MiniFE on Linux with nohz_full off
  // (noisier) vs on, vs LWK.
  auto app = workloads::make_minife();
  core::SystemConfig noisy = core::SystemConfig::linux_default();
  noisy.linux_nohz_full = false;
  const core::RunStats lwk_rs =
      core::run_app(*app, core::SystemConfig::mckernel(), 256, 3, 61);
  const core::RunStats lin_rs =
      core::run_app(*app, core::SystemConfig::linux_default(), 256, 3, 61);
  const core::RunStats bad_rs = core::run_app(*app, noisy, 256, 3, 61);
  core::record_run_stats(ledger, "minife.mckernel.n256", lwk_rs);
  core::record_run_stats(ledger, "minife.linux_nohz.n256", lin_rs);
  core::record_run_stats(ledger, "minife.linux_untuned.n256", bad_rs);
  const double lwk = lwk_rs.median();
  const double lin = lin_rs.median();
  const double bad = bad_rs.median();
  sim::Table t2{{"MiniFE @256 nodes", "Mflops", "vs McKernel"}};
  t2.add_row({"McKernel", sim::fmt_sci(lwk), "100.0%"});
  t2.add_row({"Linux nohz_full", sim::fmt_sci(lin), sim::fmt_pct(lin / lwk)});
  t2.add_row({"Linux untuned", sim::fmt_sci(bad), sim::fmt_pct(bad / lwk)});
  std::printf("%s\n", t2.to_string().c_str());

  core::emit(ledger);
  return 0;
}
