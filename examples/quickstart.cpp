// Quickstart: boot the three OS deployments on a 16-node KNL cluster, run
// the MiniFE proxy on each, and compare figures of merit.
//
//   $ ./examples/quickstart
//
// This is the smallest end-to-end use of the public API:
//   SystemConfig -> run_app() -> RunStats.

#include <cstdio>

#include "core/experiment.hpp"
#include "sim/format.hpp"

int main() {
  using namespace mkos;

  sim::print_banner("mkos quickstart — MiniFE on 16 KNL nodes",
                    "multi-kernel OS simulation framework");

  auto app = workloads::make_minife();
  constexpr int kNodes = 16;
  constexpr int kReps = 5;

  sim::Table table{{"OS", "median " + std::string(app->metric()), "min", "max"}};
  double linux_median = 0.0;

  for (const auto os :
       {kernel::OsKind::kLinux, kernel::OsKind::kMcKernel, kernel::OsKind::kMos}) {
    const core::SystemConfig config = core::SystemConfig::for_os(os);
    const core::RunStats stats = core::run_app(*app, config, kNodes, kReps, /*seed=*/1);
    if (os == kernel::OsKind::kLinux) linux_median = stats.median();
    table.add_row({config.label(), sim::fmt_sci(stats.median()),
                   sim::fmt_sci(stats.min()), sim::fmt_sci(stats.max())});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Relative view, the way the paper reports it.
  for (const auto os : {kernel::OsKind::kMcKernel, kernel::OsKind::kMos}) {
    const core::RunStats stats =
        core::run_app(*app, core::SystemConfig::for_os(os), kNodes, kReps, 1);
    std::printf("%-9s vs Linux: %s\n", std::string(kernel::to_string(os)).c_str(),
                sim::fmt_pct(stats.median() / linux_median).c_str());
  }
  return 0;
}
