// Section III-A core-count observation: "Additional experiments have shown
// that mOS using 64 or 66 cores beats Linux on 68 cores. This is often due
// to CPU 0 running services and introducing noise."

#include <cstdio>

#include "core/experiment.hpp"
#include "core/obs_glue.hpp"
#include "sim/format.hpp"

namespace {

using mkos::core::SystemConfig;

double hpcg_median(const SystemConfig& config, mkos::obs::RunLedger& ledger,
                   const std::string& series) {
  auto app = mkos::workloads::make_hpcg();
  const mkos::core::RunStats rs =
      mkos::core::run_app(*app, config, /*nodes=*/32, /*reps=*/5, /*seed=*/41);
  mkos::core::record_config(ledger, config, series);
  mkos::core::record_run_stats(ledger, series, rs);
  return rs.median();
}

}  // namespace

int main() {
  using namespace mkos;

  sim::print_banner("Section III-A — application cores vs service cores (HPCG, 32 nodes)",
                    "IPDPS'18; 'mOS using 64 or 66 cores beats Linux on 68 cores'");

  sim::Table table{{"configuration", "app cores", "GFLOP/s", "vs Linux 68c"}};

  obs::RunLedger ledger =
      core::bench_ledger("core_partitioning", "IPDPS'18 Section III-A", 41);

  // Linux using all 68 cores: more compute, but application ranks share the
  // cores running system services.
  SystemConfig linux68 = SystemConfig::linux_default();
  linux68.app_cores = 68;
  linux68.service_cores = 0;
  const double base = hpcg_median(linux68, ledger, "hpcg.linux_68c");
  table.add_row({"Linux, all cores", "68", sim::fmt(base, 1), "100.0%"});

  SystemConfig linux64 = SystemConfig::linux_default();
  const double l64 = hpcg_median(linux64, ledger, "hpcg.linux_64c");
  table.add_row({"Linux, 4 reserved", "64", sim::fmt(l64, 1), sim::fmt_pct(l64 / base)});

  for (int cores : {64, 66}) {
    SystemConfig mos = SystemConfig::mos();
    mos.app_cores = cores;
    mos.service_cores = 68 - cores;
    const double v =
        hpcg_median(mos, ledger, "hpcg.mos_" + std::to_string(cores) + "c");
    table.add_row({"mOS", std::to_string(cores), sim::fmt(v, 1),
                   sim::fmt_pct(v / base)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("expected ordering: mOS 64c and 66c above Linux 68c — reserving cores\n"
              "for the OS buys back more than the lost compute at scale.\n");

  core::emit(ledger);
  return 0;
}
