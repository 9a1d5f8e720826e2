// Table I: "Lulesh performance in DDR4 RAM with and without brk()
// optimizations" (single node, -s 50, 64 ranks x 2 threads).
//
//   paper:  Linux                         8,959 zones/s   100.0%
//           mOS, heap management disabled 9,551 zones/s   106.6%
//           mOS, regular heap management 10,841 zones/s   121.0%

#include <cstdio>

#include "core/experiment.hpp"
#include "core/obs_glue.hpp"
#include "sim/format.hpp"

namespace {

double run_ddr_lulesh(const mkos::core::SystemConfig& config, mkos::obs::RunLedger& ledger,
                      const std::string& series) {
  auto app = mkos::workloads::make_lulesh(50, /*force_ddr=*/true);
  const mkos::core::RunStats rs =
      mkos::core::run_app(*app, config, /*nodes=*/1, /*reps=*/5, /*seed=*/21);
  mkos::core::record_config(ledger, config, series);
  mkos::core::record_run_stats(ledger, series, rs);
  return rs.median();
}

}  // namespace

int main() {
  using namespace mkos;
  using core::SystemConfig;

  sim::print_banner("Table I — Lulesh in DDR4 RAM, with/without brk() optimizations",
                    "IPDPS'18, Table I");

  SystemConfig linux_cfg = SystemConfig::linux_default();
  linux_cfg.lwk_prefer_mcdram = false;

  SystemConfig mos_plain = SystemConfig::mos();
  mos_plain.hpc_brk = false;          // "heap management disabled"
  mos_plain.lwk_prefer_mcdram = false;  // DDR4 only

  SystemConfig mos_regular = SystemConfig::mos();
  mos_regular.lwk_prefer_mcdram = false;

  obs::RunLedger ledger = core::bench_ledger("table1_brk", "IPDPS'18, Table I", 21);
  const double lin = run_ddr_lulesh(linux_cfg, ledger, "lulesh_ddr.linux");
  const double plain = run_ddr_lulesh(mos_plain, ledger, "lulesh_ddr.mos_plain_heap");
  const double regular = run_ddr_lulesh(mos_regular, ledger, "lulesh_ddr.mos_hpc_heap");

  sim::Table table{{"configuration", "zones/s", "vs Linux", "paper"}};
  table.add_row({"Linux", sim::fmt(lin, 0), "100.0%", "8,959 (100.0%)"});
  table.add_row({"mOS, heap management disabled", sim::fmt(plain, 0),
                 sim::fmt_pct(plain / lin), "9,551 (106.6%)"});
  table.add_row({"mOS, regular heap management", sim::fmt(regular, 0),
                 sim::fmt_pct(regular / lin), "10,841 (121.0%)"});
  std::printf("%s\n", table.to_string().c_str());

  std::printf("decomposition: ~%s of the gain is heap management "
              "(paper: 121.0 - 106.6 = 14.4 points)\n",
              sim::fmt_pct(regular / lin - plain / lin, 1).c_str());

  ledger.set_gauge("ratio.mos_plain_vs_linux", plain / lin);
  ledger.set_gauge("ratio.mos_hpc_vs_linux", regular / lin);
  core::emit(ledger);
  return 0;
}
