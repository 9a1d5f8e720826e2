// Section IV proxy-process options: "--mpol-shm-premap ... and
// --disable-sched-yield ... with the combination of these two we observed
// 9% and 2% improvements on 16 nodes for AMG 2013 and MiniFE, respectively."

#include <cstdio>

#include "core/campaign.hpp"
#include "core/obs_glue.hpp"
#include "sim/format.hpp"
#include "sim/work_stealing_pool.hpp"

namespace {

using mkos::core::SystemConfig;

}  // namespace

int main() {
  using namespace mkos;

  sim::print_banner(
      "Section IV — McKernel proxy options: --mpol-shm-premap, --disable-sched-yield",
      "IPDPS'18; paper: +9% AMG 2013, +2% MiniFE at 16 nodes (combined)");

  const SystemConfig plain = SystemConfig::mckernel();
  SystemConfig premap = plain;
  premap.mckernel_mpol_shm_premap = true;
  SystemConfig yield = plain;
  yield.mckernel_disable_sched_yield = true;
  SystemConfig both = premap;
  both.mckernel_disable_sched_yield = true;

  // All 8 cells (2 apps x 4 option sets) fan out across the pool at once.
  // MKOS_CELL_STORE=<dir> adds the persistent disk tier.
  sim::WorkStealingPool pool;
  const auto store = core::CellStore::from_env();
  core::CellCache cache(store.get());
  core::Campaign campaign(pool, cache);
  core::CampaignSpec spec;
  spec.apps = {"AMG2013", "MiniFE"};
  spec.configs = {plain, premap, yield, both};
  spec.nodes = {16};
  spec.reps = 5;
  spec.seed = 31;
  const auto cells = campaign.run(spec);

  obs::RunLedger ledger = core::bench_ledger(
      "opt_ablation", "IPDPS'18 Section IV proxy-process options", 31);
  core::record_config(ledger, plain, "plain");
  core::record_config(ledger, premap, "premap");
  core::record_config(ledger, yield, "yield");
  core::record_config(ledger, both, "both");
  const char* variants[] = {"plain", "premap", "yield", "both"};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string series =
        cells[i].app + "." + variants[i % 4];  // cells are app-major, configs in spec order
    core::record_run_stats(ledger, series, cells[i].stats);
  }

  sim::Table table{{"app @16 nodes", "+premap only", "+yield only", "both",
                    "paper (both)"}};
  struct Row {
    const char* label;
    std::size_t first_cell;  // cells are app-major, configs in spec order
    const char* paper;
  };
  const Row rows[] = {{"AMG 2013", 0, "+9%"}, {"MiniFE", 4, "+2%"}};
  for (const Row& row : rows) {
    const double base = cells[row.first_cell].stats.median();
    const double p = cells[row.first_cell + 1].stats.median();
    const double y = cells[row.first_cell + 2].stats.median();
    const double b = cells[row.first_cell + 3].stats.median();
    table.add_row({row.label, sim::fmt_pct(p / base - 1.0), sim::fmt_pct(y / base - 1.0),
                   sim::fmt_pct(b / base - 1.0), row.paper});
    const std::string app = cells[row.first_cell].app;
    ledger.set_gauge("gain." + app + ".premap", p / base - 1.0);
    ledger.set_gauge("gain." + app + ".yield", y / base - 1.0);
    ledger.set_gauge("gain." + app + ".both", b / base - 1.0);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("premap avoids the shared-memory fault storm at MPI_Init;\n"
              "the yield hijack removes user/kernel crossings from OpenMP spin loops.\n");

  core::record_campaign(ledger, campaign.telemetry(), pool.size(), store.get());
  core::emit(ledger);
  return 0;
}
