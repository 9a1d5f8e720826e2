// Extension experiment: performance isolation under multi-tenancy.
//
// The paper's related work highlights multi-kernels' "ability of performance
// isolation [31], [32] — an increasingly important aspect of system software
// as we move toward multi-tenant deployments", noting those studies ran at
// small scale. This bench runs the scenario at scale with mkos: a co-located
// tenant (in-situ analytics / monitoring stack) is added to every node. On
// Linux it shares the application cores; on a multi-kernel it is confined to
// the Linux partition, so only the offloaded paths feel it.

#include <cstdio>

#include "core/experiment.hpp"
#include "core/obs_glue.hpp"
#include "sim/format.hpp"

namespace {

using mkos::core::SystemConfig;

double median(mkos::workloads::App& app, SystemConfig config, bool tenant, int nodes,
              mkos::obs::RunLedger& ledger, const std::string& series) {
  config.co_tenant = tenant;
  const mkos::core::RunStats rs =
      mkos::core::run_app(app, config, nodes, /*reps=*/5, /*seed=*/71);
  mkos::core::record_config(ledger, config, series);
  mkos::core::record_run_stats(ledger, series, rs);
  return rs.median();
}

}  // namespace

int main() {
  using namespace mkos;

  sim::print_banner("Extension — performance isolation under co-tenancy",
                    "related work [31],[32] rerun at scale (256 nodes)");

  struct Case {
    const char* name;
    std::unique_ptr<workloads::App> app;
    int nodes;
  };
  Case cases[] = {
      {"HPCG", workloads::make_hpcg(), 256},
      {"MiniFE", workloads::make_minife(), 256},
      {"MILC", workloads::make_milc(), 256},
  };

  obs::RunLedger ledger =
      core::bench_ledger("isolation", "related work [31],[32] at 256 nodes", 71);

  sim::Table table{{"app @256 nodes", "OS", "alone", "with tenant", "retained"}};
  for (auto& c : cases) {
    for (const auto os : {kernel::OsKind::kLinux, kernel::OsKind::kMcKernel}) {
      const SystemConfig config = SystemConfig::for_os(os);
      const std::string base = std::string(c.name) + "." + config.label();
      const double alone = median(*c.app, config, false, c.nodes, ledger, base + ".alone");
      const double shared =
          median(*c.app, config, true, c.nodes, ledger, base + ".tenant");
      ledger.set_gauge("retained." + base, shared / alone);
      table.add_row({c.name, config.label(), sim::fmt_sci(alone), sim::fmt_sci(shared),
                     sim::fmt_pct(shared / alone)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Strong partitioning confines the tenant to the Linux cores: the LWK\n"
      "retains nearly all of its performance while the Linux deployment leaks\n"
      "the interference straight into the application's compute and\n"
      "collective paths.\n");

  core::emit(ledger);
  return 0;
}
