// Campaign runner: sweep every Fig. 4 application over OS stacks and node
// counts on the parallel campaign engine, emitting machine-readable CSV
// (stdout) for external plotting plus runner telemetry (stderr).
//
//   $ ./examples/campaign > results.csv
//   $ ./examples/campaign 64 3        # cap node count, repetitions
//   $ MKOS_THREADS=8 ./examples/campaign
//
// Results are bit-identical at any thread count: cell seeds derive from
// hash(app, config fingerprint, nodes, rep), not execution order.

#include <cstdio>

#include "core/campaign.hpp"
#include "sim/env.hpp"
#include "sim/format.hpp"
#include "sim/work_stealing_pool.hpp"

namespace {

/// argv[i] as a strict positive integer, or `fallback` when absent.
int arg_int(int argc, char** argv, int index, int fallback) {
  if (argc <= index) return fallback;
  const auto parsed = mkos::sim::parse_int(argv[index]);
  if (!parsed || *parsed < 1 || *parsed > (1 << 20)) {
    std::fprintf(stderr, "campaign: bad argument '%s' (expected integer >= 1)\n",
                 argv[index]);
    std::exit(2);
  }
  return static_cast<int>(*parsed);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mkos;

  const int max_nodes = arg_int(argc, argv, 1, 2048);
  const int reps = arg_int(argc, argv, 2, 5);

  sim::WorkStealingPool pool;
  core::CellCache cache;
  core::Campaign campaign(pool, cache);

  core::CampaignSpec spec;
  spec.apps = workloads::fig4_app_names();
  spec.configs = {core::SystemConfig::linux_default(), core::SystemConfig::mckernel(),
                  core::SystemConfig::mos()};
  spec.reps = reps;
  spec.seed = 2026;
  spec.max_nodes = max_nodes;

  sim::Table table{{"app", "os", "nodes", "metric", "median", "min", "max"}};
  for (const core::CellResult& cell : campaign.run(spec)) {
    const auto app = workloads::make_app(cell.app);
    table.add_row({cell.app, cell.config_label, std::to_string(cell.nodes),
                   std::string(app->metric()), sim::fmt_sci(cell.stats.median(), 6),
                   sim::fmt_sci(cell.stats.min(), 6),
                   sim::fmt_sci(cell.stats.max(), 6)});
  }
  std::fputs(table.to_csv().c_str(), stdout);
  std::fputs(core::describe(campaign.telemetry(), pool.size()).c_str(), stderr);
  return 0;
}
