// NUMA-lookup placement sweep: XSBench-style cross-section lookups under
// first-touch (DDR4), interleave, and MCDRAM-preferred placement across
// Linux, McKernel, and mOS — the allocator-model companion figure to the
// paper's Section III-C memory-policy story.
//
// Every config runs with the kernel-allocator model enabled
// (AllocSpec::model_allocator), so each ledger carries the full alloc.*
// counter group: Linux pays contended depot/zone locks plus kreclaimd
// reclaim; the LWKs' large-quantum paths stay near-free. Expected result:
// the three placements separate cleanly on the LWKs (DDR4 < interleave <
// MCDRAM) while Linux's MCDRAM-preferred run is capped by the
// one-domain-PREFERRED spill and its allocator contention widens the gap as
// core counts grow.
//
//   The sweep always runs 1..256 nodes x 3 reps. MKOS_THREADS sets the
//   pool size. MKOS_CELL_STORE=<dir> attaches the persistent cell store,
//   so a rerun over a partly filled store simulates only the missing
//   cells; MKOS_SHARD=<i>/<n> runs one keyspace slice (a partial,
//   store-filling run; the merge pass is an unsharded rerun).

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/obs_glue.hpp"
#include "sim/format.hpp"
#include "sim/work_stealing_pool.hpp"

namespace {

using namespace mkos;
using core::SystemConfig;

constexpr int kMaxNodes = 256;
constexpr int kReps = 3;

const std::vector<std::string>& placement_apps() {
  static const std::vector<std::string> apps = {
      "XSBench/first-touch", "XSBench/interleave", "XSBench/mcdram"};
  return apps;
}

SystemConfig with_alloc_model(SystemConfig config) {
  config.alloc.model_allocator = true;
  return config;
}

std::vector<core::CellResult> run_cells(core::Campaign& campaign,
                                        const core::ShardSpec& shard) {
  core::CampaignSpec spec;
  spec.apps = placement_apps();
  spec.configs = {with_alloc_model(SystemConfig::linux_default()),
                  with_alloc_model(SystemConfig::mckernel()),
                  with_alloc_model(SystemConfig::mos())};
  spec.reps = kReps;
  spec.seed = 42;
  spec.max_nodes = kMaxNodes;
  spec.shard = shard;
  return campaign.run(spec);
}

/// curves[config][app] -> scaling points in node order.
std::map<std::string, std::map<std::string, std::vector<core::ScalingPoint>>> curves_of(
    const std::vector<core::CellResult>& cells) {
  std::map<std::string, std::map<std::string, std::vector<core::ScalingPoint>>> curves;
  for (const core::CellResult& cell : cells) {
    if (cell.skipped) continue;  // sharded runs: no statistics
    curves[cell.config_label][cell.app].push_back(core::ScalingPoint{
        cell.nodes, cell.stats.median(), cell.stats.min(), cell.stats.max()});
  }
  return curves;
}

}  // namespace

int main() {
  const core::ShardSpec shard = core::ShardSpec::from_env();
  const int threads = sim::default_threads();

  sim::print_banner(
      "NUMA lookup — XSBench placement policies under the allocator model",
      "IPDPS'18 10.1109/IPDPS.2018.00022, Section III-C extension");

  sim::WorkStealingPool pool(threads);
  const auto store = core::CellStore::from_env();
  core::CellCache cache(store.get());
  core::Campaign campaign(pool, cache);
  const auto cells = run_cells(campaign, shard);

  const auto curves = curves_of(cells);
  // median FOM of (config, app) at the largest node count actually swept.
  std::map<std::string, std::map<std::string, double>> at_max;
  if (shard.sharded()) {
    std::printf("sharded sweep: figure rendering deferred to the merge pass\n\n");
  } else {
    for (const auto& [config, by_app] : curves) {
      sim::Table table{{config + " nodes", "first-touch", "interleave", "mcdram",
                        "mcdram/first-touch"}};
      const auto& ft = by_app.at("XSBench/first-touch");
      const auto& il = by_app.at("XSBench/interleave");
      const auto& mp = by_app.at("XSBench/mcdram");
      for (std::size_t i = 0; i < ft.size(); ++i) {
        table.add_row({std::to_string(ft[i].nodes), sim::fmt(ft[i].median, 0),
                       sim::fmt(il[i].median, 0), sim::fmt(mp[i].median, 0),
                       sim::fmt(mp[i].median / ft[i].median, 3)});
      }
      std::printf("%s\n", table.to_string().c_str());
      at_max[config]["first-touch"] = ft.back().median;
      at_max[config]["interleave"] = il.back().median;
      at_max[config]["mcdram"] = mp.back().median;
    }
    // The headline: how much of the MCDRAM win survives on each kernel, and
    // how far ahead of Linux the LWKs pull once placement + allocator costs
    // both act. (The CI separation gate reads these gauges.)
    for (const auto& [config, medians] : at_max) {
      std::printf("SEPARATION %-9s first-touch %.3g  interleave %.3g  mcdram %.3g"
                  "  (mcdram/first-touch %.2fx)\n",
                  config.c_str(), medians.at("first-touch"),
                  medians.at("interleave"), medians.at("mcdram"),
                  medians.at("mcdram") / medians.at("first-touch"));
    }
    std::printf("\n");
  }

  const core::CampaignTelemetry& t = campaign.telemetry();
  std::printf("%s\n", core::describe(t, threads).c_str());

  obs::RunLedger ledger = core::bench_ledger(
      "fig_numa_lookup",
      "IPDPS'18 10.1109/IPDPS.2018.00022, Section III-C extension", 42);
  ledger.set_meta("reps", std::to_string(kReps));
  ledger.set_meta("max_nodes", std::to_string(kMaxNodes));
  core::record_config(ledger, with_alloc_model(SystemConfig::linux_default()));
  core::record_config(ledger, with_alloc_model(SystemConfig::mckernel()));
  core::record_config(ledger, with_alloc_model(SystemConfig::mos()));
  std::set<std::string> recorded;
  for (const core::CellResult& cell : cells) {
    if (cell.skipped) continue;
    const std::string series =
        cell.app + "." + cell.config_label + ".n" + std::to_string(cell.nodes);
    if (!recorded.insert(series).second) continue;
    core::record_run_stats(ledger, series, cell.stats);
  }
  for (const auto& [config, medians] : at_max) {  // empty on sharded runs
    for (const auto& [placement, median] : medians) {
      ledger.set_gauge("sep." + config + "." + placement, median);
    }
  }
  core::record_campaign(ledger, t, threads, store.get());
  core::emit(ledger);
  return 0;
}
