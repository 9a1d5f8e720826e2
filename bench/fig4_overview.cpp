// Figure 4: "Comparing mOS and McKernel against the Linux baseline".
//
// Relative median performance of the two LWKs vs Linux for the seven Fig. 4
// applications over 1..2048 nodes (5 runs each, median), plus the paper's
// headline aggregation: "a median performance improvement of 9% with some
// applications as high as 280%".
//
// Runs on the parallel campaign engine: the cell grid fans out across a
// sim::WorkStealingPool and the Linux baseline cells — requested by both the
// McKernel and the mOS comparison — are simulated once and served from the
// cell cache afterwards. A 1-thread cold-cache reference run measures the
// serial wall clock; results are bit-identical by construction (positional
// seeds), and the full run ledger lands in BENCH_fig4_overview.json —
// identical modulo the host block for any MKOS_THREADS value.
//
//   MKOS_FIG4_MAX_NODES / MKOS_FIG4_REPS env vars shrink the sweep for
//   quick runs; defaults reproduce the full figure. MKOS_THREADS sets the
//   pool size (default: hardware concurrency). MKOS_FIG4_SKIP_SERIAL=1
//   skips the serial reference timing. MKOS_CELL_STORE=<dir> attaches the
//   persistent cell store: finished cells land on disk and later runs load
//   them instead of resimulating (campaign.store.* counters in the ledger).
//   MKOS_FIG4_RESUME=1 skips cells the store already holds (a "what
//   remains" pass); MKOS_SHARD=<i>/<n> runs one keyspace slice of the grid
//   (DESIGN.md §16) — both produce partial, store-filling runs whose merge
//   is a plain unsharded rerun over the warm store.

#include <chrono>
#include <cstdio>
#include <map>
#include <set>

#include "core/campaign.hpp"
#include "core/obs_glue.hpp"
#include "sim/env.hpp"
#include "sim/format.hpp"
#include "sim/work_stealing_pool.hpp"

namespace {

using namespace mkos;
using core::SystemConfig;

struct SweepOpts {
  int max_nodes = 2048;
  int reps = 5;
  bool resume = false;          ///< MKOS_FIG4_RESUME: skip already-stored cells
  core::ShardSpec shard;        ///< MKOS_SHARD keyspace slice
  [[nodiscard]] bool partial() const { return resume || shard.sharded(); }
};

core::CampaignSpec fig4_spec(const SweepOpts& opts) {
  core::CampaignSpec spec;
  spec.apps = workloads::fig4_app_names();
  spec.reps = opts.reps;
  spec.seed = 42;
  spec.max_nodes = opts.max_nodes;
  spec.resume = opts.resume;
  spec.shard = opts.shard;
  return spec;
}

/// The two campaign phases share every Linux cell: phase two's baseline is
/// pure cache hits.
std::vector<core::CellResult> run_cells(core::Campaign& campaign,
                                        const SweepOpts& opts) {
  core::CampaignSpec spec = fig4_spec(opts);
  spec.configs = {SystemConfig::linux_default(), SystemConfig::mckernel()};
  auto cells = campaign.run(spec);
  spec.configs = {SystemConfig::linux_default(), SystemConfig::mos()};
  auto mos_cells = campaign.run(spec);
  cells.insert(cells.end(), mos_cells.begin(), mos_cells.end());
  return cells;
}

/// Reassemble per-(app, config) scaling curves from the flat cell list.
std::map<std::string, std::map<std::string, std::vector<core::ScalingPoint>>> curves_of(
    const std::vector<core::CellResult>& cells) {
  std::map<std::string, std::map<std::string, std::vector<core::ScalingPoint>>> curves;
  for (const core::CellResult& cell : cells) {
    if (cell.skipped) continue;  // sharded/resumed runs: no statistics
    auto& curve = curves[cell.app][cell.config_label];
    const core::ScalingPoint point{cell.nodes, cell.stats.median(), cell.stats.min(),
                                   cell.stats.max()};
    // The Linux baseline appears in both phases; keep one point per node.
    bool seen = false;
    for (const auto& p : curve) seen = seen || p.nodes == point.nodes;
    if (!seen) curve.push_back(point);
  }
  return curves;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  // mkos-lint: allow(wall-clock) — host-side telemetry only: times the sweep
  // itself for the speedup report; never feeds a simulated result.
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main() {
  SweepOpts opts;
  opts.max_nodes = sim::env_int("MKOS_FIG4_MAX_NODES", 2048, 1, 1 << 20);
  opts.reps = sim::env_int("MKOS_FIG4_REPS", 5, 1, 1000);
  // Sharded / resumed sweeps exist to fill the cell store, not to render the
  // figure: foreign or already-stored cells come back skipped with empty
  // statistics, so the tables, headline, and serial reference are suppressed
  // and the ledger carries only the cells this process actually resolved.
  // The merge pass — an unsharded run over the warm store — produces the
  // full figure and the byte-comparable ledger.
  opts.resume = sim::env_int("MKOS_FIG4_RESUME", 0, 0, 1) == 1;
  opts.shard = core::ShardSpec::from_env();
  const int max_nodes = opts.max_nodes;
  const int reps = opts.reps;
  const int threads = sim::default_threads();

  sim::print_banner("Fig. 4 — relative median performance vs Linux, 1..2048 nodes",
                    "IPDPS'18 10.1109/IPDPS.2018.00022, Figure 4");

  sim::WorkStealingPool pool(threads);
  const auto store = core::CellStore::from_env();
  core::CellCache cache(store.get());
  core::Campaign campaign(pool, cache);
  // mkos-lint: allow(wall-clock) — host telemetry: parallel sweep wall time.
  const auto t0 = std::chrono::steady_clock::now();
  const auto cells = run_cells(campaign, opts);
  const double parallel_s = seconds_since(t0);

  const auto curves = curves_of(cells);
  std::vector<std::vector<core::RelativePoint>> all_rel;
  core::Headline h;
  if (opts.partial()) {
    std::printf("partial sweep (%s%s): figure rendering deferred to the merge pass\n\n",
                opts.shard.sharded() ? "sharded" : "",
                opts.resume ? (opts.shard.sharded() ? ", resume" : "resume") : "");
  } else {
    for (const std::string& app : workloads::fig4_app_names()) {
      const auto found = curves.find(app);
      if (found == curves.end()) continue;  // every node count above the cap
      const auto& by_config = found->second;
      const auto mck_rel =
          core::relative_to(by_config.at("McKernel"), by_config.at("Linux"));
      const auto mos_rel = core::relative_to(by_config.at("mOS"), by_config.at("Linux"));

      sim::Table table{{app + " nodes", "McKernel/Linux", "mOS/Linux"}};
      for (std::size_t i = 0; i < mck_rel.size(); ++i) {
        table.add_row({std::to_string(mck_rel[i].nodes), sim::fmt(mck_rel[i].ratio, 3),
                       sim::fmt(mos_rel[i].ratio, 3)});
      }
      std::printf("%s\n", table.to_string().c_str());
      all_rel.push_back(mck_rel);
      all_rel.push_back(mos_rel);
    }

    h = core::headline(all_rel);
    std::printf("HEADLINE  median LWK/Linux ratio: %s   best: %s\n",
                sim::fmt_pct(h.median_ratio).c_str(),
                sim::fmt_pct(h.best_ratio).c_str());
    std::printf("          paper: median +9%% (109%%), best ~280%% gain aside from the\n"
                "          MiniFE outliers (6.47x / 7.01x at 1,024 nodes)\n\n");
  }

  const core::CampaignTelemetry& t = campaign.telemetry();
  std::printf("%s\n", core::describe(t, threads).c_str());

  // Serial reference: same grid, one thread, cold cache — deliberately
  // store-less even when MKOS_CELL_STORE is set, so the timing measures
  // actual simulation, not disk loads. Bit-identical results (positional
  // seeds), so only the wall clock differs.
  double serial_s = 0.0;
  if (!opts.partial() && sim::env_int("MKOS_FIG4_SKIP_SERIAL", 0, 0, 1) == 0) {
    sim::WorkStealingPool serial_pool(1);
    core::CellCache serial_cache;
    core::Campaign serial_campaign(serial_pool, serial_cache);
    // mkos-lint: allow(wall-clock) — host telemetry: serial reference timing.
    const auto s0 = std::chrono::steady_clock::now();
    (void)run_cells(serial_campaign, opts);
    serial_s = seconds_since(s0);
    std::printf("serial reference (1 thread, cold cache): %.3f s   speedup: %.2fx\n",
                serial_s, parallel_s > 0.0 ? serial_s / parallel_s : 0.0);
  }

  obs::RunLedger ledger = core::bench_ledger(
      "fig4_overview", "IPDPS'18 10.1109/IPDPS.2018.00022, Figure 4", 42);
  ledger.set_meta("reps", std::to_string(reps));
  ledger.set_meta("max_nodes", std::to_string(max_nodes));
  core::record_config(ledger, SystemConfig::linux_default());
  core::record_config(ledger, SystemConfig::mckernel());
  core::record_config(ledger, SystemConfig::mos());
  // Cells come back in deterministic grid order; merging their per-rep
  // ledgers in that order keeps the document thread-count independent.
  // Dedupe by series name (not by from_cache: with a warm disk store every
  // cell is a cache hit) — the Linux baseline appears in both phases and
  // must merge exactly once.
  std::set<std::string> recorded;
  for (const core::CellResult& cell : cells) {
    if (cell.skipped) continue;  // sharded/resumed runs: no statistics
    const std::string series =
        cell.app + "." + cell.config_label + ".n" + std::to_string(cell.nodes);
    if (!recorded.insert(series).second) continue;  // phase-2 baseline dups
    core::record_run_stats(ledger, series, cell.stats);
  }
  if (!opts.partial()) {
    ledger.set_gauge("headline.median_ratio", h.median_ratio);
    ledger.set_gauge("headline.best_ratio", h.best_ratio);
  }
  core::record_campaign(ledger, t, threads, store.get());
  ledger.set_host("wall_s_serial", sim::json_number(serial_s));
  ledger.set_host("speedup", sim::json_number(serial_s > 0.0 && parallel_s > 0.0
                                                   ? serial_s / parallel_s
                                                   : 0.0));
  core::emit(ledger);
  return 0;
}
