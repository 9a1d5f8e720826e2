// Release perf smoke: a reduced fig4-style campaign under a wall-clock
// timer. CI runs this on every push to catch sampling-engine or fast-path
// regressions that the unit tests cannot see (they check equivalence, not
// speed): the wall seconds land in the host block, and the deterministic
// block carries the engine counters that prove the fast paths actually
// engaged (heap replays, analytic draws, cost-cache hits). A drop of
// engine.heap_fast_lanes to zero or a wall-time excursion shows up in the
// emitted BENCH_perf_smoke.json without failing the run — the JSON is the
// sensor, the dashboards (or a human diffing two runs) are the alarm.
//
//   MKOS_SMOKE_MAX_NODES / MKOS_SMOKE_REPS shrink or grow the grid
//   (defaults 256 / 3: ~25 s serial on a laptop, a few seconds pooled).

#include <chrono>
#include <cstdio>

#include "core/campaign.hpp"
#include "core/obs_glue.hpp"
#include "sim/env.hpp"
#include "sim/format.hpp"
#include "sim/work_stealing_pool.hpp"

namespace {

using namespace mkos;
using core::SystemConfig;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  // mkos-lint: allow(wall-clock) — host-side telemetry: the smoke test's
  // entire purpose is to time the campaign; results stay in the host block.
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main() {
  const int max_nodes = sim::env_int("MKOS_SMOKE_MAX_NODES", 256, 1, 1 << 20);
  const int reps = sim::env_int("MKOS_SMOKE_REPS", 3, 1, 1000);
  const int threads = sim::default_threads();

  sim::print_banner("perf_smoke — timed fig4-style campaign",
                    "sampling-engine performance regression sensor");

  core::CampaignSpec spec;
  spec.apps = workloads::fig4_app_names();
  spec.reps = reps;
  spec.seed = 42;
  spec.max_nodes = max_nodes;
  spec.configs = {SystemConfig::linux_default(), SystemConfig::mckernel(),
                  SystemConfig::mos()};

  sim::WorkStealingPool pool(threads);
  core::CellCache cache;
  core::Campaign campaign(pool, cache);
  // mkos-lint: allow(wall-clock) — host telemetry: campaign wall time.
  const auto t0 = std::chrono::steady_clock::now();
  const auto cells = campaign.run(spec);
  const double wall_s = seconds_since(t0);

  std::printf("%zu cells in %.3f s (%d threads, max_nodes=%d, reps=%d)\n\n",
              cells.size(), wall_s, threads, max_nodes, reps);

  obs::RunLedger ledger = core::bench_ledger(
      "perf_smoke", "sampling-engine performance regression sensor", 42);
  ledger.set_meta("reps", std::to_string(reps));
  ledger.set_meta("max_nodes", std::to_string(max_nodes));
  core::record_config(ledger, SystemConfig::linux_default());
  core::record_config(ledger, SystemConfig::mckernel());
  core::record_config(ledger, SystemConfig::mos());
  for (const core::CellResult& cell : cells) {
    core::record_run_stats(
        ledger, cell.app + "." + cell.config_label + ".n" + std::to_string(cell.nodes),
        cell.stats);
  }
  core::record_campaign(ledger, campaign.telemetry(), threads);
  ledger.set_host("wall_s_campaign", sim::json_number(wall_s));
  ledger.set_host("cells_per_s",
                  sim::json_number(wall_s > 0.0
                                        ? static_cast<double>(cells.size()) / wall_s
                                        : 0.0));
  core::emit(ledger);

  std::printf("engine fast-path engagement (deterministic):\n"
              "  heap replayed lanes     %llu\n"
              "  heap simulated lanes    %llu\n"
              "  analytic noise sums     %llu\n"
              "  exact per-event draws   %llu\n",
              static_cast<unsigned long long>(ledger.counter("engine.heap_fast_lanes")),
              static_cast<unsigned long long>(ledger.counter("engine.heap_slow_lanes")),
              static_cast<unsigned long long>(ledger.counter("engine.noise_analytic_sums")),
              static_cast<unsigned long long>(ledger.counter("engine.noise_exact_events")));
  return 0;
}
