// Scheduler sweep: the work-stealing pool against a shared-FIFO model on a
// skewed cost mix, plus sharded two-process scaling over a shared cell store.
//
// Section 1 (gated): a synthetic skewed task mix driven through the exact
// production fan-out path (sim::parallel_for_weighted -> TaskPool): a
// broad field of light tasks submitted first and one dominant straggler
// last — grid order, the FIFO worst case. The mix is sized so LPT's bound
// is tight (light work ~= 7x the straggler on 8 workers): FIFO starts the
// straggler only after draining the light field (makespan ~= W_light/8 +
// h) while LPT placement starts it immediately (makespan ~= h), a ~1.8x
// gap. CI gates `host.sched_speedup >= 1.3` on the MODELED makespan
// ratio, not wall clock: with more workers than CPUs the workers
// serialize and every schedule takes total-work time, so wall clock cannot
// distinguish schedulers there. Both sides are the greedy list schedule on
// `threads` virtual workers (the next free worker takes the next task):
// the FIFO model takes the tasks in submission order, which is what a
// shared-queue pool does; the work-stealing side takes them in the order
// the REAL pool started them, which each task body records with one atomic
// index. The gate therefore certifies the pool's start order (the heavy
// task goes first) and not how the OS scheduled its threads. The worst run
// of the repetitions is gated; wall clocks are reported, informationally.
//
// Section 2: a real campaign grid with genuine cost skew (Lulesh 2.0 on
// Linux pays the brk-churn price — about 2–3x a MiniFE cell, 1.4–3.5 ms
// against 0.5–1.2 ms on a 4-core Xeon) timed on a 1-worker and a
// `threads`-worker pool, asserting both produce byte-identical cell
// statistics (the positional-seed determinism contract), and printing the
// 1-worker cell cost against the placement model's estimate.
//
// Section 3 (multi-process, emulated): the same grid split across two
// shards (MKOS_SHARD semantics, DESIGN.md §16) running concurrently over
// one shared store directory, claims mediating the overlap, each shard on
// its own half-size pool — two half-machines standing in for two hosts. A
// final unsharded merge run over the warm store must recompute nothing:
// every cell a verified disk hit, zero writes, statistics identical to
// direct simulation.
//
//   MKOS_SWEEP_SCHED_REPS    repetitions of section 1 (default 3)
//   MKOS_SWEEP_SCHED_THREADS pool width for the timed runs (default 8)
//   MKOS_SWEEP_SCHED_CELL_REPS  per-cell simulation reps (default 2)

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <numeric>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/obs_glue.hpp"
#include "sim/env.hpp"
#include "sim/format.hpp"
#include "sim/work_stealing_pool.hpp"
#include "workloads/app.hpp"

namespace {

using namespace mkos;
using core::SystemConfig;

/// Real-cell grid with genuine skew: Lulesh 2.0 cells on the Linux config
/// simulate the paper's brk churn at full price while every LWK cell is
/// light; app-major grid order puts the whole Lulesh block last.
core::CampaignSpec cell_spec(int cell_reps) {
  core::CampaignSpec spec;
  spec.apps = {"MiniFE", "Lulesh2.0"};
  spec.configs = {SystemConfig::linux_default(), SystemConfig::mckernel(),
                  SystemConfig::mos(),
                  SystemConfig::for_os(kernel::OsKind::kFusedOs)};
  spec.nodes = {16, 128, 512};  // both apps accept these (MiniFE needs >= 16)
  spec.reps = cell_reps;
  spec.seed = 7;
  return spec;
}

/// Synthetic skewed cost mix, in the unit of spin() below. Light field
/// first, one dominant straggler last — submission order is grid order, so
/// a FIFO pool starts the straggler when the queue is already drained.
/// Sized for the LPT bound to be tight at 8 workers: W_light = 112x13 +
/// 6x37 = 1678 ~= 7x the 240-unit straggler.
std::vector<double> skewed_costs() {
  std::vector<double> costs(112, 13.0);
  costs.insert(costs.end(), 6, 37.0);  // a mid-weight shelf, for realism
  costs.push_back(240.0);              // the straggler, submitted last
  return costs;
}

/// Greedy list-schedule makespan of `costs` taken in `order` on `workers`
/// identical virtual workers: the next free worker takes the next task.
/// Taken in submission order, this is exactly the schedule a shared-FIFO
/// pool produces on a machine with `workers` real cores, computed in
/// virtual time so the answer does not depend on the host's core count.
double list_schedule_makespan(const std::vector<double>& costs,
                              const std::vector<std::size_t>& order, int workers) {
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (int w = 0; w < workers; ++w) free_at.push(0.0);
  double makespan = 0.0;
  for (const std::size_t i : order) {
    const double start = free_at.top();
    free_at.pop();
    free_at.push(start + costs[i]);
    makespan = std::max(makespan, start + costs[i]);
  }
  return makespan;
}

/// Deterministic integer spin proportional to `units`; returns a value the
/// caller must consume so the loop cannot be optimized away. The absolute
/// per-unit duration is machine-dependent; only the ratio between task
/// durations matters to the scheduling comparison.
std::uint64_t spin(double units) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto iters = static_cast<std::uint64_t>(units * 60000.0);
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  // mkos-lint: allow(wall-clock) — host-side telemetry only: this bench
  // times the scheduler itself; no simulated result depends on it.
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Wall time of the synthetic mix on `pool`, via the campaign's own
/// weighted fan-out (LPT placement). `started` receives the task indices in
/// the order the pool started them.
double timed_synthetic(sim::TaskPool& pool, const std::vector<double>& costs,
                       std::vector<std::size_t>* started,
                       std::vector<std::uint64_t>* sink) {
  std::atomic<std::size_t> next{0};
  // mkos-lint: allow(wall-clock) — host telemetry: scheduler makespan.
  const auto t0 = std::chrono::steady_clock::now();
  sim::parallel_for_weighted(pool, costs, [&](std::size_t i) {
    (*started)[next.fetch_add(1)] = i;
    (*sink)[i] = spin(costs[i]);
  });
  return seconds_since(t0);
}

/// Run the cell grid on `pool` with a cold cache; returns wall seconds and
/// the cell results (deterministic grid order).
double timed_cells(sim::TaskPool& pool, const core::CampaignSpec& spec,
                   std::vector<core::CellResult>* out) {
  core::CellCache cache;
  core::Campaign campaign(pool, cache);
  // mkos-lint: allow(wall-clock) — host telemetry: campaign makespan.
  const auto t0 = std::chrono::steady_clock::now();
  auto cells = campaign.run(spec);
  const double s = seconds_since(t0);
  if (out != nullptr) *out = std::move(cells);
  return s;
}

/// Cell statistics must not depend on the pool: compare every sample of
/// every cell across two runs.
bool same_results(const std::vector<core::CellResult>& a,
                  const std::vector<core::CellResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].app != b[i].app || a[i].nodes != b[i].nodes ||
        a[i].config_fp != b[i].config_fp) {
      return false;
    }
    if (a[i].stats.fom.samples() != b[i].stats.fom.samples()) return false;
  }
  return true;
}

}  // namespace

int main() {
  const int reps = sim::env_int("MKOS_SWEEP_SCHED_REPS", 3, 1, 100);
  const int threads = sim::env_int("MKOS_SWEEP_SCHED_THREADS", 8, 2, 256);
  const int cell_reps = sim::env_int("MKOS_SWEEP_SCHED_CELL_REPS", 2, 1, 100);
  const core::CampaignSpec spec = cell_spec(cell_reps);

  sim::print_banner("Scheduler sweep — work stealing vs a FIFO model, 2-shard store",
                    "campaign engine; skewed cost mix (DESIGN.md §16)");

  // --- Section 1 (gated): synthetic skewed mix --------------------------
  const std::vector<double> costs = skewed_costs();
  std::vector<std::uint64_t> sink(costs.size());
  std::vector<std::size_t> submitted(costs.size());
  std::iota(submitted.begin(), submitted.end(), std::size_t{0});
  std::vector<std::size_t> started(costs.size());
  double wsp_s = 1e300;
  double wsp_model = 0.0;
  sim::TaskPool::SchedTelemetry sched{};
  for (int r = 0; r < reps; ++r) {
    sim::WorkStealingPool pool(threads);
    wsp_s = std::min(wsp_s, timed_synthetic(pool, costs, &started, &sink));
    wsp_model = std::max(wsp_model, list_schedule_makespan(costs, started, threads));
    sched = pool.sched_telemetry();
  }
  std::uint64_t sink_sum = 0;
  for (const std::uint64_t v : sink) sink_sum += v;  // consume the spin results
  const auto straggler_rank =
      std::find(started.begin(), started.end(), costs.size() - 1) - started.begin();

  // The gated comparison, in virtual time (core-count independent): the
  // same list schedule over the FIFO submission order and over the real
  // pool's worst start order. LPT's makespan is bounded below by the
  // straggler, so the ratio is ~1.7 when the pool starts the straggler
  // first and collapses toward 1.0 when it starts it last.
  double total_cost = 0.0;
  for (const double c : costs) total_cost += c;
  const double fifo_model = list_schedule_makespan(costs, submitted, threads);
  const double speedup = wsp_model > 0.0 ? fifo_model / wsp_model : 0.0;
  sim::Table t1{{"schedule (" + std::to_string(threads) + " workers)",
                 "makespan (cost units)", "speedup",
                 "wall s (min of " + std::to_string(reps) + ")"}};
  t1.add_row({"FIFO submission order (model)", sim::fmt(fifo_model, 1), "1.00x", "-"});
  t1.add_row({"WorkStealingPool start order (LPT)", sim::fmt(wsp_model, 1),
              sim::fmt(speedup, 2) + "x", sim::fmt(wsp_s, 3)});
  std::printf("%s\n", t1.to_string().c_str());
  std::printf("synthetic mix: %zu tasks, %.0f cost units, straggler submitted last; "
              "last run: straggler started #%td, %llu local pops, %llu steals, %llu "
              "failed scans, imbalance %.3f (sink %llx)\n\n",
              costs.size(), total_cost, straggler_rank + 1,
              static_cast<unsigned long long>(sched.local_pops),
              static_cast<unsigned long long>(sched.steals),
              static_cast<unsigned long long>(sched.steal_fails), sched.imbalance,
              static_cast<unsigned long long>(sink_sum));

  // --- Section 2: real cells, determinism across worker counts ----------
  std::vector<core::CellResult> serial_cells;
  std::vector<core::CellResult> wsp_cells;
  double serial_cells_s = 0.0;
  double wsp_cells_s = 0.0;
  {
    sim::WorkStealingPool pool(1);
    serial_cells_s = timed_cells(pool, spec, &serial_cells);
  }
  {
    sim::WorkStealingPool pool(threads);
    wsp_cells_s = timed_cells(pool, spec, &wsp_cells);
  }
  if (!same_results(serial_cells, wsp_cells)) {
    std::fprintf(stderr, "FATAL: worker count changed cell statistics\n");
    return 1;
  }
  // Measured cell cost vs the placement model (workloads::app_cost_weight):
  // the Linux column is where Lulesh's brk churn bites.
  sim::Table tc{{"cell (Linux config)", "wall ms", "model cost"}};
  for (const core::CellResult& c : serial_cells) {
    if (c.config_label != "Linux" || c.from_cache) continue;
    tc.add_row({c.app + " @" + std::to_string(c.nodes), sim::fmt(c.wall_ms, 1),
                sim::fmt(static_cast<double>(c.nodes) * cell_reps *
                             workloads::app_cost_weight(c.app),
                         0)});
  }
  std::printf("%s\n", tc.to_string().c_str());
  std::printf("real cells (%zu): 1 worker %.3f s, %d workers %.3f s, statistics "
              "identical\n\n",
              serial_cells.size(), serial_cells_s, threads, wsp_cells_s);

  // --- Section 3: two concurrent shards over one store, then merge ------
  namespace fs = std::filesystem;
  const fs::path store_root =
      fs::temp_directory_path() /
      ("mkos-sweep-sched-" + std::to_string(static_cast<long long>(::getpid())));
  std::error_code ec;
  fs::remove_all(store_root, ec);

  // Each shard gets half the machine: two half-size pools standing in for
  // two hosts. Claims through the shared store mediate the steal phase.
  const int half = threads / 2;
  double shard_walls[2] = {0.0, 0.0};
  core::CampaignTelemetry shard_telemetry[2];
  {
    std::vector<std::thread> shards;
    for (int i = 0; i < 2; ++i) {
      shards.emplace_back([&, i] {
        core::CellStore store(store_root.string());
        core::CellCache cache(&store);
        sim::WorkStealingPool pool(half);
        core::Campaign campaign(pool, cache);
        core::CampaignSpec shard_spec = spec;
        shard_spec.shard = core::ShardSpec{i, 2};
        // mkos-lint: allow(wall-clock) — host telemetry: shard makespan.
        const auto t0 = std::chrono::steady_clock::now();
        (void)campaign.run(shard_spec);
        shard_walls[i] = seconds_since(t0);
        shard_telemetry[i] = campaign.telemetry();
      });
    }
    for (std::thread& th : shards) th.join();
  }

  // Merge: unsharded run over the warm store. Nothing may recompute — every
  // cell is a verified disk hit (or an in-run duplicate), zero writes.
  core::CellStore merge_store(store_root.string());
  core::CellCache merge_cache(&merge_store);
  sim::WorkStealingPool merge_pool(threads);
  core::Campaign merge_campaign(merge_pool, merge_cache);
  // mkos-lint: allow(wall-clock) — host telemetry: merge wall time.
  const auto m0 = std::chrono::steady_clock::now();
  const auto merged = merge_campaign.run(spec);
  const double merge_s = seconds_since(m0);
  const core::CellStoreCounters msc = merge_store.counters();
  if (msc.writes != 0 || msc.misses != 0) {
    std::fprintf(stderr,
                 "FATAL: merge recomputed cells (writes=%llu misses=%llu) — "
                 "the shards did not cover the grid\n",
                 static_cast<unsigned long long>(msc.writes),
                 static_cast<unsigned long long>(msc.misses));
    return 1;
  }
  if (!same_results(serial_cells, merged)) {
    std::fprintf(stderr, "FATAL: merged results differ from direct simulation\n");
    return 1;
  }

  const double slowest_shard = std::max(shard_walls[0], shard_walls[1]);
  const double efficiency = slowest_shard > 0.0 ? wsp_cells_s / slowest_shard : 0.0;
  sim::Table t2{{"phase", "wall s", "claims", "races", "stolen"}};
  for (int i = 0; i < 2; ++i) {
    const core::CampaignTelemetry& st = shard_telemetry[i];
    t2.add_row({"shard " + std::to_string(i) + "/2 (" + std::to_string(half) +
                    " threads)",
                sim::fmt(shard_walls[i], 3), std::to_string(st.sched_claims),
                std::to_string(st.sched_claim_races),
                std::to_string(st.stolen_cells)});
  }
  t2.add_row({"merge (warm store)", sim::fmt(merge_s, 3), "0", "0", "0"});
  std::printf("%s\n", t2.to_string().c_str());
  std::printf("2-shard efficiency vs one %d-thread machine: %.2f "
              "(1.0 = linear: each half-machine shard matches the full pool)\n\n",
              threads, efficiency);

  fs::remove_all(store_root, ec);

  // --- Ledger ------------------------------------------------------------
  obs::RunLedger ledger =
      core::bench_ledger("sweep_sched", "campaign scheduler microbenchmark", 7);
  ledger.set_meta("cell_reps", std::to_string(cell_reps));
  ledger.set_meta("timing_reps", std::to_string(reps));
  core::record_campaign(ledger, merge_campaign.telemetry(), threads, &merge_store);
  ledger.set_host("wall_s_wsp", sim::json_number(wsp_s));
  ledger.set_host("makespan_fifo_model", sim::json_number(fifo_model));
  ledger.set_host("makespan_wsp_model", sim::json_number(wsp_model));
  ledger.set_host("sched_speedup", sim::json_number(speedup));
  ledger.set_host("wall_s_serial_cells", sim::json_number(serial_cells_s));
  ledger.set_host("wall_s_wsp_cells", sim::json_number(wsp_cells_s));
  ledger.set_host("wall_s_shard0", sim::json_number(shard_walls[0]));
  ledger.set_host("wall_s_shard1", sim::json_number(shard_walls[1]));
  ledger.set_host("wall_s_merge", sim::json_number(merge_s));
  ledger.set_host("shard_efficiency", sim::json_number(efficiency));
  core::emit(ledger);
  return 0;
}
