// Resilience chaos bench: fault rate x recovery policy x kernel.
//
// The paper's partitioning claim has a resilience corollary: "the Linux
// side can crash or be rebooted while the LWK keeps computing". This bench
// quantifies it with the deterministic fault subsystem (src/fault/):
//
//   Phase A  fault-free baselines per (kernel, nodes) — also the
//            calibration source: fault rates are expressed as expected
//            machine-wide event counts over each cell's own fault-free
//            progress horizon (read back from the deterministic
//            runtime.compute_ns ledger counter), so every policy and
//            kernel faces the same expected number of faults.
//   Phase B  mixed-fault sweep: expected fail-stop counts k in {2, 8, 32}
//            (with proportional straggler/storm/IKC disturbance rates)
//            crossed with all four recovery policies on all kernels —
//            graceful degradation under retry+checkpoint, collapse under
//            kNone at high rates.
//   Phase C  Linux-crash isolation: crashes only; the LWKs ride through at
//            partition cost (reboot stall x offload coupling + proxy
//            respawns) while the Linux baseline loses whole nodes.
//   Phase D  checkpoint-interval sweep at fixed fault rate: total overhead
//            vs interval has an interior optimum (Daly's first-order
//            sqrt(2*cost*MTBF) shape) — too-frequent checkpoints pay
//            cadence, too-rare ones pay rollback.
//
// Everything outside the host block of BENCH_resilience.json is a pure
// function of (grid, seed): rates derive from deterministic counters, seeds
// are positional, and cells merge in grid order — byte-identical for any
// MKOS_THREADS value.
//
//   The sweep always runs 64, 256, 1,024 and 2,048 nodes x 3 reps.
//   MKOS_THREADS sets the pool size.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/obs_glue.hpp"
#include "sim/format.hpp"
#include "sim/work_stealing_pool.hpp"

namespace {

using namespace mkos;
using core::SystemConfig;

constexpr const char* kApp = "MiniFE";
constexpr std::uint64_t kSeed = 42;
constexpr int kMaxNodes = 2048;
constexpr int kReps = 3;

struct Scenario {
  std::string label;               // ledger/gauge key fragment
  double expected_failures = 0.0;  // machine-wide fail-stop count over T
  fault::RecoveryPolicy policy = fault::RecoveryPolicy::kNone;
  bool crash_only = false;         // Phase C: Linux-crash channel only
};

/// Baseline calibration for one (kernel, nodes) cell.
struct Baseline {
  double fom = 0.0;
  double progress_s = 0.0;  // fault-free progress horizon (one rep)
};

/// Tune a resilience spec so the cell sees `expected` machine-wide events
/// of the lead channel over its own fault-free horizon.
fault::Spec tuned_spec(const Scenario& s, const Baseline& base, int nodes) {
  fault::Spec spec;
  const double denom = static_cast<double>(nodes) * std::max(base.progress_s, 1e-6);
  const double lead = s.expected_failures / denom;
  if (s.crash_only) {
    spec.linux_crash_rate_hz = lead;
  } else {
    spec.node_fail_rate_hz = lead;
    // Softer disturbances arrive more often than hard failures.
    spec.straggler_rate_hz = 2.0 * lead;
    spec.storm_rate_hz = 2.0 * lead;
    spec.ikc_drop_rate_hz = 8.0 * lead;
    spec.ikc_delay_rate_hz = 4.0 * lead;
  }
  spec.policy = s.policy;
  // Every duration and cost scales with the cell's own horizon so the sweep
  // compares *relative* disturbance budgets across kernels and node counts
  // (the absolute horizon shrinks as the simulated problem strong-scales):
  // checkpoint ~ 0.25% of the run, restart 4x that, a straggler episode 1%,
  // a storm 1.25%, a Linux reboot 5%.
  const sim::TimeNs horizon = sim::seconds(base.progress_s);
  spec.checkpoint_cost = std::max(sim::microseconds(1), horizon.scaled(1.0 / 400.0));
  spec.restart_cost = spec.checkpoint_cost * 4;
  spec.straggler_duration = std::max(sim::microseconds(10), horizon.scaled(1.0 / 100.0));
  spec.storm_duration = std::max(sim::microseconds(10), horizon.scaled(1.0 / 80.0));
  spec.linux_reboot_stall = std::max(sim::microseconds(10), horizon.scaled(1.0 / 20.0));
  spec.proxy_respawn_cost = std::max(sim::nanoseconds(100), horizon.scaled(1.0 / 10000.0));
  spec.ikc_backoff_base = std::max(sim::nanoseconds(100), horizon.scaled(1.0 / 20000.0));
  spec.ikc_delay_duration = std::max(sim::microseconds(1), horizon.scaled(1.0 / 2000.0));
  if (fault::policy_checkpoints(s.policy)) {
    // Daly first-order optimum against the machine-wide fail-stop MTBF.
    const double mtbf_s = base.progress_s / std::max(s.expected_failures, 1e-9);
    const double interval_s =
        std::sqrt(2.0 * spec.checkpoint_cost.sec() * mtbf_s);
    spec.checkpoint_interval =
        std::max(sim::microseconds(10), sim::seconds(interval_s));
  }
  return spec;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  // mkos-lint: allow(wall-clock) — host-side telemetry only: sweep timing.
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main() {
  const int threads = sim::default_threads();

  sim::print_banner("Resilience — fault rate x recovery policy x kernel",
                    "IPDPS'18 10.1109/IPDPS.2018.00022, Section II (partitioning)");

  const std::vector<int> node_counts = {64, 256, 1024, kMaxNodes};

  const std::vector<SystemConfig> kernels = {
      SystemConfig::linux_default(), SystemConfig::mckernel(), SystemConfig::mos()};

  sim::WorkStealingPool pool(threads);
  core::CellCache cache;
  core::Campaign campaign(pool, cache);
  // mkos-lint: allow(wall-clock) — host telemetry: total sweep wall time.
  const auto t0 = std::chrono::steady_clock::now();

  obs::RunLedger ledger = core::bench_ledger(
      "resilience", "IPDPS'18 10.1109/IPDPS.2018.00022, Section II", kSeed);
  ledger.set_meta("app", kApp);
  ledger.set_meta("reps", std::to_string(kReps));
  ledger.set_meta("max_nodes", std::to_string(kMaxNodes));
  for (const SystemConfig& k : kernels) core::record_config(ledger, k);

  // ---------------------------------------------------- Phase A: baselines
  core::CampaignSpec base_spec;
  base_spec.apps = {kApp};
  base_spec.configs = kernels;
  base_spec.nodes = node_counts;
  base_spec.reps = kReps;
  base_spec.seed = kSeed;
  const auto base_cells = campaign.run(base_spec);

  std::map<std::pair<std::string, int>, Baseline> baselines;
  for (const core::CellResult& cell : base_cells) {
    Baseline b;
    b.fom = cell.stats.median();
    b.progress_s = static_cast<double>(cell.stats.ledger.counter("runtime.compute_ns")) /
                   static_cast<double>(kReps) * 1e-9;
    baselines[{cell.config_label, cell.nodes}] = b;
    core::record_run_stats(ledger,
                           "base." + cell.config_label + ".n" + std::to_string(cell.nodes),
                           cell.stats);
  }

  // ------------------------------- Phases B + C: scenario sweep per nodes
  std::vector<Scenario> scenarios;
  for (const double k : {2.0, 8.0, 32.0}) {
    for (const fault::RecoveryPolicy p :
         {fault::RecoveryPolicy::kNone, fault::RecoveryPolicy::kRetry,
          fault::RecoveryPolicy::kCheckpointRestart, fault::RecoveryPolicy::kFull}) {
      Scenario s;
      s.label = "k" + std::to_string(static_cast<int>(k)) + "." +
                std::string(fault::to_string(p));
      s.expected_failures = k;
      s.policy = p;
      scenarios.push_back(s);
    }
  }
  {
    Scenario crash;
    crash.label = "crash";
    crash.expected_failures = 8.0;
    crash.policy = fault::RecoveryPolicy::kFull;
    crash.crash_only = true;
    scenarios.push_back(crash);
  }

  for (const int nodes : node_counts) {
    core::CampaignSpec spec;
    spec.apps = {kApp};
    spec.nodes = {nodes};
    spec.reps = kReps;
    spec.seed = kSeed;
    // Grid order is config-major, mirroring this meta list.
    std::vector<std::pair<std::string, const Scenario*>> meta;
    for (const SystemConfig& base : kernels) {
      const Baseline& b = baselines.at({base.label(), nodes});
      for (const Scenario& s : scenarios) {
        SystemConfig faulty = base;
        faulty.resilience = tuned_spec(s, b, nodes);
        spec.configs.push_back(faulty);
        meta.emplace_back(base.label(), &s);
      }
    }
    const auto cells = campaign.run(spec);

    sim::Table table{{"n" + std::to_string(nodes) + " scenario", "Linux", "McKernel", "mOS"}};
    std::map<std::string, std::map<std::string, double>> degr;  // scenario -> kernel
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& [kernel_label, scenario] = meta[i];
      const Baseline& b = baselines.at({kernel_label, nodes});
      const double ratio = b.fom > 0.0 ? cells[i].stats.median() / b.fom : 0.0;
      degr[scenario->label][kernel_label] = ratio;
      const std::string key =
          "resilience." + kernel_label + ".n" + std::to_string(nodes) + "." + scenario->label;
      ledger.set_gauge(key + ".degradation", ratio);
      core::record_run_stats(ledger, key, cells[i].stats);
    }
    for (const Scenario& s : scenarios) {
      const auto& by_kernel = degr[s.label];
      table.add_row({s.label, sim::fmt(by_kernel.at("Linux"), 3),
                     sim::fmt(by_kernel.at("McKernel"), 3),
                     sim::fmt(by_kernel.at("mOS"), 3)});
    }
    std::printf("%s\n", table.to_string().c_str());

    // Isolation headline per node count: how much of the Linux-crash damage
    // the partitioned kernels avoid.
    const auto& crash = degr["crash"];
    const double linux_d = crash.at("Linux");
    for (const char* lwk : {"McKernel", "mOS"}) {
      const double iso = linux_d > 0.0 ? crash.at(lwk) / linux_d : 0.0;
      ledger.set_gauge("resilience.isolation." + std::string(lwk) + ".n" +
                           std::to_string(nodes),
                       iso);
    }
  }

  // ------------------------------ Phase D: checkpoint-interval cost curve
  // Fixed rate (k=8 fail-stops), checkpoint-only policy, McKernel at the
  // mid node count: sweep the interval as fractions of the horizon and find
  // the interior optimum.
  const int sweep_nodes = node_counts[1];
  const Baseline& sweep_base = baselines.at({"McKernel", sweep_nodes});
  const std::vector<double> fractions = {1.0 / 128, 1.0 / 64, 1.0 / 32,
                                         1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2};
  {
    Scenario s;
    s.label = "ckpt";
    s.expected_failures = 8.0;
    s.policy = fault::RecoveryPolicy::kCheckpointRestart;
    core::CampaignSpec spec;
    spec.apps = {kApp};
    spec.nodes = {sweep_nodes};
    spec.reps = kReps;
    spec.seed = kSeed;
    for (const double f : fractions) {
      SystemConfig faulty = SystemConfig::mckernel();
      faulty.resilience = tuned_spec(s, sweep_base, sweep_nodes);
      faulty.resilience.checkpoint_interval =
          std::max(sim::microseconds(10), sim::seconds(sweep_base.progress_s * f));
      spec.configs.push_back(faulty);
    }
    const auto cells = campaign.run(spec);

    sim::Table table{{"interval/T", "FOM/baseline"}};
    std::size_t best = 0;
    double best_ratio = -1.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const double ratio =
          sweep_base.fom > 0.0 ? cells[i].stats.median() / sweep_base.fom : 0.0;
      table.add_row({sim::fmt(fractions[i], 5), sim::fmt(ratio, 4)});
      ledger.set_gauge("resilience.ckpt.f" + std::to_string(i) + ".degradation", ratio);
      ledger.set_gauge("resilience.ckpt.f" + std::to_string(i) + ".fraction", fractions[i]);
      core::record_run_stats(ledger, "resilience.ckpt.f" + std::to_string(i),
                             cells[i].stats);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = i;
      }
    }
    std::printf("%s\n", table.to_string().c_str());
    const bool interior = best > 0 && best + 1 < fractions.size();
    std::printf("checkpoint sweep (McKernel, n%d, k=8): best interval = T*%s (%s)\n\n",
                sweep_nodes, sim::fmt(fractions[best], 5).c_str(),
                interior ? "interior optimum" : "edge — widen the sweep");
    ledger.set_gauge("resilience.ckpt.optimal_fraction", fractions[best]);
    ledger.set_gauge("resilience.ckpt.optimal_interior", interior ? 1.0 : 0.0);
  }

  const core::CampaignTelemetry& t = campaign.telemetry();
  std::printf("%s\n", core::describe(t, threads).c_str());
  core::record_campaign(ledger, t, threads);
  ledger.set_host("wall_s_total", sim::json_number(seconds_since(t0)));
  core::emit(ledger);
  return 0;
}
