#pragma once
// The benchmark's three workloads and the run loop that measures them.
//
// Every timed pass runs the whole cell grid cold: a fresh CellCache (and, on
// store_roundtrip, a fresh CellStore) under a fresh campaign seed derived
// from --seed, so no pass is served by an earlier one. See README.md for why
// each workload exists and which layer each metric should move.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/config.hpp"
#include "samples.hpp"
#include "sim/thread_pool.hpp"

namespace perfbench {

/// Campaign seed of the untimed warm-up pass, whose digest is pinned.
inline constexpr std::uint64_t kDefaultSeed = 42;

struct WorkloadDef {
  std::string name;
  std::vector<std::string> apps;
  std::vector<mkos::core::SystemConfig> configs;
  int reps = 5;
  int max_nodes = 1 << 30;
  int workers = 1;
  bool store = false;    ///< cold passes write through a CellStore; warm ones read it
  int warm_passes = 1;   ///< warm (cache-served) passes after each cold pass
  std::uint64_t pinned_digest = 0;  ///< pass_digest of the kDefaultSeed grid
};

[[nodiscard]] std::vector<std::string> workload_names();
[[nodiscard]] std::optional<WorkloadDef> find_workload(const std::string& name);
[[nodiscard]] mkos::core::CampaignSpec grid_spec(const WorkloadDef& def,
                                                 std::uint64_t seed);

/// FNV-1a over a cell's identity, FoM samples, unit and ledger JSON: equal
/// digests mean byte-identical results.
[[nodiscard]] std::uint64_t cell_digest(const std::string& app, const std::string& config,
                                        int nodes, const mkos::core::RunStats& stats);
[[nodiscard]] std::uint64_t cell_digest(const mkos::core::CellResult& cell);
/// Order-sensitive digest of a whole pass (cells in grid order).
[[nodiscard]] std::uint64_t pass_digest(const std::vector<mkos::core::CellResult>& cells);

/// One warm pass: a campaign over `spec` served entirely from cache —
/// `cache` itself (memory tier) when `store` is null, else a fresh
/// CellCache over `store` (disk tier). Checks every served cell against
/// `cold_digests` (grid order) and the store's counters for misses,
/// corrupt entries and key mismatches.
struct WarmPass {
  std::size_t cells = 0;
  double seconds = 0.0;  ///< host wall of Campaign::run
  std::uint64_t failed = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
};
[[nodiscard]] WarmPass warm_pass(mkos::sim::TaskPool& pool, mkos::core::CellCache& cache,
                                 mkos::core::CellStore* store,
                                 const mkos::core::CampaignSpec& spec,
                                 const std::vector<std::uint64_t>& cold_digests);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;  ///< return right after set-up (run.py times set-ups)
  std::string tmp_dir;      ///< parent of the run's scratch directory (stores)
  std::string spans_out;    ///< trace mode: span file; empty = not written
  /// Called once set-up is done, just before the first timed pass.
  std::function<void()> on_setup_done;
};

struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> refused;  ///< metrics left out: too few samples
  std::vector<std::string> notes;    ///< human-readable lines
  std::string scratch_dir;         ///< where stores lived (removed at exit)
};

/// Set up, measure for `opts.seconds`, verify, and report. With
/// opts.trace the metrics are the per-layer set, else the end-to-end set
/// except setup_s, which run.py measures across processes.
[[nodiscard]] RunResult run_benchmark(const WorkloadDef& def, const RunOptions& opts);

}  // namespace perfbench
