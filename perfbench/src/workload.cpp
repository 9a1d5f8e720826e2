#include "workload.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>

#include "core/cell_store.hpp"
#include "sim/work_stealing_pool.hpp"
#include "trace.hpp"
#include "workloads/app.hpp"

namespace perfbench {

namespace core = mkos::core;
namespace fs = std::filesystem;

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t pass_seed(std::uint64_t base, int pass) {
  return splitmix(splitmix(base) + static_cast<std::uint64_t>(pass));
}

/// min(CPUs this process may run on, 4).
int pooled_workers() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int n = sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 1;
  return std::clamp(n, 1, 4);
}

core::SystemConfig with_alloc_model(core::SystemConfig config) {
  config.alloc.model_allocator = true;
  return config;
}

std::vector<std::string> fig4_grid_apps() {
  std::vector<std::string> apps = mkos::workloads::fig4_app_names();
  apps.emplace_back("Lulesh2.0");
  return apps;
}

std::uint64_t fnv(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The run's scratch directory (stores live here), removed with everything
/// in it when the run ends — on exceptions too.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent) {
    const fs::path base = parent.empty() ? fs::temp_directory_path() : fs::path(parent);
    fs::create_directories(base);
    std::string name = (base / "perfbench-XXXXXX").string();
    if (::mkdtemp(name.data()) == nullptr) {
      throw std::runtime_error("cannot create a scratch directory under " + base.string());
    }
    path_ = name;
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// Ledger counters summed over traced cells, for the per-layer ratios.
constexpr const char* kRatioCounters[] = {
    "engine.heap_fast_lanes",     "engine.heap_slow_lanes",
    "engine.coll_cache_hits",     "engine.coll_cache_misses",
    "engine.msg_cache_hits",      "engine.msg_cache_misses",
    "engine.noise_analytic_sums", "engine.noise_analytic_maxima",
    "engine.noise_gumbel_draws",  "engine.noise_exact_events",
    "alloc.magazine_hits",        "alloc.magazine_misses",
    "alloc.depot_lock_ns",        "alloc.zone_lock_ns",
};

class Runner {
 public:
  Runner(const WorkloadDef& def, const RunOptions& opts)
      : def_(def), opts_(opts), scratch_(opts.tmp_dir) {
    out_.scratch_dir = scratch_.path().string();
    for (const std::string& app : def_.apps) {
      int top = 0;
      for (const int n : mkos::workloads::make_app(app)->node_counts()) {
        if (n <= def_.max_nodes) top = std::max(top, n);
      }
      top_nodes_[app] = top;
    }
  }

  RunResult run() {
    setup();
    if (opts_.on_setup_done) opts_.on_setup_done();
    if (opts_.setup_only) return std::move(out_);
    const auto loop_start = Clock::now();
    int passes = 0;
    while (passes == 0 || seconds_since(loop_start) < opts_.seconds) {
      iteration(passes++);
    }
    const double loop_s = seconds_since(loop_start);
    verify_sampled();
    note(def_.name + ": " + std::to_string(grid_cells_) + " cells per pass, " +
         std::to_string(def_.reps) + " reps, " + std::to_string(def_.workers) +
         " worker(s)");
    note("passes: " + std::to_string(passes) + " cold in " + std::to_string(loop_s) +
         " s, " + std::to_string(warm_s_.count()) + " warm");
    note("scratch dir: " + out_.scratch_dir + " (removed at exit)");
    note("failed_frac: " + std::to_string(ratio(static_cast<double>(out_.failed),
                                                static_cast<double>(out_.attempted))) +
         " (" + std::to_string(out_.failed) + " of " + std::to_string(out_.attempted) +
         " cells)");
    if (opts_.trace) {
      report_layers();
      if (!opts_.spans_out.empty()) {
        const bool ok = write_spans_jsonl(kept_spans_, opts_.spans_out);
        note(std::string(ok ? "spans of the first traced pass: " : "could not write spans: ") +
             opts_.spans_out);
      }
    } else {
      report_end_to_end();
    }
    return std::move(out_);
  }

 private:
  void note(const std::string& line) { out_.notes.push_back(line); }

  void add(std::optional<Metric> metric, const std::string& name) {
    if (metric) {
      out_.metrics.push_back(std::move(*metric));
    } else {
      out_.refused.push_back(name);
    }
  }
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    out_.metrics.push_back(Metric{name, value, unit, samples});
  }

  std::unique_ptr<core::CellStore> open_store(const fs::path& dir) const {
    return def_.store ? std::make_unique<core::CellStore>(dir.string()) : nullptr;
  }

  const core::SystemConfig& config_of(const std::string& label) const {
    for (const core::SystemConfig& config : def_.configs) {
      if (config.label() == label) return config;
    }
    throw std::logic_error("no config labelled " + label);
  }

  /// Set-up: the pool, a store, and an untimed warm-up pass over the
  /// kDefaultSeed grid whose digest must equal the pinned one.
  void setup() {
    pool_ = std::make_unique<mkos::sim::WorkStealingPool>(def_.workers);
    const fs::path dir = scratch_.path() / "setup";
    auto store = open_store(dir);
    core::CellCache cache(store.get());
    core::Campaign campaign(*pool_, cache);
    const std::vector<core::CellResult> cells = campaign.run(grid_spec(def_, kDefaultSeed));
    const std::uint64_t digest = pass_digest(cells);
    grid_cells_ = cells.size();
    out_.attempted += cells.size();
    if (digest != def_.pinned_digest) {
      out_.failed += cells.size();
      note("FAIL warm-up digest " + hex(digest) + " != pinned " + hex(def_.pinned_digest));
    }
    store.reset();
    fs::remove_all(dir);
  }

  void iteration(int pass) {
    const std::uint64_t seed = pass_seed(opts_.seed, pass);
    const core::CampaignSpec spec = grid_spec(def_, seed);
    const fs::path dir = scratch_.path() / ("pass-" + std::to_string(pass));
    auto store = open_store(dir);
    core::CellCache cache(store.get());
    core::Campaign campaign(*pool_, cache);
    const auto t0 = Clock::now();
    const std::vector<core::CellResult> cells = campaign.run(spec);
    const double pass_s = seconds_since(t0);

    campaign_s_.add(pass_s);
    double busy_s = 0.0;
    std::vector<std::uint64_t> digests;
    digests.reserve(cells.size());
    for (const core::CellResult& cell : cells) {
      cell_ms_.add(cell.wall_ms);
      if (cell.nodes == top_nodes_.at(cell.app)) top_cell_ms_.add(cell.wall_ms);
      busy_s += cell.wall_ms / 1e3;
      if (cell.from_cache) ++out_.failed;  // a cold pass must simulate every cell
      digests.push_back(cell_digest(cell));
    }
    out_.attempted += cells.size();
    idle_frac_.add(1.0 - busy_s / (static_cast<double>(def_.workers) * pass_s));
    steals_ += campaign.telemetry().sched_steals;
    cold_cells_ += cells.size();
    // One cell per pass is re-run through serial core::run_app after timing.
    const std::size_t sample = splitmix(seed) % cells.size();
    sampled_.push_back(Sampled{cells[sample].app, cells[sample].config_label,
                               cells[sample].nodes, seed, digests[sample]});

    for (int w = 0; w < def_.warm_passes; ++w) {
      const WarmPass warm = warm_pass(*pool_, cache, store.get(), spec, digests);
      warm_s_.add(warm.seconds);
      store_hits_ += warm.store_hits;
      store_misses_ += warm.store_misses;
      out_.attempted += warm.cells;
      out_.failed += warm.failed;
    }
    if (opts_.trace) traced_pass(pass, seed, cells, digests);
    store.reset();
    fs::remove_all(dir);
  }

  /// The replica over the same grid and seed, through the same pool in the
  /// same LPT order; every cell must match the cold pass byte for byte.
  void traced_pass(int pass, std::uint64_t seed, const std::vector<core::CellResult>& cold,
                   const std::vector<std::uint64_t>& digests) {
    const std::size_t n = cold.size();
    std::vector<CellTrace> traces;
    traces.reserve(n);
    for (std::size_t i = 0; i < n; ++i) traces.emplace_back(static_cast<std::uint32_t>(i));
    std::vector<core::RunStats> stats(n);
    std::vector<double> costs(n);
    for (std::size_t i = 0; i < n; ++i) {
      costs[i] = static_cast<double>(cold[i].nodes) * def_.reps *
                 mkos::workloads::app_cost_weight(cold[i].app);
    }
    const fs::path dir = scratch_.path() / ("traced-" + std::to_string(pass));
    auto store = open_store(dir);
    const auto t0 = Clock::now();
    mkos::sim::parallel_for_weighted(*pool_, costs, [&](std::size_t i) {
      const core::CellResult& cell = cold[i];
      const core::SystemConfig& config = config_of(cell.config_label);
      stats[i] = traced_run_app(cell.app, config, cell.nodes, def_.reps, seed, traces[i]);
      (void)traced_store_save(store.get(), cell.app, config, cell.nodes, def_.reps, seed,
                              stats[i], traces[i]);
    });
    traced_pass_s_.add(seconds_since(t0));

    for (std::size_t i = 0; i < n; ++i) {
      const core::CellResult& cell = cold[i];
      const auto loaded = traced_store_load(store.get(), cell.app,
                                            config_of(cell.config_label), cell.nodes,
                                            def_.reps, seed, traces[i]);
      bool ok = cell_digest(cell.app, cell.config_label, cell.nodes, stats[i]) == digests[i];
      if (store) {
        ok = ok && loaded &&
             cell_digest(cell.app, cell.config_label, cell.nodes, *loaded) == digests[i];
      }
      if (!ok) {
        ++out_.failed;
        if (replica_mismatches_++ == 0) {
          note("FAIL replica ledger differs from run_app: " + cell.app + " " +
               cell.config_label + " n=" + std::to_string(cell.nodes));
        }
      }
      ++out_.attempted;
      layers_.add(traces[i]);
      for (const char* name : kRatioCounters) {
        counters_[name] += static_cast<double>(stats[i].ledger.counter(name));
      }
    }
    if (store) {
      const core::CellStoreCounters c = store->counters();
      store_writes_ += c.writes;
      store_bytes_written_ += c.bytes_written;
    }
    if (kept_spans_.empty()) kept_spans_ = std::move(traces);
    store.reset();
    fs::remove_all(dir);
  }

  /// Untimed: re-run sampled cells through serial core::run_app.
  void verify_sampled() {
    std::uint64_t mismatches = 0;
    for (const Sampled& s : sampled_) {
      const auto app = mkos::workloads::make_app(s.app);
      const core::RunStats stats =
          core::run_app(*app, config_of(s.config), s.nodes, def_.reps, s.seed);
      if (cell_digest(s.app, s.config, s.nodes, stats) != s.digest) ++mismatches;
    }
    out_.failed += mismatches;
    note("serial run_app re-run of " + std::to_string(sampled_.size()) +
         " sampled cells: " + std::to_string(mismatches) + " mismatched");
  }

  void report_end_to_end() {
    add(percentile_metric("campaign_s", campaign_s_, 50.0, "s"), "campaign_s");
    add(percentile_metric("cell_ms.p50", cell_ms_, 50.0, "ms"), "cell_ms.p50");
    add(percentile_metric("cell_ms.p99", cell_ms_, 99.0, "ms"), "cell_ms.p99");
    add(percentile_metric("top_cell_ms.p50", top_cell_ms_, 50.0, "ms"), "top_cell_ms.p50");
    // Over the median warm pass: a rate summed over the phase would let its
    // slowest stretches dominate.
    const auto warm_s = warm_s_.median();
    if (warm_s) {
      add("warm_cells_per_s", ratio(static_cast<double>(grid_cells_), *warm_s), "1/s",
          warm_s_.count());
    }
    add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  }

  void report_layers() {
    const auto cells = static_cast<double>(layers_.cells);
    for (const Layer layer :
         {Layer::kMachine, Layer::kJob, Layer::kSetup, Layer::kAllocModel, Layer::kWorld,
          Layer::kRun, Layer::kSnapshot, Layer::kTeardown, Layer::kMerge, Layer::kStoreSave,
          Layer::kStoreLoad}) {
      add(std::string(layer_name(layer)) + "_ms", ratio(layers_.self(layer), cells), "ms",
          layers_.cells);
    }
    const auto c = [this](const char* name) { return counters_[name]; };
    const auto share = [](double num, double other) { return ratio(num, num + other); };
    add("runtime.heap_replay_ratio",
        share(c("engine.heap_fast_lanes"), c("engine.heap_slow_lanes")), "ratio",
        layers_.cells);
    add("runtime.coll_cache_hit_ratio",
        share(c("engine.coll_cache_hits"), c("engine.coll_cache_misses")), "ratio",
        layers_.cells);
    add("runtime.msg_cache_hit_ratio",
        share(c("engine.msg_cache_hits"), c("engine.msg_cache_misses")), "ratio",
        layers_.cells);
    add("kernel.noise_analytic_ratio",
        share(c("engine.noise_analytic_sums") + c("engine.noise_analytic_maxima") +
                  c("engine.noise_gumbel_draws"),
              c("engine.noise_exact_events")),
        "ratio", layers_.cells);
    add("alloc.magazine_hit_ratio",
        share(c("alloc.magazine_hits"), c("alloc.magazine_misses")), "ratio", layers_.cells);
    add("alloc.lock_ns_per_cell",
        ratio(c("alloc.depot_lock_ns") + c("alloc.zone_lock_ns"), cells), "sim_ns",
        layers_.cells);
    const auto warm_s = warm_s_.median();
    if (warm_s) add("core.warm_prologue_ms", *warm_s * 1e3, "ms", warm_s_.count());
    add("core.store_bytes_per_cell",
        ratio(static_cast<double>(store_bytes_written_), static_cast<double>(store_writes_)),
        "B", store_writes_);
    add("core.store_hit_ratio",
        share(static_cast<double>(store_hits_), static_cast<double>(store_misses_)), "ratio",
        static_cast<std::size_t>(store_hits_ + store_misses_));
    add(percentile_metric("sim.pool_idle_frac", idle_frac_, 50.0, "ratio"),
        "sim.pool_idle_frac");
    add("sim.steals_per_cell",
        ratio(static_cast<double>(steals_), static_cast<double>(cold_cells_)), "steals/cell",
        cold_cells_);
    const auto traced = traced_pass_s_.median();
    const auto untraced = campaign_s_.median();
    if (traced && untraced) {
      add("trace.overhead_frac", *traced / *untraced - 1.0, "ratio", traced_pass_s_.count());
    }
    add("trace.span_coverage", layers_.coverage(), "ratio", layers_.cells);
    add("trace.cell_ms", ratio(layers_.cell_ms, cells), "ms", layers_.cells);
  }

  struct Sampled {
    std::string app;
    std::string config;
    int nodes = 0;
    std::uint64_t seed = 0;
    std::uint64_t digest = 0;
  };

  const WorkloadDef& def_;
  const RunOptions& opts_;
  ScratchDir scratch_;
  std::map<std::string, int> top_nodes_;
  std::unique_ptr<mkos::sim::WorkStealingPool> pool_;
  RunResult out_;
  std::size_t grid_cells_ = 0;

  Samples campaign_s_;
  Samples cell_ms_;
  Samples top_cell_ms_;
  Samples warm_s_;
  Samples idle_frac_;
  std::uint64_t steals_ = 0;
  std::uint64_t cold_cells_ = 0;
  std::uint64_t store_hits_ = 0;
  std::uint64_t store_misses_ = 0;
  std::vector<Sampled> sampled_;

  Samples traced_pass_s_;
  LayerTotals layers_;
  std::vector<CellTrace> kept_spans_;
  std::map<std::string, double> counters_;
  std::uint64_t store_writes_ = 0;
  std::uint64_t store_bytes_written_ = 0;
  std::uint64_t replica_mismatches_ = 0;
};

}  // namespace

namespace {

/// The one table of workloads.
std::vector<WorkloadDef> all_workloads() {
  const std::vector<core::SystemConfig> kernels = {core::SystemConfig::linux_default(),
                                                   core::SystemConfig::mckernel(),
                                                   core::SystemConfig::mos()};
  std::vector<WorkloadDef> defs(3);

  WorkloadDef& fig4 = defs[0];
  fig4.name = "fig4_serial";
  fig4.apps = fig4_grid_apps();
  fig4.configs = kernels;
  fig4.reps = 5;
  fig4.workers = 1;
  fig4.warm_passes = 4;
  fig4.pinned_digest = 0xe20525ae99276598ULL;

  WorkloadDef& numa = defs[1];
  numa.name = "numa_alloc";
  numa.apps = {"XSBench/first-touch", "XSBench/interleave", "XSBench/mcdram"};
  for (const core::SystemConfig& config : kernels) {
    numa.configs.push_back(with_alloc_model(config));
  }
  numa.reps = 3;
  numa.max_nodes = 256;
  numa.workers = pooled_workers();
  numa.warm_passes = 4;
  numa.pinned_digest = 0xac0dc1bdc531e886ULL;

  WorkloadDef& store = defs[2];
  store.name = "store_roundtrip";
  store.apps = fig4_grid_apps();
  store.configs = kernels;
  store.reps = 5;
  store.workers = pooled_workers();
  store.store = true;
  store.warm_passes = 3;
  store.pinned_digest = 0xe20525ae99276598ULL;
  return defs;
}

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadDef& def : all_workloads()) names.push_back(def.name);
  return names;
}

std::optional<WorkloadDef> find_workload(const std::string& name) {
  for (WorkloadDef& def : all_workloads()) {
    if (def.name == name) return std::move(def);
  }
  return std::nullopt;
}

core::CampaignSpec grid_spec(const WorkloadDef& def, std::uint64_t seed) {
  core::CampaignSpec spec;
  spec.apps = def.apps;
  spec.configs = def.configs;
  spec.reps = def.reps;
  spec.seed = seed;
  spec.max_nodes = def.max_nodes;
  return spec;
}

std::uint64_t cell_digest(const std::string& app, const std::string& config, int nodes,
                          const core::RunStats& stats) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv(h, app);
  h = fnv(h, config);
  h = fnv(h, std::to_string(nodes));
  for (const double v : stats.fom.samples()) {
    h = fnv(h, std::string_view(reinterpret_cast<const char*>(&v), sizeof v));
  }
  h = fnv(h, stats.unit);
  return fnv(h, stats.ledger.to_json());
}

std::uint64_t cell_digest(const core::CellResult& cell) {
  return cell_digest(cell.app, cell.config_label, cell.nodes, cell.stats);
}

std::uint64_t pass_digest(const std::vector<core::CellResult>& cells) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const core::CellResult& cell : cells) h = fnv(h, hex(cell_digest(cell)));
  return h;
}

WarmPass warm_pass(mkos::sim::TaskPool& pool, core::CellCache& cache, core::CellStore* store,
                   const core::CampaignSpec& spec,
                   const std::vector<std::uint64_t>& cold_digests) {
  std::optional<core::CellCache> fresh;
  if (store != nullptr) fresh.emplace(store);
  core::CellCache& served = store != nullptr ? *fresh : cache;
  const core::CellStoreCounters before =
      store != nullptr ? store->counters() : core::CellStoreCounters{};
  core::Campaign campaign(pool, served);
  const auto t0 = Clock::now();
  const std::vector<core::CellResult> cells = campaign.run(spec);
  WarmPass out;
  out.seconds = seconds_since(t0);
  out.cells = cells.size();
  std::uint64_t bad_cells = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!cells[i].from_cache || i >= cold_digests.size() ||
        cell_digest(cells[i]) != cold_digests[i]) {
      ++bad_cells;
    }
  }
  if (store != nullptr) {
    const core::CellStoreCounters after = store->counters();
    out.store_hits = after.hits - before.hits;
    // corrupt and key_mismatches are subsets of misses.
    out.store_misses = after.misses - before.misses;
  }
  out.failed = std::max(bad_cells, out.store_misses);
  return out;
}

RunResult run_benchmark(const WorkloadDef& def, const RunOptions& opts) {
  return Runner(def, opts).run();
}

}  // namespace perfbench
