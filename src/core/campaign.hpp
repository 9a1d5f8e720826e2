#pragma once
// Parallel campaign engine.
//
// A campaign is an (app × config × nodes) cell grid, each cell being `reps`
// independent simulated runs. The runner fans cells out across a
// sim::TaskPool (a sim::WorkStealingPool: each cell carries a cost estimate,
// nodes × reps × app weight, and the heavy tail is placed first) and
// memoizes finished cells in a CellCache keyed by the cell fingerprint, so
// benches that share cells (every figure bench reuses the Linux baseline)
// hit the cache instead of resimulating. Determinism: seeds are positional
// (see core/experiment.hpp), so cell results are independent of thread
// count, scheduling, stealing, and cache state.
//
// The cache is two-tier: an in-memory map always, plus an optional
// disk-backed CellStore (core/cell_store.hpp) attached at construction.
// Each tier is resolved where it is cheap: Campaign::run probes the memory
// tier (CellCache::find) inline, in grid order, before the fan-out; every
// owned cell it does not serve becomes one pool task that loads the cell
// from the store (CellCache::load) or, failing that, simulates it. Stores
// write through; a disk hit populates the memory tier. Every tier stores
// the full CellKey next to the 64-bit hash and verifies it on hit, so a
// fingerprint collision is a detected miss, never the wrong cell's
// statistics.
//
// Sharding (DESIGN.md §16): MKOS_SHARD=<i>/<n> splits the cell keyspace
// deterministically (a cell belongs to shard key % n) so n processes over
// one shared store cover a grid together. A shard simulates its own slice,
// then steals unclaimed foreign cells through the store's O_EXCL .claim
// protocol; a final unsharded run over the warm store is the merge — every
// cell is a disk hit and the ledger is byte-identical to a single-process
// run modulo the host block and campaign.store.*.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/cell_store.hpp"
#include "core/experiment.hpp"
#include "sim/env.hpp"
#include "sim/histogram.hpp"
#include "sim/thread_pool.hpp"
#include "sim/thread_safety.hpp"

namespace mkos::core {

/// Thread-safe memoization of finished cells, keyed by
/// hash(cell_fingerprint, reps) and verified against the full CellKey.
/// Apps are identified by registry name, which pins their parameters, so
/// equal keys imply equal simulations.
class CellCache {
 public:
  CellCache() = default;
  /// Attach a disk tier (borrowed; may be nullptr for memory-only). The
  /// store must outlive the cache.
  explicit CellCache(CellStore* store) : store_(store) {}

  /// Memory tier only: a copy of the entry under `key` when it holds `id`.
  /// On a hash collision (entry present under `key` but with a different
  /// CellKey) the entry is not trusted: the collision is counted and the
  /// probe misses, so the caller goes on to load(). Counts hits and
  /// collisions; a miss is counted by the load() that follows.
  [[nodiscard]] std::optional<RunStats> find(std::uint64_t key, const CellKey& id)
      MKOS_EXCLUDES(mu_);
  /// Disk tier only: the store's verified entry (CellStore::load checks the
  /// header, checksum, schema and full key), which then fills the memory
  /// tier. Counts a hit, or a miss when no store is attached or the entry
  /// is absent, corrupt or another cell's.
  [[nodiscard]] std::optional<RunStats> load(std::uint64_t key, const CellKey& id)
      MKOS_EXCLUDES(mu_);
  /// Write-through: memory immediately, then the store (best-effort, I/O
  /// outside the cache mutex). Colliding keys are last-writer-wins.
  void store(std::uint64_t key, const CellKey& id, const RunStats& stats)
      MKOS_EXCLUDES(mu_);
  /// True when either tier holds a verified entry for (key, id), without
  /// rebuilding statistics. Does not perturb the memory tier's hit/miss
  /// counters.
  [[nodiscard]] bool contains(std::uint64_t key, const CellKey& id) MKOS_EXCLUDES(mu_);
  /// Clears the memory tier only; the disk tier persists by design.
  void clear() MKOS_EXCLUDES(mu_);

  [[nodiscard]] CellStore* disk() const { return store_; }
  [[nodiscard]] std::size_t size() const MKOS_EXCLUDES(mu_);
  /// find() and load() hits, either tier.
  [[nodiscard]] std::uint64_t hits() const MKOS_EXCLUDES(mu_);
  /// load() misses: cells neither tier served.
  [[nodiscard]] std::uint64_t misses() const MKOS_EXCLUDES(mu_);
  /// Memory-tier hash collisions detected (key verified, id differed).
  [[nodiscard]] std::uint64_t collisions() const MKOS_EXCLUDES(mu_);

 private:
  struct Entry {
    CellKey id;
    RunStats stats;
  };

  CellStore* store_ = nullptr;
  mutable sim::Mutex mu_;
  std::unordered_map<std::uint64_t, Entry> cells_ MKOS_GUARDED_BY(mu_);
  std::uint64_t hits_ MKOS_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ MKOS_GUARDED_BY(mu_) = 0;
  std::uint64_t collisions_ MKOS_GUARDED_BY(mu_) = 0;
};

/// Cache key for one cell; `reps` participates because a 2-rep and a 5-rep
/// cell share seeds but not statistics.
[[nodiscard]] std::uint64_t cell_cache_key(std::string_view app_name,
                                           const SystemConfig& config, int nodes,
                                           int reps, std::uint64_t seed);

/// One process's slice of a sharded sweep: this process owns the cells with
/// `key % count == index`. The default {0, 1} owns everything (unsharded).
struct ShardSpec {
  int index = 0;
  int count = 1;

  [[nodiscard]] bool sharded() const { return count > 1; }

  /// Environment variable: `MKOS_SHARD=<index>/<count>`.
  static constexpr const char* kEnvVar = "MKOS_SHARD";

  /// Parse MKOS_SHARD strictly (mirrors sim::env_int: unset/empty keeps the
  /// unsharded default; anything else must be <i>/<n> with
  /// 0 <= i < n <= 4096 or the process stops naming the variable).
  /// Header-inline so MKOS_CONTRACTS_THROW test builds get a catchable
  /// ContractViolation instead of exit(2).
  [[nodiscard]] static ShardSpec from_env() {
    const char* value = std::getenv(kEnvVar);
    if (value == nullptr || value[0] == '\0') return {};
    const std::string_view text(value);
    const std::size_t slash = text.find('/');
    std::optional<long long> index;
    std::optional<long long> count;
    if (slash != std::string_view::npos) {
      index = sim::parse_int(text.substr(0, slash));
      count = sim::parse_int(text.substr(slash + 1));
    }
    if (!index || !count || *count < 1 || *count > 4096 || *index < 0 ||
        *index >= *count) {
      shard_env_failure(value);
    }
    return ShardSpec{static_cast<int>(*index), static_cast<int>(*count)};
  }

 private:
  [[noreturn]] static void shard_env_failure(const char* value) {
    char msg[256];
    std::snprintf(msg, sizeof msg,
                  "%s='%s' (expected <index>/<count>, 0 <= index < count <= 4096)",
                  kEnvVar, value);
#ifdef MKOS_CONTRACTS_THROW
    throw sim::ContractViolation(std::string("mkos: invalid environment: ") + msg);
#else
    std::fprintf(stderr, "mkos: invalid environment: %s\n", msg);
    std::exit(2);  // user input error, not a program bug: no abort/core
#endif
  }
};

struct CampaignSpec {
  std::vector<std::string> apps;        ///< registry names (workloads::make_app)
  std::vector<SystemConfig> configs;
  std::vector<int> nodes;               ///< empty = each app's own node_counts()
  int reps = 5;
  std::uint64_t seed = 42;
  int max_nodes = 1 << 30;
  /// Sharded sweep: this process simulates only its keyspace slice, then
  /// steals unclaimed foreign cells when a store is attached. Foreign cells
  /// that were not stolen come back CellResult::skipped.
  ShardSpec shard;
};

struct CellResult {
  std::string app;
  std::string config_label;
  std::uint64_t config_fp = 0;
  int nodes = 0;
  RunStats stats;
  bool from_cache = false;
  double wall_ms = 0.0;  ///< host time to simulate (0 for cache hits)
  bool skipped = false;  ///< sharded run: foreign cell, stats left empty
};

/// Cumulative runner telemetry across Campaign::run calls.
struct CampaignTelemetry {
  std::uint64_t cells = 0;       ///< cells requested
  /// Cells served deterministically: memory-tier hits and in-run dups. A
  /// pure function of the request sequence — independent of disk state —
  /// so it belongs in the ledger's deterministic counter block.
  std::uint64_t cache_hits = 0;
  std::uint64_t store_hits = 0;  ///< cells served by the disk store (host state)
  double wall_seconds = 0.0;     ///< host wall time inside run()
  sim::Histogram cell_wall_ms{1e-3, 1e5, 4};  ///< per simulated cell, host ms

  // Scheduler telemetry (campaign.sched.* in the ledger's host block: it
  // depends on thread timing and on sibling shards). Pool counters are
  // per-run deltas of the pool's cumulative totals; claim counters come
  // from the store's claim protocol.
  std::uint64_t sched_steals = 0;       ///< tasks taken from a foreign deque
  std::uint64_t sched_steal_fails = 0;  ///< deque scans that raced to nothing
  std::uint64_t sched_local_pops = 0;   ///< tasks served from the owner deque
  std::uint64_t sched_claims = 0;       ///< cross-process claims acquired
  std::uint64_t sched_claim_races = 0;  ///< claims lost to a live owner
  double sched_imbalance = 0.0;  ///< max/mean executed cost across workers
  /// Sharded runs: foreign cells skipped (not stolen) / stolen and simulated.
  std::uint64_t foreign_skipped = 0;
  std::uint64_t stolen_cells = 0;

  [[nodiscard]] double cells_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(cells) / wall_seconds : 0.0;
  }
  /// Fraction of requested cells served without simulation (either tier).
  [[nodiscard]] double hit_rate() const {
    return cells > 0 ? static_cast<double>(cache_hits + store_hits) /
                           static_cast<double>(cells)
                     : 0.0;
  }
};

class Campaign {
 public:
  /// The cache is borrowed: share one across Campaign instances (and specs)
  /// to share cells across benches within a process. Cells are submitted
  /// heaviest-first (LPT) with their cost estimates.
  Campaign(sim::TaskPool& pool, CellCache& cache);

  /// Execute the cell grid. Results come back in deterministic grid order
  /// (app-major, then config, then nodes), independent of thread count
  /// and stealing — bit-identical by the positional-seed contract.
  [[nodiscard]] std::vector<CellResult> run(const CampaignSpec& spec);

  [[nodiscard]] const CampaignTelemetry& telemetry() const { return telemetry_; }

 private:
  sim::TaskPool& pool_;
  CellCache& cache_;
  CampaignTelemetry telemetry_;
};

/// Render telemetry with the sim/format toolkit (table + histogram).
[[nodiscard]] std::string describe(const CampaignTelemetry& t, int threads);

}  // namespace mkos::core
