#include "core/campaign.hpp"

#include <chrono>
#include <utility>

#include "sim/contracts.hpp"
#include "sim/format.hpp"

namespace mkos::core {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   since)
      .count();
}

}  // namespace

std::optional<RunStats> CellCache::find(std::uint64_t key, const CellKey& id) {
  const sim::MutexLock lock(mu_);
  const auto it = cells_.find(key);
  if (it == cells_.end()) return std::nullopt;
  if (!(it->second.id == id)) {
    // Hash collision: the slot holds a different cell. Do not serve it; the
    // caller's load() asks the disk tier, which verifies the stored key
    // itself, and a miss there makes the caller recompute.
    ++collisions_;
    return std::nullopt;
  }
  ++hits_;
  return it->second.stats;
}

std::optional<RunStats> CellCache::load(std::uint64_t key, const CellKey& id) {
  std::optional<RunStats> loaded;
  if (store_ != nullptr) loaded = store_->load(key, id);
  if (!loaded) {
    const sim::MutexLock lock(mu_);
    ++misses_;
    return std::nullopt;
  }
  // Workers load concurrently: copy the entry before taking the mutex.
  Entry entry{id, *loaded};
  {
    const sim::MutexLock lock(mu_);
    cells_.insert_or_assign(key, std::move(entry));
    ++hits_;
  }
  return loaded;
}

void CellCache::store(std::uint64_t key, const CellKey& id, const RunStats& stats) {
  {
    const sim::MutexLock lock(mu_);
    cells_.insert_or_assign(key, Entry{id, stats});
  }
  // Disk write-through happens outside the cache mutex: serialization and
  // fsync must not serialize other workers' lookups.
  if (store_ != nullptr) (void)store_->save(key, id, stats);
}

bool CellCache::contains(std::uint64_t key, const CellKey& id) {
  {
    const sim::MutexLock lock(mu_);
    const auto it = cells_.find(key);
    if (it != cells_.end() && it->second.id == id) return true;
  }
  return store_ != nullptr && store_->contains(key, id);
}

void CellCache::clear() {
  const sim::MutexLock lock(mu_);
  cells_.clear();
}

std::size_t CellCache::size() const {
  const sim::MutexLock lock(mu_);
  return cells_.size();
}

std::uint64_t CellCache::hits() const {
  const sim::MutexLock lock(mu_);
  return hits_;
}

std::uint64_t CellCache::misses() const {
  const sim::MutexLock lock(mu_);
  return misses_;
}

std::uint64_t CellCache::collisions() const {
  const sim::MutexLock lock(mu_);
  return collisions_;
}

std::uint64_t cell_cache_key(std::string_view app_name, const SystemConfig& config,
                             int nodes, int reps, std::uint64_t seed) {
  // Reuse the seed-derivation hash with a stream tag far outside the rep
  // range, folding `reps` in: same cell, different rep count, different key.
  return rep_seed(cell_fingerprint(app_name, config, nodes, seed),
                  /*rep=*/reps, /*stream=*/0xCAC4EULL);
}

Campaign::Campaign(sim::TaskPool& pool, CellCache& cache)
    : pool_(pool), cache_(cache) {}

std::vector<CellResult> Campaign::run(const CampaignSpec& spec) {
  MKOS_EXPECTS(spec.reps >= 1);
  MKOS_EXPECTS(spec.shard.count >= 1);
  MKOS_EXPECTS(spec.shard.index >= 0 && spec.shard.index < spec.shard.count);
  const auto started = std::chrono::steady_clock::now();
  const auto sched0 = pool_.sched_telemetry();
  CellStore* store = cache_.disk();
  const auto claims0 =
      store != nullptr ? store->counters() : CellStoreCounters{};
  // Cross-process coordination needs the shared store; without one a shard
  // still runs (its slice only, nothing to steal from or publish to).
  const bool use_claims =
      spec.shard.sharded() && store != nullptr && store->ready();

  // Enumerate the grid in deterministic order.
  struct Cell {
    std::size_t result_index;
    std::string app;
    const SystemConfig* config;
    int nodes;
    std::uint64_t key;
    CellKey id;
  };
  std::vector<CellResult> results;
  std::vector<Cell> grid;
  for (const std::string& app_name : spec.apps) {
    const auto probe = workloads::make_app(app_name);
    MKOS_EXPECTS(probe != nullptr);
    std::vector<int> counts = spec.nodes;
    if (counts.empty()) counts = probe->node_counts();
    for (const SystemConfig& config : spec.configs) {
      const std::string config_digest = config.digest();
      for (const int nodes : counts) {
        if (nodes > spec.max_nodes) continue;
        const std::uint64_t key =
            cell_cache_key(app_name, config, nodes, spec.reps, spec.seed);
        grid.push_back(Cell{results.size(), app_name, &config, nodes, key,
                            CellKey{app_name, config_digest, nodes, spec.reps,
                                    spec.seed}});
        results.push_back(CellResult{app_name, config.label(), config.fingerprint(),
                                     nodes, RunStats{}, false, 0.0});
      }
    }
  }

  // Audit: each cell owns a distinct results slot, assigned in grid order —
  // a collision would let parallel workers cross-write each other's results.
  MKOS_AUDIT([&] {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (grid[i].result_index >= results.size()) return false;
      if (i > 0 && grid[i].result_index <= grid[i - 1].result_index) return false;
    }
    return true;
  }());

  // Serial prologue, in grid order: shard filter, in-run dedupe by key,
  // then a memory-tier probe of each first occurrence. Memory hits are a
  // pure function of the request sequence, so resolving them here, before
  // any worker fills the tier, keeps the deterministic cache_hits counter
  // independent of scheduling. A hit is one copy, moved into its result.
  std::vector<const Cell*> pending;  // owned first occurrences not served yet
  std::vector<const Cell*> foreign;  // sharded: another process's slice
  std::unordered_map<std::uint64_t, std::size_t> first_occurrence;
  std::vector<std::pair<std::size_t, std::size_t>> duplicates;  // (dst, src) indices
  // How each result was resolved; written by its own task, tallied after
  // the join in grid order.
  enum class Served : std::uint8_t { kNone, kMemory, kDisk, kSimulated };
  std::vector<Served> served(results.size(), Served::kNone);
  for (const Cell& cell : grid) {
    if (spec.shard.sharded() &&
        cell.key % static_cast<std::uint64_t>(spec.shard.count) !=
            static_cast<std::uint64_t>(spec.shard.index)) {
      // Foreign slice: skipped unless the steal phase below claims it. The
      // per-shard ledger is partial by design; the unsharded merge pass
      // over the shared store produces the canonical document.
      results[cell.result_index].skipped = true;
      foreign.push_back(&cell);
      continue;
    }
    const auto [it, inserted] = first_occurrence.try_emplace(cell.key, cell.result_index);
    if (!inserted) {
      duplicates.emplace_back(cell.result_index, it->second);
      continue;
    }
    if (auto cached = cache_.find(cell.key, cell.id)) {
      results[cell.result_index].stats = std::move(*cached);
      results[cell.result_index].from_cache = true;
      served[cell.result_index] = Served::kMemory;
      continue;
    }
    pending.push_back(&cell);
  }

  // Owned-slice fan-out: one task per pending cell loads the cell from the
  // store or simulates it — so disk loads scale with workers and a corrupt
  // entry is recomputed by the task that found it. Costs drive LPT
  // placement of the skewed tail. In a sharded run every simulated cell
  // is claimed first so sibling shards' steal scans can tell in-flight work
  // (live claim) from unstarted work (no claim).
  const auto cost_of = [&spec](const Cell& cell) {
    return static_cast<double>(cell.nodes) * static_cast<double>(spec.reps) *
           workloads::app_cost_weight(cell.app);
  };
  const auto simulate_cell = [&](const Cell& cell) {
    CellResult& out = results[cell.result_index];
    const auto cell_started = std::chrono::steady_clock::now();
    // Each task owns its App: no simulator state crosses threads.
    const auto app = workloads::make_app(cell.app);
    out.stats = run_app(*app, *cell.config, cell.nodes, spec.reps, spec.seed);
    out.wall_ms = elapsed_ms(cell_started);
    out.skipped = false;
    cache_.store(cell.key, cell.id, out.stats);
  };
  std::vector<double> costs;
  costs.reserve(pending.size());
  for (const Cell* cell : pending) costs.push_back(cost_of(*cell));
  sim::parallel_for_weighted(pool_, costs, [&](std::size_t i) {
    const Cell& cell = *pending[i];
    CellResult& out = results[cell.result_index];
    Served& how = served[cell.result_index];
    if (auto loaded = cache_.load(cell.key, cell.id)) {
      out.stats = std::move(*loaded);
      out.from_cache = true;
      how = Served::kDisk;
      return;
    }
    if (use_claims &&
        store->try_claim(cell.key) != CellStore::ClaimOutcome::kAcquired) {
      // A sibling shard stole this cell; its entry lands in the shared
      // store and the merge pass serves it from there.
      out.skipped = true;
      return;
    }
    simulate_cell(cell);
    if (use_claims) store->release_claim(cell.key);
    how = Served::kSimulated;
  });

  // Steal phase: this shard is out of owned work — scan the foreign slice
  // for cells nobody has published or claimed yet and take them. Duplicate
  // keys need one attempt only; a lost claim or a published entry means
  // some sibling has it covered.
  std::uint64_t stolen = 0;
  if (use_claims && !foreign.empty()) {
    std::vector<const Cell*> to_steal;
    std::unordered_map<std::uint64_t, bool> steal_seen;
    for (const Cell* cell : foreign) {
      if (!steal_seen.try_emplace(cell->key, true).second) continue;
      if (store->has_entry(cell->key)) continue;
      to_steal.push_back(cell);
    }
    std::vector<double> steal_costs;
    steal_costs.reserve(to_steal.size());
    for (const Cell* cell : to_steal) steal_costs.push_back(cost_of(*cell));
    sim::parallel_for_weighted(pool_, steal_costs, [&](std::size_t i) {
      const Cell& cell = *to_steal[i];
      if (store->try_claim(cell.key) != CellStore::ClaimOutcome::kAcquired) return;
      if (store->has_entry(cell.key)) {
        // Published between our scan and the claim (the owner releases its
        // claim only after the entry rename lands).
        store->release_claim(cell.key);
        return;
      }
      simulate_cell(cell);
      store->release_claim(cell.key);
    });
    for (const Cell* cell : to_steal) {
      if (!results[cell->result_index].skipped) ++stolen;
    }
  }

  // Duplicates copy their first occurrence and count as memory hits.
  for (const auto& [dst, src] : duplicates) {
    results[dst].stats = results[src].stats;
    results[dst].skipped = results[src].skipped;
    results[dst].from_cache = true;
    served[dst] = Served::kMemory;
  }

  // Memory hits and in-run duplicates are a pure function of the request
  // sequence (the deterministic cache_hits counter); disk hits depend on
  // what earlier processes left in the store (host state).
  for (const Cell& cell : grid) {
    switch (served[cell.result_index]) {
      case Served::kMemory:
        ++telemetry_.cache_hits;
        break;
      case Served::kDisk:
        ++telemetry_.store_hits;
        break;
      case Served::kSimulated:
        telemetry_.cell_wall_ms.add(results[cell.result_index].wall_ms);
        break;
      case Served::kNone:
        break;
    }
  }
  telemetry_.cells += grid.size();
  telemetry_.wall_seconds += elapsed_ms(started) / 1e3;
  const auto sched1 = pool_.sched_telemetry();
  telemetry_.sched_steals += sched1.steals - sched0.steals;
  telemetry_.sched_steal_fails += sched1.steal_fails - sched0.steal_fails;
  telemetry_.sched_local_pops += sched1.local_pops - sched0.local_pops;
  telemetry_.sched_imbalance = sched1.imbalance;
  if (store != nullptr) {
    const CellStoreCounters claims1 = store->counters();
    telemetry_.sched_claims += claims1.claims - claims0.claims;
    telemetry_.sched_claim_races += claims1.claim_races - claims0.claim_races;
  }
  telemetry_.stolen_cells += stolen;
  std::uint64_t foreign_skipped = 0;
  for (const Cell* cell : foreign) {
    if (results[cell->result_index].skipped) ++foreign_skipped;
  }
  telemetry_.foreign_skipped += foreign_skipped;
  return results;
}

std::string describe(const CampaignTelemetry& t, int threads) {
  sim::Table table{{"campaign telemetry", "value"}};
  table.add_row({"threads", std::to_string(threads)});
  table.add_row({"cells", std::to_string(t.cells)});
  table.add_row({"cache hits", std::to_string(t.cache_hits)});
  if (t.store_hits > 0) table.add_row({"store hits", std::to_string(t.store_hits)});
  table.add_row({"cache hit rate", sim::fmt_pct(t.hit_rate())});
  table.add_row({"wall seconds", sim::fmt(t.wall_seconds, 3)});
  table.add_row({"cells/s", sim::fmt(t.cells_per_second(), 1)});
  table.add_row({"sched steals", std::to_string(t.sched_steals)});
  table.add_row({"sched local pops", std::to_string(t.sched_local_pops)});
  table.add_row({"sched imbalance", sim::fmt(t.sched_imbalance, 3)});
  if (t.sched_claims > 0 || t.sched_claim_races > 0) {
    table.add_row({"shard claims", std::to_string(t.sched_claims)});
    table.add_row({"shard claim races", std::to_string(t.sched_claim_races)});
  }
  if (t.stolen_cells > 0 || t.foreign_skipped > 0) {
    table.add_row({"cells stolen", std::to_string(t.stolen_cells)});
    table.add_row({"foreign skipped", std::to_string(t.foreign_skipped)});
  }
  std::string out = table.to_string();
  if (t.cell_wall_ms.total() > 0) {
    out += "per-cell wall time (ms):\n";
    out += t.cell_wall_ms.to_string();
  }
  return out;
}

}  // namespace mkos::core
