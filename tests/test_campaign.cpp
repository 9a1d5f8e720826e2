// Unit tests: task pool, campaign engine, determinism and cell cache.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "core/campaign.hpp"
#include "core/obs_glue.hpp"
#include "sim/json.hpp"
#include "sim/thread_pool.hpp"
#include "sim/work_stealing_pool.hpp"
#include "workloads/app.hpp"

namespace {

using namespace mkos;
using namespace mkos::core;

// --------------------------------------------------------------- task pool

TEST(TaskPool, ParallelForCoversEveryIndexOnce) {
  sim::WorkStealingPool pool(3);
  std::vector<std::atomic<int>> seen(257);
  sim::parallel_for(pool, seen.size(), [&seen](std::size_t i) { seen[i].fetch_add(1); });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(TaskPool, DefaultThreadsHonorsEnvVar) {
  ASSERT_EQ(setenv("MKOS_THREADS", "3", 1), 0);
  EXPECT_EQ(sim::default_threads(), 3);
  ASSERT_EQ(unsetenv("MKOS_THREADS"), 0);
  EXPECT_GE(sim::default_threads(), 1);
}

TEST(TaskPool, DefaultThreadsRejectsGarbageEnv) {
  // std::atoi used to map "all" (and "0") to a silent hardware fallback;
  // sim::env_int makes misconfiguration a hard error instead.
  ASSERT_EQ(setenv("MKOS_THREADS", "all", 1), 0);
  EXPECT_EXIT((void)sim::default_threads(), ::testing::ExitedWithCode(2),
              "invalid environment");
  ASSERT_EQ(setenv("MKOS_THREADS", "0", 1), 0);
  EXPECT_EXIT((void)sim::default_threads(), ::testing::ExitedWithCode(2), "MKOS_THREADS");
  ASSERT_EQ(unsetenv("MKOS_THREADS"), 0);
}

// ------------------------------------------------------ work-stealing pool

TEST(WorkStealingPool, RunsEverySubmittedTask) {
  sim::WorkStealingPool pool(4);
  std::atomic<int> hits{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit_weighted(1.0, [&hits] { hits.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(hits.load(), 100);
  EXPECT_EQ(pool.completed(), 100u);
  EXPECT_EQ(pool.size(), 4);
}

TEST(WorkStealingPool, WeightedParallelForCoversEveryIndexOnce) {
  sim::WorkStealingPool pool(3);
  std::vector<std::atomic<int>> seen(257);
  std::vector<double> costs(seen.size());
  for (std::size_t i = 0; i < costs.size(); ++i) {
    costs[i] = static_cast<double>(i % 7 + 1);  // skewed, but every index runs
  }
  sim::parallel_for_weighted(pool, costs,
                             [&seen](std::size_t i) { seen[i].fetch_add(1); });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);

  // Every task was served exactly once: from the owner's deque or a steal.
  const sim::TaskPool::SchedTelemetry t = pool.sched_telemetry();
  EXPECT_EQ(t.local_pops + t.steals, seen.size());
  EXPECT_GT(t.imbalance, 0.0);  // something executed on some worker
}

TEST(WorkStealingPool, ParallelForPropagatesTheFirstException) {
  sim::WorkStealingPool pool(2);
  EXPECT_THROW(sim::parallel_for(pool, 8,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  pool.wait_idle();  // the pool must stay usable afterwards
  std::atomic<int> hits{0};
  sim::parallel_for(pool, 4, [&hits](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
}

TEST(AppCostWeight, LuleshCarriesTheSkewAndUnknownsDegradeToUnit) {
  for (const std::string& name : workloads::registry_names()) {
    EXPECT_GT(workloads::app_cost_weight(name), 0.0) << name;
    if (name != "Lulesh2.0") {
      EXPECT_GT(workloads::app_cost_weight("Lulesh2.0"),
                workloads::app_cost_weight(name))
          << name;
    }
  }
  EXPECT_DOUBLE_EQ(workloads::app_cost_weight("NoSuchApp"), 1.0);
}

// -------------------------------------------------------------- shard spec

TEST(ShardSpec, FromEnvDefaultsToUnshardedAndParsesSlices) {
  ASSERT_EQ(unsetenv(ShardSpec::kEnvVar), 0);
  EXPECT_FALSE(ShardSpec::from_env().sharded());
  EXPECT_EQ(ShardSpec::from_env().count, 1);
  ASSERT_EQ(setenv(ShardSpec::kEnvVar, "", 1), 0);
  EXPECT_FALSE(ShardSpec::from_env().sharded());
  ASSERT_EQ(setenv(ShardSpec::kEnvVar, "1/4", 1), 0);
  const ShardSpec s = ShardSpec::from_env();
  EXPECT_TRUE(s.sharded());
  EXPECT_EQ(s.index, 1);
  EXPECT_EQ(s.count, 4);
  ASSERT_EQ(setenv(ShardSpec::kEnvVar, "0/1", 1), 0);
  EXPECT_FALSE(ShardSpec::from_env().sharded());  // explicit singleton
  ASSERT_EQ(unsetenv(ShardSpec::kEnvVar), 0);
}

TEST(ShardSpec, FromEnvRejectsGarbage) {
  for (const char* bad : {"2", "a/b", "3/2", "2/2", "-1/2", "0/5000", "1/0"}) {
    ASSERT_EQ(setenv(ShardSpec::kEnvVar, bad, 1), 0);
    EXPECT_EXIT((void)ShardSpec::from_env(), ::testing::ExitedWithCode(2),
                "MKOS_SHARD")
        << bad;
  }
  ASSERT_EQ(unsetenv(ShardSpec::kEnvVar), 0);
}

TEST(ShardSpec, SlicesPartitionTheGridExactly) {
  // Without a store there is no stealing: shard i simulates exactly its
  // keyspace slice and skips the rest — the union over shards is the full
  // grid, pairwise disjoint.
  CampaignSpec spec;
  spec.apps = {"MiniFE", "HPCG"};
  spec.configs = {SystemConfig::linux_default(), SystemConfig::mckernel()};
  spec.nodes = {16, 32};
  spec.reps = 1;
  spec.seed = 11;

  sim::WorkStealingPool pool(2);
  std::set<std::size_t> owned;
  for (int shard = 0; shard < 3; ++shard) {
    CellCache cache;
    Campaign campaign(pool, cache);
    CampaignSpec sliced = spec;
    sliced.shard = ShardSpec{shard, 3};
    const auto cells = campaign.run(sliced);
    ASSERT_EQ(cells.size(), 8u);
    std::uint64_t skipped = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].skipped) {
        EXPECT_EQ(cells[i].stats.fom.count(), 0u);
        ++skipped;
        continue;
      }
      EXPECT_TRUE(owned.insert(i).second) << "cell " << i << " simulated twice";
    }
    EXPECT_EQ(campaign.telemetry().foreign_skipped, skipped);
  }
  EXPECT_EQ(owned.size(), 8u);
}

// ------------------------------------------------------------ fingerprints

TEST(Fingerprint, DistinguishesEveryKnob) {
  std::set<std::uint64_t> fps;
  fps.insert(SystemConfig::linux_default().fingerprint());
  fps.insert(SystemConfig::mckernel().fingerprint());
  fps.insert(SystemConfig::mos().fingerprint());
  SystemConfig c = SystemConfig::mckernel();
  c.mckernel_mpol_shm_premap = true;
  fps.insert(c.fingerprint());
  c.app_cores = 32;
  fps.insert(c.fingerprint());
  c.mem_mode = MemMode::kQuadrantFlat;
  fps.insert(c.fingerprint());
  EXPECT_EQ(fps.size(), 6u);
  EXPECT_EQ(SystemConfig::mckernel().fingerprint(), SystemConfig::mckernel().fingerprint());
}

TEST(Fingerprint, CellSeedsArePositional) {
  const SystemConfig cfg = SystemConfig::mos();
  const std::uint64_t fp = cell_fingerprint("HPCG", cfg, 16, 7);
  EXPECT_EQ(fp, cell_fingerprint("HPCG", cfg, 16, 7));
  EXPECT_NE(fp, cell_fingerprint("HPCG", cfg, 32, 7));
  EXPECT_NE(fp, cell_fingerprint("MILC", cfg, 16, 7));
  EXPECT_NE(fp, cell_fingerprint("HPCG", cfg, 16, 8));
  EXPECT_NE(rep_seed(fp, 0), rep_seed(fp, 1));
  EXPECT_NE(rep_seed(fp, 0, 0), rep_seed(fp, 0, 1));
}

TEST(Fingerprint, DigestRendersExactlyTheHashedKnobs) {
  // digest() must distinguish everything fingerprint() distinguishes — it
  // is the collision detector for the 64-bit hash.
  EXPECT_EQ(SystemConfig::mckernel().digest(), SystemConfig::mckernel().digest());
  EXPECT_NE(SystemConfig::mckernel().digest(), SystemConfig::mos().digest());
  SystemConfig c = SystemConfig::mckernel();
  SystemConfig d = c;
  d.mckernel_mpol_shm_premap = true;
  EXPECT_NE(c.digest(), d.digest());
  d = c;
  d.app_cores = 32;
  EXPECT_NE(c.digest(), d.digest());
  // An inert resilience spec stays invisible, like in fingerprint(): stored
  // cells must survive the fault subsystem being configured in or out.
  SystemConfig e = c;
  e.resilience = fault::Spec{};
  EXPECT_EQ(c.digest(), e.digest());
}

// ------------------------------------------------------------- determinism

TEST(Campaign, ParallelRunAppIsBitIdenticalToSerial) {
  auto app = workloads::make_minife();
  const RunStats serial = run_app(*app, SystemConfig::mckernel(), 16, 5, 1234);
  sim::WorkStealingPool pool(4);
  const RunStats parallel = run_app("MiniFE", SystemConfig::mckernel(), 16, 5, 1234, pool);
  ASSERT_EQ(parallel.fom.count(), serial.fom.count());
  EXPECT_EQ(parallel.unit, serial.unit);
  // Bit-identical, rep for rep — not merely statistically close.
  for (std::size_t i = 0; i < serial.fom.samples().size(); ++i) {
    EXPECT_EQ(parallel.fom.samples()[i], serial.fom.samples()[i]) << "rep " << i;
  }
}

TEST(Campaign, SweepMediansBitIdenticalAcrossThreadCounts) {
  const SystemConfig cfg = SystemConfig::mos();
  auto app = workloads::make_minife();
  const auto serial = scaling_sweep(*app, cfg, 3, 99, 64);
  sim::WorkStealingPool one(1);
  sim::WorkStealingPool many(4);
  const auto pooled1 = scaling_sweep("MiniFE", cfg, 3, 99, one, 64);
  const auto pooledN = scaling_sweep("MiniFE", cfg, 3, 99, many, 64);
  ASSERT_EQ(pooled1.size(), serial.size());
  ASSERT_EQ(pooledN.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(pooled1[i].nodes, serial[i].nodes);
    EXPECT_EQ(pooledN[i].nodes, serial[i].nodes);
    EXPECT_EQ(pooled1[i].median, serial[i].median);
    EXPECT_EQ(pooledN[i].median, serial[i].median);
    EXPECT_EQ(pooledN[i].min, serial[i].min);
    EXPECT_EQ(pooledN[i].max, serial[i].max);
  }
}

TEST(Campaign, WorkStealingChangesNoLedgerByte) {
  // The tentpole determinism proof: the same grid through a 1-worker pool
  // and a 4-worker pool (LPT placement + steals) must produce byte-identical
  // reporting documents. Scheduler telemetry is deliberately NOT recorded
  // here; SchedTelemetryStaysInTheHostBlock covers it.
  CampaignSpec spec;
  spec.apps = {"MiniFE", "HPCG", "Lulesh2.0"};
  spec.configs = {SystemConfig::linux_default(), SystemConfig::mckernel(),
                  SystemConfig::mos()};
  spec.nodes = {16, 32};
  spec.reps = 2;
  spec.seed = 21;

  const auto run_grid = [&spec](sim::TaskPool& pool) {
    CellCache cache;
    Campaign campaign(pool, cache);
    obs::RunLedger ledger;
    for (const CellResult& cell : campaign.run(spec)) {
      record_run_stats(ledger,
                       cell.app + "." + cell.config_label + ".n" +
                           std::to_string(cell.nodes),
                       cell.stats);
    }
    return ledger.to_json();
  };

  sim::WorkStealingPool one(1);
  sim::WorkStealingPool four(4);
  EXPECT_EQ(run_grid(four), run_grid(one));
}

TEST(Campaign, SchedTelemetryStaysInTheHostBlock) {
  // Steal and claim traffic depends on thread timing, so every
  // campaign.sched.* key must sit in the host block, and a recorded
  // campaign ledger must match across worker counts once that block goes.
  CampaignSpec spec;
  spec.apps = {"MiniFE", "Lulesh2.0"};
  spec.configs = {SystemConfig::linux_default(), SystemConfig::mckernel()};
  spec.nodes = {16, 32};
  spec.reps = 1;

  const auto campaign_json = [&spec](int workers) {
    sim::WorkStealingPool pool(workers);
    CellCache cache;
    Campaign campaign(pool, cache);
    obs::RunLedger ledger;
    for (const CellResult& cell : campaign.run(spec)) {
      record_run_stats(ledger,
                       cell.app + "." + cell.config_label + ".n" +
                           std::to_string(cell.nodes),
                       cell.stats);
    }
    record_campaign(ledger, campaign.telemetry(), pool.size(), nullptr);
    return ledger.to_json();
  };
  const std::string one = campaign_json(1);
  const std::string four = campaign_json(4);

  const auto doc = sim::json_parse(four);
  ASSERT_TRUE(doc.has_value());
  const sim::JsonValue* host = doc->find("host");
  ASSERT_NE(host, nullptr);
  for (const char* key : {"steals", "steal_fails", "local_pops", "claims", "claim_races",
                          "imbalance"}) {
    EXPECT_NE(host->find(std::string("campaign.sched.") + key), nullptr) << key;
  }
  for (const auto& [section, body] : doc->members()) {
    for (const auto& [name, value] : body.members()) {
      if (name.starts_with("campaign.sched.")) {
        EXPECT_EQ(section, "host") << name;
      }
    }
  }

  // The host block is the document's last section.
  const auto without_host = [](const std::string& json) {
    return json.substr(0, json.find("\n  \"host\": {"));
  };
  EXPECT_NE(without_host(four).size(), four.size());
  EXPECT_EQ(without_host(four), without_host(one));
}

// -------------------------------------------------------------- cell cache

TEST(Campaign, CacheHitsReturnTheSameRunStats) {
  sim::WorkStealingPool pool(4);
  CellCache cache;
  Campaign campaign(pool, cache);
  CampaignSpec spec;
  spec.apps = {"MiniFE", "HPCG"};
  spec.configs = {SystemConfig::linux_default(), SystemConfig::mckernel()};
  spec.nodes = {16, 32};
  spec.reps = 2;
  spec.seed = 5;

  const auto first = campaign.run(spec);
  ASSERT_EQ(first.size(), 8u);
  for (const auto& cell : first) EXPECT_FALSE(cell.from_cache);
  EXPECT_EQ(cache.size(), 8u);

  const auto second = campaign.run(spec);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(second[i].from_cache);
    EXPECT_EQ(second[i].app, first[i].app);
    EXPECT_EQ(second[i].nodes, first[i].nodes);
    EXPECT_EQ(second[i].stats.fom.samples(), first[i].stats.fom.samples());
    EXPECT_EQ(second[i].stats.unit, first[i].stats.unit);
  }
  EXPECT_EQ(campaign.telemetry().cells, 16u);
  EXPECT_EQ(campaign.telemetry().cache_hits, 8u);
  EXPECT_DOUBLE_EQ(campaign.telemetry().hit_rate(), 0.5);
}

TEST(Campaign, DuplicateCellsWithinOneRunSimulateOnce) {
  sim::WorkStealingPool pool(2);
  CellCache cache;
  Campaign campaign(pool, cache);
  CampaignSpec spec;
  spec.apps = {"MiniFE"};
  // The same config twice: the second column must be served as a cache hit.
  spec.configs = {SystemConfig::linux_default(), SystemConfig::linux_default()};
  spec.nodes = {16};
  spec.reps = 2;
  const auto cells = campaign.run(spec);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_FALSE(cells[0].from_cache);
  EXPECT_TRUE(cells[1].from_cache);
  EXPECT_EQ(cells[0].stats.fom.samples(), cells[1].stats.fom.samples());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(campaign.telemetry().cache_hits, 1u);
}

TEST(Campaign, GridOrderIsAppMajorAndCapped) {
  sim::WorkStealingPool pool(2);
  CellCache cache;
  Campaign campaign(pool, cache);
  CampaignSpec spec;
  spec.apps = {"MiniFE"};
  spec.configs = {SystemConfig::mckernel()};
  spec.reps = 1;
  spec.max_nodes = 64;  // MiniFE's own counts start at 16
  const auto cells = campaign.run(spec);
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].nodes, 16);
  EXPECT_EQ(cells[2].nodes, 64);
  EXPECT_EQ(cells[0].config_label, "McKernel");
  EXPECT_GT(cells[0].stats.median(), 0.0);
}

TEST(CellCache, FingerprintCollisionIsAMissNotTheWrongCell) {
  // Regression: the cache used to key on the 64-bit fingerprint alone, so
  // two cells colliding on the hash silently shared one result. The full
  // CellKey now rides along and is verified on every hit.
  CellCache cache;
  RunStats stats;
  stats.fom.add(123.0);
  stats.unit = "Mflops";
  const std::uint64_t key = 0xC0111DEDULL;  // one hash, two distinct cells
  const CellKey a{"MiniFE", SystemConfig::mckernel().digest(), 16, 2, 5};
  const CellKey b{"HPCG", SystemConfig::mos().digest(), 32, 2, 5};

  cache.store(key, a, stats);
  ASSERT_TRUE(cache.lookup(key, a).has_value());
  EXPECT_EQ(cache.collisions(), 0u);

  // The colliding cell must read as a miss, not as MiniFE's statistics.
  EXPECT_FALSE(cache.lookup(key, b).has_value());
  EXPECT_EQ(cache.collisions(), 1u);
  EXPECT_TRUE(cache.contains(key, a));
  EXPECT_FALSE(cache.contains(key, b));

  // Recompute-and-store is last-writer-wins on the colliding slot.
  cache.store(key, b, stats);
  EXPECT_FALSE(cache.lookup(key, a).has_value());
  EXPECT_TRUE(cache.lookup(key, b).has_value());
  EXPECT_EQ(cache.collisions(), 2u);
}

// --------------------------------------------------- relative_to guarding

TEST(Experiment, RelativeToSkipsDegenerateBaselines) {
  const std::vector<ScalingPoint> subject{
      {16, 110, 0, 0}, {32, 120, 0, 0}, {64, 130, 0, 0}, {128, 140, 0, 0}};
  const std::vector<ScalingPoint> baseline{
      {16, 100, 0, 0},
      {32, 0.0, 0, 0},                                        // zero: divide-by-zero
      {64, std::numeric_limits<double>::quiet_NaN(), 0, 0},   // NaN: poisons headline
      {128, -5.0, 0, 0}};                                     // negative: nonsense FOM
  const auto rel = relative_to(subject, baseline);
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel[0].nodes, 16);
  EXPECT_DOUBLE_EQ(rel[0].ratio, 1.1);
}

}  // namespace
