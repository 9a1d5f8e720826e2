// The benchmark's own tests: percentile helper, replica fidelity, the
// correctness gate, and a short smoke run of every workload.
//
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "core/campaign.hpp"
#include "samples.hpp"
#include "sim/work_stealing_pool.hpp"
#include "trace.hpp"
#include "workload.hpp"
#include "workloads/app.hpp"

namespace {

namespace core = mkos::core;
namespace fs = std::filesystem;
using perfbench::Samples;
using perfbench::WorkloadDef;

Samples one_to(int n) {
  Samples s;
  for (int i = 1; i <= n; ++i) s.add(i);
  return s;
}

/// A workload shrunk to 1..16 nodes and one rep, with its pinned digest
/// recomputed for the smaller grid.
WorkloadDef small(const std::string& name) {
  WorkloadDef def = *perfbench::find_workload(name);
  def.max_nodes = 16;
  def.reps = 1;
  def.warm_passes = 1;
  mkos::sim::WorkStealingPool pool(def.workers);
  core::CellCache cache;
  core::Campaign campaign(pool, cache);
  def.pinned_digest =
      perfbench::pass_digest(campaign.run(perfbench::grid_spec(def, perfbench::kDefaultSeed)));
  return def;
}

const perfbench::Metric* find(const perfbench::RunResult& result, const std::string& name) {
  for (const perfbench::Metric& m : result.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

perfbench::RunOptions short_run(bool trace) {
  perfbench::RunOptions opts;
  opts.seed = 3;
  opts.seconds = 0.2;
  opts.trace = trace;
  opts.tmp_dir = ::testing::TempDir();
  return opts;
}

TEST(Samples, PercentilesInterpolateLinearly) {
  const Samples s = one_to(100);
  EXPECT_DOUBLE_EQ(*s.median(), 50.5);
  EXPECT_DOUBLE_EQ(*s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(*s.percentile(25), 25.75);
  EXPECT_DOUBLE_EQ(*s.percentile(90), 90.1);  // exactly 10 samples beyond
  EXPECT_EQ(s.count(), 100U);
}

TEST(Samples, TailPercentileNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(one_to(100).percentile(99).has_value());
  EXPECT_FALSE(one_to(999).percentile(99).has_value());
  ASSERT_TRUE(one_to(1000).percentile(99).has_value());
  EXPECT_NEAR(*one_to(1000).percentile(99), 990.01, 1e-9);
  EXPECT_FALSE(Samples{}.median().has_value());
  EXPECT_FALSE(one_to(10).percentile(101).has_value());
  const auto m = perfbench::percentile_metric("x_ms", one_to(3), 50, "ms");
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(m->value, 2.0);
  EXPECT_EQ(m->samples, 3U);
  EXPECT_FALSE(perfbench::percentile_metric("x_ms", one_to(3), 99, "ms").has_value());
}

TEST(Replica, MatchesRunAppByteForByteForEveryApp) {
  core::SystemConfig with_alloc = core::SystemConfig::linux_default();
  with_alloc.alloc.model_allocator = true;
  for (const std::string& name : mkos::workloads::registry_names()) {
    const bool xsbench = name.rfind("XSBench", 0) == 0;
    const core::SystemConfig config = xsbench ? with_alloc : core::SystemConfig::mckernel();
    const auto app = mkos::workloads::make_app(name);
    const int nodes = app->node_counts().front();
    const core::RunStats expected = core::run_app(*app, config, nodes, 2, 42);
    perfbench::CellTrace trace(7);
    const core::RunStats got = perfbench::traced_run_app(name, config, nodes, 2, 42, trace);
    EXPECT_EQ(got.ledger.to_json(), expected.ledger.to_json()) << name;
    EXPECT_EQ(got.fom.samples(), expected.fom.samples()) << name;
    EXPECT_EQ(got.unit, expected.unit) << name;

    std::set<std::string> layers;
    for (const perfbench::Span& span : trace.spans()) {
      layers.insert(perfbench::layer_name(span.layer));
      EXPECT_LE(span.start_ns, span.end_ns);
    }
    EXPECT_EQ(layers.size(), 10U) << name;  // kCell + nine layers below it
    perfbench::LayerTotals totals;
    totals.add(trace);
    EXPECT_EQ(totals.cells, 1U);
    EXPECT_GT(totals.coverage(), 0.5) << name;
  }
}

TEST(Replica, StoreRoundTripIsKeyedLikeTheCampaign) {
  const fs::path dir = fs::path(::testing::TempDir()) / "perfbench_replica_store";
  fs::remove_all(dir);
  core::CellStore store(dir.string());
  const core::SystemConfig config = core::SystemConfig::mos();
  perfbench::CellTrace trace;
  const core::RunStats stats = perfbench::traced_run_app("HPCG", config, 1, 1, 9, trace);
  ASSERT_TRUE(perfbench::traced_store_save(&store, "HPCG", config, 1, 1, 9, stats, trace));
  const auto loaded = perfbench::traced_store_load(&store, "HPCG", config, 1, 1, 9, trace);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->ledger.to_json(), stats.ledger.to_json());
  // The campaign finds the replica's entry under its own key.
  core::CellCache cache(&store);
  EXPECT_TRUE(cache.contains(core::cell_cache_key("HPCG", config, 1, 1, 9),
                             core::CellKey{"HPCG", config.digest(), 1, 1, 9}));
  fs::remove_all(dir);
}

TEST(Gate, CorruptStoreEntryFailsTheWarmPass) {
  WorkloadDef def = *perfbench::find_workload("store_roundtrip");
  def.apps = {"HPCG", "AMG2013"};
  def.max_nodes = 2;
  def.reps = 1;
  const core::CampaignSpec spec = perfbench::grid_spec(def, 5);
  const fs::path dir = fs::path(::testing::TempDir()) / "perfbench_gate_store";
  fs::remove_all(dir);
  core::CellStore store(dir.string());
  mkos::sim::WorkStealingPool pool(2);
  core::CellCache cache(&store);
  core::Campaign campaign(pool, cache);
  std::vector<std::uint64_t> digests;
  for (const core::CellResult& cell : campaign.run(spec)) {
    digests.push_back(perfbench::cell_digest(cell));
  }

  const perfbench::WarmPass clean = perfbench::warm_pass(pool, cache, &store, spec, digests);
  EXPECT_EQ(clean.cells, digests.size());
  EXPECT_EQ(clean.failed, 0U);
  EXPECT_EQ(clean.store_hits, digests.size());

  const core::SystemConfig& config = def.configs.front();
  const std::string entry =
      store.entry_path(core::cell_cache_key("HPCG", config, 1, 1, spec.seed));
  ASSERT_TRUE(fs::exists(entry));
  std::FILE* f = std::fopen(entry.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 40, SEEK_SET);
  std::fputs("garbage", f);
  std::fclose(f);
  const perfbench::WarmPass corrupt = perfbench::warm_pass(pool, cache, &store, spec, digests);
  EXPECT_GE(corrupt.failed, 1U);
  EXPECT_GE(corrupt.store_misses, 1U);

  // A perturbed cold digest fails the memory-tier check too.
  digests[1] ^= 1;
  EXPECT_EQ(perfbench::warm_pass(pool, cache, nullptr, spec, digests).failed, 1U);
  fs::remove_all(dir);
}

TEST(Gate, PerturbedPinnedDigestMakesFailedFracPositive) {
  WorkloadDef def = small("fig4_serial");
  def.pinned_digest ^= 1;
  const perfbench::RunResult result = perfbench::run_benchmark(def, short_run(false));
  EXPECT_GT(result.failed, 0U);
  EXPECT_GT(result.attempted, result.failed);
}

TEST(Smoke, EveryWorkloadCompletesCleanInBothModes) {
  for (const std::string& name : perfbench::workload_names()) {
    const WorkloadDef def = small(name);
    for (const bool trace : {false, true}) {
      const perfbench::RunResult result = perfbench::run_benchmark(def, short_run(trace));
      EXPECT_EQ(result.failed, 0U) << name << " trace=" << trace;
      EXPECT_GT(result.attempted, 0U) << name;
      EXPECT_FALSE(fs::exists(result.scratch_dir)) << "scratch dir left behind";
      const char* probe = trace ? "trace.span_coverage" : "campaign_s";
      ASSERT_NE(find(result, probe), nullptr) << name;
      if (trace) {
        EXPECT_GT(find(result, "trace.span_coverage")->value, 0.9) << name;
        EXPECT_GT(find(result, "workloads.run_ms")->value, 0.0) << name;
      } else {
        EXPECT_GT(find(result, "warm_cells_per_s")->value, 0.0) << name;
        EXPECT_GT(find(result, "top_cell_ms.p50")->value, 0.0) << name;
      }
    }
  }
}

}  // namespace
