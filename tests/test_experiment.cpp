// Unit tests: core experiment driver, config assembly, report formatting.

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "sim/format.hpp"

namespace {

using namespace mkos;
using namespace mkos::core;

TEST(Config, Presets) {
  EXPECT_EQ(SystemConfig::linux_default().label(), "Linux");
  EXPECT_EQ(SystemConfig::mckernel().label(), "McKernel");
  EXPECT_EQ(SystemConfig::mos().label(), "mOS");
  EXPECT_EQ(SystemConfig::for_os(kernel::OsKind::kMos).os, kernel::OsKind::kMos);
}

TEST(Config, MachineAssembly) {
  const auto m = SystemConfig::mckernel().machine(128);
  EXPECT_EQ(m.cluster.node_count(), 128);
  EXPECT_EQ(m.os.os, kernel::OsKind::kMcKernel);
  EXPECT_EQ(m.cluster.node().core_count(), 68);
  EXPECT_GT(m.cluster.network().kernel_involved_ops, 0.0);
}

TEST(Config, UserSpaceNetworkToggle) {
  SystemConfig c = SystemConfig::mckernel();
  c.user_space_network = true;
  EXPECT_DOUBLE_EQ(c.machine(4).cluster.network().kernel_involved_ops, 0.0);
}

TEST(Config, QuadrantModeTopology) {
  SystemConfig c = SystemConfig::linux_default();
  c.mem_mode = MemMode::kQuadrantFlat;
  EXPECT_EQ(c.machine(1).cluster.node().domains().size(), 2u);
}

TEST(Experiment, RunAppCollectsRequestedRepetitions) {
  auto app = workloads::make_minife();
  const RunStats rs = run_app(*app, SystemConfig::mckernel(), 16, 5, 1234);
  EXPECT_EQ(rs.fom.count(), 5u);
  EXPECT_GT(rs.median(), 0.0);
  EXPECT_LE(rs.min(), rs.median());
  EXPECT_GE(rs.max(), rs.median());
  EXPECT_EQ(rs.unit, "Mflops");
}

TEST(Experiment, DeterministicForSameSeed) {
  auto app = workloads::make_hpcg();
  const RunStats a = run_app(*app, SystemConfig::mos(), 4, 2, 99);
  const RunStats b = run_app(*app, SystemConfig::mos(), 4, 2, 99);
  EXPECT_DOUBLE_EQ(a.median(), b.median());
}

TEST(Experiment, ScalingSweepHonorsCapAndCounts) {
  auto app = workloads::make_minife();
  const auto sweep = scaling_sweep(*app, SystemConfig::mckernel(), 2, 7, 64);
  ASSERT_EQ(sweep.size(), 3u);  // 16, 32, 64
  EXPECT_EQ(sweep[0].nodes, 16);
  EXPECT_EQ(sweep[2].nodes, 64);
  for (const auto& p : sweep) {
    EXPECT_LE(p.min, p.median);
    EXPECT_GE(p.max, p.median);
  }
}

TEST(Experiment, RelativeToAlignsOnNodeCounts) {
  std::vector<ScalingPoint> subject{{16, 110, 0, 0}, {32, 120, 0, 0}, {64, 130, 0, 0}};
  std::vector<ScalingPoint> baseline{{16, 100, 0, 0}, {64, 100, 0, 0}};
  const auto rel = relative_to(subject, baseline);
  ASSERT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel[0].nodes, 16);
  EXPECT_DOUBLE_EQ(rel[0].ratio, 1.1);
  EXPECT_DOUBLE_EQ(rel[1].ratio, 1.3);
}

TEST(Experiment, HeadlineAggregation) {
  std::vector<std::vector<RelativePoint>> curves{
      {{1, 1.0}, {2, 1.1}},
      {{1, 1.2}, {2, 2.8}},
  };
  const Headline h = headline(curves);
  EXPECT_DOUBLE_EQ(h.best_ratio, 2.8);
  EXPECT_NEAR(h.median_ratio, 1.15, 1e-9);
}

TEST(Report, TableAlignsColumns) {
  sim::Table t{{"app", "nodes", "fom"}};
  t.add_row({"MiniFE", "1024", "1.2e7"});
  t.add_row({"HPCG", "16", "3.4"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| app    |"), std::string::npos);
  EXPECT_NE(s.find("|    16 |"), std::string::npos);  // right-aligned numbers
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Report, Formatters) {
  EXPECT_EQ(sim::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(sim::fmt_pct(1.21, 1), "121.0%");
  EXPECT_EQ(sim::fmt_sci(12345678.0, 2), "1.23e+07");
}

}  // namespace
