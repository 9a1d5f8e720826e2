// Unit tests: page-table shape accounting.

#include <gtest/gtest.h>

#include "core/config.hpp"
#include "mem/page_table.hpp"
#include "runtime/job.hpp"
#include "workloads/app.hpp"

namespace {

using namespace mkos;
using namespace mkos::mem;
using mkos::sim::GiB;
using mkos::sim::MiB;

TEST(PageTable, Empty) {
  const PageTableStats s = page_tables_for(Placement{});
  EXPECT_EQ(s.pte_tables, 0u);
  EXPECT_EQ(s.total_tables(), 1u);  // the root always exists
  EXPECT_DOUBLE_EQ(average_walk_depth(Placement{}), 0.0);
}

TEST(PageTable, FourKiloByteMappingsNeedDeepTables) {
  Placement p;
  p.add(0, PageSize::k4K, 1 * GiB);
  const PageTableStats s = page_tables_for(p);
  // 1 GiB / 4 KiB = 262,144 PTEs = 512 PTE tables = 1 PD = 1 PDPT.
  EXPECT_EQ(s.pte_tables, 512u);
  EXPECT_EQ(s.pd_tables, 1u);
  EXPECT_EQ(s.pdpt_tables, 1u);
  EXPECT_EQ(s.table_bytes(), (512u + 1 + 1 + 1) * 4096);
  EXPECT_DOUBLE_EQ(average_walk_depth(p), 4.0);
}

TEST(PageTable, HugePagesCollapseTheTables) {
  Placement p;
  p.add(0, PageSize::k2M, 1 * GiB);
  const PageTableStats s2m = page_tables_for(p);
  EXPECT_EQ(s2m.pte_tables, 0u);
  EXPECT_EQ(s2m.pd_tables, 1u);  // 512 x 2 MiB leaves fit one PD
  EXPECT_DOUBLE_EQ(average_walk_depth(p), 3.0);

  Placement g;
  g.add(0, PageSize::k1G, 8 * GiB);
  const PageTableStats s1g = page_tables_for(g);
  EXPECT_EQ(s1g.pte_tables, 0u);
  EXPECT_EQ(s1g.pd_tables, 0u);
  EXPECT_EQ(s1g.pdpt_tables, 1u);
  EXPECT_DOUBLE_EQ(average_walk_depth(g), 2.0);
}

TEST(PageTable, MixedPlacementWeightsDepth) {
  Placement p;
  p.add(0, PageSize::k4K, 1 * GiB);
  p.add(0, PageSize::k1G, 1 * GiB);
  EXPECT_DOUBLE_EQ(average_walk_depth(p), 3.0);  // (4 + 2) / 2
}

TEST(PageTable, NinetySixGigabytesAt4kCostsHundredsOfMegabytes) {
  // The DDR4 capacity of the node: the paper-scale motivation for large
  // pages — Linux's 4 KiB tables alone eat ~188 MiB.
  Placement p;
  p.add(0, PageSize::k4K, 96 * GiB);
  const PageTableStats s = page_tables_for(p);
  EXPECT_GT(s.table_bytes(), 180 * MiB);
  EXPECT_LT(s.table_bytes(), 200 * MiB);

  Placement q;
  q.add(0, PageSize::k1G, 96 * GiB);
  EXPECT_LT(page_tables_for(q).table_bytes(), 1 * MiB);
}

TEST(PageTable, LwkProcessesCarryShallowerTablesThanLinux) {
  auto app = workloads::make_hpcg();
  auto depth_for = [&](kernel::OsKind os) {
    const auto machine = core::SystemConfig::for_os(os).machine(1);
    runtime::Job job{machine, app->spec(1), 3};
    app->setup(job);
    Placement agg;
    job.lane(0).address_space().for_each([&](const Vma& v) {
      v.placement.for_each_chunk(
          [&](const Placement::Chunk& c) { agg.add(c.domain, c.page, c.bytes); });
    });
    return average_walk_depth(agg);
  };
  EXPECT_LT(depth_for(kernel::OsKind::kMcKernel), depth_for(kernel::OsKind::kLinux));
}

}  // namespace
