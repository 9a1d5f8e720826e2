// Unit tests for mkos::alloc — the VMem interval arena, the per-CPU
// magazine SlabCache (refill cascade, resize hysteresis, drain), the
// DomainAllocator traffic hook that attributes kernel-heap refills per
// lane, the per-kernel personality separation, and the inert-by-default
// contract (an AllocSpec{} config keeps its pre-subsystem
// fingerprint/digest). Worker-count ledger identity with the model enabled
// is covered by Campaign.WorkStealingChangesNoLedgerByte.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alloc/model.hpp"
#include "alloc/slab.hpp"
#include "alloc/spec.hpp"
#include "alloc/vmem.hpp"
#include "core/config.hpp"
#include "hw/knl.hpp"
#include "mem/phys_allocator.hpp"
#include "sim/units.hpp"

namespace {

using namespace mkos;

// ----------------------------------------------------------------- VmemArena

alloc::VmemArena make_arena(sim::Bytes backing,
                            sim::Bytes quantum = 4 * sim::KiB,
                            sim::Bytes import_quantum = 64 * sim::KiB) {
  // Import grants in import_quantum multiples until `backing` runs out.
  auto import = [backing, granted = sim::Bytes{0}](sim::Bytes want) mutable {
    const sim::Bytes left = backing > granted ? backing - granted : 0;
    const sim::Bytes give = want <= left ? want : 0;
    granted += give;
    return give;
  };
  return alloc::VmemArena("test", quantum, import_quantum, import,
                          sim::TimeNs{50}, sim::TimeNs{400});
}

TEST(VmemArena, AllocImportsAndQuantumCacheServesTheFree) {
  alloc::VmemArena arena = make_arena(sim::Bytes{1} * sim::MiB);
  const alloc::VmemAlloc a = arena.alloc(4 * sim::KiB);
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(arena.stats().imports, 1u);      // empty arena imported first
  EXPECT_GT(a.cost.ns(), 0);
  EXPECT_EQ(arena.span_bytes(), 64 * sim::KiB);

  (void)arena.free(a.offset, 4 * sim::KiB);  // lands in the quantum cache
  const alloc::VmemAlloc b = arena.alloc(4 * sim::KiB);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(b.offset, a.offset);             // constant-time pop of the same slot
  EXPECT_EQ(arena.stats().qcache_hits, 1u);
  EXPECT_EQ(arena.stats().allocs, 2u);
  EXPECT_EQ(arena.stats().frees, 1u);
}

TEST(VmemArena, FreeCoalescesNeighborsBackToOneSegment) {
  alloc::VmemArena arena = make_arena(sim::Bytes{1} * sim::MiB);
  // 5 quanta = 20 KiB: above the quantum-cache classes, so frees take the
  // segment path and must coalesce.
  const sim::Bytes sz = 20 * sim::KiB;
  const alloc::VmemAlloc a = arena.alloc(sz);
  const alloc::VmemAlloc b = arena.alloc(sz);
  const alloc::VmemAlloc c = arena.alloc(sz);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  ASSERT_TRUE(c.ok);
  ASSERT_EQ(arena.free_segment_count(), 1u);  // one tail remainder
  // Free out of order: middle, head, tail — ends fully coalesced.
  (void)arena.free(b.offset, sz);
  EXPECT_EQ(arena.free_segment_count(), 2u);
  (void)arena.free(a.offset, sz);
  EXPECT_EQ(arena.free_segment_count(), 2u);  // a+b merged, tail separate
  (void)arena.free(c.offset, sz);
  EXPECT_EQ(arena.free_segment_count(), 1u);  // whole span free again
}

TEST(VmemArena, ExhaustedSourceFailsTheAllocAndCountsIt) {
  alloc::VmemArena arena = make_arena(sim::Bytes{0});  // source grants nothing
  const alloc::VmemAlloc a = arena.alloc(4 * sim::KiB);
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(arena.stats().import_fails, 1u);
  EXPECT_EQ(arena.span_bytes(), 0u);  // short grants must not grow the span
  EXPECT_EQ(arena.stats().allocs, 0u);
}

// ----------------------------------------------------------------- SlabCache

TEST(SlabCache, EmptyDepotCascadesToSlabConstruction) {
  alloc::VmemArena arena = make_arena(sim::Bytes{4} * sim::MiB);
  alloc::SlabCosts costs;
  costs.cpu_hit = sim::TimeNs{10};
  costs.depot_lock = sim::TimeNs{50};
  costs.zone_lock = sim::TimeNs{200};
  // 64 KiB slabs of 4 KiB objects = 16 rounds per slab.
  alloc::SlabCache cache(&arena, 4 * sim::KiB, 64 * sim::KiB, costs,
                         alloc::MagazinePolicy{}, /*cpus=*/2);

  const sim::TimeNs cost = cache.churn(0, 40, 1, 1.0, 1.0);
  // Nothing cached anywhere: every round misses through to fresh slabs.
  EXPECT_EQ(cache.stats().magazine_hits, 0u);
  EXPECT_EQ(cache.stats().magazine_misses, 40u);
  EXPECT_EQ(cache.stats().depot_loads, 0u);  // depot was empty
  EXPECT_EQ(cache.stats().slab_creates, 3u);  // ceil(40 / 16)
  EXPECT_GE(arena.stats().imports, 1u);       // cascade reached the source
  // The burst's 40 frees: the CPU keeps two magazines (16), rest unloads.
  EXPECT_EQ(cache.cached_rounds(0), 16u);
  EXPECT_EQ(cache.depot_rounds(), (3u * 16u - 40u) + 24u);
  EXPECT_GT(cost.ns(), (costs.cpu_hit * 80).ns());  // locks + arena on top

  // Second identical burst: the cache and depot now serve part of it.
  (void)cache.churn(0, 40, 1, 1.0, 1.0);
  EXPECT_EQ(cache.stats().magazine_hits, 16u);
  EXPECT_GT(cache.stats().depot_loads, 0u);
}

TEST(SlabCache, MagazineResizeGrowsUnderPressureAndShrinksWhenQuiet) {
  alloc::VmemArena arena = make_arena(sim::Bytes{16} * sim::MiB);
  alloc::MagazinePolicy policy;
  policy.min_rounds = 8;
  policy.max_rounds = 64;
  policy.grow_trip_threshold = 4;
  policy.shrink_quiet_bursts = 2;
  alloc::SlabCache cache(&arena, 4 * sim::KiB, 64 * sim::KiB,
                         alloc::SlabCosts{}, policy, 1);
  ASSERT_EQ(cache.magazine_rounds(0), 8);

  // A large burst forces many depot unload trips -> grow.
  (void)cache.churn(0, 200, 1, 1.0, 1.0);
  EXPECT_EQ(cache.magazine_rounds(0), 16);
  EXPECT_EQ(cache.stats().resizes_up, 1u);

  // Bursts served entirely from the per-CPU layer are depot-quiet; after
  // the configured streak the magazine halves again.
  (void)cache.churn(0, 8, 1, 1.0, 1.0);
  EXPECT_EQ(cache.magazine_rounds(0), 16);  // quiet streak not complete
  (void)cache.churn(0, 8, 1, 1.0, 1.0);
  EXPECT_EQ(cache.magazine_rounds(0), 8);
  EXPECT_EQ(cache.stats().resizes_down, 1u);
}

TEST(SlabCache, DrainReturnsPerCpuRoundsToTheDepot) {
  alloc::VmemArena arena = make_arena(sim::Bytes{4} * sim::MiB);
  alloc::SlabCache cache(&arena, 4 * sim::KiB, 64 * sim::KiB,
                         alloc::SlabCosts{}, alloc::MagazinePolicy{}, 2);
  (void)cache.churn(1, 40, 2, 1.0, 1.0);
  const std::uint64_t cached = cache.cached_rounds(1);
  ASSERT_GT(cached, 0u);
  const std::uint64_t depot = cache.depot_rounds();

  cache.drain(1);
  EXPECT_EQ(cache.cached_rounds(1), 0u);
  EXPECT_EQ(cache.depot_rounds(), depot + cached);
  const std::uint64_t unloads = cache.stats().depot_unloads;
  cache.drain(1);  // idempotent on an empty cache
  EXPECT_EQ(cache.stats().depot_unloads, unloads);
}

TEST(SlabCache, LockCostsScaleWithActiveCpus) {
  alloc::VmemArena a1 = make_arena(sim::Bytes{4} * sim::MiB);
  alloc::VmemArena a2 = make_arena(sim::Bytes{4} * sim::MiB);
  alloc::SlabCosts costs;
  costs.cpu_hit = sim::TimeNs{10};
  costs.depot_lock = sim::TimeNs{60};
  costs.zone_lock = sim::TimeNs{220};
  costs.lock_contention = 0.35;
  alloc::SlabCache alone(&a1, 4 * sim::KiB, 64 * sim::KiB, costs,
                         alloc::MagazinePolicy{}, 64);
  alloc::SlabCache crowded(&a2, 4 * sim::KiB, 64 * sim::KiB, costs,
                           alloc::MagazinePolicy{}, 64);
  const sim::TimeNs solo = alone.churn(0, 100, 1, 1.0, 1.0);
  const sim::TimeNs packed = crowded.churn(0, 100, 64, 1.0, 1.0);
  EXPECT_GT(packed.ns(), solo.ns());
}

// ------------------------------------------------- DomainAllocator traffic

TEST(TrafficHook, AttributesBestEffortAllocationsToTheTaggedCaller) {
  const hw::NodeTopology topo = hw::knl_snc4_flat();
  mem::PhysMemory phys(topo);
  const hw::DomainId d = topo.domains_of_kind(hw::MemKind::kDdr4).front();
  mem::DomainAllocator& da = phys.domain(d);

  std::vector<std::pair<int, sim::Bytes>> seen;
  da.set_traffic_hook([&seen](int caller, sim::Bytes length) {
    seen.emplace_back(caller, length);
  });
  ASSERT_TRUE(da.has_traffic_hook());

  (void)da.alloc_best_effort(2 * sim::MiB, 4 * sim::KiB);  // unattributed
  da.set_traffic_caller(3);
  (void)da.alloc_best_effort(1 * sim::MiB, 4 * sim::KiB);
  da.set_traffic_caller(-1);
  (void)da.alloc_best_effort(4 * sim::KiB, 4 * sim::KiB);

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<int, sim::Bytes>{-1, 2 * sim::MiB}));
  EXPECT_EQ(seen[1], (std::pair<int, sim::Bytes>{3, 1 * sim::MiB}));
  EXPECT_EQ(seen[2], (std::pair<int, sim::Bytes>{-1, 4 * sim::KiB}));
}

// ------------------------------------------------------------ NodeAllocModel

alloc::AllocSpec enabled_spec() {
  alloc::AllocSpec spec;
  spec.model_allocator = true;
  return spec;
}

TEST(NodeAllocModel, LinuxChurnCostsMoreThanTheLwkAtScale) {
  const hw::NodeTopology topo = hw::knl_snc4_flat();
  mem::PhysMemory phys_linux(topo);
  mem::PhysMemory phys_mos(topo);
  constexpr int kLanes = 64;
  alloc::NodeAllocModel linux_model(topo, phys_linux, kernel::OsKind::kLinux,
                                    enabled_spec(), kLanes);
  alloc::NodeAllocModel mos_model(topo, phys_mos, kernel::OsKind::kMos,
                                  enabled_spec(), kLanes);

  sim::TimeNs linux_cost{0};
  sim::TimeNs mos_cost{0};
  for (int burst = 0; burst < 4; ++burst) {
    linux_cost += linux_model.churn(0, 4000, 4 * sim::KiB);
    mos_cost += mos_model.churn(0, 4000, 4 * sim::KiB);
  }
  // Zone/depot lock contention across 64 lanes is the Linux differentiator.
  EXPECT_GT(linux_cost.ns(), 2 * mos_cost.ns());

  const alloc::AllocCounters c = linux_model.counters();
  EXPECT_GT(c.magazine_misses, 0u);
  EXPECT_GT(c.slab_creates, 0u);
  EXPECT_GT(c.vmem_imports, 0u);
  EXPECT_GT(c.refill_bytes, 0u);
  EXPECT_GT(linux_model.lane_refill_bytes(0), 0u);
}

TEST(NodeAllocModel, ChurnSequenceIsDeterministic) {
  const hw::NodeTopology topo = hw::knl_snc4_flat();
  mem::PhysMemory phys_a(topo);
  mem::PhysMemory phys_b(topo);
  alloc::NodeAllocModel a(topo, phys_a, kernel::OsKind::kMcKernel,
                          enabled_spec(), 8);
  alloc::NodeAllocModel b(topo, phys_b, kernel::OsKind::kMcKernel,
                          enabled_spec(), 8);
  for (int i = 0; i < 16; ++i) {
    const int lane = i % 8;
    EXPECT_EQ(a.churn(lane, 500 + i, 4 * sim::KiB).ns(),
              b.churn(lane, 500 + i, 4 * sim::KiB).ns());
  }
  a.drain_lanes();
  b.drain_lanes();
  EXPECT_EQ(a.counters().depot_unloads, b.counters().depot_unloads);
  EXPECT_EQ(a.counters().vmem_import_bytes, b.counters().vmem_import_bytes);
}

TEST(NodeAllocModel, LinuxReclaimDaemonTrimsTheDepot) {
  const hw::NodeTopology topo = hw::knl_snc4_flat();
  mem::PhysMemory phys(topo);
  alloc::NodeAllocModel model(topo, phys, kernel::OsKind::kLinux,
                              enabled_spec(), 4);
  // One huge burst floods the depot well past the reclaim threshold.
  (void)model.churn(0, 60000, 4 * sim::KiB);
  const alloc::AllocCounters c = model.counters();
  EXPECT_GE(c.reclaims, 1u);
  EXPECT_GE(c.reclaimed_slabs, 1u);
  EXPECT_EQ(c.reclaimed_slabs, c.slab_frees);
}

TEST(NodeAllocModel, LwkPersonalitiesNeverRunAReclaimDaemon) {
  const hw::NodeTopology topo = hw::knl_snc4_flat();
  mem::PhysMemory phys(topo);
  alloc::NodeAllocModel model(topo, phys, kernel::OsKind::kMos,
                              enabled_spec(), 4);
  (void)model.churn(0, 60000, 4 * sim::KiB);
  EXPECT_EQ(model.counters().reclaims, 0u);
}

// ------------------------------------------------------------ the contracts

TEST(AllocSpec, InertSpecKeepsFingerprintAndDigest) {
  const core::SystemConfig base = core::SystemConfig::mos();
  // Knob changes on a DISABLED spec must not perturb cache keys: the spec
  // only folds in when enabled(), like fault::Spec.
  core::SystemConfig tweaked = core::SystemConfig::mos();
  tweaked.alloc.contention_scale = 7.0;
  tweaked.alloc.magazine_cap = 32;
  EXPECT_EQ(base.fingerprint(), tweaked.fingerprint());
  EXPECT_EQ(base.digest(), tweaked.digest());
  // And the digest of an inert config must not even mention the subsystem —
  // an unconditional "alloc=off" token would invalidate every stored cell.
  EXPECT_EQ(base.digest().find("alloc"), std::string::npos);

  core::SystemConfig on = core::SystemConfig::mos();
  on.alloc.model_allocator = true;
  EXPECT_NE(on.fingerprint(), base.fingerprint());
  EXPECT_NE(on.digest().find("alloc="), std::string::npos);

  on.alloc.contention_scale = 0.5;
  EXPECT_NE(on.fingerprint(), core::SystemConfig::mos().fingerprint());
}

}  // namespace
