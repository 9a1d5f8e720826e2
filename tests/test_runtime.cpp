// Unit tests: runtime — job launch/lanes, extreme-value noise statistics,
// MPI shared-memory setup, and the bulk-synchronous world.

#include <gtest/gtest.h>

#include "core/config.hpp"
#include "runtime/noise_extremes.hpp"
#include "runtime/shm.hpp"
#include "runtime/simmpi.hpp"

namespace {

using namespace mkos;
using namespace mkos::runtime;
using mkos::core::SystemConfig;
using mkos::sim::MiB;

Machine make_machine(kernel::OsKind os, int nodes) {
  return SystemConfig::for_os(os).machine(nodes);
}

// ------------------------------------------------------------------- Job

TEST(Job, LanesMatchRanksPerNode) {
  const Machine m = make_machine(kernel::OsKind::kLinux, 4);
  Job job{m, JobSpec{4, 64, 2}, 1};
  EXPECT_EQ(job.world_size(), 256);
  EXPECT_EQ(job.lane_count(), 64);
  EXPECT_EQ(job.lane(0).threads().size(), 2u);
}

TEST(Job, RanksSpreadAcrossQuadrants) {
  const Machine m = make_machine(kernel::OsKind::kMcKernel, 1);
  Job job{m, JobSpec{1, 64, 1}, 1};
  std::array<int, 4> per_quadrant{};
  for (int i = 0; i < job.lane_count(); ++i) {
    ++per_quadrant[static_cast<std::size_t>(job.lane(i).home_quadrant())];
  }
  for (int q = 0; q < 4; ++q) EXPECT_EQ(per_quadrant[static_cast<std::size_t>(q)], 16);
}

TEST(Job, EffectiveBandwidthReflectsPlacement) {
  const Machine lwk_m = make_machine(kernel::OsKind::kMcKernel, 1);
  Job lwk_job{lwk_m, JobSpec{1, 64, 1}, 1};
  const Machine lin_m = make_machine(kernel::OsKind::kLinux, 1);
  Job lin_job{lin_m, JobSpec{1, 64, 1}, 1};

  // Allocate 64 MiB per lane: LWK -> MCDRAM; Linux default -> DDR4.
  for (int i = 0; i < 64; ++i) {
    (void)lwk_job.kernel().sys_mmap(lwk_job.lane(i), 64 * MiB, mem::VmaKind::kAnon,
                                    mem::MemPolicy::standard());
    auto r = lin_job.kernel().sys_mmap(lin_job.lane(i), 64 * MiB, mem::VmaKind::kAnon,
                                       mem::MemPolicy::standard());
    (void)lin_job.kernel().touch(lin_job.lane(i), *r.vma, 64 * MiB, 64);
  }
  // MCDRAM-backed lanes should see ~5x the DDR4 per-rank bandwidth.
  EXPECT_GT(lwk_job.lane_effective_gbps(0), 4.0 * lin_job.lane_effective_gbps(0));
  EXPECT_GT(lwk_job.lane_fraction_in(0, hw::MemKind::kMcdram), 0.99);
  EXPECT_LT(lin_job.lane_fraction_in(0, hw::MemKind::kMcdram), 0.01);
}

// --------------------------------------------------------- NoiseExtremes

TEST(NoiseExtremes, MaxGrowsWithCoreCount) {
  const kernel::NoiseModel model = kernel::noise_linux_nohz_full();
  const NoiseExtremes ex{model};
  sim::Rng rng{1};
  const sim::TimeNs span = sim::milliseconds(20);
  double max_small = 0;
  double max_large = 0;
  for (int i = 0; i < 50; ++i) {
    max_small += ex.sample(span, 64, rng).max.sec();
    max_large += ex.sample(span, 131072, rng).max.sec();
  }
  EXPECT_GT(max_large, max_small * 2);
}

TEST(NoiseExtremes, MeanIndependentOfCoreCount) {
  const kernel::NoiseModel model = kernel::noise_linux_nohz_full();
  const NoiseExtremes ex{model};
  sim::Rng rng{2};
  const sim::TimeNs span = sim::milliseconds(50);
  const auto a = ex.sample(span, 64, rng);
  const auto b = ex.sample(span, 65536, rng);
  EXPECT_NEAR(static_cast<double>(a.mean.ns()), static_cast<double>(b.mean.ns()),
              static_cast<double>(a.mean.ns()) * 0.05 + 1.0);
}

TEST(NoiseExtremes, LwkNoiseStaysTiny) {
  const kernel::NoiseModel model = kernel::noise_lwk();
  const NoiseExtremes ex{model};
  sim::Rng rng{3};
  const auto w = ex.sample(sim::milliseconds(10), 131072, rng);
  EXPECT_LT(w.max.us(), 200.0);  // microseconds, not milliseconds
}

TEST(NoiseExtremes, MeanFractionMatchesModel) {
  const kernel::NoiseModel model = kernel::noise_linux_nohz_full();
  const NoiseExtremes ex{model};
  EXPECT_NEAR(ex.mean_fraction(), model.expected_fraction(),
              model.expected_fraction() * 0.35);
}

TEST(NoiseExtremes, ZeroSpanIsFree) {
  const NoiseExtremes ex{kernel::noise_linux_nohz_full()};
  sim::Rng rng{4};
  const auto w = ex.sample(sim::TimeNs{0}, 1024, rng);
  EXPECT_EQ(w.max.ns(), 0);
  EXPECT_EQ(w.mean.ns(), 0);
}

// ------------------------------------------------------------------- shm

TEST(Shm, PremapAvoidsFaultStorm) {
  core::SystemConfig plain = core::SystemConfig::mckernel();
  core::SystemConfig premap = core::SystemConfig::mckernel();
  premap.mckernel_mpol_shm_premap = true;

  const Machine m1 = plain.machine(1);
  Job j1{m1, JobSpec{1, 64, 1}, 1};
  const auto r1 = setup_mpi_shm(j1, 128 * MiB);
  EXPECT_FALSE(r1.premapped);
  EXPECT_GT(r1.faults, 0u);

  const Machine m2 = premap.machine(1);
  Job j2{m2, JobSpec{1, 64, 1}, 1};
  const auto r2 = setup_mpi_shm(j2, 128 * MiB);
  EXPECT_TRUE(r2.premapped);
  EXPECT_EQ(r2.faults, 0u);
  EXPECT_LT(r2.per_rank_cost.ns(), r1.per_rank_cost.ns());
}

// ---------------------------------------------------------------- MpiWorld

TEST(MpiWorld, ComputeAdvancesClockOnSync) {
  const Machine m = make_machine(kernel::OsKind::kMcKernel, 2);
  Job job{m, JobSpec{2, 64, 1}, 1};
  MpiWorld world{job, 42};
  world.compute_time(sim::milliseconds(5));
  EXPECT_EQ(world.elapsed().ns(), 0);  // pending until a sync point
  world.barrier();
  EXPECT_GT(world.elapsed().ms(), 5.0);
}

TEST(MpiWorld, AllreduceCostGrowsWithScale) {
  auto collective_time = [](int nodes) {
    const Machine m = make_machine(kernel::OsKind::kMcKernel, nodes);
    Job job{m, JobSpec{nodes, 64, 1}, 1};
    MpiWorld world{job, 7};
    for (int i = 0; i < 10; ++i) world.allreduce(8);
    return world.finish().ns();
  };
  EXPECT_GT(collective_time(1024), collective_time(4));
}

TEST(MpiWorld, LinuxNoiseInflatesLargeScaleIterations) {
  auto iteration_time = [](kernel::OsKind os) {
    const Machine m = make_machine(os, 1024);
    Job job{m, JobSpec{1024, 64, 4}, 1};
    MpiWorld world{job, 11};
    for (int i = 0; i < 20; ++i) {
      world.compute_time(sim::microseconds(150));
      world.allreduce(8);
    }
    return world.finish().sec();
  };
  const double lin = iteration_time(kernel::OsKind::kLinux);
  const double mck = iteration_time(kernel::OsKind::kMcKernel);
  EXPECT_GT(lin, mck * 2) << "the MiniFE mechanism: collective noise amplification";
}

TEST(MpiWorld, HaloSyncsNeighborhoodNotWorld) {
  const Machine m = make_machine(kernel::OsKind::kLinux, 1024);
  Job job{m, JobSpec{1024, 64, 1}, 1};
  MpiWorld w1{job, 3};
  MpiWorld w2{job, 3};
  for (int i = 0; i < 10; ++i) {
    w1.compute_time(sim::milliseconds(2));
    w1.halo_exchange(64 * sim::KiB, 6);
    w2.compute_time(sim::milliseconds(2));
    w2.allreduce(8);
  }
  EXPECT_LT(w1.finish().ns(), w2.finish().ns());
}

TEST(MpiWorld, KernelInvolvedNetworkTaxesLwkMessages) {
  const Machine mck = make_machine(kernel::OsKind::kMcKernel, 64);
  const Machine lin = make_machine(kernel::OsKind::kLinux, 64);
  auto msg_time = [](const Machine& m) {
    Job job{m, JobSpec{64, 64, 1}, 1};
    MpiWorld world{job, 5};
    for (int i = 0; i < 100; ++i) world.halo_exchange(64 * sim::KiB, 6);
    return world.finish().ns();
  };
  EXPECT_GT(msg_time(mck), msg_time(lin));
}

TEST(MpiWorld, FinishDrainsPendingWork) {
  const Machine m = make_machine(kernel::OsKind::kMos, 1);
  Job job{m, JobSpec{1, 4, 1}, 1};
  MpiWorld world{job, 9};
  world.compute_time(sim::milliseconds(1));
  const auto t = world.finish();
  EXPECT_GE(t.ms(), 1.0);
}

}  // namespace
