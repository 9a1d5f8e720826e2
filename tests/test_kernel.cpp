// Unit tests: kernel models — dispositions, capabilities, functional
// syscalls, node boot & IHK partitioning, pseudo-fs, noise, scheduler.

#include <gtest/gtest.h>

#include "hw/knl.hpp"
#include "kernel/node.hpp"
#include "kernel/noise.hpp"
#include "kernel/scheduler.hpp"

namespace {

using namespace mkos;
using namespace mkos::kernel;
using mkos::sim::GiB;
using mkos::sim::MiB;

class KernelFixture : public ::testing::Test {
 protected:
  Node linux_node_{hw::knl_snc4_flat(), NodeOsConfig::linux_default(), 1};
  Node mck_node_{hw::knl_snc4_flat(), NodeOsConfig::mckernel_default(), 2};
  Node mos_node_{hw::knl_snc4_flat(), NodeOsConfig::mos_default(), 3};
};

// ------------------------------------------------------------ dispositions

TEST_F(KernelFixture, LinuxHandlesEverythingLocally) {
  Kernel& k = linux_node_.app_kernel();
  EXPECT_EQ(k.kind(), OsKind::kLinux);
  for (std::size_t i = 0; i < kSysCount; ++i) {
    EXPECT_EQ(k.disposition(static_cast<Sys>(i)), Disposition::kLocal);
  }
}

TEST_F(KernelFixture, McKernelSplitsLocalAndOffloaded) {
  Kernel& k = mck_node_.app_kernel();
  EXPECT_EQ(k.kind(), OsKind::kMcKernel);
  // Performance-sensitive calls are local...
  for (Sys s : {Sys::kBrk, Sys::kMmap, Sys::kFutex, Sys::kSchedYield, Sys::kClone,
                Sys::kFork, Sys::kShmat, Sys::kPerfEventOpen}) {
    EXPECT_EQ(k.disposition(s), Disposition::kLocal) << sys_name(s);
  }
  // ...the VFS and networking are offloaded to the proxy.
  for (Sys s : {Sys::kOpen, Sys::kRead, Sys::kWrite, Sys::kIoctl, Sys::kSocket,
                Sys::kSendmsg, Sys::kStat}) {
    EXPECT_EQ(k.disposition(s), Disposition::kOffloaded) << sys_name(s);
  }
  EXPECT_EQ(k.disposition(Sys::kMovePages), Disposition::kPartial);
}

TEST_F(KernelFixture, MosForkIsUnsupported) {
  Kernel& k = mos_node_.app_kernel();
  EXPECT_EQ(k.kind(), OsKind::kMos);
  EXPECT_EQ(k.disposition(Sys::kFork), Disposition::kUnsupported);
  EXPECT_EQ(k.disposition(Sys::kVfork), Disposition::kUnsupported);
  EXPECT_EQ(k.disposition(Sys::kClone), Disposition::kLocal);  // threads work
  Process& p = k.create_process(0);
  EXPECT_EQ(k.sys_fork(p).err, kENOSYS);
}

TEST_F(KernelFixture, CapabilitiesMatchPaperNarrative) {
  Kernel& lin = linux_node_.app_kernel();
  Kernel& mck = mck_node_.app_kernel();
  Kernel& mos = mos_node_.app_kernel();
  EXPECT_TRUE(lin.capable(Capability::kForkFull));
  EXPECT_TRUE(mck.capable(Capability::kForkFull));
  EXPECT_FALSE(mos.capable(Capability::kForkFull));
  EXPECT_FALSE(mck.capable(Capability::kMovePages));
  EXPECT_TRUE(mos.capable(Capability::kPtraceBasic));
  EXPECT_FALSE(mos.capable(Capability::kPtraceFull));
  // /proc completeness: mOS reuses Linux, McKernel reimplements a subset.
  EXPECT_TRUE(mos.capable(Capability::kProcSelfComplete));
  EXPECT_FALSE(mck.capable(Capability::kProcSelfComplete));
}

// ------------------------------------------------------- functional layer

TEST_F(KernelFixture, LinuxMmapIsDemandPaged) {
  Kernel& k = linux_node_.app_kernel();
  Process& p = k.create_process(0);
  auto r = k.sys_mmap(p, 64 * MiB, mem::VmaKind::kAnon, mem::MemPolicy::standard());
  ASSERT_EQ(r.err, kOk);
  ASSERT_NE(r.vma, nullptr);
  EXPECT_TRUE(r.vma->demand_paged);
  EXPECT_EQ(r.vma->backed(), 0u);
  const auto t = k.touch(p, *r.vma, 64 * MiB, 1);
  EXPECT_EQ(t.newly_backed, 64 * MiB);
  EXPECT_GT(t.faults, 0u);
}

TEST_F(KernelFixture, LwkMmapIsBackedUpfrontInMcdram) {
  Kernel& k = mck_node_.app_kernel();
  Process& p = k.create_process(0);
  auto r = k.sys_mmap(p, 64 * MiB, mem::VmaKind::kAnon, mem::MemPolicy::standard());
  ASSERT_EQ(r.err, kOk);
  EXPECT_EQ(r.vma->backed(), 64 * MiB);
  EXPECT_FALSE(r.vma->demand_paged);
  EXPECT_DOUBLE_EQ(
      r.vma->placement.fraction_in_kind(k.topo(), hw::MemKind::kMcdram), 1.0);
  // Large pages, never 4 KiB.
  EXPECT_EQ(r.vma->placement.bytes_with_page(mem::PageSize::k4K), 0u);
}

TEST_F(KernelFixture, McKernelOversizedMappingFallsBackToDemandPaging) {
  auto& k = static_cast<McKernel&>(mck_node_.app_kernel());
  Process& p = k.create_process(0);
  auto r = k.sys_mmap(p, 20 * GiB, mem::VmaKind::kAnon, mem::MemPolicy::standard());
  ASSERT_EQ(r.err, kOk);
  EXPECT_TRUE(r.vma->demand_paged);
  EXPECT_TRUE(k.demand_fallback_engaged());
  const auto t = k.touch(p, *r.vma, 20 * GiB, 1);
  EXPECT_EQ(t.newly_backed, 20 * GiB);
  // Touch-time fill packs MCDRAM before spilling.
  EXPECT_GT(r.vma->placement.bytes_in_kind(k.topo(), hw::MemKind::kMcdram), 14 * GiB);
}

TEST_F(KernelFixture, MosRigidAllocationReturnsEnomem) {
  Kernel& k = mos_node_.app_kernel();
  Process& p = k.create_process(0);
  auto r = k.sys_mmap(p, 150 * GiB, mem::VmaKind::kAnon, mem::MemPolicy::standard());
  EXPECT_EQ(r.err, kENOMEM);
  EXPECT_EQ(r.vma, nullptr);
}

TEST_F(KernelFixture, MunmapReturnsPhysicalMemory) {
  Kernel& k = mck_node_.app_kernel();
  Process& p = k.create_process(0);
  const auto before = k.phys().free_bytes_of_kind(k.topo(), hw::MemKind::kMcdram);
  auto r = k.sys_mmap(p, 256 * MiB, mem::VmaKind::kAnon, mem::MemPolicy::standard());
  ASSERT_EQ(r.err, kOk);
  EXPECT_LT(k.phys().free_bytes_of_kind(k.topo(), hw::MemKind::kMcdram), before);
  EXPECT_EQ(k.sys_munmap(p, r.vma->start).err, kOk);
  EXPECT_EQ(k.phys().free_bytes_of_kind(k.topo(), hw::MemKind::kMcdram), before);
}

TEST_F(KernelFixture, LinuxPreferredPolicyRejectsMultipleDomains) {
  Kernel& k = linux_node_.app_kernel();
  Process& p = k.create_process(0);
  mem::MemPolicy multi{mem::PolicyMode::kPreferred, {4, 5, 6, 7}};
  EXPECT_EQ(k.sys_set_mempolicy(p, multi).err, kEINVAL);
  EXPECT_EQ(k.sys_set_mempolicy(p, mem::MemPolicy::preferred(4)).err, kOk);
}

TEST_F(KernelFixture, ProxyManagedFileDescriptors) {
  Kernel& mck = mck_node_.app_kernel();
  Process& p = mck.create_process(0);
  const auto r = mck.sys_open(p, "/tmp/data");
  EXPECT_EQ(r.err, kOk);
  EXPECT_TRUE(p.fd_is_proxy_managed(3));  // fd table lives in the Linux proxy

  Kernel& lin = linux_node_.app_kernel();
  Process& lp = lin.create_process(0);
  (void)lin.sys_open(lp, "/tmp/data");
  EXPECT_FALSE(lp.fd_is_proxy_managed(3));
}

// ------------------------------------------------------------ pseudo-fs

TEST_F(KernelFixture, PseudoFsCoverageOrdering) {
  const double lin = linux_node_.app_kernel().pseudofs().coverage();
  const double mos = mos_node_.app_kernel().pseudofs().coverage();
  const double mck = mck_node_.app_kernel().pseudofs().coverage();
  EXPECT_DOUBLE_EQ(lin, 1.0);
  EXPECT_GT(mos, mck);  // mOS reuses Linux; McKernel reimplements a subset
  EXPECT_GT(mck, 0.3);
}

TEST_F(KernelFixture, McKernelMissingProcFilesFailOpen) {
  Kernel& k = mck_node_.app_kernel();
  Process& p = k.create_process(0);
  EXPECT_EQ(k.sys_open(p, "/proc/self/maps").err, kOk);
  EXPECT_EQ(k.sys_open(p, "/proc/self/environ").err, kENOSYS);
}

// --------------------------------------------------- node boot / partition

TEST_F(KernelFixture, NodeDefaultsTo64Plus4Cores) {
  EXPECT_EQ(linux_node_.config().app_cores, 64);
  EXPECT_EQ(linux_node_.config().service_cores, 4);
}

TEST_F(KernelFixture, McKernelLateReservationFragmentsDdr) {
  // mOS grabs memory early; McKernel reserves after Linux boot and inherits
  // unmovable fragments (Section II-D5).
  const auto& mck_part = mck_node_.partition();
  const auto& mos_part = mos_node_.partition();
  EXPECT_GT(mck_part.unmovable_pinned, 0u);
  EXPECT_EQ(mos_part.unmovable_pinned, 0u);
  // Largest free DDR extent is smaller on the McKernel node.
  EXPECT_LT(mck_part.largest_extent_per_domain[0], mos_part.largest_extent_per_domain[0]);
}

TEST_F(KernelFixture, LaunchRankSpawnsProxyOnMcKernel) {
  (void)mck_node_.launch_rank(0, 2);
  (void)mck_node_.launch_rank(1, 2);
  EXPECT_EQ(mck_node_.proxy_process_count(), 2);
  EXPECT_EQ(linux_node_.proxy_process_count(), 0);
}

TEST_F(KernelFixture, MosLaunchAssignsMcdramQuota) {
  Process& p = mos_node_.launch_rank(0, 4);
  // 4 ranks share ~16 GiB of MCDRAM (minus the boot share).
  EXPECT_GT(p.mcdram_quota(), 3 * GiB);
  EXPECT_LT(p.mcdram_quota(), 5 * GiB);
}

// --------------------------------------------------------------- noise

TEST(Noise, LwkIsOrdersOfMagnitudeQuieterThanLinux) {
  const double lwk = noise_lwk().expected_fraction();
  const double lin = noise_linux_nohz_full().expected_fraction();
  EXPECT_LT(lwk, 1e-5);
  EXPECT_GT(lin, 1e-4);
  EXPECT_GT(lin / std::max(lwk, 1e-12), 50.0);
}

TEST(Noise, ServiceCoreIsNoisierThanNohzFull) {
  EXPECT_GT(noise_linux_service_core().expected_fraction(),
            noise_linux_nohz_full().expected_fraction() * 3);
}

// --------------------------------------------------------------- scheduler

TEST(Scheduler, HijackedYieldIsNearlyFree) {
  const auto normal = SchedulerModel::lwk_coop(false).sched_yield_cost();
  const auto hijacked = SchedulerModel::lwk_coop(true).sched_yield_cost();
  EXPECT_GT(normal.ns(), 100);
  EXPECT_LT(hijacked.ns(), 20);
}

}  // namespace
