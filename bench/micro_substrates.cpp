// Micro-benchmarks of the mkos substrates (google-benchmark).
//
// These measure the *simulator's* own performance (events/s, allocations/s)
// and print the *modeled* costs of the kernel mechanisms (offload round
// trips, noise sampling) as counters — both matter for anyone extending the
// framework or sweeping large design spaces with it.

#include <benchmark/benchmark.h>

#include "compat/ltp.hpp"
#include "core/config.hpp"
#include "core/obs_glue.hpp"
#include "hw/knl.hpp"
#include "kernel/node.hpp"
#include "mem/heap.hpp"
#include "obs/snapshots.hpp"
#include "runtime/noise_extremes.hpp"
#include "runtime/simmpi.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace mkos;
using mkos::sim::KiB;
using mkos::sim::MiB;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      q.schedule_at(sim::TimeNs{i}, [&fired] { ++fired; });
    }
    q.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void BM_RngNoiseSample(benchmark::State& state) {
  const kernel::NoiseModel model = kernel::noise_linux_nohz_full();
  sim::Rng rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.sample(sim::milliseconds(10), rng));
  }
}
BENCHMARK(BM_RngNoiseSample);

void BM_NoiseExtremesSample(benchmark::State& state) {
  const runtime::NoiseExtremes ex{kernel::noise_linux_nohz_full()};
  sim::Rng rng{2};
  const auto cores = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.sample(sim::milliseconds(10), cores, rng));
  }
}
BENCHMARK(BM_NoiseExtremesSample)->Arg(64)->Arg(131072);

void BM_PhysAllocatorBestEffort(benchmark::State& state) {
  for (auto _ : state) {
    mem::DomainAllocator a{0, 4 * sim::GiB};
    for (int i = 0; i < 256; ++i) {
      benchmark::DoNotOptimize(a.alloc_best_effort(8 * MiB, 2 * MiB));
    }
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_PhysAllocatorBestEffort);

void BM_LwkHeapSteadyStateCycle(benchmark::State& state) {
  const hw::NodeTopology topo = hw::knl_snc4_flat();
  mem::PhysMemory phys{topo};
  mem::LwkHeap heap{phys, topo, mem::MemCostModel{}, mem::LwkHeapOptions{}, 0};
  (void)heap.sbrk(64 * MiB);
  for (auto _ : state) {
    (void)heap.sbrk(0);
    (void)heap.sbrk(8 * MiB);
    (void)heap.sbrk(-8 * MiB);
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_LwkHeapSteadyStateCycle);

void BM_LinuxHeapCycleWithRefault(benchmark::State& state) {
  const hw::NodeTopology topo = hw::knl_snc4_flat();
  mem::PhysMemory phys{topo};
  mem::LinuxHeap heap{phys, topo, mem::MemCostModel{}, mem::MemPolicy::standard(), 0};
  for (auto _ : state) {
    (void)heap.sbrk(8 * MiB);
    (void)heap.touch_new(64);
    (void)heap.sbrk(-8 * MiB);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinuxHeapCycleWithRefault);

void BM_McKernelMmapUpfront(benchmark::State& state) {
  kernel::Node node{hw::knl_snc4_flat(), kernel::NodeOsConfig::mckernel_default(), 1};
  kernel::Kernel& k = node.app_kernel();
  kernel::Process& p = k.create_process(0);
  for (auto _ : state) {
    auto r = k.sys_mmap(p, 16 * MiB, mem::VmaKind::kAnon, mem::MemPolicy::standard());
    (void)k.sys_munmap(p, r.vma->start);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_McKernelMmapUpfront);

// Modeled cost constants, exported as counters so bench output documents the
// design-space numbers (D4 of DESIGN.md).
void BM_ModeledOffloadCosts(benchmark::State& state) {
  kernel::Node mck{hw::knl_snc4_flat(), kernel::NodeOsConfig::mckernel_default(), 1};
  kernel::Node mos{hw::knl_snc4_flat(), kernel::NodeOsConfig::mos_default(), 2};
  kernel::Node lin{hw::knl_snc4_flat(), kernel::NodeOsConfig::linux_default(), 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(mck.app_kernel().offload_cost(256));
  }
  state.counters["mckernel_proxy_ns"] =
      static_cast<double>(mck.app_kernel().offload_cost(256).ns());
  state.counters["mos_migration_ns"] =
      static_cast<double>(mos.app_kernel().offload_cost(256).ns());
  state.counters["linux_local_ns"] =
      static_cast<double>(lin.app_kernel().local_syscall_cost().ns());
}
BENCHMARK(BM_ModeledOffloadCosts);

void BM_MpiWorldIteration(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const auto machine = core::SystemConfig::mckernel().machine(nodes);
  runtime::Job job{machine, runtime::JobSpec{nodes, 64, 2}, 1};
  runtime::MpiWorld world{job, 7};
  for (auto _ : state) {
    world.compute_time(sim::milliseconds(5));
    world.allreduce(8);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpiWorldIteration)->Arg(16)->Arg(2048);

void BM_LtpSuiteRun(benchmark::State& state) {
  const compat::LtpSuite suite = compat::LtpSuite::standard();
  for (auto _ : state) {
    kernel::Node node{hw::knl_snc4_flat(), kernel::NodeOsConfig::mckernel_default(), 1};
    benchmark::DoNotOptimize(suite.run(node.app_kernel()));
  }
  state.SetItemsProcessed(state.iterations() * suite.size());
}
BENCHMARK(BM_LtpSuiteRun);

}  // namespace

// Custom main (instead of benchmark_main) so the bench also emits a run
// ledger. Host-measured throughput stays out of the ledger (it is not
// deterministic); the *modeled* mechanism costs are, and go in as gauges.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  using namespace mkos;
  obs::RunLedger ledger =
      core::bench_ledger("micro_substrates", "framework substrate costs", 1);
  kernel::Node mck{hw::knl_snc4_flat(), kernel::NodeOsConfig::mckernel_default(), 1};
  kernel::Node mos{hw::knl_snc4_flat(), kernel::NodeOsConfig::mos_default(), 2};
  kernel::Node lin{hw::knl_snc4_flat(), kernel::NodeOsConfig::linux_default(), 3};
  ledger.set_gauge("modeled.mckernel_proxy_ns",
                   static_cast<double>(mck.app_kernel().offload_cost(256).ns()));
  ledger.set_gauge("modeled.mos_migration_ns",
                   static_cast<double>(mos.app_kernel().offload_cost(256).ns()));
  ledger.set_gauge("modeled.linux_local_ns",
                   static_cast<double>(lin.app_kernel().local_syscall_cost().ns()));
  obs::record_kernel(ledger, mck.app_kernel());
  core::emit(ledger);
  return 0;
}
