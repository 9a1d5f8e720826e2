#include "obs/snapshots.hpp"

#include "alloc/model.hpp"
#include "fault/fault.hpp"
#include "kernel/kernel.hpp"
#include "mem/address_space.hpp"
#include "mem/heap.hpp"
#include "runtime/job.hpp"
#include "runtime/simmpi.hpp"

namespace mkos::obs {

void record_heap(RunLedger& ledger, const mem::HeapStats& stats) {
  ledger.incr("heap.brk_calls", stats.calls());
  ledger.incr("heap.grows", stats.grows);
  ledger.incr("heap.shrinks", stats.shrinks);
  ledger.incr("heap.faults", stats.faults);
  ledger.incr("heap.zeroed_bytes", stats.zeroed);
  ledger.incr("heap.cum_growth_bytes", stats.cum_growth);
}

void record_kernel(RunLedger& ledger, const kernel::Kernel& k) {
  ledger.incr("kernel.syscalls_local", k.local_call_count());
  ledger.incr("kernel.syscalls_offloaded", k.offloaded_call_count());
  ledger.incr("kernel.ikc_round_trips", k.ikc_round_trips());
  // Noise detours by source: the model's per-source rates (what each
  // source steals is sampled downstream and lands in runtime.noise_wait_ns).
  for (const kernel::NoiseComponent& c : k.noise().components()) {
    ledger.set_gauge("kernel.noise." + c.label + ".rate_hz", c.rate_hz);
  }
}

void record_world(RunLedger& ledger, const runtime::MpiWorld& world) {
  ledger.incr("runtime.allreduces", world.allreduce_count());
  ledger.incr("runtime.collective_stages", world.collective_stage_count());
  const runtime::MpiWorld::PhaseBreakdown b = world.breakdown();
  ledger.incr("runtime.compute_ns", static_cast<std::uint64_t>(b.compute.ns()));
  ledger.incr("runtime.noise_wait_ns", static_cast<std::uint64_t>(b.noise.ns()));
  ledger.incr("runtime.comm_ns", static_cast<std::uint64_t>(b.comm.ns()));
  ledger.incr("runtime.coll_stall_ns",
              static_cast<std::uint64_t>(world.total_collective_stall().ns()));
  // Per-sync noise detour distribution, when the world traced its syncs.
  if (!world.trace().empty()) {
    sim::Histogram& h = ledger.hist("runtime.sync_noise_us", 1e-2, 1e6, 4);
    for (const runtime::MpiWorld::SyncEvent& ev : world.trace()) {
      if (ev.noise.ns() > 0) h.add(ev.noise.us());
    }
  }
  // Sampling-engine telemetry: fast-path hits, analytic-vs-exact draw split,
  // cost-cache effectiveness. Deterministic per seed (no wall-clock inputs),
  // so these live alongside the runtime counters, not in the host block.
  const runtime::MpiWorld::EngineCounters& e = world.engine_counters();
  ledger.incr("engine.heap_fast_lanes", e.heap_fast_lanes);
  ledger.incr("engine.heap_slow_lanes", e.heap_slow_lanes);
  ledger.incr("engine.compute_uniform_fast", e.compute_uniform_fast);
  ledger.incr("engine.compute_lane_loops", e.compute_lane_loops);
  ledger.incr("engine.coll_cache_hits", e.coll_cache_hits);
  ledger.incr("engine.coll_cache_misses", e.coll_cache_misses);
  ledger.incr("engine.msg_cache_hits", e.msg_cache_hits);
  ledger.incr("engine.msg_cache_misses", e.msg_cache_misses);
  const kernel::SampleCounters& n = world.noise_counters();
  // Nothing draws per-core noise sums; these stay 0 so ledger bytes hold.
  ledger.incr("engine.noise_analytic_sums", 0);
  ledger.incr("engine.noise_exact_events", 0);
  ledger.incr("engine.noise_analytic_maxima", n.analytic_maxima);
  ledger.incr("engine.noise_gumbel_draws", n.gumbel_draws);
}

void record_job(RunLedger& ledger, runtime::Job& job) {
  record_kernel(ledger, job.kernel());
  const hw::NodeTopology& topo = job.kernel().topo();
  // Aggregate across lanes before touching the ledger: incr() is additive
  // and every lane emits the same fixed name set, so one bulk update per
  // name produces byte-identical JSON to the per-lane loop while paying
  // each name lookup once per job instead of once per lane (and per VMA).
  mem::HeapStats heap_sum;
  bool any_heap = false;
  sim::Bytes by_page[3] = {0, 0, 0};
  sim::Bytes mcdram = 0;
  sim::Bytes ddr4 = 0;
  std::uint64_t faults = 0;
  std::uint64_t vmas = 0;
  for (int i = 0; i < job.lane_count(); ++i) {
    const kernel::Process& p = job.lane(i);
    if (p.heap() != nullptr) {
      const mem::HeapStats& s = p.heap()->stats();
      heap_sum.queries += s.queries;
      heap_sum.grows += s.grows;
      heap_sum.shrinks += s.shrinks;
      heap_sum.cum_growth += s.cum_growth;
      heap_sum.faults += s.faults;
      heap_sum.zeroed += s.zeroed;
      any_heap = true;
    }
    const mem::AddressSpace& as = p.address_space();
    as.for_each([&](const mem::Vma& vma) {
      const mem::Placement& pl = vma.placement;
      by_page[0] += pl.bytes_with_page(mem::PageSize::k4K);
      by_page[1] += pl.bytes_with_page(mem::PageSize::k2M);
      by_page[2] += pl.bytes_with_page(mem::PageSize::k1G);
      mcdram += pl.bytes_in_kind(topo, hw::MemKind::kMcdram);
      ddr4 += pl.bytes_in_kind(topo, hw::MemKind::kDdr4);
    });
    faults += as.total_faults();
    vmas += as.vma_count();
  }
  if (any_heap) record_heap(ledger, heap_sum);
  ledger.incr("mem.bytes_4k", by_page[0]);
  ledger.incr("mem.bytes_2m", by_page[1]);
  ledger.incr("mem.bytes_1g", by_page[2]);
  ledger.incr("mem.bytes_mcdram", mcdram);
  ledger.incr("mem.bytes_ddr4", ddr4);
  ledger.incr("mem.faults", faults);
  ledger.incr("mem.vmas", vmas);
}

void record_faults(RunLedger& ledger, const fault::Counters& c) {
  ledger.incr("fault.injected", c.injected);
  ledger.incr("fault.detected", c.detected);
  ledger.incr("fault.retried", c.retried);
  ledger.incr("fault.recovered", c.recovered);
  ledger.incr("fault.node_failures", c.node_failures);
  ledger.incr("fault.linux_crashes", c.linux_crashes);
  ledger.incr("fault.stragglers", c.stragglers);
  ledger.incr("fault.storms", c.storms);
  ledger.incr("fault.ikc_dropped", c.ikc_dropped);
  ledger.incr("fault.ikc_delays", c.ikc_delays);
  ledger.incr("fault.mcdram_denied", c.mcdram_denied);
  ledger.incr("fault.checkpoints", c.checkpoints);
  ledger.incr("fault.restarts", c.restarts);
  ledger.incr("fault.lost_work_ns", c.lost_work_ns);
  ledger.incr("fault.checkpoint_ns", c.checkpoint_ns);
  ledger.incr("fault.backoff_wait_ns", c.backoff_wait_ns);
  ledger.incr("fault.redistributed_ns", c.redistributed_ns);
  ledger.incr("fault.wait_ns", c.wait_ns);
}

void record_alloc(RunLedger& ledger, const alloc::AllocCounters& c) {
  ledger.incr("alloc.magazine_hits", c.magazine_hits);
  ledger.incr("alloc.magazine_misses", c.magazine_misses);
  ledger.incr("alloc.depot_loads", c.depot_loads);
  ledger.incr("alloc.depot_unloads", c.depot_unloads);
  ledger.incr("alloc.depot_lock_ns", c.depot_lock_ns);
  ledger.incr("alloc.zone_lock_ns", c.zone_lock_ns);
  ledger.incr("alloc.slab_creates", c.slab_creates);
  ledger.incr("alloc.slab_frees", c.slab_frees);
  ledger.incr("alloc.resizes_up", c.resizes_up);
  ledger.incr("alloc.resizes_down", c.resizes_down);
  ledger.incr("alloc.vmem_allocs", c.vmem_allocs);
  ledger.incr("alloc.vmem_frees", c.vmem_frees);
  ledger.incr("alloc.vmem_qcache_hits", c.vmem_qcache_hits);
  ledger.incr("alloc.vmem_imports", c.vmem_imports);
  ledger.incr("alloc.vmem_import_bytes", c.vmem_import_bytes);
  ledger.incr("alloc.vmem_import_fails", c.vmem_import_fails);
  ledger.incr("alloc.refill_bytes", c.refill_bytes);
  ledger.incr("alloc.reclaims", c.reclaims);
  ledger.incr("alloc.reclaimed_slabs", c.reclaimed_slabs);
}

}  // namespace mkos::obs
