#include "runtime/simmpi.hpp"

#include <algorithm>
#include <cmath>

#include "alloc/model.hpp"
#include "runtime/resilience.hpp"
#include "runtime/shm.hpp"
#include "sim/contracts.hpp"
#include "sim/hash.hpp"

namespace mkos::runtime {

namespace {

/// Fingerprint of the shared physical-memory state the heap cost model can
/// observe: per-domain free volume and free-map shape (each domain's own
/// O(1) fingerprint). A brk cycle that is net-neutral against this
/// fingerprint left the allocator where it found it, so an identical lane
/// replays to identical costs.
std::uint64_t phys_fingerprint(const mem::PhysMemory& phys) {
  std::uint64_t h = 0x082efa98ec4e6c89ULL;
  for (int d = 0; d < phys.domain_count(); ++d) {
    h = sim::hash_combine(h, phys.domain(static_cast<hw::DomainId>(d)).state_fingerprint());
  }
  return h;
}

/// True when any domain carries a fault hook. An armed hook may draw
/// randomness on every allocation, which a replayed lane would skip.
bool phys_hooked(const mem::PhysMemory& phys) {
  for (int d = 0; d < phys.domain_count(); ++d) {
    if (phys.domain(static_cast<hw::DomainId>(d)).has_fault_hook()) return true;
  }
  return false;
}

}  // namespace

MpiWorld::MpiWorld(Job& job, std::uint64_t noise_seed)
    : job_(job),
      extremes_(job.kernel().noise()),
      coll_extremes_(job.kernel().collective_noise()),
      rng_(noise_seed) {
  lanes_.pending_ns.assign(static_cast<std::size_t>(job.lane_count()), 0);
  const auto& net = job_.machine().cluster.network();
  // Average hop count for a random peer — constant for the job's node count,
  // so computed once instead of on every halo/shift message.
  avg_hops_ = net.hop_count(0, std::max(1, job_.spec().nodes / 2), job_.spec().nodes);
  refresh_lanes();
}

void MpiWorld::refresh_lanes() {
  lanes_.gbps.resize(static_cast<std::size_t>(job_.lane_count()));
  lanes_.heaps.resize(static_cast<std::size_t>(job_.lane_count()));
  if (job_.lane_count() == 0) {
    // No lanes: nothing to min over — leave a safe, recognizable default
    // rather than the +inf-like scan sentinel.
    min_lane_gbps_ = 0.0;
    lanes_uniform_ = true;
    return;
  }
  min_lane_gbps_ = 1e30;
  lanes_uniform_ = true;
  for (int i = 0; i < job_.lane_count(); ++i) {
    lanes_.gbps[static_cast<std::size_t>(i)] = job_.lane_effective_gbps(i);
    min_lane_gbps_ = std::min(min_lane_gbps_, lanes_.gbps[static_cast<std::size_t>(i)]);
    if (lanes_.gbps[static_cast<std::size_t>(i)] != lanes_.gbps[0]) lanes_uniform_ = false;
    lanes_.heaps[static_cast<std::size_t>(i)] = job_.lane(i).heap();
  }
  MKOS_ENSURES(min_lane_gbps_ > 0.0 && min_lane_gbps_ < 1e30);
}

void MpiWorld::set_fast_paths(bool on) {
  fast_paths_ = on;
  coll_cache_.clear();
  msg_cache_.clear();
  heap_memo_.clear();
  heap_classes_.clear();
}

void MpiWorld::mpi_init(sim::Bytes shm_segment_bytes) {
  pending_uniform_ += setup_mpi_shm(job_, shm_segment_bytes).per_rank_cost;
  refresh_lanes();
}

std::uint64_t MpiWorld::global_cores() const {
  return static_cast<std::uint64_t>(job_.spec().nodes) *
         static_cast<std::uint64_t>(job_.node().app_core_count());
}

void MpiWorld::compute_bytes(sim::Bytes bytes_per_rank) {
  if (lanes_.size() == 0) return;
  if (fast_paths_ && lanes_uniform_) {
    // Every lane gets the same increment, so the per-sync maximum shifts by
    // exactly that increment: fold it into the uniform accumulator. The ns
    // expression matches the per-lane one bit-for-bit (same operands).
    const double ns =
        static_cast<double>(bytes_per_rank) / (min_lane_gbps_ * 1e9) * 1e9;
    pending_uniform_ += sim::from_double_ns(ns);
    ++engine_.compute_uniform_fast;
    return;
  }
  ++engine_.compute_lane_loops;
  lane_pending_dirty_ = true;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const double ns = static_cast<double>(bytes_per_rank) / (lanes_.gbps[i] * 1e9) * 1e9;
    lanes_.pending_ns[i] += sim::from_double_ns(ns).ns();
  }
}

void MpiWorld::compute_bytes_scaled(sim::Bytes bytes_per_rank,
                                    const std::vector<double>& lane_scale) {
  MKOS_EXPECTS(!lane_scale.empty());
  if (lanes_.size() == 0) return;
  if (fast_paths_ && lanes_uniform_) {
    const bool flat =
        std::all_of(lane_scale.begin(), lane_scale.end(),
                    [&](double s) { return s == lane_scale[0]; });
    if (flat) {
      const double scaled = static_cast<double>(bytes_per_rank) * lane_scale[0];
      pending_uniform_ += sim::from_double_ns(scaled / (min_lane_gbps_ * 1e9) * 1e9);
      ++engine_.compute_uniform_fast;
      return;
    }
    // Uniform bandwidth, non-flat scale: one division per distinct scale
    // entry instead of one per lane.
    std::vector<std::int64_t> per_scale(lane_scale.size());
    for (std::size_t j = 0; j < lane_scale.size(); ++j) {
      const double scaled = static_cast<double>(bytes_per_rank) * lane_scale[j];
      per_scale[j] = sim::from_double_ns(scaled / (min_lane_gbps_ * 1e9) * 1e9).ns();
    }
    ++engine_.compute_lane_loops;
    lane_pending_dirty_ = true;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      lanes_.pending_ns[i] += per_scale[i % per_scale.size()];
    }
    return;
  }
  ++engine_.compute_lane_loops;
  lane_pending_dirty_ = true;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const double scaled =
        static_cast<double>(bytes_per_rank) * lane_scale[i % lane_scale.size()];
    lanes_.pending_ns[i] += sim::from_double_ns(scaled / (lanes_.gbps[i] * 1e9) * 1e9).ns();
  }
}

void MpiWorld::compute_time(sim::TimeNs per_rank) { pending_uniform_ += per_rank; }

void MpiWorld::compute_flops(double flops_per_rank) {
  // KNL per-core sustained scalar+vector rate for real codes (not peak):
  // ~12 GF/s per core over threads_per_rank-covered cores.
  const double gflops = 12.0 * job_.spec().threads_per_rank;
  pending_uniform_ += sim::from_double_ns(flops_per_rank / (gflops * 1e9) * 1e9);
}

void MpiWorld::sched_yields(int count_per_rank) {
  const sim::TimeNs per = job_.kernel().scheduler_model().sched_yield_cost();
  pending_uniform_ += per * count_per_rank;
}

void MpiWorld::syscall(kernel::Sys s, int count_per_rank, sim::Bytes payload) {
  pending_uniform_ += job_.kernel().priced(s, payload) * count_per_rank;
}

void MpiWorld::alloc_churn(std::uint64_t pairs_per_rank, sim::Bytes obj_bytes) {
  if (alloc_model_ == nullptr || pairs_per_rank == 0) return;
  const int lanes = job_.lane_count();
  if (lanes == 0) return;
  // Lane costs diverge (whoever churns first eats the refill cascade; later
  // lanes hit the warmed depot), so this always lands in the per-lane
  // pending array, never in pending_uniform_.
  lane_pending_dirty_ = true;
  for (int i = 0; i < lanes; ++i) {
    const sim::TimeNs cost =
        alloc_model_->churn(i, pairs_per_rank, obj_bytes);
    lanes_.pending_ns[static_cast<std::size_t>(i)] += cost.ns();
  }
}

const MpiWorld::HeapCycleMemo* MpiWorld::find_heap_memo(
    std::span<const HeapCycleMemo> table, std::span<const std::int64_t> deltas,
    std::uint64_t heap_fp, int quadrant, std::uint64_t phys_fp, int faulters) {
  for (const HeapCycleMemo& m : table) {
    if (m.heap_fp == heap_fp && m.quadrant == quadrant && m.phys_fp == phys_fp &&
        m.faulters == faulters && m.deltas.size() == deltas.size() &&
        std::equal(m.deltas.begin(), m.deltas.end(), deltas.begin())) {
      return &m;
    }
  }
  return nullptr;
}

sim::TimeNs MpiWorld::simulate_heap_lane(int lane, std::span<const std::int64_t> deltas,
                                         int faulters) {
  kernel::Kernel& k = job_.kernel();
  kernel::Process& p = job_.lane(lane);
  sim::TimeNs cost{0};
  for (const std::int64_t d : deltas) {
    cost += k.sys_brk(p, d).cost;
    if (d > 0) cost += k.heap_touch(p, faulters);
  }
  return cost;
}

void MpiWorld::heap_cycle(std::span<const std::int64_t> deltas) {
  kernel::Kernel& k = job_.kernel();
  const int lanes = job_.lane_count();
  if (lanes == 0 || deltas.empty()) return;
  // Heap faults of distinct rank processes contend only on the per-domain
  // zone allocator, not on a shared mmap_sem (unlike the shm segment), so
  // the effective concurrency in the fault handler is a fraction of the
  // rank count.
  const int faulters = 1 + lanes / 8;
  // Every fast path below replays lanes without calling the allocator. An
  // armed fault hook may draw randomness on every allocation a replayed
  // lane would skip, so hooked nodes simulate every lane.
  const bool replay = fast_paths_ && !phys_hooked(k.phys());

  // Symmetric-lane detection: in the common SPMD steady state every lane's
  // heap is in the same (cost-relevant) state, so one representative cycle
  // prices all of them. The per-lane fingerprints are revision-cached, so
  // this scan is a contiguous compare in the steady state.
  bool symmetric = replay && lanes > 1;
  std::uint64_t fp0 = 0;
  if (symmetric) {
    fp0 = lanes_.heaps[0]->state_fingerprint();
    for (int i = 1; symmetric && i < lanes; ++i) {
      symmetric = lanes_.heaps[i]->state_fingerprint() == fp0;
    }
  }
  const std::uint64_t phys_before = symmetric ? phys_fingerprint(k.phys()) : 0;

  // Whole-cycle memo: this exact delta sequence already ran from this exact
  // (heap, phys) fingerprint state and proved state-neutral, so the heaps
  // and the allocator end where they started and the cost and counter
  // deltas replay verbatim — for the representative too. The brk path draws
  // no randomness, so skipping the simulation perturbs no RNG stream, and
  // the engine/kernel counters advance exactly as the simulate-one /
  // replay-rest path below would have.
  if (symmetric) {
    if (const HeapCycleMemo* m = find_heap_memo(heap_memo_, deltas, fp0,
                                                HeapCycleMemo::kAllLanes, phys_before,
                                                faulters)) {
      for (int i = 0; i < lanes; ++i) {
        lanes_.heaps[static_cast<std::size_t>(i)]->apply_replay_delta(m->delta);
      }
      // The replayed cost is uniform across lanes, and a uniform increment
      // commutes with synchronize()'s max reduction — so it accumulates in
      // pending_uniform_ instead of touching every per-lane slot.
      pending_uniform_ += m->cost;
      k.note_replayed_local_calls(static_cast<std::uint64_t>(deltas.size()) *
                                  static_cast<std::uint64_t>(lanes));
      ++engine_.heap_slow_lanes;
      engine_.heap_fast_lanes += static_cast<std::uint64_t>(lanes - 1);
      ++engine_.heap_memo_hits;
      return;
    }
  }

  int first = 0;  // first lane the divergent walk below still has to price
  if (symmetric) {
    // Simulate lane 0 as the representative.
    const mem::HeapStats stats_before = lanes_.heaps[0]->stats();
    const sim::TimeNs cost0 = simulate_heap_lane(0, deltas, faulters);
    ++engine_.heap_slow_lanes;

    // Replay is exact only if the cycle was state-neutral: the
    // representative's heap returned to its pre-cycle fingerprint AND the
    // shared physical allocator is back where it started. Then every
    // remaining lane starts from the same heap scalars, moves the same byte
    // counts through per-byte costs that never depend on which domain
    // supplies the pages, and — when the cycle did engage the allocator —
    // returns everything it drew, so the restored free maps serve every
    // lane the same total. The replicated cost and counter deltas are
    // therefore exact, not approximate.
    if (lanes_.heaps[0]->state_fingerprint() == fp0 &&
        phys_fingerprint(k.phys()) == phys_before) {
      HeapCycleMemo m;
      m.delta = mem::HeapEngine::replay_delta(stats_before, lanes_.heaps[0]->stats());
      for (int i = 1; i < lanes; ++i) {
        lanes_.heaps[static_cast<std::size_t>(i)]->apply_replay_delta(m.delta);
      }
      pending_uniform_ += cost0;  // uniform across all lanes, lane 0 included
      k.note_replayed_local_calls(static_cast<std::uint64_t>(deltas.size()) *
                                  static_cast<std::uint64_t>(lanes - 1));
      engine_.heap_fast_lanes += static_cast<std::uint64_t>(lanes - 1);
      ++engine_.heap_memo_misses;
      if (heap_memo_.size() < kHeapMemoCap) {
        m.deltas.assign(deltas.begin(), deltas.end());
        m.heap_fp = fp0;
        m.phys_fp = phys_before;
        m.faulters = faulters;
        m.cost = cost0;
        heap_memo_.push_back(std::move(m));
      }
      return;
    }
    lanes_.pending_ns[0] += cost0.ns();
    first = 1;
  }

  // Divergent cycle: walk the remaining lanes in index order. A lane whose
  // key — deltas, heap fingerprint, home quadrant, phys fingerprint at lane
  // start, faulters — matches an entry recorded from an earlier
  // state-neutral lane, in this cycle or a previous one, replays that
  // entry; any other lane is simulated and, if its cycle left both its heap
  // and the allocator unchanged, recorded. The quadrant is in the key
  // because fault and zeroing costs round per extent, and lanes homed on
  // different quadrants draw different extents. The phys fingerprint is
  // re-read after every simulated lane, so an entry never serves a lane
  // that starts from an allocator state it was not recorded from.
  lane_pending_dirty_ = true;
  engine_.heap_slow_lanes += static_cast<std::uint64_t>(lanes - first);
  std::uint64_t phys_fp = replay ? phys_fingerprint(k.phys()) : 0;
  for (int i = first; i < lanes; ++i) {
    mem::HeapEngine& heap = *lanes_.heaps[static_cast<std::size_t>(i)];
    std::int64_t& pending = lanes_.pending_ns[static_cast<std::size_t>(i)];
    if (!replay) {
      pending += simulate_heap_lane(i, deltas, faulters).ns();
      continue;
    }
    const std::uint64_t heap_fp = heap.state_fingerprint();
    const int quadrant = job_.lane(i).home_quadrant();
    if (const HeapCycleMemo* m =
            find_heap_memo(heap_classes_, deltas, heap_fp, quadrant, phys_fp, faulters)) {
      heap.apply_replay_delta(m->delta);
      pending += m->cost.ns();
      k.note_replayed_local_calls(static_cast<std::uint64_t>(deltas.size()));
      ++engine_.heap_class_replays;
      continue;
    }
    const mem::HeapStats before = heap.stats();
    const sim::TimeNs cost = simulate_heap_lane(i, deltas, faulters);
    pending += cost.ns();
    const std::uint64_t phys_after = phys_fingerprint(k.phys());
    if (heap.state_fingerprint() == heap_fp && phys_after == phys_fp &&
        heap_classes_.size() < kHeapClassCap) {
      HeapCycleMemo m;
      m.deltas.assign(deltas.begin(), deltas.end());
      m.heap_fp = heap_fp;
      m.quadrant = quadrant;
      m.phys_fp = phys_fp;
      m.faulters = faulters;
      m.cost = cost;
      m.delta = mem::HeapEngine::replay_delta(before, heap.stats());
      heap_classes_.push_back(std::move(m));
    }
    phys_fp = phys_after;
  }
}

void MpiWorld::synchronize(std::uint64_t sync_cores, sim::TimeNs comm, SyncKind kind) {
  sim::TimeNs span = pending_uniform_;
  // Plain int64 max reduction + fill over the SoA pending array — the
  // vectorizable form of the old per-lane object scan. Skipped outright in
  // the steady state where every cost landed in pending_uniform_ and the
  // per-lane slots are still zero from the previous sync.
  if (lane_pending_dirty_) {
    std::int64_t max_lane = 0;
    for (const std::int64_t lp : lanes_.pending_ns) max_lane = std::max(max_lane, lp);
    std::fill(lanes_.pending_ns.begin(), lanes_.pending_ns.end(), std::int64_t{0});
    span += sim::TimeNs{max_lane};
    lane_pending_dirty_ = false;
  }
  pending_uniform_ = sim::TimeNs{0};

  const NoiseWindow w = extremes_.sample(span, std::max<std::uint64_t>(sync_cores, 1),
                                         rng_, &noise_counters_);
  // Fault/recovery charge for this window (nothing runs when detached, so a
  // fault-free world stays bit-identical to a build without the subsystem).
  sim::TimeNs fault_extra{0};
  if (resilience_ != nullptr) fault_extra = resilience_->on_sync(span);
  clock_ += span + w.max + comm + fault_extra;
  compute_time_ += span;
  noise_wait_ += w.max;
  comm_time_ += comm;
  if (trace_enabled_) trace_.push_back(SyncEvent{kind, span, w.max, comm, clock_});
}

sim::TimeNs MpiWorld::message_cost(sim::Bytes bytes) {
  if (fast_paths_) {
    if (const sim::TimeNs* hit = msg_cache_.find(bytes, engine_.msg_cache_probes)) {
      ++engine_.msg_cache_hits;
      return *hit;
    }
  }
  const auto& net = job_.machine().cluster.network();
  const kernel::Kernel& k = job_.kernel();
  sim::TimeNs t = net.wire_time(bytes, avg_hops_).scaled(1.0 / k.network_bw_factor());
  // Kernel involvement on the send path (hfi1 device-file writes).
  if (net.kernel_involved_ops > 0.0) {
    t += k.network_syscall_overhead().scaled(net.kernel_involved_ops);
  }
  if (fast_paths_) {
    ++engine_.msg_cache_misses;
    msg_cache_.insert(bytes, t);
  }
  return t;
}

sim::TimeNs MpiWorld::collective_cost(sim::Bytes bytes) {
  const auto& net = job_.machine().cluster.network();
  const kernel::Kernel& k = job_.kernel();

  // The stage schedule and base cost depend only on (model, shape, bytes);
  // shape and the kernel/network factors are fixed for the world's lifetime,
  // so memoize on bytes and invalidate if the model constants are retuned.
  sim::TimeNs base{0};
  std::uint64_t stages = 0;
  bool have = false;
  if (fast_paths_) {
    if (!(coll_cache_model_ == coll_)) {
      coll_cache_.clear();
      coll_cache_model_ = coll_;
    }
    if (const CollCosts* hit = coll_cache_.find(bytes, engine_.coll_cache_probes)) {
      base = hit->base;
      stages = hit->stages;
      have = true;
      ++engine_.coll_cache_hits;
    }
  }
  if (!have) {
    CollectiveShape shape{job_.spec().nodes, job_.spec().ranks_per_node, bytes};
    CollectiveCosts costs;
    costs.intra_stage = coll_.intra_stage;
    costs.software_stage = coll_.software_stage;
    costs.bandwidth_factor = k.network_bw_factor();
    if (net.kernel_involved_ops > 0.0) {
      costs.kernel_overhead_per_msg =
          k.network_syscall_overhead().scaled(net.kernel_involved_ops);
    }
    base = allreduce_base_cost(coll_.algo, shape, net, costs);
    const AllreduceAlgo algo =
        coll_.algo == AllreduceAlgo::kAuto ? allreduce_pick(shape) : coll_.algo;
    stages = static_cast<std::uint64_t>(allreduce_stages(algo, shape));
    if (fast_paths_) {
      ++engine_.coll_cache_misses;
      coll_cache_.insert(bytes, CollCosts{base, stages});
    }
  }
  coll_stages_ += stages;

  // Stall coupling: a rank stalled during (or just before) a blocking
  // collective stalls the whole dependency tree. Two regimes:
  //   * sub-critical — the stall ends, the collective completes: pay the
  //     sampled stall;
  //   * super-critical — once the expected number of further stalls arriving
  //     somewhere in the machine *during one stall* reaches one, every stall
  //     hands over to the next and the collective only completes at the
  //     stall-recovery bound (the component cap). This threshold in
  //     rate x duration x cores is the sharp Fig. 5b collapse; the LWKs'
  //     collective-noise model is empty, so they never enter it.
  const std::uint64_t cores = global_cores();
  const sim::TimeNs exposure = base + coll_.stall_exposure;
  sim::TimeNs stall = coll_extremes_.sample(exposure, cores, rng_, &noise_counters_).max;
  // A genuine stall event (not the sub-event mean floor of the sampler)
  // is on the scale of the component's mean duration.
  const double event_scale_ns = coll_extremes_.mean_duration_s() * 1e9 * 0.1;
  if (static_cast<double>(stall.ns()) > event_scale_ns) {
    const double stalls_per_stall = coll_extremes_.total_rate_hz() *
                                    coll_extremes_.mean_duration_s() *
                                    static_cast<double>(cores);
    const sim::TimeNs cap = coll_extremes_.max_cap();
    if (stalls_per_stall >= 1.0 && cap > stall) stall = cap;
  }
  coll_stall_ += stall;
  return base + stall;
}

void MpiWorld::allreduce(sim::Bytes bytes) {
  ++allreduces_;
  synchronize(global_cores(), collective_cost(bytes), SyncKind::kAllreduce);
}

void MpiWorld::barrier() { allreduce(8); }

void MpiWorld::halo_exchange(sim::Bytes bytes_per_msg, int neighbors) {
  MKOS_EXPECTS(neighbors >= 0);
  // Sends in opposite directions overlap; budget ceil(n/2) serialized
  // message times plus per-message kernel involvement.
  sim::TimeNs comm = message_cost(bytes_per_msg) * ((neighbors + 1) / 2);
  const auto& net = job_.machine().cluster.network();
  if (net.kernel_involved_ops > 0.0 && neighbors > 1) {
    comm += job_.kernel().network_syscall_overhead().scaled(
        net.kernel_involved_ops * (neighbors - (neighbors + 1) / 2));
  }
  // Neighborhood synchronization: skew is absorbed from a bounded set of
  // ranks, not the whole machine.
  const auto sync_cores = static_cast<std::uint64_t>(
      (neighbors + 1) * job_.spec().threads_per_rank);
  synchronize(sync_cores, comm, SyncKind::kHalo);
}

sim::TimeNs MpiWorld::finish() {
  synchronize(global_cores(), sim::TimeNs{0}, SyncKind::kFinish);
  return clock_;
}

}  // namespace mkos::runtime
