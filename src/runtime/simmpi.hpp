#pragma once
// The bulk-synchronous MPI-like execution model.
//
// Applications drive this API from their timestep loops: accumulate per-rank
// work (roofline compute, heap churn, system calls), then synchronize with a
// communication operation. At each synchronization the world advances the
// global clock by the slowest rank's accumulated work — the maximum over all
// application cores of (deterministic work + sampled OS noise) — plus the
// communication cost.
//
// Collectives additionally model the noise/duration feedback: a rank stalled
// *during* an allreduce delays every stage that depends on it, lengthening
// the collective, which widens the exposure window, which raises the chance
// of another stall. The fixed point of that recurrence is benign when noise
// is light (LWKs) and collapses sharply once expected stalls-per-window
// crosses one (Linux at high node counts) — Fig. 5b's cliff.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "kernel/syscalls.hpp"
#include "mem/heap.hpp"
#include "runtime/collectives.hpp"
#include "runtime/job.hpp"
#include "runtime/noise_extremes.hpp"
#include "sim/thread_safety.hpp"

namespace mkos::alloc {
class NodeAllocModel;
}

namespace mkos::runtime {

class ResilienceManager;

class MKOS_THREAD_CONFINED("one campaign cell task") MpiWorld {
 public:
  MpiWorld(Job& job, std::uint64_t noise_seed);

  // ------------------------------------------------------------ init / info
  /// MPI_Init: shared-memory segment mapping + runtime bring-up.
  void mpi_init(sim::Bytes shm_segment_bytes = 128 * sim::MiB);

  [[nodiscard]] int world_size() const { return job_.world_size(); }
  [[nodiscard]] Job& job() { return job_; }

  /// Refresh cached per-lane bandwidths after the setup phase changed
  /// placements. Called automatically by mpi_init().
  void refresh_lanes();

  /// Attach a fault/recovery manager: every synchronization window is closed
  /// against its fault timeline and the returned charge lands on the clock.
  /// nullptr (the default) detaches — the sync path then does no fault work
  /// at all, keeping fault-free runs bit-identical to pre-subsystem builds.
  void attach_resilience(ResilienceManager* mgr) { resilience_ = mgr; }

  /// Attach a kernel-allocator model: alloc_churn() then prices magazine
  /// and depot traffic through it. nullptr (the default) detaches —
  /// alloc_churn becomes a no-op, keeping model-free runs bit-identical to
  /// pre-subsystem builds.
  void attach_alloc(alloc::NodeAllocModel* model) { alloc_model_ = model; }

  // ------------------------------------------------- per-rank pending work
  /// Memory-bandwidth-bound work: every rank streams `bytes` through its
  /// placement-weighted effective bandwidth.
  void compute_bytes(sim::Bytes bytes_per_rank);
  /// Same, with a per-lane scale factor (repeated cyclically) for imbalanced
  /// decompositions — lane i streams bytes * scale[i % size].
  void compute_bytes_scaled(sim::Bytes bytes_per_rank,
                            const std::vector<double>& lane_scale);
  /// Fixed-duration work (identical on every rank).
  void compute_time(sim::TimeNs per_rank);
  /// Flop-bound work at the node's scalar rate, divided among ranks.
  void compute_flops(double flops_per_rank);
  /// Spin-wait loops calling sched_yield() (OpenMP barriers, MPI progress).
  void sched_yields(int count_per_rank);
  /// Generic system calls issued per rank (priced by kernel disposition).
  void syscall(kernel::Sys s, int count_per_rank, sim::Bytes payload = 256);
  /// Run a brk/sbrk sequence on every lane's heap (deltas in bytes), then
  /// touch the grown memory (Lulesh's allocation churn).
  void heap_cycle(std::span<const std::int64_t> deltas);
  /// Kernel-object allocation churn: every lane performs `pairs_per_rank`
  /// alloc/free pairs of `obj_bytes` objects through the attached allocator
  /// model (per-CPU magazines -> depot -> slab/vmem refill cascade). No-op
  /// when no model is attached.
  void alloc_churn(std::uint64_t pairs_per_rank, sim::Bytes obj_bytes);

  // -------------------------------------------------- synchronizing comms
  /// Tree allreduce of `bytes` (per rank) over the whole world.
  void allreduce(sim::Bytes bytes);
  /// Nearest-neighbour halo exchange: `neighbors` messages of `bytes` each.
  void halo_exchange(sim::Bytes bytes_per_msg, int neighbors);
  /// Global barrier (zero-byte allreduce).
  void barrier();

  // -------------------------------------------------------------- results
  /// Drain pending work (final sync) and return the slowest rank's clock.
  [[nodiscard]] sim::TimeNs finish();
  [[nodiscard]] sim::TimeNs elapsed() const { return clock_; }

  // ------------------------------------------------------------ statistics
  [[nodiscard]] std::uint64_t allreduce_count() const { return allreduces_; }
  /// Inter-node synchronization stages executed across all collectives
  /// (noise-exposure points; kAuto is resolved per shape before counting).
  [[nodiscard]] std::uint64_t collective_stage_count() const { return coll_stages_; }
  /// Cumulative stall time the collectives absorbed from coupled noise.
  [[nodiscard]] sim::TimeNs total_collective_stall() const { return coll_stall_; }

  /// Collective-model constants (exposed for the ablation bench).
  struct CollectiveModel {
    sim::TimeNs intra_stage{600};    ///< shm reduce step within the node
    sim::TimeNs software_stage{900}; ///< per-stage software overhead
    /// Window around the collective during which a stall blocks it (entry
    /// skew + the blocking wait itself).
    sim::TimeNs stall_exposure{sim::microseconds(200)};
    /// Allreduce algorithm (kAuto = size-based, like production MPI).
    AllreduceAlgo algo = AllreduceAlgo::kAuto;

    friend bool operator==(const CollectiveModel&, const CollectiveModel&) = default;
  };
  [[nodiscard]] CollectiveModel& collective_model() { return coll_; }

  // ------------------------------------------------------- sampling engine
  /// Fast-path / cache hit counters of the hot-path sampling engine. Pure
  /// functions of the inputs (no wall-clock, no allocator addresses), so
  /// they live in the deterministic block of the run ledger.
  struct EngineCounters {
    // The two heap counters follow the all-lanes rule: a cycle every lane
    // shares (simulated once or replayed whole from the memo) counts one
    // slow lane and lanes - 1 fast ones; a divergent cycle counts every lane
    // slow, including lanes its class replay never simulates.
    std::uint64_t heap_fast_lanes = 0;    ///< lanes served by a symmetric cycle
    std::uint64_t heap_slow_lanes = 0;    ///< representatives + divergent lanes
    std::uint64_t compute_uniform_fast = 0;  ///< compute ops folded to uniform
    std::uint64_t compute_lane_loops = 0;    ///< compute ops walked per lane
    std::uint64_t coll_cache_hits = 0;    ///< collective base-cost cache hits
    std::uint64_t coll_cache_misses = 0;
    std::uint64_t msg_cache_hits = 0;     ///< point-to-point cost cache hits
    std::uint64_t msg_cache_misses = 0;
    // Data-layout engine telemetry (DESIGN.md §13). Deliberately NOT part of
    // obs::record_world's ledger block — the pre-rewrite ledgers stay
    // byte-identical; bench/event_queue surfaces these as engine.cache.*.
    std::uint64_t coll_cache_probes = 0;  ///< open-table cells inspected
    std::uint64_t msg_cache_probes = 0;
    std::uint64_t heap_memo_hits = 0;     ///< whole brk cycles replayed from memo
    std::uint64_t heap_memo_misses = 0;   ///< symmetric cycles simulated + recorded
    std::uint64_t heap_class_replays = 0; ///< divergent lanes replayed per class
  };
  [[nodiscard]] const EngineCounters& engine_counters() const { return engine_; }
  /// Analytic-vs-exact draw tallies of the noise samplers for this world.
  [[nodiscard]] const kernel::SampleCounters& noise_counters() const {
    return noise_counters_;
  }
  /// Disable (or re-enable) every fast path and cost cache; the slow paths
  /// must produce bit-identical clocks — benches and tests verify this.
  void set_fast_paths(bool on);

  /// Where the slowest rank's time went (telemetry for reports/benches).
  struct PhaseBreakdown {
    sim::TimeNs compute{0};  ///< deterministic per-rank work
    sim::TimeNs noise{0};    ///< waiting on the slowest core's detours
    sim::TimeNs comm{0};     ///< network + collective time (incl. stalls)
  };
  [[nodiscard]] PhaseBreakdown breakdown() const {
    return PhaseBreakdown{compute_time_, noise_wait_, comm_time_};
  }

  /// Per-synchronization trace record (populated when tracing is enabled).
  enum class SyncKind : std::uint8_t { kAllreduce, kHalo, kFinish };
  struct SyncEvent {
    SyncKind kind;
    sim::TimeNs span;   ///< slowest lane's accumulated work in this window
    sim::TimeNs noise;  ///< sampled max detour across the sync scope
    sim::TimeNs comm;   ///< communication cost, including collective stalls
    sim::TimeNs clock;  ///< global clock after the event
  };
  /// Record every synchronization into an in-memory trace (off by default;
  /// the trace of a 60-iteration run is a few KiB).
  void enable_trace(bool on = true) { trace_enabled_ = on; }
  [[nodiscard]] const std::vector<SyncEvent>& trace() const { return trace_; }

 private:
  /// Number of application cores noise is drawn over for a global sync.
  [[nodiscard]] std::uint64_t global_cores() const;
  /// Close the pending window against `sync_cores`, then add `comm`.
  void synchronize(std::uint64_t sync_cores, sim::TimeNs comm,
                   SyncKind kind = SyncKind::kHalo);
  [[nodiscard]] sim::TimeNs message_cost(sim::Bytes bytes);
  [[nodiscard]] sim::TimeNs collective_cost(sim::Bytes bytes);

  Job& job_;
  NoiseExtremes extremes_;       ///< per-core compute-window noise
  NoiseExtremes coll_extremes_;  ///< collective-coupled interference
  sim::Rng rng_;
  CollectiveModel coll_;

  /// Structure-of-arrays lane state (DESIGN.md §13): the synchronize() max
  /// scan, compute_bytes accumulation and heap_cycle replay loop each stride
  /// one contiguous array instead of hopping between per-lane objects. The
  /// heap pointers are cached Process::heap() results — lanes live for the
  /// world's lifetime, so refresh_lanes() is the only invalidation point.
  struct LaneBlock {
    std::vector<double> gbps;              ///< effective bandwidth per lane
    std::vector<std::int64_t> pending_ns;  ///< accumulated work, raw ns
    std::vector<mem::HeapEngine*> heaps;

    [[nodiscard]] std::size_t size() const { return pending_ns.size(); }
  };
  LaneBlock lanes_;
  double min_lane_gbps_ = 0.0;
  bool lanes_uniform_ = false;  ///< all lanes share one effective bandwidth
  int avg_hops_ = 1;            ///< hop count of the average peer (hoisted)

  bool fast_paths_ = true;
  EngineCounters engine_;
  kernel::SampleCounters noise_counters_;

  /// Memoized cost-model outputs, keyed by message size — the only input
  /// that varies within a run (shape, network, kernel factors are fixed).
  /// Open-addressed, linear probing, power-of-two table at <= 1/2 load: the
  /// former linear scans paid up to kCap compares per lookup on cache-busy
  /// benches. Membership semantics (and so hit/miss counts) are unchanged.
  template <typename V>
  struct CostTable {
    static constexpr std::size_t kCap = 64;    ///< entries; past it, recompute
    static constexpr std::size_t kSlots = 128; ///< table cells (power of two)
    struct Cell {
      sim::Bytes key = 0;
      V value{};
      bool used = false;
    };
    std::vector<Cell> cells = std::vector<Cell>(kSlots);
    std::size_t count = 0;

    static std::size_t slot_of(sim::Bytes key) {
      auto x = static_cast<std::uint64_t>(key);
      x ^= x >> 33;
      x *= 0xff51afd7ed558ccdULL;
      x ^= x >> 33;
      return static_cast<std::size_t>(x) & (kSlots - 1);
    }
    /// `probes` tallies cells inspected (engine.cache.* telemetry).
    [[nodiscard]] const V* find(sim::Bytes key, std::uint64_t& probes) const {
      for (std::size_t i = slot_of(key);; i = (i + 1) & (kSlots - 1)) {
        ++probes;
        if (!cells[i].used) return nullptr;
        if (cells[i].key == key) return &cells[i].value;
      }
    }
    void insert(sim::Bytes key, const V& value) {
      if (count >= kCap) return;
      std::size_t i = slot_of(key);
      while (cells[i].used) i = (i + 1) & (kSlots - 1);
      cells[i] = Cell{key, value, true};
      ++count;
    }
    void clear() {
      std::fill(cells.begin(), cells.end(), Cell{});
      count = 0;
    }
  };
  struct CollCosts {
    sim::TimeNs base{0};
    std::uint64_t stages = 0;
  };
  CostTable<CollCosts> coll_cache_;
  CollectiveModel coll_cache_model_;  ///< model the cache was built against
  CostTable<sim::TimeNs> msg_cache_;

  /// One state-neutral brk cycle, recorded for replay (DESIGN.md §11, §13).
  /// heap_memo_ holds whole-cycle entries: a symmetric cycle replays its
  /// cost and counter deltas for every lane — including the former
  /// representative — the next time the same deltas hit the same state.
  /// heap_classes_ holds per-lane entries of divergent cycles: a lane whose
  /// key matches an earlier lane's entry replays it instead of being
  /// simulated. The key is the first five fields.
  struct HeapCycleMemo {
    static constexpr int kAllLanes = -1;  ///< quadrant of a whole-cycle entry

    std::vector<std::int64_t> deltas;
    std::uint64_t heap_fp = 0;  ///< heap state fingerprint at cycle start
    int quadrant = kAllLanes;   ///< home quadrant of the recorded lane
    std::uint64_t phys_fp = 0;  ///< physical-allocator fingerprint at start
    int faulters = 0;
    sim::TimeNs cost{0};   ///< one lane's cycle cost
    mem::HeapStats delta;  ///< monotone-counter delta, applied per lane
  };
  static constexpr std::size_t kHeapMemoCap = 16;
  std::vector<HeapCycleMemo> heap_memo_;
  /// A Lulesh2.0 or AMG2013 world records 5-7 class entries.
  static constexpr std::size_t kHeapClassCap = 64;
  std::vector<HeapCycleMemo> heap_classes_;
  [[nodiscard]] static const HeapCycleMemo* find_heap_memo(
      std::span<const HeapCycleMemo> table, std::span<const std::int64_t> deltas,
      std::uint64_t heap_fp, int quadrant, std::uint64_t phys_fp, int faulters);
  /// Run one lane's brk/touch sequence call by call; returns its cost.
  [[nodiscard]] sim::TimeNs simulate_heap_lane(int lane, std::span<const std::int64_t> deltas,
                                               int faulters);

  sim::TimeNs clock_{0};
  sim::TimeNs pending_uniform_{0};
  /// False while every lanes_.pending_ns entry is zero (the steady state in
  /// which all cost lands in pending_uniform_); lets synchronize() skip the
  /// per-lane max-and-clear scan entirely.
  bool lane_pending_dirty_ = false;

  sim::TimeNs noise_wait_{0};
  sim::TimeNs comm_time_{0};
  sim::TimeNs compute_time_{0};
  ResilienceManager* resilience_ = nullptr;
  alloc::NodeAllocModel* alloc_model_ = nullptr;
  bool trace_enabled_ = false;
  std::vector<SyncEvent> trace_;
  std::uint64_t allreduces_ = 0;
  std::uint64_t coll_stages_ = 0;
  sim::TimeNs coll_stall_{0};
};

}  // namespace mkos::runtime
