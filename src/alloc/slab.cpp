#include "alloc/slab.hpp"

#include <algorithm>

#include "sim/contracts.hpp"

namespace mkos::alloc {

namespace {

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

}  // namespace

SlabCache::SlabCache(VmemArena* arena, sim::Bytes obj_bytes,
                     sim::Bytes slab_span, SlabCosts costs,
                     MagazinePolicy policy, int cpus)
    : arena_(arena),
      obj_bytes_(obj_bytes),
      slab_span_(slab_span),
      rounds_per_slab_(slab_span / obj_bytes),
      costs_(costs),
      policy_(policy),
      cpus_(static_cast<std::size_t>(cpus)) {
  MKOS_EXPECTS(arena_ != nullptr);
  slab_stride_ = sim::align_up(slab_span_, arena_->quantum());
  MKOS_EXPECTS(obj_bytes_ > 0);
  MKOS_EXPECTS(rounds_per_slab_ > 0);
  MKOS_EXPECTS(policy_.min_rounds > 0);
  MKOS_EXPECTS(policy_.max_rounds >= policy_.min_rounds);
  for (auto& c : cpus_) c.mag_rounds = policy_.min_rounds;
}

sim::TimeNs SlabCache::churn(int cpu, std::uint64_t pairs, int active_cpus,
                             double contention_scale,
                             double churn_cost_scale) {
  MKOS_EXPECTS(cpu >= 0 && cpu < static_cast<int>(cpus_.size()));
  if (pairs == 0) return sim::TimeNs{0};
  CpuCache& c = cpus_[static_cast<std::size_t>(cpu)];
  const auto mag = static_cast<std::uint64_t>(c.mag_rounds);

  // Every alloc and every free at least touches the loaded magazine.
  sim::TimeNs cost = costs_.cpu_hit * static_cast<std::int64_t>(2 * pairs);

  // Alloc side: serve from loaded+previous, then the depot, then construct
  // fresh rounds from new slabs carved out of the arena (the refill cascade).
  const std::uint64_t held = c.loaded + c.previous;
  const std::uint64_t from_cache = std::min(pairs, held);
  stats_.magazine_hits += from_cache;
  const std::uint64_t need = pairs - from_cache;
  stats_.magazine_misses += need;

  const std::uint64_t from_depot = std::min(need, depot_rounds_);
  depot_rounds_ -= from_depot;
  const std::uint64_t load_trips = ceil_div(from_depot, mag);
  stats_.depot_loads += load_trips;

  const std::uint64_t constructed = need - from_depot;
  std::uint64_t slabs = 0;
  if (constructed > 0) {
    slabs = ceil_div(constructed, rounds_per_slab_);
    // One run for the burst. If the backing runs dry it stops short, and the
    // model keeps going on fumes.
    const VmemRunAlloc built =
        arena_->alloc_run(slab_span_, slabs, slab_runs_);
    cost += built.cost;
    stats_.slab_creates += built.granted;
    // Rounds in freshly built slabs beyond what this burst consumes sit in
    // the depot for the next miss.
    depot_rounds_ += slabs * rounds_per_slab_ - constructed;
  }

  // Free side: the burst returns every object; the per-CPU layer keeps at
  // most two magazines' worth, the rest unloads to the depot.
  const std::uint64_t total = (held - from_cache) + pairs;
  const std::uint64_t keep = std::min(total, 2 * mag);
  const std::uint64_t to_depot = total - keep;
  const std::uint64_t unload_trips = ceil_div(to_depot, mag);
  stats_.depot_unloads += unload_trips;
  depot_rounds_ += to_depot;
  c.loaded = std::min(keep, mag);
  c.previous = keep - c.loaded;

  // Lock costs scale with concurrency through the personality's contention
  // coefficient — the Linux-vs-LWK differentiator.
  const double cpus_beyond_self =
      active_cpus > 1 ? static_cast<double>(active_cpus - 1) : 0.0;
  const double factor =
      1.0 + costs_.lock_contention * contention_scale * cpus_beyond_self;
  const sim::TimeNs depot_cost =
      (costs_.depot_lock * static_cast<std::int64_t>(load_trips + unload_trips))
          .scaled(factor);
  const sim::TimeNs zone_cost =
      (costs_.zone_lock * static_cast<std::int64_t>(slabs)).scaled(factor);
  stats_.depot_lock_ns += static_cast<std::uint64_t>(depot_cost.ns());
  stats_.zone_lock_ns += static_cast<std::uint64_t>(zone_cost.ns());
  cost += depot_cost + zone_cost;

  // Magazine resize: grow under depot pressure, shrink after a quiet streak.
  const std::uint64_t trips = load_trips + unload_trips;
  if (trips > static_cast<std::uint64_t>(policy_.grow_trip_threshold) &&
      c.mag_rounds < policy_.max_rounds) {
    c.mag_rounds = std::min(c.mag_rounds * 2, policy_.max_rounds);
    c.quiet_bursts = 0;
    ++stats_.resizes_up;
  } else if (trips == 0) {
    ++c.quiet_bursts;
    if (c.quiet_bursts >= policy_.shrink_quiet_bursts &&
        c.mag_rounds > policy_.min_rounds) {
      c.mag_rounds = std::max(c.mag_rounds / 2, policy_.min_rounds);
      c.quiet_bursts = 0;
      ++stats_.resizes_down;
      // Shrunk magazines may no longer hold what the CPU cached; spill the
      // overflow to the depot (uncharged: piggybacks on the next trip).
      const auto cap = static_cast<std::uint64_t>(2 * c.mag_rounds);
      const std::uint64_t cached = c.loaded + c.previous;
      if (cached > cap) {
        depot_rounds_ += cached - cap;
        c.loaded = std::min(cap, static_cast<std::uint64_t>(c.mag_rounds));
        c.previous = cap - c.loaded;
      }
    }
  } else {
    c.quiet_bursts = 0;
  }

  return cost.scaled(churn_cost_scale);
}

void SlabCache::drain(int cpu) {
  MKOS_EXPECTS(cpu >= 0 && cpu < static_cast<int>(cpus_.size()));
  CpuCache& c = cpus_[static_cast<std::size_t>(cpu)];
  const std::uint64_t cached = c.loaded + c.previous;
  if (cached > 0) {
    stats_.depot_unloads +=
        ceil_div(cached, static_cast<std::uint64_t>(c.mag_rounds));
    depot_rounds_ += cached;
    c.loaded = 0;
    c.previous = 0;
  }
  c.quiet_bursts = 0;
}

SlabCache::ReclaimResult SlabCache::reclaim(std::uint64_t target_rounds) {
  ReclaimResult out;
  out.trimmed_rounds = std::min(depot_rounds_, target_rounds);
  depot_rounds_ -= out.trimmed_rounds;
  std::uint64_t freeable = out.trimmed_rounds / rounds_per_slab_;
  while (freeable > 0 && !slab_runs_.empty()) {
    // Newest slabs first: the tail of the last run, then the run before.
    VmemRun& run = slab_runs_.back();
    const std::uint64_t n = std::min(freeable, run.count);
    run.count -= n;
    arena_->free_run(run.offset + run.count * slab_stride_, slab_span_, n);
    if (run.count == 0) slab_runs_.pop_back();
    stats_.slab_frees += n;
    out.freed_slabs += n;
    freeable -= n;
  }
  return out;
}

int SlabCache::magazine_rounds(int cpu) const {
  MKOS_EXPECTS(cpu >= 0 && cpu < static_cast<int>(cpus_.size()));
  return cpus_[static_cast<std::size_t>(cpu)].mag_rounds;
}

std::uint64_t SlabCache::cached_rounds(int cpu) const {
  MKOS_EXPECTS(cpu >= 0 && cpu < static_cast<int>(cpus_.size()));
  const CpuCache& c = cpus_[static_cast<std::size_t>(cpu)];
  return c.loaded + c.previous;
}

}  // namespace mkos::alloc
