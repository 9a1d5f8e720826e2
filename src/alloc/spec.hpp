#pragma once
// mkos::alloc — declarative configuration of the kernel-allocator model.
//
// The spec is inert by default: `AllocSpec{}` must leave every simulation
// bit-identical to a build without the subsystem. SystemConfig folds the
// fingerprint in only when enabled(), mirroring fault::Spec, so pre-existing
// campaign cache keys, cell-store entries and ledger digests all survive the
// subsystem being compiled in.

#include <bit>
#include <cstdint>

#include "sim/hash.hpp"

namespace mkos::alloc {

/// Knobs of the VMem + per-CPU-magazine allocator model (DESIGN.md §17).
/// Per-kernel personality parameters (quantum sizes, lock costs, contention
/// coefficients) live in model.cpp; the spec scales them.
struct AllocSpec {
  /// Master switch. Off (the default): allocation stays free, exactly as
  /// before the subsystem existed — no model is built, no counters emitted.
  bool model_allocator = false;

  /// Multiplies each personality's depot/zone lock-contention coefficient
  /// (0 = perfectly scalable locks, 1 = calibrated default).
  double contention_scale = 1.0;

  /// Multiplies the whole per-churn cost a lane is charged (sensitivity
  /// sweeps; 1 = calibrated default).
  double churn_cost_scale = 1.0;

  /// Global ceiling on the per-CPU magazine size (rounds). The resize policy
  /// doubles magazines under depot pressure up to this cap.
  int magazine_cap = 128;

  /// Linux personality only: a kswapd-style reclaim daemon trims full
  /// magazines out of the depot (forcing repeated slab reconstruction under
  /// the zone lock) and contributes a `kreclaimd` noise component at
  /// `reclaim_rate_hz` on the application cores.
  bool linux_reclaim_daemon = true;
  double reclaim_rate_hz = 3.0;

  /// True when the spec can change observable behavior.
  [[nodiscard]] bool enabled() const { return model_allocator; }

  /// Stable content hash over every knob. Folded into
  /// core::SystemConfig::fingerprint() — but only when enabled(), so inert
  /// configs keep their pre-subsystem cache keys.
  [[nodiscard]] std::uint64_t fingerprint() const {
    std::uint64_t h = sim::kFnvOffsetBasis;
    const auto mix = [&h](std::uint64_t v) { h = sim::fnv1a_word(h, v); };
    mix(static_cast<std::uint64_t>(model_allocator));
    mix(std::bit_cast<std::uint64_t>(contention_scale));
    mix(std::bit_cast<std::uint64_t>(churn_cost_scale));
    mix(static_cast<std::uint64_t>(magazine_cap));
    mix(static_cast<std::uint64_t>(linux_reclaim_daemon));
    mix(std::bit_cast<std::uint64_t>(reclaim_rate_hz));
    return h;
  }
};

}  // namespace mkos::alloc
