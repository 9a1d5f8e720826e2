#pragma once
// Deterministic random number generation for the simulator.
//
// xoshiro256** seeded via splitmix64. Experiments derive per-rank / per-node
// streams with `fork(tag)` so that results are reproducible regardless of the
// order in which model components draw numbers.

#include <cstdint>

#include "sim/time.hpp"

namespace mkos::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Pareto with scale xm (> 0) and shape alpha (> 0); heavy tail for alpha <= 2.
  double pareto(double xm, double alpha);

  /// Number of Poisson arrivals with the given expected count (>= 0).
  /// Uses inversion for small means and a normal approximation for large ones.
  std::uint64_t poisson(double mean);

  /// Derive an independent, deterministic child stream.
  [[nodiscard]] Rng fork(std::uint64_t tag) const;

 private:
  std::uint64_t s_[4];
};

}  // namespace mkos::sim
