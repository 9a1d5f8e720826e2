#pragma once
// The benchmark's one timing and percentile helper. Every reported metric
// is built from a Samples set (or is a plain ratio of two counts), so every
// metric prints with its sample count, and a tail percentile that rests on
// fewer than kMinBeyondTail samples beyond it is refused, not reported.

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>

#include "sim/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Host seconds since `since`.
[[nodiscard]] double seconds_since(Clock::time_point since);

/// A tail percentile needs at least this many samples beyond it.
inline constexpr std::size_t kMinBeyondTail = 10;

class Samples {
 public:
  void add(double value) { summary_.add(value); }
  [[nodiscard]] std::size_t count() const { return summary_.count(); }

  /// Linearly interpolated p-th percentile (0 <= p <= 100). nullopt when the
  /// set is empty, or when p > 50 and fewer than kMinBeyondTail samples lie
  /// beyond it (count * (100 - p) / 100 < kMinBeyondTail).
  [[nodiscard]] std::optional<double> percentile(double p) const;
  [[nodiscard]] std::optional<double> median() const { return percentile(50.0); }

 private:
  mkos::sim::Summary summary_;
};

/// One reported metric: value, unit, and the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Metric from a percentile of `s`; nullopt when the percentile is refused.
[[nodiscard]] std::optional<Metric> percentile_metric(const std::string& name,
                                                      const Samples& s, double p,
                                                      const std::string& unit);

/// num / den, or 0 when den is 0 (a layer the workload never reached).
[[nodiscard]] double ratio(double num, double den);

}  // namespace perfbench
