#pragma once
// Summary statistics used throughout the experiment harness.
//
// The paper reports medians of five runs with min/max error bars; Summary
// collects samples and produces exactly those, plus mean/stddev/percentiles
// for the ablation benches.

#include <cstddef>
#include <vector>

namespace mkos::sim {

class Summary {
 public:
  void add(double v);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;

  /// Median (interpolated for even counts). Precondition: not empty.
  [[nodiscard]] double median() const;

  /// p in [0, 100]; linear interpolation between closest ranks.
  [[nodiscard]] double percentile(double p) const;

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace mkos::sim
