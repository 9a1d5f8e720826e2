#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

#include "sim/contracts.hpp"

namespace mkos::sim {

void Summary::add(double v) {
  samples_.push_back(v);
  sorted_valid_ = false;
}

void Summary::ensure_sorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Summary::min() const {
  MKOS_EXPECTS(!samples_.empty());
  ensure_sorted();
  return sorted_.front();
}

double Summary::max() const {
  MKOS_EXPECTS(!samples_.empty());
  ensure_sorted();
  return sorted_.back();
}

double Summary::mean() const {
  MKOS_EXPECTS(!samples_.empty());
  double s = 0.0;
  for (double v : samples_) s += v;
  return s / static_cast<double>(samples_.size());
}

double Summary::stddev() const {
  MKOS_EXPECTS(!samples_.empty());
  if (samples_.size() == 1) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (double v : samples_) s += (v - m) * (v - m);
  return std::sqrt(s / static_cast<double>(samples_.size() - 1));
}

double Summary::median() const { return percentile(50.0); }

double Summary::percentile(double p) const {
  MKOS_EXPECTS(!samples_.empty());
  MKOS_EXPECTS(p >= 0.0 && p <= 100.0);
  ensure_sorted();
  if (sorted_.size() == 1) return sorted_[0];
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

}  // namespace mkos::sim
