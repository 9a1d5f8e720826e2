#include "samples.hpp"

namespace perfbench {

double seconds_since(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

std::optional<double> Samples::percentile(double p) const {
  if (summary_.empty() || p < 0.0 || p > 100.0) return std::nullopt;
  if (p > 50.0) {
    const double beyond = static_cast<double>(summary_.count()) * (100.0 - p) / 100.0;
    // Tolerate the rounding of (100 - p) for p such as 99.9.
    if (beyond + 1e-9 < static_cast<double>(kMinBeyondTail)) return std::nullopt;
  }
  return summary_.percentile(p);
}

std::optional<Metric> percentile_metric(const std::string& name, const Samples& s,
                                        double p, const std::string& unit) {
  const auto value = s.percentile(p);
  if (!value) return std::nullopt;
  return Metric{name, *value, unit, s.count()};
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace perfbench
