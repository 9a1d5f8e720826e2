#pragma once
// Simulation time: 64-bit signed nanoseconds.
//
// All models in mkos price work in nanoseconds. A strong type (rather than a
// bare int64_t) keeps durations from being confused with byte counts or
// event sequence numbers, while remaining a trivially copyable value type.

#include <cstdint>
#include <compare>
#include <string>

namespace mkos::sim {

/// A point in simulated time or a duration, in nanoseconds.
class TimeNs {
 public:
  constexpr TimeNs() = default;
  constexpr explicit TimeNs(std::int64_t ns) : ns_(ns) {}

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double us() const { return static_cast<double>(ns_) * 1e-3; }
  [[nodiscard]] constexpr double ms() const { return static_cast<double>(ns_) * 1e-6; }
  [[nodiscard]] constexpr double sec() const { return static_cast<double>(ns_) * 1e-9; }

  constexpr auto operator<=>(const TimeNs&) const = default;

  constexpr TimeNs& operator+=(TimeNs d) { ns_ += d.ns_; return *this; }
  constexpr TimeNs& operator-=(TimeNs d) { ns_ -= d.ns_; return *this; }

  friend constexpr TimeNs operator+(TimeNs a, TimeNs b) { return TimeNs{a.ns_ + b.ns_}; }
  friend constexpr TimeNs operator-(TimeNs a, TimeNs b) { return TimeNs{a.ns_ - b.ns_}; }
  friend constexpr TimeNs operator*(TimeNs a, std::int64_t k) { return TimeNs{a.ns_ * k}; }
  friend constexpr TimeNs operator*(std::int64_t k, TimeNs a) { return TimeNs{a.ns_ * k}; }

  /// Scale by a double (rounds toward zero); used by throughput models.
  [[nodiscard]] constexpr TimeNs scaled(double f) const {
    return TimeNs{static_cast<std::int64_t>(static_cast<double>(ns_) * f)};
  }

 private:
  std::int64_t ns_ = 0;
};

constexpr TimeNs nanoseconds(std::int64_t v) { return TimeNs{v}; }
constexpr TimeNs microseconds(double v) { return TimeNs{static_cast<std::int64_t>(v * 1e3)}; }
constexpr TimeNs milliseconds(double v) { return TimeNs{static_cast<std::int64_t>(v * 1e6)}; }
constexpr TimeNs seconds(double v) { return TimeNs{static_cast<std::int64_t>(v * 1e9)}; }

/// Construct a duration from a (possibly fractional) nanosecond count.
constexpr TimeNs from_double_ns(double v) { return TimeNs{static_cast<std::int64_t>(v)}; }

/// Human-readable rendering ("3.2 ms", "870 ns", ...), for reports.
[[nodiscard]] std::string to_string(TimeNs t);

namespace literals {
constexpr TimeNs operator""_ns(unsigned long long v) { return TimeNs{static_cast<std::int64_t>(v)}; }
constexpr TimeNs operator""_us(unsigned long long v) { return TimeNs{static_cast<std::int64_t>(v) * 1000}; }
constexpr TimeNs operator""_ms(unsigned long long v) { return TimeNs{static_cast<std::int64_t>(v) * 1000000}; }
constexpr TimeNs operator""_s(unsigned long long v) { return TimeNs{static_cast<std::int64_t>(v) * 1000000000}; }
}  // namespace literals

}  // namespace mkos::sim
