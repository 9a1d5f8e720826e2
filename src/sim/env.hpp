#pragma once
// Strict environment / CLI integer parsing.
//
// std::atoi silently maps garbage to 0, so `MKOS_THREADS=all` used to mean
// "zero threads" and fall back to a default — a misconfiguration the user
// never hears about. Integer env knobs parse through parse_int():
// MKOS_THREADS via env_int() below, MKOS_SHARD via core::ShardSpec. Unset
// keeps the fallback; anything else must parse as a strict base-10 integer
// inside the caller's range or the process stops with an error naming the
// variable.
//
// Header-only on purpose: in MKOS_CONTRACTS_THROW test builds the failure
// path throws ContractViolation from the test's own translation unit, so
// bad-input behavior is testable with EXPECT_THROW instead of death tests.

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string_view>

#include "sim/contracts.hpp"

namespace mkos::sim {

/// Strict base-10 parse: optional +/- sign, then digits only — no leading or
/// trailing junk, no overflow past long long. Empty or invalid → nullopt.
inline std::optional<long long> parse_int(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::size_t i = 0;
  const bool negative = text[0] == '-';
  if (text[0] == '-' || text[0] == '+') ++i;
  if (i == text.size()) return std::nullopt;
  constexpr long long kMax = std::numeric_limits<long long>::max();
  long long magnitude = 0;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') return std::nullopt;
    const int digit = c - '0';
    if (magnitude > (kMax - digit) / 10) return std::nullopt;  // would overflow
    magnitude = magnitude * 10 + digit;
  }
  // -kMax - 1 (LLONG_MIN) is representable but its magnitude is not; treating
  // it as overflow keeps the loop simple and costs one value nobody passes.
  return negative ? -magnitude : magnitude;
}

namespace detail {
[[noreturn]] inline void env_failure(const char* name, const char* value,
                                     long long lo, long long hi) {
  char msg[256];
  std::snprintf(msg, sizeof msg, "%s='%s' (expected integer in [%lld, %lld])",
                name, value, lo, hi);
#ifdef MKOS_CONTRACTS_THROW
  std::string what("mkos: invalid environment: ");
  what.append(msg);
  throw ContractViolation(what);
#else
  std::fprintf(stderr, "mkos: invalid environment: %s\n", msg);
  std::exit(2);  // user input error, not a program bug: no abort/core
#endif
}
}  // namespace detail

/// `getenv(name)` parsed strictly. Unset → `fallback` (which need not lie in
/// [lo, hi]; e.g. a "use hardware concurrency" sentinel). Set but
/// non-numeric, overflowing, or outside [lo, hi] → clear error naming the
/// variable (exit(2), or ContractViolation under MKOS_CONTRACTS_THROW).
inline int env_int(const char* name, int fallback,
                   int lo = std::numeric_limits<int>::min(),
                   int hi = std::numeric_limits<int>::max()) {
  MKOS_EXPECTS(lo <= hi);
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const std::optional<long long> parsed = parse_int(value);
  if (!parsed || *parsed < lo || *parsed > hi) {
    detail::env_failure(name, value, lo, hi);
  }
  return static_cast<int>(*parsed);
}

}  // namespace mkos::sim
