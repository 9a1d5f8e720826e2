// Contracts in MKOS_CONTRACTS_THROW mode: violations surface as
// mkos::sim::ContractViolation so tests assert them with EXPECT_THROW
// instead of death tests (which fork — slow, and hostile to TSan/ASan).
// This binary is compiled with MKOS_CONTRACTS_THROW and MKOS_AUDIT_ENABLED;
// the rest of the suite keeps abort semantics, so the two modes coexist.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>

#include "core/campaign.hpp"
#include "hw/topology.hpp"
#include "kernel/noise.hpp"
#include "mem/address_space.hpp"
#include "runtime/noise_extremes.hpp"
#include "sim/contracts.hpp"
#include "sim/env.hpp"
#include "sim/rng.hpp"

namespace {

using mkos::sim::ContractViolation;

int checked_half(int v) {
  MKOS_EXPECTS(v >= 0);
  const int half = v / 2;
  MKOS_ENSURES(half * 2 <= v);
  return half;
}

TEST(ContractsThrow, ExpectsThrowsOnViolation) {
  EXPECT_EQ(checked_half(8), 4);
  EXPECT_THROW(checked_half(-1), ContractViolation);
}

TEST(ContractsThrow, MessageNamesKindExpressionAndSite) {
  try {
    MKOS_EXPECTS(1 < 0);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos) << what;
    EXPECT_NE(what.find("1 < 0"), std::string::npos) << what;
    EXPECT_NE(what.find("test_contracts.cpp"), std::string::npos) << what;
  }
}

TEST(ContractsThrow, EnsuresAndAssertThrowTheirKinds) {
  try {
    MKOS_ENSURES(false);
    FAIL();
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("postcondition"), std::string::npos);
  }
  try {
    MKOS_ASSERT(false);
    FAIL();
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("invariant"), std::string::npos);
  }
}

TEST(ContractsThrow, ViolationIsALogicError) {
  // Catchable as std::logic_error: contract breaks are programming errors.
  EXPECT_THROW(MKOS_EXPECTS(false), std::logic_error);
}

// --------------------------------------------------------------- MKOS_AUDIT

TEST(Audit, EnabledAuditChecksFire) {
  int walks = 0;
  MKOS_AUDIT([&] {
    ++walks;
    return true;
  }());
  EXPECT_EQ(walks, 1);  // MKOS_AUDIT_ENABLED: the walk really ran
  try {
    MKOS_AUDIT(2 + 2 == 5);
    FAIL();
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("audit"), std::string::npos);
  }
}

// ------------------------------------------------------------ model bounds
// The sources these checks live in are compiled into this binary in throw
// mode (tests/CMakeLists.txt), so the library's own contracts throw here.

TEST(ModelBounds, PlacementRejectsADomainPastTheBound) {
  mkos::mem::Placement p;
  EXPECT_THROW(p.add(mkos::hw::kMaxDomains, mkos::mem::PageSize::k4K, 4096), ContractViolation);
  EXPECT_THROW(p.add(-1, mkos::mem::PageSize::k4K, 4096), ContractViolation);
  p.add(mkos::hw::kMaxDomains - 1, mkos::mem::PageSize::k4K, 4096);
  EXPECT_EQ(p.total(), 4096u);
}

mkos::hw::NodeTopology flat_topology(int domains) {
  std::vector<mkos::hw::MemoryDomain> ds;
  for (int d = 0; d < domains; ++d) {
    ds.push_back(mkos::hw::MemoryDomain{d, mkos::hw::MemKind::kDdr4, 1 << 30, 10.0,
                                        mkos::sim::TimeNs{100}, 0});
  }
  std::vector<std::vector<int>> dist(static_cast<std::size_t>(domains),
                                     std::vector<int>(static_cast<std::size_t>(domains), 10));
  return mkos::hw::NodeTopology{"flat", {mkos::hw::Core{0, 0, 4}}, std::move(ds),
                                std::move(dist)};
}

TEST(ModelBounds, TopologyRejectsMoreDomainsThanPlacementsHold) {
  EXPECT_EQ(flat_topology(mkos::hw::kMaxDomains).domains().size(), 8u);
  EXPECT_THROW((void)flat_topology(mkos::hw::kMaxDomains + 1), ContractViolation);
}

TEST(ModelBounds, NoiseExtremesRejectsAnUncappedInfiniteVarianceSource) {
  using mkos::kernel::NoiseComponent;
  NoiseComponent tail{"tail", 40.0, mkos::sim::microseconds(20), NoiseComponent::Dist::kPareto,
                      1.5, mkos::sim::TimeNs{0}};
  EXPECT_THROW(mkos::runtime::NoiseExtremes{mkos::kernel::NoiseModel{{tail}}},
               ContractViolation);
  tail.pareto_alpha = 2.0;  // the variance still diverges at alpha == 2
  EXPECT_THROW(mkos::runtime::NoiseExtremes{mkos::kernel::NoiseModel{{tail}}},
               ContractViolation);
  // The same source with a cap has finite moments.
  tail.cap = mkos::sim::milliseconds(2);
  EXPECT_NO_THROW(mkos::runtime::NoiseExtremes{mkos::kernel::NoiseModel{{tail}}});
  // So has an uncapped Pareto whose variance converges.
  tail.cap = mkos::sim::TimeNs{0};
  tail.pareto_alpha = 2.5;
  EXPECT_NO_THROW(mkos::runtime::NoiseExtremes{mkos::kernel::NoiseModel{{tail}}});
}

// ------------------------------------------------------- env_int throw mode

TEST(EnvThrow, GarbageThrowsInsteadOfMappingToZero) {
  ASSERT_EQ(setenv("MKOS_TEST_THREADS", "all", 1), 0);
  EXPECT_THROW(mkos::sim::env_int("MKOS_TEST_THREADS", 1, 1, 64),
               ContractViolation);
  unsetenv("MKOS_TEST_THREADS");
}

TEST(EnvThrow, OutOfRangeThrowsWithRangeInMessage) {
  ASSERT_EQ(setenv("MKOS_TEST_THREADS", "0", 1), 0);
  try {
    (void)mkos::sim::env_int("MKOS_TEST_THREADS", 1, 1, 64);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("MKOS_TEST_THREADS"), std::string::npos) << what;
    EXPECT_NE(what.find("[1, 64]"), std::string::npos) << what;
  }
  unsetenv("MKOS_TEST_THREADS");
}

TEST(EnvThrow, TrailingJunkAndOverflowThrow) {
  for (const char* bad : {"8x", " 8", "8 ", "0x10", "9999999999999999999999", ""}) {
    ASSERT_EQ(setenv("MKOS_TEST_THREADS", bad, 1), 0);
    EXPECT_THROW(mkos::sim::env_int("MKOS_TEST_THREADS", 1, 1, 64),
                 ContractViolation)
        << "accepted garbage: '" << bad << "'";
  }
  unsetenv("MKOS_TEST_THREADS");
}

TEST(EnvThrow, ValidAndUnsetStillWork) {
  unsetenv("MKOS_TEST_THREADS");
  EXPECT_EQ(mkos::sim::env_int("MKOS_TEST_THREADS", 7, 1, 64), 7);
  ASSERT_EQ(setenv("MKOS_TEST_THREADS", "32", 1), 0);
  EXPECT_EQ(mkos::sim::env_int("MKOS_TEST_THREADS", 7, 1, 64), 32);
  unsetenv("MKOS_TEST_THREADS");
}

// ------------------------------------------------- env parsers, fuzzed
//
// MKOS_THREADS (sim::env_int) and MKOS_SHARD (ShardSpec::from_env) are the
// only integer parsers of the environment. Each is driven with seeded
// mutations of valid values and must either return exactly what the
// reference parser below returns or throw ContractViolation.

/// Reference: an optional sign, then one or more ASCII digits and nothing
/// else, whose value lies in [lo, hi]. More than 18 significant digits is
/// far outside every range used here.
std::optional<long long> reference_int(const std::string& text, long long lo,
                                       long long hi) {
  std::size_t i = 0;
  if (!text.empty() && (text[0] == '+' || text[0] == '-')) ++i;
  if (i == text.size()) return std::nullopt;
  for (std::size_t j = i; j < text.size(); ++j) {
    if (text[j] < '0' || text[j] > '9') return std::nullopt;
  }
  while (i + 1 < text.size() && text[i] == '0') ++i;
  if (text.size() - i > 18) return std::nullopt;
  long long value = 0;
  for (; i < text.size(); ++i) value = value * 10 + (text[i] - '0');
  if (text[0] == '-') value = -value;
  if (value < lo || value > hi) return std::nullopt;
  return value;
}

/// Reference for MKOS_SHARD: empty is unsharded, otherwise <index>/<count>
/// split at the first '/', with 0 <= index < count <= 4096.
std::optional<mkos::core::ShardSpec> reference_shard(const std::string& text) {
  if (text.empty()) return mkos::core::ShardSpec{};
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) return std::nullopt;
  const auto count = reference_int(text.substr(slash + 1), 1, 4096);
  if (!count) return std::nullopt;
  const auto index = reference_int(text.substr(0, slash), 0, *count - 1);
  if (!index) return std::nullopt;
  return mkos::core::ShardSpec{static_cast<int>(*index), static_cast<int>(*count)};
}

std::string digit_run(mkos::sim::Rng& rng) {
  std::string run(20 + rng.uniform_index(10), '0');
  for (char& c : run) c = static_cast<char>('0' + rng.uniform_index(10));
  return run;
}

/// Zero to three edits of a valid value: digit flips, signs, spaces, a
/// second '/', a "0x" prefix, runs of 20+ digits or zeros, a dropped
/// character, or the empty string.
std::string mutate(std::string text, mkos::sim::Rng& rng) {
  const auto edits = rng.uniform_index(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t at = rng.uniform_index(text.size() + 1);
    const std::size_t in = std::min(at, text.empty() ? 0 : text.size() - 1);
    switch (rng.uniform_index(9)) {
      case 0:
        if (!text.empty()) text[in] = static_cast<char>('0' + rng.uniform_index(10));
        break;
      case 1: text.insert(at, 1, rng.uniform_index(2) == 0 ? '-' : '+'); break;
      case 2: text.insert(at, 1, ' '); break;
      case 3: text.insert(at, 1, '/'); break;
      case 4: text.insert(0, "0x"); break;
      case 5: text.insert(at, digit_run(rng)); break;
      case 6: text.insert(at, std::string(20 + rng.uniform_index(10), '0')); break;
      case 7:
        if (!text.empty()) text.erase(in, 1);
        break;
      default: text.clear(); break;
    }
  }
  return text;
}

TEST(EnvFuzz, ThreadsParserMatchesTheReferenceOrThrows) {
  mkos::sim::Rng rng(20);
  int returned = 0;
  int thrown = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string text = mutate(std::to_string(rng.uniform_index(5000)), rng);
    ASSERT_EQ(setenv("MKOS_THREADS", text.c_str(), 1), 0);
    const std::optional<long long> want = reference_int(text, 1, 4096);
    try {
      // The bounds sim::default_threads() passes.
      const int got = mkos::sim::env_int("MKOS_THREADS", 0, 1, 4096);
      ASSERT_TRUE(want.has_value()) << "accepted '" << text << "' as " << got;
      ASSERT_EQ(got, *want) << "'" << text << "'";
      ++returned;
    } catch (const ContractViolation&) {
      ASSERT_FALSE(want.has_value()) << "rejected '" << text << "'";
      ++thrown;
    }
  }
  unsetenv("MKOS_THREADS");
  EXPECT_GT(returned, 300);
  EXPECT_GT(thrown, 300);
}

TEST(EnvFuzz, ShardParserMatchesTheReferenceOrThrows) {
  using mkos::core::ShardSpec;
  mkos::sim::Rng rng(21);
  int returned = 0;
  int thrown = 0;
  for (int i = 0; i < 3000; ++i) {
    const auto count = 1 + rng.uniform_index(4096);
    const auto index = rng.uniform_index(count + 1);  // index == count is invalid
    const std::string text =
        mutate(std::to_string(index) + "/" + std::to_string(count), rng);
    ASSERT_EQ(setenv(ShardSpec::kEnvVar, text.c_str(), 1), 0);
    const std::optional<ShardSpec> want = reference_shard(text);
    try {
      const ShardSpec got = ShardSpec::from_env();
      ASSERT_TRUE(want.has_value()) << "accepted '" << text << "'";
      ASSERT_EQ(got.index, want->index) << "'" << text << "'";
      ASSERT_EQ(got.count, want->count) << "'" << text << "'";
      ++returned;
    } catch (const ContractViolation&) {
      ASSERT_FALSE(want.has_value()) << "rejected '" << text << "'";
      ++thrown;
    }
  }
  unsetenv(ShardSpec::kEnvVar);
  EXPECT_GT(returned, 300);
  EXPECT_GT(thrown, 300);
}

}  // namespace
