// Unit tests: histogram, CSV export and strict env-knob parsing — the
// framework extensions layered on the simulation kernel.

#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/env.hpp"
#include "sim/format.hpp"
#include "sim/histogram.hpp"
#include "sim/rng.hpp"

namespace {

using namespace mkos;
using namespace mkos::sim;

// ---------------------------------------------------------------- Histogram

TEST(Histogram, BinningAndCounts) {
  Histogram h{1.0, 1e6, 4};
  h.add(10.0);
  h.add(10.0);
  h.add(1e5);
  h.add(0.1);    // underflow
  h.add(1e7);    // overflow
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  std::uint64_t binned = 0;
  for (std::size_t i = 0; i < h.bin_count(); ++i) binned += h.bin(i);
  EXPECT_EQ(binned, 3u);
}

TEST(Histogram, BinEdgesAreLogSpaced) {
  Histogram h{1.0, 1e3, 1};
  ASSERT_EQ(h.bin_count(), 3u);
  EXPECT_NEAR(h.bin_lower(0), 1.0, 1e-9);
  EXPECT_NEAR(h.bin_lower(1), 10.0, 1e-9);
  EXPECT_NEAR(h.bin_upper(2), 1e3, 1e-6);
}

TEST(Histogram, QuantilesApproximateTheDistribution) {
  Histogram h{1.0, 1e7, 16};
  Rng rng{5};
  for (int i = 0; i < 100000; ++i) h.add(rng.exponential(1000.0));
  // Median of Exp(1000) is 1000*ln2 ~= 693.
  EXPECT_NEAR(h.quantile(0.5), 693.0, 120.0);
  EXPECT_GT(h.quantile(0.99), h.quantile(0.5) * 4);
}

// Regression: add(max_value) used to land in overflow — the top bin is a
// closed interval, so a value at the declared upper bound is in range.
TEST(Histogram, ValueAtUpperBoundLandsInTopBinNotOverflow) {
  Histogram h{1.0, 1e3, 1};
  h.add(1e3);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.bin(h.bin_count() - 1), 1u);
  h.add(1e3 * 1.0001);  // just past the bound still overflows
  EXPECT_EQ(h.overflow(), 1u);
}

// Regression: a quantile target landing exactly on an empty bin's boundary
// used to skip ahead into a later bin; it must resolve to the boundary.
TEST(Histogram, QuantileResolvesEmptyBinsToTheirBoundary) {
  Histogram h{1.0, 1e3, 1};  // bins [1,10) [10,100) [100,1000]
  h.add(5.0);   // bin 0
  h.add(500.0); // bin 2; bin 1 stays empty
  // q=0.5 -> target = 1.0 = all of bin 0's mass: the boundary of empty
  // bin 1, i.e. its lower edge (== upper edge of the last mass).
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  // Mass past the boundary interpolates inside bin 2, never inside bin 1.
  EXPECT_GE(h.quantile(0.75), 100.0);
}

// Regression: an all-overflow histogram used to silently report the top
// edge as if it were real mass; it still saturates there (the true value
// lies above), but overflow() exposes the saturation to callers.
TEST(Histogram, AllOverflowQuantileSaturatesAtTopEdge) {
  Histogram h{1.0, 1e3, 1};
  h.add(1e6, 10);
  EXPECT_EQ(h.overflow(), h.total());
  EXPECT_NEAR(h.quantile(0.5), 1e3, 1e-6);
  EXPECT_NEAR(h.quantile(0.99), 1e3, 1e-6);
}

TEST(Histogram, AllUnderflowQuantileSaturatesAtMin) {
  Histogram h{1.0, 1e3, 1};
  h.add(0.001, 4);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
}

TEST(Histogram, MergeAddsBinWise) {
  Histogram a{1.0, 1e3, 1};
  Histogram b{1.0, 1e3, 1};
  a.add(5.0, 2);
  a.add(0.1);
  b.add(5.0, 3);
  b.add(1e6);
  a.merge(b);
  EXPECT_EQ(a.total(), 7u);
  EXPECT_EQ(a.bin(0), 5u);
  EXPECT_EQ(a.underflow(), 1u);
  EXPECT_EQ(a.overflow(), 1u);
}

TEST(Histogram, ToStringRendersBars) {
  Histogram h{1.0, 100.0, 2};
  h.add(5.0, 10);
  const std::string s = h.to_string();
  EXPECT_NE(s.find('#'), std::string::npos);
  EXPECT_NE(s.find("10"), std::string::npos);
}

// ----------------------------------------------------------------- Table CSV

TEST(Report, CsvEscaping) {
  sim::Table t{{"name", "value"}};
  t.add_row({"plain", "1"});
  t.add_row({"with,comma", "2"});
  t.add_row({"with\"quote", "3"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("name,value\n"), std::string::npos);
  EXPECT_NE(csv.find("plain,1\n"), std::string::npos);
  EXPECT_NE(csv.find("\"with,comma\",2\n"), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\",3\n"), std::string::npos);
}

// --------------------------------------------------- strict integer parsing

TEST(ParseInt, AcceptsStrictBase10Only) {
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int("+7"), 7);
  EXPECT_EQ(parse_int("9223372036854775807"), 9223372036854775807LL);
}

TEST(ParseInt, RejectsGarbageAtoiWouldAcceptOrZero) {
  for (const char* bad : {"", " ", "all", "8x", "x8", " 8", "8 ", "0x10", "1.5",
                          "--1", "+", "-", "9223372036854775808"}) {
    EXPECT_FALSE(parse_int(bad).has_value()) << "accepted: '" << bad << "'";
  }
}

TEST(EnvInt, UnsetKeepsFallbackAndValidParses) {
  unsetenv("MKOS_EXTRAS_KNOB");
  EXPECT_EQ(env_int("MKOS_EXTRAS_KNOB", 11, 1, 64), 11);
  ASSERT_EQ(setenv("MKOS_EXTRAS_KNOB", "48", 1), 0);
  EXPECT_EQ(env_int("MKOS_EXTRAS_KNOB", 11, 1, 64), 48);
  unsetenv("MKOS_EXTRAS_KNOB");
}

TEST(EnvInt, FallbackMayLieOutsideTheRange) {
  // 0 as a "use the default" sentinel with a [1, n] validation range.
  unsetenv("MKOS_EXTRAS_KNOB");
  EXPECT_EQ(env_int("MKOS_EXTRAS_KNOB", 0, 1, 64), 0);
}

TEST(EnvInt, GarbageDiesWithClearError) {
  ASSERT_EQ(setenv("MKOS_EXTRAS_KNOB", "all", 1), 0);
  EXPECT_EXIT(env_int("MKOS_EXTRAS_KNOB", 1, 1, 64),
              ::testing::ExitedWithCode(2), "invalid environment");
  unsetenv("MKOS_EXTRAS_KNOB");
}

}  // namespace
