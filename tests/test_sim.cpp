// Unit tests: simulation kernel (time, rng, stats).

#include <gtest/gtest.h>

#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "sim/units.hpp"

namespace {

using namespace mkos::sim;
using namespace mkos::sim::literals;

// ------------------------------------------------------------------ TimeNs

TEST(Time, LiteralsAndArithmetic) {
  EXPECT_EQ((3_us).ns(), 3000);
  EXPECT_EQ((2_ms + 500_us).ns(), 2500000);
  EXPECT_EQ((1_s - 1_ms).ns(), 999000000);
  EXPECT_EQ((5_us * 3).ns(), 15000);
  EXPECT_DOUBLE_EQ((1500_ns).us(), 1.5);
}

TEST(Time, ScaledRoundsTowardZero) {
  EXPECT_EQ(TimeNs{1000}.scaled(1.5).ns(), 1500);
  EXPECT_EQ(TimeNs{1000}.scaled(0.3333).ns(), 333);
}

TEST(Time, ToStringPicksUnit) {
  EXPECT_EQ(to_string(TimeNs{500}), "500 ns");
  EXPECT_EQ(to_string(3_us + 500_ns), "3.50 us");
  EXPECT_EQ(to_string(2_ms), "2.00 ms");
  EXPECT_EQ(to_string(3_s), "3.000 s");
}

TEST(Units, AlignHelpers) {
  EXPECT_EQ(align_up(1, 4096), 4096u);
  EXPECT_EQ(align_up(4096, 4096), 4096u);
  EXPECT_EQ(align_down(8191, 4096), 4096u);
  EXPECT_TRUE(is_aligned(2 * MiB, 2 * MiB));
  EXPECT_FALSE(is_aligned(2 * MiB + 4096, 2 * MiB));
}

TEST(Units, BytesToString) {
  EXPECT_EQ(bytes_to_string(512), "512 B");
  EXPECT_EQ(bytes_to_string(1536), "1.5 KiB");
  EXPECT_EQ(bytes_to_string(3 * MiB), "3.0 MiB");
}

// --------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r{7};
  for (int i = 0; i < 10000; ++i) {
    const double v = r.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng r{11};
  double sum = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.15);
}

TEST(Rng, ParetoRespectsScale) {
  Rng r{13};
  for (int i = 0; i < 10000; ++i) ASSERT_GE(r.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, PoissonSmallMean) {
  Rng r{17};
  double sum = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(r.poisson(0.3));
  EXPECT_NEAR(sum / kN, 0.3, 0.02);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  Rng r{19};
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(r.poisson(500.0));
  EXPECT_NEAR(sum / kN, 500.0, 2.0);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng parent{99};
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  Rng c1b = parent.fork(1);
  EXPECT_EQ(c1.next_u64(), c1b.next_u64());
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

// ----------------------------------------------------------------- Summary

TEST(Summary, MedianOddAndEven) {
  Summary s;
  for (double v : {5.0, 1.0, 3.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.median(), 4.0);  // interpolated
}

TEST(Summary, MinMaxMeanStd) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
}

TEST(Summary, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.01);
}

}  // namespace
