// Unit tests: histogram, event-driven IKC queue, time-share scheduler,
// CSV export — the framework extensions layered on the simulation kernel.

#include <gtest/gtest.h>

#include <cstdlib>

#include "kernel/ikc_queue.hpp"
#include "kernel/scheduler.hpp"
#include "sim/env.hpp"
#include "sim/format.hpp"
#include "sim/histogram.hpp"
#include "sim/rng.hpp"

namespace {

using namespace mkos;
using namespace mkos::sim;
using namespace mkos::sim::literals;

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

// ----------------------------------------------------------------- IkcQueue

TEST(IkcQueue, SingleRequestRoundTrip) {
  EventQueue events;
  kernel::IkcQueue q{events, kernel::IkcChannel{kernel::IkcCosts{}, 1, 0},
                     sim::TimeNs{950}};
  sim::TimeNs completed{0};
  q.post(256, [&](sim::TimeNs t) { completed = t; });
  events.run();
  EXPECT_EQ(q.completed(), 1u);
  EXPECT_GT(completed.ns(), 0);
  // At least: request one-way + wakeup + service + response one-way.
  const auto& ch = kernel::IkcChannel{kernel::IkcCosts{}, 1, 0};
  const auto floor_ns = ch.one_way(256) + kernel::IkcCosts{}.proxy_wakeup +
                        sim::TimeNs{950} + ch.one_way(64);
  EXPECT_GE(completed.ns(), floor_ns.ns());
}

TEST(IkcQueue, ConcurrentRequestsSerializeOnTheProxy) {
  // 16 LWK cores offload simultaneously: the single proxy context services
  // them one at a time, so the worst latency grows with the burst size.
  auto worst_for_burst = [](int n) {
    EventQueue events;
    kernel::IkcQueue q{events, kernel::IkcChannel{kernel::IkcCosts{}, 1, 0},
                       sim::microseconds(1)};
    for (int i = 0; i < n; ++i) {
      q.post(128, [](sim::TimeNs) {});
    }
    events.run();
    EXPECT_EQ(q.completed(), static_cast<std::uint64_t>(n));
    return q.worst_latency();
  };
  EXPECT_GT(worst_for_burst(16).ns(), worst_for_burst(1).ns() * 8);
}

TEST(IkcQueue, CompletionOrderIsFifo) {
  EventQueue events;
  kernel::IkcQueue q{events, kernel::IkcChannel{kernel::IkcCosts{}, 0, 0},
                     sim::TimeNs{500}};
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    q.post(64, [&order, i](sim::TimeNs) { order.push_back(i); });
  }
  events.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(IkcQueue, FullRingDropsArrivingRequests) {
  // A bounded ring with a stalled (slow) proxy: the in-service request has
  // left the ring, so capacity bounds the *waiting* requests. Five posts with
  // identical payloads arrive together; one is immediately in service, two
  // wait, and the last two find the ring full and are dropped.
  EventQueue events;
  kernel::IkcQueue q{events, kernel::IkcChannel{kernel::IkcCosts{}, 1, 0},
                     sim::milliseconds(1), /*capacity=*/2};
  EXPECT_EQ(q.capacity(), 2u);
  std::vector<sim::Bytes> drops;
  q.set_drop_handler([&](sim::Bytes payload) { drops.push_back(payload); });
  int completions = 0;
  for (int i = 0; i < 5; ++i) {
    q.post(128, [&](sim::TimeNs) { ++completions; });
  }
  events.run();
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(q.completed(), 3u);
  EXPECT_EQ(q.dropped(), 2u);
  EXPECT_EQ(drops, (std::vector<sim::Bytes>{128, 128}));
  EXPECT_EQ(q.queued(), 0u);
}

TEST(IkcQueue, BoundedRingWrapsAroundAcrossBursts) {
  // Repeated bursts push head_ past the end of the 4-slot ring several
  // times. Nothing is ever dropped (each burst fits) and FIFO order holds
  // across the wraparound.
  EventQueue events;
  kernel::IkcQueue q{events, kernel::IkcChannel{kernel::IkcCosts{}, 1, 0},
                     sim::microseconds(5), /*capacity=*/4};
  std::vector<int> order;
  for (int burst = 0; burst < 4; ++burst) {
    for (int i = 0; i < 3; ++i) {
      const int id = burst * 3 + i;
      q.post(64, [&order, id](sim::TimeNs) { order.push_back(id); });
    }
    events.run();
  }
  EXPECT_EQ(q.completed(), 12u);
  EXPECT_EQ(q.dropped(), 0u);
  ASSERT_EQ(order.size(), 12u);
  for (int id = 0; id < 12; ++id) EXPECT_EQ(order[static_cast<std::size_t>(id)], id);
}

TEST(IkcQueue, DrainAfterDropKeepsFifoOrderAndSkipsLostHandlers) {
  // Overload a capacity-2 ring, then drain: the survivors complete in post
  // order and the dropped requests' completion handlers never fire — the
  // contract the retry layer depends on (a drop is silent except for the
  // drop handler and the counter).
  EventQueue events;
  kernel::IkcQueue q{events, kernel::IkcChannel{kernel::IkcCosts{}, 1, 0},
                     sim::microseconds(50), /*capacity=*/2};
  std::uint64_t drop_events = 0;
  q.set_drop_handler([&](sim::Bytes) { ++drop_events; });
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    q.post(256, [&order, i](sim::TimeNs) { order.push_back(i); });
  }
  events.run();
  // First arrival goes straight into service; two wait; three are lost.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.dropped(), 3u);
  EXPECT_EQ(drop_events, 3u);
  // The ring drained fully and accepts new work afterwards, in order.
  q.post(256, [&order](sim::TimeNs) { order.push_back(100); });
  events.run();
  EXPECT_EQ(order.back(), 100);
  EXPECT_EQ(q.completed(), 4u);
}

// ------------------------------------------------------- TimeShareScheduler

TEST(TimeShare, EqualTasksFinishTogetherAtTheEnd) {
  kernel::TimeShareScheduler ts{kernel::SchedulerModel::lwk_coop(), 1_ms};
  ts.add_task(10_ms);
  ts.add_task(10_ms);
  const auto done = ts.run();
  ASSERT_EQ(done.size(), 2u);
  // Interleaved: both complete near 20 ms (+ context switches), one quantum
  // apart — unlike cooperative run-to-completion where task 0 ends at 10 ms.
  EXPECT_GT(done[0].ms(), 18.0);
  EXPECT_GT(done[1], done[0]);
  EXPECT_LT((done[1] - done[0]).ms(), 1.2);
  EXPECT_GE(ts.preemptions(), 18u);
}

TEST(TimeShare, ShortTaskIsNotStarved) {
  kernel::TimeShareScheduler ts{kernel::SchedulerModel::lwk_coop(), 1_ms};
  ts.add_task(100_ms);  // long-running application thread
  ts.add_task(2_ms);    // short in-situ task
  const auto done = ts.run();
  // The short task finishes after ~2 slices of each, not after 100 ms.
  EXPECT_LT(done[1].ms(), 6.0);
}

TEST(TimeShare, PreemptionCostAccumulates) {
  kernel::SchedulerModel m = kernel::SchedulerModel::lwk_coop();
  kernel::TimeShareScheduler fine{m, 100_us};
  fine.add_task(10_ms);
  fine.add_task(10_ms);
  const auto fine_done = fine.run();
  kernel::TimeShareScheduler coarse{m, 5_ms};
  coarse.add_task(10_ms);
  coarse.add_task(10_ms);
  const auto coarse_done = coarse.run();
  EXPECT_GT(fine_done[1], coarse_done[1]);  // more switches, more overhead
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
