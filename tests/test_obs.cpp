// Unit tests for the mkos::obs run ledger: section semantics, the
// positional-merge contract and strict JSON validity of the emitted
// document. Worker-count byte-identity of campaign ledgers is covered by
// Campaign.WorkStealingChangesNoLedgerByte.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/ledger.hpp"
#include "strict_json.hpp"

namespace {

using namespace mkos;
using mkos::testutil::StrictJson;

// ----------------------------------------------------------- section basics

TEST(RunLedger, CountersAccumulateAndReadZeroWhenMissing) {
  obs::RunLedger l;
  EXPECT_EQ(l.counter("heap.brk_calls"), 0u);
  l.incr("heap.brk_calls");
  l.incr("heap.brk_calls", 4);
  EXPECT_EQ(l.counter("heap.brk_calls"), 5u);
}

TEST(RunLedger, GaugesOverwrite) {
  obs::RunLedger l;
  l.set_gauge("peak.ratio", 1.0);
  l.set_gauge("peak.ratio", 1.39);
  EXPECT_DOUBLE_EQ(l.gauge("peak.ratio"), 1.39);
}

TEST(RunLedger, MetaOverwritesInPlace) {
  obs::RunLedger l;
  l.set_meta("bench", "a");
  l.set_meta("bench", "b");
  ASSERT_NE(l.meta("bench"), nullptr);
  EXPECT_EQ(*l.meta("bench"), "b");
  EXPECT_EQ(l.meta("absent"), nullptr);
}

TEST(RunLedger, HistogramKeepsFirstShape) {
  obs::RunLedger l;
  l.hist("runtime.sync_noise_us", 1e-2, 1e6, 4).add(10.0);
  sim::Histogram& again = l.hist("runtime.sync_noise_us", 1.0, 10.0, 1);
  EXPECT_DOUBLE_EQ(again.min_value(), 1e-2);
  EXPECT_EQ(again.total(), 1u);
}

// ----------------------------------------------------------- merge contract

TEST(RunLedger, MergeFollowsPerSectionRules) {
  obs::RunLedger a;
  a.set_meta("bench", "x");
  a.incr("kernel.syscalls_offloaded", 3);
  a.set_gauge("g", 1.0);
  a.observe("run.fom", 10.0);
  a.hist("h", 1.0, 1e3, 1).add(5.0);
  a.set_host("threads", "1");

  obs::RunLedger b;
  b.set_meta("bench", "y");       // ignored: meta adopts only missing keys
  b.set_meta("unit", "zones/s");  // adopted
  b.incr("kernel.syscalls_offloaded", 4);
  b.incr("kernel.ikc_round_trips", 7);
  b.set_gauge("g", 2.0);  // overwrites
  b.observe("run.fom", 20.0);
  b.hist("h", 1.0, 1e3, 1).add(50.0);
  b.set_host("threads", "8");  // ignored: host adopts only missing keys

  a.merge(b);
  EXPECT_EQ(*a.meta("bench"), "x");
  EXPECT_EQ(*a.meta("unit"), "zones/s");
  EXPECT_EQ(a.counter("kernel.syscalls_offloaded"), 7u);
  EXPECT_EQ(a.counter("kernel.ikc_round_trips"), 7u);
  EXPECT_DOUBLE_EQ(a.gauge("g"), 2.0);
  ASSERT_NE(a.summary("run.fom"), nullptr);
  EXPECT_EQ(a.summary("run.fom")->count(), 2u);
  EXPECT_DOUBLE_EQ(a.summary("run.fom")->max(), 20.0);
  ASSERT_NE(a.histogram("h"), nullptr);
  EXPECT_EQ(a.histogram("h")->total(), 2u);
  const std::string json = a.to_json();
  EXPECT_NE(json.find("\"threads\": 1"), std::string::npos);
}

TEST(RunLedger, MergeAdoptsNewHistogramShape) {
  obs::RunLedger a;
  obs::RunLedger b;
  b.hist("h", 1e-2, 1e2, 2).add(1.0);
  a.merge(b);
  ASSERT_NE(a.histogram("h"), nullptr);
  EXPECT_DOUBLE_EQ(a.histogram("h")->min_value(), 1e-2);
  EXPECT_EQ(a.histogram("h")->total(), 1u);
}

TEST(RunLedger, PositionalMergeIsOrderIdentical) {
  // Simulate two per-task ledgers merged in positional order by two
  // "schedules" that saw the tasks complete in opposite order: the
  // accumulating ledger must not depend on completion order because the
  // harness always merges positionally.
  auto task_ledger = [](double sample, std::uint64_t calls) {
    obs::RunLedger l;
    l.incr("heap.brk_calls", calls);
    l.observe("run.fom", sample);
    return l;
  };
  const obs::RunLedger t0 = task_ledger(1.0, 3);
  const obs::RunLedger t1 = task_ledger(2.0, 5);
  obs::RunLedger serial;
  serial.merge(t0);
  serial.merge(t1);
  obs::RunLedger pooled;  // same positional order, tasks ran "reversed"
  pooled.merge(t0);
  pooled.merge(t1);
  EXPECT_EQ(serial.to_json(), pooled.to_json());
}

// ------------------------------------------------------------ serialization

TEST(RunLedger, ToJsonIsStrictlyValidAndVersioned) {
  obs::RunLedger l;
  l.set_meta("bench", "unit \"test\"\nwith newline");
  l.incr("kernel.syscalls_local", 9);
  l.set_gauge("ratio", 1.21);
  l.observe("run.fom", 4.0);
  l.observe("run.fom", 8.0);
  l.hist("stall_us", 1.0, 1e6, 4).add(33.0);
  l.hist("stall_us", 1.0, 1e6, 4).add(1e9);  // overflow shows up honestly
  l.set_host("wall_seconds", "0.5");
  const std::string json = l.to_json();
  EXPECT_TRUE(StrictJson{json}.valid()) << json;
  EXPECT_NE(json.find("\"schema\": \"mkos.run_ledger.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"overflow\": 1"), std::string::npos);
}

TEST(RunLedger, EmptyLedgerStillEmitsAllSections) {
  const std::string json = obs::RunLedger{}.to_json();
  EXPECT_TRUE(StrictJson{json}.valid()) << json;
  for (const char* sec :
       {"\"meta\"", "\"counters\"", "\"gauges\"", "\"summaries\"", "\"histograms\"",
        "\"host\""}) {
    EXPECT_NE(json.find(sec), std::string::npos) << sec;
  }
}

TEST(RunLedger, WriteJsonRoundTripsThroughAFile) {
  obs::RunLedger l;
  l.set_meta("bench", "write_json");
  l.incr("fault.injected", 3);
  l.set_gauge("degradation", 0.93);
  const std::string path =
      (std::filesystem::temp_directory_path() / "mkos_write_json_test.json").string();
  ASSERT_TRUE(l.write_json(path));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), l.to_json());
  EXPECT_TRUE(StrictJson{content.str()}.valid());
  std::filesystem::remove(path);
}

TEST(RunLedger, WriteJsonReportsFailureToOpenOrWrite) {
  obs::RunLedger l;
  l.set_meta("bench", "unwritable");
  // Nonexistent parent directory: the ofstream never opens.
  EXPECT_FALSE(l.write_json("/nonexistent-mkos-dir/out.json"));
  // A directory path: opening for writing fails too.
  EXPECT_FALSE(l.write_json(std::filesystem::temp_directory_path().string()));
  // Stream overload: a stream already in a failed state reports failure...
  std::ostringstream sink;
  sink.setstate(std::ios::badbit);
  EXPECT_FALSE(l.write_json(sink));
  // ...and a healthy stream succeeds with identical bytes.
  std::ostringstream ok;
  EXPECT_TRUE(l.write_json(ok));
  EXPECT_EQ(ok.str(), l.to_json());
}

TEST(RunLedger, WriteJsonIsAtomicTempThenRename) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "mkos_atomic_write_test";
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directories(dir));
  const std::string path = (dir / "BENCH_t.json").string();

  // Seed the destination with a previous, complete document.
  obs::RunLedger old_ledger;
  old_ledger.set_meta("bench", "previous");
  ASSERT_TRUE(old_ledger.write_json(path));
  std::string old_bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    old_bytes = buf.str();
  }

  // Force the new write to fail before the rename: occupy the temp path
  // with a directory so the ofstream cannot open. (A permission-based
  // failure would be bypassed when the suite runs as root.)
  ASSERT_TRUE(fs::create_directories(path + ".tmp"));
  obs::RunLedger new_ledger;
  new_ledger.set_meta("bench", "interrupted");
  EXPECT_FALSE(new_ledger.write_json(path));
  // The previous document survives byte for byte — never truncated.
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), old_bytes);
  }

  // With the obstruction gone the write lands whole and cleans up its temp.
  ASSERT_TRUE(fs::remove(path + ".tmp"));
  ASSERT_TRUE(new_ledger.write_json(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), new_ledger.to_json());
  }
  fs::remove_all(dir);
}

}  // namespace
