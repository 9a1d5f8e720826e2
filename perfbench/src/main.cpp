// perfbench — the campaign benchmark.
//
//   perfbench --workload <fig4_serial|numa_alloc|store_roundtrip> --seed <n>
//             --seconds <s> --trace <0|1> [--tmp-dir <dir>] [--spans-out <file>]
//             [--setup-only]
//
// Prints "# setup done" once set-up ends (run.py times set-up by it), then
// one line per metric (name, value, unit, sample count) and notes, then, as
// the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics but setup_s, which run.py adds;
// --trace 1 the per-layer ones. --setup-only exits after the set-up line.
// Exit codes: 0 result printed, 1 run error, 2 usage, 3 a metric was refused
// for too few samples (run longer).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workload.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tmp-dir <dir>] [--spans-out <file>] "
               "[--setup-only]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& text, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || end == nullptr || *end != '\0') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      opts.setup_only = true;
      continue;
    }
    if (++i >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      opts.seed = parse_u64(value, "--seed");
    } else if (flag == "--seconds") {
      opts.seconds = static_cast<double>(parse_u64(value, "--seconds"));
    } else if (flag == "--trace") {
      const std::uint64_t trace = parse_u64(value, "--trace");
      if (trace > 1) usage("--trace takes 0 or 1");
      opts.trace = trace == 1;
    } else if (flag == "--tmp-dir") {
      opts.tmp_dir = value;
    } else if (flag == "--spans-out") {
      opts.spans_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const auto def = perfbench::find_workload(workload);
  if (!def) usage(("unknown workload '" + workload + "'").c_str());
  opts.on_setup_done = [] {
    std::printf("# setup done\n");
    std::fflush(stdout);
  };

  perfbench::RunResult result;
  try {
    result = perfbench::run_benchmark(*def, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (opts.setup_only) return 0;
  for (const std::string& line : result.notes) std::printf("# %s\n", line.c_str());
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("metric %-28s %14.6g %-12s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  if (!result.refused.empty()) {
    for (const std::string& name : result.refused) {
      std::fprintf(stderr, "perfbench: %s refused: too few samples; run longer\n",
                   name.c_str());
    }
    return 3;
  }
  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", m.name.c_str());
      return 1;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
