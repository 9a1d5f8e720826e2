// Compatibility probe: run the LTP-style suite against every kernel and
// drill into one failure family — the paper's Section III-D, interactive.

#include <cstdio>

#include "compat/ltp.hpp"
#include "hw/knl.hpp"
#include "kernel/node.hpp"
#include "sim/format.hpp"

int main() {
  using namespace mkos;

  sim::print_banner("mkos compatibility probe — LTP-style suite",
                    "paper Section III-D: Linux compatibility");

  const compat::LtpSuite suite = compat::LtpSuite::standard();
  sim::Table table{{"kernel", "total", "passed", "failed", "pass rate"}};

  kernel::Node linux_node{hw::knl_snc4_flat(), kernel::NodeOsConfig::linux_default(), 1};
  kernel::Node mck_node{hw::knl_snc4_flat(), kernel::NodeOsConfig::mckernel_default(), 2};
  kernel::Node mos_node{hw::knl_snc4_flat(), kernel::NodeOsConfig::mos_default(), 3};

  compat::Report mos_report;
  for (kernel::Node* node : {&linux_node, &mck_node, &mos_node}) {
    kernel::Kernel& k = node->app_kernel();
    const compat::Report r = suite.run(k);
    if (k.kind() == kernel::OsKind::kMos) mos_report = r;
    table.add_row({std::string(k.name()), std::to_string(r.total),
                   std::to_string(r.passed), std::to_string(r.failed),
                   sim::fmt_pct(r.pass_rate())});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("mOS failures by syscall family:\n");
  for (const auto& [family, count] : mos_report.failures_by_family) {
    std::printf("  %-16s %d\n", family.c_str(), count);
  }

  // Why a single test fails: the HPC brk() semantics.
  std::printf(
      "\nExample: the brk shrink/refault cases fail on both LWKs because the\n"
      "HPC heap ignores contractions — behaviour HPC applications neither\n"
      "need nor expect, but LTP checks for.\n");
  return 0;
}
