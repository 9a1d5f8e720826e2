// Memory-policy walkthrough: how the same 20 GiB working set lands in
// MCDRAM/DDR4 under each kernel on a SNC-4 KNL node — the paper's CCS-QCD
// mechanism, observable through the public API.

#include <cstdio>

#include "core/config.hpp"
#include "runtime/job.hpp"
#include "sim/format.hpp"
#include "workloads/app.hpp"

int main() {
  using namespace mkos;
  using sim::GiB;

  sim::print_banner("mkos memory policies — MCDRAM spill on SNC-4",
                    "working set exceeds the 16 GiB of MCDRAM");

  sim::Table table{{"OS", "lane", "resident", "MCDRAM share", "faults"}};

  for (const auto os :
       {kernel::OsKind::kLinux, kernel::OsKind::kMcKernel, kernel::OsKind::kMos}) {
    const core::SystemConfig config = core::SystemConfig::for_os(os);
    const runtime::Machine machine = config.machine(1);
    runtime::Job job{machine, runtime::JobSpec{1, 4, 32}, /*seed=*/7};

    // 5 GiB per rank, uneven like a real domain decomposition.
    workloads::alloc_working_set(job, 5 * GiB, {1.3, 0.72, 1.12, 0.86});

    for (int lane = 0; lane < job.lane_count(); ++lane) {
      const auto& p = job.lane(lane);
      table.add_row({config.label(), std::to_string(lane),
                     sim::bytes_to_string(p.address_space().resident_bytes()),
                     sim::fmt_pct(job.lane_fraction_in(lane, hw::MemKind::kMcdram)),
                     std::to_string(p.address_space().total_faults())});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Linux (SNC-4, default policy): first touch walks DDR4 first - MCDRAM unused.\n"
      "mOS:      upfront allocation against a per-rank MCDRAM quota set at launch.\n"
      "McKernel: mappings that exceed free MCDRAM fall back to demand paging and\n"
      "          pack remaining MCDRAM evenly across ranks at first touch.\n");
  return 0;
}
