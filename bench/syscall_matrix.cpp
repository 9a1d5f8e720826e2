// Section II-D as data: the per-kernel system-call disposition matrix.
//
// "McKernel ... implements only a small set of performance sensitive system
// calls. The rest are offloaded to Linux." / mOS keeps the same split with
// thread migration / FusedOS offloads everything. This bench prints the
// full table the kernel models implement, plus summary counts — the ground
// truth the LTP reproduction and the offload pricing both consume.

#include <cstdio>

#include "core/obs_glue.hpp"
#include "hw/knl.hpp"
#include "kernel/node.hpp"
#include "sim/format.hpp"

int main() {
  using namespace mkos;
  using kernel::Disposition;
  using kernel::Sys;

  sim::print_banner("Section II-D — system-call disposition matrix",
                    "local / offloaded / partial / unsupported per kernel");

  kernel::Node linux_node{hw::knl_snc4_flat(), kernel::NodeOsConfig::linux_default(), 1};
  kernel::Node mck_node{hw::knl_snc4_flat(), kernel::NodeOsConfig::mckernel_default(), 2};
  kernel::Node mos_node{hw::knl_snc4_flat(), kernel::NodeOsConfig::mos_default(), 3};
  kernel::Node fused_node{hw::knl_snc4_flat(), kernel::NodeOsConfig::fusedos_default(), 4};
  kernel::Kernel* kernels[] = {&linux_node.app_kernel(), &mck_node.app_kernel(),
                               &mos_node.app_kernel(), &fused_node.app_kernel()};

  obs::RunLedger ledger =
      core::bench_ledger("syscall_matrix", "IPDPS'18 Section II-D", 1);

  // Summary counts per kernel.
  sim::Table summary{{"kernel", "local", "offloaded", "partial", "unsupported"}};
  for (kernel::Kernel* k : kernels) {
    int counts[4] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < kernel::kSysCount; ++i) {
      ++counts[static_cast<int>(k->disposition(static_cast<Sys>(i)))];
    }
    summary.add_row({std::string(k->name()), std::to_string(counts[0]),
                     std::to_string(counts[1]), std::to_string(counts[2]),
                     std::to_string(counts[3])});
    const std::string base = "dispo." + std::string(k->name()) + ".";
    const char* kinds[] = {"local", "offloaded", "partial", "unsupported"};
    for (int d = 0; d < 4; ++d) {
      ledger.incr(base + kinds[d], static_cast<std::uint64_t>(counts[d]));
    }
  }
  std::printf("%s\n", summary.to_string().c_str());

  // The calls where the kernels disagree — the design-space fingerprint.
  sim::Table table{{"syscall", "Linux", "McKernel", "mOS", "FusedOS"}};
  for (std::size_t i = 0; i < kernel::kSysCount; ++i) {
    const auto s = static_cast<Sys>(i);
    const Disposition d0 = kernels[1]->disposition(s);
    const Disposition d1 = kernels[2]->disposition(s);
    const Disposition d2 = kernels[3]->disposition(s);
    if (d0 == d1 && d1 == d2) continue;  // uniform rows are noise
    std::vector<std::string> row{std::string(kernel::sys_name(s))};
    for (kernel::Kernel* k : kernels) {
      row.push_back(std::string(kernel::to_string(k->disposition(s))));
    }
    table.add_row(std::move(row));
  }
  std::printf("calls where the LWK designs disagree:\n%s\n", table.to_string().c_str());
  ledger.incr("dispo.divergent_calls", static_cast<std::uint64_t>(table.rows()));

  core::emit(ledger);
  return 0;
}
