// Figure 5b: "MiniFE scaling experiments" — aggregate Mflops, 16..1024
// nodes, 660x660x660, 64 ranks/node x 4 threads/rank.
//
// Paper result: all three track each other to ~512 nodes; at 1,024 nodes the
// Linux curve collapses (the LWKs end up ~7x faster: 6.47x/7.01x in Fig. 4)
// because MiniFE "is sensitive to the performance of MPI collective
// operations, which typically benefit from jitter-less operating system
// kernels".

#include <cstdio>

#include "core/experiment.hpp"
#include "core/obs_glue.hpp"
#include "sim/format.hpp"

int main() {
  using namespace mkos;
  using core::SystemConfig;

  sim::print_banner("Fig. 5b — MiniFE 660^3, Mflops, 16..1024 nodes",
                    "IPDPS'18, Figure 5b; Linux collapses at 1,024 nodes");

  auto app = workloads::make_minife();
  constexpr int kReps = 5;
  constexpr int kMaxNodes = 1 << 30;

  obs::RunLedger ledger = core::bench_ledger("fig5b_minife", "IPDPS'18, Figure 5b", 11);
  core::record_config(ledger, SystemConfig::linux_default());
  core::record_config(ledger, SystemConfig::mckernel());
  core::record_config(ledger, SystemConfig::mos());
  const auto lin = core::scaling_sweep(*app, SystemConfig::linux_default(), kReps, 11,
                                       kMaxNodes, &ledger);
  const auto mck =
      core::scaling_sweep(*app, SystemConfig::mckernel(), kReps, 11, kMaxNodes, &ledger);
  const auto mos =
      core::scaling_sweep(*app, SystemConfig::mos(), kReps, 11, kMaxNodes, &ledger);

  sim::Table table{{"nodes", "McKernel Mflops", "mOS Mflops", "Linux Mflops",
                    "LWK/Linux"}};
  for (std::size_t i = 0; i < lin.size(); ++i) {
    const double best_lwk = std::max(mck[i].median, mos[i].median);
    table.add_row({std::to_string(lin[i].nodes), sim::fmt_sci(mck[i].median),
                   sim::fmt_sci(mos[i].median), sim::fmt_sci(lin[i].median),
                   sim::fmt(best_lwk / lin[i].median, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("paper: at 1,024 nodes McKernel/Linux = 6.47, mOS/Linux = 7.01;\n"
              "       \"that apparent performance gain is actually due to Linux\n"
              "       performance dropping precariously\".\n");

  core::record_scaling(ledger, "minife.linux", lin);
  core::record_scaling(ledger, "minife.mckernel", mck);
  core::record_scaling(ledger, "minife.mos", mos);
  const std::size_t last = lin.size() - 1;
  ledger.set_gauge("collapse.mckernel_vs_linux", mck[last].median / lin[last].median);
  ledger.set_gauge("collapse.mos_vs_linux", mos[last].median / lin[last].median);
  core::emit(ledger);
  return 0;
}
