// Section IV brk() trace: Lulesh -s 30 heap behaviour over the full 932
// timesteps, plus the per-kernel cost of the churn.
//
//   paper: "There were 7,526 queries ... 3,028 expansion requests, and
//   1,499 requests for contraction for a total of about 12,000 calls to
//   brk() ... At its largest, the heap grew to 87 MB, but ... the
//   cumulative amount of memory requested was 22 GB."

#include <cstdio>

#include "core/config.hpp"
#include "core/obs_glue.hpp"
#include "obs/snapshots.hpp"
#include "runtime/simmpi.hpp"
#include "sim/format.hpp"
#include "workloads/app.hpp"

int main() {
  using namespace mkos;
  using core::SystemConfig;

  sim::print_banner("Section IV — Lulesh -s 30 brk() trace (932 timesteps)",
                    "IPDPS'18; measured: 7,526 / 3,028 / 1,499 calls, 87 MB, 22 GB");

  sim::Table table{{"kernel", "queries", "grows", "shrinks", "total", "max heap",
                    "cum. growth", "heap faults"}};

  obs::RunLedger ledger =
      core::bench_ledger("brk_trace", "IPDPS'18 Section IV, Lulesh brk() trace", 3);

  for (const auto os :
       {kernel::OsKind::kLinux, kernel::OsKind::kMcKernel, kernel::OsKind::kMos}) {
    auto app = workloads::make_lulesh(30, /*force_ddr=*/false, /*iteration_cap=*/932);
    const SystemConfig config = SystemConfig::for_os(os);
    const runtime::Machine machine = config.machine(1);
    runtime::Job job{machine, app->spec(1), /*seed=*/3};
    app->setup(job);
    runtime::MpiWorld world{job, 4};
    (void)app->run(job, world);

    const auto& s = job.lane(0).heap()->stats();
    table.add_row({config.label(), std::to_string(s.queries), std::to_string(s.grows),
                   std::to_string(s.shrinks), std::to_string(s.calls()),
                   sim::bytes_to_string(s.max_break), sim::bytes_to_string(s.cum_growth),
                   std::to_string(s.faults)});

    // Per-kernel sub-ledger merged under a deterministic order (the loop).
    obs::RunLedger sub;
    obs::record_heap(sub, s);
    obs::record_world(sub, world);
    core::record_config(ledger, config);
    ledger.set_gauge("brk_calls." + config.label(), static_cast<double>(s.calls()));
    ledger.set_gauge("heap_faults." + config.label(), static_cast<double>(s.faults));
    ledger.merge(sub);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("paper row (any kernel, bookkeeping): 7,526 + 3,028 + 1,499 = 12,053 calls;\n"
              "87 MB peak; 22 GB cumulative. Under Linux the 3,028 expansions refault\n"
              "everything the 1,499 contractions released — on 64 ranks per node.\n");

  core::emit(ledger);
  return 0;
}
