// Phase breakdown: where each application's time goes per OS at 256 nodes —
// compute vs noise-wait vs communication — plus the memory-translation
// footprint (page-table bytes, average walk depth) of a rank's placement.
// The quantitative version of the paper's Section IV narratives.

#include <cstdio>

#include "core/config.hpp"
#include "core/obs_glue.hpp"
#include "sim/format.hpp"
#include "obs/snapshots.hpp"
#include "mem/page_table.hpp"
#include "runtime/simmpi.hpp"
#include "workloads/app.hpp"

namespace {

using namespace mkos;

struct Sample {
  runtime::MpiWorld::PhaseBreakdown phases;
  sim::TimeNs elapsed{0};
  mem::PageTableStats tables;
  double walk_depth = 0.0;
};

Sample run_one(workloads::App& app, kernel::OsKind os, int nodes,
               obs::RunLedger& ledger, const std::string& series) {
  const core::SystemConfig config = core::SystemConfig::for_os(os);
  const runtime::Machine machine = config.machine(nodes);
  runtime::Job job{machine, app.spec(nodes), 7};
  app.setup(job);
  runtime::MpiWorld world{job, 17};
  const workloads::AppResult r = app.run(job, world);

  Sample s;
  s.phases = world.breakdown();
  s.elapsed = r.elapsed;
  mem::Placement agg;
  job.lane(0).address_space().for_each([&](const mem::Vma& v) {
    v.placement.for_each_chunk(
        [&](const mem::Placement::Chunk& c) { agg.add(c.domain, c.page, c.bytes); });
  });
  s.tables = mem::page_tables_for(agg);
  s.walk_depth = mem::average_walk_depth(agg);

  obs::RunLedger sub;
  obs::record_world(sub, world);
  obs::record_job(sub, job);
  ledger.merge(sub);
  const double total = s.elapsed.sec();
  ledger.set_gauge(series + ".compute_frac", s.phases.compute.sec() / total);
  ledger.set_gauge(series + ".noise_frac", s.phases.noise.sec() / total);
  ledger.set_gauge(series + ".comm_frac", s.phases.comm.sec() / total);
  ledger.set_gauge(series + ".pt_bytes", static_cast<double>(s.tables.table_bytes()));
  ledger.set_gauge(series + ".walk_depth", s.walk_depth);
  return s;
}

}  // namespace

int main() {
  sim::print_banner("Phase breakdown — compute / noise / comm per OS @256 nodes",
                    "quantifying the Section IV narratives");

  using namespace mkos;
  obs::RunLedger ledger =
      core::bench_ledger("phase_breakdown", "IPDPS'18 Section IV narratives", 17);

  sim::Table table{{"app", "OS", "compute", "noise", "comm", "PT bytes/rank",
                    "walk depth"}};
  const char* names[] = {"AMG2013", "HPCG", "LAMMPS", "MILC", "MiniFE"};
  for (const char* name : names) {
    for (const auto os :
         {kernel::OsKind::kLinux, kernel::OsKind::kMcKernel, kernel::OsKind::kMos}) {
      auto app = workloads::make_app(name);
      const std::string series =
          std::string(name) + "." + std::string(kernel::to_string(os));
      const Sample s = run_one(*app, os, 256, ledger, series);
      const double total = s.elapsed.sec();
      table.add_row({name, std::string(kernel::to_string(os)),
                     sim::fmt_pct(s.phases.compute.sec() / total),
                     sim::fmt_pct(s.phases.noise.sec() / total),
                     sim::fmt_pct(s.phases.comm.sec() / total),
                     sim::bytes_to_string(s.tables.table_bytes()),
                     sim::fmt(s.walk_depth, 2)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("noise%% is time the slowest rank spent absorbing OS detours;\n"
              "comm%% includes collective stalls. Page-table bytes and walk\n"
              "depth show the translation cost of 4 KiB vs 2 MiB/1 GiB pages.\n");

  core::emit(ledger);
  return 0;
}
