// Phase trace: run MiniFE at the Fig. 5b cliff with tracing enabled and
// show *where the time goes* per synchronization — the collective stalls
// that eat Linux alive are directly visible in the event stream.

#include <cstdio>

#include "core/config.hpp"
#include "runtime/simmpi.hpp"
#include "sim/format.hpp"
#include "sim/histogram.hpp"
#include "workloads/app.hpp"

namespace {

const char* kind_name(mkos::runtime::MpiWorld::SyncKind k) {
  using K = mkos::runtime::MpiWorld::SyncKind;
  switch (k) {
    case K::kAllreduce: return "allreduce";
    case K::kHalo: return "halo";
    case K::kShift: return "shift";
    case K::kFinish: return "finish";
  }
  return "?";
}

}  // namespace

int main() {
  using namespace mkos;

  sim::print_banner("mkos phase trace — MiniFE at 1,024 nodes",
                    "per-synchronization breakdown of the Fig. 5b collapse");

  for (const auto os : {kernel::OsKind::kMcKernel, kernel::OsKind::kLinux}) {
    auto app = workloads::make_minife();
    const core::SystemConfig config = core::SystemConfig::for_os(os);
    const runtime::Machine machine = config.machine(1024);
    runtime::Job job{machine, app->spec(1024), 1};
    app->setup(job);
    runtime::MpiWorld world{job, 77};
    world.enable_trace();
    const workloads::AppResult r = app->run(job, world);

    const auto b = world.breakdown();
    std::printf("\n%s: elapsed %s  (compute %s | noise %s | comm %s)\n",
                config.label().c_str(), sim::to_string(r.elapsed).c_str(),
                sim::to_string(b.compute).c_str(), sim::to_string(b.noise).c_str(),
                sim::to_string(b.comm).c_str());

    // Distribution of per-event communication cost: on Linux a bimodal
    // cluster appears at the stall-recovery bound.
    sim::Histogram comm_us{1.0, 1e6, 4};
    for (const auto& e : world.trace()) {
      if (e.kind == runtime::MpiWorld::SyncKind::kAllreduce) {
        comm_us.add(e.comm.us());
      }
    }
    std::printf("allreduce cost distribution (us):\n%s", comm_us.to_string(32).c_str());

    // The five most expensive events.
    auto trace = world.trace();
    std::sort(trace.begin(), trace.end(), [](const auto& a, const auto& b2) {
      return a.noise + a.comm > b2.noise + b2.comm;
    });
    std::printf("worst events:\n");
    for (std::size_t i = 0; i < std::min<std::size_t>(5, trace.size()); ++i) {
      std::printf("  %-9s span=%-10s noise=%-10s comm=%s\n",
                  kind_name(trace[i].kind), sim::to_string(trace[i].span).c_str(),
                  sim::to_string(trace[i].noise).c_str(),
                  sim::to_string(trace[i].comm).c_str());
    }
  }
  return 0;
}
