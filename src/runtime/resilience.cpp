#include "runtime/resilience.hpp"

#include <algorithm>
#include <cmath>

#include "kernel/noise.hpp"
#include "sim/contracts.hpp"

namespace mkos::runtime {

namespace {

/// Probability that a retried IKC message is lost again (the drop was a
/// transient ring-full condition; by the time the backoff expires the proxy
/// has usually drained).
constexpr double kRetryLossP = 0.25;

/// How much of a Linux reboot an LWK partition actually waits on: the share
/// of its execution that traverses the Linux side (offloaded services).
double offload_coupling(kernel::OsKind os) {
  switch (os) {
    case kernel::OsKind::kMcKernel: return 0.25;  // proxies + IHK services
    case kernel::OsKind::kFusedOs: return 0.40;   // CL traffic through FWK
    case kernel::OsKind::kMos: return 0.15;       // direct triage, thin glue
    case kernel::OsKind::kLinux: return 1.0;      // unreachable: Linux dies
  }
  return 1.0;
}

}  // namespace

double ResilienceManager::isolation_leak(kernel::OsKind os) {
  switch (os) {
    case kernel::OsKind::kLinux: return 1.0;
    case kernel::OsKind::kFusedOs: return 0.15;
    case kernel::OsKind::kMcKernel: return 0.06;
    case kernel::OsKind::kMos: return 0.05;
  }
  return 1.0;
}

ResilienceManager::ResilienceManager(const fault::Spec& spec, Job& job,
                                     std::uint64_t seed)
    : ResilienceManager(fault::Plan::generate(spec, job.spec().nodes, seed), job,
                        seed) {}

ResilienceManager::ResilienceManager(fault::Plan plan, Job& job, std::uint64_t seed)
    : job_(job),
      plan_(std::move(plan)),
      rng_(sim::Rng(seed).fork(1)),
      mem_rng_(sim::Rng(seed).fork(2)) {
  storm_base_fraction_ = kernel::noise_daemon_storm().expected_fraction();
}

ResilienceManager::~ResilienceManager() {
  for (int id : hooked_domains_) {
    job_.node().phys().domain(id).set_fault_hook(nullptr);
  }
}

void ResilienceManager::install_memory_faults() {
  if (plan_.spec().mcdram_fail_fraction <= 0.0) return;
  const auto& topo = job_.node().topo();
  auto& phys = job_.node().phys();
  for (int id = 0; id < phys.domain_count(); ++id) {
    if (topo.domain(id).kind != hw::MemKind::kMcdram) continue;
    phys.domain(id).set_fault_hook([this](sim::Bytes) {
      if (mem_rng_.next_double() >= plan_.spec().mcdram_fail_fraction) return false;
      ++counters_.injected;
      ++counters_.detected;
      ++counters_.mcdram_denied;
      ++counters_.recovered;  // the placement layer's DDR4 spill absorbs it
      return true;
    });
    hooked_domains_.push_back(id);
  }
}

bool ResilienceManager::uses_ikc() const {
  const kernel::OsKind os = job_.kernel().kind();
  return os == kernel::OsKind::kMcKernel || os == kernel::OsKind::kFusedOs;
}

sim::TimeNs ResilienceManager::on_sync(sim::TimeNs span) {
  MKOS_EXPECTS(span >= sim::TimeNs{0});
  const fault::Spec& spec = plan_.spec();
  const sim::TimeNs w0 = progress_;
  const sim::TimeNs w1 = progress_ + span;
  progress_ = w1;
  sim::TimeNs extra{0};

  // Coordinated checkpoint cadence: one flush per interval boundary crossed.
  if (fault::policy_checkpoints(spec.policy) && spec.checkpoint_interval.ns() > 0) {
    const std::int64_t interval = spec.checkpoint_interval.ns();
    const std::int64_t crossed = w1.ns() / interval - w0.ns() / interval;
    if (crossed > 0) {
      counters_.checkpoints += static_cast<std::uint64_t>(crossed);
      const sim::TimeNs cost = spec.checkpoint_cost * crossed;
      counters_.checkpoint_ns += static_cast<std::uint64_t>(cost.ns());
      extra += cost;
    }
  }

  // Apply the faults scheduled before w1. Events open windows (stragglers,
  // storms) before the overlap charge below, so a disturbance starting
  // inside this span is already felt by it.
  for (const fault::FaultEvent& e : plan_.take_until(w1)) {
    ++counters_.injected;
    extra += apply_event(e);
  }

  extra += charge_windows(w0, w1);

  counters_.wait_ns += static_cast<std::uint64_t>(extra.ns());
  return extra;
}

sim::TimeNs ResilienceManager::fail_stop_cost(sim::TimeNs at) {
  const fault::Spec& spec = plan_.spec();
  ++counters_.restarts;
  sim::TimeNs lost = at;  // no checkpoints: all progress since t=0 is redone
  if (fault::policy_checkpoints(spec.policy) && spec.checkpoint_interval.ns() > 0) {
    const std::int64_t interval = spec.checkpoint_interval.ns();
    lost = sim::TimeNs{at.ns() - (at.ns() / interval) * interval};
    ++counters_.recovered;
  }
  counters_.lost_work_ns += static_cast<std::uint64_t>(lost.ns());
  return spec.restart_cost + lost;
}

sim::TimeNs ResilienceManager::apply_event(const fault::FaultEvent& e) {
  const fault::Spec& spec = plan_.spec();
  switch (e.kind) {
    case fault::FaultKind::kNodeFailStop: {
      ++counters_.detected;
      ++counters_.node_failures;
      return fail_stop_cost(e.at);
    }

    case fault::FaultKind::kLinuxCrash: {
      ++counters_.detected;
      ++counters_.linux_crashes;
      kernel::Node& node = job_.node();
      if (!node.lwk_survives_linux_crash()) {
        // Linux baseline: the application dies with its kernel.
        ++counters_.node_failures;
        return fail_stop_cost(e.at);
      }
      // The LWK partition computes through the reboot; it stalls only on
      // the offloaded share of the stall, then respawns dead proxies.
      ++counters_.recovered;
      const double coupling = offload_coupling(job_.kernel().kind());
      sim::TimeNs stall = e.duration.scaled(coupling);
      stall += spec.proxy_respawn_cost * node.proxy_process_count();
      return stall;
    }

    case fault::FaultKind::kStraggler: {
      ++counters_.detected;
      ++counters_.stragglers;
      ActiveWindow w;
      w.start = e.at;
      w.end = e.at + e.duration;
      const double slowdown = std::max(0.0, e.magnitude - 1.0);
      sim::TimeNs upfront{0};
      if (fault::policy_retries(spec.policy)) {
        // Redistribute: peers absorb all but a residual of the slowdown,
        // for a one-time re-decomposition cost.
        ++counters_.recovered;
        w.dilation = slowdown * spec.redistribute_residual;
        w.absorbed = slowdown * (1.0 - spec.redistribute_residual);
        upfront = spec.redistribution_cost;
      } else {
        // BSP exposes the full slowdown: everyone waits for the straggler.
        w.dilation = slowdown;
      }
      windows_.push_back(w);
      return upfront;
    }

    case fault::FaultKind::kDaemonStorm: {
      ++counters_.detected;
      ++counters_.storms;
      ActiveWindow w;
      w.start = e.at;
      w.end = e.at + e.duration;
      // Steal fraction s of the exposed core -> time dilation s / (1 - s),
      // attenuated by the kernel's isolation leak.
      const double steal = std::min(
          0.95, storm_base_fraction_ * isolation_leak(job_.kernel().kind()) *
                    std::max(e.magnitude, 1.0));
      w.dilation = steal / (1.0 - steal);
      windows_.push_back(w);
      return sim::TimeNs{0};
    }

    case fault::FaultKind::kIkcDrop: {
      if (!uses_ikc()) return sim::TimeNs{0};  // no channel to drop from
      ++counters_.detected;
      const auto messages = static_cast<std::uint64_t>(
          std::max<long long>(1, std::llround(e.magnitude)));
      counters_.ikc_dropped += messages;
      sim::TimeNs cost{0};
      if (fault::policy_retries(spec.policy)) {
        // Exponential backoff per message; each retry is itself lost with
        // probability kRetryLossP (transient congestion decays).
        for (std::uint64_t m = 0; m < messages; ++m) {
          int attempts = 1;
          sim::TimeNs backoff = spec.ikc_backoff_base;
          while (attempts < spec.ikc_max_retries &&
                 rng_.next_double() < kRetryLossP) {
            backoff += spec.ikc_backoff_base * (std::int64_t{1} << attempts);
            ++attempts;
          }
          counters_.retried += static_cast<std::uint64_t>(attempts);
          counters_.backoff_wait_ns += static_cast<std::uint64_t>(backoff.ns());
          cost += backoff + job_.kernel().offload_cost(256) * attempts;
          ++counters_.recovered;
        }
      } else {
        // No retry: each lost request stalls its rank to the full timeout.
        const int shift = std::min(spec.ikc_max_retries, 12);
        const sim::TimeNs timeout =
            spec.ikc_backoff_base * (std::int64_t{1} << shift);
        cost = timeout * static_cast<std::int64_t>(messages);
        counters_.lost_work_ns += static_cast<std::uint64_t>(cost.ns());
      }
      return cost;
    }

    case fault::FaultKind::kIkcDelay: {
      if (!uses_ikc()) return sim::TimeNs{0};
      ++counters_.detected;
      ++counters_.ikc_delays;
      return e.duration;  // the channel stalls; offloads queue behind it
    }

    case fault::FaultKind::kCount_:
      break;
  }
  return sim::TimeNs{0};
}

sim::TimeNs ResilienceManager::charge_windows(sim::TimeNs w0, sim::TimeNs w1) {
  sim::TimeNs extra{0};
  for (const ActiveWindow& w : windows_) {
    const sim::TimeNs o_start = std::max(w.start, w0);
    const sim::TimeNs o_end = std::min(w.end, w1);
    if (o_end <= o_start) continue;
    const sim::TimeNs overlap = o_end - o_start;
    extra += overlap.scaled(w.dilation);
    if (w.absorbed > 0.0) {
      counters_.redistributed_ns +=
          static_cast<std::uint64_t>(overlap.scaled(w.absorbed).ns());
    }
  }
  std::erase_if(windows_, [w1](const ActiveWindow& w) { return w.end <= w1; });
  return extra;
}

}  // namespace mkos::runtime
