#include "fault/fault.hpp"

#include <algorithm>
#include <bit>

#include "sim/contracts.hpp"
#include "sim/hash.hpp"

namespace mkos::fault {

namespace {

/// FNV-1a over a 64-bit word, byte by byte (the SystemConfig mixer).
std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) { return sim::fnv1a_word(h, v); }

std::uint64_t fnv_mix(std::uint64_t h, double v) {
  return fnv_mix(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t fnv_mix(std::uint64_t h, sim::TimeNs v) {
  return fnv_mix(h, static_cast<std::uint64_t>(v.ns()));
}

}  // namespace

std::string_view to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kNodeFailStop: return "node_fail_stop";
    case FaultKind::kStraggler: return "straggler";
    case FaultKind::kDaemonStorm: return "daemon_storm";
    case FaultKind::kIkcDrop: return "ikc_drop";
    case FaultKind::kIkcDelay: return "ikc_delay";
    case FaultKind::kLinuxCrash: return "linux_crash";
    case FaultKind::kCount_: break;
  }
  return "unknown";
}

std::string_view to_string(RecoveryPolicy p) {
  switch (p) {
    case RecoveryPolicy::kNone: return "none";
    case RecoveryPolicy::kRetry: return "retry";
    case RecoveryPolicy::kCheckpointRestart: return "checkpoint";
    case RecoveryPolicy::kFull: return "full";
  }
  return "unknown";
}

bool policy_retries(RecoveryPolicy p) {
  return p == RecoveryPolicy::kRetry || p == RecoveryPolicy::kFull;
}

bool policy_checkpoints(RecoveryPolicy p) {
  return p == RecoveryPolicy::kCheckpointRestart || p == RecoveryPolicy::kFull;
}

bool Spec::enabled() const {
  const bool any_rate = node_fail_rate_hz > 0.0 || straggler_rate_hz > 0.0 ||
                        storm_rate_hz > 0.0 || ikc_drop_rate_hz > 0.0 ||
                        ikc_delay_rate_hz > 0.0 || linux_crash_rate_hz > 0.0 ||
                        mcdram_fail_fraction > 0.0;
  // A checkpointing policy charges its cadence cost even without faults, so
  // it must count as "observable behavior" for fingerprinting purposes.
  const bool ckpt_overhead = policy_checkpoints(policy) && checkpoint_interval.ns() > 0;
  return any_rate || ckpt_overhead;
}

std::uint64_t Spec::fingerprint() const {
  std::uint64_t h = 0x6a09e667f3bcc908ULL;
  h = fnv_mix(h, node_fail_rate_hz);
  h = fnv_mix(h, straggler_rate_hz);
  h = fnv_mix(h, storm_rate_hz);
  h = fnv_mix(h, ikc_drop_rate_hz);
  h = fnv_mix(h, ikc_delay_rate_hz);
  h = fnv_mix(h, linux_crash_rate_hz);
  h = fnv_mix(h, mcdram_fail_fraction);
  h = fnv_mix(h, static_cast<std::uint64_t>(policy));
  h = fnv_mix(h, checkpoint_interval);
  h = fnv_mix(h, checkpoint_cost);
  h = fnv_mix(h, restart_cost);
  h = fnv_mix(h, static_cast<std::uint64_t>(ikc_max_retries));
  h = fnv_mix(h, ikc_backoff_base);
  h = fnv_mix(h, ikc_drop_batch);
  h = fnv_mix(h, ikc_delay_duration);
  h = fnv_mix(h, straggler_factor);
  h = fnv_mix(h, straggler_duration);
  h = fnv_mix(h, redistribute_residual);
  h = fnv_mix(h, redistribution_cost);
  h = fnv_mix(h, storm_duration);
  h = fnv_mix(h, linux_reboot_stall);
  h = fnv_mix(h, proxy_respawn_cost);
  h = fnv_mix(h, plan_salt);
  return h;
}

Plan Plan::generate(const Spec& spec, int nodes, std::uint64_t seed) {
  MKOS_EXPECTS(nodes >= 1);
  Plan plan;
  plan.spec_ = spec;
  plan.nodes_ = nodes;
  const sim::Rng root(seed ^ (spec.plan_salt * 0x9e3779b97f4a7c15ULL));
  const auto add_process = [&](FaultKind kind, double rate_hz) {
    if (rate_hz <= 0.0) return;
    Process p;
    p.kind = kind;
    p.machine_rate_hz = rate_hz * static_cast<double>(nodes);
    // One stream per kind: arrivals of one kind never shift another's.
    p.rng = root.fork(static_cast<std::uint64_t>(kind) + 1);
    const double dt_s = p.rng.exponential(1.0 / p.machine_rate_hz);
    p.next_at = sim::from_double_ns(dt_s * 1e9);
    plan.processes_.push_back(std::move(p));
  };
  add_process(FaultKind::kNodeFailStop, spec.node_fail_rate_hz);
  add_process(FaultKind::kStraggler, spec.straggler_rate_hz);
  add_process(FaultKind::kDaemonStorm, spec.storm_rate_hz);
  add_process(FaultKind::kIkcDrop, spec.ikc_drop_rate_hz);
  add_process(FaultKind::kIkcDelay, spec.ikc_delay_rate_hz);
  add_process(FaultKind::kLinuxCrash, spec.linux_crash_rate_hz);
  return plan;
}

Plan Plan::scripted(const Spec& spec) {
  Plan plan;
  plan.spec_ = spec;
  return plan;
}

Plan& Plan::add(const FaultEvent& e) {
  pending_.push_back(Scheduled{e, next_seq_++});
  return *this;
}

FaultEvent Plan::materialize(Process& p, sim::TimeNs at) {
  FaultEvent e;
  e.at = at;
  e.kind = p.kind;
  e.node = static_cast<int>(p.rng.uniform_index(static_cast<std::uint64_t>(nodes_)));
  switch (p.kind) {
    case FaultKind::kStraggler:
      e.magnitude = spec_.straggler_factor;
      e.duration = spec_.straggler_duration;
      break;
    case FaultKind::kDaemonStorm:
      e.magnitude = 1.0;
      e.duration = spec_.storm_duration;
      break;
    case FaultKind::kIkcDrop:
      e.magnitude = spec_.ikc_drop_batch;
      break;
    case FaultKind::kIkcDelay:
      e.duration = spec_.ikc_delay_duration;
      break;
    case FaultKind::kLinuxCrash:
      e.duration = spec_.linux_reboot_stall;
      break;
    case FaultKind::kNodeFailStop:
    case FaultKind::kCount_:
      break;
  }
  return e;
}

void Plan::extend(sim::TimeNs horizon) {
  if (horizon <= horizon_) return;
  for (Process& p : processes_) {
    while (p.next_at < horizon) {
      pending_.push_back(Scheduled{materialize(p, p.next_at), next_seq_++});
      const double dt_s = p.rng.exponential(1.0 / p.machine_rate_hz);
      p.next_at += sim::from_double_ns(dt_s * 1e9);
    }
  }
  horizon_ = horizon;
}

std::vector<FaultEvent> Plan::take_until(sim::TimeNs until) {
  extend(until);
  std::stable_sort(pending_.begin(), pending_.end(),
                   [](const Scheduled& a, const Scheduled& b) {
                     if (a.event.at != b.event.at) return a.event.at < b.event.at;
                     return a.seq < b.seq;
                   });
  std::vector<FaultEvent> out;
  std::size_t taken = 0;
  while (taken < pending_.size() && pending_[taken].event.at < until) {
    out.push_back(pending_[taken].event);
    ++taken;
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(taken));
  return out;
}

}  // namespace mkos::fault
