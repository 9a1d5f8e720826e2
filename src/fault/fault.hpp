#pragma once
// mkos::fault — deterministic fault-injection plans.
//
// The resilience story of a multi-kernel (Section II: "the Linux side can
// crash or be rebooted while the LWK keeps computing") only becomes
// measurable when disturbances are first-class simulation inputs. A
// fault::Spec declares *rates* (events per node-second of useful progress);
// Plan::generate expands them into a concrete, seed-derived schedule of
// FaultEvents via independent Poisson processes — one forked RNG stream per
// fault kind, so adding a kind never perturbs another kind's arrivals.
//
// Determinism contract: a Plan is a pure function of (Spec, nodes, seed).
// The schedule is lazily extended (take_until) so the horizon follows the
// simulated run without a hard-coded end time, and repeated generation with
// the same inputs yields byte-identical event sequences. An empty Spec
// yields an empty Plan, and the runtime layers are wired so that an empty
// Plan draws no random numbers and charges no time — runs without faults
// are bit-identical to a build without the subsystem.
//
// Fault arrivals are anchored to *progress time* (useful work completed),
// not wall-clock simulated time. Anchoring to elapsed time would compound:
// every restart extends the run, which raises the expected fault count,
// which extends the run again. Progress time bounds the schedule by the
// fault-free horizon, keeping expected fault counts equal across recovery
// policies — exactly what a policy comparison needs.

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mkos::fault {

enum class FaultKind : std::uint8_t {
  kNodeFailStop,  ///< hardware fail-stop: the node leaves the job
  kStraggler,     ///< one node runs `magnitude`x slower for `duration`
  kDaemonStorm,   ///< service-daemon interference burst for `duration`
  kIkcDrop,       ///< `magnitude` IKC request messages are lost
  kIkcDelay,      ///< the IKC channel stalls for `duration`
  kLinuxCrash,    ///< Linux-side kernel crash; an LWK partition survives
  kCount_,
};

[[nodiscard]] std::string_view to_string(FaultKind k);

/// One scheduled disturbance. `at` is a progress timestamp (see the header
/// comment); magnitude and duration are kind-specific (slowdown factor,
/// dropped-message count, burst length, reboot stall).
struct FaultEvent {
  sim::TimeNs at{0};
  FaultKind kind = FaultKind::kNodeFailStop;
  int node = 0;
  double magnitude = 0.0;
  sim::TimeNs duration{0};
};

enum class RecoveryPolicy : std::uint8_t {
  kNone,               ///< failures restart the job from scratch
  kRetry,              ///< IKC retry + straggler work redistribution
  kCheckpointRestart,  ///< coordinated checkpoints; restart from the last one
  kFull,               ///< retry + redistribution + checkpoint/restart
};

[[nodiscard]] std::string_view to_string(RecoveryPolicy p);
/// Does the policy retry dropped messages and redistribute straggler work?
[[nodiscard]] bool policy_retries(RecoveryPolicy p);
/// Does the policy take coordinated checkpoints (bounding restart loss)?
[[nodiscard]] bool policy_checkpoints(RecoveryPolicy p);

/// Declarative fault-injection and recovery configuration. All rates are in
/// events per node-second of progress time; zero everywhere (the default)
/// means the subsystem is inert.
struct Spec {
  double node_fail_rate_hz = 0.0;
  double straggler_rate_hz = 0.0;
  double storm_rate_hz = 0.0;
  double ikc_drop_rate_hz = 0.0;
  double ikc_delay_rate_hz = 0.0;
  double linux_crash_rate_hz = 0.0;
  /// Probability that an MCDRAM allocation is denied (setup- and run-time),
  /// forcing the placement layer's spill-to-DDR4 path.
  double mcdram_fail_fraction = 0.0;

  RecoveryPolicy policy = RecoveryPolicy::kNone;
  /// Coordinated checkpoint cadence (0 disables checkpoints even under a
  /// checkpointing policy) and the per-checkpoint coordinated-flush cost.
  sim::TimeNs checkpoint_interval{0};
  sim::TimeNs checkpoint_cost = sim::milliseconds(5);
  /// Relaunch cost paid on every restart, on top of the lost work.
  sim::TimeNs restart_cost = sim::milliseconds(20);

  int ikc_max_retries = 6;
  sim::TimeNs ikc_backoff_base = sim::microseconds(50);
  /// Messages lost per kIkcDrop event and the kIkcDelay stall length.
  double ikc_drop_batch = 4.0;
  sim::TimeNs ikc_delay_duration = sim::microseconds(200);

  double straggler_factor = 3.0;
  sim::TimeNs straggler_duration = sim::milliseconds(40);
  /// Residual slowdown fraction left after work redistribution absorbs a
  /// straggler, and the one-time cost of re-balancing the decomposition.
  double redistribute_residual = 0.25;
  sim::TimeNs redistribution_cost = sim::microseconds(500);

  sim::TimeNs storm_duration = sim::milliseconds(25);
  /// Linux-side reboot stall after a kLinuxCrash (surviving LWKs feel it
  /// scaled by their offload coupling; a Linux node loses everything).
  sim::TimeNs linux_reboot_stall = sim::milliseconds(60);
  sim::TimeNs proxy_respawn_cost = sim::microseconds(150);

  /// Extra entropy folded into Plan::generate, so one (config, seed) cell
  /// can host several independent schedules.
  std::uint64_t plan_salt = 0;

  /// True when the spec can change observable behavior: any fault channel
  /// is live, or a checkpointing policy charges its cadence cost.
  [[nodiscard]] bool enabled() const;

  /// Stable content hash over every knob. Folded into
  /// core::SystemConfig::fingerprint() — but only when enabled(), so
  /// pre-existing configs keep their cache keys and ledger meta entries.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// A materialized, deterministic schedule: fixed events added by hand (tests
/// and declarative scenarios) plus lazily generated Poisson arrivals.
class Plan {
 public:
  /// Empty plan: no events, never draws randomness.
  Plan() = default;

  /// Seed-derived schedule for a `nodes`-node machine. Each fault kind with
  /// a positive rate becomes an independent Poisson process (machine-wide
  /// rate = rate_hz * nodes) on its own forked RNG stream.
  [[nodiscard]] static Plan generate(const Spec& spec, int nodes, std::uint64_t seed);

  /// Empty plan carrying `spec` (recovery knobs, no Poisson processes); fill
  /// it with add(). The declarative path for tests and scripted scenarios.
  [[nodiscard]] static Plan scripted(const Spec& spec);

  /// Append a fixed event. Order among equal timestamps is insertion order.
  Plan& add(const FaultEvent& e);

  [[nodiscard]] bool empty() const { return pending_.empty() && processes_.empty(); }
  [[nodiscard]] const Spec& spec() const { return spec_; }

  /// Pop every event with `at` strictly before `until`, extending the
  /// generated horizon on demand. Successive calls must use non-decreasing
  /// horizons (runtime::ResilienceManager passes the end of each progress
  /// window). Events come back sorted by (at, insertion order), the order
  /// the recovery layer applies them in.
  [[nodiscard]] std::vector<FaultEvent> take_until(sim::TimeNs until);

 private:
  /// One Poisson arrival stream (a fault kind with a positive rate).
  struct Process {
    FaultKind kind = FaultKind::kNodeFailStop;
    double machine_rate_hz = 0.0;
    sim::Rng rng{0};
    sim::TimeNs next_at{0};
  };
  struct Scheduled {
    FaultEvent event;
    std::uint64_t seq = 0;  ///< tie-break: FIFO among equal timestamps
  };

  void extend(sim::TimeNs horizon);
  [[nodiscard]] FaultEvent materialize(Process& p, sim::TimeNs at);

  Spec spec_;
  int nodes_ = 1;
  std::uint64_t next_seq_ = 0;
  std::vector<Process> processes_;
  std::vector<Scheduled> pending_;
  sim::TimeNs horizon_{0};
};

/// Tallies of everything the injection/recovery machinery did — the
/// `fault.*` counter group of the run ledger. Deterministic per (seed, plan).
struct Counters {
  std::uint64_t injected = 0;   ///< fault events that fired (incl. denials)
  std::uint64_t detected = 0;   ///< faults the running system felt
  std::uint64_t retried = 0;    ///< IKC send attempts spent on recovery
  std::uint64_t recovered = 0;  ///< faults absorbed by a recovery path

  std::uint64_t node_failures = 0;
  std::uint64_t linux_crashes = 0;
  std::uint64_t stragglers = 0;
  std::uint64_t storms = 0;
  std::uint64_t ikc_dropped = 0;
  std::uint64_t ikc_delays = 0;
  std::uint64_t mcdram_denied = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t restarts = 0;

  std::uint64_t lost_work_ns = 0;      ///< progress redone or abandoned
  std::uint64_t checkpoint_ns = 0;     ///< coordinated-flush overhead
  std::uint64_t backoff_wait_ns = 0;   ///< IKC exponential-backoff waits
  std::uint64_t redistributed_ns = 0;  ///< straggler slowdown absorbed by peers
  std::uint64_t wait_ns = 0;           ///< total extra time charged to the run
};

}  // namespace mkos::fault
