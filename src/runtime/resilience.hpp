#pragma once
// Recovery policies over an injected fault plan.
//
// The ResilienceManager sits between a fault::Plan (a deterministic
// schedule of disturbances in progress time, see fault/fault.hpp) and the
// bulk-synchronous executor. MpiWorld calls on_sync() at every
// synchronization with the work span that just closed; the manager owns the
// plan, takes the events that fall inside that span with
// Plan::take_until, applies the recovery policy to them in (time, insertion)
// order, and returns the extra time the run must absorb. Because
// the charge lands inside synchronize(), fault time flows through the same
// clock as compute, noise and communication — every downstream statistic
// (FOM, breakdowns, campaign aggregation) sees it without special cases.
//
// Recovery policy semantics:
//   * kNone — a fail-stop loses all progress since t=0; dropped IKC messages
//     stall to their full timeout; stragglers run exposed.
//   * kRetry — dropped IKC messages are retried with exponential backoff;
//     straggler work is redistributed (peers absorb all but a residual).
//   * kCheckpointRestart — coordinated checkpoints every
//     checkpoint_interval of progress (each costing checkpoint_cost);
//     a fail-stop rolls back to the last checkpoint instead of t=0.
//   * kFull — both of the above.
//
// Checkpoint-interval cost model (the classic first-order optimum): total
// overhead(I) = checkpoints * cost + expected rollback, with
// checkpoints ~ T/I and expected rollback ~ faults * I/2. Sweeping I
// exposes the interior minimum near sqrt(2 * cost * MTBF) — the resilience
// bench reproduces that shape.
//
// Kernel-specific behavior: a kLinuxCrash on a multi-kernel node is
// survivable — the LWK partition keeps computing and only stalls on the
// Linux reboot scaled by its offload coupling, plus proxy respawns
// (McKernel's proxies die with Linux). A Linux-only node treats it as a
// fail-stop. Daemon storms reach application cores scaled by the kernel's
// isolation leak: nearly in full on Linux, barely at all on the LWKs.
//
// Determinism: all randomness comes from two forked streams of the ctor
// seed (recovery coin flips, MCDRAM denial draws), consumed in a fixed
// order driven by the deterministic event schedule. A disabled spec
// constructs an empty plan, installs no hooks, draws nothing, and charges
// nothing.

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "runtime/job.hpp"
#include "sim/rng.hpp"
#include "sim/thread_safety.hpp"
#include "sim/time.hpp"

namespace mkos::runtime {

class MKOS_THREAD_CONFINED("the owning cell's MpiWorld") ResilienceManager {
 public:
  /// Seed-derived plan from the spec (the production path).
  ResilienceManager(const fault::Spec& spec, Job& job, std::uint64_t seed);
  /// Explicit plan (tests and declarative scenarios).
  ResilienceManager(fault::Plan plan, Job& job, std::uint64_t seed);

  ResilienceManager(const ResilienceManager&) = delete;
  ResilienceManager& operator=(const ResilienceManager&) = delete;

  /// Detaches any installed allocator hooks.
  ~ResilienceManager();

  /// Install MCDRAM denial hooks on the representative node's MCDRAM
  /// domains. Call before the application's setup phase so placement-time
  /// allocations are exposed too. No-op when mcdram_fail_fraction is 0: an
  /// armed hook turns off the world's heap fast paths, so one that can
  /// never deny must not be installed.
  void install_memory_faults();

  /// Close the progress window `span` (the work the world just synchronized
  /// on) against the fault timeline; returns the extra time the run absorbs
  /// for faults, recovery and checkpoint cadence inside that window.
  [[nodiscard]] sim::TimeNs on_sync(sim::TimeNs span);

  [[nodiscard]] const fault::Counters& counters() const { return counters_; }

  /// Fraction of a storm that reaches application cores on `os` (the
  /// partitioning story, quantified). Exposed for tests and the bench.
  [[nodiscard]] static double isolation_leak(kernel::OsKind os);

 private:
  /// A straggler or storm currently dilating the run: overlap of
  /// [start, end) with a progress window extends the run by
  /// overlap * dilation, and overlap * absorbed is booked as work peers
  /// redistributed away.
  struct ActiveWindow {
    sim::TimeNs start{0};
    sim::TimeNs end{0};
    double dilation = 0.0;
    double absorbed = 0.0;
  };

  [[nodiscard]] sim::TimeNs apply_event(const fault::FaultEvent& e);
  [[nodiscard]] sim::TimeNs fail_stop_cost(sim::TimeNs at);
  [[nodiscard]] sim::TimeNs charge_windows(sim::TimeNs w0, sim::TimeNs w1);
  [[nodiscard]] bool uses_ikc() const;

  fault::Spec spec_;
  Job& job_;
  fault::Plan plan_;
  sim::Rng rng_;      ///< recovery decisions (retry coin flips)
  sim::Rng mem_rng_;  ///< MCDRAM denial draws
  fault::Counters counters_;
  sim::TimeNs progress_{0};
  std::vector<ActiveWindow> windows_;
  std::vector<int> hooked_domains_;
  double storm_base_fraction_ = 0.0;  ///< expected steal of a fully exposed core
};

}  // namespace mkos::runtime
