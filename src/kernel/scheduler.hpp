#pragma once
// Scheduling model.
//
// Both LWKs "employ a round-robin, non-preemptive, co-operative scheduler"
// whose purpose is to stay out of the application's way; Linux runs a
// CFS-class preemptive scheduler with a periodic tick. The performance
// pipeline prices the one scheduler interaction the paper measures: an
// application's sched_yield(), and whether McKernel hijacks glibc's
// sched_yield() into a no-op.

#include "sim/time.hpp"

namespace mkos::kernel {

struct SchedulerModel {
  sim::TimeNs yield_syscall{700};     ///< user->kernel->user for sched_yield()
  bool yield_hijacked = false;        ///< McKernel --disable-sched-yield

  /// Price of one application sched_yield() call.
  [[nodiscard]] sim::TimeNs sched_yield_cost() const {
    // Hijacked: the injected shared library returns immediately in user
    // space ("helps to eliminate user/kernel mode switches").
    return yield_hijacked ? sim::TimeNs{6} : yield_syscall;
  }

  [[nodiscard]] static SchedulerModel linux_cfs() { return SchedulerModel{}; }
  [[nodiscard]] static SchedulerModel lwk_coop(bool yield_hijacked = false) {
    SchedulerModel m;
    m.yield_hijacked = yield_hijacked;
    return m;
  }
};

}  // namespace mkos::kernel
