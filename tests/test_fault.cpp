// Unit tests: the fault-injection subsystem — plan determinism and ordering,
// the injector, recovery-policy math, kernel-specific crash survival, the
// checkpoint-interval trade-off, MCDRAM denial spill, and the byte-identity
// guarantee zero plan == no subsystem. Worker-count identity under faults
// is covered by Campaign.WorkStealingChangesNoLedgerByte.

#include <gtest/gtest.h>

#include <vector>

#include "core/campaign.hpp"
#include "core/config.hpp"
#include "core/experiment.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "mem/address_space.hpp"
#include "runtime/resilience.hpp"
#include "runtime/simmpi.hpp"
#include "workloads/app.hpp"

namespace {

using namespace mkos;
using core::SystemConfig;
using fault::FaultEvent;
using fault::FaultKind;
using fault::Plan;
using fault::RecoveryPolicy;
using runtime::Job;
using runtime::JobSpec;
using runtime::Machine;
using runtime::ResilienceManager;
using sim::TimeNs;

fault::Spec rate_spec() {
  fault::Spec s;
  s.node_fail_rate_hz = 0.5;
  s.straggler_rate_hz = 1.0;
  s.ikc_drop_rate_hz = 2.0;
  return s;
}

std::vector<FaultEvent> drain(Plan plan, TimeNs until, int chunks) {
  std::vector<FaultEvent> out;
  for (int i = 1; i <= chunks; ++i) {
    const auto batch = plan.take_until(TimeNs{until.ns() * i / chunks});
    out.insert(out.end(), batch.begin(), batch.end());
  }
  return out;
}

// ---------------------------------------------------------------- Plan

TEST(FaultPlan, GenerateIsDeterministic) {
  const auto a = drain(Plan::generate(rate_spec(), 16, 7), sim::seconds(2), 1);
  const auto b = drain(Plan::generate(rate_spec(), 16, 7), sim::seconds(2), 1);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].node, b[i].node);
  }
}

TEST(FaultPlan, ChunkedDrainMatchesOneShot) {
  const auto one = drain(Plan::generate(rate_spec(), 16, 7), sim::seconds(2), 1);
  const auto many = drain(Plan::generate(rate_spec(), 16, 7), sim::seconds(2), 8);
  ASSERT_EQ(one.size(), many.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].at, many[i].at);
    EXPECT_EQ(one[i].kind, many[i].kind);
  }
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  const auto a = drain(Plan::generate(rate_spec(), 16, 7), sim::seconds(2), 1);
  const auto b = drain(Plan::generate(rate_spec(), 16, 8), sim::seconds(2), 1);
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at != b[i].at || a[i].node != b[i].node;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, FixedEventsSortByTimeThenInsertion) {
  Plan plan;
  plan.add({TimeNs{500}, FaultKind::kStraggler, 1, 0, TimeNs{0}})
      .add({TimeNs{100}, FaultKind::kIkcDrop, 2, 0, TimeNs{0}})
      .add({TimeNs{500}, FaultKind::kDaemonStorm, 3, 0, TimeNs{0}});
  const auto events = plan.take_until(TimeNs{1000});
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, FaultKind::kIkcDrop);
  EXPECT_EQ(events[1].kind, FaultKind::kStraggler);  // insertion order at t=500
  EXPECT_EQ(events[2].kind, FaultKind::kDaemonStorm);
}

TEST(FaultPlan, TakeUntilIsStrictlyBefore) {
  Plan plan;
  plan.add({TimeNs{100}, FaultKind::kStraggler, 0, 0, TimeNs{0}});
  EXPECT_TRUE(plan.take_until(TimeNs{100}).empty());
  EXPECT_EQ(plan.take_until(TimeNs{101}).size(), 1u);
}

TEST(FaultPlan, EmptySpecYieldsEmptyPlan) {
  Plan plan = Plan::generate(fault::Spec{}, 1024, 99);
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.take_until(sim::seconds(1000)).empty());
}

TEST(FaultPlan, FingerprintSeparatesInputs) {
  const auto fp = [](int nodes, std::uint64_t seed) {
    return Plan::generate(rate_spec(), nodes, seed).fingerprint();
  };
  EXPECT_NE(fp(16, 7), fp(16, 8));
  EXPECT_NE(fp(16, 7), fp(32, 7));
  EXPECT_EQ(fp(16, 7), fp(16, 7));
}

// ------------------------------------------------------------- Injector

TEST(FaultInjector, FiresScheduledEventsOnce) {
  Plan plan;
  plan.add({TimeNs{10}, FaultKind::kStraggler, 0, 0, TimeNs{0}})
      .add({TimeNs{30}, FaultKind::kDaemonStorm, 0, 0, TimeNs{0}});
  fault::Injector inj{std::move(plan)};
  EXPECT_EQ(inj.advance(TimeNs{20}).size(), 1u);
  EXPECT_EQ(inj.advance(TimeNs{25}).size(), 0u);
  EXPECT_EQ(inj.advance(TimeNs{40}).size(), 1u);
  EXPECT_EQ(inj.activated(), 2u);
}

TEST(FaultInjector, ClampsEventsAddedInThePast) {
  // An event timestamped before the injector's clock (advance already moved
  // past it) must still fire, at the current clock, not violate the queue's
  // schedule_at precondition.
  fault::Spec spec;
  spec.straggler_rate_hz = 50.0;
  fault::Injector inj{Plan::generate(spec, 64, 3)};
  (void)inj.advance(sim::milliseconds(100));
  const auto& late = inj.advance(sim::seconds(10));
  for (std::size_t i = 1; i < late.size(); ++i) {
    EXPECT_GE(late[i].at, late[i - 1].at);  // order preserved after clamping
  }
}

// ---------------------------------------------------- config fingerprints

TEST(FaultSpec, DisabledSpecKeepsConfigFingerprint) {
  const SystemConfig base = SystemConfig::mckernel();
  SystemConfig with_defaults = SystemConfig::mckernel();
  with_defaults.resilience = fault::Spec{};  // inert
  EXPECT_FALSE(with_defaults.resilience.enabled());
  EXPECT_EQ(base.fingerprint(), with_defaults.fingerprint());
}

TEST(FaultSpec, EnabledSpecChangesConfigFingerprint) {
  const SystemConfig base = SystemConfig::mckernel();
  SystemConfig faulty = SystemConfig::mckernel();
  faulty.resilience.node_fail_rate_hz = 0.01;
  EXPECT_TRUE(faulty.resilience.enabled());
  EXPECT_NE(base.fingerprint(), faulty.fingerprint());

  SystemConfig other = faulty;
  other.resilience.policy = RecoveryPolicy::kRetry;
  EXPECT_NE(faulty.fingerprint(), other.fingerprint());
}

TEST(FaultSpec, CheckpointCadenceCountsAsEnabled) {
  fault::Spec s;
  s.policy = RecoveryPolicy::kCheckpointRestart;
  EXPECT_FALSE(s.enabled());  // interval 0: no cadence cost
  s.checkpoint_interval = sim::milliseconds(10);
  EXPECT_TRUE(s.enabled());
}

// ------------------------------------------------------ recovery policies

Machine mckernel_machine(int nodes) { return SystemConfig::mckernel().machine(nodes); }

TEST(Resilience, EmptyPlanChargesNothing) {
  const Machine m = mckernel_machine(4);
  Job job{m, JobSpec{4, 8, 1}, 11};
  ResilienceManager mgr{fault::Spec{}, job, 21};
  mgr.install_memory_faults();
  EXPECT_EQ(mgr.on_sync(sim::seconds(10)), TimeNs{0});
  EXPECT_EQ(mgr.counters().injected, 0u);
  EXPECT_EQ(mgr.counters().wait_ns, 0u);
}

TEST(Resilience, FailStopWithoutCheckpointsLosesAllProgress) {
  const Machine m = mckernel_machine(4);
  Job job{m, JobSpec{4, 8, 1}, 11};
  fault::Spec spec;
  spec.restart_cost = sim::milliseconds(1);
  Plan plan = Plan::scripted(spec);
  plan.add({sim::milliseconds(30), FaultKind::kNodeFailStop, 0, 0, TimeNs{0}});
  ResilienceManager mgr{std::move(plan), job, 21};
  const TimeNs extra = mgr.on_sync(sim::milliseconds(60));
  EXPECT_EQ(extra, sim::milliseconds(31));  // 30ms redone + 1ms relaunch
  EXPECT_EQ(mgr.counters().restarts, 1u);
  EXPECT_EQ(mgr.counters().lost_work_ns, 30'000'000u);
  EXPECT_EQ(mgr.counters().recovered, 0u);
}

TEST(Resilience, CheckpointsBoundRollbackAndChargeCadence) {
  const Machine m = mckernel_machine(4);
  Job job{m, JobSpec{4, 8, 1}, 11};
  fault::Spec spec;
  spec.policy = RecoveryPolicy::kCheckpointRestart;
  spec.checkpoint_interval = sim::milliseconds(10);
  spec.checkpoint_cost = sim::microseconds(100);
  spec.restart_cost = sim::milliseconds(1);
  Plan plan = Plan::scripted(spec);
  plan.add({sim::milliseconds(35), FaultKind::kNodeFailStop, 0, 0, TimeNs{0}});
  ResilienceManager mgr{std::move(plan), job, 21};
  const TimeNs extra = mgr.on_sync(sim::milliseconds(60));
  // 6 checkpoint boundaries in [0, 60), 5ms rollback past the 30ms one, 1ms
  // relaunch.
  EXPECT_EQ(extra, sim::milliseconds(6 * 0.1 + 5 + 1));
  EXPECT_EQ(mgr.counters().checkpoints, 6u);
  EXPECT_EQ(mgr.counters().lost_work_ns, 5'000'000u);
  EXPECT_EQ(mgr.counters().recovered, 1u);
}

TEST(Resilience, CheckpointIntervalHasInteriorOptimum) {
  // Fixed fail-stop schedule; sweep tiny / tuned / huge intervals. The tuned
  // interval must beat both edges (cadence-dominated vs rollback-dominated).
  const Machine m = mckernel_machine(4);
  const auto overhead = [&](TimeNs interval) {
    Job job{m, JobSpec{4, 8, 1}, 11};
    fault::Spec spec;
    spec.policy = RecoveryPolicy::kCheckpointRestart;
    spec.checkpoint_interval = interval;
    spec.checkpoint_cost = sim::milliseconds(2);
    spec.restart_cost = sim::milliseconds(1);
    Plan plan = Plan::scripted(spec);
    for (const double at_ms : {110.0, 340.0, 770.0}) {
      plan.add({sim::milliseconds(at_ms), FaultKind::kNodeFailStop, 0, 0, TimeNs{0}});
    }
    ResilienceManager mgr{std::move(plan), job, 21};
    return mgr.on_sync(sim::seconds(1));
  };
  const TimeNs tiny = overhead(sim::milliseconds(2));
  const TimeNs tuned = overhead(sim::milliseconds(40));
  const TimeNs huge = overhead(sim::milliseconds(900));
  EXPECT_LT(tuned, tiny);
  EXPECT_LT(tuned, huge);
}

TEST(Resilience, LwkSurvivesLinuxCrashThatKillsLinuxNode) {
  fault::Spec spec;
  spec.linux_reboot_stall = sim::milliseconds(40);
  spec.restart_cost = sim::milliseconds(1);
  const auto crash = [&](const SystemConfig& config) {
    const Machine m = config.machine(4);
    Job job{m, JobSpec{4, 8, 1}, 11};
    Plan plan = Plan::scripted(spec);
    plan.add({sim::milliseconds(50), FaultKind::kLinuxCrash, 0, 0,
              spec.linux_reboot_stall});
    ResilienceManager mgr{std::move(plan), job, 21};
    const TimeNs extra = mgr.on_sync(sim::milliseconds(100));
    return std::pair{extra, mgr.counters()};
  };

  const auto [lwk_extra, lwk_c] = crash(SystemConfig::mckernel());
  EXPECT_EQ(lwk_c.recovered, 1u);
  EXPECT_EQ(lwk_c.restarts, 0u);
  EXPECT_LT(lwk_extra, spec.linux_reboot_stall);  // only the offloaded share

  const auto [lin_extra, lin_c] = crash(SystemConfig::linux_default());
  EXPECT_EQ(lin_c.restarts, 1u);
  EXPECT_EQ(lin_c.node_failures, 1u);
  EXPECT_EQ(lin_c.recovered, 0u);
  EXPECT_GT(lin_extra, lwk_extra);  // lost the node: 50ms redone + relaunch
}

TEST(Resilience, RedistributionAbsorbsStragglerSlowdown) {
  const Machine m = mckernel_machine(4);
  const auto straggle = [&](RecoveryPolicy policy) {
    Job job{m, JobSpec{4, 8, 1}, 11};
    fault::Spec spec;
    spec.policy = policy;
    spec.redistribution_cost = sim::microseconds(100);
    Plan plan = Plan::scripted(spec);
    plan.add({TimeNs{0}, FaultKind::kStraggler, 0, 3.0, sim::milliseconds(20)});
    ResilienceManager mgr{std::move(plan), job, 21};
    const TimeNs extra = mgr.on_sync(sim::milliseconds(40));
    return std::pair{extra, mgr.counters()};
  };

  const auto [exposed, none_c] = straggle(RecoveryPolicy::kNone);
  EXPECT_EQ(exposed, sim::milliseconds(40));  // 20ms at 3x: 2x slowdown exposed
  EXPECT_EQ(none_c.redistributed_ns, 0u);

  const auto [absorbed, retry_c] = straggle(RecoveryPolicy::kRetry);
  // Residual 0.25 of the slowdown + the rebalance cost.
  EXPECT_EQ(absorbed, sim::milliseconds(10) + sim::microseconds(100));
  EXPECT_EQ(retry_c.redistributed_ns, 30'000'000u);
  EXPECT_EQ(retry_c.recovered, 1u);
}

TEST(Resilience, IkcDropRetriesOnIkcKernelsOnly) {
  fault::Spec spec;
  spec.policy = RecoveryPolicy::kRetry;
  const auto drop = [&](const SystemConfig& config) {
    const Machine m = config.machine(4);
    Job job{m, JobSpec{4, 8, 1}, 11};
    Plan plan = Plan::scripted(spec);
    plan.add({sim::milliseconds(1), FaultKind::kIkcDrop, 0, 4.0, TimeNs{0}});
    ResilienceManager mgr{std::move(plan), job, 21};
    const TimeNs extra = mgr.on_sync(sim::milliseconds(10));
    return std::pair{extra, mgr.counters()};
  };

  const auto [mck_extra, mck_c] = drop(SystemConfig::mckernel());
  EXPECT_EQ(mck_c.ikc_dropped, 4u);
  EXPECT_GE(mck_c.retried, 4u);  // at least one resend per message
  EXPECT_EQ(mck_c.recovered, 4u);
  EXPECT_GT(mck_c.backoff_wait_ns, 0u);
  EXPECT_GT(mck_extra, TimeNs{0});

  // Linux has no IKC channel: the event fires but nothing detects it.
  const auto [lin_extra, lin_c] = drop(SystemConfig::linux_default());
  EXPECT_EQ(lin_extra, TimeNs{0});
  EXPECT_EQ(lin_c.detected, 0u);
  EXPECT_EQ(lin_c.ikc_dropped, 0u);
}

TEST(Resilience, StormBarelyReachesLwkCores) {
  const auto storm = [](const SystemConfig& config) {
    const Machine m = config.machine(4);
    Job job{m, JobSpec{4, 8, 1}, 11};
    Plan plan = Plan::scripted(fault::Spec{});
    plan.add({TimeNs{0}, FaultKind::kDaemonStorm, 0, 1.0, sim::milliseconds(25)});
    ResilienceManager mgr{std::move(plan), job, 21};
    return mgr.on_sync(sim::milliseconds(25));
  };
  const TimeNs on_linux = storm(SystemConfig::linux_default());
  const TimeNs on_mos = storm(SystemConfig::mos());
  EXPECT_GT(on_linux, TimeNs{0});
  // Partitioning: the mOS LWK feels a small fraction of what Linux does.
  EXPECT_LT(on_mos.ns() * 5, on_linux.ns());
}

TEST(Resilience, IsolationLeakOrdersKernels) {
  EXPECT_EQ(ResilienceManager::isolation_leak(kernel::OsKind::kLinux), 1.0);
  EXPECT_LT(ResilienceManager::isolation_leak(kernel::OsKind::kFusedOs), 0.5);
  EXPECT_LT(ResilienceManager::isolation_leak(kernel::OsKind::kMcKernel),
            ResilienceManager::isolation_leak(kernel::OsKind::kFusedOs));
}

// ----------------------------------------------------- MCDRAM denial spill

TEST(Resilience, McdramDenialForcesDdr4Spill) {
  const Machine m = mckernel_machine(1);
  Job job{m, JobSpec{1, 8, 1}, 11};
  fault::Spec spec;
  spec.mcdram_fail_fraction = 1.0;  // every MCDRAM allocation denied
  ResilienceManager mgr{spec, job, 21};
  mgr.install_memory_faults();
  (void)job.kernel().sys_mmap(job.lane(0), 64 * sim::MiB, mem::VmaKind::kAnon,
                              mem::MemPolicy::standard());
  EXPECT_LT(job.lane_fraction_in(0, hw::MemKind::kMcdram), 0.01);
  EXPECT_GT(mgr.counters().mcdram_denied, 0u);

  // Control: the same job without denial places the mapping in MCDRAM.
  Job healthy{m, JobSpec{1, 8, 1}, 11};
  (void)healthy.kernel().sys_mmap(healthy.lane(0), 64 * sim::MiB, mem::VmaKind::kAnon,
                                  mem::MemPolicy::standard());
  EXPECT_GT(healthy.lane_fraction_in(0, hw::MemKind::kMcdram), 0.99);
}

TEST(Resilience, HooksDetachOnDestruction) {
  const Machine m = mckernel_machine(1);
  Job job{m, JobSpec{1, 8, 1}, 11};
  {
    fault::Spec spec;
    spec.mcdram_fail_fraction = 1.0;
    ResilienceManager mgr{spec, job, 21};
    mgr.install_memory_faults();
  }
  // Manager gone: allocations flow to MCDRAM again.
  (void)job.kernel().sys_mmap(job.lane(0), 64 * sim::MiB, mem::VmaKind::kAnon,
                              mem::MemPolicy::standard());
  EXPECT_GT(job.lane_fraction_in(0, hw::MemKind::kMcdram), 0.99);
}

// ----------------------------------------------------- end-to-end identity

fault::Spec chaotic_spec() {
  fault::Spec s;
  s.node_fail_rate_hz = 0.002;
  s.straggler_rate_hz = 0.01;
  s.storm_rate_hz = 0.005;
  s.ikc_drop_rate_hz = 0.02;
  s.linux_crash_rate_hz = 0.002;
  s.policy = RecoveryPolicy::kFull;
  s.checkpoint_interval = sim::milliseconds(20);
  s.checkpoint_cost = sim::microseconds(200);
  return s;
}

TEST(Resilience, ZeroFaultRunMatchesPlainRun) {
  // The whole-pipeline identity: a config whose resilience spec is inert
  // must produce byte-identical ledgers (and FOMs) to the config as it
  // existed before the subsystem.
  auto app_a = workloads::make_app("MiniFE");
  auto app_b = workloads::make_app("MiniFE");
  const SystemConfig plain = SystemConfig::mckernel();
  SystemConfig inert = SystemConfig::mckernel();
  inert.resilience = fault::Spec{};
  const core::RunStats a = core::run_app(*app_a, plain, 8, 2, 42);
  const core::RunStats b = core::run_app(*app_b, inert, 8, 2, 42);
  EXPECT_EQ(a.fom.samples(), b.fom.samples());
  EXPECT_EQ(a.ledger.to_json(), b.ledger.to_json());
}

TEST(Resilience, FaultyRunIsSeedDeterministic) {
  SystemConfig config = SystemConfig::mckernel();
  config.resilience = chaotic_spec();
  auto app_a = workloads::make_app("MiniFE");
  auto app_b = workloads::make_app("MiniFE");
  const core::RunStats a = core::run_app(*app_a, config, 8, 2, 42);
  const core::RunStats b = core::run_app(*app_b, config, 8, 2, 42);
  EXPECT_EQ(a.ledger.to_json(), b.ledger.to_json());
  EXPECT_GT(a.ledger.counter("fault.injected"), 0u);
  EXPECT_GT(a.ledger.counter("fault.wait_ns"), 0u);
}

TEST(Resilience, FaultsDegradeFom) {
  auto app_a = workloads::make_app("MiniFE");
  auto app_b = workloads::make_app("MiniFE");
  const SystemConfig plain = SystemConfig::mckernel();
  SystemConfig faulty = SystemConfig::mckernel();
  faulty.resilience = chaotic_spec();
  faulty.resilience.policy = RecoveryPolicy::kNone;
  const double base = core::run_app(*app_a, plain, 8, 2, 42).median();
  const double hurt = core::run_app(*app_b, faulty, 8, 2, 42).median();
  EXPECT_LT(hurt, base);
}

}  // namespace
