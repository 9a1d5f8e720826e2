// Unit tests: the hot-path sampling engine — truncated-moment closed forms,
// inverse-CDF maxima, the symmetric-lane and per-class heap replay, cost
// caches, and the determinism contract that fast and slow paths (and serial
// vs pooled execution) produce byte-identical results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <string>

#include "alloc/model.hpp"
#include "core/campaign.hpp"
#include "core/config.hpp"
#include "core/obs_glue.hpp"
#include "kernel/noise.hpp"
#include "obs/snapshots.hpp"
#include "runtime/resilience.hpp"
#include "runtime/simmpi.hpp"
#include "sim/work_stealing_pool.hpp"
#include "workloads/app.hpp"

namespace {

using namespace mkos;
using namespace mkos::runtime;
using kernel::NoiseComponent;
using mkos::core::SystemConfig;
using mkos::sim::MiB;

/// One raw (capped) event draw — the reference the analytic forms replace.
double draw_event_ns(const NoiseComponent& c, sim::Rng& rng) {
  double d = 0.0;
  switch (c.dist) {
    case NoiseComponent::Dist::kFixed:
      d = static_cast<double>(c.duration.ns());
      break;
    case NoiseComponent::Dist::kExponential:
      d = rng.exponential(static_cast<double>(c.duration.ns()));
      break;
    case NoiseComponent::Dist::kPareto:
      d = rng.pareto(static_cast<double>(c.duration.ns()), c.pareto_alpha);
      break;
  }
  if (c.cap.ns() > 0) d = std::min(d, static_cast<double>(c.cap.ns()));
  return d;
}

struct Empirical {
  double mean = 0.0;
  double var = 0.0;
};

Empirical empirical_of(const std::vector<double>& xs) {
  Empirical e;
  for (double x : xs) e.mean += x;
  e.mean /= static_cast<double>(xs.size());
  for (double x : xs) e.var += (x - e.mean) * (x - e.mean);
  e.var /= static_cast<double>(xs.size() - 1);
  return e;
}

// ------------------------------------------------------- truncated moments

TEST(ComponentMoments, MatchEmpiricalCappedExponential) {
  const NoiseComponent c{"exp", 1.0, sim::microseconds(4),
                         NoiseComponent::Dist::kExponential, 1.5, sim::microseconds(10)};
  const kernel::ComponentMoments m = kernel::component_moments(c);
  sim::Rng rng{7};
  std::vector<double> xs(200000);
  for (double& x : xs) x = draw_event_ns(c, rng);
  const Empirical e = empirical_of(xs);
  EXPECT_NEAR(e.mean, m.m1_ns, 0.02 * m.m1_ns);
  EXPECT_NEAR(e.var, m.m2_ns2 - m.m1_ns * m.m1_ns,
              0.03 * (m.m2_ns2 - m.m1_ns * m.m1_ns));
}

TEST(ComponentMoments, MatchEmpiricalCappedPareto) {
  const NoiseComponent c{"par", 1.0, sim::milliseconds(1.5),
                         NoiseComponent::Dist::kPareto, 1.4, sim::milliseconds(20)};
  const kernel::ComponentMoments m = kernel::component_moments(c);
  sim::Rng rng{11};
  std::vector<double> xs(400000);
  for (double& x : xs) x = draw_event_ns(c, rng);
  const Empirical e = empirical_of(xs);
  EXPECT_NEAR(e.mean, m.m1_ns, 0.02 * m.m1_ns);
  EXPECT_NEAR(e.var, m.m2_ns2 - m.m1_ns * m.m1_ns,
              0.05 * (m.m2_ns2 - m.m1_ns * m.m1_ns));
}

TEST(ComponentMoments, UncappedParetoUsesClosedForm) {
  const NoiseComponent c{"par3", 1.0, sim::microseconds(700),
                         NoiseComponent::Dist::kPareto, 3.0, sim::TimeNs{0}};
  const kernel::ComponentMoments m = kernel::component_moments(c);
  const double xm = static_cast<double>(c.duration.ns());
  EXPECT_DOUBLE_EQ(m.m1_ns, 3.0 * xm / 2.0);
  EXPECT_DOUBLE_EQ(m.m2_ns2, 3.0 * xm * xm);
}

TEST(ComponentMoments, HeavyTailUncappedParetoEqualsCapAtHundredTimesScale) {
  // alpha <= 2 has no finite second moment; the proxy caps the draw at 100x
  // its scale, so it must equal that capped component exactly.
  const NoiseComponent c{"heavy", 1.0, sim::microseconds(700),
                         NoiseComponent::Dist::kPareto, 1.5, sim::TimeNs{0}};
  NoiseComponent capped = c;
  capped.cap = sim::TimeNs{100 * c.duration.ns()};
  const kernel::ComponentMoments m = kernel::component_moments(c);
  const kernel::ComponentMoments ref = kernel::component_moments(capped);
  EXPECT_DOUBLE_EQ(m.m1_ns, ref.m1_ns);
  EXPECT_DOUBLE_EQ(m.m2_ns2, ref.m2_ns2);
}

TEST(ComponentMoments, CapAtOrBelowScaleIsDeterministic) {
  const NoiseComponent c{"deg", 1.0, sim::microseconds(5),
                         NoiseComponent::Dist::kPareto, 1.5, sim::microseconds(5)};
  const kernel::ComponentMoments m = kernel::component_moments(c);
  const double cap = static_cast<double>(c.cap.ns());
  EXPECT_DOUBLE_EQ(m.m1_ns, cap);
  EXPECT_DOUBLE_EQ(m.m2_ns2, cap * cap);
}

// ------------------------------------------------------------- max draws

TEST(MaxDraw, MatchesNaiveMaximumDistribution) {
  const NoiseComponent c{"exp", 1.0, sim::microseconds(4),
                         NoiseComponent::Dist::kExponential, 1.5, sim::TimeNs{0}};
  const std::uint64_t n = 64;
  sim::Rng naive_rng{29};
  sim::Rng fast_rng{31};
  std::vector<double> naive(20000);
  std::vector<double> fast(20000);
  for (double& x : naive) {
    double best = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) best = std::max(best, draw_event_ns(c, naive_rng));
    x = best;
  }
  for (double& x : fast) x = kernel::sample_component_max_ns(c, n, fast_rng);
  const Empirical en = empirical_of(naive);
  const Empirical ef = empirical_of(fast);
  EXPECT_NEAR(ef.mean, en.mean, 0.03 * en.mean);
  EXPECT_NEAR(std::sqrt(ef.var), std::sqrt(en.var), 0.08 * std::sqrt(en.var));
}

TEST(MaxDraw, GrowsWithCountAndRespectsCap) {
  const NoiseComponent c{"par", 1.0, sim::milliseconds(1.5),
                         NoiseComponent::Dist::kPareto, 1.4, sim::milliseconds(20)};
  sim::Rng rng{37};
  double mean_small = 0.0;
  double mean_large = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const double small = kernel::sample_component_max_ns(c, 4, rng);
    const double large = kernel::sample_component_max_ns(c, 4096, rng);
    EXPECT_LE(small, static_cast<double>(c.cap.ns()));
    EXPECT_LE(large, static_cast<double>(c.cap.ns()));
    mean_small += small;
    mean_large += large;
  }
  EXPECT_GT(mean_large, mean_small * 2.0);
}

// --------------------------------------- fast-path / slow-path equivalence

/// Drive one world through a script covering every fast path: symmetric
/// heap cycles (replayable and state-changing), uniform and scaled compute,
/// cached collectives and messages, and a mid-run algorithm flip that must
/// invalidate the collective cache.
sim::TimeNs run_script(MpiWorld& world) {
  world.mpi_init();
  const std::int64_t grow = 8 * static_cast<std::int64_t>(MiB);
  const std::vector<std::int64_t> cycle{grow, 0, -grow};
  const std::vector<std::int64_t> net_growth{grow / 4};
  for (int step = 0; step < 6; ++step) {
    world.heap_cycle(cycle);
    world.compute_bytes(32 * MiB);
    world.compute_bytes_scaled(16 * MiB, {1.0, 1.25});
    world.allreduce(64 * sim::KiB);
    world.halo_exchange(256 * sim::KiB, 6);
    if (step == 3) {
      world.heap_cycle(net_growth);  // state-changing: exercises the slow path
      world.collective_model().algo = AllreduceAlgo::kRing;
    }
  }
  world.barrier();
  return world.finish();
}

/// Asymmetric lanes: even lanes start with a fully faulted heap, odd lanes
/// with an untouched tail on top, all bound to one MCDRAM domain that is
/// then drained to a little more than one grow of free room. The cycle is
/// state-neutral for the even class, but an odd lane faults its tail in and
/// keeps it, shrinking the room every even lane after it faults from. A
/// class entry recorded before an odd lane would misprice those lanes.
/// `deny` then arms a denial hook on the domain, as ResilienceManager's
/// MCDRAM faults do: it draws randomness on every allocation, so a lane
/// replayed instead of simulated would shift every later denial.
sim::TimeNs asymmetric_script(MpiWorld& world, bool deny) {
  world.mpi_init();
  Job& job = world.job();
  kernel::Kernel& k = job.kernel();
  const hw::DomainId mcdram = job.node().topo().domains_of_kind(hw::MemKind::kMcdram).front();
  const std::int64_t base = 16 * static_cast<std::int64_t>(MiB);
  const std::int64_t tail = 4 * static_cast<std::int64_t>(MiB);
  const std::int64_t grow = 8 * static_cast<std::int64_t>(MiB);
  const auto add_tails = [&] {
    for (int i = 1; i < job.lane_count(); i += 2) (void)k.sys_brk(job.lane(i), tail);
  };
  for (int i = 0; i < job.lane_count(); ++i) {
    kernel::Process& p = job.lane(i);
    (void)k.sys_set_mempolicy(p, mem::MemPolicy::bind({mcdram}));
    (void)k.sys_brk(p, base);
    (void)k.heap_touch(p, 1);
  }
  add_tails();
  const std::vector<std::int64_t> cycle{grow, 0, -grow};
  // Warm-up with ample room: every lane reaches its high-water mark and
  // the odd lanes fault their first tail in.
  world.heap_cycle(cycle);
  add_tails();
  mem::DomainAllocator& dom = k.phys().domain(mcdram);
  (void)dom.alloc_best_effort(dom.free_bytes() - static_cast<sim::Bytes>(grow + tail / 2),
                              4 * sim::KiB);
  if (deny) {
    dom.set_fault_hook([rng = sim::Rng{99}](sim::Bytes) mutable {
      return rng.next_double() < 0.5;
    });
  }
  for (int step = 0; step < 4; ++step) {
    world.heap_cycle(cycle);
    world.compute_bytes(32 * MiB);
    world.allreduce(64 * sim::KiB);
    world.halo_exchange(256 * sim::KiB, 6);
  }
  world.barrier();
  return world.finish();
}

sim::TimeNs run_asymmetric_script(MpiWorld& world) { return asymmetric_script(world, false); }
sim::TimeNs run_denying_asymmetric_script(MpiWorld& world) {
  return asymmetric_script(world, true);
}

struct WorldOutcome {
  sim::TimeNs clock;
  MpiWorld::PhaseBreakdown breakdown;
  std::vector<mem::HeapStats> heap;
  MpiWorld::EngineCounters engine;
  std::uint64_t local_calls = 0;
};

WorldOutcome outcome_of(Job& job, const MpiWorld& world, sim::TimeNs clock) {
  WorldOutcome out;
  out.clock = clock;
  out.breakdown = world.breakdown();
  for (int i = 0; i < job.lane_count(); ++i) out.heap.push_back(job.lane(i).heap()->stats());
  out.engine = world.engine_counters();
  out.local_calls = job.kernel().local_call_count();
  return out;
}

using Script = sim::TimeNs (*)(MpiWorld&);

WorldOutcome outcome_for(kernel::OsKind os, bool fast_paths, Script script) {
  const Machine m = SystemConfig::for_os(os).machine(4);
  // 16 ranks: block binding puts four consecutive lanes on each quadrant.
  Job job{m, JobSpec{4, 16, 1}, 1};
  MpiWorld world{job, 1234};
  world.set_fast_paths(fast_paths);
  const sim::TimeNs clock = script(world);
  return outcome_of(job, world, clock);
}

/// Bit-identical outputs: global clock, phase split, per-lane heap stats
/// and the kernel's call count.
void expect_same_outputs(const WorldOutcome& fast, const WorldOutcome& slow) {
  EXPECT_EQ(fast.clock.ns(), slow.clock.ns());
  EXPECT_EQ(fast.breakdown.compute.ns(), slow.breakdown.compute.ns());
  EXPECT_EQ(fast.breakdown.noise.ns(), slow.breakdown.noise.ns());
  EXPECT_EQ(fast.breakdown.comm.ns(), slow.breakdown.comm.ns());
  EXPECT_EQ(fast.local_calls, slow.local_calls);
  ASSERT_EQ(fast.heap.size(), slow.heap.size());
  for (std::size_t i = 0; i < fast.heap.size(); ++i) {
    EXPECT_EQ(fast.heap[i].queries, slow.heap[i].queries) << "lane " << i;
    EXPECT_EQ(fast.heap[i].grows, slow.heap[i].grows) << "lane " << i;
    EXPECT_EQ(fast.heap[i].shrinks, slow.heap[i].shrinks) << "lane " << i;
    EXPECT_EQ(fast.heap[i].current, slow.heap[i].current) << "lane " << i;
    EXPECT_EQ(fast.heap[i].max_break, slow.heap[i].max_break) << "lane " << i;
    EXPECT_EQ(fast.heap[i].cum_growth, slow.heap[i].cum_growth) << "lane " << i;
    EXPECT_EQ(fast.heap[i].faults, slow.heap[i].faults) << "lane " << i;
    EXPECT_EQ(fast.heap[i].zeroed, slow.heap[i].zeroed) << "lane " << i;
  }
  // The slow world never took a fast path; both count every lane of every
  // cycle once, as a replayed or simulated lane.
  EXPECT_EQ(slow.engine.heap_fast_lanes, 0u);
  EXPECT_EQ(slow.engine.heap_class_replays, 0u);
  EXPECT_EQ(fast.engine.heap_fast_lanes + fast.engine.heap_slow_lanes,
            slow.engine.heap_slow_lanes);
}

/// Runs `script` with fast paths on and off, checks the outputs match, and
/// returns the fast world's outcome for per-script path assertions.
WorldOutcome expect_equivalent(kernel::OsKind os, Script script) {
  const WorldOutcome fast = outcome_for(os, true, script);
  const WorldOutcome slow = outcome_for(os, false, script);
  expect_same_outputs(fast, slow);
  EXPECT_EQ(slow.engine.compute_uniform_fast, 0u);
  EXPECT_EQ(slow.engine.coll_cache_hits, 0u);
  EXPECT_EQ(slow.engine.msg_cache_hits, 0u);
  return fast;
}

/// The fast world of run_script took every fast path it covers.
void expect_took_fast_paths(const WorldOutcome& fast) {
  EXPECT_GT(fast.engine.heap_fast_lanes, 0u);
  EXPECT_GT(fast.engine.compute_uniform_fast, 0u);
  EXPECT_GT(fast.engine.coll_cache_hits, 0u);
  EXPECT_GT(fast.engine.msg_cache_hits, 0u);
  // The state-changing cycle fell back to per-lane simulation.
  EXPECT_GT(fast.engine.heap_slow_lanes, 0u);
}

TEST(FastPaths, LinuxWorldBitIdenticalToSlowPaths) {
  expect_took_fast_paths(expect_equivalent(kernel::OsKind::kLinux, run_script));
}

TEST(FastPaths, McKernelWorldBitIdenticalToSlowPaths) {
  expect_took_fast_paths(expect_equivalent(kernel::OsKind::kMcKernel, run_script));
}

TEST(FastPaths, AsymmetricLanesBitIdenticalToSlowPaths) {
  const WorldOutcome fast = expect_equivalent(kernel::OsKind::kLinux, run_asymmetric_script);
  // No cycle is symmetric; the even lanes' neutral cycles replay per class.
  EXPECT_EQ(fast.engine.heap_fast_lanes, 0u);
  EXPECT_GT(fast.engine.heap_class_replays, 0u);

  // With a fault hook armed, every divergent lane is simulated.
  const WorldOutcome hooked =
      expect_equivalent(kernel::OsKind::kLinux, run_denying_asymmetric_script);
  EXPECT_EQ(hooked.engine.heap_class_replays, 0u);
}

/// One repetition of a real app: setup, then run, as core::run_app does.
/// With `faults`, a ResilienceManager installs its memory hooks before
/// setup and attaches to the world, as core::run_once does.
WorldOutcome app_outcome(std::string_view app_name, kernel::OsKind os, int nodes,
                         bool fast_paths,
                         const std::optional<fault::Spec>& faults = std::nullopt) {
  const std::unique_ptr<workloads::App> app = workloads::make_app(app_name);
  const Machine m = SystemConfig::for_os(os).machine(nodes);
  Job job{m, app->spec(nodes), 17};
  std::optional<ResilienceManager> resilience;
  if (faults) {
    resilience.emplace(*faults, job, 57);
    resilience->install_memory_faults();
  }
  app->setup(job);
  MpiWorld world{job, 4321};
  world.set_fast_paths(fast_paths);
  if (resilience) world.attach_resilience(&*resilience);
  const sim::TimeNs clock = app->run(job, world).elapsed;
  return outcome_of(job, world, clock);
}

TEST(FastPaths, DivergentAppsBitIdenticalToSlowPaths) {
  // Lulesh's brk churn and AMG's hypre cycles leave lanes in a few heap
  // states once MCDRAM fills, so their cycles take the divergent path.
  for (const std::string_view app : {"Lulesh2.0", "AMG2013"}) {
    for (const kernel::OsKind os :
         {kernel::OsKind::kLinux, kernel::OsKind::kMcKernel, kernel::OsKind::kMos}) {
      for (const int nodes : {1, 64}) {
        SCOPED_TRACE(std::string(app) + " " + SystemConfig::for_os(os).label() + " n=" +
                     std::to_string(nodes));
        const WorldOutcome fast = app_outcome(app, os, nodes, true);
        const WorldOutcome slow = app_outcome(app, os, nodes, false);
        expect_same_outputs(fast, slow);
        if (app == "Lulesh2.0") {
          EXPECT_GT(fast.engine.heap_class_replays, 0u);
        }
      }
    }
  }
}

TEST(FastPaths, ArmedMcdramHookBitIdenticalToSlowPaths) {
  // An armed MCDRAM-denial hook draws one random number per allocation, so
  // a lane replayed by the whole-cycle memo or the symmetric path would
  // skip draws the slow path makes. Hooked nodes simulate every lane.
  fault::Spec faults;
  faults.mcdram_fail_fraction = 0.5;
  const WorldOutcome fast = app_outcome("AMG2013", kernel::OsKind::kLinux, 1, true, faults);
  const WorldOutcome slow = app_outcome("AMG2013", kernel::OsKind::kLinux, 1, false, faults);
  expect_same_outputs(fast, slow);
  EXPECT_EQ(fast.engine.heap_fast_lanes, 0u);
}

TEST(FastPaths, FaultSpecWithoutMcdramDenialKeepsHeapFastPaths) {
  // Resilience is on, but mcdram_fail_fraction is 0: no hook can deny, so
  // none may be installed, and the divergent cycles still replay per class.
  fault::Spec faults;
  faults.node_fail_rate_hz = 0.002;
  const WorldOutcome fast = app_outcome("Lulesh2.0", kernel::OsKind::kLinux, 1, true, faults);
  const WorldOutcome slow = app_outcome("Lulesh2.0", kernel::OsKind::kLinux, 1, false, faults);
  expect_same_outputs(fast, slow);
  EXPECT_GT(fast.engine.heap_class_replays, 0u);
}

TEST(FastPaths, FreshWorldBandwidthSentinelNeverLeaks) {
  // Job guarantees >= 1 lane, so refresh_lanes' zero-lane branch is a
  // defensive default; what IS reachable is a fresh world with nothing
  // resident, where every lane prices at the DDR4 fallback. The min-scan
  // sentinel (1e30) must never survive into compute costs: streamed bytes
  // take real (positive) time on both the uniform and per-lane paths.
  const Machine m = SystemConfig::linux_default().machine(1);
  Job job{m, JobSpec{1, 8, 1}, 1};
  MpiWorld world{job, 99};
  world.refresh_lanes();
  world.compute_bytes(512 * MiB);
  const sim::TimeNs fast_clock = world.finish();
  EXPECT_GT(fast_clock.ns(), 0);

  Job slow_job{m, JobSpec{1, 8, 1}, 1};
  MpiWorld slow_world{slow_job, 99};
  slow_world.set_fast_paths(false);
  slow_world.compute_bytes(512 * MiB);
  EXPECT_EQ(slow_world.finish().ns(), fast_clock.ns());
}

// ------------------------------------------------- seeded fast == slow sweep

/// One cell of the seeded sweep over the config space.
struct SweepDraw {
  std::string app;
  kernel::OsKind os = kernel::OsKind::kLinux;
  int nodes = 1;
  bool alloc_model = false;
  /// MCDRAM denial of the resilience spec; negative means no spec at all.
  double mcdram_fail_fraction = -1.0;
  std::uint64_t seed = 0;
};

const char* os_enum(kernel::OsKind os) {
  switch (os) {
    case kernel::OsKind::kLinux: return "kLinux";
    case kernel::OsKind::kMcKernel: return "kMcKernel";
    case kernel::OsKind::kMos: return "kMos";
    case kernel::OsKind::kFusedOs: return "kFusedOs";
  }
  return "?";
}

/// The draw as a ready-to-paste regression test.
std::string as_regression_test(const SweepDraw& d) {
  std::ostringstream os;
  os << "TEST(FastPathSweep, Regression) {\n"
     << "  expect_sweep_equivalent(SweepDraw{\"" << d.app << "\", kernel::OsKind::"
     << os_enum(d.os) << ", " << d.nodes << ", " << (d.alloc_model ? "true" : "false")
     << ", " << d.mcdram_fail_fraction << ", " << d.seed << "u});\n"
     << "}";
  return os.str();
}

struct SweepOutcome {
  WorldOutcome world;
  std::string ledger;  ///< the rep ledger's JSON without its engine.* lines
};

/// One repetition of the drawn cell, wired as core::run_once wires it: the
/// fault plan before setup, the allocator model after it.
SweepOutcome sweep_outcome(const SweepDraw& d, bool fast_paths) {
  const std::unique_ptr<workloads::App> app = workloads::make_app(d.app);
  SystemConfig config = SystemConfig::for_os(d.os);
  config.alloc.model_allocator = d.alloc_model;
  const Machine m = config.machine(d.nodes);
  Job job{m, app->spec(d.nodes), d.seed};
  std::optional<ResilienceManager> resilience;
  if (d.mcdram_fail_fraction >= 0.0) {
    fault::Spec faults;
    faults.mcdram_fail_fraction = d.mcdram_fail_fraction;
    resilience.emplace(faults, job, d.seed + 2);
    resilience->install_memory_faults();
  }
  app->setup(job);
  std::optional<alloc::NodeAllocModel> alloc_model;
  if (config.alloc.enabled()) {
    alloc_model.emplace(job.node().topo(), job.node().phys(), config.os, config.alloc,
                        job.lane_count());
  }
  MpiWorld world{job, d.seed + 1};
  world.set_fast_paths(fast_paths);
  if (resilience) world.attach_resilience(&*resilience);
  if (alloc_model) world.attach_alloc(&*alloc_model);
  const workloads::AppResult result = app->run(job, world);
  if (alloc_model) alloc_model->drain_lanes();

  obs::RunLedger ledger;
  obs::record_world(ledger, world);
  obs::record_job(ledger, job);
  if (resilience) obs::record_faults(ledger, resilience->counters());
  if (alloc_model) obs::record_alloc(ledger, alloc_model->counters());
  ledger.observe("run.fom", result.fom);

  SweepOutcome out{outcome_of(job, world, result.elapsed), {}};
  std::istringstream lines(ledger.to_json());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"engine.") == std::string::npos) out.ledger += line + "\n";
  }
  return out;
}

/// Fast and slow paths agree on the drawn cell; on a mismatch the failure
/// message carries the draw as a test to paste.
void expect_sweep_equivalent(const SweepDraw& d) {
  SCOPED_TRACE(as_regression_test(d));
  const SweepOutcome fast = sweep_outcome(d, true);
  const SweepOutcome slow = sweep_outcome(d, false);
  expect_same_outputs(fast.world, slow.world);
  EXPECT_EQ(fast.ledger, slow.ledger);
}

SweepDraw draw_cell(sim::Rng& rng) {
  static const std::vector<std::string> apps = workloads::registry_names();
  constexpr kernel::OsKind kOses[] = {kernel::OsKind::kLinux, kernel::OsKind::kMcKernel,
                                      kernel::OsKind::kMos, kernel::OsKind::kFusedOs};
  SweepDraw d;
  d.app = apps[rng.uniform_index(apps.size())];
  d.os = kOses[rng.uniform_index(4)];
  std::vector<int> counts;
  for (const int n : workloads::make_app(d.app)->node_counts()) {
    if (n <= 64) counts.push_back(n);
  }
  d.nodes = counts.empty() ? 1 : counts[rng.uniform_index(counts.size())];
  d.alloc_model = rng.uniform_index(2) == 1;
  constexpr double kFaults[] = {-1.0, 0.0, 0.5};
  d.mcdram_fail_fraction = kFaults[rng.uniform_index(3)];
  d.seed = rng.next_u64() >> 40;
  return d;
}

TEST(FastPathSweep, SeededDrawsBitIdenticalToSlowPaths) {
  // Registry app x OS (FusedOS included) x node count <= 64 x alloc model
  // x resilience spec (none, inert, MCDRAM denial) x seed.
  sim::Rng rng{2025};
  for (int i = 0; i < 500; ++i) {
    expect_sweep_equivalent(draw_cell(rng));
    if (HasFailure()) break;  // the first mismatch is the one to paste
  }
}

// ------------------------------------------- serial vs pooled ledger bytes

TEST(LedgerDeterminism, SerialAndPooledCampaignsRenderIdenticalJson) {
  core::CampaignSpec spec;
  spec.apps = {"MiniFE", "Lulesh2.0"};
  spec.configs = {SystemConfig::linux_default(), SystemConfig::mos()};
  spec.reps = 2;
  spec.seed = 4242;
  spec.max_nodes = 16;

  auto render = [&spec](int threads) {
    sim::WorkStealingPool pool(threads);
    core::CellCache cache;
    core::Campaign campaign(pool, cache);
    const auto cells = campaign.run(spec);
    obs::RunLedger ledger = core::bench_ledger("determinism_probe", "test", spec.seed);
    for (const core::CellResult& cell : cells) {
      core::record_run_stats(
          ledger, cell.app + "." + cell.config_label + ".n" + std::to_string(cell.nodes),
          cell.stats);
    }
    return ledger.to_json();  // no host section written -> fully deterministic
  };

  const std::string serial = render(1);
  const std::string pooled = render(8);
  EXPECT_EQ(serial, pooled);
}

}  // namespace
