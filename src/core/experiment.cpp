#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "alloc/model.hpp"
#include "obs/snapshots.hpp"
#include "runtime/resilience.hpp"
#include "sim/contracts.hpp"
#include "sim/hash.hpp"

namespace mkos::core {

namespace {

// splitmix64 finalizer: cheap avalanche so sequential inputs (rep indices,
// node counts) land on uncorrelated streams.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// One repetition's figure of merit plus its telemetry snapshot.
struct RepOutcome {
  workloads::AppResult result;
  obs::RunLedger ledger;
};

/// One repetition of a cell with positionally derived seeds. Thread-safe as
/// long as `app` is not shared across concurrent calls.
RepOutcome run_once(workloads::App& app, const SystemConfig& config, int nodes,
                    std::uint64_t cell_fp, int rep) {
  // Physical memory, the partition, placements and heaps are built fresh
  // per repetition, so no state leaks across runs. Only the immutable KNL
  // topology is shared, so the machine itself costs no allocation.
  const runtime::Machine machine = config.machine(nodes);
  runtime::Job job(machine, app.spec(nodes), rep_seed(cell_fp, rep, /*stream=*/0));
  // Fault plan on its own positional stream, constructed before setup so
  // MCDRAM denial hooks see placement-time allocations. Declared after `job`
  // (destroyed first: the dtor detaches the hooks it installed).
  std::optional<runtime::ResilienceManager> resil;
  if (config.resilience.enabled()) {
    resil.emplace(config.resilience, job, rep_seed(cell_fp, rep, /*stream=*/2));
    resil->install_memory_faults();
  }
  app.setup(job);
  // Allocator model after setup (its vmem imports must not race placement's
  // carving for the same DDR4 extents) and before the world attaches to it.
  // Draws no randomness: churn costs are a pure function of allocator state.
  std::optional<alloc::NodeAllocModel> alloc_model;
  if (config.alloc.enabled()) {
    alloc_model.emplace(job.node().topo(), job.node().phys(), config.os,
                        config.alloc, job.lane_count());
  }
  runtime::MpiWorld world(job, rep_seed(cell_fp, rep, /*stream=*/1));
  if (resil) world.attach_resilience(&*resil);
  if (alloc_model) world.attach_alloc(&*alloc_model);
  RepOutcome out;
  out.result = app.run(job, world);
  if (alloc_model) alloc_model->drain_lanes();
  // Snapshot after the run so heap/kernel/world counters reflect the whole
  // repetition; run_app merges the per-rep ledgers positionally.
  obs::record_world(out.ledger, world);
  obs::record_job(out.ledger, job);
  if (resil) obs::record_faults(out.ledger, resil->counters());
  if (alloc_model) obs::record_alloc(out.ledger, alloc_model->counters());
  out.ledger.observe("run.fom", out.result.fom);
  return out;
}

}  // namespace

std::uint64_t cell_fingerprint(std::string_view app_name, const SystemConfig& config,
                               int nodes, std::uint64_t seed) {
  std::uint64_t h = sim::fnv1a_bytes(sim::kFnvOffsetBasis, app_name);
  h = mix64(h ^ config.fingerprint());
  h = mix64(h ^ static_cast<std::uint64_t>(nodes));
  return mix64(h ^ seed);
}

std::uint64_t rep_seed(std::uint64_t cell_fp, int rep, std::uint64_t stream) {
  return mix64(cell_fp + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(rep + 1) +
               (stream << 32));
}

RunStats run_app(workloads::App& app, const SystemConfig& config, int nodes, int reps,
                 std::uint64_t seed) {
  MKOS_EXPECTS(reps >= 1);
  const std::uint64_t fp = cell_fingerprint(app.name(), config, nodes, seed);
  RunStats rs;
  for (int rep = 0; rep < reps; ++rep) {
    RepOutcome o = run_once(app, config, nodes, fp, rep);
    rs.fom.add(o.result.fom);
    rs.unit = o.result.unit;
    // Rep order: positional, thread-count free. Merging into an empty
    // ledger copies it entry by entry, so the first one moves in instead.
    if (rep == 0) {
      rs.ledger = std::move(o.ledger);
    } else {
      rs.ledger.merge(o.ledger);
    }
  }
  return rs;
}

std::vector<ScalingPoint> scaling_sweep(workloads::App& app, const SystemConfig& config,
                                        int reps, std::uint64_t seed, int max_nodes,
                                        obs::RunLedger* ledger) {
  std::vector<ScalingPoint> out;
  for (const int nodes : app.node_counts()) {
    if (nodes > max_nodes) continue;
    const RunStats rs = run_app(app, config, nodes, reps, seed);
    if (ledger != nullptr) ledger->merge(rs.ledger);
    out.push_back(ScalingPoint{nodes, rs.median(), rs.min(), rs.max()});
  }
  return out;
}

std::vector<RelativePoint> relative_to(const std::vector<ScalingPoint>& subject,
                                       const std::vector<ScalingPoint>& baseline) {
  std::vector<RelativePoint> out;
  for (const auto& s : subject) {
    const auto it = std::find_if(baseline.begin(), baseline.end(),
                                 [&](const ScalingPoint& b) { return b.nodes == s.nodes; });
    // A degenerate baseline (zero, negative, NaN or infinite median) would
    // poison every downstream ratio and the headline(); drop the point.
    if (it == baseline.end() || !std::isfinite(it->median) || it->median <= 0.0) continue;
    out.push_back(RelativePoint{s.nodes, s.median / it->median});
  }
  return out;
}

Headline headline(const std::vector<std::vector<RelativePoint>>& curves) {
  sim::Summary all;
  for (const auto& curve : curves) {
    for (const auto& p : curve) all.add(p.ratio);
  }
  Headline h;
  if (!all.empty()) {
    h.median_ratio = all.median();
    h.best_ratio = all.max();
  }
  return h;
}

}  // namespace mkos::core
