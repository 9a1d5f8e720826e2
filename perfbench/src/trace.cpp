#include "trace.hpp"

#include <cstdio>
#include <optional>
#include <stdexcept>

#include "alloc/model.hpp"
#include "core/campaign.hpp"
#include "obs/snapshots.hpp"
#include "samples.hpp"
#include "workloads/app.hpp"

namespace perfbench {

namespace core = mkos::core;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

core::CellKey cell_key(const std::string& app_name, const core::SystemConfig& config,
                       int nodes, int reps, std::uint64_t seed) {
  return core::CellKey{app_name, config.digest(), nodes, reps, seed};
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kCell: return "cell";
    case Layer::kMachine: return "hw.machine";
    case Layer::kJob: return "runtime.job";
    case Layer::kSetup: return "workloads.setup";
    case Layer::kAllocModel: return "alloc.model";
    case Layer::kWorld: return "runtime.world";
    case Layer::kRun: return "workloads.run";
    case Layer::kSnapshot: return "obs.snapshot";
    case Layer::kTeardown: return "runtime.teardown";
    case Layer::kMerge: return "obs.merge";
    case Layer::kStoreSave: return "core.store_save";
    case Layer::kStoreLoad: return "core.store_load";
    case Layer::kCount: break;
  }
  return "?";
}

CellTrace::Scope::Scope(CellTrace& trace, Layer layer)
    : trace_(trace), index_(static_cast<std::int32_t>(trace.spans_.size())) {
  trace_.spans_.push_back(Span{layer, trace_.current_, now_ns(), 0});
  trace_.current_ = index_;
}

CellTrace::Scope::~Scope() {
  Span& span = trace_.spans_[static_cast<std::size_t>(index_)];
  span.end_ns = now_ns();
  trace_.current_ = span.parent;
}

void LayerTotals::add(const CellTrace& trace) {
  const std::vector<Span>& spans = trace.spans();
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      self[static_cast<std::size_t>(spans[i].parent)] -= static_cast<double>(
          spans[i].end_ns - spans[i].start_ns) / 1e6;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_ms[static_cast<std::size_t>(spans[i].layer)] += self[i];
    if (spans[i].layer == Layer::kCell) {
      cell_ms += static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
      ++cells;
    }
  }
}

double LayerTotals::coverage() const {
  return cell_ms > 0.0 ? 1.0 - self(Layer::kCell) / cell_ms : 0.0;
}

core::RunStats traced_run_app(const std::string& app_name,
                              const core::SystemConfig& config, int nodes, int reps,
                              std::uint64_t seed, CellTrace& trace) {
  using mkos::alloc::NodeAllocModel;
  using mkos::runtime::Job;
  using mkos::runtime::Machine;
  using mkos::runtime::MpiWorld;
  if (config.resilience.enabled()) {
    throw std::invalid_argument("traced_run_app: fault injection is not replicated");
  }
  const CellTrace::Scope cell_span(trace, Layer::kCell);
  const auto app = mkos::workloads::make_app(app_name);
  if (app == nullptr) throw std::invalid_argument("unknown app " + app_name);
  const std::uint64_t fp = core::cell_fingerprint(app->name(), config, nodes, seed);

  struct Rep {
    mkos::workloads::AppResult result;
    mkos::obs::RunLedger ledger;
  };
  std::vector<Rep> outcomes(static_cast<std::size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    Rep& out = outcomes[static_cast<std::size_t>(rep)];
    // Destroyed in teardown in run_once's reverse-declaration order.
    std::optional<Machine> machine;
    std::optional<Job> job;
    std::optional<NodeAllocModel> alloc_model;
    std::optional<MpiWorld> world;
    {
      const CellTrace::Scope s(trace, Layer::kMachine);
      machine.emplace(config.machine(nodes));
    }
    {
      const CellTrace::Scope s(trace, Layer::kJob);
      job.emplace(*machine, app->spec(nodes), core::rep_seed(fp, rep, /*stream=*/0));
    }
    {
      const CellTrace::Scope s(trace, Layer::kSetup);
      app->setup(*job);
    }
    {
      const CellTrace::Scope s(trace, Layer::kAllocModel);
      if (config.alloc.enabled()) {
        alloc_model.emplace(job->node().topo(), job->node().phys(), config.os,
                            config.alloc, job->lane_count());
      }
    }
    {
      const CellTrace::Scope s(trace, Layer::kWorld);
      world.emplace(*job, core::rep_seed(fp, rep, /*stream=*/1));
      if (alloc_model) world->attach_alloc(&*alloc_model);
    }
    {
      const CellTrace::Scope s(trace, Layer::kRun);
      out.result = app->run(*job, *world);
    }
    {
      const CellTrace::Scope s(trace, Layer::kAllocModel);
      if (alloc_model) alloc_model->drain_lanes();
    }
    {
      const CellTrace::Scope s(trace, Layer::kSnapshot);
      mkos::obs::record_world(out.ledger, *world);
      mkos::obs::record_job(out.ledger, *job);
      if (alloc_model) mkos::obs::record_alloc(out.ledger, alloc_model->counters());
      out.ledger.observe("run.fom", out.result.fom);
    }
    {
      const CellTrace::Scope s(trace, Layer::kTeardown);
      world.reset();
      alloc_model.reset();
      job.reset();
      machine.reset();
    }
  }
  const CellTrace::Scope s(trace, Layer::kMerge);
  core::RunStats rs;
  for (const Rep& o : outcomes) {
    rs.fom.add(o.result.fom);
    rs.unit = o.result.unit;
    rs.ledger.merge(o.ledger);
  }
  return rs;
}

bool traced_store_save(core::CellStore* store, const std::string& app_name,
                       const core::SystemConfig& config, int nodes, int reps,
                       std::uint64_t seed, const core::RunStats& stats,
                       CellTrace& trace) {
  const std::uint64_t key = core::cell_cache_key(app_name, config, nodes, reps, seed);
  const core::CellKey id = cell_key(app_name, config, nodes, reps, seed);
  const CellTrace::Scope s(trace, Layer::kStoreSave);
  return store != nullptr && store->save(key, id, stats);
}

std::optional<core::RunStats> traced_store_load(core::CellStore* store,
                                                const std::string& app_name,
                                                const core::SystemConfig& config,
                                                int nodes, int reps, std::uint64_t seed,
                                                CellTrace& trace) {
  const std::uint64_t key = core::cell_cache_key(app_name, config, nodes, reps, seed);
  const core::CellKey id = cell_key(app_name, config, nodes, reps, seed);
  const CellTrace::Scope s(trace, Layer::kStoreLoad);
  if (store == nullptr) return std::nullopt;
  return store->load(key, id);
}

bool write_spans_jsonl(const std::vector<CellTrace>& traces, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = true;
  for (const CellTrace& trace : traces) {
    const std::vector<Span>& spans = trace.spans();
    for (std::size_t i = 0; i < spans.size() && ok; ++i) {
      ok = std::fprintf(f,
                        "{\"cell\":%u,\"span\":%zu,\"parent\":%d,\"name\":\"%s\","
                        "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                        trace.cell(), i, spans[i].parent, layer_name(spans[i].layer),
                        static_cast<long long>(spans[i].start_ns),
                        static_cast<long long>(spans[i].end_ns)) > 0;
    }
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
