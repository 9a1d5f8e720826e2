#pragma once
// Layer spans recorded from the benchmark's own files, around its calls into
// each module's public functions.
//
// traced_run_app() is a replica of core::run_app (src/core/experiment.cpp,
// run_once + collect) built only from public APIs: the same construction
// order, the same positional rep_seed streams, the same snapshot and merge
// order — so its ledger must match run_app's byte for byte, and the
// benchmark checks that it does for every traced cell. Each step runs inside
// a span named after the module it calls into. A span covering a step the
// configuration skips (the alloc model when it is off, the store when the
// workload has none) still opens and closes, so it measures only the
// bypass: a few nanoseconds.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/cell_store.hpp"
#include "core/config.hpp"
#include "core/experiment.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kCell,        ///< root: one cell of the grid (make_app + every rep + merge)
  kMachine,     ///< hw: SystemConfig::machine
  kJob,         ///< runtime: runtime::Job constructor (node boot + launch)
  kSetup,       ///< workloads: App::setup
  kAllocModel,  ///< alloc: NodeAllocModel constructor and drain_lanes
  kWorld,       ///< runtime: MpiWorld constructor
  kRun,         ///< workloads: App::run
  kSnapshot,    ///< obs: record_world / record_job / record_alloc
  kTeardown,    ///< runtime: world, alloc model, job and machine destructors
  kMerge,       ///< obs: RunLedger::merge of the reps (core collect)
  kStoreSave,   ///< core: CellStore::save (root span of its own)
  kStoreLoad,   ///< core: CellStore::load (root span of its own)
  kCount,
};

[[nodiscard]] const char* layer_name(Layer layer);

struct Span {
  Layer layer = Layer::kCell;
  std::int32_t parent = -1;  ///< index within the owning CellTrace; -1 = root
  std::int64_t start_ns = 0;  ///< steady_clock, ns
  std::int64_t end_ns = 0;
};

/// The spans of one cell, recorded by the one thread that runs it.
class CellTrace {
 public:
  explicit CellTrace(std::uint32_t cell = 0) : cell_(cell) {}

  /// Opens a span in its constructor and closes it in its destructor.
  class Scope {
   public:
    Scope(CellTrace& trace, Layer layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    CellTrace& trace_;
    std::int32_t index_;
  };

  [[nodiscard]] std::uint32_t cell() const { return cell_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t cell_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// Per-layer self time (a span's duration minus its direct children's),
/// summed over cell traces.
struct LayerTotals {
  std::array<double, static_cast<std::size_t>(Layer::kCount)> self_ms{};
  double cell_ms = 0.0;  ///< summed duration of kCell root spans
  std::uint64_t cells = 0;

  void add(const CellTrace& trace);
  [[nodiscard]] double self(Layer layer) const {
    return self_ms[static_cast<std::size_t>(layer)];
  }
  /// Share of kCell wall time covered by named layer spans beneath it.
  [[nodiscard]] double coverage() const;
};

/// Traced replica of core::run_app(app, config, nodes, reps, seed) for the
/// registry app `app_name`. Records under one kCell root span.
[[nodiscard]] mkos::core::RunStats traced_run_app(const std::string& app_name,
                                                  const mkos::core::SystemConfig& config,
                                                  int nodes, int reps,
                                                  std::uint64_t seed,
                                                  CellTrace& trace);

/// The store half of the replica: CellStore::save / load keyed exactly as
/// the campaign keys them (core::cell_cache_key + CellKey). With a null
/// store the span measures the bypass and nothing is saved or loaded.
bool traced_store_save(mkos::core::CellStore* store, const std::string& app_name,
                       const mkos::core::SystemConfig& config, int nodes, int reps,
                       std::uint64_t seed, const mkos::core::RunStats& stats,
                       CellTrace& trace);
[[nodiscard]] std::optional<mkos::core::RunStats> traced_store_load(
    mkos::core::CellStore* store, const std::string& app_name,
    const mkos::core::SystemConfig& config, int nodes, int reps, std::uint64_t seed,
    CellTrace& trace);

/// Write spans as JSON lines: {"cell","span","parent","name","start_ns","end_ns"}.
bool write_spans_jsonl(const std::vector<CellTrace>& traces, const std::string& path);

}  // namespace perfbench
