#pragma once
// Bench-facing glue between the experiment/campaign layer and the run
// ledger: helpers to stamp bench identity, record sweep results and
// campaign telemetry, and emit the standard BENCH_<id>.json artifact.
//
// Naming: scaling series record as `<series>.n<nodes>.{median,min,max}`
// gauges; campaign telemetry splits into deterministic counters
// (campaign.cells, campaign.cache_hits) and host-only throughput numbers.

#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/config.hpp"
#include "core/experiment.hpp"
#include "obs/ledger.hpp"

namespace mkos::core {

/// Fresh ledger stamped with the bench's identity: meta.bench = `bench_id`,
/// meta.paper_ref, and the campaign seed every figure bench uses.
[[nodiscard]] obs::RunLedger bench_ledger(const std::string& bench_id,
                                          const std::string& paper_ref,
                                          std::uint64_t seed);

/// Record a config's fingerprint as meta `config.<key>` = hex fp; the key
/// defaults to the config's label. Pass an explicit key when a bench runs
/// several variants sharing one label (e.g. mOS with hpc_brk toggled).
void record_config(obs::RunLedger& ledger, const SystemConfig& config,
                   const std::string& key = std::string{});

/// Record a scaling sweep as `<series>.n<nodes>.{median,min,max}` gauges.
void record_scaling(obs::RunLedger& ledger, const std::string& series,
                    const std::vector<ScalingPoint>& points);

/// Record one cell's statistics as a summary named `series`, with the
/// unit in meta `<series>.unit`, and merge the cell's own telemetry.
void record_run_stats(obs::RunLedger& ledger, const std::string& series,
                      const RunStats& stats);

/// Campaign runner telemetry: deterministic cell/cache counters, plus the
/// host-only block (threads, wall seconds, cells/s, per-cell wall-time
/// histogram, and the `campaign.sched.*` steal/claim/imbalance figures —
/// excluded from byte-identity comparisons).
///
/// With a non-null `store`, additionally records the `campaign.store.*`
/// counter group (hits/misses/writes/corrupt/key_mismatches/bytes_*).
/// These depend on what previous runs left on disk, so — like the host
/// block — comparators strip them; they are only emitted when a store is
/// actually attached, keeping store-less ledgers byte-identical to
/// pre-store builds.
void record_campaign(obs::RunLedger& ledger, const CampaignTelemetry& telemetry,
                     int threads, const CellStore* store = nullptr);

/// Write the ledger to BENCH_<bench_id>.json (the id stamped by
/// bench_ledger). Prints the path on success, a warning on failure.
bool emit(const obs::RunLedger& ledger);

}  // namespace mkos::core
