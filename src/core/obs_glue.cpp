#include "core/obs_glue.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "sim/contracts.hpp"
#include "sim/format.hpp"

namespace mkos::core {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

obs::RunLedger bench_ledger(const std::string& bench_id, const std::string& paper_ref,
                            std::uint64_t seed) {
  obs::RunLedger ledger;
  ledger.set_meta("bench", bench_id);
  ledger.set_meta("paper_ref", paper_ref);
  ledger.set_meta("seed", std::to_string(seed));
  return ledger;
}

void record_config(obs::RunLedger& ledger, const SystemConfig& config,
                   const std::string& key) {
  const std::string name = key.empty() ? config.label() : key;
  ledger.set_meta("config." + name, hex64(config.fingerprint()));
}

void record_scaling(obs::RunLedger& ledger, const std::string& series,
                    const std::vector<ScalingPoint>& points) {
  for (const ScalingPoint& p : points) {
    const std::string base = series + ".n" + std::to_string(p.nodes);
    ledger.set_gauge(base + ".median", p.median);
    ledger.set_gauge(base + ".min", p.min);
    ledger.set_gauge(base + ".max", p.max);
  }
}

void record_run_stats(obs::RunLedger& ledger, const std::string& series,
                      const RunStats& stats) {
  for (const double s : stats.fom.samples()) ledger.observe(series, s);
  if (!stats.unit.empty()) ledger.set_meta(series + ".unit", stats.unit);
  ledger.merge(stats.ledger);
}

void record_campaign(obs::RunLedger& ledger, const CampaignTelemetry& telemetry,
                     int threads, const CellStore* store) {
  // Cells and cache hits are functions of the grid alone (positional seeds,
  // deterministic in-run dedup), so they belong to the deterministic block.
  ledger.incr("campaign.cells", telemetry.cells);
  ledger.incr("campaign.cache_hits", telemetry.cache_hits);
  // The store group reflects on-disk state from previous runs: comparators
  // strip `campaign.store.*` alongside the host block. Emitted only when a
  // store is attached so store-less ledgers keep their exact legacy bytes.
  if (store != nullptr) {
    const CellStoreCounters c = store->counters();
    ledger.incr("campaign.store.hits", c.hits);
    ledger.incr("campaign.store.misses", c.misses);
    ledger.incr("campaign.store.writes", c.writes);
    ledger.incr("campaign.store.corrupt", c.corrupt);
    ledger.incr("campaign.store.key_mismatches", c.key_mismatches);
    ledger.incr("campaign.store.bytes_read", c.bytes_read);
    ledger.incr("campaign.store.bytes_written", c.bytes_written);
  }
  // Steal and claim traffic depends on thread timing and on what sibling
  // shards did: host block only, like wall time and throughput, which vary
  // run to run.
  ledger.set_host("campaign.sched.steals", std::to_string(telemetry.sched_steals));
  ledger.set_host("campaign.sched.steal_fails",
                  std::to_string(telemetry.sched_steal_fails));
  ledger.set_host("campaign.sched.local_pops",
                  std::to_string(telemetry.sched_local_pops));
  ledger.set_host("campaign.sched.claims", std::to_string(telemetry.sched_claims));
  ledger.set_host("campaign.sched.claim_races",
                  std::to_string(telemetry.sched_claim_races));
  ledger.set_host("campaign.sched.imbalance",
                  sim::json_number(telemetry.sched_imbalance));
  ledger.set_host("threads", std::to_string(threads));
  ledger.set_host("wall_seconds", sim::json_number(telemetry.wall_seconds));
  ledger.set_host("cells_per_second", sim::json_number(telemetry.cells_per_second()));
  ledger.set_host("cell_wall_ms", obs::histogram_json(telemetry.cell_wall_ms));
}

bool emit(const obs::RunLedger& ledger) {
  const std::string* id = ledger.meta("bench");
  MKOS_EXPECTS(id != nullptr);  // stamp identity with bench_ledger() first
  std::string path = "BENCH_" + *id + ".json";
  // MKOS_BENCH_DIR redirects artifacts out of the CWD (CI runs benches from
  // build/; ad-hoc runs should not litter the repo root). Best-effort
  // directory creation; an unusable dir surfaces as the write warning.
  const char* dir = std::getenv("MKOS_BENCH_DIR");
  if (dir != nullptr && dir[0] != '\0') {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    path = std::string(dir) + "/" + path;
  }
  if (!ledger.write_json(path)) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace mkos::core
