// Unit tests for the persistent cell store (core/cell_store.*): exact
// round-trip fidelity, corruption detection (truncation, bad checksum,
// wrong schema version, zero-length entries, seeded mutations), quarantine
// semantics, hash collisions on disk, the read-only index scan, and reruns
// over a partly filled store.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/cell_store.hpp"
#include "core/obs_glue.hpp"
#include "obs/ledger.hpp"
#include "sim/json.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "sim/work_stealing_pool.hpp"

namespace {

namespace fs = std::filesystem;
using namespace mkos;
using namespace mkos::core;

/// Fresh store directory per test; removed on destruction.
struct StoreDir {
  fs::path dir;
  explicit StoreDir(const char* name)
      : dir(fs::temp_directory_path() / ("mkos_cell_store_" + std::string(name))) {
    fs::remove_all(dir);
  }
  ~StoreDir() { fs::remove_all(dir); }
  [[nodiscard]] std::string path() const { return dir.string(); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// `payload` behind the header a valid writer would give it (length and
/// FNV-1a checksum recomputed), so only checks past the header can reject it.
std::string signed_entry(const std::string& payload) {
  std::uint64_t crc = 0xcbf29ce484222325ULL;
  for (const char ch : payload) {
    crc ^= static_cast<unsigned char>(ch);
    crc *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(crc));
  return "mkos-cell v1 len=" + std::to_string(payload.size()) + " crc=" + hex + "\n" +
         payload;
}

/// A cell with every ledger section populated, including values that
/// stress round-trip fidelity: full-precision doubles, counters, samples.
RunStats make_stats() {
  RunStats stats;
  stats.unit = "Mflops";
  stats.fom.add(123.456789012345678);
  stats.fom.add(0.1 + 0.2);  // not exactly 0.3: must survive bit-for-bit
  stats.fom.add(987.0);
  stats.ledger.set_meta("bench", "cell_store_test");
  stats.ledger.incr("heap.brk_calls", 42);
  stats.ledger.incr("kernel.syscalls_local", 1234567890123ULL);
  stats.ledger.set_gauge("g", 0.30000000000000004);
  stats.ledger.observe("runtime.comm_ns", 1.5e9);
  stats.ledger.observe("runtime.comm_ns", 2.25e9);
  stats.ledger.hist("stall_us", 1.0, 1e6, 4).add(33.0);
  stats.ledger.hist("stall_us", 1.0, 1e6, 4).add(1e9);  // overflow bucket
  stats.ledger.set_host("wall_seconds", "0.5");
  return stats;
}

CellKey make_key() {
  return CellKey{"MiniFE", SystemConfig::mckernel().digest(), 16, 2, 42};
}

constexpr std::uint64_t kKey = 0xABCDEF0123456789ULL;

// ------------------------------------------------------------- round trip

TEST(CellStore, SaveLoadRoundTripsBitIdentically) {
  const StoreDir tmp("roundtrip");
  CellStore store(tmp.path());
  ASSERT_TRUE(store.ready());
  const RunStats original = make_stats();
  ASSERT_TRUE(store.save(kKey, make_key(), original));

  const auto loaded = store.load(kKey, make_key());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->unit, original.unit);
  EXPECT_EQ(loaded->fom.samples(), original.fom.samples());
  // The reporting document — every section, every digit — must match.
  EXPECT_EQ(loaded->ledger.to_json(), original.ledger.to_json());

  const CellStoreCounters c = store.counters();
  EXPECT_EQ(c.writes, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 0u);
  EXPECT_EQ(c.corrupt, 0u);
  EXPECT_GT(c.bytes_written, 0u);
  EXPECT_EQ(c.bytes_read, c.bytes_written);
}

TEST(CellStore, ColdComputeEqualsWarmLoadThroughTheCampaign) {
  const StoreDir tmp("campaign");
  CampaignSpec spec;
  spec.apps = {"MiniFE"};
  spec.configs = {SystemConfig::linux_default(), SystemConfig::mckernel()};
  spec.nodes = {16};
  spec.reps = 2;
  spec.seed = 7;

  // Cold: simulate and persist.
  sim::WorkStealingPool pool(2);
  CellStore cold_store(tmp.path());
  CellCache cold_cache(&cold_store);
  Campaign cold(pool, cold_cache);
  const auto computed = cold.run(spec);
  ASSERT_EQ(computed.size(), 2u);
  EXPECT_EQ(cold_store.counters().writes, 2u);

  // Warm: a fresh cache + store over the same directory must serve every
  // cell from disk, bit-identical to the computed results. Each disk load
  // is one pool task.
  CellStore warm_store(tmp.path());
  CellCache warm_cache(&warm_store);
  Campaign warm(pool, warm_cache);
  pool.wait_idle();
  const std::uint64_t tasks_before_warm = pool.completed();
  const auto loaded = warm.run(spec);
  pool.wait_idle();
  EXPECT_EQ(pool.completed() - tasks_before_warm, 2u);
  ASSERT_EQ(loaded.size(), computed.size());
  for (std::size_t i = 0; i < computed.size(); ++i) {
    EXPECT_TRUE(loaded[i].from_cache);
    EXPECT_EQ(loaded[i].stats.fom.samples(), computed[i].stats.fom.samples());
    EXPECT_EQ(loaded[i].stats.unit, computed[i].stats.unit);
    EXPECT_EQ(loaded[i].stats.ledger.to_json(), computed[i].stats.ledger.to_json());
  }
  EXPECT_EQ(warm_store.counters().hits, 2u);
  EXPECT_EQ(warm_store.counters().misses, 0u);
  // Store hits are host-state telemetry, not deterministic cache hits.
  EXPECT_EQ(warm.telemetry().store_hits, 2u);
  EXPECT_EQ(warm.telemetry().cache_hits, 0u);

  // A third pass is served by the memory tier the loads filled: inline,
  // before the fan-out, so no pool task runs and the disk is not read.
  const std::uint64_t tasks_before_memory = pool.completed();
  const auto remembered = warm.run(spec);
  pool.wait_idle();
  EXPECT_EQ(pool.completed() - tasks_before_memory, 0u);
  EXPECT_EQ(warm.telemetry().cache_hits, 2u);
  EXPECT_EQ(warm.telemetry().store_hits, 2u);
  EXPECT_EQ(warm_store.counters().hits, 2u);
  ASSERT_EQ(remembered.size(), computed.size());
  for (std::size_t i = 0; i < computed.size(); ++i) {
    EXPECT_TRUE(remembered[i].from_cache);
    EXPECT_EQ(remembered[i].stats.ledger.to_json(), computed[i].stats.ledger.to_json());
  }
}

// ------------------------------------------------------------- corruption

TEST(CellStore, TruncatedEntryIsQuarantinedAndRecomputed) {
  const StoreDir tmp("truncated");
  CellStore store(tmp.path());
  ASSERT_TRUE(store.save(kKey, make_key(), make_stats()));
  const std::string path = store.entry_path(kKey);
  const std::string whole = read_file(path);
  write_file(path, whole.substr(0, whole.size() / 2));

  EXPECT_FALSE(store.load(kKey, make_key()).has_value());
  EXPECT_EQ(store.counters().corrupt, 1u);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(path + ".quarantined"));

  // Recompute path: a fresh save replaces the entry and serves again.
  ASSERT_TRUE(store.save(kKey, make_key(), make_stats()));
  EXPECT_TRUE(store.load(kKey, make_key()).has_value());
}

TEST(CellStore, BitFlippedPayloadFailsTheChecksum) {
  const StoreDir tmp("bitflip");
  CellStore store(tmp.path());
  ASSERT_TRUE(store.save(kKey, make_key(), make_stats()));
  const std::string path = store.entry_path(kKey);
  std::string whole = read_file(path);
  whole[whole.size() - 3] ^= 0x20;  // flip one payload bit, length intact
  write_file(path, whole);

  EXPECT_FALSE(store.load(kKey, make_key()).has_value());
  EXPECT_EQ(store.counters().corrupt, 1u);
  EXPECT_TRUE(fs::exists(path + ".quarantined"));
}

TEST(CellStore, WrongSchemaVersionIsRejected) {
  const StoreDir tmp("schema");
  CellStore store(tmp.path());
  ASSERT_TRUE(store.save(kKey, make_key(), make_stats()));
  const std::string path = store.entry_path(kKey);

  // Rewrite the entry with a bumped payload schema_version and a *valid*
  // header for the new bytes: only the schema check can catch it.
  const std::string whole = read_file(path);
  const std::size_t eol = whole.find('\n');
  ASSERT_NE(eol, std::string::npos);
  std::string payload = whole.substr(eol + 1);
  const std::string needle = "\"schema_version\": 1";
  const std::size_t at = payload.find(needle);
  ASSERT_NE(at, std::string::npos);
  payload.replace(at, needle.size(), "\"schema_version\": 2");
  write_file(path, signed_entry(payload));

  EXPECT_FALSE(store.load(kKey, make_key()).has_value());
  EXPECT_EQ(store.counters().corrupt, 1u);
  EXPECT_TRUE(fs::exists(path + ".quarantined"));
}

TEST(CellStore, ZeroLengthEntryIsCorruptNotACrash) {
  const StoreDir tmp("zerolen");
  CellStore store(tmp.path());
  write_file(store.entry_path(kKey), "");

  EXPECT_FALSE(store.load(kKey, make_key()).has_value());
  EXPECT_EQ(store.counters().corrupt, 1u);
  EXPECT_FALSE(store.contains(kKey, make_key()));
}

TEST(CellStore, ForeignFormatVersionIsCorrupt) {
  const StoreDir tmp("version");
  CellStore store(tmp.path());
  ASSERT_TRUE(store.save(kKey, make_key(), make_stats()));
  const std::string path = store.entry_path(kKey);
  std::string whole = read_file(path);
  whole.replace(whole.find("mkos-cell v1"), 12, "mkos-cell v9");
  write_file(path, whole);
  EXPECT_FALSE(store.load(kKey, make_key()).has_value());
  EXPECT_EQ(store.counters().corrupt, 1u);
}

TEST(CellStore, MutatedEntriesNeverCrashOrServeAnotherCell) {
  // Seeded mutation sweep over the cell-file reader, which pool workers
  // run concurrently: bit flips, truncations and inserted or deleted bytes,
  // in the header and in the payload. Odd mutants keep the stale header,
  // which must reject them; even ones mutate the payload and are re-signed,
  // so sim::json_parse and the ledger storage codec see the hostile bytes.
  // Any input must read as a verified hit or a clean miss.
  const StoreDir tmp("mutation");
  CellStore store(tmp.path());
  ASSERT_TRUE(store.save(kKey, make_key(), make_stats()));
  const std::string path = store.entry_path(kKey);
  const std::string valid = read_file(path);
  const std::size_t eol = valid.find('\n');
  ASSERT_NE(eol, std::string::npos);
  const std::string payload = valid.substr(eol + 1);
  CellKey other = make_key();
  other.app = "HPCG";  // no single-byte edit turns "MiniFE" into "HPCG"

  // One mutation of `bytes` at a position drawn from [lo, hi).
  sim::Rng rng(0x5EEDCE11ULL);
  const auto mutate = [&rng](std::string bytes, std::size_t lo, std::size_t hi) {
    const std::size_t at = lo + rng.uniform_index(hi - lo);
    switch (rng.uniform_index(4)) {
      case 0:  // bit flip
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.uniform_index(8)));
        break;
      case 1:  // truncation
        bytes.resize(at);
        break;
      case 2:  // inserted byte
        bytes.insert(at, 1, static_cast<char>(rng.uniform_index(256)));
        break;
      default:  // deleted byte
        bytes.erase(at, 1);
        break;
    }
    return bytes;
  };
  const auto served = [&store] {
    const CellStoreCounters c = store.counters();
    return c.hits + c.misses;
  };

  constexpr int kMutations = 2000;
  int signed_hits = 0;
  int signed_misses = 0;
  for (int m = 0; m < kMutations; ++m) {
    const bool resign = m % 2 == 0;
    const bool in_header = !resign && rng.uniform_index(2) == 0;
    const std::string mutant =
        resign      ? signed_entry(mutate(payload, 0, payload.size()))
        : in_header ? mutate(valid, 0, eol + 1)
                    : mutate(valid, eol + 1, valid.size());
    write_file(path, mutant);

    // Another cell's key first: a key mismatch leaves the entry in place
    // (anything corrupt is quarantined, as it would be for our own key).
    std::uint64_t before = served();
    std::optional<RunStats> foreign;
    ASSERT_NO_THROW(foreign = store.load(kKey, other)) << "mutation " << m;
    ASSERT_FALSE(foreign.has_value()) << "mutation " << m;
    ASSERT_EQ(served(), before + 1) << "mutation " << m;

    before = served();
    std::optional<RunStats> own;
    ASSERT_NO_THROW(own = store.load(kKey, make_key())) << "mutation " << m;
    ASSERT_EQ(served(), before + 1) << "mutation " << m;
    if (!resign) {
      ASSERT_FALSE(own.has_value()) << "unsigned mutation " << m << " was served";
    } else if (own.has_value()) {
      ++signed_hits;
      std::string rendered;
      ASSERT_NO_THROW(rendered = own->ledger.to_json()) << "mutation " << m;
      ASSERT_FALSE(rendered.empty()) << "mutation " << m;
    } else {
      ++signed_misses;
    }
  }
  // Both outcomes occur among the re-signed mutants, so the parser and the
  // codec really ran on hostile bytes.
  EXPECT_GT(signed_hits, 0);
  EXPECT_GT(signed_misses, 0);
  EXPECT_GT(store.counters().corrupt, 0u);
}

// -------------------------------------------------------------- collisions

TEST(CellStore, OnDiskKeyMismatchIsAMissNotQuarantine) {
  const StoreDir tmp("collision");
  CellStore store(tmp.path());
  ASSERT_TRUE(store.save(kKey, make_key(), make_stats()));

  CellKey other = make_key();
  other.app = "HPCG";  // same 64-bit name, different cell
  EXPECT_FALSE(store.load(kKey, other).has_value());
  const CellStoreCounters c = store.counters();
  EXPECT_EQ(c.key_mismatches, 1u);
  EXPECT_EQ(c.corrupt, 0u);
  // The entry is someone else's valid cell: still there, still served.
  EXPECT_TRUE(fs::exists(store.entry_path(kKey)));
  EXPECT_TRUE(store.load(kKey, make_key()).has_value());
}

// ------------------------------------------------------------- index scan

TEST(CellStore, ScanIndexListsVerifiedEntriesAndCountsTheRest) {
  const StoreDir tmp("scan");
  CellStore store(tmp.path());
  const RunStats stats = make_stats();
  CellKey other = make_key();
  other.nodes = 32;
  constexpr std::uint64_t kOther = 0x0123456789ABCDEFULL;
  constexpr std::uint64_t kTorn = 0x00000000000000FFULL;
  ASSERT_TRUE(store.save(kKey, make_key(), stats));
  ASSERT_TRUE(store.save(kOther, other, stats));
  ASSERT_TRUE(store.save(kTorn, make_key(), stats));
  const std::string torn = read_file(store.entry_path(kTorn));
  write_file(store.entry_path(kTorn), torn.substr(0, torn.size() / 2));
  // A valid blob under a name that encodes no key.
  write_file(tmp.path() + "/zzzzzzzzzzzzzzzz.cell", read_file(store.entry_path(kKey)));

  std::uint64_t corrupt = 0;
  const std::vector<CellIndexEntry> index = store.scan_index(&corrupt);
  ASSERT_EQ(index.size(), 2u);
  EXPECT_EQ(index[0].key, kOther);  // "0123..." sorts before "abcd..."
  EXPECT_EQ(index[0].id, other);
  EXPECT_EQ(index[1].key, kKey);
  EXPECT_EQ(index[1].id, make_key());
  for (const CellIndexEntry& e : index) {
    EXPECT_EQ(e.unit, stats.unit);
    EXPECT_EQ(e.fom_samples, stats.fom.samples());
    EXPECT_EQ(e.bytes, fs::file_size(store.entry_path(e.key)));
  }
  EXPECT_EQ(corrupt, 2u);
  // Scanning never quarantines: the torn entry is still where it was.
  EXPECT_TRUE(fs::exists(store.entry_path(kTorn)));
  for (const auto& f : fs::directory_iterator(tmp.dir)) {
    EXPECT_NE(f.path().extension(), ".quarantined") << f.path();
  }
}

TEST(CellStore, ScanIndexSkipsEntriesLoadWouldQuarantine) {
  const StoreDir tmp("scan_ledger_version");
  CellStore store(tmp.path());
  ASSERT_TRUE(store.save(kKey, make_key(), make_stats()));
  const std::string path = store.entry_path(kKey);

  // A foreign ledger schema version behind a valid header: only the
  // ledger-version check can reject it.
  const std::string whole = read_file(path);
  const std::size_t eol = whole.find('\n');
  ASSERT_NE(eol, std::string::npos);
  std::string payload = whole.substr(eol + 1);
  const std::string needle =
      "\"ledger_schema_version\": " + std::to_string(obs::kSchemaVersion);
  const std::size_t at = payload.find(needle);
  ASSERT_NE(at, std::string::npos);
  payload.replace(at, needle.size(),
                  "\"ledger_schema_version\": " + std::to_string(obs::kSchemaVersion + 1));
  write_file(path, signed_entry(payload));

  std::uint64_t corrupt = 0;
  EXPECT_TRUE(store.scan_index(&corrupt).empty());
  EXPECT_EQ(corrupt, 1u);
  EXPECT_FALSE(store.load(kKey, make_key()).has_value());
  EXPECT_EQ(store.counters().corrupt, 1u);
}

// ------------------------------------------------------------------ rerun

TEST(CellStore, RerunOverAPartlyFilledStoreSimulatesOnlyTheMissingCells) {
  const StoreDir tmp("rerun");
  CampaignSpec spec;
  spec.apps = {"MiniFE"};
  // The Linux column twice: its duplicate follows the first occurrence.
  spec.configs = {SystemConfig::linux_default(), SystemConfig::linux_default(),
                  SystemConfig::mckernel()};
  spec.nodes = {16};
  spec.reps = 1;
  spec.seed = 3;

  sim::WorkStealingPool pool(2);
  CellStore seed_store(tmp.path());
  CellCache seed_cache(&seed_store);
  Campaign seeder(pool, seed_cache);
  // Store only the Linux cell.
  CampaignSpec linux_only = spec;
  linux_only.configs = {SystemConfig::linux_default()};
  const auto seeded = seeder.run(linux_only);
  ASSERT_EQ(seeded.size(), 1u);

  // A plain rerun of the whole grid in a fresh process: the stored cell
  // loads from disk, its duplicate copies it, and only McKernel simulates.
  CellStore store(tmp.path());
  CellCache cache(&store);
  Campaign campaign(pool, cache);
  const auto cells = campaign.run(spec);
  ASSERT_EQ(cells.size(), 3u);
  for (const std::size_t linux_cell : {0u, 1u}) {
    EXPECT_FALSE(cells[linux_cell].skipped);
    EXPECT_TRUE(cells[linux_cell].from_cache);
    EXPECT_EQ(cells[linux_cell].stats.unit, seeded[0].stats.unit);
    EXPECT_EQ(cells[linux_cell].stats.fom.samples(), seeded[0].stats.fom.samples());
    EXPECT_EQ(cells[linux_cell].stats.ledger.to_json(), seeded[0].stats.ledger.to_json());
  }
  EXPECT_FALSE(cells[2].skipped);
  EXPECT_FALSE(cells[2].from_cache);
  EXPECT_GT(cells[2].stats.fom.count(), 0u);
  EXPECT_EQ(store.counters().hits, 1u);
  EXPECT_EQ(store.counters().misses, 1u);
  EXPECT_EQ(store.counters().writes, 1u);
  EXPECT_EQ(campaign.telemetry().store_hits, 1u);
  EXPECT_EQ(campaign.telemetry().cache_hits, 1u);

  // A second rerun over the now-complete store writes nothing.
  CellStore complete(tmp.path());
  CellCache complete_cache(&complete);
  Campaign again(pool, complete_cache);
  const auto reloaded = again.run(spec);
  ASSERT_EQ(reloaded.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_TRUE(reloaded[i].from_cache);
    EXPECT_EQ(reloaded[i].stats.ledger.to_json(), cells[i].stats.ledger.to_json());
  }
  EXPECT_EQ(complete.counters().hits, 2u);
  EXPECT_EQ(complete.counters().misses, 0u);
  EXPECT_EQ(complete.counters().writes, 0u);
}

// ------------------------------------------------------------------ claims

TEST(CellStore, ClaimLifecycle) {
  const StoreDir tmp("claims");
  CellStore store(tmp.path());
  ASSERT_EQ(store.try_claim(kKey), CellStore::ClaimOutcome::kAcquired);
  EXPECT_TRUE(fs::exists(store.claim_path(kKey)));
  // The holder is this process and alive: a second attempt loses the race.
  EXPECT_EQ(store.try_claim(kKey), CellStore::ClaimOutcome::kBusy);
  EXPECT_EQ(store.counters().claims, 1u);
  EXPECT_EQ(store.counters().claim_races, 1u);

  store.release_claim(kKey);
  EXPECT_FALSE(fs::exists(store.claim_path(kKey)));
  EXPECT_EQ(store.try_claim(kKey), CellStore::ClaimOutcome::kAcquired);
  EXPECT_EQ(store.counters().claims, 2u);
  store.release_claim(kKey);
}

TEST(CellStore, StaleClaimFromADeadProcessIsReclaimed) {
  const StoreDir tmp("stale_claim");
  CellStore store(tmp.path());

  // A real pid that is guaranteed dead: fork a child that exits at once,
  // reap it, then write its pid into a claim — the orphan a crashed shard
  // would leave behind.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  write_file(store.claim_path(kKey),
             "mkos-claim v1 gen=3 pid=" + std::to_string(child) + "\n");

  EXPECT_EQ(store.try_claim(kKey), CellStore::ClaimOutcome::kAcquired);
  EXPECT_EQ(store.counters().claims, 1u);
  EXPECT_EQ(store.counters().claim_races, 0u);
  // The reclaimed claim names the new owner and records the succession.
  const std::string reclaimed = read_file(store.claim_path(kKey));
  EXPECT_NE(reclaimed.find("gen=4"), std::string::npos) << reclaimed;
  EXPECT_NE(reclaimed.find("pid=" + std::to_string(getpid())),
            std::string::npos)
      << reclaimed;
  store.release_claim(kKey);
}

TEST(CellStore, UnparseableClaimIsReclaimedNotTrusted) {
  const StoreDir tmp("garbage_claim");
  CellStore store(tmp.path());
  write_file(store.claim_path(kKey), "not a claim file\n");
  EXPECT_EQ(store.try_claim(kKey), CellStore::ClaimOutcome::kAcquired);
  store.release_claim(kKey);
}

TEST(CellStore, ClaimsDoNotBlockUnshardedRuns) {
  // Leftover claim files — a crashed shard's droppings — must never stall a
  // merge pass: unsharded runs ignore claims entirely.
  const StoreDir tmp("claims_merge");
  CampaignSpec spec;
  spec.apps = {"MiniFE"};
  spec.configs = {SystemConfig::mckernel()};
  spec.nodes = {16};
  spec.reps = 1;
  spec.seed = 13;

  CellStore store(tmp.path());
  const std::uint64_t key = cell_cache_key(
      "MiniFE", SystemConfig::mckernel(), 16, spec.reps, spec.seed);
  ASSERT_EQ(store.try_claim(key), CellStore::ClaimOutcome::kAcquired);

  sim::WorkStealingPool pool(2);
  CellCache cache(&store);
  Campaign campaign(pool, cache);
  const auto cells = campaign.run(spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_FALSE(cells[0].skipped);
  EXPECT_GT(cells[0].stats.fom.count(), 0u);
  EXPECT_EQ(store.counters().writes, 1u);
}

// ------------------------------------------------------- cross-process races

TEST(CellStore, ConcurrentWritersOfOneCellLastWriterWinsNoTornFile) {
  // Two shards racing to publish the same fingerprint (a reclaimed claim
  // whose original owner still lived, say) must end with ONE valid entry:
  // entry writes are temp+rename, so a reader may see either version or a
  // miss-before-first-write — never a torn file, never quarantine.
  const StoreDir tmp("write_race");
  CellStore a(tmp.path());
  CellStore b(tmp.path());

  RunStats stats_a = make_stats();
  RunStats stats_b = make_stats();
  stats_b.fom.add(555.0);  // distinguishable payloads

  constexpr int kRounds = 50;
  std::thread ta([&] {
    for (int i = 0; i < kRounds; ++i) EXPECT_TRUE(a.save(kKey, make_key(), stats_a));
  });
  std::thread tb([&] {
    for (int i = 0; i < kRounds; ++i) EXPECT_TRUE(b.save(kKey, make_key(), stats_b));
  });
  CellStore reader(tmp.path());
  std::uint64_t observed = 0;
  while (ta.joinable() || tb.joinable()) {
    if (const auto got = reader.load(kKey, make_key())) {
      ++observed;
      const std::size_t n = got->fom.samples().size();
      EXPECT_TRUE(n == stats_a.fom.samples().size() ||
                  n == stats_b.fom.samples().size());
    }
    if (ta.joinable() && observed > 4) ta.join();
    if (tb.joinable() && observed > 8) tb.join();
  }

  EXPECT_EQ(reader.counters().corrupt, 0u);
  EXPECT_EQ(a.counters().corrupt, 0u);
  EXPECT_EQ(b.counters().corrupt, 0u);
  const auto final_read = reader.load(kKey, make_key());
  ASSERT_TRUE(final_read.has_value());
  const std::size_t n = final_read->fom.samples().size();
  EXPECT_TRUE(n == stats_a.fom.samples().size() ||
              n == stats_b.fom.samples().size());
}

TEST(CellStore, ShardedRunsMergeByteIdenticalToDirectSimulation) {
  const StoreDir tmp("sharded_merge");
  CampaignSpec spec;
  spec.apps = {"MiniFE", "HPCG"};
  spec.configs = {SystemConfig::linux_default(), SystemConfig::mos()};
  spec.nodes = {16, 32};
  spec.reps = 2;
  spec.seed = 17;

  // Reference: direct unsharded simulation, no store.
  sim::WorkStealingPool pool(2);
  CellCache direct_cache;
  Campaign direct(pool, direct_cache);
  const auto reference = direct.run(spec);
  ASSERT_EQ(reference.size(), 8u);

  // Two shards fill one store. Run sequentially: shard 1 then finds shard
  // 0's cells already published and steals nothing — the claim/skip logic
  // still runs in full.
  for (int shard = 0; shard < 2; ++shard) {
    CellStore store(tmp.path());
    CellCache cache(&store);
    Campaign campaign(pool, cache);
    CampaignSpec sliced = spec;
    sliced.shard = ShardSpec{shard, 2};
    (void)campaign.run(sliced);
  }

  // Merge: unsharded over the warm store — all disk hits, zero writes,
  // ledgers byte-identical to direct simulation.
  CellStore merge_store(tmp.path());
  CellCache merge_cache(&merge_store);
  Campaign merge(pool, merge_cache);
  const auto merged = merge.run(spec);
  ASSERT_EQ(merged.size(), reference.size());
  EXPECT_EQ(merge_store.counters().writes, 0u);
  EXPECT_EQ(merge_store.counters().misses, 0u);
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_FALSE(merged[i].skipped);
    EXPECT_EQ(merged[i].app, reference[i].app);
    EXPECT_EQ(merged[i].nodes, reference[i].nodes);
    EXPECT_EQ(merged[i].stats.fom.samples(), reference[i].stats.fom.samples());
    EXPECT_EQ(merged[i].stats.ledger.to_json(),
              reference[i].stats.ledger.to_json());
  }
}

TEST(CellStore, ShardStealsUnclaimedForeignCellsThroughTheStore) {
  // A lone shard over a shared store finishes its slice, then steals the
  // unclaimed foreign cells instead of idling: the full grid lands on disk
  // from a single sharded process.
  const StoreDir tmp("steal_all");
  CampaignSpec spec;
  spec.apps = {"MiniFE"};
  spec.configs = {SystemConfig::linux_default(), SystemConfig::mckernel()};
  spec.nodes = {16, 32};
  spec.reps = 1;
  spec.seed = 19;

  // The keyspace split is a pure function of the cell keys: count the cells
  // shard 0 will have to steal, and require the grid genuinely exercises
  // both the owned and the stolen path.
  std::uint64_t foreign_count = 0;
  for (const SystemConfig& config : spec.configs) {
    for (const int nodes : spec.nodes) {
      if (cell_cache_key("MiniFE", config, nodes, spec.reps, spec.seed) % 2 != 0) {
        ++foreign_count;
      }
    }
  }
  ASSERT_GT(foreign_count, 0u);
  ASSERT_LT(foreign_count, 4u);

  sim::WorkStealingPool pool(2);
  CellStore store(tmp.path());
  CellCache cache(&store);
  Campaign campaign(pool, cache);
  CampaignSpec sliced = spec;
  sliced.shard = ShardSpec{0, 2};
  const auto cells = campaign.run(sliced);
  ASSERT_EQ(cells.size(), 4u);
  for (const auto& cell : cells) EXPECT_FALSE(cell.skipped);
  EXPECT_EQ(store.counters().writes, 4u);
  const CampaignTelemetry& t = campaign.telemetry();
  EXPECT_EQ(t.stolen_cells, foreign_count);
  EXPECT_EQ(t.foreign_skipped, 0u);
  // Every simulated cell — owned or stolen — was claimed exactly once, and
  // the ledger's host block carries the claims.
  EXPECT_EQ(t.sched_claims, 4u);
  EXPECT_EQ(t.sched_claim_races, 0u);
  obs::RunLedger ledger;
  record_campaign(ledger, t, pool.size(), &store);
  const auto doc = sim::json_parse(ledger.to_json());
  ASSERT_TRUE(doc.has_value());
  const sim::JsonValue* host = doc->find("host");
  ASSERT_NE(host, nullptr);
  const sim::JsonValue* claims = host->find("campaign.sched.claims");
  ASSERT_NE(claims, nullptr);
  EXPECT_EQ(claims->as_u64().value_or(0), 4u);
}

// --------------------------------------------------------------- plumbing

TEST(CellStore, FromEnvHonorsTheVariable) {
  const StoreDir tmp("fromenv");
  ASSERT_EQ(unsetenv(CellStore::kEnvVar), 0);
  EXPECT_EQ(CellStore::from_env(), nullptr);
  ASSERT_EQ(setenv(CellStore::kEnvVar, "", 1), 0);
  EXPECT_EQ(CellStore::from_env(), nullptr);
  ASSERT_EQ(setenv(CellStore::kEnvVar, tmp.path().c_str(), 1), 0);
  const auto store = CellStore::from_env();
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(store->ready());
  EXPECT_EQ(store->root(), tmp.path());
  ASSERT_EQ(unsetenv(CellStore::kEnvVar), 0);
}

TEST(CellStore, UnreadyStoreDegradesToMisses) {
  // A file occupies the root path: the directory cannot be created.
  const StoreDir tmp("unready");
  write_file(tmp.path(), "not a directory");
  CellStore store(tmp.path());
  EXPECT_FALSE(store.ready());
  EXPECT_FALSE(store.save(kKey, make_key(), make_stats()));
  EXPECT_FALSE(store.load(kKey, make_key()).has_value());
}

}  // namespace
