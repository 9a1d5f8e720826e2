#pragma once
// Persistent content-addressed cell store (ROADMAP 1 groundwork).
//
// A CellStore is the disk tier behind the campaign CellCache: every finished
// (app × config × nodes × reps × seed) cell serializes into one file named by
// its 64-bit cell cache key, so a later process — a re-run bench, an
// interrupted sweep run again, CI's warm-cache job — loads the cell instead
// of resimulating it.
// The determinism contract makes this sound: a cell's deterministic sections
// are a pure function of the key inputs, so a stored cell is bit-equivalent
// to a recomputed one (tests/test_cell_store.cpp proves the round trip).
//
// Entry format (DESIGN.md §15): a single header line
//
//   mkos-cell v1 len=<payload bytes, decimal> crc=<FNV-1a 64, 16 hex>\n
//
// followed by exactly `len` bytes of JSON payload. The payload carries the
// schema id/version, the ledger schema version, the *full* cell key (app
// name, canonical config digest, nodes, reps, seed — not just the 64-bit
// hash), the FoM samples + unit, and the ledger's full-fidelity storage
// document. Writes go to a pid-suffixed temp file renamed into place, so a
// concurrent reader sees the old entry or the whole new one, never a torn
// write.
//
// Failure policy: trust nothing on the read path. A truncated, bit-flipped,
// wrong-version or zero-length entry is detected (length, checksum, strict
// JSON parse, schema check), renamed aside to `<entry>.quarantined` for
// post-mortem, counted, and reported as a miss — the caller recomputes. An
// entry whose 64-bit name matches but whose stored key differs is a hash
// collision: also a miss (counted separately), but *not* quarantined — the
// entry is a valid cell, just somebody else's.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "sim/thread_safety.hpp"

namespace mkos::core {

/// Full identity of a cell — every input the 64-bit cache key hashes,
/// spelled out. Stored beside the hash (in memory and on disk) and compared
/// on every hit, so a fingerprint collision reads as a miss instead of
/// silently serving the wrong cell's statistics.
struct CellKey {
  std::string app;            ///< registry name (pins workload parameters)
  std::string config_digest;  ///< SystemConfig::digest() — all hashed knobs
  int nodes = 0;
  int reps = 0;
  std::uint64_t seed = 0;

  friend bool operator==(const CellKey&, const CellKey&) = default;
};

/// Monotonic store telemetry; snapshot via CellStore::counters(). Reported
/// as the `campaign.store.*` ledger group (host-state-dependent: only
/// emitted when a store is attached).
struct CellStoreCounters {
  std::uint64_t hits = 0;            ///< entries served (load or contains)
  std::uint64_t misses = 0;          ///< absent, corrupt, or mismatched
  std::uint64_t writes = 0;          ///< entries persisted
  std::uint64_t corrupt = 0;         ///< of misses: quarantined entries
  std::uint64_t key_mismatches = 0;  ///< of misses: hash collisions
  std::uint64_t bytes_read = 0;      ///< payload+header bytes of served hits
  std::uint64_t bytes_written = 0;   ///< payload+header bytes persisted
  /// Claim-protocol telemetry (sharded sweeps; see try_claim). Reported as
  /// `campaign.sched.*` in the ledger's host block, not `campaign.store.*`:
  /// claims only happen when the sharded scheduler runs.
  std::uint64_t claims = 0;        ///< claims acquired (fresh or reclaimed)
  std::uint64_t claim_races = 0;   ///< claims lost to a live owner
};

/// One store entry as seen by a read-only index scan (mkos-query): the full
/// cell identity plus the figure-of-merit samples — everything needed to
/// answer best-config queries without rebuilding a ledger.
struct CellIndexEntry {
  std::uint64_t key = 0;  ///< 64-bit name (the filename stem)
  CellKey id;
  std::string unit;
  std::vector<double> fom_samples;
  std::uint64_t bytes = 0;  ///< on-disk entry size
};

/// Disk tier of the campaign cell cache. Thread-safe: the mutex guards only
/// the counters; file operations rely on atomic rename, so concurrent
/// writers of the same key are last-writer-wins with no torn state.
class CellStore {
 public:
  /// Bump when the entry layout changes shape; older entries quarantine and
  /// recompute rather than parse wrongly.
  static constexpr int kFormatVersion = 1;
  static constexpr const char* kSchemaId = "mkos.cell.v1";
  /// Environment variable naming the store directory; unset/empty = no store.
  static constexpr const char* kEnvVar = "MKOS_CELL_STORE";

  /// Opens (creating if needed) the store rooted at `root`. On directory
  /// creation failure the store is not ready(): loads miss, saves fail —
  /// the campaign still runs, just without persistence.
  explicit CellStore(std::string root);

  /// Store named by $MKOS_CELL_STORE, or nullptr when the variable is unset
  /// or empty (the default: no disk tier, byte-identical legacy behavior).
  [[nodiscard]] static std::unique_ptr<CellStore> from_env();

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] const std::string& root() const { return root_; }
  /// `<root>/<16-hex key>.cell`.
  [[nodiscard]] std::string entry_path(std::uint64_t key) const;

  /// Read, verify, and rebuild the cell stored under `key`. Verifies the
  /// header, checksum, schema versions and the full `id` before trusting a
  /// byte of statistics. nullopt = recompute (absent / corrupt / collision).
  [[nodiscard]] std::optional<RunStats> load(std::uint64_t key, const CellKey& id)
      MKOS_EXCLUDES(mu_);

  /// Persist a finished cell (atomic temp + rename). Best-effort: false on
  /// I/O failure, which callers treat as "cache stays cold", never fatal.
  bool save(std::uint64_t key, const CellKey& id, const RunStats& stats)
      MKOS_EXCLUDES(mu_);

  /// Full verification of an entry (header, checksum, schema, key) without
  /// rebuilding its statistics. Counts exactly like load(): a verified
  /// entry is a hit, anything else a miss.
  [[nodiscard]] bool contains(std::uint64_t key, const CellKey& id) MKOS_EXCLUDES(mu_);

  /// Cheap existence probe: does an entry file for `key` exist at all? No
  /// verification, no counters — sharded stealers use it to skip cells a
  /// sibling already published (a corrupt file reads as present; the merge
  /// pass's verified load recomputes it).
  [[nodiscard]] bool has_entry(std::uint64_t key) const;

  // ---- cross-process claim protocol (sharded sweeps, DESIGN.md §16) ----
  //
  // A claim is `<root>/<16-hex key>.claim` holding one line:
  //
  //   mkos-claim v1 gen=<generation> pid=<owner pid>\n
  //
  // Creation is O_EXCL (atomic claim-or-lose). A claim whose owner pid is no
  // longer alive — the shard crashed — is reclaimed by atomically renaming a
  // rewritten claim with a bumped generation over it (the PR 8 temp+rename
  // discipline); the generation records how many owners the claim outlived.
  // Losing a reclaim race, or double-computing a cell because a claim was
  // reclaimed while its owner still lived behind a PID collision, is benign:
  // cell content is deterministic, entry writes are last-writer-wins atomic
  // renames. Unsharded runs never consult claims, so a merge pass always
  // completes regardless of leftover claim files.

  enum class ClaimOutcome : std::uint8_t { kAcquired, kBusy };

  /// Try to claim `key` for this process. kBusy when a live process holds
  /// it (counted as a claim race); dead-owner and unparseable claims are
  /// reclaimed. Callers must release_claim() after publishing the entry.
  [[nodiscard]] ClaimOutcome try_claim(std::uint64_t key) MKOS_EXCLUDES(mu_);

  /// Drop this process's claim on `key` (best-effort unlink).
  void release_claim(std::uint64_t key) const;

  /// `<root>/<16-hex key>.claim`.
  [[nodiscard]] std::string claim_path(std::uint64_t key) const;

  /// Read-only scan of every `.cell` entry under the root, in sorted
  /// filename order. Each file passes the same verification as load()
  /// (header, checksum, schema and ledger versions, fingerprint, key block)
  /// and yields its key block + FoM samples — no ledger reconstruction, so
  /// the scan is cheap enough to run once at query-server startup.
  /// Unverifiable entries are skipped and counted into `*corrupt` (when
  /// non-null), never quarantined: scanning must not mutate the store.
  [[nodiscard]] std::vector<CellIndexEntry> scan_index(
      std::uint64_t* corrupt = nullptr) const;

  [[nodiscard]] CellStoreCounters counters() const MKOS_EXCLUDES(mu_);

 private:
  enum class ReadOutcome : std::uint8_t { kHit, kMiss, kCorrupt, kKeyMismatch };

  /// Shared read path; `out == nullptr` skips statistics reconstruction
  /// (contains()). Updates counters and quarantines corrupt entries.
  ReadOutcome read_entry(std::uint64_t key, const CellKey& id, RunStats* out)
      MKOS_EXCLUDES(mu_);

  std::string root_;
  bool ready_ = false;
  mutable sim::Mutex mu_;
  CellStoreCounters counters_ MKOS_GUARDED_BY(mu_);
};

}  // namespace mkos::core
