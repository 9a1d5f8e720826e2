#include "core/cell_store.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <system_error>
#include <utility>

#include "obs/ledger.hpp"
#include "sim/format.hpp"
#include "sim/hash.hpp"
#include "sim/json.hpp"

namespace mkos::core {

namespace {

/// Same FNV-1a 64 the fingerprints use; here over raw payload bytes.
std::uint64_t checksum(const std::string& payload) {
  return sim::fnv1a_bytes(sim::kFnvOffsetBasis, payload);
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

/// The entry's first line, sans newline. Verification re-renders this from
/// the observed payload and compares byte-wise: one comparison checks the
/// magic, the format version, the declared length and the checksum at once.
std::string header_line(std::size_t payload_len, std::uint64_t crc) {
  return "mkos-cell v" + std::to_string(CellStore::kFormatVersion) +
         " len=" + std::to_string(payload_len) + " crc=" + hex16(crc);
}

std::string key_json(const CellKey& id) {
  std::string out = "{\"app\": " + sim::json_quote(id.app);
  out += ", \"config_digest\": " + sim::json_quote(id.config_digest);
  out += ", \"nodes\": " + std::to_string(id.nodes);
  out += ", \"reps\": " + std::to_string(id.reps);
  out += ", \"seed\": " + std::to_string(id.seed);
  out += "}";
  return out;
}

std::string fom_samples_json(const sim::Summary& fom) {
  std::string out = "[";
  bool first = true;
  for (const double v : fom.samples()) {
    if (!first) out += ", ";
    first = false;
    out += sim::json_number(v);
  }
  out += "]";
  return out;
}

/// json_number() emits non-finite doubles as null; read null back as NaN
/// (mirrors the ledger storage codec's convention).
bool read_stored_double(const sim::JsonValue& v, double* out) {
  if (v.is_null()) {
    *out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  const auto d = v.as_double();
  if (!d) return false;
  *out = *d;
  return true;
}

/// Extract and validate the stored key block. False on any missing or
/// mistyped field (the entry is corrupt, not merely foreign).
bool parse_key_block(const sim::JsonValue& doc, CellKey* out) {
  const sim::JsonValue* key_block = doc.find("key");
  if (key_block == nullptr || !key_block->is_object()) return false;
  const sim::JsonValue* app = key_block->find("app");
  const sim::JsonValue* digest = key_block->find("config_digest");
  const sim::JsonValue* nodes = key_block->find("nodes");
  const sim::JsonValue* reps = key_block->find("reps");
  const sim::JsonValue* seed = key_block->find("seed");
  if (app == nullptr || !app->is_string() || digest == nullptr ||
      !digest->is_string() || nodes == nullptr || !nodes->as_i64() ||
      reps == nullptr || !reps->as_i64() || seed == nullptr || !seed->as_u64()) {
    return false;
  }
  out->app = app->as_string();
  out->config_digest = digest->as_string();
  out->nodes = static_cast<int>(*nodes->as_i64());
  out->reps = static_cast<int>(*reps->as_i64());
  out->seed = *seed->as_u64();
  return true;
}

/// The key a `<16 lowercase hex>.cell` entry filename encodes; nullopt for
/// any other name.
std::optional<std::uint64_t> parse_entry_name(const std::string& name) {
  if (name.size() != 16 + 5) return std::nullopt;  // "<16 hex>.cell"
  std::uint64_t key = 0;
  for (int i = 0; i < 16; ++i) {
    const char c = name[static_cast<std::size_t>(i)];
    key <<= 4;
    if (c >= '0' && c <= '9') {
      key |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      key |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return key;
}

/// The one verifier of an entry stored under `key`: header line, checksum,
/// schema id, format and ledger schema versions, fingerprint and key block.
/// Returns the parsed payload with the stored identity in `*stored`, or
/// nullopt when the entry is corrupt. Whether the identity is the one the
/// caller asked for is the caller's check (a mismatch is a collision, not
/// corruption).
std::optional<sim::JsonValue> verify_entry(const std::string& blob, std::uint64_t key,
                                           CellKey* stored) {
  // Header: everything before the first newline must equal the line we
  // would write for the observed payload (zero-length and truncated files
  // fail here; so do bad checksums and foreign format versions).
  const std::size_t eol = blob.find('\n');
  if (eol == std::string::npos) return std::nullopt;
  const std::string payload = blob.substr(eol + 1);
  if (blob.compare(0, eol, header_line(payload.size(), checksum(payload))) != 0) {
    return std::nullopt;
  }

  auto doc = sim::json_parse(payload);
  if (!doc || !doc->is_object()) return std::nullopt;

  const sim::JsonValue* schema = doc->find("schema");
  const sim::JsonValue* schema_version = doc->find("schema_version");
  const sim::JsonValue* ledger_version = doc->find("ledger_schema_version");
  const sim::JsonValue* fingerprint = doc->find("fingerprint");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != CellStore::kSchemaId || schema_version == nullptr ||
      schema_version->as_u64() !=
          std::optional<std::uint64_t>(CellStore::kFormatVersion) ||
      ledger_version == nullptr ||
      ledger_version->as_u64() !=
          std::optional<std::uint64_t>(static_cast<std::uint64_t>(obs::kSchemaVersion)) ||
      fingerprint == nullptr || !fingerprint->is_string() ||
      fingerprint->as_string() != hex16(key)) {
    return std::nullopt;
  }
  if (!parse_key_block(*doc, stored)) return std::nullopt;
  return doc;
}

/// The unit and FoM samples of a verified payload. False when either is
/// missing or mistyped.
bool read_fom(const sim::JsonValue& doc, std::string* unit, std::vector<double>* samples) {
  const sim::JsonValue* unit_value = doc.find("unit");
  const sim::JsonValue* sample_values = doc.find("fom_samples");
  if (unit_value == nullptr || !unit_value->is_string() || sample_values == nullptr ||
      !sample_values->is_array()) {
    return false;
  }
  *unit = unit_value->as_string();
  for (const sim::JsonValue& sample : sample_values->items()) {
    double v = 0.0;
    if (!read_stored_double(sample, &v)) return false;
    samples->push_back(v);
  }
  return true;
}

/// Claim-file body (sans newline); see the protocol note in the header.
std::string claim_line(std::uint64_t gen, long long pid) {
  return "mkos-claim v1 gen=" + std::to_string(gen) +
         " pid=" + std::to_string(pid);
}

/// Parse a claim file's single line. False when the file is not a
/// well-formed v1 claim (treated as reclaimable — an empty or torn claim
/// must not wedge the cell forever).
bool parse_claim(const std::string& blob, std::uint64_t* gen, long long* pid) {
  unsigned long long g = 0;
  long long p = 0;
  if (std::sscanf(blob.c_str(), "mkos-claim v1 gen=%llu pid=%lld", &g, &p) != 2) {
    return false;
  }
  *gen = g;
  *pid = p;
  return true;
}

/// Is the claiming process still alive? kill(pid, 0) probes without
/// signaling; EPERM means "alive but not ours", which still counts.
bool pid_alive(long long pid) {
  if (pid <= 0) return false;
  if (pid == static_cast<long long>(::getpid())) return true;
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

/// Move a corrupt entry aside for post-mortem; if even that fails, delete
/// it so the next save can replace it. Best-effort by design.
void quarantine(const std::string& path) {
  const std::string aside = path + ".quarantined";
  if (std::rename(path.c_str(), aside.c_str()) != 0) (void)std::remove(path.c_str());
}

bool read_file(const std::string& path, std::string* out, bool* existed) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    *existed = false;
    return false;
  }
  *existed = true;
  std::string blob((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) return false;
  *out = std::move(blob);
  return true;
}

}  // namespace

CellStore::CellStore(std::string root) : root_(std::move(root)) {
  std::error_code ec;
  std::filesystem::create_directories(root_, ec);
  // create_directories reports false+no-error for an already-existing dir;
  // ready means "the path exists and is a directory now".
  ready_ = !ec && std::filesystem::is_directory(root_, ec) && !ec;
}

std::unique_ptr<CellStore> CellStore::from_env() {
  const char* root = std::getenv(kEnvVar);
  if (root == nullptr || root[0] == '\0') return nullptr;
  auto store = std::make_unique<CellStore>(std::string(root));
  if (!store->ready()) {
    std::fprintf(stderr, "warning: %s=%s is not a usable directory; cell store disabled\n",
                 kEnvVar, root);
    return nullptr;
  }
  return store;
}

std::string CellStore::entry_path(std::uint64_t key) const {
  return root_ + "/" + hex16(key) + ".cell";
}

CellStore::ReadOutcome CellStore::read_entry(std::uint64_t key, const CellKey& id,
                                             RunStats* out) {
  const auto finish = [this](ReadOutcome outcome, std::uint64_t bytes) {
    const sim::MutexLock lock(mu_);
    switch (outcome) {
      case ReadOutcome::kHit:
        ++counters_.hits;
        counters_.bytes_read += bytes;
        break;
      case ReadOutcome::kMiss:
        ++counters_.misses;
        break;
      case ReadOutcome::kCorrupt:
        ++counters_.misses;
        ++counters_.corrupt;
        break;
      case ReadOutcome::kKeyMismatch:
        ++counters_.misses;
        ++counters_.key_mismatches;
        break;
    }
    return outcome;
  };
  if (!ready_) return finish(ReadOutcome::kMiss, 0);

  const std::string path = entry_path(key);
  std::string blob;
  bool existed = false;
  if (!read_file(path, &blob, &existed)) {
    if (!existed) return finish(ReadOutcome::kMiss, 0);
    quarantine(path);
    return finish(ReadOutcome::kCorrupt, 0);
  }
  const auto corrupt = [&] {
    quarantine(path);
    return finish(ReadOutcome::kCorrupt, 0);
  };

  CellKey stored;
  const auto doc = verify_entry(blob, key, &stored);
  if (!doc) return corrupt();
  // Collision check: the stored key must match the requested cell on every
  // field, not just on the 64-bit hash the filename encodes.
  if (!(stored == id)) return finish(ReadOutcome::kKeyMismatch, 0);

  if (out != nullptr) {
    RunStats stats;
    std::vector<double> samples;
    const sim::JsonValue* ledger = doc->find("ledger");
    if (!read_fom(*doc, &stats.unit, &samples) || ledger == nullptr) return corrupt();
    for (const double v : samples) stats.fom.add(v);
    std::string restore_error;
    if (!stats.ledger.restore_storage_json(*ledger, &restore_error)) return corrupt();
    *out = std::move(stats);
  }
  return finish(ReadOutcome::kHit, blob.size());
}

std::optional<RunStats> CellStore::load(std::uint64_t key, const CellKey& id) {
  RunStats stats;
  if (read_entry(key, id, &stats) != ReadOutcome::kHit) return std::nullopt;
  return stats;
}

bool CellStore::contains(std::uint64_t key, const CellKey& id) {
  return read_entry(key, id, nullptr) == ReadOutcome::kHit;
}

bool CellStore::save(std::uint64_t key, const CellKey& id, const RunStats& stats) {
  if (!ready_) return false;

  sim::JsonObject doc;
  doc.text("schema", kSchemaId);
  doc.integer("schema_version", kFormatVersion);
  doc.integer("ledger_schema_version", obs::kSchemaVersion);
  doc.text("fingerprint", hex16(key));
  doc.raw("key", key_json(id));
  doc.text("unit", stats.unit);
  doc.raw("fom_samples", fom_samples_json(stats.fom));
  doc.raw("ledger", stats.ledger.to_storage_json());
  const std::string payload = doc.to_string();
  const std::string blob = header_line(payload.size(), checksum(payload)) + "\n" + payload;

  // Atomic publish: write a uniquely named sibling, fsync, rename into
  // place. Concurrent writers of the same key race benignly (identical
  // content by the determinism contract; rename is atomic either way) —
  // the pid distinguishes processes and the sequence number distinguishes
  // threads within one process (two in-process shards sharing a store
  // directory must not truncate each other's temp file mid-write).
  static std::atomic<std::uint64_t> tmp_seq{0};
  const std::string path = entry_path(key);
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid())) + "." +
      std::to_string(tmp_seq.fetch_add(1, std::memory_order_relaxed));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
  const bool flushed = wrote && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!(wrote && flushed && closed)) {
    (void)std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)std::remove(tmp.c_str());
    return false;
  }
  {
    const sim::MutexLock lock(mu_);
    ++counters_.writes;
    counters_.bytes_written += blob.size();
  }
  return true;
}

bool CellStore::has_entry(std::uint64_t key) const {
  if (!ready_) return false;
  std::error_code ec;
  return std::filesystem::exists(entry_path(key), ec) && !ec;
}

std::string CellStore::claim_path(std::uint64_t key) const {
  return root_ + "/" + hex16(key) + ".claim";
}

CellStore::ClaimOutcome CellStore::try_claim(std::uint64_t key) {
  const auto finish = [this](ClaimOutcome outcome) {
    const sim::MutexLock lock(mu_);
    if (outcome == ClaimOutcome::kAcquired) {
      ++counters_.claims;
    } else {
      ++counters_.claim_races;
    }
    return outcome;
  };
  if (!ready_) return finish(ClaimOutcome::kBusy);

  const std::string path = claim_path(key);
  const long long self = static_cast<long long>(::getpid());
  // Fast path: atomic O_EXCL create wins or loses the race outright.
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd >= 0) {
    const std::string line = claim_line(/*gen=*/1, self) + "\n";
    const bool wrote =
        ::write(fd, line.data(), line.size()) == static_cast<ssize_t>(line.size());
    (void)::close(fd);
    // A failed body write leaves an empty claim; it parses as stale and a
    // sibling reclaims it, so we must not pretend to hold it.
    return finish(wrote ? ClaimOutcome::kAcquired : ClaimOutcome::kBusy);
  }
  if (errno != EEXIST) return finish(ClaimOutcome::kBusy);

  // Slow path: somebody holds (or held) the claim. A live owner wins; a
  // dead or unparseable one is reclaimed with a bumped generation.
  std::string blob;
  bool existed = false;
  if (!read_file(path, &blob, &existed)) {
    // Vanished between open and read: the owner released. Don't retry in a
    // loop — the caller treats busy as "skip this cell", duplicates of the
    // unclaimed-cell scan are cheap.
    return finish(ClaimOutcome::kBusy);
  }
  std::uint64_t gen = 0;
  long long owner = 0;
  if (parse_claim(blob, &gen, &owner) && pid_alive(owner)) {
    return finish(ClaimOutcome::kBusy);
  }
  // Reclaim: write the successor claim aside and atomically rename it over
  // the stale one. Two racing reclaimers both "win" benignly — the cell
  // computes twice, entry publication is last-writer-wins.
  const std::string tmp = path + ".tmp." + std::to_string(self);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return finish(ClaimOutcome::kBusy);
  const std::string line = claim_line(gen + 1, self) + "\n";
  const bool wrote = std::fwrite(line.data(), 1, line.size(), f) == line.size();
  const bool closed = std::fclose(f) == 0;
  if (!(wrote && closed) || std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)std::remove(tmp.c_str());
    return finish(ClaimOutcome::kBusy);
  }
  return finish(ClaimOutcome::kAcquired);
}

void CellStore::release_claim(std::uint64_t key) const {
  (void)std::remove(claim_path(key).c_str());
}

std::vector<CellIndexEntry> CellStore::scan_index(std::uint64_t* corrupt) const {
  std::vector<CellIndexEntry> index;
  if (corrupt != nullptr) *corrupt = 0;
  if (!ready_) return index;

  std::vector<std::string> names;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(root_, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::filesystem::path& p = it->path();
    if (p.extension() == ".cell") names.push_back(p.filename().string());
  }
  std::sort(names.begin(), names.end());

  for (const std::string& name : names) {
    const std::optional<std::uint64_t> key = parse_entry_name(name);
    std::string blob;
    bool existed = false;
    CellIndexEntry entry;
    std::optional<sim::JsonValue> doc;
    if (key && read_file(root_ + "/" + name, &blob, &existed)) {
      doc = verify_entry(blob, *key, &entry.id);
    }
    if (!doc || !read_fom(*doc, &entry.unit, &entry.fom_samples)) {
      if (corrupt != nullptr) ++*corrupt;
      continue;
    }
    entry.key = *key;
    entry.bytes = blob.size();
    index.push_back(std::move(entry));
  }
  return index;
}

CellStoreCounters CellStore::counters() const {
  const sim::MutexLock lock(mu_);
  return counters_;
}

}  // namespace mkos::core
