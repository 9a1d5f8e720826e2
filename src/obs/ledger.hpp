#pragma once
// Structured run ledger — the observability spine of the simulator.
//
// Every bench binary and the campaign engine report through a RunLedger:
// named monotonic counters, gauges, sample summaries and log-binned
// histograms, grouped by a `<subsystem>.<metric>` naming convention
// (heap.brk_calls, kernel.ikc_round_trips, runtime.coll_stall_ns, ...).
// A ledger snapshots into a versioned JSON document (schema
// "mkos.run_ledger.v1") or a flat CSV via the hardened sim/format layer.
//
// Determinism contract (DESIGN.md §5.1 / §10): everything outside the
// `host` section is a pure function of (app, config fingerprint, nodes,
// seed, reps). Per-task ledgers are merged in positional order with
// commutative-per-name operations — counters add, summaries append samples
// in merge order, histograms add bin-wise — so a serial run and a pooled
// run produce byte-identical JSON. Host-dependent telemetry (wall time,
// thread counts, throughput) goes in the `host` section only, which
// consumers strip before comparing ledgers.
//
// Sections are stored as insertion-ordered vectors with a name index on
// the side; iteration never touches the unordered index, so serialization
// order is deterministic.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/histogram.hpp"
#include "sim/stats.hpp"
#include "sim/thread_safety.hpp"

namespace mkos::sim {
class JsonValue;
}  // namespace mkos::sim

namespace mkos::obs {

/// Bumped whenever the JSON layout changes shape.
inline constexpr int kSchemaVersion = 1;
inline constexpr const char* kSchemaId = "mkos.run_ledger.v1";

/// Serialize one summary / histogram as a JSON value (shared by the ledger
/// and by callers stashing host-side distributions in the host section).
[[nodiscard]] std::string summary_json(const sim::Summary& s);
[[nodiscard]] std::string histogram_json(const sim::Histogram& h);

// Unsynchronized by design: each campaign cell task builds its own
// ledger; the pool-side merge happens after wait_idle(), in grid order.
class MKOS_THREAD_CONFINED("one campaign cell task, merged post-join") RunLedger {
 public:
  // ------------------------------------------------------------------ meta
  /// Identity strings (bench id, paper figure, config fingerprints, units).
  /// Setting an existing key overwrites in place, keeping its position.
  void set_meta(const std::string& key, const std::string& value);
  [[nodiscard]] const std::string* meta(const std::string& key) const;

  // -------------------------------------------------------------- counters
  /// Monotonic 64-bit counters; merge adds. Missing names read as zero.
  void incr(const std::string& name, std::uint64_t by = 1);
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;

  // ---------------------------------------------------------------- gauges
  /// Point-in-time values; merge overwrites ours with the other ledger's
  /// (positional merge order makes "last writer" deterministic).
  void set_gauge(const std::string& name, double value);
  [[nodiscard]] double gauge(const std::string& name) const;

  // ------------------------------------------------------------- summaries
  /// Sample accumulators; merge appends the other's samples in order.
  void observe(const std::string& name, double sample);
  [[nodiscard]] const sim::Summary* summary(const std::string& name) const;

  // ------------------------------------------------------------ histograms
  /// Creates the histogram on first use with the given shape; later calls
  /// with the same name return the existing one (shape arguments ignored).
  sim::Histogram& hist(const std::string& name, double min_value, double max_value,
                       int bins_per_decade = 8);
  [[nodiscard]] const sim::Histogram* histogram(const std::string& name) const;

  // ------------------------------------------------------------------ host
  /// Host-dependent telemetry (wall time, threads, throughput), excluded
  /// from the determinism contract. `json_value` is a pre-serialized JSON
  /// value (use sim::json_number / sim::json_quote / *_json helpers).
  void set_host(const std::string& key, const std::string& json_value);

  /// Positional merge of a per-task ledger: counters add, gauges overwrite,
  /// summaries append, histograms merge bin-wise (adopting the other's
  /// shape when the name is new), meta/host adopt only missing keys.
  void merge(const RunLedger& other);

  /// Full schema-versioned JSON document (trailing newline included).
  [[nodiscard]] std::string to_json() const;

  /// Serialize to a stream / file, reporting success. A full disk, a closed
  /// pipe or an unwritable path returns false instead of silently producing
  /// a truncated document (callers decide whether that is fatal).
  ///
  /// The path overload is atomic: the document is written to `path + ".tmp"`
  /// and renamed over `path` only once complete, so an interrupted bench
  /// leaves either the previous document intact or the new one whole —
  /// never a truncated file that schema checkers read as malformed.
  bool write_json(std::ostream& os) const;
  bool write_json(const std::string& path) const;

  /// Full-fidelity serialization for the campaign cell store. Unlike
  /// to_json() — a reporting document that aggregates summaries and drops
  /// empty histogram bins — this round-trips the ledger exactly: summaries
  /// keep their raw samples in insertion order, histograms their
  /// constructed shape and raw bin/tail counts, host values their
  /// pre-serialized bytes. restore_storage_json(parse(to_storage_json()))
  /// reproduces a ledger whose to_json() is byte-identical to the source's.
  [[nodiscard]] std::string to_storage_json() const;

  /// Rebuild this ledger from a parsed storage document, replacing any
  /// current contents. Returns false on any shape violation (wrong types,
  /// out-of-range bins, non-integer counters) with a one-line reason in
  /// `*error` (when non-null); the ledger is left empty in that case —
  /// a corrupt store entry must never half-populate a cell.
  bool restore_storage_json(const sim::JsonValue& doc, std::string* error);

  /// Flat CSV (section,name,value) of the deterministic scalar sections.
  [[nodiscard]] std::string to_csv() const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    T value;
  };
  /// Insertion-ordered name/value storage. The unordered index is only
  /// probed by name, never iterated.
  template <typename T>
  struct Section {
    std::vector<Entry<T>> entries;
    std::unordered_map<std::string, std::size_t> index;

    T& at(const std::string& name, T initial) {
      const auto it = index.find(name);
      if (it != index.end()) return entries[it->second].value;
      index.emplace(name, entries.size());
      entries.push_back(Entry<T>{name, std::move(initial)});
      return entries.back().value;
    }
    [[nodiscard]] const T* find(const std::string& name) const {
      const auto it = index.find(name);
      return it == index.end() ? nullptr : &entries[it->second].value;
    }
  };

  Section<std::string> meta_;
  Section<std::uint64_t> counters_;
  Section<double> gauges_;
  Section<sim::Summary> summaries_;
  Section<sim::Histogram> histograms_;
  Section<std::string> host_;
};

}  // namespace mkos::obs
