#pragma once
// ASCII table / number formatting / strict-JSON emission primitives.
//
// This is the serialization bedrock shared by the run ledger (obs/), the
// campaign glue (core/) and the bench, example and test harnesses. It lives
// in sim/ — the bottom layer — so that obs can emit JSON/CSV without an
// upward include of core, keeping the module include graph acyclic
// (enforced by mkos-lint's layering phase against tools/layering.rules).

#include <cstdint>
#include <string>
#include <vector>

namespace mkos::sim {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& add_row(std::vector<std::string> cells);

  /// Render with aligned columns (first column left-, rest right-aligned).
  [[nodiscard]] std::string to_string() const;

  /// RFC-4180-style CSV (quotes cells containing commas/quotes/newlines).
  [[nodiscard]] std::string to_csv() const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision double ("12.34").
[[nodiscard]] std::string fmt(double v, int precision = 2);
/// Scientific ("1.23e+07").
[[nodiscard]] std::string fmt_sci(double v, int precision = 2);
/// Percentage of 1.0 ("121.0%").
[[nodiscard]] std::string fmt_pct(double ratio, int precision = 1);

/// Section banner used by every bench binary.
void print_banner(const std::string& title, const std::string& paper_ref);

/// RFC 8259 string literal: wraps in quotes, escapes `"` and `\`, and all
/// control characters below 0x20 (`\b \f \n \r \t` shortcuts, `\u00XX`
/// otherwise) so the output always parses under a strict JSON reader.
[[nodiscard]] std::string json_quote(const std::string& s);

/// Shortest round-trip decimal for a double (std::to_chars); non-finite
/// values serialize as `null` — bare `nan`/`inf` are not valid JSON.
[[nodiscard]] std::string json_number(double v);

/// JSON object builder for machine-readable perf artifacts (BENCH_*.json):
/// insertion-ordered key/value pairs; nested objects/arrays attach via raw().
class JsonObject {
 public:
  JsonObject& number(const std::string& key, double v);
  JsonObject& integer(const std::string& key, std::int64_t v);
  JsonObject& text(const std::string& key, const std::string& v);
  JsonObject& boolean(const std::string& key, bool v);
  /// Attach pre-serialized JSON (object/array/literal) under `key`.
  JsonObject& raw(const std::string& key, const std::string& json);

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> fields_;
};

/// Write `content` to `path` (truncating); returns false on I/O failure.
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace mkos::sim
