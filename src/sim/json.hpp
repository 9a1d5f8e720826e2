#pragma once
// Strict RFC 8259 JSON parsing into an order-preserving DOM.
//
// Counterpart of the emission side in sim/format.hpp (json_quote /
// json_number / JsonObject). Production code historically only *emitted*
// JSON; the campaign cell store (core/cell_store.*) reads its own artifacts
// back, so parsing now lives here in sim/ — the bottom layer — next to the
// emitter whose output it must round-trip.
//
// Fidelity rules the cell store depends on:
//  - Object members keep document order (vector of pairs, no hashing), so a
//    reconstructed RunLedger serializes its sections byte-identically.
//  - Numbers keep their raw token. `as_u64` parses integers without a
//    double round-trip (counters above 2^53 survive), while `as_double` on
//    a token emitted by json_number() recovers the exact bits (shortest
//    round-trip representation both ways).
//  - The grammar is strict: trailing commas, bare nan/inf, unescaped
//    control characters and trailing junk all fail the parse, so a
//    truncated or bit-flipped store entry reads as corrupt, never as data.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mkos::sim {

class JsonValue {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Decoded bytes of a string value (empty for other kinds).
  [[nodiscard]] const std::string& as_string() const { return scalar_; }

  /// Numeric views of a number token. Non-number kinds and out-of-range
  /// tokens return nullopt; `as_double` accepts any grammar-valid token.
  [[nodiscard]] std::optional<double> as_double() const;
  [[nodiscard]] std::optional<std::uint64_t> as_u64() const;
  [[nodiscard]] std::optional<std::int64_t> as_i64() const;

  [[nodiscard]] const std::vector<JsonValue>& items() const { return array_; }
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return object_;
  }
  /// First member with this key (documents the store emits never repeat
  /// keys); nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string scalar_;  ///< decoded string bytes, or the raw number token
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parse exactly one JSON document (leading/trailing whitespace allowed,
/// anything else after the value is an error). On failure returns nullopt
/// and, when `error` is non-null, a one-line reason with byte offset.
[[nodiscard]] std::optional<JsonValue> json_parse(const std::string& text,
                                                  std::string* error = nullptr);

}  // namespace mkos::sim
