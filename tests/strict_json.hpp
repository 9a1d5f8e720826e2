#pragma once
// Minimal strict RFC 8259 JSON parser for tests: validates a document and
// decodes string literals, rejecting everything the grammar rejects (bare
// nan/inf, trailing commas, unescaped control characters, trailing junk).
// Test-only: an oracle written apart from sim/json, the production parser
// that reads cell-store entries, so the tests check the emitters' output
// against a second reading of the grammar.

#include <cctype>
#include <cstdlib>
#include <string>

namespace mkos::testutil {

class StrictJson {
 public:
  explicit StrictJson(const std::string& text) : p_(text.c_str()), end_(p_ + text.size()) {}

  /// True iff the whole input is exactly one valid JSON document.
  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return p_ == end_;
  }

  /// Decode a standalone JSON string literal; returns false on any
  /// grammar violation. `out` receives the unescaped bytes.
  static bool decode_string(const std::string& literal, std::string* out) {
    StrictJson j{literal};
    if (!j.string(out)) return false;
    return j.p_ == j.end_;
  }

 private:
  const char* p_;
  const char* end_;

  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) ++p_;
  }
  bool literal(const char* word) {
    const char* q = p_;
    for (; *word; ++word, ++q) {
      if (q == end_ || *q != *word) return false;
    }
    p_ = q;
    return true;
  }
  bool value() {  // NOLINT(misc-no-recursion)
    if (p_ == end_) return false;
    switch (*p_) {
      case '{': return object();
      case '[': return array();
      case '"': return string(nullptr);
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {  // NOLINT(misc-no-recursion)
    ++p_;  // '{'
    skip_ws();
    if (p_ != end_ && *p_ == '}') { ++p_; return true; }
    while (true) {
      skip_ws();
      if (!string(nullptr)) return false;
      skip_ws();
      if (p_ == end_ || *p_ != ':') return false;
      ++p_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (p_ == end_) return false;
      if (*p_ == '}') { ++p_; return true; }
      if (*p_ != ',') return false;
      ++p_;
    }
  }
  bool array() {  // NOLINT(misc-no-recursion)
    ++p_;  // '['
    skip_ws();
    if (p_ != end_ && *p_ == ']') { ++p_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (p_ == end_) return false;
      if (*p_ == ']') { ++p_; return true; }
      if (*p_ != ',') return false;
      ++p_;
    }
  }
  static int hex(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }
  bool string(std::string* out) {
    if (p_ == end_ || *p_ != '"') return false;
    ++p_;
    while (p_ != end_) {
      const unsigned char c = static_cast<unsigned char>(*p_);
      if (c == '"') { ++p_; return true; }
      if (c < 0x20) return false;  // unescaped control char
      if (c == '\\') {
        ++p_;
        if (p_ == end_) return false;
        switch (*p_) {
          case '"': case '\\': case '/':
            if (out) *out += *p_;
            break;
          case 'b': if (out) *out += '\b'; break;
          case 'f': if (out) *out += '\f'; break;
          case 'n': if (out) *out += '\n'; break;
          case 'r': if (out) *out += '\r'; break;
          case 't': if (out) *out += '\t'; break;
          case 'u': {
            int code = 0;
            for (int i = 0; i < 4; ++i) {
              ++p_;
              if (p_ == end_) return false;
              const int h = hex(*p_);
              if (h < 0) return false;
              code = code * 16 + h;
            }
            // Tests only emit ASCII escapes; decode BMP < 0x80 directly.
            if (out && code < 0x80) *out += static_cast<char>(code);
            break;
          }
          default: return false;
        }
        ++p_;
      } else {
        if (out) *out += static_cast<char>(c);
        ++p_;
      }
    }
    return false;  // unterminated
  }
  bool number() {
    const char* start = p_;
    if (p_ != end_ && *p_ == '-') ++p_;
    if (p_ == end_ || std::isdigit(static_cast<unsigned char>(*p_)) == 0) return false;
    if (*p_ == '0') {
      ++p_;
    } else {
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_)) != 0) ++p_;
    }
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      if (p_ == end_ || std::isdigit(static_cast<unsigned char>(*p_)) == 0) return false;
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_)) != 0) ++p_;
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (p_ == end_ || std::isdigit(static_cast<unsigned char>(*p_)) == 0) return false;
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_)) != 0) ++p_;
    }
    return p_ != start;
  }
};

}  // namespace mkos::testutil
