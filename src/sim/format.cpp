#include "sim/format.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "sim/contracts.hpp"
#include "sim/time.hpp"
#include "sim/units.hpp"

namespace mkos::sim {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& row, std::string& out) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::size_t pad = width[c] - row[c].size();
      out += "| ";
      if (c == 0) {
        out += row[c];
        out.append(pad, ' ');
      } else {
        out.append(pad, ' ');
        out += row[c];
      }
      out += ' ';
    }
    out += "|\n";
  };
  std::string out;
  emit_row(headers_, out);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out += "|";
    out.append(width[c] + 2, '-');
  }
  out += "|\n";
  for (const auto& row : rows_) emit_row(row, out);
  return out;
}

std::string Table::to_csv() const {
  auto escape = [](const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
    std::string out = "\"";
    for (const char c : cell) {
      if (c == '"') out += '"';
      out += c;
    }
    out += '"';
    return out;
  };
  auto emit = [&](const std::vector<std::string>& row, std::string& out) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ',';
      out += escape(row[c]);
    }
    out += '\n';
  };
  std::string out;
  emit(headers_, out);
  for (const auto& row : rows_) emit(row, out);
  return out;
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string fmt_sci(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*e", precision, v);
  return buf;
}

std::string fmt_pct(double ratio, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, ratio * 100.0);
  return buf;
}

std::string to_string(TimeNs t) {
  char buf[64];
  const double ns = static_cast<double>(t.ns());
  const double a = std::fabs(ns);
  if (a < 1e3) {
    std::snprintf(buf, sizeof buf, "%" PRId64 " ns", t.ns());
  } else if (a < 1e6) {
    std::snprintf(buf, sizeof buf, "%.2f us", ns * 1e-3);
  } else if (a < 1e9) {
    std::snprintf(buf, sizeof buf, "%.2f ms", ns * 1e-6);
  } else {
    std::snprintf(buf, sizeof buf, "%.3f s", ns * 1e-9);
  }
  return buf;
}

std::string bytes_to_string(Bytes b) {
  char buf[64];
  if (b < KiB) {
    std::snprintf(buf, sizeof buf, "%llu B", static_cast<unsigned long long>(b));
  } else if (b < MiB) {
    std::snprintf(buf, sizeof buf, "%.1f KiB", static_cast<double>(b) / static_cast<double>(KiB));
  } else if (b < GiB) {
    std::snprintf(buf, sizeof buf, "%.1f MiB", static_cast<double>(b) / static_cast<double>(MiB));
  } else {
    std::snprintf(buf, sizeof buf, "%.2f GiB", static_cast<double>(b) / static_cast<double>(GiB));
  }
  return buf;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto byte = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (byte < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", byte);
          out += buf;
        } else {
          out += ch;
        }
        break;
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  MKOS_ENSURES(res.ec == std::errc{});
  return std::string(buf, res.ptr);
}

JsonObject& JsonObject::number(const std::string& key, double v) {
  fields_.push_back(json_quote(key) + ": " + json_number(v));
  return *this;
}

JsonObject& JsonObject::integer(const std::string& key, std::int64_t v) {
  fields_.push_back(json_quote(key) + ": " + std::to_string(v));
  return *this;
}

JsonObject& JsonObject::text(const std::string& key, const std::string& v) {
  fields_.push_back(json_quote(key) + ": " + json_quote(v));
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& key, bool v) {
  fields_.push_back(json_quote(key) + ": " + (v ? "true" : "false"));
  return *this;
}

JsonObject& JsonObject::raw(const std::string& key, const std::string& json) {
  fields_.push_back(json_quote(key) + ": " + json);
  return *this;
}

std::string JsonObject::to_string() const {
  std::string out = "{\n";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    out += "  " + fields_[i];
    if (i + 1 < fields_.size()) out += ',';
    out += '\n';
  }
  out += "}\n";
  return out;
}

void print_banner(const std::string& title, const std::string& paper_ref) {
  std::string bar(72, '=');
  std::printf("%s\n%s\n  (%s)\n%s\n", bar.c_str(), title.c_str(), paper_ref.c_str(),
              bar.c_str());
}

}  // namespace mkos::sim
