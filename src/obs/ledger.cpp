#include "obs/ledger.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <utility>

#include "sim/format.hpp"

namespace mkos::obs {

void RunLedger::set_meta(const std::string& key, const std::string& value) {
  meta_.at(key, std::string{}) = value;
}

const std::string* RunLedger::meta(const std::string& key) const {
  return meta_.find(key);
}

void RunLedger::incr(const std::string& name, std::uint64_t by) {
  counters_.at(name, 0) += by;
}

std::uint64_t RunLedger::counter(const std::string& name) const {
  const std::uint64_t* v = counters_.find(name);
  return v == nullptr ? 0 : *v;
}

void RunLedger::set_gauge(const std::string& name, double value) {
  gauges_.at(name, 0.0) = value;
}

double RunLedger::gauge(const std::string& name) const {
  const double* v = gauges_.find(name);
  return v == nullptr ? 0.0 : *v;
}

void RunLedger::observe(const std::string& name, double sample) {
  summaries_.at(name, sim::Summary{}).add(sample);
}

const sim::Summary* RunLedger::summary(const std::string& name) const {
  return summaries_.find(name);
}

sim::Histogram& RunLedger::hist(const std::string& name, double min_value,
                                double max_value, int bins_per_decade) {
  return histograms_.at(name, sim::Histogram{min_value, max_value, bins_per_decade});
}

const sim::Histogram* RunLedger::histogram(const std::string& name) const {
  return histograms_.find(name);
}

void RunLedger::set_host(const std::string& key, const std::string& json_value) {
  host_.at(key, std::string{}) = json_value;
}

void RunLedger::merge(const RunLedger& other) {
  for (const auto& e : other.meta_.entries) {
    if (meta_.find(e.name) == nullptr) set_meta(e.name, e.value);
  }
  for (const auto& e : other.counters_.entries) incr(e.name, e.value);
  for (const auto& e : other.gauges_.entries) set_gauge(e.name, e.value);
  for (const auto& e : other.summaries_.entries) {
    sim::Summary& mine = summaries_.at(e.name, sim::Summary{});
    for (const double s : e.value.samples()) mine.add(s);
  }
  for (const auto& e : other.histograms_.entries) {
    const auto it = histograms_.index.find(e.name);
    if (it == histograms_.index.end()) {
      histograms_.index.emplace(e.name, histograms_.entries.size());
      histograms_.entries.push_back(e);
    } else {
      histograms_.entries[it->second].value.merge(e.value);
    }
  }
  for (const auto& e : other.host_.entries) {
    if (host_.find(e.name) == nullptr) set_host(e.name, e.value);
  }
}

std::string summary_json(const sim::Summary& s) {
  std::string out = "{";
  out += "\"count\": " + std::to_string(s.count());
  if (!s.empty()) {
    out += ", \"min\": " + sim::json_number(s.min());
    out += ", \"max\": " + sim::json_number(s.max());
    out += ", \"mean\": " + sim::json_number(s.mean());
    out += ", \"median\": " + sim::json_number(s.median());
    out += ", \"p95\": " + sim::json_number(s.percentile(95.0));
    out += ", \"stddev\": " + sim::json_number(s.stddev());
  }
  out += "}";
  return out;
}

std::string histogram_json(const sim::Histogram& h) {
  std::string out = "{";
  out += "\"min_value\": " + sim::json_number(h.min_value());
  out += ", \"max_value\": " + sim::json_number(h.max_value());
  out += ", \"total\": " + std::to_string(h.total());
  out += ", \"underflow\": " + std::to_string(h.underflow());
  out += ", \"overflow\": " + std::to_string(h.overflow());
  if (h.total() > 0) {
    out += ", \"p50\": " + sim::json_number(h.quantile(0.5));
    out += ", \"p95\": " + sim::json_number(h.quantile(0.95));
    out += ", \"p99\": " + sim::json_number(h.quantile(0.99));
  }
  out += ", \"bins\": [";
  bool first = true;
  for (std::size_t i = 0; i < h.bin_count(); ++i) {
    if (h.bin(i) == 0) continue;  // sparse: empty bins carry no information
    if (!first) out += ", ";
    first = false;
    out += '[';
    out += sim::json_number(h.bin_lower(i));
    out += ", ";
    out += sim::json_number(h.bin_upper(i));
    out += ", ";
    out += std::to_string(h.bin(i));
    out += ']';
  }
  out += "]}";
  return out;
}

namespace {

/// Emit one section as `"name": { "key": value, ... }` with two-space
/// indentation; `render` maps an entry value to a JSON value string.
template <typename Entries, typename Render>
void emit_section(std::string& out, const char* name, const Entries& entries,
                  Render&& render, bool trailing_comma) {
  out += "  ";
  out += sim::json_quote(name);
  out += ": {";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    " + sim::json_quote(entries[i].name) + ": " + render(entries[i].value);
  }
  if (!entries.empty()) out += "\n  ";
  out += "}";
  if (trailing_comma) out += ",";
  out += "\n";
}

}  // namespace

std::string RunLedger::to_json() const {
  std::string out = "{\n";
  out += "  \"schema\": " + sim::json_quote(kSchemaId) + ",\n";
  out += "  \"schema_version\": " + std::to_string(kSchemaVersion) + ",\n";
  emit_section(out, "meta", meta_.entries,
               [](const std::string& v) { return sim::json_quote(v); }, true);
  emit_section(out, "counters", counters_.entries,
               [](std::uint64_t v) { return std::to_string(v); }, true);
  emit_section(out, "gauges", gauges_.entries,
               [](double v) { return sim::json_number(v); }, true);
  emit_section(out, "summaries", summaries_.entries,
               [](const sim::Summary& v) { return summary_json(v); }, true);
  emit_section(out, "histograms", histograms_.entries,
               [](const sim::Histogram& v) { return histogram_json(v); }, true);
  emit_section(out, "host", host_.entries,
               [](const std::string& v) { return v.empty() ? std::string("null") : v; },
               false);
  out += "}\n";
  return out;
}

bool RunLedger::write_json(std::ostream& os) const {
  os << to_json();
  os.flush();
  // good() (not just !fail()): a stream that hit EOF or a write error at any
  // point reports it here, after the flush pushed everything to the sink.
  return os.good();
}

bool RunLedger::write_json(const std::string& path) const {
  // Temp-then-rename: writing in place meant an interrupted bench left a
  // truncated BENCH_*.json that check_bench_json.py reported as malformed
  // rather than absent. rename(2) is atomic within a filesystem, so readers
  // only ever observe the old document or the complete new one.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return false;
    if (!write_json(out)) {
      out.close();
      (void)std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace mkos::obs
