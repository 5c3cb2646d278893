// Shared benchmark vocabulary: clock, JSON emission, summary statistics,
// named metrics and the correctness gate.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Builds one flat JSON object, keys in insertion order.
class JsonObject {
 public:
  void add(const std::string& key, const std::string& value) {
    raw(key, "\"" + json_escape(value) + "\"");
  }
  void add(const std::string& key, const char* value) { add(key, std::string(value)); }
  void add(const std::string& key, double value) { raw(key, json_number(value)); }
  void add(const std::string& key, int value) { raw(key, std::to_string(value)); }
  void add(const std::string& key, std::uint64_t value) { raw(key, std::to_string(value)); }
  void add(const std::string& key, bool value) { raw(key, value ? "true" : "false"); }
  void raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + json_escape(key) + "\": ") + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The rate a run sustains in three rounds of four: the lower quartile of
/// its per-round rates. On a shared host the rounds run at the contended
/// speed except in bursts, when other tenants idle, where they run faster;
/// the lower quartile leaves the bursts out, where a time average or the
/// median moves with how many of them fell inside the run.
inline double sustained_rate(const std::vector<double>& per_round) {
  return quantile(per_round, 0.25);
}

/// The latency one item (a flow, a query) stays within in three
/// repetitions of four: the upper quartile of its repeated timings, the
/// latency counterpart of sustained_rate.
inline double sustained_latency(const std::vector<double>& repeats) {
  return quantile(repeats, 0.75);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// One reported figure.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Collects correctness failures; the run exits non-zero if any occurred.
class Gate {
 public:
  void check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

}  // namespace perfbench
