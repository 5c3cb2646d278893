// Exposition layer (DESIGN.md §5f): renders a Registry as Prometheus
// text-format (for scraping) or a JSON snapshot (for tooling / post-mortem
// dumps), plus a PeriodicExporter that atomically rewrites a file on an
// interval — the `vpscope_obs_export` hook wired into the pipeline
// front-ends and the campus simulator.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace vpscope::obs {

/// Prometheus text exposition format 0.0.4. Histograms emit cumulative
/// `_bucket{le="..."}` series (only non-empty buckets plus `+Inf`), `_sum`,
/// `_count`, and additionally `<name>_p50/_p99/_p999` gauges so quantiles
/// are scrapeable without server-side histogram_quantile.
std::string prometheus_text(const Registry& registry);

/// JSON object {"counters": {...}, "gauges": {...}, "histograms": {...}}
/// with per-slot breakdowns for counters/gauges and merged quantiles plus
/// non-empty buckets for histograms.
std::string json_text(const Registry& registry);

/// The shared JSON writers every obs document is built from: a decimal
/// unsigned integer, and a quoted string with quote, backslash and ASCII
/// control characters escaped (everything else passes through).
void append_u64(std::string& out, std::uint64_t v);
void append_json_string(std::string& out, std::string_view s);

/// Minimal structural JSON validator (objects/arrays/strings/numbers/
/// bool/null, UTF-8 passthrough). Used by tests and the watchdog dump
/// check; not a general-purpose parser.
bool json_valid(std::string_view text);

/// Writes `text` to `path` atomically (tmp file + rename). Returns false
/// on any I/O failure.
bool write_file_atomic(const std::string& path, std::string_view text);

struct ExportOptions {
  enum class Format { Prometheus, Json };
  std::string path;                     // empty disables the exporter
  Format format = Format::Prometheus;
  std::uint64_t interval_us = 1'000'000;
};

/// Periodic file dump driven by caller time (wall or simulated): call
/// tick(now_us) from the front-end loop; the registry is rendered and
/// written at most once per interval. First tick always exports.
class PeriodicExporter {
 public:
  PeriodicExporter(std::shared_ptr<const Registry> registry,
                   ExportOptions options)
      : registry_(std::move(registry)), options_(std::move(options)) {}

  /// Returns true when an export was performed (and succeeded).
  bool tick(std::uint64_t now_us);

  /// Unconditional export, regardless of interval.
  bool export_now();

  std::uint64_t exports_done() const { return exports_done_; }
  const ExportOptions& options() const { return options_; }

 private:
  std::shared_ptr<const Registry> registry_;
  ExportOptions options_;
  std::uint64_t last_export_us_ = 0;
  std::uint64_t exports_done_ = 0;
  bool exported_once_ = false;
};

}  // namespace vpscope::obs
