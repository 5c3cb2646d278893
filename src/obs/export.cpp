#include "obs/export.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <string>

namespace vpscope::obs {

namespace {

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

/// `name{labels}` or bare `name`; `extra` is appended inside the braces.
void append_series(std::string& out, std::string_view name,
                   std::string_view labels, std::string_view extra = {}) {
  out += name;
  if (!labels.empty() || !extra.empty()) {
    out += '{';
    out += labels;
    if (!labels.empty() && !extra.empty()) out += ',';
    out += extra;
    out += '}';
  }
}

void append_help_type(std::string& out, std::string_view name,
                      std::string_view help, std::string_view type) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

/// "name" or "name{labels}" as a JSON object key.
std::string series_key(std::string_view name, std::string_view labels) {
  std::string key(name);
  if (!labels.empty()) {
    key += '{';
    key += labels;
    key += '}';
  }
  return key;
}

}  // namespace

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string prometheus_text(const Registry& registry) {
  registry.run_collect_hooks();
  std::string out;
  out.reserve(4096);

  std::string_view last_name;
  for (const Counter* c : registry.counters()) {
    if (c->name() != last_name) {
      append_help_type(out, c->name(), c->help(), "counter");
      last_name = c->name();
    }
    append_series(out, c->name(), c->labels());
    out += ' ';
    append_u64(out, c->total());
    out += '\n';
  }

  last_name = {};
  for (const Gauge* g : registry.gauges()) {
    if (g->name() != last_name) {
      append_help_type(out, g->name(), g->help(), "gauge");
      last_name = g->name();
    }
    append_series(out, g->name(), g->labels());
    out += ' ';
    append_i64(out, g->total());
    out += '\n';
  }

  last_name = {};
  for (const Histogram* h : registry.histograms()) {
    const HistogramSnapshot snap = h->snapshot();
    if (h->name() != last_name) {
      append_help_type(out, h->name(), h->help(), "histogram");
      last_name = h->name();
    }
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
      if (snap.buckets[b] == 0) continue;
      cumulative += snap.buckets[b];
      std::string le = "le=\"";
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%" PRIu64,
                    snap.bucket_upper(static_cast<int>(b)));
      le += buf;
      le += '"';
      append_series(out, std::string(h->name()) + "_bucket", h->labels(), le);
      out += ' ';
      append_u64(out, cumulative);
      out += '\n';
    }
    append_series(out, std::string(h->name()) + "_bucket", h->labels(),
                  "le=\"+Inf\"");
    out += ' ';
    append_u64(out, snap.count);
    out += '\n';
    append_series(out, std::string(h->name()) + "_sum", h->labels());
    out += ' ';
    append_u64(out, snap.sum);
    out += '\n';
    append_series(out, std::string(h->name()) + "_count", h->labels());
    out += ' ';
    append_u64(out, snap.count);
    out += '\n';
    // Pre-computed quantile gauges: scrapeable p50/p99/p999 without
    // server-side histogram_quantile.
    struct Q {
      const char* suffix;
      double p;
    };
    for (const Q q : {Q{"_p50", 50.0}, Q{"_p99", 99.0}, Q{"_p999", 99.9}}) {
      const std::string qname = std::string(h->name()) + q.suffix;
      append_help_type(
          out, qname,
          std::string(h->help()) + " (precomputed quantile)", "gauge");
      append_series(out, qname, h->labels());
      out += ' ';
      append_u64(out, snap.percentile(q.p));
      out += '\n';
    }
  }
  return out;
}

std::string json_text(const Registry& registry) {
  registry.run_collect_hooks();
  std::string out;
  out.reserve(4096);
  out += "{\"counters\":{";
  bool first = true;
  for (const Counter* c : registry.counters()) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, series_key(c->name(), c->labels()));
    out += ":{\"total\":";
    append_u64(out, c->total());
    out += ",\"slots\":[";
    for (int s = 0; s < c->slots(); ++s) {
      if (s) out += ',';
      append_u64(out, c->value(s));
    }
    out += "]}";
  }
  out += "},\"gauges\":{";
  first = true;
  for (const Gauge* g : registry.gauges()) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, series_key(g->name(), g->labels()));
    out += ":{\"total\":";
    append_i64(out, g->total());
    out += ",\"slots\":[";
    for (int s = 0; s < g->slots(); ++s) {
      if (s) out += ',';
      append_i64(out, g->value(s));
    }
    out += "]}";
  }
  out += "},\"histograms\":{";
  first = true;
  for (const Histogram* h : registry.histograms()) {
    if (!first) out += ',';
    first = false;
    const HistogramSnapshot snap = h->snapshot();
    append_json_string(out, series_key(h->name(), h->labels()));
    out += ":{\"count\":";
    append_u64(out, snap.count);
    out += ",\"sum\":";
    append_u64(out, snap.sum);
    out += ",\"min\":";
    append_u64(out, snap.count ? snap.min : 0);
    out += ",\"max\":";
    append_u64(out, snap.max);
    out += ",\"p50\":";
    append_u64(out, snap.percentile(50.0));
    out += ",\"p99\":";
    append_u64(out, snap.percentile(99.0));
    out += ",\"p999\":";
    append_u64(out, snap.percentile(99.9));
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (std::size_t b = 0; b < snap.buckets.size(); ++b) {
      if (snap.buckets[b] == 0) continue;
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += "{\"le\":";
      append_u64(out, snap.bucket_upper(static_cast<int>(b)));
      out += ",\"n\":";
      append_u64(out, snap.buckets[b]);
      out += '}';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

namespace {

/// Recursive-descent structural validator.
struct JsonCursor {
  std::string_view text;
  std::size_t pos = 0;
  int depth = 0;

  static constexpr int kMaxDepth = 64;

  bool eof() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r'))
      ++pos;
  }

  bool literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  bool string() {
    if (eof() || peek() != '"') return false;
    ++pos;
    while (!eof()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (eof()) return false;
        const char esc = text[pos++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (eof() || !std::isxdigit(static_cast<unsigned char>(text[pos])))
              return false;
            ++pos;
          }
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                   esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      }
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos;
    if (!eof() && peek() == '-') ++pos;
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
      return false;
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos;
    if (!eof() && peek() == '.') {
      ++pos;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        return false;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        return false;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos;
    }
    return pos > start;
  }

  bool value() {
    if (++depth > kMaxDepth) return false;
    skip_ws();
    if (eof()) return false;
    bool ok = false;
    switch (peek()) {
      case '{': ok = object(); break;
      case '[': ok = array(); break;
      case '"': ok = string(); break;
      case 't': ok = literal("true"); break;
      case 'f': ok = literal("false"); break;
      case 'n': ok = literal("null"); break;
      default: ok = number(); break;
    }
    --depth;
    return ok;
  }

  bool object() {
    ++pos;  // '{'
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (eof() || peek() != ':') return false;
      ++pos;
      if (!value()) return false;
      skip_ws();
      if (eof()) return false;
      if (peek() == ',') {
        ++pos;
        continue;
      }
      if (peek() == '}') {
        ++pos;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos;  // '['
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos;
      return true;
    }
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (eof()) return false;
      if (peek() == ',') {
        ++pos;
        continue;
      }
      if (peek() == ']') {
        ++pos;
        return true;
      }
      return false;
    }
  }
};

}  // namespace

bool json_valid(std::string_view text) {
  JsonCursor cursor{text};
  if (!cursor.value()) return false;
  cursor.skip_ws();
  return cursor.eof();
}

bool write_file_atomic(const std::string& path, std::string_view text) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  const bool wrote =
      text.empty() || std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool PeriodicExporter::tick(std::uint64_t now_us) {
  if (options_.path.empty()) return false;
  if (exported_once_ && now_us - last_export_us_ < options_.interval_us)
    return false;
  last_export_us_ = now_us;
  return export_now();
}

bool PeriodicExporter::export_now() {
  if (options_.path.empty() || !registry_) return false;
  const std::string text = options_.format == ExportOptions::Format::Prometheus
                               ? prometheus_text(*registry_)
                               : json_text(*registry_);
  if (!write_file_atomic(options_.path, text)) return false;
  exported_once_ = true;
  ++exports_done_;
  return true;
}

}  // namespace vpscope::obs
