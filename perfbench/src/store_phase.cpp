#include "store_phase.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>

#include "fingerprint/platform.hpp"
#include "telemetry/sharded_store.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace vpscope;
using telemetry::Query;
using telemetry::SessionRecord;
using telemetry::SessionStore;

const char* query_kind_name(QueryKind kind) {
  switch (kind) {
    case QueryKind::WatchHours: return "watch_hours";
    case QueryKind::Bandwidth: return "bandwidth_mbps";
    case QueryKind::HourlyVolume: return "hourly_volume_gb";
    case QueryKind::Windowed: return "windowed";
  }
  return "?";
}

std::vector<QuerySpec> make_query_set(std::uint64_t seed, std::size_t n,
                                      const std::vector<SessionRecord>& records) {
  std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
  for (const auto& r : records) {
    lo = std::min(lo, r.counters.first_us);
    hi = std::max(hi, r.counters.first_us);
  }
  if (records.empty()) lo = hi = 0;
  Rng rng(seed * 0xA24BAED4963EE407ULL + 0x5f);
  const auto& providers = fingerprint::all_providers();
  std::vector<QuerySpec> out;
  for (std::size_t i = 0; i < n; ++i) {
    QuerySpec spec;
    spec.kind = static_cast<QueryKind>(i % 4);
    const auto provider = providers[rng.uniform(0, providers.size() - 1)];
    Query q = Query().provider(provider);
    switch (rng.uniform(0, 2)) {
      case 0: break;  // per provider
      case 1:
        q.device_type(static_cast<fingerprint::DeviceType>(rng.uniform(0, 2)));
        break;
      default: {
        const auto platforms =
            fingerprint::platforms_for(provider, fingerprint::Transport::Tcp);
        q.platform(platforms[rng.uniform(0, platforms.size() - 1)]);
        break;
      }
    }
    if (spec.kind == QueryKind::Windowed) {
      // An eighth of the start-time range, placed at random.
      const std::uint64_t width = std::max<std::uint64_t>(1, (hi - lo) / 8);
      const std::uint64_t from = lo + rng.uniform(0, hi - lo - std::min(hi - lo, width));
      q.started_between(from, from + width);
    }
    spec.query = q;
    out.push_back(spec);
  }
  return out;
}

namespace {

bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

/// Runs one query; returns a flat result vector for comparison.
std::vector<double> run_query(const SessionStore& store, const QuerySpec& spec) {
  switch (spec.kind) {
    case QueryKind::WatchHours:
    case QueryKind::Windowed:
      return {store.watch_hours(spec.query)};
    case QueryKind::Bandwidth:
      return store.bandwidth_mbps(spec.query);
    case QueryKind::HourlyVolume: {
      const auto h = store.hourly_volume_gb(spec.query);
      return {h.begin(), h.end()};
    }
  }
  return {};
}

/// The same aggregate, recomputed by scanning the generated records.
std::vector<double> brute_force(const std::vector<SessionRecord>& records,
                                const QuerySpec& spec) {
  switch (spec.kind) {
    case QueryKind::WatchHours:
    case QueryKind::Windowed: {
      double seconds = 0;
      for (const auto& r : records)
        if (spec.query.matches(r)) seconds += r.counters.duration_s();
      return {seconds / 3600.0};
    }
    case QueryKind::Bandwidth: {
      std::vector<double> out;
      for (const auto& r : records) {
        if (!spec.query.matches(r)) continue;
        const double mbps = r.counters.mean_downstream_mbps();
        if (mbps > 0) out.push_back(mbps);
      }
      return out;
    }
    case QueryKind::HourlyVolume: {
      std::array<double, 24> h{};
      for (const auto& r : records)
        if (spec.query.matches(r))
          telemetry::accumulate_hourly_volume_gb(h, r.counters.first_us,
                                                 r.counters.last_us,
                                                 r.counters.bytes_down);
      return {h.begin(), h.end()};
    }
  }
  return {};
}

/// Sums and per-session values may come back in another order (segment
/// and writer order), so values compare sorted, within rounding.
bool same_result(std::vector<double> a, std::vector<double> b, QueryKind kind) {
  if (a.size() != b.size()) return false;
  if (kind == QueryKind::Bandwidth) {
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
  }
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!close(a[i], b[i])) return false;
  return true;
}

std::unique_ptr<SessionStore> ingest(const std::vector<SessionRecord>& records,
                                     const StoreConfig& config) {
  if (config.writers <= 1) {
    auto store = std::make_unique<SessionStore>(config.options);
    for (const auto& r : records) store->insert(r);
    return store;
  }
  telemetry::ShardedSessionStore sharded(config.writers, config.options);
  std::vector<std::thread> threads;
  const std::size_t n = records.size();
  for (std::size_t w = 0; w < config.writers; ++w) {
    threads.emplace_back([&, w] {
      auto& writer = sharded.writer(w);
      const std::size_t from = n * w / config.writers;
      const std::size_t to = n * (w + 1) / config.writers;
      for (std::size_t i = from; i < to; ++i) writer.insert(records[i]);
    });
  }
  for (auto& t : threads) t.join();
  sharded.flush_all();
  return std::make_unique<SessionStore>(sharded.snapshot());
}

}  // namespace

StoreRounds::StoreRounds(std::vector<SessionRecord> records,
                         std::vector<QuerySpec> queries, StoreConfig config,
                         Gate& gate)
    : records_(std::move(records)),
      queries_(std::move(queries)),
      config_(std::move(config)),
      gate_(gate) {}

namespace {

/// Writes the spill files back to disk, so their writeback does not land in
/// the timed work that follows.
void sync_spill_files(const std::string& dir) {
  if (dir.empty()) return;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const int fd = ::open(entry.path().c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

void StoreRounds::ingest() {
  const std::uint64_t t0 = now_ns();
  auto store = perfbench::ingest(records_, config_);
  const auto seconds = static_cast<double>(now_ns() - t0) / 1e9;
  sum_.ingest_rows_per_s.push_back(static_cast<double>(records_.size()) / seconds);
  sync_spill_files(config_.options.spill_dir);
  sum_.stats = store->stats();
  gate_.check(store->size() == records_.size(), "store holds every ingested row");
  gate_.check(sum_.stats.spill_read_failures == 0, "no spill read failures");
  if (!store_) store_ = std::move(store);
}

void StoreRounds::run_next_query() {
  if (!store_) ingest();
  if (sum_.query_ms.empty()) sum_.query_ms.resize(queries_.size());
  const std::size_t q = next_query_++ % queries_.size();
  const QuerySpec& spec = queries_[q];
  const bool first = sum_.query_ms[q].empty();
  const auto before = store_->stats();
  const std::uint64_t t0 = now_ns();
  std::vector<double> result = run_query(*store_, spec);
  sum_.query_ms[q].push_back(static_cast<double>(now_ns() - t0) / 1e6);
  const auto after = store_->stats();
  gate_.check(after.spill_read_failures == 0, "no spill read failures in queries");
  if (!first) return;
  sum_.scanned_first_pass += after.segments_scanned - before.segments_scanned;
  sum_.skipped_first_pass += after.segments_skipped - before.segments_skipped;
  ++sum_.queries_checked;
  const bool same = same_result(std::move(result), brute_force(records_, spec), spec.kind);
  if (!same) ++sum_.queries_mismatched;
  gate_.check(same, std::string(query_kind_name(spec.kind)) +
                        " aggregate differs from the brute-force recomputation");
}

void StoreRounds::query_for(double seconds) {
  const std::uint64_t start = now_ns();
  do {
    run_next_query();
  } while (static_cast<double>(now_ns() - start) / 1e9 < seconds);
}

void StoreRounds::query_until_each_ran(std::uint32_t n) {
  while (min_query_runs() < n) run_next_query();
}

std::uint32_t StoreRounds::min_query_runs() const {
  if (sum_.query_ms.size() < queries_.size()) return 0;
  std::size_t least = sum_.query_ms.front().size();
  for (const auto& runs : sum_.query_ms) least = std::min(least, runs.size());
  return static_cast<std::uint32_t>(least);
}

std::vector<double> StoreRounds::sustained_query_ms() const {
  std::vector<double> out;
  out.reserve(sum_.query_ms.size());
  for (const auto& runs : sum_.query_ms) out.push_back(sustained_latency(runs));
  return out;
}

std::map<QueryKind, std::vector<double>> StoreRounds::sustained_query_ms_by_kind() const {
  std::map<QueryKind, std::vector<double>> out;
  const std::vector<double> ms = sustained_query_ms();
  for (std::size_t q = 0; q < ms.size(); ++q) out[queries_[q].kind].push_back(ms[q]);
  return out;
}

void append_store_layer_metrics(const StoreRounds& store, Metrics& out) {
  const StoreSummary& s = store.summary();
  const double rate = sustained_rate(s.ingest_rows_per_s);
  out.push_back({"telemetry.insert_ns_per_row", rate > 0 ? 1e9 / rate : 0.0, "ns"});
  out.push_back({"telemetry.spilled_segments",
                 static_cast<double>(s.stats.spilled_segments), "count"});
  out.push_back({"telemetry.segments_scanned",
                 static_cast<double>(s.scanned_first_pass), "count"});
  out.push_back({"telemetry.segments_skipped",
                 static_cast<double>(s.skipped_first_pass), "count"});
  const double seen = static_cast<double>(s.scanned_first_pass + s.skipped_first_pass);
  out.push_back({"telemetry.skip_ratio",
                 seen > 0 ? static_cast<double>(s.skipped_first_pass) / seen : 0.0,
                 "ratio"});
  const auto by_kind = store.sustained_query_ms_by_kind();
  for (QueryKind kind : {QueryKind::WatchHours, QueryKind::Bandwidth,
                         QueryKind::HourlyVolume, QueryKind::Windowed}) {
    const auto it = by_kind.find(kind);
    out.push_back({std::string("telemetry.query_") + query_kind_name(kind) + "_ms",
                   it == by_kind.end() ? 0.0 : median(it->second), "ms"});
  }
}

}  // namespace perfbench
