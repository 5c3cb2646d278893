// The telemetry phase: session records ingested into vpscope's columnar
// store (single writer, or ShardedSessionStore writers on their own threads
// with a resident-segment budget that forces spill), then a seeded set of
// Fig. 7-11 aggregations, each checked against a brute-force recomputation
// over the same records.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "telemetry/columnar.hpp"
#include "telemetry/query.hpp"
#include "telemetry/record.hpp"

namespace perfbench {

enum class QueryKind : std::uint8_t { WatchHours, Bandwidth, HourlyVolume, Windowed };
const char* query_kind_name(QueryKind kind);

struct QuerySpec {
  QueryKind kind = QueryKind::WatchHours;
  vpscope::telemetry::Query query;
};

/// `n` queries of the Fig. 7-11 shapes (per provider, device type and
/// platform; time-windowed inside the records' start-time range).
std::vector<QuerySpec> make_query_set(
    std::uint64_t seed, std::size_t n,
    const std::vector<vpscope::telemetry::SessionRecord>& records);

struct StoreConfig {
  std::size_t writers = 1;  // 1: SessionStore::insert on the calling thread
  vpscope::telemetry::StoreOptions options;
};

struct StoreSummary {
  std::vector<double> ingest_rows_per_s;  // one per ingest repetition
  std::vector<std::vector<double>> query_ms;  // per query, each execution
  std::uint64_t queries_checked = 0;
  std::uint64_t queries_mismatched = 0;
  vpscope::telemetry::StoreStats stats;   // last store, after ingest
  std::uint64_t scanned_first_pass = 0;   // segments, one pass of the set
  std::uint64_t skipped_first_pass = 0;
};

/// The telemetry phase, driven one step at a time so that a run can
/// interleave it with the replay rounds: every metric then samples the
/// whole run rather than one stretch of it.
class StoreRounds {
 public:
  StoreRounds(std::vector<vpscope::telemetry::SessionRecord> records,
              std::vector<QuerySpec> queries, StoreConfig config, Gate& gate);

  /// One timed ingest of every record into a fresh store, released (spill
  /// files included) before the next. The first ingest's store is kept for
  /// the queries.
  void ingest();
  /// Runs queries of the set, round-robin, for `seconds` (at least one
  /// query), each timed, over the first ingest's store: queries never read
  /// segments still being written back. A query's first execution is
  /// checked against brute force.
  void query_for(double seconds);
  /// Runs queries until every query has run at least `n` times.
  void query_until_each_ran(std::uint32_t n);
  /// Executions of the least-run query.
  std::uint32_t min_query_runs() const;
  std::size_t rows() const { return records_.size(); }
  const StoreSummary& summary() const { return sum_; }
  /// Each query's sustained latency over its executions so far.
  std::vector<double> sustained_query_ms() const;
  /// The same, grouped by query kind.
  std::map<QueryKind, std::vector<double>> sustained_query_ms_by_kind() const;

 private:
  std::vector<vpscope::telemetry::SessionRecord> records_;
  std::vector<QuerySpec> queries_;
  StoreConfig config_;
  Gate& gate_;
  std::unique_ptr<vpscope::telemetry::SessionStore> store_;  // queried
  StoreSummary sum_;
  std::size_t next_query_ = 0;  // round-robin cursor

  void run_next_query();
};

/// Per-layer telemetry metrics.
void append_store_layer_metrics(const StoreRounds& store, Metrics& out);

}  // namespace perfbench
