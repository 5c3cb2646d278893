// vpscope end-to-end benchmark. One run builds the workload from its seed,
// drives it through vpscope's public front-ends, checks every output, and
// prints the metrics; the last line of stdout is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 1 the run reports per-layer metrics and the layer budget
// instead, and writes its spans as a Chrome/Perfetto trace file.
//
//   perfbench --workload campus_replay --seed 1 --seconds 20 --trace 0
//             [--trace-out FILE] [--scratch DIR]
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>

#include "common.hpp"
#include "env.hpp"
#include "generator.hpp"
#include "replay_phase.hpp"
#include "store_phase.hpp"
#include "synth/dataset.hpp"

namespace {

using namespace perfbench;

struct Args {
  Workload workload = Workload::CampusReplay;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out = "perfbench-trace.json";
  std::string scratch = ".";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto w = parse_workload(value);
        if (!w) return std::nullopt;
        a.workload = *w;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
        have_seconds = a.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return std::nullopt;
        a.trace = value == "1";
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else if (flag == "--scratch") {
        a.scratch = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!have_workload || !have_seed || !have_seconds) return std::nullopt;
  return a;
}

// The bank is the system under test's model, not an input: every workload
// seed classifies against the bank trained from this lab seed (the repo's
// benches use the same value).
constexpr std::uint64_t kLabSeed = 42;
// telemetry_scan's record stream: a month of sessions.
constexpr std::size_t kScanRows = 100'000;
constexpr int kScanDays = 30;
// The replay workloads' own records, tiled to this many rows, so their
// aggregations take a tenth of a millisecond rather than microseconds.
constexpr std::size_t kReplayStoreRows = 50'000;
// Distinct queries: the p99 over them has more than ten beyond it.
constexpr std::size_t kQueries = 1024;
constexpr int kMinRounds = 3;

// The generator's scratch, not the program, sets the process's resident
// peak during set-up (by 24-38 MB over training, depending on the seed).
// Returning free heap pages to the OS and then resetting the high-water
// mark to the resident size (Linux clear_refs "5") makes the peak read at
// the end that of the timed phase: what set-up leaves resident (bank,
// inputs) plus what the rounds add.
bool reset_peak_rss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

// Resident high-water mark since the last reset (VmHWM), in MB.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f))
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

std::string metrics_json(const Metrics& metrics) {
  JsonObject o;
  for (const auto& m : metrics) {
    JsonObject v;
    v.add("value", m.value);
    v.add("unit", m.unit);
    o.raw(m.name, v.str());
  }
  return o.str();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload campus_replay|handshake_churn|"
                 "initial_flood|telemetry_scan --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--scratch DIR]\n");
    return 2;
  }
  const Workload workload = args->workload;
  const bool scan = workload == Workload::TelemetryScan;
  const bool flood = workload == Workload::InitialFlood;

  std::printf("env: %s\n", to_json(probe_environment()).c_str());
  std::printf("workload: %s seed: %llu seconds: %g trace: %d\n",
              workload_name(workload), static_cast<unsigned long long>(args->seed),
              args->seconds, args->trace ? 1 : 0);
  std::fflush(stdout);

  // ---- set-up: everything before the first timed packet or row ----
  const std::uint64_t setup_start = now_ns();
  vpscope::pipeline::ClassifierBank bank;
  bank.train(vpscope::synth::generate_lab_dataset(kLabSeed, 1.0));
  const ReplayImage image = make_replay_image(workload, args->seed);
  std::optional<ReplayImage> reference;
  if (flood) reference = make_replay_image(workload, args->seed, /*with_forged=*/false);
  std::vector<vpscope::telemetry::SessionRecord> scan_records;  // moved into the store
  if (scan) scan_records = make_session_records(args->seed, kScanRows, kScanDays);
  const double setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  std::printf("image: frames=%zu handshake=%zu payload=%zu forged=%zu "
              "flows=%zu bytes=%zu digest=%016llx\n",
              image.frames(), image.handshake_frames, image.payload_frames,
              image.forged_frames, image.flows.size(), image.pcap.size(),
              static_cast<unsigned long long>(fnv1a(image.pcap)));
  if (scan)
    std::printf("records: rows=%zu digest=%016llx\n", scan_records.size(),
                static_cast<unsigned long long>(records_digest(scan_records)));
  std::fflush(stdout);

  Gate gate;
  Metrics metrics;
  std::uint64_t attempted = 0, failed = 0;
  const double s = args->seconds;

  const std::filesystem::path spill =
      std::filesystem::path(args->scratch) / ("spill-" + std::to_string(getpid()));
  StoreConfig store_config;
  if (scan) {
    store_config.writers = 3;
    store_config.options.segment_rows = 4 * 1024;
    store_config.options.max_resident_segments = 4;  // of ~25 segments
    store_config.options.spill_dir = spill.string();
  }

  if (!args->trace) {
    gate.check(reset_peak_rss(), "resident high-water mark reset after set-up");
    // ---- timed phase: untraced end-to-end metrics ----
    // Each round replays the image, ingests the store once and runs queries
    // for as long as the replays took, so every metric samples the whole
    // run in step with the others.
    ReplayRounds rounds(bank, image, gate);
    std::optional<StoreRounds> store;
    const std::uint64_t start = now_ns();
    for (int round = 0;
         round < kMinRounds || static_cast<double>(now_ns() - start) / 1e9 < s;
         ++round) {
      const std::uint64_t replay_start = now_ns();
      rounds.run_round();
      const double replay_s = static_cast<double>(now_ns() - replay_start) / 1e9;
      if (!store) {
        auto recs = scan ? std::move(scan_records)
                         : tile_records(rounds.summary().records, kReplayStoreRows);
        auto queries = make_query_set(args->seed, kQueries, recs);
        store.emplace(std::move(recs), std::move(queries), store_config, gate);
      }
      store->ingest();
      store->query_for(replay_s);
    }
    store->query_until_each_ran(kMinRounds);
    const ReplaySummary& replay = rounds.summary();
    const StoreSummary& stored = store->summary();
    attempted += replay.flows_offered + stored.queries_checked;
    failed += replay.flows_failed + stored.queries_mismatched;
    if (reference) {
      const auto ref = replay_records(bank, *reference, gate);
      gate.check(records_digest(ref) == replay.records_digest,
                 "initial_flood verdicts differ from the flood-free reference");
    }

    metrics.push_back({"pps", sustained_rate(replay.pps), "1/s"});
    // The sharded pass runs a thread per vCPU, so any other runnable thread
    // stalls it: its rounds dip as well as burst, and their median is the
    // steadiest centre.
    metrics.push_back({"pps_sharded", median(replay.pps_sharded), "1/s"});
    // Latencies are per flow and per query, each the item's sustained
    // latency over its repetitions in the run; the percentiles are taken
    // across flows and across queries.
    const std::vector<double> verdict_us = rounds.sustained_verdict_us();
    const std::vector<double> query_ms = store->sustained_query_ms();
    metrics.push_back({"verdict_us_p50", quantile(verdict_us, 0.50), "us"});
    metrics.push_back({"verdict_us_p99", quantile(verdict_us, 0.99), "us"});
    metrics.push_back({"composite_accuracy", replay.composite_accuracy, "ratio"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    metrics.push_back({"setup_s", setup_s, "s"});
    metrics.push_back({"ingest_rows_per_s", sustained_rate(stored.ingest_rows_per_s), "1/s"});
    metrics.push_back({"query_ms_p50", quantile(query_ms, 0.50), "ms"});
    metrics.push_back({"query_ms_p99", quantile(query_ms, 0.99), "ms"});

    std::printf("rounds: %zu verdict_samples: %zu flows query_samples: %zu queries "
                "failed_flow_ratio: %.6f (%llu/%llu)\n",
                replay.pps.size(), verdict_us.size(), query_ms.size(),
                replay.flows_offered ? static_cast<double>(replay.flows_failed) /
                                           static_cast<double>(replay.flows_offered)
                                     : 0.0,
                static_cast<unsigned long long>(replay.flows_failed),
                static_cast<unsigned long long>(replay.flows_offered));
    auto print_rounds = [](const char* name, const std::vector<double>& v) {
      std::printf("rounds %s:", name);
      for (const double x : v) std::printf(" %.6g", x);
      std::printf("\n");
    };
    print_rounds("pps", replay.pps);
    print_rounds("pps_sharded", replay.pps_sharded);
    print_rounds("ingest_rows_per_s", stored.ingest_rows_per_s);
    std::printf("store: rows=%zu ingests=%zu min_runs_per_query=%u spilled_segments=%zu\n",
                store->rows(), stored.ingest_rows_per_s.size(), store->min_query_runs(),
                stored.stats.spilled_segments);
  } else {
    // ---- traced run: per-layer metrics and the layer budget ----
    SpanLog spans(100'000);
    FlowTally tally;
    run_replay_traced(bank, image, args->seed, s * 0.4, spans, metrics, tally, gate);
    attempted += tally.offered;
    failed += tally.failed;
    std::vector<vpscope::telemetry::SessionRecord> replayed;
    if (!scan) replayed = replay_records(bank, image, gate);
    if (reference)
      gate.check(records_digest(replay_records(bank, *reference, gate)) ==
                     records_digest(replayed),
                 "initial_flood verdicts differ from the flood-free reference");
    auto store_recs = scan ? std::move(scan_records) : tile_records(replayed, kReplayStoreRows);
    auto queries = make_query_set(args->seed, kQueries, store_recs);
    StoreRounds store(std::move(store_recs), std::move(queries), store_config, gate);
    for (int i = 0; i < kMinRounds; ++i) store.ingest();
    store.query_until_each_ran(kMinRounds);
    attempted += store.summary().queries_checked;
    failed += store.summary().queries_mismatched;
    append_store_layer_metrics(store, metrics);

    const auto trace_dir = std::filesystem::path(args->trace_out).parent_path();
    std::error_code ec;
    if (!trace_dir.empty()) std::filesystem::create_directories(trace_dir, ec);
    gate.check(spans.write_trace_json(args->trace_out), "trace file written");
    std::printf("trace: %s (%zu spans)\n", args->trace_out.c_str(), spans.retained());
  }
  std::error_code ec;
  std::filesystem::remove_all(spill, ec);  // the store unlinks its files; the dir remains

  for (const auto& m : metrics)
    std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& f : gate.failures()) std::printf("CHECK FAILED: %s\n", f.c_str());

  JsonObject result;
  result.add("correct", gate.ok());
  result.add("attempted", std::max<std::uint64_t>(1, attempted));
  result.add("failed", failed);
  result.raw("metrics", metrics_json(metrics));
  std::printf("%s\n", result.str().c_str());
  return gate.ok() ? 0 : 1;
}
