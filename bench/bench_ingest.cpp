// Fleet ingest benchmark: the binary trace path vs the JSONL path, the
// sharded ingest service's scaling, and incremental re-synthesis cost.
// Emits machine-readable results as BENCH_ingest.json.
//
// Three measurements:
//   1. single-thread file -> TraceIndex: memory-mapped .ttb vs JSONL parse
//      (gate: >= 5x events/sec, the format exists to beat per-line JSON)
//   2. sharded submit_jsonl throughput, 1 shard vs TETRA_SHARDS, as
//      interleaved (1-shard, N-shard) pairs scored best-of-N, so a
//      scheduler hiccup in one pass cannot sink the ratio
//      (gate: >= 0.7 scaling efficiency when the host has enough cores)
//   3. incremental re-synthesis after a small per-pid delta vs a full
//      pass, with a hard byte-identity check on the resulting DAG JSON
//
// Knobs:
//   TETRA_ROBOTS     fleet size (default 8)
//   TETRA_DURATION   per-robot simulated seconds (default 6)
//   TETRA_SHARDS     worker shards for the scaling pass (default 4)
//   TETRA_BENCH_JSON output path (default BENCH_ingest.json)
//   TETRA_REQUIRE_SPEEDUP  0 = report only, never fail the gates
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/ingest_service.hpp"
#include "bench_util.hpp"
#include "core/export.hpp"
#include "core/incremental.hpp"
#include "ebpf/tracers.hpp"
#include "support/json_writer.hpp"
#include "support/string_utils.hpp"
#include "trace/merge.hpp"
#include "trace/serialize.hpp"
#include "trace/ttb.hpp"
#include "workloads/syn_app.hpp"

namespace {

using namespace tetra;

/// Interleaved (1-shard, N-shard) pairs behind the scaling gate; each
/// side is scored by its fastest pass.
constexpr int kShardPairs = 5;

/// Splits JSONL text into `parts` chunks of whole lines (fleet segments of
/// one robot's stream).
std::vector<std::string> split_lines(const std::string& text,
                                     std::size_t parts) {
  std::vector<std::size_t> line_starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n' && i + 1 < text.size()) line_starts.push_back(i + 1);
  }
  std::vector<std::string> chunks;
  const std::size_t lines = line_starts.size();
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t begin = line_starts[p * lines / parts];
    const std::size_t end = p + 1 == parts
                                ? text.size()
                                : line_starts[(p + 1) * lines / parts];
    if (end > begin) chunks.push_back(text.substr(begin, end - begin));
  }
  return chunks;
}

struct FleetItem {
  std::string id;
  std::string jsonl;
};

/// One full ingest pass through the sharded service; returns wall seconds.
double sharded_pass(std::size_t shards, const std::vector<FleetItem>& items) {
  api::IngestServiceConfig config;
  config.shards = shards;
  api::ShardedIngestService service(config);
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& item : items) service.submit_jsonl(item.id, item.jsonl);
  service.flush();
  const double elapsed = bench::seconds_since(t0);
  if (service.first_error().code != api::ErrorCode::None) {
    std::fprintf(stderr, "FAIL: shard error: %s\n",
                 service.first_error().to_string().c_str());
    std::exit(1);
  }
  return elapsed;
}

}  // namespace

int main() {
  bench::banner("fleet ingest - binary traces, shards, incremental deltas");

  const int robots = bench::env_int("TETRA_ROBOTS", 8);
  const Duration duration =
      bench::env_seconds("TETRA_DURATION", Duration::sec(6));
  const auto shards =
      static_cast<std::size_t>(bench::env_int("TETRA_SHARDS", 4));
  const unsigned hardware = std::thread::hardware_concurrency();
  bench::note(format("%d robots x %.0fs, %zu shards (%u hardware threads)",
                     robots, duration.to_sec(), shards, hardware));

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "tetra_bench_ingest";
  std::filesystem::create_directories(dir);

  std::vector<std::string> jsonl_paths, ttb_paths;
  std::size_t total_events = 0;
  for (int robot = 0; robot < robots; ++robot) {
    const trace::EventVector events = bench::trace_one_run(
        0xf1ee7 + static_cast<std::uint64_t>(robot), duration);
    total_events += events.size();
    const std::string stem = "robot-" + std::to_string(robot);
    jsonl_paths.push_back((dir / (stem + ".jsonl")).string());
    ttb_paths.push_back((dir / (stem + ".ttb")).string());
    trace::write_jsonl_file(jsonl_paths.back(), events);
    trace::write_ttb_file(ttb_paths.back(), events);
  }
  bench::note(format("collected %zu events", total_events));

  // ---- 1. single-thread file -> TraceIndex --------------------------------
  const auto jsonl_ingest = [&](const std::string& path) {
    core::TraceIndex index(trace::read_jsonl_file(path));
    return index.size();
  };
  const auto ttb_ingest = [&](const std::string& path) {
    const trace::TtbReader reader(path);
    core::TraceIndex index;
    index.append(reader.view());
    return index.size();
  };
  // Warm-up both paths (page cache, allocator).
  (void)jsonl_ingest(jsonl_paths[0]);
  (void)ttb_ingest(ttb_paths[0]);

  auto t0 = std::chrono::steady_clock::now();
  std::size_t jsonl_rows = 0;
  for (const auto& path : jsonl_paths) jsonl_rows += jsonl_ingest(path);
  const double jsonl_s = bench::seconds_since(t0);
  t0 = std::chrono::steady_clock::now();
  std::size_t ttb_rows = 0;
  for (const auto& path : ttb_paths) ttb_rows += ttb_ingest(path);
  const double ttb_s = bench::seconds_since(t0);
  if (jsonl_rows != total_events || ttb_rows != total_events) {
    std::fprintf(stderr, "FAIL: ingest row counts diverge (%zu / %zu / %zu)\n",
                 jsonl_rows, ttb_rows, total_events);
    return 1;
  }
  const double ttb_speedup = ttb_s > 0.0 ? jsonl_s / ttb_s : 0.0;

  // ---- 2. sharded ingest scaling ------------------------------------------
  // Each robot's stream is cut into per-shard-count segments, and robot ids
  // are chosen so the hash routing spreads the fleet evenly — the bench
  // measures parse/ingest scaling, not hash luck.
  std::vector<FleetItem> items;
  {
    api::IngestServiceConfig probe_config;
    probe_config.shards = shards;
    const api::ShardedIngestService probe(probe_config);
    std::vector<int> per_shard(shards, 0);
    const int target = (robots + static_cast<int>(shards) - 1) /
                       static_cast<int>(shards);
    int candidate = 0;
    for (int robot = 0; robot < robots; ++robot) {
      std::string id;
      for (;; ++candidate) {
        id = "fleet-" + std::to_string(candidate);
        if (per_shard[probe.shard_of(id)] < target) break;
      }
      ++per_shard[probe.shard_of(id)];
      ++candidate;
      std::ifstream f(jsonl_paths[robot], std::ios::binary);
      const std::string text((std::istreambuf_iterator<char>(f)),
                             std::istreambuf_iterator<char>());
      for (auto& chunk : split_lines(text, 4)) {
        items.push_back({id, std::move(chunk)});
      }
    }
  }
  (void)sharded_pass(shards, items);  // warm-up
  std::vector<double> sharded_1_runs, sharded_n_runs;
  for (int r = 0; r < kShardPairs; ++r) {
    sharded_1_runs.push_back(sharded_pass(1, items));
    sharded_n_runs.push_back(sharded_pass(shards, items));
  }
  const double sharded_1_s =
      *std::min_element(sharded_1_runs.begin(), sharded_1_runs.end());
  const double sharded_n_s =
      *std::min_element(sharded_n_runs.begin(), sharded_n_runs.end());
  const double scaling_efficiency =
      sharded_n_s > 0.0
          ? sharded_1_s / (sharded_n_s * static_cast<double>(shards))
          : 0.0;

  // ---- 3. incremental re-synthesis ----------------------------------------
  // Hold back the second half of one pid's ROS events: the delta touches a
  // handful of nodes, so the incremental path should re-extract only those.
  const trace::EventVector events = bench::trace_one_run(0xf1ee7, duration);
  const auto is_sched = [](const trace::TraceEvent& e) {
    return e.type == trace::EventType::SchedSwitch ||
           e.type == trace::EventType::SchedWakeup;
  };
  Pid target_pid = kInvalidPid;
  std::size_t best = 0;
  std::map<Pid, std::size_t> ros_counts;
  for (const auto& e : events) {
    if (is_sched(e)) continue;
    if (++ros_counts[e.pid] > best) {
      best = ros_counts[e.pid];
      target_pid = e.pid;
    }
  }
  trace::EventVector base, delta;
  std::size_t seen = 0;
  for (const auto& e : events) {
    const bool held = !is_sched(e) && e.pid == target_pid && 2 * ++seen > best;
    (held ? delta : base).push_back(e);
  }

  core::IncrementalSynthesizer full;
  full.append(events);
  t0 = std::chrono::steady_clock::now();
  const std::string full_json = core::to_json(full.model().dag);
  const double full_s = bench::seconds_since(t0);
  const std::size_t nodes_total = full.index().nodes().size();

  core::IncrementalSynthesizer inc;
  inc.append(base);
  inc.model();
  inc.append(delta);
  t0 = std::chrono::steady_clock::now();
  const std::string inc_json = core::to_json(inc.model().dag);
  const double inc_s = bench::seconds_since(t0);
  const std::size_t nodes_reextracted = inc.last_extracted();
  const bool identical = inc_json == full_json;
  const double inc_speedup = inc_s > 0.0 ? full_s / inc_s : 0.0;

  // ---- report -------------------------------------------------------------
  const auto rate = [total_events](double s) {
    return s > 0.0 ? static_cast<double>(total_events) / s : 0.0;
  };
  std::printf("\n%-40s %12s %14s\n", "pass", "wall (ms)", "events/sec");
  const auto row = [&](const std::string& name, double s) {
    std::printf("%-40s %12.1f %14.0f\n", name.c_str(), s * 1e3, rate(s));
  };
  row("jsonl file -> index, 1 thread", jsonl_s);
  row("ttb mmap -> index, 1 thread", ttb_s);
  row("sharded jsonl ingest, 1 shard (best)", sharded_1_s);
  row(format("sharded jsonl ingest, %zu shards (best)", shards), sharded_n_s);
  std::printf("%-40s %12.2fx\n", "ttb speedup", ttb_speedup);
  std::printf("%-40s %12.2f\n", "scaling efficiency", scaling_efficiency);
  std::printf("%-40s %12.1f vs %.1f ms full (%zu/%zu nodes, %s)\n",
              "incremental delta re-synthesis", inc_s * 1e3, full_s * 1e3,
              nodes_reextracted, nodes_total,
              identical ? "identical" : "DIVERGED");

  JsonWriter json;
  json.begin_object()
      .kv("bench", "ingest")
      .kv("robots", robots)
      .kv("duration_s", duration.to_sec())
      .kv("shards", static_cast<std::uint64_t>(shards))
      .kv("hardware_threads", static_cast<std::uint64_t>(hardware))
      .kv("total_events", static_cast<std::uint64_t>(total_events))
      .key("events_per_sec")
      .begin_object()
      .kv("jsonl_single_thread", rate(jsonl_s))
      .kv("ttb_single_thread", rate(ttb_s))
      .kv("sharded_1", rate(sharded_1_s))
      .kv("sharded_n", rate(sharded_n_s))
      .end_object()
      .kv("ttb_speedup", ttb_speedup)
      .kv("scaling_efficiency", scaling_efficiency)
      .key("incremental")
      .begin_object()
      .kv("full_resynthesis_ms", full_s * 1e3)
      .kv("incremental_resynthesis_ms", inc_s * 1e3)
      .kv("speedup", inc_speedup)
      .kv("nodes_reextracted", static_cast<std::uint64_t>(nodes_reextracted))
      .kv("nodes_total", static_cast<std::uint64_t>(nodes_total))
      .kv("identical", identical)
      .end_object()
      .end_object();
  const char* out_env = std::getenv("TETRA_BENCH_JSON");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_ingest.json";
  std::ofstream out(out_path, std::ios::trunc);
  out << bench::with_telemetry(json.str()) << "\n";
  bench::note(format("\nwrote %s", out_path.c_str()));

  // Identity is correctness, not performance: always gating.
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: incremental re-synthesis diverged from the full "
                 "pass\n");
    return 1;
  }
  const bool strict = bench::env_int("TETRA_REQUIRE_SPEEDUP", 1) != 0;
  if (strict && ttb_speedup < 5.0) {
    std::fprintf(stderr, "FAIL: ttb speedup %.2fx < 5.0x required\n",
                 ttb_speedup);
    return 1;
  }
  // The scaling bar needs real cores under the shards.
  if (strict && hardware >= shards && scaling_efficiency < 0.7) {
    std::fprintf(stderr, "FAIL: scaling efficiency %.2f < 0.7 required\n",
                 scaling_efficiency);
    return 1;
  }
  return 0;
}
