// Model regression sentinel: labeled drift/no-drift validation harness.
//
// The headline suite sweeps seeds x mutation kinds of labeled pairs: for
// every seed, a baseline run of the generated scenario plus (a) a
// resampled run of the *identical* spec — a no-drift pair that must not
// alarm — and (b) one run per mutation kind of a single-axis mutant — a
// drift pair the sentinel must flag. The resulting confusion matrix is
// asserted: >= 95% detection, zero false alarms at the default alpha.
//
// Reprioritize mutants are exercised by the mutation property tests
// (scenario_test.cpp) but excluded here: without CPU contention a
// priority flip is unobservable in the trace, so it defines no detection
// ground truth.
//
// Golden fixtures (regenerate after an intentional pipeline change):
//   tetra_scenario --seed 7 --run-index 1 --quiet
//       --trace-out tests/data/sentinel_seed7_clean.jsonl
//   tetra_scenario --seed 7 --run-index 1 --mutate scale-exec-time --quiet
//       --trace-out tests/data/sentinel_seed7_drift.jsonl
//   tetra_sentinel --baseline tests/data/scenario_seed7_trace.jsonl
//       --window tests/data/sentinel_seed7_drift.jsonl --quiet
//       --json tests/data/sentinel_seed7_verdict.json
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "sentinel/sentinel.hpp"
#include "trace/serialize.hpp"
#include "trace/ttb.hpp"

namespace tetra::sentinel {
namespace {

std::string data_path(const std::string& name) {
  return std::string(TETRA_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing fixture " << path;
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

// ---- unit behaviour ---------------------------------------------------------

TEST(SentinelTest, CheckBeforeBaselineIsInvalidArgument) {
  ModelSentinel sentinel;
  const auto verdict = sentinel.check(trace::EventVector{});
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.error().code, api::ErrorCode::InvalidArgument);
  EXPECT_EQ(sentinel.windows_checked(), 0u);
}

TEST(SentinelTest, BaselineModelSynthesizesFromFixture) {
  ModelSentinel sentinel;
  ASSERT_TRUE(
      sentinel.ingest_baseline_file(data_path("scenario_seed7_trace.jsonl"))
          .ok());
  const auto model = sentinel.baseline_model();
  ASSERT_TRUE(model.ok()) << model.error().to_string();
  EXPECT_GT(model->dag.vertex_count(), 0u);
  EXPECT_GT(model->dag.edge_count(), 0u);
}

TEST(SentinelTest, UnreadableBaselineFileIsIoError) {
  ModelSentinel sentinel;
  const auto segment =
      sentinel.ingest_baseline_file("/nonexistent/sentinel.jsonl");
  ASSERT_FALSE(segment.ok());
  EXPECT_EQ(segment.error().code, api::ErrorCode::Io);
}

TEST(SentinelTest, VerdictJsonIsStableAndComplete) {
  DriftVerdict verdict;
  verdict.drifted = true;
  verdict.checks = 3;
  verdict.baseline_events = 10;
  verdict.baseline_vertices = 2;
  verdict.baseline_edges = 1;
  verdict.window_events = 12;
  verdict.window_vertices = 2;
  verdict.window_edges = 1;
  verdict.findings.push_back(DriftFinding{DriftKind::ExecTimeShift, "n0/T1",
                                          "shifted", 0.5, 0.001});
  EXPECT_EQ(
      verdict_to_json(verdict),
      "{\"schema_version\":2,\"drifted\":true,\"checks\":3,"
      "\"baseline\":{\"events\":10,\"vertices\":2,\"edges\":1},"
      "\"window\":{\"events\":12,\"vertices\":2,\"edges\":1},"
      "\"findings\":[{\"kind\":\"exec-time-shift\",\"subject\":\"n0/T1\","
      "\"detail\":\"shifted\",\"statistic\":0.5,\"p_value\":0.001,"
      "\"evidence\":0,\"windows\":0}]}");
}

TEST(SentinelTest, WindowVerdictJsonIsStableAndComplete) {
  WindowVerdict verdict;
  verdict.index = 4;
  verdict.begin = TimePoint{} + Duration::ms(2000);
  verdict.end = TimePoint{} + Duration::ms(3000);
  verdict.events = 120;
  verdict.checks = 7;
  verdict.window_drifted = true;
  verdict.alarmed = true;
  verdict.refreshed = false;
  verdict.alarms.push_back(DriftFinding{DriftKind::LatencyEnvelope,
                                        "/tp0 -> /tp2", "crossed", 1.25,
                                        0.001, 1.25, 3});
  verdict.transient.push_back(DriftFinding{DriftKind::LatencyEnvelope,
                                           "/tp0 -> /tp2", "shifted", 0.6,
                                           0.0, 0.0, 0});
  verdict.localization.push_back(AxisScore{"reprioritize", 0.5});
  verdict.localization.push_back(AxisScore{"retime-timer", 0.5});
  EXPECT_EQ(
      window_verdict_to_json(verdict),
      "{\"schema_version\":2,\"window\":4,"
      "\"t_begin_ns\":2000000000,\"t_end_ns\":3000000000,"
      "\"events\":120,\"checks\":7,"
      "\"window_drifted\":true,\"alarmed\":true,\"refreshed\":false,"
      "\"alarms\":[{\"kind\":\"latency-envelope\","
      "\"subject\":\"/tp0 -> /tp2\",\"detail\":\"crossed\","
      "\"statistic\":1.25,\"p_value\":0.001,\"evidence\":1.25,"
      "\"windows\":3}],"
      "\"transient\":[{\"kind\":\"latency-envelope\","
      "\"subject\":\"/tp0 -> /tp2\",\"detail\":\"shifted\","
      "\"statistic\":0.6,\"p_value\":0,\"evidence\":0,\"windows\":0}],"
      "\"localization\":[{\"axis\":\"reprioritize\",\"score\":0.5},"
      "{\"axis\":\"retime-timer\",\"score\":0.5}]}");
}

TEST(SentinelTest, DriftKindNamesAreUnique) {
  std::set<std::string_view> names;
  for (const auto kind :
       {DriftKind::VertexAdded, DriftKind::VertexRemoved, DriftKind::EdgeAdded,
        DriftKind::EdgeRemoved, DriftKind::ExecTimeShift,
        DriftKind::PeriodShift, DriftKind::LatencyEnvelope,
        DriftKind::DeadlineViolation}) {
    EXPECT_TRUE(names.insert(to_string(kind)).second) << to_string(kind);
  }
  EXPECT_EQ(names.size(), 8u);
}

// ---- labeled-pair sweep -----------------------------------------------------

// The four kinds with an observable trace effect. 3s runs give every
// 40-200ms timer >= 15 instances, enough KS power for disjoint supports.
constexpr scenario::MutationKind kSweepKinds[] = {
    scenario::MutationKind::DropEdge, scenario::MutationKind::AddEdge,
    scenario::MutationKind::RetimeTimer,
    scenario::MutationKind::ScaleExecTime};
constexpr std::uint64_t kSweepSeeds = 20;

scenario::GeneratorOptions sweep_options() {
  scenario::GeneratorOptions options;
  options.run_duration = Duration::ms(3000);
  return options;
}

TEST(SentinelSweepTest, DetectsDriftWithoutFalseAlarms) {
  const scenario::ScenarioGenerator generator(sweep_options());
  const scenario::ScenarioRunner runner;

  int true_positive = 0;
  int false_negative = 0;
  int true_negative = 0;
  int false_positive = 0;
  std::map<scenario::MutationKind, int> applied;
  std::vector<std::string> failures;

  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    const scenario::Scenario scen = generator.generate(seed);
    ModelSentinel sentinel;
    {
      scenario::ScenarioRunResult baseline = runner.run(scen.spec, 1.0, 0);
      ASSERT_TRUE(sentinel.ingest_baseline(std::move(baseline.trace)).ok());
    }

    // No-drift pair: the identical spec, resampled (fresh run index).
    {
      scenario::ScenarioRunResult clean = runner.run(scen.spec, 1.0, 1);
      const auto verdict = sentinel.check(std::move(clean.trace));
      ASSERT_TRUE(verdict.ok()) << verdict.error().to_string();
      if (verdict->drifted) {
        ++false_positive;
        failures.push_back("seed " + std::to_string(seed) +
                           " false alarm: " + verdict_to_json(*verdict));
      } else {
        ++true_negative;
      }
    }

    // Drift pairs: one single-axis mutant per kind.
    for (const auto kind : kSweepKinds) {
      const scenario::MutationResult mutant =
          generator.mutate(scen.spec, seed, kind);
      if (!mutant.applied) continue;
      ++applied[kind];
      scenario::ScenarioRunResult drifted = runner.run(mutant.spec, 1.0, 1);
      const auto verdict = sentinel.check(std::move(drifted.trace));
      ASSERT_TRUE(verdict.ok()) << verdict.error().to_string();
      if (verdict->drifted) {
        ++true_positive;
      } else {
        ++false_negative;
        failures.push_back("seed " + std::to_string(seed) + " missed " +
                           std::string(scenario::to_string(kind)) + " (" +
                           mutant.description + ")");
      }
    }
  }

  std::string report;
  for (const auto& failure : failures) report += "\n  " + failure;
  std::printf("confusion matrix: TP=%d FN=%d TN=%d FP=%d\n", true_positive,
              false_negative, true_negative, false_positive);

  // Acceptance: zero false alarms on no-drift pairs, >= 95% detection on
  // drifted pairs, and the sweep must actually have exercised every kind
  // on a healthy majority of seeds.
  EXPECT_EQ(false_positive, 0) << report;
  EXPECT_EQ(true_negative, static_cast<int>(kSweepSeeds));
  const int drift_pairs = true_positive + false_negative;
  ASSERT_GT(drift_pairs, 0);
  const double detection =
      static_cast<double>(true_positive) / static_cast<double>(drift_pairs);
  EXPECT_GE(detection, 0.95) << "detected " << true_positive << "/"
                             << drift_pairs << report;
  for (const auto kind : kSweepKinds) {
    EXPECT_GE(applied[kind], static_cast<int>(kSweepSeeds) / 2)
        << scenario::to_string(kind);
  }
}

// ---- streaming: window geometry and state -----------------------------------

TEST(StreamSentinelTest, AdvanceExceedingSpanIsInvalidArgument) {
  SentinelConfig config;
  config.window_span = Duration::ms(400);
  config.window_advance = Duration::ms(800);
  StreamSentinel stream(config);
  const auto verdicts = stream.feed(trace::EventVector{});
  ASSERT_FALSE(verdicts.ok());
  EXPECT_EQ(verdicts.error().code, api::ErrorCode::InvalidArgument);
}

TEST(StreamSentinelTest, NonPositiveSpanIsInvalidArgument) {
  SentinelConfig config;
  config.window_span = Duration::ms(0);
  StreamSentinel stream(config);
  const auto verdicts = stream.feed(trace::EventVector{});
  ASSERT_FALSE(verdicts.ok());
  EXPECT_EQ(verdicts.error().code, api::ErrorCode::InvalidArgument);
}

TEST(StreamSentinelTest, FeedBeforeBaselineIsInvalidArgument) {
  StreamSentinel stream;
  const auto verdicts = stream.feed(trace::EventVector{});
  ASSERT_FALSE(verdicts.ok());
  EXPECT_EQ(verdicts.error().code, api::ErrorCode::InvalidArgument);
}

TEST(StreamSentinelTest, StreamShorterThanOneWindowYieldsNoVerdicts) {
  SentinelConfig config;
  config.window_span = Duration::ms(10000);
  config.window_advance = Duration::ms(1000);
  StreamSentinel stream(config);
  ASSERT_TRUE(
      stream.ingest_baseline_file(data_path("scenario_seed7_trace.jsonl"))
          .ok());
  // The 3s fixture never fills a 10s window: the stream must wait for
  // more data, not emit a truncated verdict.
  const auto verdicts =
      stream.feed_file(data_path("sentinel_seed7_clean.jsonl"));
  ASSERT_TRUE(verdicts.ok()) << verdicts.error().to_string();
  EXPECT_TRUE(verdicts->empty());
  EXPECT_EQ(stream.windows_advanced(), 0u);
}

// ---- streaming: baseline auto-refresh hysteresis ----------------------------

TEST(StreamSentinelTest, BaselineAutoRefreshFiresAfterHysteresis) {
  const scenario::ScenarioGenerator generator(sweep_options());
  const scenario::ScenarioRunner runner;
  // First seed whose retime-timer mutation applies: the mutant stream
  // shows a period delta in every window (clean-but-shifted) without
  // structural drift.
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    const scenario::Scenario scen = generator.generate(seed);
    const scenario::MutationResult mutant =
        generator.mutate(scen.spec, seed, scenario::MutationKind::RetimeTimer);
    if (!mutant.applied) continue;

    SentinelConfig config;
    config.refresh_after = 3;
    // Neutralize every sequential alarm so the windows stay
    // clean-but-shifted: auto-refresh must never absorb alarmed drift.
    config.evidence_alpha = 1e-30;
    config.structural_hits = 1000;
    config.cusum_threshold_fraction = 1e9;

    StreamSentinel stream(config);
    scenario::ScenarioRunResult baseline = runner.run(scen.spec, 1.0, 0);
    ASSERT_TRUE(stream.ingest_baseline(std::move(baseline.trace)).ok());
    scenario::ScenarioRunResult shifted = runner.run(mutant.spec, 1.0, 1);
    const auto verdicts = stream.feed(std::move(shifted.trace));
    ASSERT_TRUE(verdicts.ok()) << verdicts.error().to_string();
    ASSERT_GE(verdicts->size(), 4u);

    std::size_t refresh_count = 0;
    std::size_t refreshed_at = 0;
    for (const auto& window : *verdicts) {
      EXPECT_FALSE(window.alarmed) << window_verdict_to_json(window);
      if (window.refreshed) {
        ++refresh_count;
        refreshed_at = window.index;
      }
    }
    ASSERT_EQ(refresh_count, 1u) << "stream never refreshed its baseline";
    EXPECT_EQ(stream.refreshes(), 1u);
    // K-1 shifted windows arm the hysteresis, the K-th fires it.
    EXPECT_GE(refreshed_at, config.refresh_after - 1);
    // Against the refolded baseline the shifted stream reads clean.
    bool clean_after = false;
    for (const auto& window : *verdicts) {
      if (window.index > refreshed_at && !window.window_drifted) {
        clean_after = true;
      }
    }
    EXPECT_TRUE(clean_after);
    return;
  }
  FAIL() << "no seed produced an applicable retime-timer mutant";
}

// ---- streaming labeled sweep ------------------------------------------------

// Disjoint 500ms windows: small enough that the per-window KS is
// sample-starved (min_samples = 8) while the sequential accumulators
// still see every window — the regime the streaming sentinel exists for.
SentinelConfig stream_sweep_config() {
  SentinelConfig config;
  config.window_span = Duration::ms(500);
  config.window_advance = Duration::ms(500);
  config.rebase_segments = true;
  return config;
}

TimePoint last_event_time(const trace::EventVector& events) {
  TimePoint last;
  for (const auto& event : events) last = std::max(last, event.time);
  return last;
}

TEST(StreamSentinelSweepTest, DetectsMidStreamMutantsWithoutFalseAlarms) {
  const scenario::ScenarioGenerator generator(sweep_options());
  const scenario::ScenarioRunner runner;

  int detected = 0;
  int missed = 0;
  int false_alarms = 0;
  std::size_t latency_windows_sum = 0;
  std::map<scenario::MutationKind, int> applied;
  std::map<scenario::MutationKind, int> sequential_beats_ks;
  std::vector<std::string> failures;

  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    const scenario::Scenario scen = generator.generate(seed);
    trace::EventVector baseline_trace = runner.run(scen.spec, 1.0, 0).trace;
    const trace::EventVector prefix_trace = runner.run(scen.spec, 1.0, 1).trace;

    // Clean stream: two resampled runs of the identical spec fed as
    // rebased segments. No window may ever alarm.
    {
      StreamSentinel stream(stream_sweep_config());
      ASSERT_TRUE(stream.ingest_baseline(baseline_trace).ok());
      trace::EventVector second_trace = runner.run(scen.spec, 1.0, 2).trace;
      for (trace::EventVector segment :
           {prefix_trace, std::move(second_trace)}) {
        const auto verdicts = stream.feed(std::move(segment));
        ASSERT_TRUE(verdicts.ok()) << verdicts.error().to_string();
        for (const auto& window : *verdicts) {
          if (window.alarmed) {
            ++false_alarms;
            failures.push_back("seed " + std::to_string(seed) +
                               " clean-stream alarm: " +
                               window_verdict_to_json(window));
          }
        }
      }
    }

    // Mutant streams: one clean segment, then a single-axis mutant run
    // rebased onto its end. The stream must stay quiet before the seam
    // and alarm after it.
    for (const auto kind : kSweepKinds) {
      const scenario::MutationResult mutant =
          generator.mutate(scen.spec, seed, kind);
      if (!mutant.applied) continue;
      ++applied[kind];

      StreamSentinel stream(stream_sweep_config());
      ASSERT_TRUE(stream.ingest_baseline(baseline_trace).ok());
      trace::EventVector clean_segment = prefix_trace;
      const TimePoint seam =
          last_event_time(clean_segment) + stream.config().rebase_gap;

      bool pre_seam_alarm = false;
      auto clean_verdicts = stream.feed(std::move(clean_segment));
      ASSERT_TRUE(clean_verdicts.ok()) << clean_verdicts.error().to_string();
      for (const auto& window : *clean_verdicts) {
        pre_seam_alarm = pre_seam_alarm || window.alarmed;
      }

      scenario::ScenarioRunResult drifted = runner.run(mutant.spec, 1.0, 3);
      auto drift_verdicts = stream.feed(std::move(drifted.trace));
      ASSERT_TRUE(drift_verdicts.ok()) << drift_verdicts.error().to_string();

      bool post_seam_alarm = false;
      bool have_first_post = false;
      bool have_exec_transient = false;
      std::size_t first_post_index = 0;
      std::size_t first_alarm_index = 0;
      std::size_t first_exec_transient_index = 0;
      for (const auto& window : *drift_verdicts) {
        if (!(window.end > seam)) {
          // All-clean data; an alarm here is a false one. Windows
          // straddling the seam count as post-seam — a dropped edge
          // breaks its chain the instant mutant events appear, so a
          // straddling-window alarm is a genuine (early) detection.
          pre_seam_alarm = pre_seam_alarm || window.alarmed;
          continue;
        }
        if (!have_first_post) {
          have_first_post = true;
          first_post_index = window.index;
        }
        if (!have_exec_transient) {
          for (const auto& finding : window.transient) {
            if (finding.kind == DriftKind::ExecTimeShift) {
              have_exec_transient = true;
              first_exec_transient_index = window.index;
              break;
            }
          }
        }
        if (window.alarmed && !post_seam_alarm) {
          post_seam_alarm = true;
          first_alarm_index = window.index;
        }
      }

      if (pre_seam_alarm) {
        ++false_alarms;
        failures.push_back("seed " + std::to_string(seed) + " " +
                           std::string(scenario::to_string(kind)) +
                           " alarmed before the seam");
      }
      if (post_seam_alarm) {
        ++detected;
        latency_windows_sum += first_alarm_index - first_post_index;
        // Sequential evidence beats the per-window KS when it alarms in
        // a stream where the per-window test never fired, or no later
        // than its first firing.
        if (!have_exec_transient ||
            first_alarm_index <= first_exec_transient_index) {
          ++sequential_beats_ks[kind];
        }
      } else {
        ++missed;
        failures.push_back("seed " + std::to_string(seed) + " missed " +
                           std::string(scenario::to_string(kind)) + " (" +
                           mutant.description + ")");
      }
    }
  }

  std::string report;
  for (const auto& failure : failures) report += "\n  " + failure;
  const int drift_streams = detected + missed;
  ASSERT_GT(drift_streams, 0);
  std::printf("streaming sweep: detected=%d missed=%d false_alarms=%d "
              "mean_latency=%.2f windows\n",
              detected, missed, false_alarms,
              detected > 0 ? static_cast<double>(latency_windows_sum) /
                                 static_cast<double>(detected)
                           : 0.0);

  // Acceptance: zero false alarms anywhere, >= 95% detection, prompt
  // detection, and sequential evidence beating the per-window KS for the
  // exec-time axis (the ISSUE's headline claim).
  EXPECT_EQ(false_alarms, 0) << report;
  const double detection =
      static_cast<double>(detected) / static_cast<double>(drift_streams);
  EXPECT_GE(detection, 0.95) << "detected " << detected << "/" << drift_streams
                             << report;
  if (detected > 0) {
    const double mean_latency = static_cast<double>(latency_windows_sum) /
                                static_cast<double>(detected);
    EXPECT_LE(mean_latency, 4.0);
  }
  EXPECT_GE(sequential_beats_ks[scenario::MutationKind::ScaleExecTime], 1);
  for (const auto kind : kSweepKinds) {
    EXPECT_GE(applied[kind], static_cast<int>(kSweepSeeds) / 2)
        << scenario::to_string(kind);
  }
}

// ---- seed-7 golden verdict --------------------------------------------------

class SentinelGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(sentinel_
                    .ingest_baseline_file(
                        data_path("scenario_seed7_trace.jsonl"))
                    .ok());
  }
  ModelSentinel sentinel_;
};

TEST_F(SentinelGoldenTest, CleanWindowIsClean) {
  const auto verdict =
      sentinel_.check_file(data_path("sentinel_seed7_clean.jsonl"));
  ASSERT_TRUE(verdict.ok()) << verdict.error().to_string();
  EXPECT_FALSE(verdict->drifted) << verdict_to_json(*verdict);
  EXPECT_TRUE(verdict->findings.empty());
  EXPECT_GT(verdict->checks, 0u);
  EXPECT_EQ(sentinel_.windows_checked(), 1u);
}

TEST_F(SentinelGoldenTest, DriftWindowMatchesGoldenVerdict) {
  const auto verdict =
      sentinel_.check_file(data_path("sentinel_seed7_drift.jsonl"));
  ASSERT_TRUE(verdict.ok()) << verdict.error().to_string();
  EXPECT_TRUE(verdict->drifted);
  std::string golden = read_file(data_path("sentinel_seed7_verdict.json"));
  if (!golden.empty() && golden.back() == '\n') golden.pop_back();
  EXPECT_EQ(verdict_to_json(*verdict), golden);
}

TEST_F(SentinelGoldenTest, DeadlineViolationFiresOnConfiguredChain) {
  // The drifted window's service chain mean moved to ~1.8ms; a 1ms
  // deadline on that chain must raise DeadlineViolation on top of the
  // envelope finding.
  SentinelOptions options;
  options.chain_deadlines["/svc0Request -> /svc0Reply"] = Duration::ms(1);
  ModelSentinel strict(options);
  ASSERT_TRUE(
      strict.ingest_baseline_file(data_path("scenario_seed7_trace.jsonl"))
          .ok());
  const auto verdict =
      strict.check_file(data_path("sentinel_seed7_drift.jsonl"));
  ASSERT_TRUE(verdict.ok()) << verdict.error().to_string();
  bool deadline_finding = false;
  for (const auto& finding : verdict->findings) {
    deadline_finding =
        deadline_finding || finding.kind == DriftKind::DeadlineViolation;
  }
  EXPECT_TRUE(deadline_finding) << verdict_to_json(*verdict);
}

TEST(SentinelTtbGoldenTest, TtbTwinsRenderTheGoldenVerdict) {
  // check_file uses a time-sorted .ttb window from its mapped columns and
  // decodes a JSONL window to rows; the .ttb twins of the golden baseline
  // and drift window must render the JSONL golden verdict byte for byte.
  const auto ttb_twin = [](const std::string& name) {
    const std::string path = ::testing::TempDir() + name + ".ttb";
    trace::write_ttb_file(path,
                          trace::read_jsonl_file(data_path(name + ".jsonl")));
    return path;
  };
  const std::string baseline = ttb_twin("scenario_seed7_trace");
  const std::string window = ttb_twin("sentinel_seed7_drift");
  ModelSentinel sentinel;
  ASSERT_TRUE(sentinel.ingest_baseline_file(baseline).ok());
  const auto verdict = sentinel.check_file(window);
  ASSERT_TRUE(verdict.ok()) << verdict.error().to_string();
  std::string golden = read_file(data_path("sentinel_seed7_verdict.json"));
  if (!golden.empty() && golden.back() == '\n') golden.pop_back();
  EXPECT_EQ(verdict_to_json(*verdict), golden);
  std::remove(baseline.c_str());
  std::remove(window.c_str());
}

// ---- stream paths: rows and .ttb feeds agree with recorded verdicts ---------

// Each case feeds the same batches twice — as rows through feed() and as
// .ttb files through feed_file() — and both verdict streams must equal the
// lines recorded in tests/data/sentinel_stream_<case>.jsonl. The cases
// cover the stream buffer's gap skip, late-event drop, overlapping-batch
// merge and baseline-refresh fold. The recordings are the rows feed's
// lines of each case; re-record them only after an intentional verdict
// change.

trace::EventVector fixture_events(const std::string& name) {
  return trace::read_jsonl_file(data_path(name));
}

/// Rows of `events` with time in [from_ms, to_ms), in trace order.
trace::EventVector rows_between(const trace::EventVector& events,
                                double from_ms, double to_ms) {
  const TimePoint from = TimePoint{} + Duration::ms_f(from_ms);
  const TimePoint to = TimePoint{} + Duration::ms_f(to_ms);
  trace::EventVector out;
  for (const auto& event : events) {
    if (event.time >= from && event.time < to) out.push_back(event);
  }
  return out;
}

std::string verdict_lines(const std::vector<WindowVerdict>& verdicts) {
  std::string lines;
  for (const auto& verdict : verdicts) {
    lines += window_verdict_to_json(verdict);
    lines += '\n';
  }
  return lines;
}

struct StreamRun {
  std::string lines;
  std::size_t skipped_empty = 0;
  std::size_t late_events = 0;
  std::size_t refreshes = 0;
};

/// Feeds `batches` into a fresh stream over the seed-7 baseline, as rows
/// or (via_ttb) as one .ttb file per batch.
StreamRun run_stream(const SentinelConfig& config,
                     const std::vector<trace::EventVector>& batches,
                     bool via_ttb) {
  StreamRun run;
  StreamSentinel stream(config);
  EXPECT_TRUE(
      stream.ingest_baseline_file(data_path("scenario_seed7_trace.jsonl"))
          .ok());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    api::Result<std::vector<WindowVerdict>> verdicts =
        std::vector<WindowVerdict>{};
    if (via_ttb) {
      const std::string path = ::testing::TempDir() + "stream_batch_" +
                               std::to_string(i) + ".ttb";
      trace::write_ttb_file(path, batches[i]);
      verdicts = stream.feed_file(path);
      std::remove(path.c_str());
    } else {
      verdicts = stream.feed(batches[i]);
    }
    EXPECT_TRUE(verdicts.ok()) << verdicts.error().to_string();
    if (verdicts.ok()) run.lines += verdict_lines(verdicts.value());
  }
  run.skipped_empty = stream.windows_skipped_empty();
  run.late_events = stream.late_events();
  run.refreshes = stream.refreshes();
  return run;
}

/// Runs both feeds and checks them against each other and the recording.
StreamRun expect_recorded_stream(const SentinelConfig& config,
                                 const std::vector<trace::EventVector>& batches,
                                 const std::string& golden) {
  const StreamRun rows = run_stream(config, batches, false);
  const StreamRun files = run_stream(config, batches, true);
  EXPECT_FALSE(rows.lines.empty());
  EXPECT_EQ(files.lines, rows.lines);
  EXPECT_EQ(rows.lines, read_file(data_path(golden)));
  EXPECT_EQ(files.skipped_empty, rows.skipped_empty);
  EXPECT_EQ(files.late_events, rows.late_events);
  EXPECT_EQ(files.refreshes, rows.refreshes);
  return rows;
}

SentinelConfig short_window_config() {
  SentinelConfig config;
  config.window_span = Duration::ms(400);
  config.window_advance = Duration::ms(200);
  return config;
}

TEST(StreamPathTest, RebasedGapSkipsEmptyWindows) {
  SentinelConfig config = short_window_config();
  config.rebase_segments = true;
  config.rebase_gap = Duration::ms(1000);
  const StreamRun run = expect_recorded_stream(
      config,
      {fixture_events("sentinel_seed7_clean.jsonl"),
       fixture_events("sentinel_seed7_drift.jsonl")},
      "sentinel_stream_gap.jsonl");
  EXPECT_GT(run.skipped_empty, 0u);
}

TEST(StreamPathTest, LateBatchDropsAndOverlappingBatchMerges) {
  const trace::EventVector clean = fixture_events("sentinel_seed7_clean.jsonl");
  const trace::EventVector drift = fixture_events("sentinel_seed7_drift.jsonl");
  // Batch 1 ends at 900 ms but holds only the even rows of [700, 900);
  // batch 2 brings the odd ones, so it overlaps the buffered tail and
  // must merge into it. Batch 3 starts behind the committed window.
  trace::EventVector first = rows_between(clean, 0, 700);
  trace::EventVector second;
  const trace::EventVector seam = rows_between(clean, 700, 900);
  for (std::size_t i = 0; i < seam.size(); ++i) {
    (i % 2 == 0 ? first : second).push_back(seam[i]);
  }
  const trace::EventVector tail = rows_between(clean, 900, 1200);
  second.insert(second.end(), tail.begin(), tail.end());
  const StreamRun run = expect_recorded_stream(
      short_window_config(), {first, second, rows_between(drift, 500, 1500)},
      "sentinel_stream_late_overlap.jsonl");
  EXPECT_GT(run.late_events, 0u);
}

TEST(StreamPathTest, RefreshFoldsStreamIntoBaseline) {
  SentinelConfig config = short_window_config();
  config.rebase_segments = true;
  config.refresh_after = 2;
  // Keep the shifted windows alarm-free so the hysteresis can fire.
  config.evidence_alpha = 1e-30;
  config.structural_hits = 1000;
  config.cusum_threshold_fraction = 1e9;
  const trace::EventVector drift = fixture_events("sentinel_seed7_drift.jsonl");
  const StreamRun run =
      expect_recorded_stream(config, {drift, drift, drift},
                             "sentinel_stream_refresh.jsonl");
  EXPECT_GT(run.refreshes, 0u);
}

}  // namespace
}  // namespace tetra::sentinel
