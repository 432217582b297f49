// Process-level regression tests for the CLI exit-code contract:
// tetra_scenario --validate and tetra_predict must report round-trip /
// prediction failures through their exit status even when --quiet
// suppresses every table, and tetra_sentinel must carry its drift
// verdict in the status (0 clean / 1 drift / 2 usage / 3 runtime) — CI
// gates rely on the status alone.
//
// The tests exec the real binaries from the build tree
// (TETRA_BINARY_DIR); they skip when the tools were not built.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "trace/serialize.hpp"

namespace tetra {
namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;  ///< stdout only (stderr carries diagnostics)
};

std::string binary(const std::string& name) {
  return std::string(TETRA_BINARY_DIR) + "/" + name;
}

bool binary_exists(const std::string& name) {
  std::ifstream f(binary(name));
  return f.good();
}

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen((command + " 2>/dev/null").c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

#define REQUIRE_TOOL(name)                                         \
  if (!binary_exists(name)) GTEST_SKIP() << name << " not built "  \
                                         << "(TETRA_BUILD_TOOLS=OFF?)"

TEST(ScenarioCliTest, QuietValidateSucceedsSilently) {
  REQUIRE_TOOL("tetra_scenario");
  const CommandResult result = run_command(
      binary("tetra_scenario") + " --seed 7 --count 2 --validate --quiet");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.output.empty()) << result.output;
}

TEST(ScenarioCliTest, UsageErrorsExitTwo) {
  REQUIRE_TOOL("tetra_scenario");
  EXPECT_EQ(run_command(binary("tetra_scenario") + " --seed 1 --bogus")
                .exit_code,
            2);
  EXPECT_EQ(run_command(binary("tetra_scenario")).exit_code, 2);
}

TEST(PredictCliTest, QuietPredictionSucceedsSilently) {
  REQUIRE_TOOL("tetra_predict");
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  const CommandResult result = run_command(
      binary("tetra_predict") + " --trace " + fixture + " --quiet");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.output.empty()) << result.output;
}

TEST(PredictCliTest, ChainlessPredictionExitsNonZeroEvenQuiet) {
  REQUIRE_TOOL("tetra_predict");
  // A timers-only application has no topic edge, so no chain produces a
  // measurable traversal: the prediction round trip fails and the exit
  // status must say so, --quiet or not (this regressed silently before
  // the status was wired through).
  scenario::ScenarioSpec spec;
  spec.name = "chainless";
  scenario::ScenarioNodeSpec node;
  node.name = "lonely";
  scenario::TimerSpec timer;
  timer.period = Duration::ms(50);
  timer.demand = DurationDistribution::constant(Duration::ms_f(0.2));
  node.timers.push_back(timer);
  spec.nodes.push_back(std::move(node));
  const scenario::ScenarioRunResult run = scenario::ScenarioRunner().run(spec);

  const std::string trace_path = ::testing::TempDir() + "chainless.jsonl";
  trace::write_jsonl_file(trace_path, run.trace);

  const CommandResult loud = run_command(
      binary("tetra_predict") + " --trace " + trace_path);
  EXPECT_EQ(loud.exit_code, 1);
  const CommandResult quiet = run_command(
      binary("tetra_predict") + " --trace " + trace_path + " --quiet");
  EXPECT_EQ(quiet.exit_code, 1);
  EXPECT_TRUE(quiet.output.empty()) << quiet.output;
  std::remove(trace_path.c_str());
}

TEST(PredictCliTest, MissingTraceExitsNonZero) {
  REQUIRE_TOOL("tetra_predict");
  EXPECT_EQ(run_command(binary("tetra_predict") +
                        " --trace /nonexistent/trace.jsonl --quiet")
                .exit_code,
            1);
}

TEST(SentinelCliTest, CleanWindowExitsZero) {
  REQUIRE_TOOL("tetra_sentinel");
  const std::string data = std::string(TETRA_TEST_DATA_DIR);
  const CommandResult result = run_command(
      binary("tetra_sentinel") + " --baseline " + data +
      "/scenario_seed7_trace.jsonl --window " + data +
      "/sentinel_seed7_clean.jsonl --quiet");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.output.empty()) << result.output;
}

TEST(SentinelCliTest, DriftWindowExitsOneEvenQuiet) {
  REQUIRE_TOOL("tetra_sentinel");
  const std::string data = std::string(TETRA_TEST_DATA_DIR);
  const std::string base = binary("tetra_sentinel") + " --baseline " + data +
                           "/scenario_seed7_trace.jsonl --window " + data +
                           "/sentinel_seed7_drift.jsonl";
  const CommandResult loud = run_command(base);
  EXPECT_EQ(loud.exit_code, 1);
  EXPECT_NE(loud.output.find("DRIFT"), std::string::npos) << loud.output;
  const CommandResult quiet = run_command(base + " --quiet");
  EXPECT_EQ(quiet.exit_code, 1);
  EXPECT_TRUE(quiet.output.empty()) << quiet.output;
}

TEST(SentinelCliTest, JsonVerdictMatchesGolden) {
  REQUIRE_TOOL("tetra_sentinel");
  const std::string data = std::string(TETRA_TEST_DATA_DIR);
  const std::string json_path = ::testing::TempDir() + "verdict.json";
  const CommandResult result = run_command(
      binary("tetra_sentinel") + " --baseline " + data +
      "/scenario_seed7_trace.jsonl --window " + data +
      "/sentinel_seed7_drift.jsonl --json " + json_path + " --quiet");
  EXPECT_EQ(result.exit_code, 1);
  std::ifstream produced(json_path, std::ios::binary);
  std::ifstream golden(data + "/sentinel_seed7_verdict.json",
                       std::ios::binary);
  ASSERT_TRUE(produced.good());
  ASSERT_TRUE(golden.good());
  std::stringstream produced_text, golden_text;
  produced_text << produced.rdbuf();
  golden_text << golden.rdbuf();
  EXPECT_EQ(produced_text.str(), golden_text.str());
  std::remove(json_path.c_str());
}

TEST(SentinelCliTest, UsageErrorsExitTwo) {
  REQUIRE_TOOL("tetra_sentinel");
  EXPECT_EQ(run_command(binary("tetra_sentinel")).exit_code, 2);
  EXPECT_EQ(run_command(binary("tetra_sentinel") + " --bogus").exit_code, 2);
  EXPECT_EQ(
      run_command(binary("tetra_sentinel") + " --baseline a.jsonl").exit_code,
      2);
  EXPECT_EQ(run_command(binary("tetra_sentinel") +
                        " --baseline a.jsonl --window b.jsonl --alpha nope")
                .exit_code,
            2);
}

TEST(SentinelCliTest, UnreadableFilesExitThree) {
  REQUIRE_TOOL("tetra_sentinel");
  const std::string data = std::string(TETRA_TEST_DATA_DIR);
  EXPECT_EQ(run_command(binary("tetra_sentinel") +
                        " --baseline /nonexistent/base.jsonl --window " +
                        data + "/sentinel_seed7_clean.jsonl --quiet")
                .exit_code,
            3);
  EXPECT_EQ(run_command(binary("tetra_sentinel") + " --baseline " + data +
                        "/scenario_seed7_trace.jsonl --window "
                        "/nonexistent/window.jsonl --quiet")
                .exit_code,
            3);
}

TEST(SentinelCliTest, TwoBaselinesNeverCrash) {
  // Two independent runs as baselines merge into a cyclic model; the chain
  // enumeration used to recurse until the stack overflowed. Whatever the
  // verdict, the tool must exit with its own status, never a signal.
  REQUIRE_TOOL("tetra_sentinel");
  const std::string data = std::string(TETRA_TEST_DATA_DIR);
  const std::string baselines = " --baseline " + data +
                                "/scenario_seed7_trace.jsonl --baseline " +
                                data + "/sentinel_seed7_clean.jsonl";
  const auto exited_normally = [](int code) {
    return code == 0 || code == 1 || code == 3;
  };
  const int batch = run_command(binary("tetra_sentinel") + baselines +
                                " --window " + data +
                                "/sentinel_seed7_drift.jsonl --quiet")
                        .exit_code;
  EXPECT_TRUE(exited_normally(batch)) << "batch exit " << batch;

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "two_baselines_follow";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::filesystem::copy_file(data + "/sentinel_seed7_clean.jsonl",
                             dir / "000-clean.jsonl");
  const int follow =
      run_command(binary("tetra_sentinel") + baselines + " --follow " +
                  dir.string() + " --span 400 --advance 200 --quiet")
          .exit_code;
  EXPECT_TRUE(exited_normally(follow)) << "--follow exit " << follow;
  std::filesystem::remove_all(dir);
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(SynthCliTest, TtbConversionRoundTripsByteIdentical) {
  REQUIRE_TOOL("tetra_synth");
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  const std::string ttb = ::testing::TempDir() + "cli_seed7.ttb";
  const std::string back = ::testing::TempDir() + "cli_seed7_back.jsonl";
  EXPECT_EQ(run_command(binary("tetra_synth") + " --trace " + fixture +
                        " --to-ttb " + ttb)
                .exit_code,
            0);
  EXPECT_EQ(run_command(binary("tetra_synth") + " --trace " + ttb +
                        " --to-jsonl " + back)
                .exit_code,
            0);
  EXPECT_EQ(slurp(back), slurp(fixture));
  std::remove(ttb.c_str());
  std::remove(back.c_str());
}

TEST(SynthCliTest, TtbTraceSynthesizesLikeJsonl) {
  REQUIRE_TOOL("tetra_synth");
  // Binary ingestion is transparent: synthesizing from the .ttb twin must
  // produce the identical model JSON, with or without --incremental.
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  const std::string ttb = ::testing::TempDir() + "cli_synth.ttb";
  ASSERT_EQ(run_command(binary("tetra_synth") + " --trace " + fixture +
                        " --to-ttb " + ttb)
                .exit_code,
            0);
  const std::string from_jsonl = ::testing::TempDir() + "model_jsonl.json";
  const std::string from_ttb = ::testing::TempDir() + "model_ttb.json";
  ASSERT_EQ(run_command(binary("tetra_synth") + " --trace " + fixture +
                        " --json " + from_jsonl)
                .exit_code,
            0);
  ASSERT_EQ(run_command(binary("tetra_synth") + " --trace " + ttb +
                        " --incremental --json " + from_ttb)
                .exit_code,
            0);
  EXPECT_EQ(slurp(from_ttb), slurp(from_jsonl));
  std::remove(ttb.c_str());
  std::remove(from_jsonl.c_str());
  std::remove(from_ttb.c_str());
}

TEST(SynthCliTest, ConversionUsageErrorsExitTwo) {
  REQUIRE_TOOL("tetra_synth");
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  // Conversion needs exactly one input trace.
  EXPECT_EQ(run_command(binary("tetra_synth") + " --trace " + fixture +
                        " --trace " + fixture + " --to-ttb /tmp/x.ttb")
                .exit_code,
            2);
  EXPECT_EQ(run_command(binary("tetra_synth") + " --to-ttb /tmp/x.ttb")
                .exit_code,
            2);
}

TEST(ScenarioCliTest, TtbOutMatchesTraceOut) {
  REQUIRE_TOOL("tetra_scenario");
  REQUIRE_TOOL("tetra_synth");
  const std::string jsonl = ::testing::TempDir() + "scen.jsonl";
  const std::string ttb = ::testing::TempDir() + "scen.ttb";
  ASSERT_EQ(run_command(binary("tetra_scenario") +
                        " --seed 7 --trace-out " + jsonl + " --ttb-out " +
                        ttb + " --quiet")
                .exit_code,
            0);
  const std::string back = ::testing::TempDir() + "scen_back.jsonl";
  ASSERT_EQ(run_command(binary("tetra_synth") + " --trace " + ttb +
                        " --to-jsonl " + back)
                .exit_code,
            0);
  EXPECT_EQ(slurp(back), slurp(jsonl));
  std::remove(jsonl.c_str());
  std::remove(ttb.c_str());
  std::remove(back.c_str());
}

TEST(SentinelCliTest, FollowMatchesGoldenForJsonlAndTtbSegments) {
  // The streaming verdict lines over the clean-then-drift segment layout
  // are pinned by tests/data/sentinel_seed7_follow.jsonl. The same
  // segments converted to .ttb take the columnar feed path and must
  // produce the same bytes.
  REQUIRE_TOOL("tetra_sentinel");
  REQUIRE_TOOL("tetra_synth");
  namespace fs = std::filesystem;
  const std::string data = std::string(TETRA_TEST_DATA_DIR);
  const fs::path root = fs::path(::testing::TempDir()) / "follow_golden";
  fs::remove_all(root);
  fs::create_directories(root / "jsonl");
  fs::create_directories(root / "ttb");
  const std::pair<const char*, const char*> segments[] = {
      {"000-clean", "sentinel_seed7_clean.jsonl"},
      {"001-drift", "sentinel_seed7_drift.jsonl"}};
  for (const auto& [name, fixture] : segments) {
    fs::copy_file(data + "/" + fixture,
                  root / "jsonl" / (std::string(name) + ".jsonl"));
    ASSERT_EQ(run_command(binary("tetra_synth") + " --trace " + data + "/" +
                          fixture + " --to-ttb " +
                          (root / "ttb" / (std::string(name) + ".ttb"))
                              .string())
                  .exit_code,
              0);
  }
  const std::string golden = slurp(data + "/sentinel_seed7_follow.jsonl");
  ASSERT_FALSE(golden.empty());
  for (const char* layout : {"jsonl", "ttb"}) {
    const std::string out = (root / (std::string(layout) + ".out")).string();
    const int code =
        run_command(binary("tetra_sentinel") + " --baseline " + data +
                    "/scenario_seed7_trace.jsonl --follow " +
                    (root / layout).string() +
                    " --span 400 --advance 200 --out " + out + " --quiet")
            .exit_code;
    EXPECT_EQ(code, 1) << layout;  // the drift segment alarms
    EXPECT_EQ(slurp(out), golden) << layout;
  }
  fs::remove_all(root);
}

TEST(ScenarioCliTest, StatsSnapshotIsDeterministicUnderSimClock) {
  REQUIRE_TOOL("tetra_scenario");
  // Two identical seeded runs under TETRA_STATS_CLOCK=sim must write
  // byte-identical telemetry snapshots — the CI determinism property.
  const std::string first = ::testing::TempDir() + "stats1.json";
  const std::string second = ::testing::TempDir() + "stats2.json";
  const std::string base = "TETRA_STATS_CLOCK=sim " + binary("tetra_scenario") +
                           " --seed 7 --validate --shards 2 --quiet";
  ASSERT_EQ(run_command(base + " --stats-out " + first).exit_code, 0);
  ASSERT_EQ(run_command(base + " --stats-out " + second).exit_code, 0);
  const std::string snapshot = slurp(first);
  EXPECT_EQ(snapshot, slurp(second));
  EXPECT_FALSE(snapshot.empty());
  // The instrumented run must actually report: ingested segments, the
  // per-shard queue gauges and the synthesis span tree.
  EXPECT_NE(snapshot.find("\"session.segments_ingested\":"),
            std::string::npos);
  EXPECT_NE(snapshot.find("ingest.queue_depth{shard=1}"), std::string::npos);
  EXPECT_NE(snapshot.find("\"name\":\"session.model\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"name\":\"synth.extract\""), std::string::npos);
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(SynthCliTest, LenientSkipsMalformedLines) {
  REQUIRE_TOOL("tetra_synth");
  // A corrupt line fails the strict parser but is skipped (and counted in
  // trace.jsonl_malformed_skipped) under --lenient.
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  const std::string corrupt = ::testing::TempDir() + "corrupt.jsonl";
  {
    std::ofstream out(corrupt, std::ios::binary);
    out << slurp(fixture);
    out << "this is not json\n";
  }
  EXPECT_EQ(run_command(binary("tetra_synth") + " --trace " + corrupt)
                .exit_code,
            1);
  EXPECT_EQ(run_command(binary("tetra_synth") + " --trace " + corrupt +
                        " --lenient")
                .exit_code,
            0);
  std::remove(corrupt.c_str());
}

TEST(SynthCliTest, StatsEnvDumpsSummaryAtExit) {
  REQUIRE_TOOL("tetra_synth");
  // TETRA_STATS=1 arms an at-exit summary dump on stderr with no flag;
  // regression for the static-destruction-order crash in the handler.
  // The subshell routes stderr (the summary) into the captured stream.
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  const CommandResult result =
      run_command("(TETRA_STATS=1 " + binary("tetra_synth") + " --trace " +
                  fixture + " 2>&1 >/dev/null)");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("== tetra telemetry =="), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("session.segments_ingested"), std::string::npos)
      << result.output;
}

TEST(PredictCliTest, StatsOutWritesSnapshot) {
  REQUIRE_TOOL("tetra_predict");
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  const std::string stats = ::testing::TempDir() + "predict_stats.json";
  ASSERT_EQ(run_command(binary("tetra_predict") + " --trace " + fixture +
                        " --quiet --stats-out " + stats)
                .exit_code,
            0);
  const std::string snapshot = slurp(stats);
  EXPECT_NE(snapshot.find("\"predict.activations\":"), std::string::npos);
  EXPECT_NE(snapshot.find("\"name\":\"predict.replay\""), std::string::npos);
  std::remove(stats.c_str());
}

TEST(SentinelCliTest, StatsOutWritesSnapshot) {
  REQUIRE_TOOL("tetra_sentinel");
  const std::string data = std::string(TETRA_TEST_DATA_DIR);
  const std::string stats = ::testing::TempDir() + "sentinel_stats.json";
  ASSERT_EQ(run_command(binary("tetra_sentinel") + " --baseline " + data +
                        "/scenario_seed7_trace.jsonl --window " + data +
                        "/sentinel_seed7_clean.jsonl --quiet --stats-out " +
                        stats)
                .exit_code,
            0);
  const std::string snapshot = slurp(stats);
  EXPECT_NE(snapshot.find("\"sentinel.windows_checked\":1"),
            std::string::npos);
  EXPECT_NE(snapshot.find("\"name\":\"sentinel.check\""), std::string::npos);
  std::remove(stats.c_str());
}

TEST(PredictCliTest, WorkerSweepRuns) {
  REQUIRE_TOOL("tetra_predict");
  const std::string fixture =
      std::string(TETRA_TEST_DATA_DIR) + "/scenario_seed7_trace.jsonl";
  const CommandResult result = run_command(
      binary("tetra_predict") + " --trace " + fixture +
      " --sweep-workers node0=1,2,4 --objective worst-mean");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("node0@1w"), std::string::npos);
  EXPECT_NE(result.output.find("node0@4w"), std::string::npos);
}

TEST(AllToolsCliTest, HelpUnknownFlagAndMissingValue) {
  // Every tool parses its flags through tools/cli.hpp: --help exits 0,
  // and an unknown flag or a value flag at the end of argv is a usage
  // error (exit 2) before any work starts.
  const std::pair<const char*, const char*> tools[] = {
      {"tetra_synth", "--trace"},
      {"tetra_predict", "--trace"},
      {"tetra_record_demo", "--out"},
      {"tetra_scenario", "--seed"},
      {"tetra_sentinel", "--baseline"}};
  for (const auto& [tool, value_flag] : tools) {
    if (!binary_exists(tool)) continue;
    EXPECT_EQ(run_command(binary(tool) + " --help").exit_code, 0) << tool;
    EXPECT_EQ(run_command(binary(tool) + " --no-such-flag").exit_code, 2)
        << tool;
    EXPECT_EQ(run_command(binary(tool) + " " + value_flag).exit_code, 2)
        << tool;
  }
}

TEST(PredictCliTest, OutOfDomainValuesExitTwo) {
  // Most of these used to be accepted: a zero period never fires, a
  // negative scale ranks as the best candidate, LO > HI or a negative
  // hop bound failed mid-replay, and atoi read "2x" as 2.
  REQUIRE_TOOL("tetra_predict");
  const std::string base = binary("tetra_predict") + " --trace " +
                           std::string(TETRA_TEST_DATA_DIR) +
                           "/scenario_seed7_trace.jsonl --quiet ";
  const char* bad_values[] = {
      "--timer-period node0/T1=0",   "--timer-period node0/T1=-5",
      "--input-period /tp0=0",       "--sweep-timer node0/T1=0,5",
      "--scale-exec node0/T1=-1",    "--scale-exec-all -0.5",
      "--sweep-exec -1,1",           "--hop-us 500:100",
      "--hop-us -5000:-1000",        "--cpus 2x",
      "--threads 2x",                "--workers node0=2x",
      "--sweep-cpus 1,2x",           "--sweep-workers node0=1,0"};
  for (const char* args : bad_values) {
    EXPECT_EQ(run_command(base + args).exit_code, 2) << args;
  }
}

TEST(PredictCliTest, UnwritableJsonExitsOne) {
  REQUIRE_TOOL("tetra_predict");
  EXPECT_EQ(run_command(binary("tetra_predict") + " --trace " +
                        std::string(TETRA_TEST_DATA_DIR) +
                        "/scenario_seed7_trace.jsonl --quiet --json "
                        "/nonexistent/dir/prediction.json")
                .exit_code,
            1);
}

TEST(SynthCliTest, TrailingJunkInThreadsExitsTwo) {
  REQUIRE_TOOL("tetra_synth");
  EXPECT_EQ(run_command(binary("tetra_synth") + " --trace " +
                        std::string(TETRA_TEST_DATA_DIR) +
                        "/scenario_seed7_trace.jsonl --threads 2x")
                .exit_code,
            2);
}

TEST(RecordDemoCliTest, BadValuesExitTwo) {
  // atoi/strtoull used to read these as 0: nothing recorded (or a run of
  // negative length), exit 0.
  REQUIRE_TOOL("tetra_record_demo");
  const std::string base = binary("tetra_record_demo") + " --out " +
                           ::testing::TempDir() + "record_demo --duration 1 ";
  for (const char* args : {"--runs abc", "--duration -1", "--seed xyz"}) {
    EXPECT_EQ(run_command(base + args).exit_code, 2) << args;
  }
}

}  // namespace
}  // namespace tetra
