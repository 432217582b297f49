// sentinel-follow: the `tetra_sentinel --follow` path. One baseline run,
// then a long clean stream of per-run .ttb segment files fed through
// StreamSentinel::feed_file with the default overlapping window geometry
// and rebase_segments. One operation is one segment file and all of its
// window verdicts. Every stream restarts (untimed) from the baseline so
// its verdict lines can be compared with the set-up reference.
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "sentinel/stream.hpp"
#include "trace/ttb.hpp"

namespace perfbench {

namespace {

using namespace tetra;

/// ScenarioGenerator seed of the monitored application: the seed the
/// clean-stream false alarms were first reproduced on.
constexpr std::uint64_t kSentinelTopology = 7;
/// Workload seed whose run 0 is the baseline recording.
constexpr std::uint64_t kBaselineSeed = 7;
constexpr double kSegmentSeconds = 2.0;
constexpr int kStreamSegments = 48;

/// The sentinel's KS timing histogram (its boundaries are fixed by the
/// program; repeated here only to look the instance up).
const std::vector<std::int64_t> kKsBoundaries = {
    1'000, 10'000, 100'000, 1'000'000, 10'000'000, 100'000'000};

sentinel::SentinelConfig follow_config() {
  sentinel::SentinelConfig config;  // default span 1 s, advance 0.5 s
  config.rebase_segments = true;
  return config;
}

struct SentinelInputs {
  std::string baseline;
  std::vector<std::string> segments;
  std::vector<std::size_t> segment_events;
  /// Window-verdict lines each segment produced in the reference stream.
  std::vector<std::string> reference;
  std::size_t windows = 0;          ///< per stream
  std::size_t alarmed_windows = 0;  ///< per stream, all false alarms
  std::uint64_t ks_tests = 0;       ///< per stream (traced runs only)
};

std::string verdict_lines(
    const std::vector<sentinel::WindowVerdict>& verdicts) {
  std::string lines;
  for (const auto& verdict : verdicts) {
    lines += sentinel::window_verdict_to_json(verdict);
    lines += '\n';
  }
  return lines;
}

std::unique_ptr<sentinel::StreamSentinel> start_stream(
    const SentinelInputs& inputs) {
  auto stream = std::make_unique<sentinel::StreamSentinel>(follow_config());
  if (!stream->ingest_baseline_file(inputs.baseline).ok() ||
      !stream->baseline_model().ok()) {
    throw std::runtime_error("sentinel baseline set-up failed");
  }
  return stream;
}

SetupTimes setup_sentinel(const Options& options, const std::string& dir,
                          SentinelInputs& inputs) {
  SetupTimes times;
  std::int64_t t = now_ns();
  scenario::GeneratorOptions generator;
  generator.run_duration = Duration::ms_f(kSegmentSeconds * 1e3);
  scenario::ScenarioSpec spec =
      scenario::ScenarioGenerator(generator).generate(kSentinelTopology).spec;
  const scenario::ScenarioRunner runner;
  std::vector<trace::EventVector> runs;
  // The baseline is part of the monitored deployment, like its topology:
  // the same recording for every seed. The seed draws the clean stream.
  spec.seed = mix(kBaselineSeed, 4) % 1000003ULL;
  runs.push_back(runner.run(spec, 1.0, 0).trace);
  spec.seed = mix(options.seed, 4) % 1000003ULL;
  for (int run = 1; run <= kStreamSegments; ++run) {
    runs.push_back(
        runner.run(spec, 1.0, static_cast<std::uint64_t>(run)).trace);
  }
  times.generate_s = ms_between(t, now_ns()) / 1e3;

  t = now_ns();
  inputs = {};
  for (std::size_t run = 0; run < runs.size(); ++run) {
    char name[32];
    std::snprintf(name, sizeof name, "run-%03zu.ttb", run);
    const std::string path = (std::filesystem::path(dir) / name).string();
    trace::write_ttb_file(path, runs[run]);
    if (run == 0) {
      inputs.baseline = path;
    } else {
      inputs.segments.push_back(path);
      inputs.segment_events.push_back(runs[run].size());
    }
  }
  times.write_s = ms_between(t, now_ns()) / 1e3;

  t = now_ns();
  const std::uint64_t ks_before =
      options.trace ? program_histogram_count("sentinel.ks_test_ns",
                                              kKsBoundaries)
                    : 0;
  auto stream = start_stream(inputs);
  for (const std::string& segment : inputs.segments) {
    auto verdicts = stream->feed_file(segment);
    if (!verdicts.ok()) {
      throw std::runtime_error("reference stream failed: " +
                               verdicts.error().to_string());
    }
    inputs.reference.push_back(verdict_lines(verdicts.value()));
    inputs.windows += verdicts.value().size();
    for (const auto& verdict : verdicts.value()) {
      inputs.alarmed_windows += verdict.alarmed ? 1 : 0;
    }
  }
  if (options.trace) {
    inputs.ks_tests =
        program_histogram_count("sentinel.ks_test_ns", kKsBoundaries) -
        ks_before;
  }
  times.program_s = ms_between(t, now_ns()) / 1e3;
  return times;
}

/// Two independent baseline runs into one sentinel — the shape of
/// `tetra_sentinel --baseline a --baseline b`. It is not a timed workload
/// only because it kills the process today, so it runs in a forked child
/// and reports 1 when the child did not finish.
double multi_baseline_crashed(const SentinelInputs& inputs) {
  std::fflush(nullptr);
  const pid_t child = fork();
  if (child < 0) return 0.0;
  if (child == 0) {
    const rlimit no_core{0, 0};
    setrlimit(RLIMIT_CORE, &no_core);
    sentinel::StreamSentinel stream(follow_config());
    const bool ok = stream.ingest_baseline_file(inputs.baseline).ok() &&
                    stream.ingest_baseline_file(inputs.segments[0]).ok() &&
                    stream.feed_file(inputs.segments[1]).ok();
    _exit(ok ? 0 : 3);
  }
  int status = 0;
  for (int waited_ms = 0; waitpid(child, &status, WNOHANG) == 0;
       waited_ms += 10) {
    if (waited_ms > 60'000) {
      kill(child, SIGKILL);
      waitpid(child, &status, 0);
      std::fprintf(stderr, "perfbench: multi-baseline child hung\n");
      return 1.0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Exit codes 0 and 3 are the child's own; anything else is a crash
  // (a signal, or a sanitizer's exit on the overflow).
  const bool finished = WIFEXITED(status) && (WEXITSTATUS(status) == 0 ||
                                              WEXITSTATUS(status) == 3);
  return finished ? 0.0 : 1.0;
}

void check(const api::Result<std::vector<sentinel::WindowVerdict>>& verdicts,
           const std::string& reference, Report& report) {
  if (!verdicts.ok()) {
    report.attempt(false, verdicts.error().to_string());
  } else {
    report.attempt(verdict_lines(verdicts.value()) == reference,
                   "window verdicts differ from the reference stream");
  }
}

}  // namespace

void run_sentinel(const Options& options, Report& report) {
  SentinelInputs inputs;
  HostSpeed speed;
  const SetupSummary setup =
      repeat_setup(options, speed, [&](const std::string& dir) {
        return setup_sentinel(options, dir, inputs);
      });
  std::fprintf(stderr,
               "perfbench: clean stream of %zu segments: %zu of %zu windows "
               "alarmed\n",
               inputs.segments.size(), inputs.alarmed_windows, inputs.windows);

  if (!options.trace) {
    EndToEnd e2e(inputs.segments.size(), setup.setup_s, speed);
    std::unique_ptr<sentinel::StreamSentinel> stream;
    std::size_t k = inputs.segments.size();
    const Deadline deadline(options.seconds, e2e.min_samples());
    while (!deadline.done(e2e.samples())) {
      if (k == inputs.segments.size()) {
        stream = start_stream(inputs);
        k = 0;
      }
      const std::int64_t start = now_ns();
      const auto verdicts = stream->feed_file(inputs.segments[k]);
      const double ms = ms_between(start, now_ns());
      e2e.add(ms, static_cast<double>(inputs.segment_events[k]));
      check(verdicts, inputs.reference[k], report);
      ++k;
    }
    e2e.report(report);
    return;
  }

  // Traced run: whole streams alternate between untraced and traced. The
  // traced stream decomposes feed_file into TtbReader, materialize() and
  // feed(), with the program's window spans adopted below feed().
  Tracer tracer;
  LayerSamples layers;
  std::vector<double> traced_ms, untraced_ms;
  arm_program_spans();
  const Deadline deadline(options.seconds, Deadline::kMinTracedSamples);
  std::size_t traced_ops = 0;
  double synthesized_events = 0.0;
  double fed_events = 0.0;
  while (!deadline.done(traced_ops)) {
    auto plain = start_stream(inputs);
    double stream_ms = 0.0;
    for (std::size_t k = 0; k < inputs.segments.size(); ++k) {
      const std::int64_t start = now_ns();
      const auto verdicts = plain->feed_file(inputs.segments[k]);
      stream_ms += ms_between(start, now_ns());
      check(verdicts, inputs.reference[k], report);
    }
    untraced_ms.push_back(stream_ms);

    auto stream = start_stream(inputs);
    stream_ms = 0.0;
    for (std::size_t k = 0; k < inputs.segments.size(); ++k) {
      tracer.begin_op();
      arm_program_spans();
      std::optional<api::Result<std::vector<sentinel::WindowVerdict>>>
          verdicts;
      std::uint64_t op_span = 0;
      std::uint64_t feed_span = 0;
      {
        Tracer::Scope op(tracer, "sentinel.feed_file");
        op_span = op.id();
        std::optional<trace::TtbReader> reader;
        {
          Tracer::Scope span(tracer, "trace.ttb_open");
          reader.emplace(inputs.segments[k]);
        }
        trace::EventVector events;
        {
          Tracer::Scope span(tracer, "trace.ttb_materialize");
          events = reader->materialize();
        }
        Tracer::Scope span(tracer, "sentinel.feed");
        feed_span = span.id();
        verdicts.emplace(stream->feed(std::move(events)));
      }
      tracer.adopt(take_program_spans(report), feed_span);
      const double feed_ms = tracer.find(op_span)->ms();
      stream_ms += feed_ms;
      check(*verdicts, inputs.reference[k], report);

      const double open_ms = tracer.total_ms("trace.ttb_open");
      const double materialize_ms = tracer.total_ms("trace.ttb_materialize");
      layers.add("trace.ttb_open_ms", open_ms);
      layers.add("trace.ttb_materialize_ms", materialize_ms);
      layers.add("core.index_ms", tracer.total_ms("synth.merge"));
      layers.add("core.extract_ms", tracer.total_ms("synth.extract"));
      layers.add("core.build_ms", tracer.total_ms("synth.build"));
      layers.add("sentinel.feed_ms", feed_ms);
      layers.add("sentinel.window_synth_ms", tracer.total_ms("synth.trace"));
      layers.add("sentinel.self_ms",
                 feed_ms - open_ms - materialize_ms -
                     tracer.covered_ms(feed_span, "synth.trace"));
      synthesized_events +=
          static_cast<double>(tracer.total_items("synth.trace"));
      fed_events += static_cast<double>(inputs.segment_events[k]);
    }
    traced_ms.push_back(stream_ms);
    traced_ops += inputs.segments.size();
  }

  std::map<std::string, double> values = layers.medians();
  values["sentinel.events_synthesized_per_event"] =
      fed_events > 0.0 ? synthesized_events / fed_events : 0.0;
  values["sentinel.windows"] = static_cast<double>(inputs.windows);
  values["sentinel.alarmed_windows"] =
      static_cast<double>(inputs.alarmed_windows);
  values["sentinel.ks_tests"] = static_cast<double>(inputs.ks_tests);
  values["sentinel.multi_baseline_crashed"] = multi_baseline_crashed(inputs);
  finish_traced(report, std::move(values), setup, traced_ms, untraced_ms,
                tracer, options);
}

}  // namespace perfbench
