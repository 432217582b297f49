#include "bench.hpp"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "scenario/generator.hpp"
#include "scenario/runner.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace tetra;

std::int64_t now_ns() { return telemetry::clock_now(); }

double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss never drops below the high-water mark
  // the process inherited at exec (the launching interpreter's), and
  // clear_refs resets only VmHWM.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ---------------------------------------------------------------------------
// Result line

void Report::put(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

void Report::attempt(bool ok, const std::string& why) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (reported_failures_++ < 5) {
    std::fprintf(stderr, "perfbench: operation failed: %s\n", why.c_str());
  }
}

void Report::incorrect(const std::string& why) {
  if (correct_) std::fprintf(stderr, "perfbench: INCORRECT: %s\n", why.c_str());
  correct_ = false;
}

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value] = metrics_[i];
    char number[64];
    std::snprintf(number, sizeof number, "%.12g",
                  std::isfinite(value) ? value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + name + "\": " + number;
  }
  out += "}}";
  return out;
}

std::string Report::to_text(const std::string& workload) const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "%s: %llu operations, %llu failed, outputs %s\n",
                workload.c_str(), static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                correct_ ? "correct" : "INCORRECT");
  out += line;
  for (const auto& [name, value] : metrics_) {
    std::snprintf(line, sizeof line, "  %-40s %16.6g\n", name.c_str(), value);
    out += line;
  }
  return out;
}

EndToEnd::EndToEnd(std::size_t cycle, double setup_s, HostSpeed& speed)
    : cycle_(cycle),
      warmup_((kWarmupOps + cycle - 1) / cycle * cycle),
      setup_s_(setup_s),
      speed_(speed) {
  speed_.calibrate();
}

void EndToEnd::add(double ms, double events) {
  // Warm-up: caches fill and lazy set-up finishes.
  if (seen_++ >= warmup_) {
    at_ns_.push_back(now_ns());
    ms_.push_back(ms);
    events_.push_back(events);
    if (ms_.size() == min_samples()) {
      peak_rss_mb_ = peak_rss_mb() - static_cast<double>(
                                         speed_.resident_bytes()) /
                                         (1024.0 * 1024.0);
    }
  }
  speed_.maybe_calibrate();
}

std::size_t EndToEnd::min_samples() const {
  return (Deadline::kMinSamples + cycle_ - 1) / cycle_ * cycle_;
}

void EndToEnd::report(Report& report) const {
  const std::size_t n = ms_.size() / cycle_ * cycle_;
  if (ms_.size() < min_samples()) {
    throw std::runtime_error("only " + std::to_string(ms_.size()) +
                             " operations were timed");
  }
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = ms_[i] * speed_.scale_at(at_ns_[i]);
  }
  const std::vector<double> wall(ms_.begin(), ms_.begin() +
                                                  static_cast<std::ptrdiff_t>(n));
  const double events = sum({events_.begin(), events_.begin() +
                                                  static_cast<std::ptrdiff_t>(n)});
  const double seconds = std::max(sum(scaled), 1e-6) / 1e3;
  std::fprintf(stderr,
               "perfbench: %zu operations timed after %zu warm-up; "
               "calibration kernel median %.4f ms over %zu runs "
               "(reference %.1f ms)\n"
               "perfbench: wall, unscaled: %.6g results/s, p50 %.6g ms, "
               "p90 %.6g ms\n",
               n, warmup_, speed_.median_kernel_ms(),
               speed_.calibrations(), HostSpeed::kReferenceMs,
               static_cast<double>(n) / (sum(wall) / 1e3),
               percentile(wall, 0.5), percentile(wall, 0.9));
  report.put("results_per_s", static_cast<double>(n) / seconds);
  report.put("events_per_s", events / seconds);
  report.put("result_ms_p50", percentile(scaled, 0.5));
  report.put("result_ms_p90", percentile(scaled, 0.9));
  report.put("peak_rss_mb", peak_rss_mb_);
  report.put("setup_s", setup_s_);
}

// ---------------------------------------------------------------------------
// Closed loop

Deadline::Deadline(double seconds, std::size_t min_samples)
    : start_ns_(now_ns()), seconds_(seconds), min_samples_(min_samples) {}

bool Deadline::done(std::size_t samples) const {
  const double elapsed = ms_between(start_ns_, now_ns()) / 1e3;
  if (elapsed >= seconds_ * kMaxStretch) return true;
  return elapsed >= seconds_ && samples >= min_samples_;
}

// ---------------------------------------------------------------------------
// Set-up

SetupSummary repeat_setup(
    const Options& options, HostSpeed& speed,
    const std::function<SetupTimes(const std::string& dir)>& setup) {
  std::vector<double> total, generate, write, program;
  std::vector<std::int64_t> ended;
  speed.calibrate();
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const fs::path dir = fs::path(options.work_dir) /
                         ("setup-" + std::to_string(repeat));
    fs::remove_all(dir);
    fs::create_directories(dir);
    const SetupTimes times = setup(dir.string());
    ended.push_back(now_ns());
    total.push_back(times.total());
    generate.push_back(times.generate_s);
    write.push_back(times.write_s);
    program.push_back(times.program_s);
    // Only the last repeat's files stay; earlier ones only measured set-up.
    if (repeat + 1 < kSetupRepeats) fs::remove_all(dir);
    speed.calibrate();
  }
  const double wall_s = median(total);
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const double scale = speed.scale_at(ended[repeat]);
    total[repeat] *= scale;
    generate[repeat] *= scale;
    write[repeat] *= scale;
    program[repeat] *= scale;
  }
  std::fprintf(stderr,
               "perfbench: set-up %.3f s at reference speed, %.3f s wall "
               "(median of %d), peak RSS %.1f MiB\n",
               median(total), wall_s, kSetupRepeats, peak_rss_mb());
  // The written inputs and the removed repeats reach the disk now, not as
  // writeback in the middle of the timed operations.
  sync();
  // Operations start from a trimmed heap, and peak_rss_mb covers them
  // alone: the set-up's transient peak (scenario runs, references) is
  // cleared from the high-water mark (VmHWM).
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return {median(total), median(generate), median(write), median(program)};
}

// ---------------------------------------------------------------------------
// Benchmark-side spans

Tracer::Scope::Scope(Tracer& tracer, std::string_view name)
    : tracer_(tracer), index_(tracer.spans_.size()), id_(++tracer.next_id_) {
  Span span;
  span.name = std::string(name);
  span.id = id_;
  span.parent = tracer.open_.empty() ? 0 : tracer.open_.back();
  span.op = tracer.op_;
  tracer.by_id_[id_] = index_;
  tracer.open_.push_back(id_);
  span.start_ns = now_ns();
  tracer.spans_.push_back(std::move(span));
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end_ns = now_ns();
  tracer_.open_.pop_back();
}

void Tracer::adopt(const std::vector<telemetry::SpanRecord>& records,
                   std::uint64_t parent) {
  std::map<std::uint64_t, std::uint64_t> remap;
  for (const auto& record : records) remap[record.id] = ++next_id_;
  for (const auto& record : records) {
    Span span;
    span.name = record.name;
    span.id = remap[record.id];
    const auto it = remap.find(record.parent);
    span.parent = it != remap.end() ? it->second : parent;
    span.op = op_;
    span.start_ns = record.start_ns;
    span.end_ns = record.start_ns + record.wall_ns;
    span.items = record.items;
    by_id_[span.id] = spans_.size();
    spans_.push_back(std::move(span));
  }
}

const Span* Tracer::find(std::uint64_t id) const {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : &spans_[it->second];
}

std::uint64_t Tracer::last_id(std::string_view name) const {
  for (std::size_t i = spans_.size(); i > op_first_; --i) {
    if (spans_[i - 1].name == name) return spans_[i - 1].id;
  }
  return 0;
}

double Tracer::total_ms(std::string_view name) const {
  double total = 0.0;
  for (std::size_t i = op_first_; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += spans_[i].ms();
  }
  return total;
}

std::uint64_t Tracer::total_items(std::string_view name) const {
  std::uint64_t total = 0;
  for (std::size_t i = op_first_; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += spans_[i].items;
  }
  return total;
}

double Tracer::covered_ms(std::uint64_t id, std::string_view name) const {
  const Span* parent = find(id);
  if (parent == nullptr) return 0.0;
  const auto descends = [&](const Span& span) {
    for (const Span* s = &span; s != nullptr && s->parent != 0;
         s = find(s->parent)) {
      if (s->parent == id) return true;
    }
    return false;
  };
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (std::size_t i = op_first_; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.name != name || !descends(span)) continue;
    intervals.emplace_back(std::max(span.start_ns, parent->start_ns),
                           std::min(span.end_ns, parent->end_ns));
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = parent->start_ns;
  for (const auto& [start, end] : intervals) {
    const std::int64_t from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return static_cast<double>(covered) / 1e6;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"op\":" << span.op
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"items\":" << span.items << "}\n";
  }
}

void LayerSamples::add(const std::string& name, double value) {
  samples_[name].push_back(value);
}

std::map<std::string, double> LayerSamples::medians() const {
  std::map<std::string, double> out;
  for (const auto& [name, values] : samples_) out[name] = median(values);
  return out;
}

namespace {
std::uint64_t g_program_spans_dropped = 0;
}  // namespace

void arm_program_spans() {
  auto& recorder = telemetry::SpanRecorder::global();
  if (recorder.capacity() < (1u << 20)) recorder.set_capacity(1u << 20);
  recorder.reset();
}

std::vector<telemetry::SpanRecord> take_program_spans(Report& report) {
  auto& recorder = telemetry::SpanRecorder::global();
  g_program_spans_dropped += recorder.dropped();
  if (recorder.dropped() != 0) {
    report.incorrect("program span ring dropped " +
                     std::to_string(recorder.dropped()) + " spans");
  }
  std::vector<telemetry::SpanRecord> records = recorder.snapshot();
  recorder.reset();
  return records;
}

std::uint64_t program_spans_dropped() { return g_program_spans_dropped; }

std::uint64_t program_counter(const char* name) {
  return telemetry::MetricsRegistry::global().counter(name).value();
}

std::uint64_t program_histogram_count(const char* name,
                                      std::vector<std::int64_t> boundaries) {
  return telemetry::MetricsRegistry::global()
      .histogram(name, std::move(boundaries))
      .count();
}

void finish_traced(Report& report, std::map<std::string, double> values,
                   const SetupSummary& setup,
                   const std::vector<double>& traced_ms,
                   const std::vector<double>& untraced_ms,
                   const Tracer& tracer, const Options& options) {
  values["setup.generate_s"] = setup.generate_s;
  values["setup.write_s"] = setup.write_s;
  values["setup.program_s"] = setup.program_s;
  // Fastest traced cycle against the fastest untraced one; the two kinds
  // alternate, so both see the same host phases.
  const double untraced =
      untraced_ms.empty()
          ? 0.0
          : *std::min_element(untraced_ms.begin(), untraced_ms.end());
  const double traced =
      traced_ms.empty()
          ? 0.0
          : *std::min_element(traced_ms.begin(), traced_ms.end());
  values["telemetry.trace_overhead_ratio"] =
      untraced > 0.0 ? traced / untraced - 1.0 : 0.0;
  values["telemetry.spans_dropped"] =
      static_cast<double>(program_spans_dropped());
  for (const auto& [name, value] : values) report.put(name, value);
  tracer.write(options.spans_out);
}

// ---------------------------------------------------------------------------
// Inputs

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

scenario::ScenarioSpec deployment_spec(std::uint64_t seed,
                                       double run_seconds) {
  scenario::GeneratorOptions dense;
  dense.min_nodes = 6;
  dense.max_nodes = 8;
  dense.min_growth_steps = 16;
  dense.max_growth_steps = 24;
  dense.run_duration = Duration::ms_f(run_seconds * 1e3);
  // The topology is part of the workload definition; the workload seed
  // drives the simulation (execution-time draws, message timing).
  scenario::ScenarioSpec spec =
      scenario::ScenarioGenerator(dense).generate(kDeploymentTopology).spec;
  spec.seed = mix(seed, 1) % 1000003ULL;
  return spec;
}

Fleet generate_fleet(const scenario::ScenarioSpec& spec, int robots,
                     int segments, std::size_t events_per_robot) {
  const scenario::ScenarioRunner runner;
  Fleet fleet;
  for (int robot = 0; robot < robots; ++robot) {
    trace::EventVector run =
        runner.run(spec, 1.0, static_cast<std::uint64_t>(robot)).trace;
    if (run.size() < events_per_robot) {
      std::fprintf(stderr, "perfbench: robot %d recorded only %zu events\n",
                   robot, run.size());
    }
    // A recorder writes its segment files in time order.
    trace::sort_by_time(run);
    run.resize(std::min(run.size(), events_per_robot));
    fleet.events += run.size();
    // The recorder rotates its file every `share` events.
    std::vector<std::size_t> cuts;
    const std::size_t share = run.size() / static_cast<std::size_t>(segments);
    for (int s = 0; s < segments; ++s) {
      cuts.push_back(static_cast<std::size_t>(s) * share);
    }
    cuts.push_back(run.size());
    std::vector<trace::EventVector> pieces;
    for (int s = 0; s < segments; ++s) {
      pieces.emplace_back(run.begin() + static_cast<std::ptrdiff_t>(cuts[s]),
                          run.begin() + static_cast<std::ptrdiff_t>(cuts[s + 1]));
    }
    fleet.robots.push_back(std::move(pieces));
  }
  return fleet;
}

std::string robot_id(std::size_t robot) {
  return "robot-" + std::to_string(robot);
}

std::size_t file_bytes(const std::string& path) {
  return static_cast<std::size_t>(fs::file_size(path));
}

}  // namespace perfbench
