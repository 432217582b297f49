// Shared machinery of the pipeline benchmark: run options, the result
// line, latency percentiles, the benchmark's own span tracer, set-up
// timing and the closed-loop deadline.
//
// Every workload runs as one closed-loop caller: the next operation is
// handed over only after the previous result came back. End-to-end
// numbers come from untraced runs; a traced run (--trace 1) records a
// span around each layer call and reports per-layer numbers instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "host_speed.hpp"
#include "scenario/spec.hpp"
#include "telemetry/span.hpp"
#include "trace/event.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir;   ///< generated input files live here
  std::string spans_out;  ///< traced runs write their spans here
};

/// Nanoseconds on the clock the program's own telemetry spans use, so
/// benchmark spans and adopted program spans share one time axis.
std::int64_t now_ns();
double ms_between(std::int64_t start_ns, std::int64_t end_ns);

double median(std::vector<double> values);
/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);
double sum(const std::vector<double>& values);

/// Peak resident set of this process in MiB (VmHWM of /proc/self/status).
/// repeat_setup resets the high-water mark, so after set-up this is the
/// peak of the timed phase.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Result line

class Report {
 public:
  /// Metric units live in perfbench/run.py, which adds them to the result
  /// line it prints.
  void put(const std::string& name, double value);
  /// Counts one attempted operation; `ok == false` counts it as failed.
  void attempt(bool ok, const std::string& why = {});
  /// Marks the whole run incorrect (a broken reference or decomposition).
  void incorrect(const std::string& why);

  /// The one-line JSON object the benchmark prints last on stdout.
  std::string to_json() const;
  /// Human-readable metric lines (stderr).
  std::string to_text(const std::string& workload) const;

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t reported_failures_ = 0;
};

/// Operation samples of an untraced run. One cycle visits every input
/// once. The first whole cycles holding at least kWarmupOps operations are
/// warm-up; the metrics cover the whole cycles recorded after them, so
/// every run measures the same mix of inputs. Each sample is scaled to
/// reference host speed. Peak memory is read once min_samples() operations
/// are recorded, so it covers the same operations on a fast host and a
/// slow one.
class EndToEnd {
 public:
  static constexpr std::size_t kWarmupOps = 20;

  EndToEnd(std::size_t cycle, double setup_s, HostSpeed& speed);
  /// Records one operation that just ended, then calibrates when due.
  void add(double ms, double events);
  /// Recorded operations a run needs: whole cycles, at least kMinSamples.
  std::size_t min_samples() const;
  std::size_t samples() const { return ms_.size(); }
  void report(Report& report) const;

 private:
  std::size_t cycle_;
  std::size_t warmup_;  ///< operations before recording starts
  double setup_s_;
  HostSpeed& speed_;
  std::size_t seen_ = 0;  ///< operations added, warm-up included
  double peak_rss_mb_ = 0.0;
  std::vector<std::int64_t> at_ns_;  ///< when each operation ended
  std::vector<double> ms_;      ///< wall time of each operation
  std::vector<double> events_;  ///< events carried by each operation
};

// ---------------------------------------------------------------------------
// Closed loop

/// Operations are timed until `seconds` have passed and at least
/// `min_samples` results exist. A run whose operations became very slow
/// stops at kMaxStretch x seconds.
class Deadline {
 public:
  /// p90 keeps ten samples beyond it.
  static constexpr std::size_t kMinSamples = 100;
  /// Traced runs report medians only.
  static constexpr std::size_t kMinTracedSamples = 10;
  static constexpr double kMaxStretch = 6.0;

  Deadline(double seconds, std::size_t min_samples);
  bool done(std::size_t samples) const;

 private:
  std::int64_t start_ns_;
  double seconds_;
  std::size_t min_samples_;
};

// ---------------------------------------------------------------------------
// Set-up

/// Wall time of the three set-up steps the workloads share.
struct SetupTimes {
  double generate_s = 0.0;  ///< scenario runs on the simulated substrate
  double write_s = 0.0;     ///< segment files written to disk
  double program_s = 0.0;   ///< baseline/model synthesis and references
  double total() const { return generate_s + write_s + program_s; }
};

/// Runs `setup` kSetupRepeats times into fresh directories and keeps the
/// products of the last repeat. Each repeat is scaled to reference host
/// speed by the calibrations around it; setup_s is the median total.
inline constexpr int kSetupRepeats = 7;
struct SetupSummary {
  double setup_s = 0.0;
  double generate_s = 0.0;
  double write_s = 0.0;
  double program_s = 0.0;
};
SetupSummary repeat_setup(
    const Options& options, HostSpeed& speed,
    const std::function<SetupTimes(const std::string& dir)>& setup);

// ---------------------------------------------------------------------------
// Benchmark-side spans

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< operation the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t items = 0;
  double ms() const { return ms_between(start_ns, end_ns); }
};

class Tracer {
 public:
  /// Starts a new operation; spans opened until the next call share its id.
  void begin_op() {
    ++op_;
    op_first_ = spans_.size();
  }

  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    std::size_t index_;
    std::uint64_t id_;
  };

  /// Program telemetry spans recorded while `parent` was open join the
  /// tree below it (their own parent links are kept among themselves).
  void adopt(const std::vector<tetra::telemetry::SpanRecord>& records,
             std::uint64_t parent);

  const Span* find(std::uint64_t id) const;
  /// Id of the last span named `name` in the current operation, or 0.
  std::uint64_t last_id(std::string_view name) const;

  // Queries below look only at the current operation's spans.

  /// Summed duration of spans named `name`.
  double total_ms(std::string_view name) const;
  /// Summed items of spans named `name`.
  std::uint64_t total_items(std::string_view name) const;
  /// Part of span `id`'s interval covered by the union of its descendants
  /// named `name` (pool threads overlap, so the union, not the sum).
  double covered_ms(std::uint64_t id, std::string_view name) const;

  /// One JSON object per span, written when the run ends.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint64_t> open_;
  std::uint64_t next_id_ = 0;
  std::uint64_t op_ = 0;
  std::size_t op_first_ = 0;  ///< first span of the current operation
  std::map<std::uint64_t, std::size_t> by_id_;
};

/// A span when a tracer is given, nothing otherwise: one code path serves
/// the untraced and the traced run.
class MaybeScope {
 public:
  MaybeScope(Tracer* tracer, std::string_view name) {
    if (tracer != nullptr) scope_.emplace(*tracer, name);
  }
  std::uint64_t id() const { return scope_ ? scope_->id() : 0; }

 private:
  std::optional<Tracer::Scope> scope_;
};

/// Per-operation samples of the per-layer metrics, reported as medians.
class LayerSamples {
 public:
  void add(const std::string& name, double value);
  /// Median of each metric's samples.
  std::map<std::string, double> medians() const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Program telemetry for the traced run: a span ring large enough that
/// nothing is dropped, cleared before each traced operation.
void arm_program_spans();
std::vector<tetra::telemetry::SpanRecord> take_program_spans(Report& report);
/// Program spans dropped by the ring over the run (must stay 0).
std::uint64_t program_spans_dropped();
std::uint64_t program_counter(const char* name);
std::uint64_t program_histogram_count(const char* name,
                                      std::vector<std::int64_t> boundaries);

/// Ends a traced run: reports the per-layer metrics the workload
/// measured — `values`, the set-up split, the tracing overhead (fastest
/// traced cycle over fastest untraced cycle, minus 1) and the dropped-span
/// count — and writes the spans.
void finish_traced(Report& report, std::map<std::string, double> values,
                   const SetupSummary& setup,
                   const std::vector<double>& traced_ms,
                   const std::vector<double>& untraced_ms,
                   const Tracer& tracer, const Options& options);

// ---------------------------------------------------------------------------
// Inputs

/// SplitMix64 step: derives independent sub-seeds from the workload seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

/// ScenarioGenerator seed of the deployment topology (the repository's
/// golden seed); the workload seed never changes the topology.
inline constexpr std::uint64_t kDeploymentTopology = 7;

/// The generated deployment the fleet, live and what-if workloads trace:
/// a dense ScenarioGenerator topology (fixed per workload) whose
/// simulation is seeded from the workload seed.
tetra::scenario::ScenarioSpec deployment_spec(std::uint64_t seed,
                                              double run_seconds);

/// Each robot runs the spec once (run index = robot), keeps the first
/// `events_per_robot` events of its time-sorted run and uploads them as
/// `segments` time-ordered pieces of equal size. Sizes never depend on the
/// seed, so neither do the cost and memory of an operation.
struct Fleet {
  std::vector<std::vector<tetra::trace::EventVector>> robots;
  std::size_t events = 0;
};
Fleet generate_fleet(const tetra::scenario::ScenarioSpec& spec, int robots,
                     int segments, std::size_t events_per_robot);
std::string robot_id(std::size_t robot);
std::size_t file_bytes(const std::string& path);

// ---------------------------------------------------------------------------
// Workloads

void run_fleet(const Options& options, Report& report);
void run_live(const Options& options, Report& report);
void run_sentinel(const Options& options, Report& report);
void run_whatif(const Options& options, Report& report);

}  // namespace perfbench
