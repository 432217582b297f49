// fleet-ttb-batch: the offline fleet path (paper §V). Several robots each
// upload one run as a few time-ordered .ttb segment files; one operation
// is a fresh MergeDags session on a worker pool that ingests every file
// and returns the combined model.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <thread>

#include "api/session.hpp"
#include "bench.hpp"
#include "core/dag_builder.hpp"
#include "core/export.hpp"
#include "core/extract.hpp"
#include "trace/event_view.hpp"
#include "trace/ttb.hpp"

namespace perfbench {

namespace {

using namespace tetra;

constexpr int kRobots = 8;
constexpr int kSegments = 4;
constexpr double kRunSeconds = 5.0;
constexpr std::size_t kEventsPerRobot = 20'000;

int pool_size() {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min(4u, cores));
}

api::SynthesisConfig fleet_config(int threads) {
  return api::SynthesisConfig()
      .merge_strategy(api::MergeStrategy::MergeDags)
      .threads(threads);
}

struct FleetInputs {
  std::vector<std::vector<std::string>> files;  ///< robot -> segment paths
  std::size_t events = 0;
  std::string reference;  ///< to_json of the single-thread in-memory model
};

SetupTimes setup_fleet(const Options& options, const std::string& dir,
                       FleetInputs& inputs) {
  SetupTimes times;
  std::int64_t t = now_ns();
  const Fleet fleet = generate_fleet(deployment_spec(options.seed, kRunSeconds),
                                     kRobots, kSegments, kEventsPerRobot);
  times.generate_s = ms_between(t, now_ns()) / 1e3;

  t = now_ns();
  inputs = {};
  inputs.events = fleet.events;
  for (std::size_t r = 0; r < fleet.robots.size(); ++r) {
    inputs.files.emplace_back();
    for (std::size_t s = 0; s < fleet.robots[r].size(); ++s) {
      const std::string path = (std::filesystem::path(dir) /
                                (robot_id(r) + "-seg" + std::to_string(s) +
                                 ".ttb"))
                                   .string();
      trace::write_ttb_file(path, fleet.robots[r][s]);
      inputs.files.back().push_back(path);
    }
  }
  times.write_s = ms_between(t, now_ns()) / 1e3;

  t = now_ns();
  api::SynthesisSession reference(fleet_config(1));
  for (std::size_t r = 0; r < fleet.robots.size(); ++r) {
    for (const auto& segment : fleet.robots[r]) {
      reference.ingest(segment, {.trace_id = robot_id(r), .mode = ""});
    }
  }
  inputs.reference = core::to_json(reference.model().value().dag);
  times.program_s = ms_between(t, now_ns()) / 1e3;
  return times;
}

/// One fleet pass through the public session API.
api::Result<core::TimingModel> fleet_pass(const FleetInputs& inputs,
                                          int threads, Tracer* tracer,
                                          Report& report) {
  api::SynthesisSession session(fleet_config(threads));
  for (std::size_t r = 0; r < inputs.files.size(); ++r) {
    for (const std::string& path : inputs.files[r]) {
      MaybeScope span(tracer, "api.ingest");
      auto ingested =
          session.ingest_file(path, {.trace_id = robot_id(r), .mode = ""});
      if (!ingested.ok()) return ingested.error();
    }
  }
  std::optional<api::Result<core::TimingModel>> model;
  std::uint64_t model_span = 0;
  {
    MaybeScope span(tracer, "api.model");
    model.emplace(session.model());
    model_span = span.id();
  }
  if (tracer != nullptr) tracer->adopt(take_program_spans(report), model_span);
  return std::move(*model);
}

/// The same pass decomposed into the layer calls the session makes:
/// TtbReader -> materialize -> TraceIndex::append -> extract -> build_dag
/// per robot, then Dag::merge. Returns the combined model's JSON.
std::string decompose_fleet(const FleetInputs& inputs, Tracer& tracer) {
  Tracer::Scope top(tracer, "decompose");
  const core::SynthesisOptions options = fleet_config(1).core_options();
  std::vector<core::Dag> dags;
  for (const auto& files : inputs.files) {
    core::TraceIndex index;
    for (const std::string& path : files) {
      std::optional<trace::TtbReader> reader;
      {
        Tracer::Scope span(tracer, "trace.ttb_open");
        reader.emplace(path);
      }
      trace::EventVector events;
      {
        Tracer::Scope span(tracer, "trace.ttb_materialize");
        events = reader->materialize();
      }
      if (!trace::is_time_sorted(events)) trace::sort_by_time(events);
      Tracer::Scope span(tracer, "core.index");
      index.append(events);
    }
    std::vector<core::CallbackList> lists;
    {
      Tracer::Scope span(tracer, "core.extract");
      lists = core::extract_all_nodes(index, options.extract);
      core::merge_worker_lists(lists);
      core::normalize_labels(lists);
    }
    Tracer::Scope span(tracer, "core.build");
    dags.push_back(core::build_dag(lists, options.dag));
  }
  core::Dag combined;
  {
    Tracer::Scope span(tracer, "core.dag_merge");
    if (dags.size() == 1) {
      combined = dags.front();
    } else {
      for (const core::Dag& dag : dags) combined.merge(dag);
    }
  }
  return core::to_json(combined);
}

void check(const api::Result<core::TimingModel>& model,
           const std::string& reference, Report& report) {
  if (!model.ok()) {
    report.attempt(false, model.error().to_string());
  } else {
    report.attempt(core::to_json(model.value().dag) == reference,
                   "fleet model differs from the single-thread reference");
  }
}

}  // namespace

void run_fleet(const Options& options, Report& report) {
  FleetInputs inputs;
  const int threads = pool_size();
  HostSpeed speed;
  const SetupSummary setup =
      repeat_setup(options, speed, [&](const std::string& dir) {
        return setup_fleet(options, dir, inputs);
      });

  if (!options.trace) {
    EndToEnd e2e(1, setup.setup_s, speed);
    const Deadline deadline(options.seconds, e2e.min_samples());
    while (!deadline.done(e2e.samples())) {
      const std::int64_t start = now_ns();
      const auto model = fleet_pass(inputs, threads, nullptr, report);
      const double ms = ms_between(start, now_ns());
      e2e.add(ms, static_cast<double>(inputs.events));
      check(model, inputs.reference, report);
    }
    e2e.report(report);
    return;
  }

  // Traced run: untraced and traced passes alternate; only the traced
  // ones are decomposed.
  Tracer tracer;
  LayerSamples layers;
  std::vector<double> traced_ms, untraced_ms;
  arm_program_spans();
  const Deadline deadline(options.seconds, Deadline::kMinTracedSamples);
  while (!deadline.done(traced_ms.size())) {
    {
      const std::int64_t start = now_ns();
      const auto model = fleet_pass(inputs, threads, nullptr, report);
      untraced_ms.push_back(ms_between(start, now_ns()));
      check(model, inputs.reference, report);
    }
    tracer.begin_op();
    arm_program_spans();
    const std::uint64_t hits = program_counter("session.cache_hits");
    const std::uint64_t rebuilds = program_counter("session.dirty_rebuilds");
    std::optional<api::Result<core::TimingModel>> model;
    std::uint64_t op_span = 0;
    {
      Tracer::Scope op(tracer, "fleet.pass");
      op_span = op.id();
      model.emplace(fleet_pass(inputs, threads, &tracer, report));
    }
    traced_ms.push_back(tracer.find(op_span)->ms());
    check(*model, inputs.reference, report);
    const double hit_delta =
        static_cast<double>(program_counter("session.cache_hits") - hits);
    const double rebuild_delta = static_cast<double>(
        program_counter("session.dirty_rebuilds") - rebuilds);

    const std::string decomposed = decompose_fleet(inputs, tracer);
    if (!model->ok() || decomposed != core::to_json(model->value().dag)) {
      report.incorrect("decomposed fleet path differs from the session model");
    }

    const double open_ms = tracer.total_ms("trace.ttb_open");
    const double materialize_ms = tracer.total_ms("trace.ttb_materialize");
    const double ingest_ms = tracer.total_ms("api.ingest");
    const double model_ms = tracer.total_ms("api.model");
    const double synth_ms = tracer.total_ms("synth.trace");
    const std::uint64_t model_span = tracer.last_id("api.model");
    const double workers =
        std::min<double>(threads, static_cast<double>(inputs.files.size()));
    layers.add("trace.ttb_open_ms", open_ms);
    layers.add("trace.ttb_materialize_ms", materialize_ms);
    layers.add("core.index_ms", tracer.total_ms("core.index"));
    layers.add("core.extract_ms", tracer.total_ms("core.extract"));
    layers.add("core.build_ms", tracer.total_ms("core.build"));
    layers.add("core.dag_merge_ms", tracer.total_ms("core.dag_merge"));
    layers.add("api.ingest_ms", ingest_ms);
    layers.add("api.model_ms", model_ms);
    layers.add("api.self_ms",
               (ingest_ms - open_ms - materialize_ms) +
                   (model_ms - tracer.covered_ms(model_span, "synth.trace")));
    layers.add("api.pool_efficiency",
               model_ms > 0.0 ? synth_ms / (workers * model_ms) : 0.0);
    layers.add("api.cache_hit_ratio",
               hit_delta + rebuild_delta > 0.0
                   ? hit_delta / (hit_delta + rebuild_delta)
                   : 0.0);
  }

  finish_traced(report, layers.medians(), setup, traced_ms, untraced_ms,
                tracer, options);
}

}  // namespace perfbench
