// live-jsonl-append: the same kind of fleet arrives as JSONL segment
// files, interleaved across robots, into one long-lived incremental
// session. One operation is one append plus the model query after it.
// When every segment has arrived, the next round starts a fresh session
// (untimed) and replays the same arrivals.
#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <optional>

#include "api/session.hpp"
#include "bench.hpp"
#include "core/dag_builder.hpp"
#include "core/export.hpp"
#include "core/extract.hpp"
#include "core/incremental.hpp"
#include "trace/event_view.hpp"
#include "trace/serialize.hpp"

namespace perfbench {

namespace {

using namespace tetra;

constexpr int kRobots = 4;
constexpr int kSegments = 8;
constexpr double kRunSeconds = 8.0;
constexpr std::size_t kEventsPerRobot = 40'000;

api::SynthesisConfig live_config() {
  return api::SynthesisConfig()
      .merge_strategy(api::MergeStrategy::MergeDags)
      .incremental(true);
}

struct Arrival {
  std::size_t robot = 0;
  std::string path;
  std::size_t events = 0;
};

struct LiveInputs {
  std::vector<Arrival> arrivals;
  /// to_json of a full (non-incremental) synthesis after each arrival.
  std::vector<std::string> reference;
};

SetupTimes setup_live(const Options& options, const std::string& dir,
                      LiveInputs& inputs) {
  SetupTimes times;
  std::int64_t t = now_ns();
  const Fleet fleet = generate_fleet(deployment_spec(options.seed, kRunSeconds),
                                     kRobots, kSegments, kEventsPerRobot);
  times.generate_s = ms_between(t, now_ns()) / 1e3;

  // Arrival order: segment by segment, robots in a seeded order per step,
  // so each robot's segments stay time-ordered.
  t = now_ns();
  inputs = {};
  std::vector<const trace::EventVector*> arrived;
  for (int s = 0; s < kSegments; ++s) {
    std::vector<std::size_t> robots(fleet.robots.size());
    for (std::size_t r = 0; r < robots.size(); ++r) robots[r] = r;
    for (std::size_t i = robots.size(); i > 1; --i) {
      const std::uint64_t draw =
          mix(options.seed, 100 + static_cast<std::uint64_t>(s) * 16 + i);
      std::swap(robots[i - 1], robots[draw % i]);
    }
    for (const std::size_t r : robots) {
      const auto& segment = fleet.robots[r][static_cast<std::size_t>(s)];
      const std::string path =
          (std::filesystem::path(dir) /
           (robot_id(r) + "-seg" + std::to_string(s) + ".jsonl"))
              .string();
      trace::write_jsonl_file(path, segment);
      inputs.arrivals.push_back({r, path, segment.size()});
      arrived.push_back(&segment);
    }
  }
  times.write_s = ms_between(t, now_ns()) / 1e3;

  t = now_ns();
  api::SynthesisSession full(
      api::SynthesisConfig().merge_strategy(api::MergeStrategy::MergeDags));
  for (std::size_t k = 0; k < inputs.arrivals.size(); ++k) {
    full.ingest(*arrived[k],
                {.trace_id = robot_id(inputs.arrivals[k].robot), .mode = ""});
    inputs.reference.push_back(core::to_json(full.model().value().dag));
  }
  times.program_s = ms_between(t, now_ns()) / 1e3;
  return times;
}

/// One append plus the model query that follows it.
api::Result<core::TimingModel> append_and_query(api::SynthesisSession& session,
                                                const Arrival& arrival,
                                                Tracer* tracer,
                                                Report& report) {
  {
    MaybeScope span(tracer, "api.ingest");
    auto ingested = session.ingest_file(
        arrival.path, {.trace_id = robot_id(arrival.robot), .mode = ""});
    if (!ingested.ok()) return ingested.error();
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

void check(const api::Result<core::TimingModel>& model,
           const std::string& reference, Report& report) {
  if (!model.ok()) {
    report.attempt(false, model.error().to_string());
  } else {
    report.attempt(core::to_json(model.value().dag) == reference,
                   "incremental model differs from full synthesis");
  }
}

/// The decomposed path of one round: per robot an IncrementalSynthesizer
/// and the parsed segments, plus the last full-path DAG.
struct Decomposition {
  std::vector<std::unique_ptr<core::IncrementalSynthesizer>> incremental;
  std::vector<std::vector<trace::EventVector>> segments;
  std::vector<std::optional<core::Dag>> full_dags;
  std::vector<std::size_t> trace_order;  ///< robots in first-arrival order

  explicit Decomposition(std::size_t robots)
      : incremental(robots), segments(robots), full_dags(robots) {}
};

core::Dag combine(const std::vector<const core::Dag*>& dags) {
  if (dags.size() == 1) return *dags.front();
  core::Dag combined;
  for (const core::Dag* dag : dags) combined.merge(*dag);
  return combined;
}

/// read_jsonl_file -> IncrementalSynthesizer, and read_jsonl_file ->
/// TraceIndex -> extract -> build_dag -> Dag::merge for the same
/// segments. Both must reproduce the session's model byte for byte.
void decompose_append(Decomposition& state, const Arrival& arrival,
                      const std::string& session_json, Tracer& tracer,
                      LayerSamples& layers, Report& report) {
  Tracer::Scope top(tracer, "decompose");
  const core::SynthesisOptions options = live_config().core_options();
  const std::size_t r = arrival.robot;
  trace::EventVector events;
  {
    Tracer::Scope span(tracer, "trace.jsonl_parse");
    events = trace::read_jsonl_file(arrival.path);
  }
  if (!trace::is_time_sorted(events)) trace::sort_by_time(events);
  if (!state.incremental[r]) {
    state.incremental[r] =
        std::make_unique<core::IncrementalSynthesizer>(options);
    state.trace_order.push_back(r);
  }
  core::IncrementalSynthesizer& inc = *state.incremental[r];
  {
    Tracer::Scope span(tracer, "core.incremental_append");
    inc.append(events);
  }
  {
    Tracer::Scope span(tracer, "core.incremental_model");
    inc.model();
  }
  layers.add("core.reextract_ratio",
             static_cast<double>(inc.last_extracted()) /
                 static_cast<double>(std::max<std::size_t>(
                     1, inc.index().nodes().size())));
  state.segments[r].push_back(std::move(events));

  core::TraceIndex index;
  {
    Tracer::Scope span(tracer, "core.index");
    for (const auto& segment : state.segments[r]) index.append(segment);
  }
  std::vector<core::CallbackList> lists;
  {
    Tracer::Scope span(tracer, "core.extract");
    lists = core::extract_all_nodes(index, options.extract);
    core::merge_worker_lists(lists);
    core::normalize_labels(lists);
  }
  {
    Tracer::Scope span(tracer, "core.build");
    state.full_dags[r] = core::build_dag(lists, options.dag);
  }
  std::vector<const core::Dag*> full, incremental;
  for (const std::size_t robot : state.trace_order) {
    full.push_back(&*state.full_dags[robot]);
    incremental.push_back(&state.incremental[robot]->model().dag);
  }
  std::string full_json;
  {
    Tracer::Scope span(tracer, "core.dag_merge");
    full_json = core::to_json(combine(full));
  }
  if (full_json != session_json ||
      core::to_json(combine(incremental)) != session_json) {
    report.incorrect("decomposed live path differs from the session model");
  }
}

}  // namespace

void run_live(const Options& options, Report& report) {
  LiveInputs inputs;
  HostSpeed speed;
  const SetupSummary setup =
      repeat_setup(options, speed, [&](const std::string& dir) {
        return setup_live(options, dir, inputs);
      });

  if (!options.trace) {
    EndToEnd e2e(inputs.arrivals.size(), setup.setup_s, speed);
    std::optional<api::SynthesisSession> session;
    std::size_t k = inputs.arrivals.size();
    const Deadline deadline(options.seconds, e2e.min_samples());
    while (!deadline.done(e2e.samples())) {
      if (k == inputs.arrivals.size()) {
        // A round ends: the session's memory goes back before the next
        // one, so peak_rss_mb is one round's peak, not the heap
        // fragmentation of however many rounds the host allowed.
        session.reset();
        malloc_trim(0);
        session.emplace(live_config());
        k = 0;
      }
      const Arrival& arrival = inputs.arrivals[k];
      const std::int64_t start = now_ns();
      const auto model = append_and_query(*session, arrival, nullptr, report);
      const double ms = ms_between(start, now_ns());
      e2e.add(ms, static_cast<double>(arrival.events));
      check(model, inputs.reference[k], report);
      ++k;
    }
    e2e.report(report);
    return;
  }

  // Traced run: whole rounds alternate between untraced and traced; the
  // traced rounds are also decomposed.
  Tracer tracer;
  LayerSamples layers;
  std::vector<double> traced_ms, untraced_ms;
  arm_program_spans();
  const Deadline deadline(options.seconds, Deadline::kMinTracedSamples);
  std::size_t traced_ops = 0;
  while (!deadline.done(traced_ops)) {
    api::SynthesisSession plain(live_config());
    double round_ms = 0.0;
    for (std::size_t k = 0; k < inputs.arrivals.size(); ++k) {
      const std::int64_t start = now_ns();
      const auto model =
          append_and_query(plain, inputs.arrivals[k], nullptr, report);
      round_ms += ms_between(start, now_ns());
      check(model, inputs.reference[k], report);
    }
    untraced_ms.push_back(round_ms);

    api::SynthesisSession session(live_config());
    Decomposition state(kRobots);
    round_ms = 0.0;
    for (std::size_t k = 0; k < inputs.arrivals.size(); ++k) {
      const Arrival& arrival = inputs.arrivals[k];
      tracer.begin_op();
      arm_program_spans();
      const std::uint64_t hits = program_counter("session.cache_hits");
      const std::uint64_t rebuilds =
          program_counter("session.dirty_rebuilds");
      std::optional<api::Result<core::TimingModel>> model;
      std::uint64_t op_span = 0;
      {
        Tracer::Scope op(tracer, "live.append");
        op_span = op.id();
        model.emplace(append_and_query(session, arrival, &tracer, report));
      }
      round_ms += tracer.find(op_span)->ms();
      check(*model, inputs.reference[k], report);
      const double hit_delta =
          static_cast<double>(program_counter("session.cache_hits") - hits);
      const double rebuild_delta = static_cast<double>(
          program_counter("session.dirty_rebuilds") - rebuilds);
      if (!model->ok()) {
        report.incorrect("session failed; nothing to decompose");
        continue;
      }
      decompose_append(state, arrival, core::to_json(model->value().dag),
                       tracer, layers, report);

      const double parse_ms = tracer.total_ms("trace.jsonl_parse");
      const double ingest_ms = tracer.total_ms("api.ingest");
      const double model_ms = tracer.total_ms("api.model");
      const std::uint64_t model_span = tracer.last_id("api.model");
      layers.add("trace.jsonl_parse_ms", parse_ms);
      layers.add("trace.mb_per_s",
                 parse_ms > 0.0 ? static_cast<double>(file_bytes(arrival.path)) /
                                      1e6 / (parse_ms / 1e3)
                                : 0.0);
      for (const char* name :
           {"core.incremental_append", "core.incremental_model", "core.index",
            "core.extract", "core.build", "core.dag_merge"}) {
        layers.add(std::string(name) + "_ms", tracer.total_ms(name));
      }
      layers.add("api.ingest_ms", ingest_ms);
      layers.add("api.model_ms", model_ms);
      layers.add("api.self_ms",
                 (ingest_ms - parse_ms) +
                     (model_ms - tracer.covered_ms(model_span, "synth.trace")));
      layers.add("api.pool_efficiency",
                 model_ms > 0.0 ? tracer.total_ms("synth.trace") / model_ms
                                : 0.0);
      layers.add("api.cache_hit_ratio",
                 hit_delta + rebuild_delta > 0.0
                     ? hit_delta / (hit_delta + rebuild_delta)
                     : 0.0);
    }
    traced_ms.push_back(round_ms);
    traced_ops += inputs.arrivals.size();
  }

  finish_traced(report, layers.medians(), setup, traced_ms, untraced_ms,
                tracer, options);
}

}  // namespace perfbench
