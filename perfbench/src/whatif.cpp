// whatif-sweep: a model of a dense generated deployment is synthesized at
// set-up; then candidate deployments are predicted one at a time — exec
// scaling, timer periods, worker counts and CPU-budget mappings that
// replay on sched::Machine. One operation is one candidate's prediction.
// No trace or synthesis work is on the timed path.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <set>
#include <stdexcept>

#include "analysis/chains.hpp"
#include "analysis/latency.hpp"
#include "api/session.hpp"
#include "bench.hpp"
#include "predict/model_simulator.hpp"
#include "predict/report.hpp"
#include "predict/what_if.hpp"
#include "scenario/runner.hpp"
#include "trace/ttb.hpp"

namespace perfbench {

namespace {

using namespace tetra;

constexpr double kRunSeconds = 10.0;
/// Simulated horizon of one prediction.
constexpr std::int64_t kHorizonSeconds = 20;

struct Candidate {
  predict::WhatIfCandidate knobs;
  predict::PredictionConfig config;  ///< base config with the knobs applied
  std::string reference;             ///< to_json of its set-up prediction
};

struct WhatIfInputs {
  core::Dag dag;
  std::vector<Candidate> candidates;
};

/// Uniform draw in [0, 1) from the workload seed.
double unit(std::uint64_t seed, std::uint64_t salt) {
  return static_cast<double>(mix(seed, salt) >> 11) * 0x1.0p-53;
}

/// A fixed family of candidates: which vertex or node each one targets
/// is fixed by key order, so every seed sweeps candidates of the same
/// weight; the seed draws the scale factors and the executor sharing.
std::vector<predict::WhatIfCandidate> make_candidates(const core::Dag& dag,
                                                      std::uint64_t seed) {
  std::vector<std::string> timers, callbacks;
  std::set<std::string> node_set;
  for (const auto& vertex : dag.vertices()) {
    if (vertex.is_and_junction) continue;
    callbacks.push_back(vertex.key);
    if (vertex.period.has_value()) timers.push_back(vertex.key);
    if (!vertex.node_name.empty()) node_set.insert(vertex.node_name);
  }
  std::sort(timers.begin(), timers.end());
  std::sort(callbacks.begin(), callbacks.end());
  const std::vector<std::string> nodes(node_set.begin(), node_set.end());
  const auto spread_pick = [](const std::vector<std::string>& from, int i) {
    return from[static_cast<std::size_t>(i) * from.size() / 4];
  };

  std::vector<predict::WhatIfCandidate> out;
  predict::WhatIfCandidate baseline;
  baseline.name = "baseline";
  out.push_back(baseline);
  const double global[] = {0.6, 0.9, 1.2, 1.5};
  const double period[] = {0.5, 0.8, 1.25, 2.0};
  for (int i = 0; i < 4; ++i) {
    predict::WhatIfCandidate c;
    c.name = "exec-all-" + std::to_string(i);
    c.global_exec_scale = global[i] * (0.95 + 0.1 * unit(seed, 10 + i));
    out.push_back(c);
  }
  for (int i = 0; i < 4; ++i) {
    predict::WhatIfCandidate c;
    c.name = "exec-one-" + std::to_string(i);
    c.exec_scale[spread_pick(callbacks, i)] = 1.5 + 1.5 * unit(seed, 30 + i);
    out.push_back(c);
  }
  for (int i = 0; !timers.empty() && i < 4; ++i) {
    predict::WhatIfCandidate c;
    c.name = "period-" + std::to_string(i);
    const std::string& key = spread_pick(timers, i);
    const double scale = period[i] * (0.95 + 0.1 * unit(seed, 50 + i));
    c.timer_period[key] =
        Duration::ms_f(dag.find_vertex(key)->period->to_ms() * scale);
    out.push_back(c);
  }
  for (int i = 0; !nodes.empty() && i < 4; ++i) {
    predict::WhatIfCandidate c;
    c.name = "workers-" + std::to_string(i);
    c.workers[spread_pick(nodes, i)] = 2 + i % 3;
    out.push_back(c);
  }
  // CPU budgets: fewer CPUs than executors, the nodes shared out over a
  // fixed number of executors in a seeded assignment.
  const int cpus[] = {1, 2, 2, 3};
  for (int i = 0; i < 4; ++i) {
    predict::WhatIfCandidate c;
    c.name = "cpus-" + std::to_string(i);
    predict::ExecutorMapping mapping;
    mapping.num_cpus = cpus[i];
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      mapping.executor_of_node[nodes[n]] = static_cast<int>(
          mix(seed, 90 + static_cast<std::uint64_t>(i) * 64 + n) %
          static_cast<std::uint64_t>(i + 2));
    }
    c.executors = mapping;
    out.push_back(c);
  }
  return out;
}

SetupTimes setup_whatif(const Options& options, const std::string& dir,
                        WhatIfInputs& inputs) {
  SetupTimes times;
  std::int64_t t = now_ns();
  const trace::EventVector run =
      scenario::ScenarioRunner()
          .run(deployment_spec(options.seed, kRunSeconds), 1.0, 0)
          .trace;
  times.generate_s = ms_between(t, now_ns()) / 1e3;

  t = now_ns();
  const std::string path = (std::filesystem::path(dir) / "run.ttb").string();
  trace::write_ttb_file(path, run);
  times.write_s = ms_between(t, now_ns()) / 1e3;

  t = now_ns();
  inputs = {};
  api::SynthesisSession session;
  if (!session.ingest_file(path).ok()) {
    throw std::runtime_error("what-if model ingest failed");
  }
  inputs.dag = session.model().value().dag;
  predict::PredictionConfig base;
  base.horizon = Duration::sec(kHorizonSeconds);
  std::uint64_t index = 0;
  for (auto& knobs : make_candidates(inputs.dag, options.seed)) {
    Candidate candidate;
    candidate.config = predict::WhatIfExplorer::apply(base, knobs);
    candidate.config.seed = mix(options.seed, 1000 + index++);
    candidate.knobs = std::move(knobs);
    candidate.reference = predict::to_json(
        predict::ModelSimulator(inputs.dag, candidate.config).predict());
    inputs.candidates.push_back(std::move(candidate));
  }
  times.program_s = ms_between(t, now_ns()) / 1e3;
  return times;
}

/// ModelSimulator::predict() decomposed: chain enumeration, the replay,
/// then the timeline and per-chain latency measurement.
predict::PredictionResult decompose_predict(const core::Dag& dag,
                                            const Candidate& candidate,
                                            Tracer& tracer) {
  const predict::PredictionConfig& config = candidate.config;
  const predict::ModelSimulator simulator(dag, config);
  predict::PredictionResult result;
  result.horizon = config.horizon;
  std::optional<analysis::ChainEnumeration> enumeration;
  {
    Tracer::Scope span(tracer, "analysis.chains");
    enumeration.emplace(analysis::enumerate_chains(dag, config.max_chains));
  }
  result.chains_truncated = enumeration->truncated;
  std::optional<predict::ModelSimulator::Replay> replay;
  {
    Tracer::Scope span(tracer, config.executors ? "predict.replay_contended"
                                                : "predict.replay");
    replay.emplace(simulator.replay());
  }
  result.activations = replay->activations;
  result.deliveries = replay->deliveries;
  Tracer::Scope span(tracer, "analysis.measure");
  const analysis::InstanceTimeline timeline(std::move(replay->instances),
                                            std::move(replay->external_writes));
  for (analysis::Chain& chain : enumeration->chains) {
    const bool pruned =
        std::any_of(chain.begin(), chain.end(), [&](const std::string& key) {
          return config.pruned.count(key) > 0;
        });
    if (pruned) continue;
    std::vector<std::string> topics = analysis::chain_topics(dag, chain);
    if (topics.empty()) continue;
    predict::PredictedChainLatency predicted;
    predicted.latency = analysis::measure_chain_latency(timeline, topics);
    predicted.chain = std::move(chain);
    predicted.topics = std::move(topics);
    result.chains.push_back(std::move(predicted));
  }
  return result;
}

}  // namespace

void run_whatif(const Options& options, Report& report) {
  WhatIfInputs inputs;
  HostSpeed speed;
  const SetupSummary setup =
      repeat_setup(options, speed, [&](const std::string& dir) {
        return setup_whatif(options, dir, inputs);
      });
  const std::size_t count = inputs.candidates.size();

  if (!options.trace) {
    EndToEnd e2e(count, setup.setup_s, speed);
    const Deadline deadline(options.seconds, e2e.min_samples());
    for (std::size_t k = 0; !deadline.done(e2e.samples());
         k = (k + 1) % count) {
      const Candidate& candidate = inputs.candidates[k];
      const std::int64_t start = now_ns();
      const predict::PredictionResult prediction =
          predict::ModelSimulator(inputs.dag, candidate.config).predict();
      const double ms = ms_between(start, now_ns());
      // The replay's callback activations are the events this path
      // carries to its result.
      e2e.add(ms, static_cast<double>(prediction.activations));
      report.attempt(predict::to_json(prediction) == candidate.reference,
                     "prediction of " + candidate.knobs.name +
                         " differs from its set-up reference");
    }
    e2e.report(report);
    return;
  }

  // Traced run: whole sweeps alternate between untraced and decomposed.
  Tracer tracer;
  LayerSamples layers;
  std::vector<double> traced_ms, untraced_ms;
  const Deadline deadline(options.seconds, Deadline::kMinTracedSamples);
  double activations = 0.0;
  double replay_s = 0.0;
  std::size_t traced_ops = 0;
  while (!deadline.done(traced_ops)) {
    double sweep_ms = 0.0;
    for (const Candidate& candidate : inputs.candidates) {
      const std::int64_t start = now_ns();
      const predict::PredictionResult prediction =
          predict::ModelSimulator(inputs.dag, candidate.config).predict();
      sweep_ms += ms_between(start, now_ns());
      report.attempt(predict::to_json(prediction) == candidate.reference,
                     "prediction of " + candidate.knobs.name +
                         " differs from its set-up reference");
    }
    untraced_ms.push_back(sweep_ms);

    sweep_ms = 0.0;
    for (const Candidate& candidate : inputs.candidates) {
      tracer.begin_op();
      std::optional<predict::PredictionResult> prediction;
      std::uint64_t op_span = 0;
      {
        Tracer::Scope op(tracer, "whatif.predict");
        op_span = op.id();
        prediction.emplace(decompose_predict(inputs.dag, candidate, tracer));
      }
      sweep_ms += tracer.find(op_span)->ms();
      const bool same = predict::to_json(*prediction) == candidate.reference;
      report.attempt(same, "decomposed prediction of " +
                               candidate.knobs.name + " differs");
      if (!same) report.incorrect("decomposed predict path differs");

      const bool contended = candidate.config.executors.has_value();
      const double replay_ms = tracer.total_ms(
          contended ? "predict.replay_contended" : "predict.replay");
      layers.add(contended ? "predict.replay_contended_ms"
                           : "predict.replay_ms",
                 replay_ms);
      layers.add("analysis.chain_measure_ms",
                 tracer.total_ms("analysis.chains") +
                     tracer.total_ms("analysis.measure"));
      activations += static_cast<double>(prediction->activations);
      replay_s += replay_ms / 1e3;
    }
    traced_ms.push_back(sweep_ms);
    traced_ops += inputs.candidates.size();
  }

  std::map<std::string, double> values = layers.medians();
  values["predict.activations_per_s"] =
      replay_s > 0.0 ? activations / replay_s : 0.0;
  finish_traced(report, std::move(values), setup, traced_ms, untraced_ms,
                tracer, options);
}

}  // namespace perfbench
