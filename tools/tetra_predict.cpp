// tetra_predict — model-driven latency prediction and what-if exploration.
//
// Reads JSONL traces into an api::SynthesisSession, synthesizes the
// timing model, then *replays the model* (predict::ModelSimulator) to
// predict per-chain end-to-end latency distributions — and, with sweep
// flags, ranks candidate deployment configurations (WhatIfExplorer)
// without ever re-running the application.
//
//   tetra_predict --trace run1.jsonl [--trace run2.jsonl ...]
//                 [--merge-dags | --merge-traces] [--threads N]
//                 [--horizon SEC] [--seed N] [--hop-us LO:HI]
//                 [--input-period TOPIC=MS] [--timer-period KEY=MS]
//                 [--scale-exec KEY=F] [--scale-exec-all F] [--prune KEY]
//                 [--cpus N] [--workers NODE=N]
//                 [--sweep-timer KEY=MS1,MS2,...] [--sweep-exec F1,F2,...]
//                 [--sweep-cpus N1,N2,...] [--sweep-workers NODE=N1,N2,...]
//                 [--objective worst-mean|worst-p99|worst-max|mean-mean]
//                 [--json FILE] [--report] [--quiet]
//                 [--stats] [--stats-out FILE]
//
// --cpus switches the replay to the contention-aware machine mode (one
// executor per node on N simulated CPUs); without it the replay is
// contention-free. --workers overrides the learned executor worker count
// of a node; --sweep-workers asks "would 2 -> 4 executor threads cut
// chain latency?" across the listed counts. Sweep flags build one
// candidate per listed value and print the ranking best-first.
//
// Exit status: 0 only when the replay measured at least one complete
// chain traversal (in sweep mode: for the best-ranked candidate) — a
// prediction that measured nothing is a failed round trip, --quiet or
// not. 1 on errors/empty predictions, 2 on usage errors, which include
// any flag value outside its domain (a period <= 0, a negative scale,
// LO > HI): every value is checked before a trace is read.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "cli.hpp"
#include "predict/report.hpp"
#include "predict/what_if.hpp"
#include "tool_stats.hpp"

namespace {

using namespace tetra;

/// Splits "KEY=VALUE" at its first '='; false when there is no key.
bool split_pair(const std::string& arg, std::string* key, std::string* value) {
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  *key = arg.substr(0, eq);
  *value = arg.substr(eq + 1);
  return true;
}

/// A KEY=VALUE flag that stores parse(VALUE) in (*map)[KEY].
template <typename Map, typename Parse>
std::function<bool(const std::string&)> keyed(Map* map, Parse parse) {
  return [map, parse](const std::string& arg) {
    std::string key, value;
    return split_pair(arg, &key, &value) && parse(value, &(*map)[key]);
  };
}

/// Parses every item of a comma list with `parse_one`; false when any
/// item fails.
template <typename T, typename Parse>
bool parse_list(const std::string& csv, Parse parse_one, std::vector<T>* out) {
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = csv.find(',', start);
    T item{};
    if (!parse_one(csv.substr(start, comma - start), &item)) return false;
    out->push_back(item);
    if (comma == std::string::npos) return true;
    start = comma + 1;
  }
}

/// A period in ms; it must come out positive in nanoseconds.
bool parse_period(const std::string& ms, Duration* out) {
  double value = 0.0;
  if (!tools::parse_number(ms, &value)) return false;
  *out = Duration::ms_f(value);
  return *out > Duration::zero();
}

/// An execution-time scale factor, >= 0.
bool parse_scale(const std::string& text, double* out) {
  return tools::parse_number(text, out) && *out >= 0.0;
}

/// A CPU or worker count, >= 1.
bool parse_count(const std::string& text, int* out) {
  return tools::parse_number(text, out) && *out >= 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> trace_paths;
  std::string json_path;
  bool report = false;
  api::SynthesisConfig synth_config;
  int threads = synth_config.threads();
  predict::PredictionConfig prediction;

  // Sweep requests are collected as flags and applied onto the explorer.
  std::vector<std::pair<std::string, std::vector<Duration>>> timer_sweeps;
  std::vector<double> exec_sweep;
  std::vector<int> cpu_sweep;
  std::vector<std::pair<std::string, std::vector<int>>> worker_sweeps;
  predict::Objective objective = predict::Objective::WorstChainP99;
  bool quiet = false;
  tools::StatsOptions stats;

  tools::FlagRegistry cli("tetra_predict");
  cli.flag("--trace", "FILE", "input trace, JSONL or .ttb (repeatable)",
           &trace_paths)
      .flag("--merge-dags", "synthesize per trace, merge the DAGs (default)",
            [&synth_config] {
              synth_config.merge_strategy(api::MergeStrategy::MergeDags);
            })
      .flag("--merge-traces", "merge the event streams, then synthesize",
            [&synth_config] {
              synth_config.merge_strategy(api::MergeStrategy::MergeTraces);
            })
      .flag("--threads", "N", "synthesis worker threads", &threads, 1)
      .flag("--horizon", "SEC", "simulated replay horizon in seconds",
            "a positive number of seconds",
            [&prediction](const std::string& value) {
              double seconds = 0.0;
              if (!tools::parse_number(value, &seconds)) return false;
              prediction.horizon = Duration::ms_f(seconds * 1e3);
              return prediction.horizon > Duration::zero();
            })
      .flag("--seed", "N", "base seed of the sampling streams",
            &prediction.seed)
      .flag("--hop-us", "LO:HI", "per-hop latency bounds in microseconds",
            "LO:HI with 0 <= LO <= HI",
            [&prediction](const std::string& value) {
              const std::size_t colon = value.find(':');
              double lo = 0.0;
              double hi = 0.0;
              if (colon == std::string::npos ||
                  !tools::parse_number(value.substr(0, colon), &lo) ||
                  !tools::parse_number(value.substr(colon + 1), &hi) ||
                  lo < 0.0 || lo > hi) {
                return false;
              }
              prediction.hop_latency.lo = Duration::ms_f(lo / 1e3);
              prediction.hop_latency.hi = Duration::ms_f(hi / 1e3);
              return true;
            })
      .flag("--input-period", "TOPIC=MS", "period of an input topic",
            "TOPIC=MS with MS > 0",
            keyed(&prediction.input_period, parse_period))
      .flag("--timer-period", "KEY=MS", "period of a timer callback",
            "KEY=MS with MS > 0", keyed(&prediction.timer_period, parse_period))
      .flag("--scale-exec", "KEY=F", "scale one callback's execution time",
            "KEY=F with F >= 0", keyed(&prediction.exec_scale, parse_scale))
      .flag("--scale-exec-all", "F", "scale every execution time", "F >= 0",
            [&prediction](const std::string& value) {
              return parse_scale(value, &prediction.global_exec_scale);
            })
      .flag("--prune", "KEY", "drop a callback from the replay (repeatable)",
            "a callback key",
            [&prediction](const std::string& value) {
              prediction.pruned.insert(value);
              return true;
            })
      .flag("--cpus", "N", "contention-aware replay on N simulated CPUs",
            "an integer >= 1",
            [&prediction](const std::string& value) {
              predict::ExecutorMapping mapping;
              if (!parse_count(value, &mapping.num_cpus)) return false;
              prediction.executors = mapping;
              return true;
            })
      .flag("--workers", "NODE=N", "executor worker count of a node",
            "NODE=N with N >= 1", keyed(&prediction.workers, parse_count))
      .flag("--sweep-timer", "KEY=MS1,MS2,...", "candidate timer periods",
            "KEY=MS1,MS2,... with every MS > 0",
            [&timer_sweeps](const std::string& value) {
              std::string key, csv;
              std::vector<Duration> periods;
              if (!split_pair(value, &key, &csv) ||
                  !parse_list(csv, parse_period, &periods)) {
                return false;
              }
              timer_sweeps.emplace_back(key, std::move(periods));
              return true;
            })
      .flag("--sweep-exec", "F1,F2,...", "candidate global exec scales",
            "F1,F2,... with every F >= 0",
            [&exec_sweep](const std::string& value) {
              return parse_list(value, parse_scale, &exec_sweep);
            })
      .flag("--sweep-cpus", "N1,N2,...", "candidate simulated CPU counts",
            "N1,N2,... with every N >= 1",
            [&cpu_sweep](const std::string& value) {
              return parse_list(value, parse_count, &cpu_sweep);
            })
      .flag("--sweep-workers", "NODE=N1,N2,...",
            "candidate worker counts of a node",
            "NODE=N1,N2,... with every N >= 1",
            [&worker_sweeps](const std::string& value) {
              std::string node, csv;
              std::vector<int> counts;
              if (!split_pair(value, &node, &csv) ||
                  !parse_list(csv, parse_count, &counts)) {
                return false;
              }
              worker_sweeps.emplace_back(node, std::move(counts));
              return true;
            })
      .flag("--objective", "NAME", "sweep ranking objective",
            "worst-mean | worst-p99 | worst-max | mean-mean",
            [&objective](const std::string& value) {
              if (value == "worst-mean") {
                objective = predict::Objective::WorstChainMean;
              } else if (value == "worst-p99") {
                objective = predict::Objective::WorstChainP99;
              } else if (value == "worst-max") {
                objective = predict::Objective::WorstChainMax;
              } else if (value == "mean-mean") {
                objective = predict::Objective::MeanOfMeans;
              } else {
                return false;
              }
              return true;
            })
      .flag("--json", "FILE", "write the prediction JSON", &json_path)
      .flag("--report",
            "also print the best candidate's chain table in sweep mode",
            &report)
      .flag("--quiet", "suppress the tables on stdout", &quiet)
      .flag("--stats", "print the telemetry summary table", &stats.summary)
      .flag("--stats-out", "FILE", "write the telemetry JSON snapshot",
            &stats.out_path);

  switch (cli.parse(argc, argv)) {
    case tools::FlagRegistry::Parse::Help: return 0;
    case tools::FlagRegistry::Parse::Error: return 2;
    case tools::FlagRegistry::Parse::Ok: break;
  }
  if (trace_paths.empty()) {
    return cli.usage_error("at least one --trace FILE is required");
  }
  synth_config.threads(threads);

  try {
    api::SynthesisSession session(synth_config);
    for (const auto& path : trace_paths) {
      api::Result<api::SegmentInfo> segment = session.ingest_file(path);
      if (!segment.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     segment.error().to_string().c_str());
        return 1;
      }
      std::fprintf(stderr, "loaded %zu events from %s\n",
                   segment->event_count, path.c_str());
    }
    api::Result<core::TimingModel> model = session.model();
    if (!model.ok()) {
      std::fprintf(stderr, "error: %s\n", model.error().to_string().c_str());
      return 1;
    }
    const core::Dag& dag = model->dag;
    std::fprintf(stderr, "model: %zu vertices, %zu edges\n",
                 dag.vertex_count(), dag.edge_count());

    const auto complete_traversals =
        [](const predict::PredictionResult& result) {
          std::size_t complete = 0;
          for (const auto& chain : result.chains) {
            complete += chain.latency.complete;
          }
          return complete;
        };

    const bool sweeping = !timer_sweeps.empty() || !exec_sweep.empty() ||
                          !cpu_sweep.empty() || !worker_sweeps.empty();
    std::string json;
    bool truncated = false;
    std::size_t measured = 0;
    if (sweeping) {
      predict::WhatIfExplorer what_if(dag, prediction);
      what_if.add_baseline();
      for (const auto& [key, periods] : timer_sweeps) {
        what_if.sweep_timer_period(key, periods);
      }
      if (!exec_sweep.empty()) what_if.sweep_exec_scale(exec_sweep);
      if (!cpu_sweep.empty()) what_if.sweep_num_cpus(cpu_sweep);
      for (const auto& [node, counts] : worker_sweeps) {
        what_if.sweep_workers(node, counts);
      }
      const std::vector<predict::WhatIfOutcome> outcomes =
          what_if.explore(objective);
      for (const auto& outcome : outcomes) {
        truncated |= outcome.prediction.chains_truncated;
      }
      if (!outcomes.empty()) {
        measured = complete_traversals(outcomes.front().prediction);
      }
      if (!quiet) {
        std::printf("%s", predict::to_text_table(outcomes, objective).c_str());
        if (report && !outcomes.empty()) {
          std::printf(
              "\nbest candidate '%s':\n%s",
              outcomes.front().candidate.name.c_str(),
              predict::to_text_table(outcomes.front().prediction).c_str());
        }
      }
      json = predict::to_json(outcomes, objective);
    } else {
      const predict::PredictionResult result =
          predict::ModelSimulator(dag, prediction).predict();
      truncated = result.chains_truncated;
      measured = complete_traversals(result);
      // The per-chain table IS the report in single-prediction mode.
      if (!quiet) std::printf("%s", predict::to_text_table(result).c_str());
      json = predict::to_json(result);
    }
    if (truncated) {
      std::fprintf(stderr,
                   "warning: chain enumeration truncated at %zu chains; "
                   "predictions cover an incomplete chain set\n",
                   prediction.max_chains);
    }
    if (!json_path.empty()) {
      tools::write_file(json_path, json + "\n");
      std::fprintf(stderr, "wrote %s\n", json_path.c_str());
    }
    if (measured == 0) {
      // A replay that completed no chain traversal predicted nothing; the
      // exit status must say so even when --quiet suppressed the tables.
      std::fprintf(stderr,
                   "error: no complete chain traversal in the prediction\n");
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return tools::emit_stats(stats);
}
