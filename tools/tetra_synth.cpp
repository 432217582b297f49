// tetra_synth — command-line timing-model synthesizer.
//
// Reads JSONL traces (the format the tracers and the trace database
// emit) into an api::SynthesisSession, synthesizes the model and writes
// it as Graphviz DOT and/or JSON, plus an optional text report.
//
//   tetra_synth --trace run1.jsonl [--trace run2.jsonl ...]
//               [--merge-dags | --merge-traces] [--threads N]
//               [--incremental]
//               [--dot out.dot] [--json out.json] [--report]
//               [--no-service-split] [--no-and-junction]
//               [--waiting-times]
//               [--compensate-overhead] [--probe-cost DUR]
//   tetra_synth --trace run1.jsonl --to-ttb run1.ttb
//   tetra_synth --trace run1.ttb --to-jsonl run1.jsonl
//
// With several --trace inputs, --merge-dags (default; §V option ii)
// synthesizes per trace — on N worker threads with --threads — and
// merges the DAGs; --merge-traces (option i, for segments of one run)
// k-way merges the event streams first. --incremental keeps appendable
// per-trace indexes so repeat queries only re-extract touched nodes.
//
// --compensate-overhead subtracts the per-probe tracer cost — estimated
// from the trace, or given via --probe-cost (e.g. "5us", implies
// compensation) — from every execution-time statistic (docs/OVERHEAD.md).
//
// --to-ttb / --to-jsonl are pure format conversions (docs/TRACE_FORMAT.md):
// exactly one --trace input, event order preserved byte-for-byte, no
// synthesis. Either format is accepted as input (.ttb detected by magic),
// so jsonl -> ttb -> jsonl is an identity.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/chains.hpp"
#include "api/session.hpp"
#include "cli.hpp"
#include "core/export.hpp"
#include "overhead/profile.hpp"
#include "tool_stats.hpp"
#include "trace/serialize.hpp"
#include "trace/ttb.hpp"

int main(int argc, char** argv) {
  using namespace tetra;
  std::vector<std::string> trace_paths;
  std::string dot_path;
  std::string json_path;
  std::string to_ttb_path;
  std::string to_jsonl_path;
  bool report = false;
  bool lenient = false;
  tools::StatsOptions stats;
  api::SynthesisConfig config;
  int threads = config.threads();

  tools::FlagRegistry cli("tetra_synth");
  cli.flag("--trace", "FILE", "input trace, JSONL or .ttb (repeatable)",
           &trace_paths)
      .flag("--merge-dags", "synthesize per trace, merge the DAGs (default)",
            [&config] { config.merge_strategy(api::MergeStrategy::MergeDags); })
      .flag("--merge-traces", "merge the event streams, then synthesize",
            [&config] {
              config.merge_strategy(api::MergeStrategy::MergeTraces);
            })
      .flag("--threads", "N", "synthesis worker threads", &threads, 1)
      .flag("--incremental", "keep appendable per-trace indexes",
            [&config] { config.incremental(true); })
      .flag("--dot", "FILE", "write the model as Graphviz DOT", &dot_path)
      .flag("--json", "FILE", "write the model as JSON", &json_path)
      .flag("--report", "print the exec-time table and chains", &report)
      .flag("--no-service-split", "one vertex per service callback",
            [&config] { config.split_service_per_caller(false); })
      .flag("--no-and-junction", "no AND-junction for synchronized inputs",
            [&config] { config.model_sync_with_and_junction(false); })
      .flag("--waiting-times", "compute callback waiting times",
            [&config] { config.compute_waiting_times(true); })
      .flag("--compensate-overhead", "subtract the estimated probe cost",
            [&config] { config.compensate_overhead(true); })
      .flag("--probe-cost", "DUR",
            "per-probe tracer cost, e.g. 5us (implies compensation)",
            "a duration like 5us or 200ns",
            [&config](const std::string& value) {
              const auto cost = overhead::parse_duration(value);
              if (!cost.has_value() || *cost < Duration::zero()) return false;
              config.compensate_overhead(true).probe_cost_hint(*cost);
              return true;
            })
      .flag("--lenient", "skip and count malformed JSONL lines", &lenient)
      .flag("--to-ttb", "FILE", "convert the one --trace input to .ttb",
            &to_ttb_path)
      .flag("--to-jsonl", "FILE", "convert the one --trace input to JSONL",
            &to_jsonl_path)
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
  config.threads(threads);

  // Conversion mode: no synthesis, no session — the raw event sequence is
  // read in file order and re-emitted as-is, so converting back and forth
  // reproduces the original file byte-for-byte.
  if (!to_ttb_path.empty() || !to_jsonl_path.empty()) {
    if (trace_paths.size() != 1) {
      return cli.usage_error(
          "--to-ttb/--to-jsonl convert exactly one --trace input (got " +
          std::to_string(trace_paths.size()) + ")");
    }
    try {
      const std::string& in = trace_paths[0];
      const trace::EventVector events = trace::read_trace_file(in);
      if (!to_ttb_path.empty()) {
        trace::write_ttb_file(to_ttb_path, events);
        std::fprintf(stderr, "wrote %zu events to %s\n", events.size(),
                     to_ttb_path.c_str());
      }
      if (!to_jsonl_path.empty()) {
        trace::write_jsonl_file(to_jsonl_path, events);
        std::fprintf(stderr, "wrote %zu events to %s\n", events.size(),
                     to_jsonl_path.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    return tools::emit_stats(stats);
  }

  try {
    api::SynthesisSession session(config);
    for (const auto& path : trace_paths) {
      std::size_t malformed_skipped = 0;
      const api::Result<api::SegmentInfo> segment =
          [&]() -> api::Result<api::SegmentInfo> {
        if (lenient && !trace::is_ttb_file(path)) {
          // Fleet posture: one corrupt line must not sink the upload. Skips
          // are counted here and in trace.jsonl_malformed_skipped.
          trace::JsonlParseStats parse_stats;
          trace::EventVector events =
              trace::read_jsonl_file_lenient(path, &parse_stats);
          malformed_skipped = parse_stats.malformed_skipped;
          api::IngestOptions options;
          options.trace_id = path;
          return session.ingest(std::move(events), options);
        }
        return session.ingest_file(path);
      }();
      if (!segment.ok()) {
        std::fprintf(stderr, "error: %s\n", segment.error().to_string().c_str());
        return 1;
      }
      std::fprintf(stderr, "loaded %zu events from %s%s\n",
                   segment->event_count, path.c_str(),
                   segment->arrived_sorted ? "" : " (re-sorted)");
      if (malformed_skipped > 0) {
        std::fprintf(stderr, "warning: skipped %zu malformed line%s in %s\n",
                     malformed_skipped, malformed_skipped == 1 ? "" : "s",
                     path.c_str());
      }
    }

    api::Result<core::TimingModel> model = session.model();
    if (!model.ok()) {
      std::fprintf(stderr, "error: %s\n", model.error().to_string().c_str());
      return 1;
    }
    const core::Dag& dag = model->dag;

    std::fprintf(stderr, "model: %zu vertices, %zu edges, acyclic=%s\n",
                 dag.vertex_count(), dag.edge_count(),
                 dag.is_acyclic() ? "yes" : "NO");

    if (!dot_path.empty()) {
      tools::write_file(dot_path, core::to_dot(dag));
      std::fprintf(stderr, "wrote %s\n", dot_path.c_str());
    }
    if (!json_path.empty()) {
      tools::write_file(json_path, core::to_json(dag));
      std::fprintf(stderr, "wrote %s\n", json_path.c_str());
    }
    if (report || (dot_path.empty() && json_path.empty())) {
      std::printf("%s\n", core::to_exec_time_table(dag).c_str());
      std::printf("chains:\n");
      const analysis::ChainEnumeration chains = analysis::enumerate_chains(dag);
      for (const auto& chain : chains.chains) {
        std::printf("  %s  (sum mWCET %.2f ms)\n",
                    analysis::to_string(chain).c_str(),
                    analysis::chain_wcet(dag, chain).to_ms());
      }
      if (chains.truncated) {
        std::fprintf(stderr,
                     "warning: chain enumeration truncated at %zu chains; "
                     "the list above is incomplete\n",
                     chains.chains.size());
      }
      if (chains.cyclic) {
        std::fprintf(stderr,
                     "warning: the model has cycles; chains above stop "
                     "before their first repeated vertex\n");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return tools::emit_stats(stats);
}
