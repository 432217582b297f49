// tetra_record_demo — records demo traces to JSONL files for use with
// tetra_synth. Runs the SYN application, the AVP localization pipeline,
// or both, under the three tracers, and writes one trace file per run.
//
//   tetra_record_demo [--workload syn|avp|both] [--runs N]
//                     [--duration SECONDS] [--seed S] [--out PREFIX]
//
// Output: PREFIX-<run>.jsonl (default: trace-0.jsonl, trace-1.jsonl, ...).
#include <cstdint>
#include <cstdio>
#include <string>

#include "cli.hpp"
#include "ebpf/tracers.hpp"
#include "trace/merge.hpp"
#include "trace/serialize.hpp"
#include "workloads/avp_localization.hpp"
#include "workloads/syn_app.hpp"

int main(int argc, char** argv) {
  using namespace tetra;
  std::string workload = "syn";
  int runs = 1;
  int seconds = 20;
  std::uint64_t seed = 1;
  std::string prefix = "trace";

  tools::FlagRegistry cli("tetra_record_demo");
  cli.flag("--workload", "NAME", "application to record", "syn | avp | both",
           [&workload](const std::string& value) {
             workload = value;
             return value == "syn" || value == "avp" || value == "both";
           })
      .flag("--runs", "N", "runs to record, one trace file each", &runs, 1)
      .flag("--duration", "SECONDS", "simulated run duration", &seconds, 1)
      .flag("--seed", "S", "seed of the first run (run k uses S + k)", &seed)
      .flag("--out", "PREFIX", "output path prefix", &prefix);

  switch (cli.parse(argc, argv)) {
    case tools::FlagRegistry::Parse::Help: return 0;
    case tools::FlagRegistry::Parse::Error: return 2;
    case tools::FlagRegistry::Parse::Ok: break;
  }

  for (int run = 0; run < runs; ++run) {
    ros2::Context::Config config;
    config.num_cpus = 12;
    config.seed = seed + static_cast<std::uint64_t>(run);
    ros2::Context ctx(config);
    ebpf::TracerSuite suite(ctx);
    suite.start_init();
    workloads::AvpApp avp;  // keeps sensor writers alive through the run
    if (workload == "avp" || workload == "both") {
      workloads::AvpOptions options;
      options.run_duration = Duration::sec(seconds);
      avp = workloads::build_avp_localization(ctx, options);
    }
    if (workload == "syn" || workload == "both") {
      workloads::build_syn_app(ctx);
    }
    auto init_trace = suite.stop_init();
    suite.start_runtime();
    ctx.run_for(Duration::sec(seconds));
    auto events =
        trace::merge_sorted({init_trace, suite.stop_runtime()});
    const std::string path = prefix + "-" + std::to_string(run) + ".jsonl";
    trace::write_jsonl_file(path, events);
    std::fprintf(stderr, "run %d: %zu events -> %s\n", run, events.size(),
                 path.c_str());
  }
  return 0;
}
