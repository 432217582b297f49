// The pipeline benchmark program. One process runs one workload:
//
//   perfbench --workload fleet-ttb-batch --seed 7 --seconds 10
//             --trace 0 --work-dir DIR --spans-out FILE
//
// and prints, as its last stdout line, one JSON object with the keys
// correct, attempted, failed and metrics (end-to-end metrics untraced,
// per-layer metrics with --trace 1). perfbench/run.py builds this binary
// and is the command to run; see perfbench/README.md.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

using Workload = void (*)(const perfbench::Options&, perfbench::Report&);

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> table = {
      {"fleet-ttb-batch", &perfbench::run_fleet},
      {"live-jsonl-append", &perfbench::run_live},
      {"sentinel-follow", &perfbench::run_sentinel},
      {"whatif-sweep", &perfbench::run_whatif},
  };
  return table;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--spans-out FILE]\n"
               "workloads:",
               why);
  for (const auto& [name, run] : workloads()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // glibc adapts its mmap and trim thresholds to the sizes freed so far,
  // so whether an operation's large buffers are fresh mappings (page
  // faults on every use) or reused heap depends on the allocation
  // history. On fleet-ttb-batch, runs of the same code fell into two
  // groups about 20% apart. With both thresholds fixed at glibc's initial
  // 128 KiB, every run pays for its large buffers the same way.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);

  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--spans-out") {
        options.spans_out = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  const auto workload = workloads().find(options.workload);
  if (workload == workloads().end()) return usage("unknown workload");
  if (options.work_dir.empty()) return usage("--work-dir is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  if (options.spans_out.empty()) {
    options.spans_out =
        (std::filesystem::path(options.work_dir) / "spans.jsonl").string();
  }

  perfbench::Report report;
  try {
    std::filesystem::create_directories(options.work_dir);
    workload->second(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  std::fputs(report.to_text(options.workload).c_str(), stderr);
  std::printf("%s\n", report.to_json().c_str());
  return 0;
}
