#!/usr/bin/env python3
"""Pipeline benchmark: builds the tetra library and the perfbench program
from source, then runs one workload (or all of them) and prints the result.

Run from the repository root:

  python3 perfbench/run.py --workload fleet-ttb-batch --seed 7 --seconds 10 --trace 0
  python3 perfbench/run.py --all             # every workload, untraced + traced
  python3 perfbench/run.py --write-manifest  # regenerate BENCHMARK.json

A single-workload run prints, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics. Build output and the
human-readable report go to stderr. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEFAULT_SEED = 7
HELD_OUT_SEED = 1013
RUN_SECONDS = 20
RUN_TIMEOUT_S = 170

WORKLOADS = [
    ("fleet-ttb-batch",
     "offline fleet path: .ttb segments of 8 robots into a pooled session; "
     "core indexing and extraction dominate"),
    ("live-jsonl-append",
     "JSONL appends interleaved with model queries on one incremental "
     "session; parsing dominates, .ttb bypassed"),
    ("sentinel-follow",
     "tetra_sentinel --follow path over a long clean .ttb stream; "
     "per-window re-synthesis dominates"),
    ("whatif-sweep",
     "candidate deployments predicted from a cached model; replay and "
     "chain latency only, no trace or synthesis"),
]

# Timing bounds sit at 0.25, the largest allowed: times are scaled to a
# reference host speed (src/host_speed.hpp), which removes most but not
# all of a shared host's drift.
END_TO_END = [
    {"name": "results_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "result_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "result_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

# (name, unit, better) in the order a traced run prints them.
PER_LAYER = [
    ("trace.ttb_open_ms", "ms", "lower"),
    ("trace.ttb_materialize_ms", "ms", "lower"),
    ("trace.jsonl_parse_ms", "ms", "lower"),
    ("trace.mb_per_s", "MB/s", "higher"),
    ("core.index_ms", "ms", "lower"),
    ("core.extract_ms", "ms", "lower"),
    ("core.build_ms", "ms", "lower"),
    ("core.dag_merge_ms", "ms", "lower"),
    ("core.incremental_append_ms", "ms", "lower"),
    ("core.incremental_model_ms", "ms", "lower"),
    ("core.reextract_ratio", "ratio", "lower"),
    ("api.ingest_ms", "ms", "lower"),
    ("api.model_ms", "ms", "lower"),
    ("api.self_ms", "ms", "lower"),
    ("api.pool_efficiency", "ratio", "higher"),
    ("api.cache_hit_ratio", "ratio", "higher"),
    ("sentinel.feed_ms", "ms", "lower"),
    ("sentinel.window_synth_ms", "ms", "lower"),
    ("sentinel.self_ms", "ms", "lower"),
    ("sentinel.events_synthesized_per_event", "ratio", "lower"),
    ("sentinel.windows", "count", "higher"),
    ("sentinel.alarmed_windows", "count", "lower"),
    ("sentinel.ks_tests", "count", "lower"),
    ("sentinel.multi_baseline_crashed", "count", "lower"),
    ("predict.replay_ms", "ms", "lower"),
    ("predict.replay_contended_ms", "ms", "lower"),
    ("predict.activations_per_s", "1/s", "higher"),
    ("analysis.chain_measure_ms", "ms", "lower"),
    ("setup.generate_s", "s", "lower"),
    ("setup.write_s", "s", "lower"),
    ("setup.program_s", "s", "lower"),
    ("telemetry.trace_overhead_ratio", "ratio", "lower"),
    ("telemetry.spans_dropped", "count", "lower"),
]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return target


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no tetra source tree (CMakeLists.txt, src/) next to "
            "perfbench/; nothing to build")
        return None
    binary_dir = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(binary_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", binary_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", binary_dir, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(step))
            return None
    return os.path.join(binary_dir, "perfbench")


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its result object."""
    work_dir = os.path.join(build_dir(), "work", workload)
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%d.jsonl" % (workload, seed))
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", work_dir, "--spans-out", spans]
    try:
        process = subprocess.run(command, stdout=subprocess.PIPE,
                                 stderr=sys.stderr, text=True,
                                 timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        # Flush the deletion now rather than as writeback during the next run.
        os.sync()
    if process.returncode != 0:
        log("perfbench: %s exited with %d" % (workload, process.returncode))
        return None
    lines = process.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: %s printed no result line" % workload)
        return None
    # The program prints bare numbers; the units live only here. A traced
    # run reports the layers its workload calls, and 0 for the others.
    raw = result.get("metrics", {})
    if trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        unexpected = sorted(set(raw) - set(units))
    else:
        units = {m["name"]: m["unit"] for m in END_TO_END}
        unexpected = sorted(set(raw) ^ set(units))
    if unexpected:
        log("perfbench: %s reported an unexpected metric set: %s" %
            (workload, ", ".join(unexpected)))
        return None
    result["metrics"] = {name: {"value": raw.get(name, 0), "unit": unit}
                         for name, unit in units.items()}
    return result


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }


def run_all(binary, seed, seconds):
    """Every workload untraced and traced; one table per run kind."""
    ok = True
    untraced, traced = {}, {}
    for name, _ in WORKLOADS:
        untraced[name] = run_workload(binary, name, seed, seconds, 0)
        traced[name] = run_workload(binary, name, seed, seconds, 1)
        ok = ok and untraced[name] is not None and traced[name] is not None
    print("end-to-end (untraced, seed %d, %gs per run)" % (seed, seconds))
    print("%-20s %-14s %16s %-6s %8s %12s" %
          ("workload", "metric", "value", "unit", "ops", "failed_ratio"))
    for name, _ in WORKLOADS:
        result, layers = untraced[name], traced[name]
        if result is None:
            print("%-20s FAILED" % name)
            continue
        attempted = result["attempted"]
        failed_ratio = result["failed"] / attempted
        if name == "sentinel-follow" and layers is not None:
            # On the clean stream the unit is the window, and every
            # alarmed window is a failure.
            metrics = layers["metrics"]
            failed_ratio = (metrics["sentinel.alarmed_windows"]["value"] /
                            metrics["sentinel.windows"]["value"])
        for metric in END_TO_END:
            value = result["metrics"][metric["name"]]
            print("%-20s %-14s %16.6g %-6s %8d %12.4f" %
                  (name, metric["name"], value["value"], value["unit"],
                   attempted, failed_ratio))
        print("%-20s outputs %s, %d of %d operations failed" %
              (name, "correct" if result["correct"] else "INCORRECT",
               result["failed"], attempted))
    print()
    print("per-layer (traced, seed %d)" % seed)
    for name, _ in WORKLOADS:
        layers = traced[name]
        if layers is None:
            print("%-20s FAILED" % name)
            continue
        for metric, unit, _ in PER_LAYER:
            print("%-20s %-40s %16.6g %s" %
                  (name, metric, layers["metrics"][metric]["value"], unit))
        print("%-20s outputs %s" %
              (name, "correct" if layers["correct"] else "INCORRECT"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default %d; %d is the held-out "
                        "seed for a gain claim's second check)" %
                        (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root")
    args = parser.parse_args()

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as out:
            json.dump(manifest(), out, indent=2)
            out.write("\n")
        return 0
    if not args.all and args.workload is None:
        parser.error("--workload, --all or --write-manifest is required")

    binary = build()
    if binary is None:
        return 2
    if args.all:
        return run_all(binary, args.seed, args.seconds)
    result = run_workload(binary, args.workload, args.seed, args.seconds,
                          args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
