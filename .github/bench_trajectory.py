#!/usr/bin/env python3
"""Render the perf-trajectory diff between two bench-JSON snapshots.

Usage: bench_trajectory.py PREV_DIR CURRENT_DIR

Reads the BENCH_*.json snapshots (synthesis, predict, ingest, overhead,
telemetry) from both directories and
prints a GitHub-flavored-markdown table of metric deltas (previous run ->
this run), followed by a per-stage time breakdown aggregated from each
snapshot's embedded telemetry span records (docs/TELEMETRY.md), with each
stage's share of the snapshot's root-span wall time. Missing
files degrade gracefully: the table only covers what
both snapshots have. Informational only — the caller must not gate on it.
"""
import json
import os
import sys

BENCHES = ("BENCH_synthesis.json", "BENCH_predict.json", "BENCH_ingest.json",
           "BENCH_overhead.json", "BENCH_telemetry.json",
           "BENCH_sentinel.json")
# Keys that describe the configuration, not performance. "telemetry" is the
# embedded snapshot — rendered separately as the stage breakdown, not
# diffed metric by metric.
SKIP = {"bench", "seed", "traces", "threads", "hardware_threads", "what_ifs",
        "duration_s", "horizon_s", "robots", "shards", "runs", "profile",
        "segments", "span_ms",
        "telemetry", "tolerance_pct"}
# Leaf names that label a sweep point rather than measure it.
SKIP_LEAVES = {"body_us", "k", "n"}


def flatten(prefix, value, out):
    if isinstance(value, dict):
        for key, child in value.items():
            flatten(f"{prefix}.{key}" if prefix else key, child, out)
    elif isinstance(value, list):
        # Sweep arrays (e.g. the overhead matrix): label entries by their
        # own key field when they carry one, else by position.
        for i, child in enumerate(value):
            label = str(i)
            if isinstance(child, dict):
                for key_field in ("body_us", "k"):
                    if key_field in child:
                        label = f"{key_field}={child[key_field]:g}"
                        break
            flatten(f"{prefix}[{label}]", child, out)
    elif isinstance(value, (int, float)):
        out[prefix] = float(value)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError):
        return None
    out = {}
    flatten("", data, out)
    return {k: v for k, v in out.items()
            if k.split(".")[0] not in SKIP
            and k.rsplit(".", 1)[-1] not in SKIP_LEAVES}


def stage_breakdown(path):
    """Aggregates the embedded telemetry spans by name: (count, wall_ns,
    items) per stage, sorted by total wall time descending, plus the total
    wall time of the root spans (those whose parent is not recorded)."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError):
        return None
    spans = data.get("telemetry", {}).get("spans")
    if not spans:
        return None
    stages = {}
    ids = {span.get("id") for span in spans}
    root_ns = 0
    for span in spans:
        name = span.get("name", "?")
        count, wall_ns, items = stages.get(name, (0, 0, 0))
        stages[name] = (count + 1, wall_ns + span.get("wall_ns", 0),
                        items + span.get("items", 0))
        if span.get("parent", 0) not in ids:
            root_ns += span.get("wall_ns", 0)
    return sorted(stages.items(), key=lambda kv: -kv[1][1]), root_ns


def print_stage_breakdowns(cur_dir):
    any_stages = False
    for bench in BENCHES:
        breakdown = stage_breakdown(os.path.join(cur_dir, bench))
        if not breakdown:
            continue
        stages, root_ns = breakdown
        if not any_stages:
            print("## Per-stage telemetry breakdown (this run)\n")
            any_stages = True
        print(f"### {bench}\n")
        # Nested stages overlap their parents, so shares need not sum
        # to 100%.
        print("| stage | count | wall (ms) | share of root | items |")
        print("|---|---:|---:|---:|---:|")
        for name, (count, wall_ns, items) in stages:
            share = (f"{100.0 * wall_ns / root_ns:.1f}%" if root_ns > 0
                     else "—")
            print(f"| {name} | {count} | {wall_ns / 1e6:.3f} | {share} "
                  f"| {items} |")
        print()


def main():
    if len(sys.argv) != 3:
        print("usage: bench_trajectory.py PREV_DIR CURRENT_DIR",
              file=sys.stderr)
        return 1
    prev_dir, cur_dir = sys.argv[1], sys.argv[2]

    print("## Perf trajectory (previous run → this run)\n")
    any_rows = False
    for bench in BENCHES:
        prev = load(os.path.join(prev_dir, bench))
        cur = load(os.path.join(cur_dir, bench))
        if cur is None:
            print(f"_{bench}: missing from this run._\n")
            continue
        print(f"### {bench}\n")
        if prev is None:
            print("_No previous artifact found (first run?); "
                  "current values only._\n")
        print("| metric | previous | current | delta |")
        print("|---|---:|---:|---:|")
        for key in sorted(cur):
            cur_value = cur[key]
            prev_value = prev.get(key) if prev else None
            if prev_value is None:
                print(f"| {key} | — | {cur_value:.6g} | — |")
            elif prev_value == 0:
                print(f"| {key} | 0 | {cur_value:.6g} | — |")
            else:
                delta = 100.0 * (cur_value - prev_value) / abs(prev_value)
                print(f"| {key} | {prev_value:.6g} | {cur_value:.6g} "
                      f"| {delta:+.1f}% |")
            any_rows = True
        print()
    if not any_rows:
        print("_No bench data available._")
    print_stage_breakdowns(cur_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
