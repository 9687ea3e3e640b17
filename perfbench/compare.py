#!/usr/bin/env python3
"""Compares two sets of benchmark recordings (perfbench/run.py --record).

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a recording file or a directory of them. Two checks:

  counts  for every (workload, seed, size) recorded on both sides, the
          output digest and every deterministic count must be identical. A
          count change is a behaviour change, not noise.
  times   for every workload, each end-to-end metric's median over the
          untraced recordings is judged against the metric's bound in
          BENCHMARK.json, one row per workload. A metric whose run-to-run
          spread (quartile distance over median, either side) exceeds its
          bound is "unresolved", unless every NEW run beats every BASE run.

Exits 1 when a count differs or a metric regressed beyond its bound.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# Per-layer metrics that are operation counts, not timings or scheduling
# artefacts: they must repeat exactly for the same seed.
DETERMINISTIC = (
    "session.tasks", "rate_table.builds", "model.builds", "topology.colors",
    "cache.reprice_touches", "cache.scan_skips", "dynamics.activations",
    "dynamics.improving_steps", "metrics.cell_cache_entries", "sim.replays",
    "sim.channel_seconds", "io.output_bytes", "farm.launches",
    "farm.failures", "farm.artifact_bytes",
)


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    recordings = [json.loads(f.read_text()) for f in files]
    if not recordings:
        sys.exit(f"compare: no recordings in {path}")
    return recordings


def deterministic_counts(recording):
    counts = {"digest": recording["digest"], **recording["counts"]}
    for name, entry in recording["metrics"].items():
        if name in DETERMINISTIC or (name.startswith("engine.") and
                                     not name.endswith("_ms")):
            counts[name] = entry["value"]
    return counts


def spread(values):
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def compare_counts(base, new):
    """Rows of (key, field, base, new) for every count that differs."""
    def by_key(recordings):
        keyed = {}
        for r in recordings:
            key = (r["workload"], r["seed"], r["small"])
            keyed.setdefault(key, {}).update(deterministic_counts(r))
        return keyed

    base_counts, new_counts = by_key(base), by_key(new)
    diffs, compared = [], 0
    for key in sorted(base_counts.keys() & new_counts.keys()):
        compared += 1
        b, n = base_counts[key], new_counts[key]
        for field in sorted(b.keys() | n.keys()):
            if b.get(field) != n.get(field):
                diffs.append((key, field, b.get(field), n.get(field)))
    return compared, diffs


def judge(metric, base_values, new_values):
    """Verdict for one end-to-end metric on one workload."""
    b, n = statistics.median(base_values), statistics.median(new_values)
    lower = metric["better"] == "lower"
    worse_by = ((n - b) if lower else (b - n)) / b if b else 0.0
    noisy = max(spread(base_values), spread(new_values)) > metric["bound"]
    all_better = (max(new_values) < min(base_values) if lower
                  else min(new_values) > max(base_values))
    if noisy and not all_better:
        verdict = "unresolved"
    elif worse_by > metric["bound"]:
        verdict = "REGRESSED"
    elif worse_by < 0 and (all_better or -worse_by > spread(base_values)):
        verdict = "better"
    else:
        verdict = "same"
    return b, n, worse_by, verdict


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    base, new = load(args.base), load(args.new)

    for side, recordings in (("base", base), ("new", new)):
        stamps = {(r["stamp"]["build_type"], r["stamp"]["git_sha"],
                   r["stamp"]["source_sha256"][:12]) for r in recordings}
        loads = [r["stamp"]["loadavg_before"][0] for r in recordings]
        print(f"{side}: {len(recordings)} recordings, builds "
              f"{sorted(stamps)}, load {min(loads):.2f}..{max(loads):.2f}")

    failed = False
    compared, diffs = compare_counts(base, new)
    print(f"\ncounts: {compared} (workload, seed) pairs compared, "
          f"{len(diffs)} differences")
    for (workload, seed, small), field, b, n in diffs:
        print(f"  COUNT CHANGED {workload} seed {seed}"
              f"{' small' if small else ''}: {field} {b} -> {n}")
        failed = True

    print(f"\n{'workload':14} {'metric':15} {'base':>12} {'new':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    workloads = sorted({r["workload"] for r in base + new})
    for workload in workloads:
        def values(recordings, name):
            return [r["metrics"][name]["value"] for r in recordings
                    if r["workload"] == workload and r["trace"] == 0
                    and not r["small"] and name in r["metrics"]]
        for metric in spec["end_to_end"]:
            b, n = values(base, metric["name"]), values(new, metric["name"])
            if not b or not n:
                continue
            bm, nm, worse_by, verdict = judge(metric, b, n)
            failed |= verdict == "REGRESSED"
            print(f"{workload:14} {metric['name']:15} {bm:12.6g} {nm:12.6g} "
                  f"{100 * worse_by:8.2f}% {metric['bound']:6.2f}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
