#!/usr/bin/env python3
"""Self-check of the benchmark on seconds-long variants of its workloads.

    python3 perfbench/selfcheck.py

For each workload it runs perfbench/run.py --small twice untraced and once
traced, and asserts that:

  - every run succeeds, reports correct outputs and no failed attempts;
  - every metric BENCHMARK.json names is emitted, with its declared unit
    (end-to-end untraced, per-layer traced), and nothing else;
  - every per-layer metric has a prediction in perfbench/predictions.json;
  - the output digest and the deterministic counts repeat exactly across
    the two untraced runs (perfbench/compare.py's count check);
  - the traced replay reproduced the CLI's counts (run.py fails a traced
    run whose counts differ, so this is the traced run's `failed == 0`,
    re-checked here against the untraced run's recorded counts).

Exits 1 on the first workload that fails a check.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import compare  # noqa: E402
import run  # noqa: E402


def bench_run(workload, trace, record):
    """One run.py invocation; returns (result line, recording)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small",
         "--record", str(record)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"run not clean: {result['attempted']} attempted,"
                             f" {result['failed']} failed; problems "
                             f"{json.loads(record.read_text())['problems']}")
    return result, json.loads(record.read_text())


def check_names(result, declared, kind):
    emitted = {name: entry["unit"]
               for name, entry in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in declared}
    if emitted != expected:
        missing = sorted(expected.keys() - emitted.keys())
        extra = sorted(emitted.keys() - expected.keys())
        units = sorted(n for n in expected.keys() & emitted.keys()
                       if expected[n] != emitted[n])
        raise AssertionError(f"{kind}: missing {missing}, extra {extra}, "
                             f"unit mismatches {units}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            raise AssertionError(f"{kind}: {name} is not a number")


def check_workload(workload, spec, scratch):
    first, rec_a = bench_run(workload, 0, scratch / f"{workload}-a.json")
    check_names(first, spec["end_to_end"], "end_to_end")
    _, rec_b = bench_run(workload, 0, scratch / f"{workload}-b.json")
    _, diffs = compare.compare_counts([rec_a], [rec_b])
    if diffs:
        raise AssertionError(f"counts differ across two runs: {diffs}")
    traced, rec_t = bench_run(workload, 1, scratch / f"{workload}-t.json")
    check_names(traced, spec["per_layer"], "per_layer")
    if (rec_t["counts"], rec_t["digest"]) != (rec_a["counts"],
                                               rec_a["digest"]):
        raise AssertionError("traced run's CLI counts differ from the "
                             "untraced run's")
    replay = rec_t["replay"]
    if (replay["dynamics.activations"] != rec_a["counts"]["activations"] or
            replay["cache.reprice_touches"] !=
            rec_a["counts"]["reprice_touches"]):
        raise AssertionError("traced replay counts differ from the CLI's")


def main():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    predictions = json.loads((BENCH_DIR / "predictions.json").read_text())
    predicted = {name for layer in predictions["layers"]
                 for name in layer["metrics"]}
    unpredicted = sorted({m["name"] for m in spec["per_layer"]} - predicted)
    if unpredicted:
        print(f"selfcheck: no prediction for {unpredicted}")
        return 1
    run.build_root().mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.build_root()) as tmp:
        for workload in run.WORKLOADS:
            try:
                check_workload(workload, spec, Path(tmp))
            except AssertionError as error:
                print(f"selfcheck: {workload}: FAILED: {error}")
                return 1
            print(f"selfcheck: {workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
