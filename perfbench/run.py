#!/usr/bin/env python3
"""The mrca benchmark: four sweep workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 \
        --trace 0

It builds libmrca, the `mrca` CLI and `mrca_replay` in Release from the
sources in this checkout (into $CARGO_TARGET_DIR, default `.bench_build`),
then:

  --trace 0  times repeated runs of the real `mrca sweep` / `mrca farm`
             command for --seconds seconds, after one untimed reference
             run, and prints the end-to-end metrics (BENCHMARK.json
             "end_to_end"); wall and CPU time are those of the fastest
             timed run (see THREADS); a timed run during which the
             hypervisor stole more than STEAL_LIMIT of its CPU time is
             recorded but left out;
  --trace 1  also replays the same plan in-process through libmrca's public
             API with a span around every call (perfbench/replay.cpp) and
             prints the per-layer metrics (BENCHMARK.json "per_layer").

Every run checks the outputs: each CLI run's output digest must equal the
reference run's, the serial in-process replay must reproduce the CLI's CSV
(and JSONL) byte for byte and its operation counts exactly, and `farm_sim`'s
merged output must equal an in-process `mrca sweep` with the same flags. A
mismatch counts as a failed run. The last stdout line is the result object;
the full recording (provenance stamp, per-run samples, counts, digests,
replay report) goes to --record, default
<build dir>/recordings/<workload>-seed<seed>-trace<t>.json.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD_TIMEOUT_S = 150
MIN_REPS = 3  # timed CLI runs per benchmark run, however long each takes
# A timed run during which the hypervisor withheld more than this share of
# the CPU time the run used is disturbed: recorded, but left out of the
# metrics (another run takes its place).
STEAL_LIMIT = 0.05

METRIC_COLUMNS = ("nash", "poa", "theorem1", "welfare_eff", "fairness",
                  "convergence")
ENGINES = ("best_response", "log_linear", "trial_error", "distributed")
# Self-time layers: a span named "<layer>" or "<layer>.<anything>".
LAYERS = ("setup", "start", "dynamics", "record", "metrics", "sim", "sinks",
          "io", "merge", "task", "replay")

# Every command runs one task (farm: one shard) at a time. On a shared host
# some CPUs run the same code up to ~70% slower than others for seconds at a
# time (their hardware siblings busy with neighbours), and a command that
# needs several CPUs at once always meets some of them: with 2 to 4 threads,
# the ten-seed spread (quartile distance over median) of portfolio_512's and
# farm_sim's wall time reached 17-29%, against ~10% on one thread. A
# one-thread command runs on one CPU at a time, so the fastest of a run's
# samples is one that ran undisturbed; wall_s and cpu_s report it. Over ten
# runs of paper_grid, medians of ~35 samples spread 27%, their minima 6%.
THREADS = 1

# name -> (sweep flags at full size, sweep flags for the seconds-long
# self-check variant, farm?)
WORKLOADS = {
    # Four replicates keep one command under half a second, for many
    # samples per run.
    "paper_grid": dict(
        flags=["--users", "2:40", "--channels", "2:12", "--radios", "1:4",
               "--metrics", ",".join(METRIC_COLUMNS), "--replicates", "4"],
        small=["--users", "2:10", "--channels", "2:6", "--radios", "1:3",
               "--metrics", ",".join(METRIC_COLUMNS), "--replicates", "2"],
        farm=False),
    "portfolio_512": dict(
        flags=["--users", "512", "--channels", "12", "--radios", "4",
               "--rates", "powerlaw=1",
               "--dynamics", "best_response,log_linear:1e-4:1e-9,"
                             "trial_error:0.2,distributed:0.01",
               "--scenario", "base;topology=ring:2",
               "--max-activations", "400000", "--replicates", "4"],
        small=["--users", "64", "--channels", "6", "--radios", "2",
               "--rates", "powerlaw=1",
               "--dynamics", "best_response,log_linear:1e-3:1e-7,"
                             "trial_error:0.2,distributed:0.05",
               "--scenario", "base;topology=ring:2",
               "--max-activations", "40000", "--replicates", "2"],
        farm=False),
    "ring_1m": dict(
        flags=["--users", "1000000", "--channels", "12", "--radios", "4",
               "--scenario", "topology=ring:2", "--granularity", "single",
               "--max-activations", "64000000"],
        small=["--users", "20000", "--channels", "12", "--radios", "4",
               "--scenario", "topology=ring:2", "--granularity", "single",
               "--max-activations", "64000000"],
        farm=False),
    "farm_sim": dict(
        flags=["--users", "8:64:8", "--channels", "4,8,12", "--radios", "1:3",
               "--rates", "dcf", "--sim", "dcf", "--sim-seconds", "2",
               "--replicates", "4"],
        small=["--users", "8:24:8", "--channels", "4,8", "--radios", "1:2",
               "--rates", "dcf", "--sim", "dcf", "--sim-seconds", "0.5"],
        farm=True),
}
FARM_SHARDS = 8


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, failed build,
    non-Release build); the run exits nonzero without printing one."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build --

def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else Path.cwd() / base


def build(jobs):
    """Configures (once) and builds the benchmark's Release binaries."""
    if not (ROOT / "src" / "engine" / "session.h").is_file():
        raise BenchError(f"no mrca sources under {ROOT / 'src'}")
    out = build_root() / "cmake"
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    with open(log_path, "w") as build_log:
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", str(out), "-j", str(jobs),
                      "--target", "mrca_cli", "mrca_replay"])
        # A compiler cache would write outside the checkout.
        env = dict(os.environ, CCACHE_DISABLE="1")
        for step in steps:
            if subprocess.call(step, stdout=build_log, env=env,
                               stderr=subprocess.STDOUT) != 0:
                tail = log_path.read_text(errors="replace")[-3000:]
                raise BenchError(
                    f"build step failed: {' '.join(step)}\n{tail}")
    build_type = None
    for line in (out / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type != "Release":
        raise BenchError(f"refusing to record from a {build_type!r} build; "
                         "only Release builds are recorded")
    return out, build_type


def source_digest():
    """SHA-256 over the sources the benchmark builds, for the stamp."""
    digest = hashlib.sha256()
    suffixes = (".h", ".cpp", ".py", ".txt")
    files = sorted(p for d in ("src", "tools", "perfbench")
                   for p in (ROOT / d).rglob("*")
                   if p.is_file() and p.suffix in suffixes)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


# ---------------------------------------------------------------- running --

def steal_seconds():
    """CPU time the hypervisor has withheld from this machine's CPUs so far
    (the "steal" column of /proc/stat), or 0 where it is not reported."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_timed(args, stdout_path, stderr_path):
    """Runs one command to completion; returns wall, CPU of the process tree,
    its largest resident set, the CPU time stolen meanwhile, and the exit
    status. Children the command waited for are included in the rusage."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        steal = steal_seconds()
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        steal = steal_seconds() - steal
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return dict(wall_s=wall, cpu_s=cpu, rss_mb=usage.ru_maxrss / 1024.0,
                steal_s=steal, disturbed=steal > STEAL_LIMIT * cpu,
                status=proc.returncode)


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def csv_counts(text):
    """Deterministic totals from a sweep CSV (the CLI reports per-cell means;
    mean x runs recovers the integer totals)."""
    rows = list(csv.DictReader(io.StringIO(text)))
    totals = dict(cells=len(rows), runs=0, converged=0, activations=0,
                  improving_steps=0, scan_skips=0, reprice_touches=0)
    columns = dict(activations="activations_mean",
                   improving_steps="improving_mean",
                   scan_skips="scan_skips_mean",
                   reprice_touches="reprice_touches_mean")
    for row in rows:
        runs = int(row["runs"])
        totals["runs"] += runs
        totals["converged"] += int(row["converged"])
        for key, column in columns.items():
            totals[key] += round(float(row[column]) * runs)
    return totals, rows


def invariant_violations(workload, rows):
    """Properties every correct output has, whatever the seed."""
    for row in rows:
        if int(row["converged"]) > int(row["runs"]):
            yield f"cell {row['cell']}: converged > runs"
        # A converged best-response run ends in a Nash equilibrium.
        if (workload == "paper_grid" and row["converged"] == row["runs"]
                and float(row["nash_ne_mean"]) != 1.0):
            yield f"cell {row['cell']}: converged but not Nash"
        if workload == "farm_sim" and int(row["sim_runs"]) != int(row["runs"]):
            yield f"cell {row['cell']}: sim_runs != runs"


class Session:
    """One benchmark run of one workload."""

    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.flags = list(self.spec["small" if args.small else "flags"])
        self.flags += ["--seed", str(args.seed)]
        self.work = build_root() / "work" / args.workload
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)
        log(f"FAILED: {message}")

    def cli_args(self, mrca, rep_dir):
        if self.spec["farm"]:
            return ([str(mrca), "farm"] + self.flags +
                    ["--shards", str(FARM_SHARDS), "--jobs", str(THREADS),
                     "--dir", str(rep_dir / "farm"),
                     "--records", str(rep_dir / "records.jsonl"),
                     "--format", "csv"])
        return ([str(mrca), "sweep"] + self.flags +
                ["--threads", str(THREADS), "--format", "csv"])

    def run_cli(self, mrca, name):
        """One CLI run into work/<name>/; returns its sample or None."""
        rep_dir = self.work / name
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep_dir.mkdir(parents=True)
        self.attempted += 1
        sample = run_timed(self.cli_args(mrca, rep_dir), rep_dir / "out.csv",
                           rep_dir / "stderr.txt")
        if sample["status"] != 0:
            self.fail(f"{name}: exit status {sample['status']}")
            return None
        sample["digest"] = sha256_file(rep_dir / "out.csv")
        if self.spec["farm"]:
            sample["digest"] += ":" + sha256_file(rep_dir / "records.jsonl")
        sample["dir"] = rep_dir
        return sample

    def run_replay(self, replay, name, extra):
        """One mrca_replay run into work/<name>/; returns (report, dir)."""
        out = self.work / name
        shutil.rmtree(out, ignore_errors=True)
        args = ([str(replay)] + self.flags +
                ["--threads", str(THREADS), "--out", str(out)] + extra)
        self.attempted += 1
        sample = run_timed(args, self.work / f"{name}.json",
                           self.work / f"{name}.err")
        if sample["status"] != 0:
            err = (self.work / f"{name}.err").read_text()[-2000:]
            self.fail(f"{name} exit status {sample['status']}: {err}")
            return None, out
        return json.loads((self.work / f"{name}.json").read_text()), out

    def setup_burst(self, replay):
        """One burst of set-up builds (at least one, for 0.1 s) in a fresh
        process; returns its fastest build. Neighbours on a shared host
        slow whole bursts by up to ~50% (a sub-millisecond set-up reads
        either fast or slow for a burst's 0.1 s), so setup_s is the fastest
        build over all of a run's bursts: the one least disturbed by them."""
        report, _ = self.run_replay(
            replay, "setup", ["--setup-only", "--setup-reps", "1",
                              "--setup-seconds", "0.1"])
        return min(report["setup_samples_s"]) if report else None

    def check_against_replay(self, reference, report, replay_out, cli_counts):
        """The in-process replay must reproduce the CLI byte for byte."""
        if (replay_out / "replay.csv").read_bytes() != \
                (reference["dir"] / "out.csv").read_bytes():
            self.fail("replay CSV differs from the CLI's")
        if self.spec["farm"] and (replay_out / "replay.jsonl").read_bytes() \
                != (reference["dir"] / "records.jsonl").read_bytes():
            self.fail("replay JSONL differs from the CLI's")
        replay_counts = dict(
            cells=int(report["model.builds"]),
            runs=int(report["count.runs"]),
            converged=int(report["count.converged"]),
            activations=int(report["dynamics.activations"]),
            improving_steps=int(report["dynamics.improving_steps"]),
            scan_skips=int(report["cache.scan_skips"]),
            reprice_touches=int(report["cache.reprice_touches"]))
        if replay_counts != cli_counts:
            self.fail(f"replay counts {replay_counts} != CLI {cli_counts}")

    def check_farm_against_sweep(self, mrca, reference):
        """farm_sim's merged output equals the one-process sweep."""
        rep_dir = self.work / "inprocess"
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep_dir.mkdir(parents=True)
        self.attempted += 1
        args = ([str(mrca), "sweep"] + self.flags +
                ["--threads", str(THREADS), "--format", "csv",
                 "--records", str(rep_dir / "records.jsonl")])
        sample = run_timed(args, rep_dir / "out.csv", rep_dir / "stderr.txt")
        if sample["status"] != 0:
            self.fail(f"in-process sweep exit status {sample['status']}")
            return
        for name in ("out.csv", "records.jsonl"):
            if (rep_dir / name).read_bytes() != \
                    (reference["dir"] / name).read_bytes():
                self.fail(f"farm {name} differs from the in-process sweep")

    def execute(self):
        args = self.args
        load_before = os.getloadavg()
        build_dir, build_type = build(min(4, os.cpu_count() or 1))
        mrca, replay = build_dir / "mrca" / "mrca", build_dir / "mrca_replay"
        self.work.mkdir(parents=True, exist_ok=True)

        # Timed CLI runs, each followed by a burst of set-up builds, so both
        # sample the same stretch of machine time; setup_s is the fastest of
        # the bursts' builds. The loop stops when one more round would
        # overrun --seconds (after at least MIN_REPS runs). A first, untimed
        # run warms the caches; its output is the reference every timed run
        # must reproduce.
        reference = self.run_cli(mrca, "reference")
        if reference is None:
            raise BenchError("the reference run failed")
        samples, setup_bursts, rounds = [], [], []
        start = time.perf_counter()
        steal_start = steal_seconds()
        while len(samples) < MIN_REPS or (
                time.perf_counter() - start + statistics.median(rounds)
                <= args.seconds):
            if self.failed >= 3:
                raise BenchError("too many failed runs")
            round_start = time.perf_counter()
            sample = self.run_cli(mrca, "timed")
            if sample is None:
                continue
            if sample["digest"] != reference["digest"]:
                self.fail("output digest differs from the reference run's")
            samples.append(sample)
            burst = self.setup_burst(replay)
            if burst is not None:
                setup_bursts.append(burst)
            rounds.append(time.perf_counter() - round_start)
        cli_text = (reference["dir"] / "out.csv").read_text()
        cli_counts, rows = csv_counts(cli_text)
        for violation in invariant_violations(args.workload, rows):
            self.fail(violation)

        if self.spec["farm"]:
            self.check_farm_against_sweep(mrca, reference)
        extra = ["--trace", str(args.trace), "--setup-reps",
                 "5" if args.trace else "1"]
        if self.spec["farm"]:
            extra += ["--jsonl", "--merge-dir", str(reference["dir"] / "farm")]
        report, replay_out = self.run_replay(replay, f"replay{args.trace}",
                                             extra)
        if report is not None:
            self.check_against_replay(reference, report, replay_out,
                                      cli_counts)
        load_after = os.getloadavg()
        steal = steal_seconds() - steal_start

        timed = [s for s in samples if not s["disturbed"]]
        if len(timed) < MIN_REPS:
            log(f"only {len(timed)} undisturbed runs; using all "
                f"{len(samples)}")
            timed = samples
        wall = min(s["wall_s"] for s in timed)
        metrics, layer_check = {}, None
        if args.trace == 0:
            metrics = end_to_end(timed, setup_bursts, cli_counts, self)
        elif report is not None:
            metrics, layer_check = per_layer(args.workload, report, wall, self,
                                             reference, cli_text)
        correct = self.failed == 0
        recording = dict(
            stamp=dict(build_type=build_type, git_sha=git_sha(),
                       source_sha256=source_digest(), nproc=os.cpu_count(),
                       loadavg_before=load_before, loadavg_after=load_after,
                       steal_s=steal,
                       disturbed_runs=len(samples) - len(timed),
                       host=platform.node(), machine=platform.machine(),
                       python=platform.python_version()),
            workload=args.workload, seed=args.seed, trace=args.trace,
            small=args.small, seconds=args.seconds,
            command=self.cli_args(Path("mrca"), Path("<dir>")),
            samples=[{k: v for k, v in s.items() if k != "dir"}
                     for s in samples],
            setup_burst_s=setup_bursts,
            digest=reference["digest"], counts=cli_counts,
            replay=report, layer_check=layer_check, problems=self.problems,
            correct=correct, attempted=self.attempted, failed=self.failed,
            failed_frac=self.failed / self.attempted, metrics=metrics)
        record_path = Path(args.record) if args.record else (
            build_root() / "recordings" /
            f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        record_path.parent.mkdir(parents=True, exist_ok=True)
        record_path.write_text(json.dumps(recording, indent=1) + "\n")
        log(f"recorded {record_path} (load {load_before[0]:.2f} -> "
            f"{load_after[0]:.2f}, steal {steal:.2f} s, {len(timed)} of "
            f"{len(samples)} timed runs undisturbed)")
        return dict(correct=correct, attempted=self.attempted,
                    failed=self.failed, metrics=metrics)


def metric(value, unit):
    return dict(value=value, unit=unit)


def end_to_end(samples, setup_bursts, cli_counts, session):
    """BENCHMARK.json "end_to_end", from the untraced CLI runs and the
    set-up bursts between them."""
    return {
        "wall_s": metric(min(s["wall_s"] for s in samples), "s"),
        "cpu_s": metric(min(s["cpu_s"] for s in samples), "s"),
        "setup_s": metric(min(setup_bursts), "s"),
        "peak_rss_mb": metric(
            statistics.median(s["rss_mb"] for s in samples), "MB"),
        "converged_frac": metric(
            cli_counts["converged"] / cli_counts["runs"], "ratio"),
        "success_frac": metric(
            1.0 - session.failed / session.attempted, "ratio"),
    }


def span(report, name, field="total_s"):
    return report.get(f"span.{name}.{field}", 0.0)


def per_call(total, calls, scale):
    return scale * total / calls if calls else 0.0


def self_times(report, farm):
    """Self time per layer, from the span totals. The JSON writer and the
    shard merge are on the CLI's path only for the farm (children write
    JSON shards, the parent merges them); elsewhere the replay times them
    for the per-layer metrics but leaves them out of the shares."""
    layers = {layer: 0.0 for layer in LAYERS}
    for key, value in report.items():
        if key.startswith("span.") and key.endswith(".self_s"):
            name = key[len("span."):-len(".self_s")]
            if farm or name not in ("io.json", "merge"):
                layers[name.split(".", 1)[0]] += value
    return layers


def share_checks(workload, shares):
    """The claim each workload was chosen for, about where its time goes,
    checked against the trace; disagreements are reported, not hidden."""
    work = {k: v for k, v in shares.items() if k not in ("task", "replay")}
    largest = max(work, key=work.get)
    checks = {
        "paper_grid": ("metrics is the largest layer", largest == "metrics"),
        "farm_sim": ("sim is the largest layer", largest == "sim"),
        "ring_1m": ("setup + start allocation >= 25% of traced time",
                    shares["setup"] + shares["start"] >= 0.25),
        "portfolio_512": ("dynamics is the largest layer",
                          largest == "dynamics"),
    }
    claim, agrees = checks[workload]
    return dict(claim=claim, agrees=agrees, largest=largest,
                shares={k: round(v, 4) for k, v in shares.items()})


def per_layer(workload, report, cli_wall, session, reference, cli_text):
    """BENCHMARK.json "per_layer", from the traced replay."""
    r = report
    runs = r["count.runs"]
    activations = r["dynamics.activations"]
    replays = r["sim.replays"]
    farm = session.spec["farm"]
    dynamics_s = sum(span(r, f"dynamics.{e}") for e in ENGINES)
    m = {
        "session.tasks": metric(r["session.tasks"], "count"),
        "session.task_ms_p50": metric(r["session.task_ms_p50"], "ms"),
        "session.task_ms_p99": metric(r["session.task_ms_p99"], "ms"),
        "session.utilization": metric(
            r["session.task_total_s"] / (cli_wall * THREADS), "ratio"),
        "session.max_buffered": metric(r["session.max_buffered"], "count"),
        "setup.plan_ms": metric(r["setup.plan_ms"], "ms"),
        "rate_table.build_ms": metric(r["rate_table.build_ms"], "ms"),
        "rate_table.builds": metric(r["rate_table.builds"], "count"),
        "model.build_ms": metric(r["model.build_ms"], "ms"),
        "model.builds": metric(r["model.builds"], "count"),
        "topology.build_ms": metric(r["topology.build_ms"], "ms"),
        "topology.colors": metric(r["topology.colors"], "count"),
        "start.alloc_ms": metric(1e3 * span(r, "start.alloc"), "ms"),
        "cache.build_ms": metric(r["cache.build_ms"], "ms"),
        "cache.move_ns": metric(r["cache.move_ns"], "ns"),
        "cache.reprice_touches": metric(r["cache.reprice_touches"], "count"),
        "cache.scan_skips": metric(r["cache.scan_skips"], "count"),
        "cache.touches_per_move": metric(per_call(
            r["cache.reprice_touches"], r["dynamics.improving_steps"], 1.0),
            "ratio"),
        "scan.best_response_us": metric(r["scan.best_response_us"], "us"),
        "scan.best_single_change_us": metric(
            r["scan.best_single_change_us"], "us"),
        "scan.is_nash_ms": metric(r["scan.is_nash_ms"], "ms"),
        "dynamics.activations": metric(activations, "count"),
        "dynamics.improving_steps": metric(
            r["dynamics.improving_steps"], "count"),
        "dynamics.activation_ns": metric(
            per_call(dynamics_s, activations, 1e9), "ns"),
        "dynamics.skip_ratio": metric(
            per_call(r["cache.scan_skips"], activations, 1.0), "ratio"),
        "dynamics.improving_ratio": metric(
            per_call(r["dynamics.improving_steps"], activations, 1.0),
            "ratio"),
    }
    for engine in ENGINES:
        m[f"engine.{engine}.run_ms"] = metric(
            1e3 * span(r, f"dynamics.{engine}"), "ms")
        m[f"engine.{engine}.activations"] = metric(
            r.get(f"engine.{engine}.activations", 0.0), "count")
        m[f"engine.{engine}.converged"] = metric(
            r.get(f"engine.{engine}.converged", 0.0), "count")
    for name in METRIC_COLUMNS:
        m[f"metrics.{name}.us_per_run"] = metric(
            per_call(span(r, f"metrics.{name}"), runs, 1e6), "us")
    m["metrics.cell_cache_entries"] = metric(
        r["metrics.cell_cache_entries"], "count")
    replay_s = span(r, "sim.replay")
    m.update({
        "sim.replay_ms": metric(per_call(replay_s, replays, 1e3), "ms"),
        "sim.analytic_us": metric(per_call(
            span(r, "sim.analytic"), span(r, "sim.analytic", "count"), 1e6),
            "us"),
        "sim.replays": metric(replays, "count"),
        "sim.channel_seconds": metric(r["sim.channel_seconds"], "count"),
        "sim.channel_seconds_per_s": metric(
            per_call(r["sim.channel_seconds"], replay_s, 1.0), "1/s"),
        "sinks.aggregate_us_per_record": metric(per_call(
            span(r, "sinks.aggregate"), span(r, "sinks.aggregate", "count"),
            1e6), "us"),
        "sinks.jsonl_us_per_record": metric(per_call(
            span(r, "sinks.jsonl"), span(r, "sinks.jsonl", "count"), 1e6),
            "us"),
        "io.csv_ms": metric(r["io.csv_ms"], "ms"),
        "io.json_ms": metric(r["io.json_ms"], "ms"),
    })
    output_bytes = len(cli_text.encode())
    launches = failures = artifact_bytes = 0
    if farm:
        output_bytes += (reference["dir"] / "records.jsonl").stat().st_size
        farm_log = (reference["dir"] / "stderr.txt").read_text()
        found = re.search(r"\((\d+) launch\(es\), (\d+) failure\(s\)\)",
                          farm_log)
        if found is None:
            session.fail("farm log has no launch summary")
        else:
            launches, failures = int(found[1]), int(found[2])
        artifact_bytes = sum(p.stat().st_size
                             for p in (reference["dir"] / "farm").iterdir()
                             if p.name.startswith("cells_"))
    m.update({
        "io.output_bytes": metric(output_bytes, "bytes"),
        "farm.launches": metric(launches, "count"),
        "farm.failures": metric(failures, "count"),
        "farm.merge_ms": metric(r["farm.merge_ms"], "ms"),
        "farm.artifact_bytes": metric(artifact_bytes, "bytes"),
        "farm.overhead_s": metric(cli_wall - r["session.inprocess_s"], "s"),
    })
    layers = self_times(r, farm)
    traced_total = sum(layers.values())
    for layer in LAYERS:
        m[f"self.{layer}.ms"] = metric(1e3 * layers[layer], "ms")
        m[f"self.{layer}.share"] = metric(
            per_call(layers[layer], traced_total, 1.0), "ratio")
    m["trace.replay_s"] = metric(r["replay_traced_s"], "s")
    m["trace.overhead_s"] = metric(
        r["replay_traced_s"] - r["replay_warm_s"], "s")
    check = share_checks(workload, {k: per_call(v, traced_total, 1.0)
                                    for k, v in layers.items()})
    log(f"layer shares: {check}")
    return m, check


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="seconds-long variant of the workload "
                             "(self-check)")
    parser.add_argument("--record", help="recording path")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        result = Session(args).execute()
    except BenchError as error:
        log(str(error))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
