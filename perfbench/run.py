#!/usr/bin/env python3
"""End-to-end benchmark of ``gbmseg fuse`` and ``gbmseg evaluate``.

Usage, from the root of a gbmseg checkout:

    python3 perfbench/run.py --workload ensemble_local --seed 1 --seconds 20 --trace 0

The run generates the workload's dataset from the seed (see
``perfbench/datasets.py``), then repeats four commands until ``--seconds``
have passed: ``fuse --method staple``, ``--method vote`` and
``--method mean`` over the four rater directories, then ``evaluate`` of the
STAPLE output against the truth.

* ``--trace 0`` runs each command as a child process, one at a time, and
  reports wall time per case and peak RSS per command, plus the start-up
  time of a CLI process that does no case work (``setup_s``).
* ``--trace 1`` runs the same commands in this process through
  ``gbmseg.cli.main``, alternating untraced and traced rounds, and reports
  per-layer times and counts from the traced rounds (see ``tracing.py``).

Every cycle's outputs are checked (see ``checks.py``).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; progress and the input properties go to standard
error, and a record of the run goes to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORDS = ROOT / ".perfbench"
# per-layer metric -> unit; times and bytes are per case, counts per round
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in
                   json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
WORKLOADS = ("ensemble_local", "ensemble_scattered", "cohort_small")
COMMANDS = ("fuse_staple", "fuse_vote", "fuse_mean", "evaluate")
SETUP_REPEATS = 10  # fewest set-up samples per run
# One cycle of an untraced run.  Commands of about a second vary most from
# run to run (process start-up is half their time), so they run more than
# once a cycle; set-up is sampled twice, apart, so that it is spread over the
# whole run rather than taken at one moment.
CYCLE = ("setup", "fuse_staple", *["fuse_vote"] * 3, *["fuse_mean"] * 3,
         "setup", *["evaluate"] * 2)
PINNED_SEED = 0
HD95_SAMPLE = {"cohort_small": 2}  # brute-force HD95 is all-pairs: small cases only
RUN_LIMIT_S = 170  # children are killed past this point so the run ends in time
# One BLAS thread per process.  STAPLE's matrix-vector products gain nothing
# from a second thread on a small shared host, and the pool's spinning
# threads make wall and CPU time vary most from run to run.
SINGLE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _require_checkout() -> None:
    """Exit with code 2 unless the program and its test oracles are present."""
    needed = [SRC / "gbmseg" / "cli.py", ROOT / "tests" / "oracles.py", ROOT / "tests" / "phantoms.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a gbmseg checkout; missing {', '.join(missing)}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(ROOT / "tests"), str(ROOT)]


# Runs in a process of its own that never imports numpy.  A child's
# ru_maxrss includes the peak RSS of the process that forked it (Linux
# carries it across exec), so commands started from the benchmark process,
# which holds the datasets, would report that process's peak instead of
# their own.  os.wait4 gives each child's rusage; RUSAGE_CHILDREN would give
# the largest child so far for every later command.
_LAUNCHER = r"""
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    job = json.loads(line)
    start = time.perf_counter()
    proc = subprocess.Popen(job["argv"], cwd=job["cwd"], env=job["env"],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(job["timeout"], proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, usage.ru_maxrss, proc.returncode]), flush=True)
"""


class Launcher:
    """Starts commands one at a time from a small helper process and returns
    each one's wall time, peak RSS and exit code."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", _LAUNCHER], cwd=ROOT, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, argv: list[str], env: dict, timeout: float) -> tuple[float, float, int]:
        job = {"argv": argv, "cwd": str(ROOT), "env": env, "timeout": timeout}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        wall, rss_kb, code = json.loads(self.proc.stdout.readline())
        return wall, rss_kb / 1024, code

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=30)


def _log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class Run:
    """One benchmark run of one workload: dataset, commands and checks."""

    def __init__(self, workload: str, seed: int, work: Path, tiny: bool = False,
                 launcher: Launcher | None = None):
        from perfbench import checks, datasets

        self.started = perf_counter()
        self.launcher = launcher
        self.check_s = 0.0  # time spent in check_round
        self.samples: dict[str, list[float]] = {}
        self.workload, self.seed, self.tiny = workload, seed, tiny
        start = perf_counter()
        self.ds = datasets.generate(workload, seed, work / "data", tiny=tiny)
        self.generate_s = perf_counter() - start
        out = work / "out"
        self.out_dirs = {m: out / m for m in checks.METHODS}
        self.metrics_csv = out / "eval" / "metrics.csv"
        raters = [str(d) for d in self.ds.rater_dirs]
        self.argvs = {
            f"fuse_{m}": ["fuse", *raters, "--method", m, "--out", str(self.out_dirs[m])]
            for m in checks.METHODS
        }
        self.argvs["evaluate"] = ["evaluate", "--pred", str(self.out_dirs["staple"]),
                                  "--gt", str(self.ds.truth_dir), "--out", str(out / "eval")]
        self.per_case = {cmd: len(self.ds.cases) for cmd in COMMANDS}
        self.per_case["evaluate"] = len(self.ds.truth_of)
        self.checker = checks.Checker(self.ds, HD95_SAMPLE.get(workload, 0))
        self.rounds = []
        self.exit_codes: list[int] = []
        self.run_problems: list[str] = []

    # -- commands ----------------------------------------------------------

    def run_child(self, argv: list[str]) -> tuple[float, float]:
        """Run one command line as a child; returns (wall s, peak RSS MB)."""
        env = dict(os.environ, **SINGLE_THREAD, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        timeout = max(1.0, RUN_LIMIT_S - (perf_counter() - self.started))
        wall, rss_mb, code = self.launcher.run(argv, env, timeout)
        self.exit_codes.append(code)
        return wall, rss_mb

    def run_in_process(self, argv: list[str]) -> None:
        from gbmseg import cli

        with contextlib.redirect_stdout(io.StringIO()):
            self.exit_codes.append(cli.main(argv))

    # -- checks ------------------------------------------------------------

    def check_round(self) -> None:
        start = perf_counter()
        result = self.checker.check_round(self.out_dirs, self.metrics_csv)
        self.rounds.append(result)
        if len(self.rounds) == 1 and self.seed == PINNED_SEED and not self.tiny:
            self._check_digests()
        self.check_s += perf_counter() - start

    def digests(self) -> dict[str, str]:
        from perfbench import checks

        found = {"staple_labels": checks.labels_digest(self.ds.cases, self.out_dirs["staple"])}
        if not self.workload.startswith("cohort"):
            found["metrics_csv"] = checks.sha256(self.metrics_csv.read_bytes())
        return found

    def _check_digests(self) -> None:
        pinned = json.loads((Path(__file__).parent / "digests.json").read_text())[self.workload]
        try:
            found = self.digests()
        except Exception as err:  # an undecodable output fails the check, not the run
            found = {}
            self.run_problems.append(f"digest not computable: {err}")
        _log(f"digests on seed {PINNED_SEED}: {json.dumps(found)}")
        for key, value in pinned.items():
            if found.get(key) != value:
                self.run_problems.append(f"{key} digest differs from perfbench/digests.json")

    # -- result ------------------------------------------------------------

    def summary(self, metrics: dict[str, tuple[float, str]]) -> dict:
        attempted = sum(r.attempted for r in self.rounds)
        failed = sum(r.failed for r in self.rounds)
        if any(self.exit_codes):
            self.run_problems.append(f"command exit codes {sorted(set(self.exit_codes))}")
        for problem in sorted({p for r in self.rounds for p in r.problems})[:20]:
            _log(f"failed output: {problem}")
        for problem in self.run_problems:
            _log(f"check failed: {problem}")
        return {
            "correct": not self.run_problems and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }

    def ok_frac(self) -> float:
        attempted = sum(r.attempted for r in self.rounds)
        return 1.0 - sum(r.failed for r in self.rounds) / max(attempted, 1)


def _schedule(run: Run, seconds: float, cycle: tuple):
    """Yield the steps of ``cycle`` in turn, as (position in the cycle, step),
    while the next step should still end within ``seconds``, judging by its
    longest time so far; always one whole cycle at least.  A run thus uses
    nearly all of ``seconds`` whatever the length of a cycle.  Time spent
    checking outputs does not count."""
    def clock() -> float:
        return perf_counter() - run.check_s

    start = clock()
    longest: dict = {}
    for n in itertools.count():
        step = cycle[n % len(cycle)]
        if n >= len(cycle) and clock() - start + longest[step] > seconds:
            return
        begin = clock()
        yield n % len(cycle), step
        longest[step] = max(longest.get(step, 0.0), clock() - begin)


def measure_untraced(run: Run, seconds: float) -> dict[str, tuple[float, str]]:
    """Wall time per case and peak RSS of each command as a child process,
    over cycles of ``CYCLE``; ``setup`` is a ``fuse --help`` process."""
    gbmseg = [sys.executable, "-m", "gbmseg.cli"]
    argvs = {"setup": [*gbmseg, "fuse", "--help"],
             **{cmd: [*gbmseg, *run.argvs[cmd]] for cmd in COMMANDS}}
    samples = {"setup_s": []}
    samples.update({f"{cmd}_{kind}": [] for cmd in COMMANDS for kind in ("s", "rss_mb")})
    last = len(CYCLE) - 1
    for pos, step in _schedule(run, seconds, CYCLE):
        wall, mb = run.run_child(argvs[step])
        if step == "setup":
            samples["setup_s"].append(wall)
        else:
            samples[f"{step}_s"].append(wall / run.per_case[step])
            samples[f"{step}_rss_mb"].append(mb)
        if pos == last:
            run.check_round()
    if pos != last:
        run.check_round()  # outputs of the last, partial cycle
    while len(samples["setup_s"]) < SETUP_REPEATS:
        samples["setup_s"].append(run.run_child(argvs["setup"])[0])
    run.samples = samples
    metrics = {"setup_s": (statistics.median(samples["setup_s"]), "s")}
    for kind, unit in (("s", "s"), ("rss_mb", "MB")):
        for cmd in COMMANDS:
            metrics[f"{cmd}_{kind}"] = (statistics.median(samples[f"{cmd}_{kind}"]), unit)
    metrics["ok_frac"] = (run.ok_frac(), "fraction")
    return metrics


def _layer_values(tracer, n_cases: int) -> dict[str, float]:
    totals = tracer.totals()
    values = {}
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "s":
            values[name] = totals.get(name, 0.0) / n_cases
    for name in ("nifti_io.bytes_read", "nifti_io.bytes_written", "fusion.staple_bytes_computed"):
        values[name] = tracer.counts[name] / n_cases
    for name in ("fusion.staple_passthrough_regions", "postprocess.relabelled_cases",
                 "metrics.surface_voxel_count", "harness.fuzzy_pairs"):
        values[name] = tracer.counts[name]
    its = tracer.staple_iterations
    values["fusion.staple_iterations"] = sum(its) / len(its) if its else 0.0
    values["fusion.staple_peak_mb"] = tracer.staple_peak_mb
    values["metrics.union_bbox_frac"] = (
        sum(tracer.union_bbox) / len(tracer.union_bbox) if tracer.union_bbox else 0.0)
    return values


def measure_traced(run: Run, seconds: float, spans_path: Path) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from traced in-process rounds, each after an untraced one."""
    from perfbench.tracing import Tracer

    n_cases = len(run.ds.cases)
    plain, traced, layers, all_spans = [], [], [], []
    for _, traced_round in _schedule(run, seconds, (False, True)):
        tracer = Tracer() if traced_round else None
        if tracer is not None:
            tracer.install()
        try:
            begin = perf_counter()
            for cmd in COMMANDS:
                run.run_in_process(run.argvs[cmd])
            elapsed = (perf_counter() - begin) / n_cases
        finally:
            if tracer is not None:
                tracer.uninstall()
        run.check_round()
        if tracer is None:
            plain.append(elapsed)
        else:
            traced.append(elapsed)
            layers.append(_layer_values(tracer, n_cases))
            all_spans.append([vars(s) for s in tracer.spans])
    spans_path.write_text(json.dumps(all_spans))
    metrics = {name: (statistics.median(v[name] for v in layers), PER_LAYER_UNITS[name])
               for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, records: Path = RECORDS) -> dict:
    """Run one workload and return the result object the command prints."""
    records.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = records / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    launcher = None if trace else Launcher()
    try:
        run = Run(workload, seed, work, tiny=tiny, launcher=launcher)
        _log(f"{workload} seed {seed}: generated in {run.generate_s:.2f} s; "
             f"inputs {json.dumps(run.ds.properties)}")
        if trace:
            metrics = measure_traced(run, seconds, records / f"spans-{tag}.json")
        else:
            metrics = measure_untraced(run, seconds)
        result = run.summary(metrics)
        (records / f"run-{tag}.json").write_text(json.dumps({
            "inputs": run.ds.properties,
            "generate_s": run.generate_s,
            "rounds": len(run.rounds),
            "samples": run.samples,
            "problems": sorted({p for r in run.rounds for p in r.problems}) + run.run_problems,
            "result": result,
        }, indent=1))
        return result
    finally:
        if launcher is not None:
            launcher.close()
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(SINGLE_THREAD)  # before numpy is first imported
    _require_checkout()
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
