#!/usr/bin/env python3
"""Benchmark of the predint command-line program.

Run from the repository root:

    python3 bench/run.py --workload figure2 --seed 1 --seconds 12 --trace 0

``--workload all`` (the default) runs every workload in turn. Each run
writes its inputs from ``--seed``, then calls the CLI in a closed loop, one
single-threaded child process at a time, until ``--seconds`` have passed
(at least one call). Every call's CSV is checked. Before each call a fresh
interpreter imports ``predint.cli`` and exits, which times set-up. With
``--trace 1`` one more call runs under ``bench/tracer.py`` and the run
reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from workloads import WORKLOADS  # noqa: E402

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# The same entry point as the installed ``predint`` console script.
CLI = [sys.executable, "-c",
       "import sys; from predint.cli import console_main; sys.argv[0] = 'predint'; console_main()"]
IMPORT_ONLY = [sys.executable, "-c", "import predint.cli"]
TRACED = [sys.executable, os.path.join(HERE, "tracer.py")]
SETUP_PROBES = 7  # set-up samples per run, at least
# The end-to-end metrics of the result line. wall_s and objects_per_s are
# printed but left out: on a host whose speed drifts, their run-to-run
# spread exceeds any usable bound (see bench/README.md).
RESULT_METRICS = ("setup_s", "peak_rss_mb")
RUN_LIMIT_S = 170.0  # every child is stopped by then, inside the 180 s a run may take


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def spawn(argv: list, env: dict, timeout: float, stderr_path: str) -> dict:
    """Run one child to completion; time it from spawn to exit and read its
    peak resident set size from the child's own rusage."""
    lock = threading.Lock()
    reaped = False
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)

    def kill():
        with lock:
            if not reaped:
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        with lock:
            reaped = True
    finally:
        timer.cancel()
        with lock:
            if not reaped:  # interrupted: stop the child before leaving
                os.kill(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                reaped = True
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}


def helper(script: str, *args) -> object:
    """Run a benchmark helper script in its own process and parse its JSON.

    Linux reports a child's peak resident set size as at least its parent's
    at spawn time, so numpy and the span files stay out of this process.
    """
    done = subprocess.run([sys.executable, os.path.join(HERE, script), *map(str, args)],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"bench/{script} failed: {done.stderr[-500:]}")
    return json.loads(done.stdout)


def upper_percentile(samples: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"max {max(samples):.4f} s (no percentile has 10 samples beyond it)"
    return f"p{100.0 * (n - 10) / n:.0f} {sorted(samples)[n - 11]:.4f} s"


class Run:
    """One workload at one seed: the closed loop, output checks and metrics."""

    def __init__(self, workload, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = child_env()
        self.inputs = helper("inputs.py", work, seed) if workload.needs_inputs else {}
        self.argv = workload.argv(seed, self.inputs)
        self.out = os.path.join(work, "out.csv")
        self.stderr = os.path.join(work, "stderr.txt")
        self.ends_by = time.monotonic() + RUN_LIMIT_S
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, prefix: list) -> dict:
        if os.path.exists(self.out):
            os.remove(self.out)
        timeout = max(1.0, self.ends_by - time.monotonic())
        result = spawn(prefix + self.argv + ["--out", self.out], self.env, timeout, self.stderr)
        self.attempted += 1
        problems = self.check(result)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return result

    def check(self, result: dict) -> list:
        if result["code"] != 0:
            with open(self.stderr, errors="replace") as handle:
                tail = handle.read()[-500:]
            return [f"exit code {result['code']}: {tail.strip()}"]
        if not os.path.exists(self.out):
            return ["no CSV written"]
        with open(self.out, "rb") as handle:
            body = handle.read()
        if self.reference is None:
            self.reference = body
        elif body != self.reference:
            return ["CSV differs from the run's first call"]
        try:
            return self.workload.check(body.decode(), self.inputs)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable CSV: {exc!r}"]

    def setup_probe(self) -> float:
        result = spawn(IMPORT_ONLY, self.env, 60.0, self.stderr)
        if result["code"] != 0:
            raise SystemExit(f"import predint.cli failed with exit code {result['code']}")
        return result["wall_s"]

    def measure(self, seconds: float, trace: bool) -> dict:
        self.setup_probe()  # bytecode compilation happens once per checkout, not per call
        setups, calls = [], []
        start = time.monotonic()
        while True:
            setups.append(self.setup_probe())
            calls.append(self.call(CLI))
            # Start another call only if it should end within half a call of
            # the measuring time, so a run takes about --seconds.
            if time.monotonic() - start + calls[-1]["wall_s"] / 2 >= seconds:
                break
        while len(setups) < SETUP_PROBES:
            setups.append(self.setup_probe())
        walls = [c["wall_s"] for c in calls]
        wall = statistics.median(walls)
        report = {
            "wall_s": (wall, "s"),
            "objects_per_s": (self.workload.objects / wall, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(c["rss_mb"] for c in calls), "MB"),
        }
        print(f"workload {self.workload.name}, seed {self.seed}: {len(calls)} calls, "
              f"{self.workload.objects} objects per call")
        for name, (value, unit) in report.items():
            print(f"  {name:14s} {value:12.4f} {unit}")
        print(f"  wall_s spread  {upper_percentile(walls)}, {len(walls)} samples; "
              f"setup_s from {len(setups)} samples")
        # A child's peak RSS reads at least this, see helper().
        print(f"  benchmark process peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
        print("detail " + json.dumps({"wall_s": walls, "setup_s": setups,
                                      "peak_rss_mb": [c["rss_mb"] for c in calls]}))
        metrics = {name: {"value": report[name][0], "unit": report[name][1]}
                   for name in RESULT_METRICS}
        if trace:
            spans = os.path.join(self.work, "spans.json")
            run_id = f"{self.workload.name}/seed={self.seed}/traced"
            traced = self.call(TRACED + [spans, run_id])
            metrics = helper("layers.py", spans, traced["wall_s"] - wall)
            for name, m in metrics.items():
                print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
        print(f"  error_rate     {self.failed}/{self.attempted}")
        for problem in self.problems:
            print(f"  FAILED: {problem}")
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "predint", "cli.py")):
        print(f"error: no predint sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = helper("environment.py")
    env["child_threads"] = THREAD_ENV
    print("env " + json.dumps(env, sort_keys=True))
    results = {}
    for name in names:
        work = os.path.join(HERE, ".work", f"{name}-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        try:
            run = Run(WORKLOADS[name], args.seed, work)
            metrics = run.measure(args.seconds, bool(args.trace))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        results[name] = {"correct": run.failed == 0, "attempted": run.attempted,
                         "failed": run.failed, "metrics": metrics}
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name, result in results.items():
            print(f"{name} " + json.dumps(result))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
