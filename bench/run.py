"""End-to-end benchmark of the virtualmap CLI jobs, with a traced per-layer run.

    python3 bench/run.py --workload estimate-n8 --seed 1 --seconds 35 --trace 0

One invocation is one fresh process running one workload (see workloads.py).
It generates the inputs from ``--seed``, computes the dense reference, then
calls ``virtualmap.cli.main(argv)`` in-process, one job after another, until
``--seconds`` are used. Every job is checked against the reference; a job
fails if it exits non-zero, raises, or fails the check.

With ``--trace 0`` no tracing is active and the end-to-end metrics are
reported; their times are rescaled to a reference host speed (see
``ReferenceClock``). With ``--trace 1`` untraced and traced jobs alternate;
the traced jobs give the per-layer metrics, and spans are written to
``.bench_out/spans-<workload>-seed<seed>.npz``.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it records the machine, library
versions, seed, input description and per-job times.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import env

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
CALIBRATION_LOOPS = 2000
# The calibration loop's wall time on a 2-vCPU x86-64 virtual machine at its
# fastest (Python 3.11, numpy 2.4, OpenBLAS 0.3.31 pinned to one thread).
CALIBRATION_REF_S = 0.05


class JobFailed(RuntimeError):
    pass


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_once(workload: str, seed: int, dest: Path) -> float:
    """Wall seconds of one fresh process that imports virtualmap and writes the inputs."""
    cmd = [
        sys.executable, str(env.BENCH_DIR / "make_inputs.py"),
        "--workload", workload, "--seed", str(seed), "--out", str(dest),
    ]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    seconds = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"input generation failed: {done.stderr.strip()}")
    return seconds


def _run_job(main, argv) -> tuple[float, str]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    seconds = time.perf_counter() - t0
    if code != 0:
        raise JobFailed(f"exit code {code}: {err.getvalue().strip()}")
    return seconds, out.getvalue()


class Runner:
    """Runs and checks one workload's jobs, counting attempts and failures."""

    def __init__(self, workload, inputs, reference, work):
        from virtualmap.cli import main

        self.main = main
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.excess: list[float] = []

    def job(self) -> float:
        """Run one job and check it; returns its wall seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            seconds, stdout = _run_job(self.main, self.inputs.argv)
        except Exception:  # a job that raises counts as failed; keep measuring
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=3))
            return time.perf_counter() - t0
        try:
            self.excess.append(self.workload.check(self.reference, self.work, stdout))
        except Exception:  # gate failures and unreadable outputs alike
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=3))
        return seconds


def _measure(seconds: float, step) -> None:
    """Call ``step`` until the next call would likely overrun ``seconds``.

    ``step`` returns the wall seconds it took; at least one call is made.
    """
    t0 = time.perf_counter()
    costs = []
    while True:
        costs.append(step())
        if time.perf_counter() - t0 + statistics.median(costs) > seconds:
            return


def _calibration() -> float:
    """Wall seconds of a fixed loop of small numpy calls, the kind of work the
    jobs do, independent of virtualmap."""
    import numpy as np  # loaded only after env.prepare() pinned the thread pools

    eye, pair = np.eye(4, dtype=complex), np.ones((2, 2), dtype=complex)
    a = eye
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_LOOPS):
        big = np.kron(a, pair).reshape((2,) * 6)
        a = eye @ np.moveaxis(big, [0, 3], [1, 4]).reshape(8, 8)[:4, :4]
    return time.perf_counter() - t0


class ReferenceClock:
    """Rescales wall times to a host on which the calibration loop takes
    CALIBRATION_REF_S.

    The speed of a shared host drifts by tens of percent over seconds to
    minutes. Each timed event is bracketed by calibration loops, and its wall
    time is divided by their mean, so the drift cancels while changes in the
    program's own cost do not.
    """

    def __init__(self):
        self.calibrations = [_calibration()]

    def __call__(self, wall: float) -> float:
        after = _calibration()
        before = self.calibrations[-1]
        self.calibrations.append(after)
        return wall * CALIBRATION_REF_S * 2.0 / (before + after)


def _timed_run(runner: Runner, seconds: float, setup) -> tuple[dict, dict]:
    """End-to-end metrics: medians of reference-clock times, set-up timed
    between the first jobs so that it samples the same stretch of the run."""
    from metrics import END_TO_END

    clock = ReferenceClock()
    jobs, job_walls, setups, setup_walls = [], [], [], []

    def step():
        t0 = time.perf_counter()
        job_walls.append(runner.job())
        jobs.append(clock(job_walls[-1]))
        if len(setups) < SETUP_REPEATS:
            setup_walls.append(setup())
            setups.append(clock(setup_walls[-1]))
        return time.perf_counter() - t0

    _measure(seconds, step)
    while len(setups) < SETUP_REPEATS:
        setup_walls.append(setup())
        setups.append(clock(setup_walls[-1]))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(jobs),
        "peak_rss_mb": peak_kb / 1024.0,
        "energy_excess": statistics.median(runner.excess) if runner.excess else None,
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    info = {
        "job_wall_s": job_walls,
        "job_wall_median_s": statistics.median(job_walls),
        "setup_wall_s": setup_walls,
        "calibration_s": clock.calibrations,
    }
    return metrics, info


def _traced_run(runner: Runner, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    from metrics import TARGETS, per_layer_units, per_layer_values
    from tracing import Tracer, instrument, summarize

    tracer = Tracer()
    plain, traced = [], []

    def step():
        plain.append(runner.job())
        with instrument(tracer, TARGETS), tracer.job_span(len(traced)):
            traced.append(runner.job())
        return plain[-1] + traced[-1]

    _measure(seconds, step)
    per_job = summarize(tracer)
    tracer.save(spans_path)
    values = per_layer_values(per_job, tracer.counters, runner.inputs.description, plain, traced)
    calls = [{k: v["calls"] for k, v in per_job[j].items()} for j in sorted(per_job)]
    metrics = {k: {"value": values[k], "unit": u} for k, u in per_layer_units().items()}
    info = {
        "job_wall_s": plain,
        "traced_job_wall_s": traced,
        "absent": sorted(tracer.absent),
        "calls_repeat": all(c == calls[0] for c in calls),
        "spans": str(spans_path.relative_to(env.ROOT)),
    }
    return metrics, info


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        root = env.prepare()
    except env.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.generate(args.seed, work)
        reference = workload.reference(inputs, work)
        runner = Runner(workload, inputs, reference, work)
        if args.trace:
            spans = root / ".bench_out" / f"spans-{workload.name}-seed{args.seed}.npz"
            metrics, info = _traced_run(runner, args.seconds, spans)
        else:
            setup = functools.partial(_setup_once, workload.name, args.seed, work / "setup")
            metrics, info = _timed_run(runner, args.seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "environment": env.environment_record(args.seed),
        "inputs": inputs.description,
        "energy_excess": runner.excess[:1],
        "errors": runner.errors[:3],
        **info,
    }
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
