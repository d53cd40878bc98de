#!/usr/bin/env python3
"""Replay the CPTP subproblems of one classical-ansatz run through the solver.

The run is the one the ``ansatz-n5`` benchmark job makes: the periodic N=5 XX
chain at field 0.95, one staircase layer, 24 rounds, seed 0. A plain loop
that assembles and solves the subproblem of every sweep visit captures the
objective matrices (so the set is the same whether or not ``sweep`` reuses
an unchanged subproblem). The script then solves them all again with
``minimize_over_cptp``, ``--repeats`` times, and prints one JSON record:
subproblems, Newton steps, unconverged solves, the number of solves
``sweep`` itself makes on the same run, and the median and quartiles of the
seconds per Newton step. ``--out`` also stores the record in a JSON file
under the key ``--tag``, keeping the file's other keys.

Example:
    python3 scripts/solver_replay.py --repeats 15 --tag change --out BENCH_solver.json
"""

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from virtualmap import varopt
from virtualmap.cone import staircase
from virtualmap.estimation import classical_input
from virtualmap.maps import choi_to_superop, superop_to_choi
from virtualmap.pauli import xx_hamiltonian
from virtualmap.varopt import (
    SweepOptions,
    assemble_local_objective,
    classical_ansatz,
    minimize_over_cptp,
    sweep,
)

N, FIELD, ROUNDS, SEED = 5, 0.95, 24, 0


def capture(obs, options: SweepOptions) -> list[np.ndarray]:
    """Objective matrices of every visit of the ansatz sweep, in order."""
    data = classical_input(obs.num_qubits)
    current, _ = sweep(staircase(obs.num_qubits, 1), data, obs, replace(options, rounds=0))
    mats = []
    for _ in range(options.rounds):
        improved = False
        for index in range(len(current.components)):
            objective = assemble_local_objective(current, index, data, obs)
            mats.append(objective.matrix)
            choi, _ = minimize_over_cptp(objective, options.sdp)
            before = objective.value(superop_to_choi(current.components[index].map))
            if objective.value(choi) < before - options.accept_tol:
                current = current.with_component(index, choi_to_superop(choi))
                improved = True
        if not improved:
            break
    return mats


def sweep_solves(obs, options: SweepOptions) -> int:
    """Number of subproblem solves ``sweep`` makes on the same run."""
    calls = []
    real = varopt.minimize_over_cptp

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    varopt.minimize_over_cptp = counting
    try:
        classical_ansatz(obs, layers=1, options=options)
    finally:
        varopt.minimize_over_cptp = real
    return len(calls)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15, help="timed replays (>= 1)")
    parser.add_argument("--out", type=Path, default=None, help="JSON file to store the record in")
    parser.add_argument("--tag", default="current", help="key of the record in --out")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    obs = xx_hamiltonian(N, coupling=1.0, field=FIELD, periodic=True)
    options = SweepOptions(rounds=ROUNDS, seed=SEED, init="random_unitary")
    mats = capture(obs, options)

    per_step = []
    for _ in range(args.repeats):
        steps = unconverged = 0
        start = time.perf_counter()
        for m in mats:
            _, info = minimize_over_cptp(m, options.sdp)
            steps += info["iters"]
            unconverged += not info["converged"]
        per_step.append((time.perf_counter() - start) / steps)
    q1, median, q3 = np.percentile(per_step, [25, 50, 75])
    record = {
        "run": f"classical ansatz, XX chain N={N}, field {FIELD}, {ROUNDS} rounds, seed {SEED}",
        "subproblems": len(mats),
        "sweep_solves": sweep_solves(obs, options),
        "newton_steps": steps,
        "unconverged": unconverged,
        "repeats": args.repeats,
        "s_per_step_median": float(median),
        "s_per_step_q1": float(q1),
        "s_per_step_q3": float(q3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
    }
    print(json.dumps(record))
    if args.out is not None:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored[args.tag] = record
        args.out.write_text(json.dumps(stored, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
