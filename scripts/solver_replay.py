#!/usr/bin/env python3
"""Replay the CPTP subproblems of one classical-ansatz run through the solver.

The run is the one the ``ansatz-n5`` benchmark job makes: the periodic N=5 XX
chain at field 0.95, one staircase layer, 24 rounds, seed 0. The objective
matrices are the ones that run itself hands to ``minimize_over_cptp`` (a
visit whose subproblem is unchanged since the component's last visit is not
solved again, so none repeats). The script solves them all again,
``--repeats`` times, and prints one JSON record: subproblems, Newton steps,
unconverged solves, the number of solves the run made (the subproblems, by
construction) and the median and quartiles of the seconds per Newton step.
Any unconverged solve of the run exits with status 1. ``--out`` also stores
the record in a JSON file under the key ``--tag``, keeping the file's other
keys.

The record also holds the solver's gap floor on a seeded random set: 600
Hermitian objectives from ``default_rng(0)``, alternating 4x4 and 16x16,
each scaled by 10^U(-2, 2), solved once at the default settings. It gives
their Newton steps, unconverged count and the worst ratio of the certified
gap to ``tol * (1 + |value|)``. A few of these solves end unconverged near a
degenerate optimal face, so this set does not gate the exit status.

Example:
    python3 scripts/solver_replay.py --repeats 15 --tag change --out BENCH_solver.json
"""

import sys
import time

import numpy as np

from replay import Calls, emit, parse, parser, quartiles
from virtualmap import varopt
from virtualmap.pauli import xx_hamiltonian
from virtualmap.varopt import SweepOptions, classical_ansatz

N, FIELD, ROUNDS, SEED = 5, 0.95, 24, 0
RANDOM_OBJECTIVES = 600


def random_objectives():
    """The seeded random set: alternating 4x4 and 16x16 Hermitian matrices,
    each scaled by 10^U(-2, 2)."""
    rng = np.random.default_rng(0)
    for i in range(RANDOM_OBJECTIVES):
        side = 4 if i % 2 == 0 else 16
        g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        yield (g + g.conj().T) / 2.0 * 10.0 ** rng.uniform(-2, 2)


def gap_floor(options) -> dict:
    steps = unconverged = 0
    worst = 0.0
    for m in random_objectives():
        _, info = varopt.minimize_over_cptp(m, options)
        steps += info["iters"]
        unconverged += not info["converged"]
        worst = max(worst, info["gap"] / (options.tol * (1.0 + abs(info["value"]))))
    return {
        "random_objectives": RANDOM_OBJECTIVES,
        "random_newton_steps": steps,
        "random_unconverged": unconverged,
        "random_worst_gap_over_tol": worst,
    }


def main(argv=None) -> int:
    args = parse(parser(__doc__, 15, "timed replays"), argv)
    obs = xx_hamiltonian(N, coupling=1.0, field=FIELD, periodic=True)
    options = SweepOptions(rounds=ROUNDS, seed=SEED, init="random_unitary")
    with Calls([varopt], ["minimize_over_cptp"], keep=True) as solves:
        classical_ansatz(obs, layers=1, options=options)
    mats = [objective.matrix for (objective, _), _ in solves.args["minimize_over_cptp"]]

    per_step = []
    for _ in range(args.repeats):
        steps = unconverged = 0
        start = time.perf_counter()
        for m in mats:
            _, info = varopt.minimize_over_cptp(m, options.sdp)
            steps += info["iters"]
            unconverged += not info["converged"]
        per_step.append((time.perf_counter() - start) / steps)
    emit(
        {
            "run": f"classical ansatz, XX chain N={N}, field {FIELD}, {ROUNDS} rounds, seed {SEED}",
            "subproblems": len(mats),
            "sweep_solves": solves.counts["minimize_over_cptp"],
            "newton_steps": steps,
            "unconverged": unconverged,
            **quartiles(per_step, "s_per_step"),
            **gap_floor(options.sdp),
        },
        args,
    )
    if unconverged:
        print(f"error: {unconverged} of {len(mats)} subproblems end unconverged", file=sys.stderr)
    return 1 if unconverged else 0


if __name__ == "__main__":
    raise SystemExit(main())
