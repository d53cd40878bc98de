#!/usr/bin/env python3
"""Replay the CPTP subproblems of two sweeps through the solver.

The first run is the one the ``ansatz-n5`` benchmark job makes: the periodic
N=5 XX chain at field 0.95, one staircase layer, 24 rounds, seed 0. The
objective matrices are the ones that run itself hands to
``minimize_over_cptp`` (the sweep skips a component that no install has
changed since its last solve, so none repeats). The script solves them all
again, ``--repeats`` times, and prints one JSON record: subproblems, Newton
steps, the most steps of one solve, unconverged solves, the number of solves
the run made (the subproblems, by construction), the steps of its sweep
report, and the minimum, median and quartiles of the seconds per Newton
step. The minimum is the least disturbed by other load on the machine; to
compare two versions, run them alternately and compare their minima.

The second run is an exact-state sweep at N=3, where the solver used to
stall: ``brickwork(3, 2)`` in its ``random_unitary`` initialisation (seed 0)
against the ground state of the periodic N=3 XX chain at field 0.95,
perturbed by ``build_perturbed_state(rho, 0.05, 21)``, for 3 rounds. Its
subproblems are solved once, and the record gives the same counts under
``exact_*`` keys.

The record also holds the solver on a seeded random set: 600 Hermitian
objectives from ``default_rng(0)``, alternating 4x4 and 16x16, each scaled
by 10^U(-2, 2), solved once at the default settings. It gives the same
counts under ``random_*`` keys. Every set also records the worst ratio of
the certified gap to ``tol * (1 + |value|)``, and a SHA-256 digest over each
solve's returned Choi matrix bytes, dual bound and Newton steps, in order:
two versions of the solver give the same answers bit for bit exactly when
their digests agree.

Any unconverged solve in any of the three sets exits with status 1, and so
does an ``ansatz-n5`` sweep whose steps are not its solves, one each.
``--out`` also stores the record in a JSON file under the key ``--tag``,
keeping the file's other keys.

``--parent REF`` also loads the package of git revision ``REF`` and solves
the same three sets with it: each set's ``parent_*`` keys give that
package's Newton steps, unconverged solves and digest, and ``digest_equal``
whether the two give the same answers bit for bit. Then, ``--repeats``
times, each set is timed once on either package, the order alternating:
the record gives both least seconds per Newton step, the median paired
difference (change - parent) and the pairs the working tree won. A digest
that differs from the parent's exits with status 1, after the record is
written; ``--parent HEAD`` checks the working tree against its last commit.

Examples:
    python3 scripts/solver_replay.py --repeats 15 --tag change --out BENCH_solver.json
    python3 scripts/solver_replay.py --repeats 15 --parent HEAD~1
"""

import hashlib
import struct
import sys
import time

import numpy as np

from replay import Calls, emit, paired, parent_package, parse, parser, quartiles
from virtualmap import varopt
from virtualmap.cone import brickwork
from virtualmap.densesim import DensityMatrix, build_perturbed_state, exact_ground_energy
from virtualmap.pauli import xx_hamiltonian
from virtualmap.varopt import SweepOptions, classical_ansatz, sweep

N, FIELD, ROUNDS, SEED = 5, 0.95, 24, 0
EXACT_N, EXACT_LAYERS, EXACT_ROUNDS = 3, 2, 3
RANDOM_OBJECTIVES = 600


def random_objectives():
    """The seeded random set: alternating 4x4 and 16x16 Hermitian matrices,
    each scaled by 10^U(-2, 2)."""
    rng = np.random.default_rng(0)
    for i in range(RANDOM_OBJECTIVES):
        side = 4 if i % 2 == 0 else 16
        g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        yield (g + g.conj().T) / 2.0 * 10.0 ** rng.uniform(-2, 2)


def sweep_objectives(run) -> tuple[list, int, int]:
    """The objective matrices ``run()`` hands to the solver, its solves and
    the steps of the sweep report it returns."""
    with Calls([varopt], ["minimize_over_cptp"], keep=True) as solves:
        _, report = run()
    mats = [objective for (objective, _), _ in solves.args["minimize_over_cptp"]]
    return mats, solves.counts["minimize_over_cptp"], len(report.steps)


def solve_all(mats, options, prefix: str = "", solver=varopt) -> dict:
    """Solve each of ``mats`` once with ``solver``'s ``minimize_over_cptp``:
    Newton steps, most steps of one solve, unconverged solves, the worst
    certified gap over ``tol * (1 + |value|)`` and the digest of the
    answers, under keys that start with ``prefix``."""
    steps = most = unconverged = 0
    worst = 0.0
    digest = hashlib.sha256()
    for m in mats:
        choi, info = solver.minimize_over_cptp(m, options)
        digest.update(choi.matrix.tobytes())
        digest.update(struct.pack("<dq", info["dual_bound"], info["iters"]))
        steps += info["iters"]
        most = max(most, info["iters"])
        unconverged += not info["converged"]
        worst = max(worst, info["gap"] / (options.tol * (1.0 + abs(info["value"]))))
    return {
        f"{prefix}newton_steps": steps,
        f"{prefix}most_steps": most,
        f"{prefix}unconverged": unconverged,
        f"{prefix}worst_gap_over_tol": worst,
        f"{prefix}digest": digest.hexdigest(),
    }


def exact_state_objectives() -> list:
    obs = xx_hamiltonian(EXACT_N, coupling=1.0, field=FIELD, periodic=True)
    _, vec = exact_ground_energy(obs)
    rho = build_perturbed_state(DensityMatrix(EXACT_N, np.outer(vec, vec.conj())), 0.05, 21)
    start = brickwork(EXACT_N, EXACT_LAYERS)
    sweep_options = SweepOptions(rounds=EXACT_ROUNDS, seed=SEED, init="random_unitary")
    mats, _, _ = sweep_objectives(lambda: sweep(start, rho, obs, sweep_options))
    return mats


def seconds_per_step(solver, mats, options, steps: int) -> float:
    start = time.perf_counter()
    for m in mats:
        solver.minimize_over_cptp(m, options)
    return (time.perf_counter() - start) / steps


def main(argv=None) -> int:
    args = parse(parser(__doc__, 15, "timed replays", pairs=True), argv)
    obs = xx_hamiltonian(N, coupling=1.0, field=FIELD, periodic=True)
    options = SweepOptions(rounds=ROUNDS, seed=SEED, init="random_unitary")
    mats, solves, steps = sweep_objectives(lambda: classical_ansatz(obs, layers=1, options=options))
    # the three sets, by the prefix of their keys
    sets = {"": mats, "exact_": exact_state_objectives(), "random_": list(random_objectives())}
    runs = [("", varopt, options.sdp)]
    if args.parent is not None:
        parent = parent_package(args.parent).varopt
        sdp = parent.SdpOptions(max_iters=options.sdp.max_iters, tol=options.sdp.tol)
        runs.append(("parent_", parent, sdp))
    counts = {
        prefix + name: solve_all(set_mats, sdp, prefix + name, solver)
        for prefix, set_mats in sets.items()
        for name, solver, sdp in runs
    }

    # without --parent only the ansatz set is timed
    timed = sets if len(runs) > 1 else {"": mats}
    per_step = {prefix + name: [] for prefix in timed for name, _, _ in runs}
    for repeat in range(args.repeats):
        for prefix, set_mats in timed.items():
            for name, solver, sdp in runs if repeat % 2 else runs[::-1]:
                total = counts[prefix + name][f"{prefix}{name}newton_steps"]
                per_step[prefix + name].append(seconds_per_step(solver, set_mats, sdp, total))
    record = {
        "run": f"classical ansatz, XX chain N={N}, field {FIELD}, {ROUNDS} rounds, seed {SEED}",
        "subproblems": len(mats),
        "sweep_solves": solves,
        "sweep_steps": steps,
        **counts[""],
        "s_per_step_min": min(per_step[""]),
        **quartiles(per_step[""], "s_per_step"),
        "exact_run": (
            f"exact-state sweep, brickwork({EXACT_N}, {EXACT_LAYERS}) on the perturbed XX "
            f"ground state N={EXACT_N}, field {FIELD}, {EXACT_ROUNDS} rounds, seed {SEED}"
        ),
        "exact_subproblems": len(sets["exact_"]),
        **counts["exact_"],
        "random_objectives": RANDOM_OBJECTIVES,
        **counts["random_"],
    }
    if args.parent is not None:
        record["parent"] = args.parent
        for prefix in sets:
            record.update(counts[prefix + "parent_"])
            record[f"{prefix}digest_equal"] = record[f"{prefix}digest"] == record[f"{prefix}parent_digest"]
            record.update(paired(per_step[prefix + "parent_"], per_step[prefix], f"{prefix}s_per_step"))
    record = emit(record, args)
    if record["unconverged"] or record["exact_unconverged"] or record["random_unconverged"]:
        print(
            f"error: {record['unconverged']} of {len(mats)} ansatz, "
            f"{record['exact_unconverged']} of {record['exact_subproblems']} exact-state and "
            f"{record['random_unconverged']} of {RANDOM_OBJECTIVES} random "
            "subproblems end unconverged",
            file=sys.stderr,
        )
        return 1
    if steps != solves:
        print(f"error: the ansatz sweep reports {steps} steps for {solves} solves", file=sys.stderr)
        return 1
    names = {"": "ansatz", "exact_": "exact-state", "random_": "random"}
    differ = [names[prefix] for prefix in sets if not record.get(f"{prefix}digest_equal", True)]
    if differ:
        print(f"error: the {', '.join(differ)} digests differ from {args.parent}'s", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
