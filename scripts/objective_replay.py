#!/usr/bin/env python3
"""Replay per-component objective assembly on measured rows and on their collapse.

Case: the perturbed ground state of the periodic N=8 XX chain (field 0.95,
noise strength 0.05, noise seed 21), 4000 SIC shots at seed 1, and
``brickwork(8, 4)`` with the ``random_unitary`` initialisation at seed 0,
optimised against the XX chain itself.

The script records:

* the distinct rows R against the 4^N entries of the collapsed operator, and
  the seconds ``estimation.collapse`` takes;
* the seconds of ``assemble_local_objective`` on the rows for the components
  in ``ROW_COMPONENTS`` (each takes seconds), and on the collapse for every
  component, each a standalone call with a cold cache;
* the largest disagreement of M between the two, relative to the largest
  entry of the row M; above 1e-13 the script exits with status 1;
* the wall time of a 3-round sweep, and the ``linalg.apply_superop_local``
  calls of each of its rounds, with the walk the sweep keeps (``after``) and
  with a cold walk at every visit (``before``, the cost of rebuilding the
  forward state and the backward operator every time). The calls of a round
  are those of the sweep run to that round minus those of the sweep run one
  round fewer, so the one energy every sweep computes at its end cancels.
  The peak bytes of the kept backward operators are recorded too;
* the same case at N=10 on the deep ``staircase(10, 5)`` (K = 45): one round
  of the batch sweep in a fresh interpreter, with its peak resident memory,
  the peak bytes of its kept backward operators and the K operators a
  whole backward stack would hold;
* one round of the classical ansatz on ``staircase(24, 3)`` (K = 69) against
  the periodic N=24 XX chain (72 terms), from the ``random_unitary``
  initialisation at seed 0: the ``apply_superop_local`` calls and seconds
  of the round's objective assemblies (the median over ``--repeats``
  sweeps) and the peak bytes of the walk the sweep keeps, and the same for
  the round's visits assembled again with a cold walk each; an M that is
  not ``np.array_equal`` to its cold assembly exits with status 1;
* the exact limits on the same chain and ``brickwork(N, 4)`` at N = 8 and 9:
  the seconds and values of ``estimate_exact`` with explicit SIC duals (the
  enumerated 4^N outcome distribution, contracted with the dual tables into
  one operator) and of ``circuit_energy`` on the dense state; and, on
  ``brickwork(6, 4)``, the relative disagreement of that limit with the
  light-cone sum over the enumerated rows, ``circuit_energy`` of
  ``data_from_distribution``; above 1e-12 the script exits with status 1;
* with ``--crossover``, the table behind the collapse rule: for N = 8-10 on
  ``brickwork(N, 4)`` and uniformly random SIC rows, the seconds of one
  energy and of one assembly (the middle component) on rows and on the
  collapse, next to R T 4^peak / 4^N. The dense energy includes the collapse;
  the dense assembly is one visit of a sweep in index order through the
  walk it keeps: a round's time, collapse included, over K. Row assemblies
  are timed up to 1024 rows.

Timings are the median of ``--repeats`` runs, except the row assemblies,
the deep sweep, the cold ansatz round and the crossover, which run once. The
script prints one JSON record; ``--out`` also stores it in a JSON file under
the key ``--tag``, keeping the file's other keys.

Example:
    python3 scripts/objective_replay.py --crossover --tag change --out BENCH_objective.json
"""

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from replay import Calls, emit, parse, parser
from virtualmap import cone, densesim, varopt
from virtualmap.cone import brickwork, schedule, staircase
from virtualmap.densesim import (
    DensityMatrix,
    build_perturbed_state,
    exact_ground_energy,
    sample_outcomes,
)
from virtualmap.estimation import (
    ProductInputData,
    circuit_energy,
    classical_input,
    collapse,
    data_from_batch,
    data_from_distribution,
    dual_arrays,
    estimate_exact,
)
from virtualmap.linalg import unique_rows
from virtualmap.pauli import xx_hamiltonian
from virtualmap.varopt import SweepOptions, assemble_local_objective, sweep

FIELD = 0.95
TOL = 1e-13
ROUNDS = 3
ROW_COMPONENTS = (0, 7)
DEEP_LAYERS = 5
EXACT_N = (8, 9)
EXACT_AGREEMENT_N = 6
EXACT_TOL = 1e-12
CROSSOVER_N = (8, 9, 10)
CROSSOVER_ROWS = (1, 4, 16, 64, 256, 1024, 4096, 20000)
ROW_ASSEMBLY_LIMIT = 1024
ANSATZ_N, ANSATZ_LAYERS = 24, 3


def seconds(fn, repeats=1):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def chain(n):
    """The periodic N-qubit XX chain and its perturbed ground state."""
    ham = xx_hamiltonian(n, coupling=1.0, field=FIELD, periodic=True)
    _, vec = exact_ground_energy(ham)
    return ham, build_perturbed_state(DensityMatrix(n, np.outer(vec, vec.conj())), 0.05, 21)


def case(n, layout):
    """The shots of the perturbed N-qubit chain, ``layout`` (an N-qubit
    circuit) in its random unitary initialisation, and the chain."""
    ham, rho = chain(n)
    batch = sample_outcomes(rho, "sic", 4000, seed=1)
    circuit = varopt._initialize(layout, "random_unitary", 0)
    return circuit, data_from_batch(batch, "sic"), ham


def applies() -> Calls:
    """Counts ``apply_superop_local`` calls in every module that calls it."""
    return Calls([cone, densesim, varopt], ["apply_superop_local"])


class Assemblies(Calls):
    """The sweep's assemblies, through the walks it keeps or (``cold``) with
    a cold walk each: their visits (circuit, component, M), seconds and,
    with ``counter`` (an :func:`applies`), apply calls, and the peak bytes
    of the kept backward residuals."""

    def __init__(self, cold: bool, counter: Calls | None = None):
        super().__init__([varopt], ["assemble_local_objective"])
        self.cold = cold
        self.counter = counter
        self.peak_bytes = 0
        self.visits = []
        self.seconds = 0.0
        self.calls = 0

    def applied(self) -> int:
        return self.counter.counts["apply_superop_local"] if self.counter else 0

    def call(self, real, args, kwargs):
        calls = self.applied()
        start = time.perf_counter()
        objective = real(*args) if self.cold else real(*args, **kwargs)
        self.seconds += time.perf_counter() - start
        self.calls += self.applied() - calls
        self.visits.append((args[0], args[1], objective))
        for walk in kwargs.get("walks") or ():
            self.peak_bytes = max(self.peak_bytes, walk.peak_bytes)
        return objective


def sweep_record(circuit, data, obs, cold: bool, repeats: int):
    """Wall time of a ROUNDS-round sweep and its dense applications per round."""
    calls = []
    with Assemblies(cold) as cache:
        for rounds in range(ROUNDS + 1):
            with applies() as counter:
                _, report = sweep(circuit, data, obs, SweepOptions(rounds=rounds))
            calls.append(counter.counts["apply_superop_local"])
        full = SweepOptions(rounds=ROUNDS)
        wall = seconds(lambda: sweep(circuit, data, obs, full), repeats)
    return {
        "sweep_s": wall,
        "rounds_run": max((s.round for s in report.steps), default=0),
        "final_energy": report.final_energy,
        "apply_calls_per_round": [b - a for a, b in zip(calls, calls[1:])],
        "stack_peak_bytes": None if cold else cache.peak_bytes or None,
    }


def replay(repeats):
    circuit, data, obs = case(8, brickwork(8, 4))
    k = len(circuit.components)
    rho = collapse(data)
    record = {
        "rows": len(data.weights),
        "dense_entries": 4**data.num_qubits,
        "terms": len(obs.terms),
        "components": k,
        "peak_active": schedule(circuit).peak_active,
        "collapse_s": seconds(lambda: collapse(data), repeats),
    }
    dense = {}
    dense_s = []
    for index in range(k):
        dense_s.append(seconds(lambda: assemble_local_objective(circuit, index, rho, obs), repeats))
        dense[index] = assemble_local_objective(circuit, index, rho, obs)
    rows_s, diffs = [], []
    for index in ROW_COMPONENTS:
        start = time.perf_counter()
        m_rows = assemble_local_objective(circuit, index, data, obs)
        rows_s.append(time.perf_counter() - start)
        diffs.append(float(np.max(np.abs(dense[index] - m_rows)) / np.max(np.abs(m_rows))))
    record.update(
        row_components=list(ROW_COMPONENTS),
        rows_assembly_s=rows_s,
        dense_assembly_s=dense_s,
        max_rel_diff=max(diffs, default=0.0),
    )
    record["ok"] = record["max_rel_diff"] <= TOL
    record["sweep_before"] = sweep_record(circuit, data, obs, cold=True, repeats=repeats)
    record["sweep_after"] = sweep_record(circuit, data, obs, cold=False, repeats=repeats)
    return record


def deep_sweep():
    """One round of the batch sweep on ``staircase(10, DEEP_LAYERS)``; run by
    :func:`deep_record` in a fresh interpreter, so the peak resident memory
    is the sweep's own."""
    n = 10
    circuit, data, obs = case(n, staircase(n, DEEP_LAYERS))
    with Assemblies(cold=False) as cache:
        start = time.perf_counter()
        sweep(circuit, data, obs, SweepOptions(rounds=1))
        wall = time.perf_counter() - start
    k = len(circuit.components)
    return {
        "circuit": f"staircase({n}, {DEEP_LAYERS})",
        "components": k,
        "rows": len(data.weights),
        "sweep_s": wall,
        "stack_peak_bytes": cache.peak_bytes or None,
        "whole_stack_bytes": k * 16 * 4**n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def deep_record():
    here = str(Path(__file__).resolve().parent)
    code = (
        f"import json, sys; sys.path.insert(0, {here!r}); import objective_replay; "
        "print(json.dumps(objective_replay.deep_sweep()))"
    )
    run = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    return json.loads(run.stdout)


def exact_record(repeats):
    """The exact limits at N in EXACT_N, and their agreement with the row sum."""
    timings = []
    for n in EXACT_N:
        obs, rho = chain(n)
        circuit = varopt._initialize(brickwork(n, 4), "random_unitary", 0)
        timings.append(
            {
                "N": n,
                "estimate_exact_sic_s": seconds(
                    lambda: estimate_exact(rho, "sic", circuit, obs, duals="sic"), repeats
                ),
                "dense_energy_s": seconds(lambda: circuit_energy(circuit, rho, obs), repeats),
                "estimate_exact_sic": estimate_exact(rho, "sic", circuit, obs, duals="sic"),
                "dense_energy": circuit_energy(circuit, rho, obs),
            }
        )
    n = EXACT_AGREEMENT_N
    obs, rho = chain(n)
    circuit = varopt._initialize(brickwork(n, 4), "random_unitary", 0)
    limit = estimate_exact(rho, "sic", circuit, obs, duals="sic")
    rows = circuit_energy(circuit, data_from_distribution(rho, "sic", "sic"), obs)
    diff = abs(limit - rows) / abs(rows)
    return {
        "timings": timings,
        "agreement": {"circuit": f"brickwork({n}, 4)", "limit": limit, "row_sum": rows},
        "max_rel_diff": diff,
        "ok": diff <= EXACT_TOL,
    }


def ansatz_round(repeats):
    """One sweep round of the classical ansatz on ``staircase(24, 3)``: its
    assemblies through the kept walk, then each visit again cold."""
    n = ANSATZ_N
    obs = xx_hamiltonian(n, coupling=1.0, field=FIELD, periodic=True)
    circuit = varopt._initialize(staircase(n, ANSATZ_LAYERS), "random_unitary", 0)
    data = classical_input(n)
    options = SweepOptions(rounds=1)
    runs = []
    for _ in range(repeats):
        with applies() as counter, Assemblies(cold=False, counter=counter) as kept:
            sweep(circuit, data, obs, options)
        runs.append(kept)
    with applies() as counter, Assemblies(cold=True, counter=counter) as cold:
        for visited, index, _ in kept.visits:
            varopt.assemble_local_objective(visited, index, data, obs)
    identical = [np.array_equal(a[2], b[2]) for a, b in zip(kept.visits, cold.visits)]
    return {
        "circuit": f"staircase({n}, {ANSATZ_LAYERS})",
        "components": len(circuit.components),
        "terms": len(obs.terms),
        "steps": len(schedule(circuit).steps),
        "visits": len(kept.visits),
        "apply_calls_per_round": kept.calls,
        "seconds_per_round": float(np.median([run.seconds for run in runs])),
        "peak_bytes": kept.peak_bytes or None,
        "cold_apply_calls_per_round": cold.calls,
        "cold_seconds_per_round": cold.seconds,
        "differing": identical.count(False),
        "ok": len(identical) == len(kept.visits) > 0 and all(identical),
    }


def crossover():
    table = []
    for n in CROSSOVER_N:
        obs = xx_hamiltonian(n, coupling=1.0, field=FIELD, periodic=True)
        circuit = varopt._initialize(brickwork(n, 4), "random_unitary", 0)
        peak = schedule(circuit).peak_active
        k = len(circuit.components)
        rng = np.random.default_rng(n)
        for drawn in CROSSOVER_ROWS:
            rows, _, counts = unique_rows(rng.integers(0, 4, size=(drawn, n)))
            data = ProductInputData(counts / drawn, dual_arrays("sic", n), rows)

            def dense_energy():
                circuit_energy(circuit, collapse(data), obs)

            def dense_round():
                rho = collapse(data)
                walks = list(varopt._cut_walks(circuit, rho, obs))
                for index in range(k):
                    assemble_local_objective(circuit, index, rho, obs, walks=walks)

            table.append(
                {
                    "N": n,
                    "rows": len(rows),
                    "ratio": len(rows) * len(obs.terms) * 4**peak / 4**n,
                    "energy_rows_s": seconds(lambda: circuit_energy(circuit, data, obs)),
                    "energy_dense_s": seconds(dense_energy),
                    "assembly_rows_s": seconds(
                        lambda: assemble_local_objective(circuit, k // 2, data, obs)
                    )
                    if len(rows) <= ROW_ASSEMBLY_LIMIT
                    else None,
                    "assembly_dense_s": seconds(dense_round) / k,
                }
            )
            print(json.dumps(table[-1]), file=sys.stderr, flush=True)
    return table


def main(argv=None) -> int:
    p = parser(__doc__, 5, "timed runs per median")
    p.add_argument("--crossover", action="store_true", help="also time the N = 8-10 table")
    args = parse(p, argv)
    record = replay(args.repeats)
    record["deep_sweep"] = deep_record()
    record["exact"] = exact_record(args.repeats)
    record["ansatz_round"] = ansatz_round(args.repeats)
    if args.crossover:
        record["crossover"] = crossover()
    emit(record, args)
    if not record["ok"]:
        print(
            f"error: collapsed M differs from the row M by {record['max_rel_diff']:.3e} "
            f"(limit {TOL:g})",
            file=sys.stderr,
        )
    if not record["exact"]["ok"]:
        print(
            f"error: estimate_exact differs from the row sum by "
            f"{record['exact']['max_rel_diff']:.3e} (limit {EXACT_TOL:g})",
            file=sys.stderr,
        )
    if not record["ansatz_round"]["ok"]:
        print(
            f"error: {record['ansatz_round']['differing']} objectives of the ansatz round "
            "differ from their cold assembly",
            file=sys.stderr,
        )
    return 0 if record["ok"] and record["exact"]["ok"] and record["ansatz_round"]["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
