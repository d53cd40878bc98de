#!/usr/bin/env python3
"""Replay the shot-weight kernel ``cone.evaluate_rows`` on five cases.

* ``estimate-n8``: the ``estimate-n8`` benchmark job's inputs (perturbed
  ground state of the periodic N=8 XX chain at field 0.95, 64 SIC shots,
  seed 1), deduplicated as ``estimate`` does, under its two circuits:
  ``brickwork(8, 2)`` of identity maps and the inverted noise circuit.
* ``estimate-n8-20k``: the same with 20 000 shots, about 13 000 distinct
  rows.
* ``brickwork-10-4``: ``brickwork(10, 4)`` of random CPTP maps, the N=10 XX
  chain, 2000 random SIC rows.
* ``wide-z12``: ``brickwork(12, 2)`` of random CPTP maps, the N=12 XX chain
  plus 0.3 Z^(x)12, 300 random SIC rows. The wide term's light cone covers
  the register, so no local term may share its contraction.
* ``allpairs-zz-12-3``: ``brickwork(12, 3)`` of random unitaries, the
  all-pairs ZZ correlator (66 terms), 2000 random SIC rows. 24 of the pairs
  have disjoint light cones, each still contracted over their union.

Each case is checked against the sum of singleton groups (one single-term
observable per call), within 1e-12 of 1 + |w| per row. A case with an
identity map, which joins no light cone, is also checked, on its first 64
rows, against ``cone.evaluate_trace``, the unpruned whole-register walk, to
the same bound. A failed check exits with status 1. The script prints one
JSON record: per case the number of cone runs (contractions of a term
group), how many of them ran backwards into an outcome table and how many
per row (``cone._outcome_table`` and ``cone._row_values`` calls, which add
up to the cone runs), the calls of the ``linalg`` kernels, and the median
and quartiles of the seconds per ``evaluate_rows`` pass over ``--repeats``
timed passes. Each timed pass starts from rows that have not yet gathered
their traces, as one ``estimate`` command does. ``--out`` also stores the
record in a JSON file under the key ``--tag``, keeping the file's other
keys.

``--parent REF`` also loads the package of git revision ``REF`` (one whose
``evaluate_rows`` takes ``(circuit, data, obs)``) and rebuilds each case's
circuits, rows and observable with its classes, from the same maps, rows and
terms. Each case's ``bit_identical`` says whether the two packages give the
same weights bit for bit, ``circuits_bit_identical`` says it per circuit,
and ``parent_max_rel_diff`` is the largest |w - w_parent| over a circuit's
rows relative to its largest |w_parent|. The ``--repeats`` timed passes then
alternate between the two packages, the order alternating too, and the
record gives both least seconds per pass, the median paired difference
(change - parent) and the pairs the working tree won. Weights that differ
from the parent's exit with status 1, after the record is written;
``--parent HEAD`` checks the working tree against its last commit.

Examples:
    python3 scripts/weights_replay.py --repeats 7 --tag change --out BENCH_weights.json
    python3 scripts/weights_replay.py --repeats 15 --parent HEAD~1
"""

import sys
import time

import numpy as np

from replay import Calls, emit, paired, parent_package, parse, parser, quartiles
import virtualmap
from virtualmap import cone, estimation
from virtualmap.cone import brickwork
from virtualmap.densesim import (
    DensityMatrix,
    build_perturbed_state,
    exact_ground_energy,
    perturbation_circuit,
    sample_outcomes,
)
from virtualmap.linalg import unique_rows
from virtualmap.maps import random_cptp_map, random_unitary_map
from virtualmap.pauli import Observable, xx_hamiltonian

FIELD = 0.95
TOL = 1e-12
TRACE_ROWS = 64  # rows checked against the whole-register walk
KERNELS = ("insert_factor", "apply_superop_local", "multiply_trace_out", "trace_out_each")


def product_rows(rows):
    """SIC rows as the kernel takes them, built once per case, outside the
    timed passes."""
    return estimation.ProductInputData(
        np.ones(len(rows)), estimation.dual_arrays("sic", rows.shape[1]), rows
    )


def estimate_n8_case(shots=64):
    """The estimate-n8 job's unique rows under both of its circuits."""
    n = 8
    ham = xx_hamiltonian(n, coupling=1.0, field=FIELD, periodic=True)
    _, vec = exact_ground_energy(ham)
    rho = build_perturbed_state(DensityMatrix(n, np.outer(vec, vec.conj())), 0.05, 21)
    rows, _, _ = unique_rows(sample_outcomes(rho, "sic", shots, seed=1).outcomes)
    circuits = [brickwork(n, 2), perturbation_circuit(n, 0.05, 21).inverse()]
    return circuits, product_rows(rows), ham


def random_case(n, layers, num_rows, obs, seed, random_map=random_cptp_map):
    rng = np.random.default_rng(seed)
    circuit = brickwork(n, layers, lambda layer, qubits: random_map(2, rng))
    return [circuit], product_rows(rng.integers(0, 4, size=(num_rows, n))), obs


def wide_z12_case():
    n = 12
    chain = xx_hamiltonian(n, coupling=1.0, field=FIELD, periodic=True)
    obs = Observable.from_terms(n, [*chain.terms, (0.3, "Z" * n)])
    return random_case(n, 2, 300, obs, seed=12)


def all_pairs_case():
    n = 12
    pairs = ["".join("Z" if q in (a, b) else "I" for q in range(n)) for a in range(n) for b in range(a + 1, n)]
    obs = Observable.from_terms(n, [(1.0, p) for p in pairs])
    return random_case(n, 3, 2000, obs, seed=13, random_map=random_unitary_map)


CASES = {
    "estimate-n8": estimate_n8_case,
    "estimate-n8-20k": lambda: estimate_n8_case(20000),
    "brickwork-10-4": lambda: random_case(
        10, 4, 2000, xx_hamiltonian(10, coupling=1.0, field=FIELD, periodic=True), seed=10
    ),
    "wide-z12": wide_z12_case,
    "allpairs-zz-12-3": all_pairs_case,
}


def weights(kernel, circuits, data, obs):
    return [kernel.evaluate_rows(c, data, obs) for c in circuits]


def fresh(package, data):
    """``data`` as new rows of ``package``, their traces not yet gathered."""
    return package.estimation.ProductInputData(data.weights, data.tables, data.rows)


def port(package, circuits, obs):
    """The circuits and observable rebuilt with the classes of ``package``,
    from the same maps and terms."""
    def component(comp):
        return package.cone.Component(comp.qubits, package.maps.LocalMap(comp.map.superop))

    ported = [
        package.cone.MapCircuit(c.num_qubits, tuple(map(component, c.components))) for c in circuits
    ]
    terms = [(coeff, ps.letters) for coeff, ps in obs.terms]
    return ported, package.pauli.Observable.from_terms(obs.num_qubits, terms)


def singleton_sum(circuits, data, obs):
    """The same weights with every term contracted on its own."""
    n = obs.num_qubits
    return [
        sum(cone.evaluate_rows(c, data, Observable.from_terms(n, [term])) for term in obs.terms)
        for c in circuits
    ]


def relative(got, want):
    """The largest |got - want| / (1 + |want|) over the circuits' rows."""
    return max(float(np.max(np.abs(g - w) / (1.0 + np.abs(w)), initial=0.0)) for g, w in zip(got, want))


def trace_check(circuits, data, obs, got):
    """The weights of the first ``TRACE_ROWS`` rows against the unpruned
    whole-register walk, ``cone.evaluate_trace``."""
    head = estimation.ProductInputData(
        data.weights[:TRACE_ROWS], data.tables, data.rows[:TRACE_ROWS]
    )
    want = [cone.evaluate_trace(c, head, obs) for c in circuits]
    return relative([g[:TRACE_ROWS] for g in got], want)


def replay(name, repeats, parent=None):
    circuits, data, obs = CASES[name]()
    got = weights(cone, circuits, data, obs)
    want = singleton_sum(circuits, data, obs)
    diff = relative(got, want)
    pruned = any("identity" in c.kinds for c in circuits)
    trace_diff = trace_check(circuits, data, obs, got) if pruned else None
    # (key prefix, package, circuits, observable) per side
    sides = [("", virtualmap, circuits, obs)]
    if parent is not None:
        sides.append(("parent_", parent, *port(parent, circuits, obs)))
    seconds = {prefix: [] for prefix, *_ in sides}
    for repeat in range(repeats):
        for prefix, package, cs, o in sides if repeat % 2 else sides[::-1]:
            rows = fresh(package, data)
            start = time.perf_counter()
            weights(package.cone, cs, rows, o)
            seconds[prefix].append(time.perf_counter() - start)
    with Calls([cone], ["_outcome_table", "_row_values", *KERNELS]) as calls:
        weights(cone, circuits, data, obs)
    tables, rows = calls.counts.pop("_outcome_table"), calls.counts.pop("_row_values")
    record = {
        "circuits": len(circuits),
        "rows": len(data.rows),
        "terms": len(obs.terms),
        "cone_runs": tables + rows,
        "table_runs": tables,
        "row_runs": rows,
        **calls.counts,
        "max_rel_diff": diff,
        **({} if trace_diff is None else {"trace_rows": min(TRACE_ROWS, len(data.rows)), "trace_max_rel_diff": trace_diff}),
        "ok": diff <= TOL and (trace_diff is None or trace_diff <= TOL),
        **quartiles(seconds[""], "s"),
    }
    if parent is not None:
        _, _, cs, o = sides[1]
        theirs = weights(parent.cone, cs, fresh(parent, data), o)
        same = [a.tobytes() == b.tobytes() for a, b in zip(got, theirs)]
        record["bit_identical"] = all(same)
        record["circuits_bit_identical"] = same
        record["parent_max_rel_diff"] = max(
            float(np.max(np.abs(a - b), initial=0.0) / max(np.max(np.abs(b), initial=0.0), 1e-300))
            for a, b in zip(got, theirs)
        )
        record.update(paired(seconds["parent_"], seconds[""], "s"))
    return record


def main(argv=None) -> int:
    args = parse(parser(__doc__, 7, "timed passes per case", pairs=True), argv)
    parent = None if args.parent is None else parent_package(args.parent)
    record = {name: replay(name, args.repeats, parent) for name in CASES}
    if parent is not None:
        record["parent"] = args.parent
    record = emit(record, args)
    failed = [name for name in CASES if not record[name]["ok"]]
    for name in failed:
        print(f"error: {name} differs from the singleton-group sum or the whole-register walk", file=sys.stderr)
    differ = [name for name in CASES if not record[name].get("bit_identical", True)]
    if differ:
        print(f"error: the {', '.join(differ)} weights differ from {args.parent}'s", file=sys.stderr)
    return 1 if failed or differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
