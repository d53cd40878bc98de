#!/usr/bin/env python3
"""Replay the shot-record path of ``optimize --batch``: read a batch file and count its rows.

Three cases, each written once with ``densesim.write_batch`` to a temporary
directory:

* ``optimize-n3``: 20000 SIC shots at seed 1 from the perturbed ground state
  of the periodic N=3 XX chain (field 0.95, noise strength 0.05, noise seed
  21), the shape of the ``optimize-n3`` benchmark job's batch: at most 64
  distinct rows.
* ``random-1e6-8``: 10^6 uniformly random rows of N=8 outcomes, seed 8.
* ``wide-n40``: 20000 shots of N=40 drawn from 5000 uniformly random rows,
  seed 40: too wide for one int64 key per row, so the rows are lexsorted.

Each timed pass measures ``read_s``, ``densesim.read_batch`` on the file,
and ``count_s``, ``estimation.data_from_batch`` on the batch read: its
distinct rows, weighted by their counts. Both are checked against a
reference, ``np.loadtxt`` on the file and ``np.unique(axis=0)`` on its
rows: the outcomes must equal the rows written and those ``np.loadtxt``
reads, and the rows, their dtype and the weights of ``data_from_batch`` must
equal those the reference gives, bit for bit. A mismatch exits with status 1.

The script prints one JSON record: per case the shots, qubits, distinct
rows, the check, and the median and quartiles of both timings over
``--repeats`` passes. ``--out`` also stores the record in a JSON file under
the key ``--tag``, keeping the file's other keys.

``--parent REF`` also loads the package of git revision ``REF``. Each case's
``bit_identical`` says whether its ``data_from_batch``, on the batch its own
``read_batch`` reads from the same file, gives the same rows (and row dtype)
and weights bit for bit. The ``--repeats`` timed passes then alternate
between the two packages, the order alternating too, and the record gives
for both timings both least seconds, the median paired difference (change -
parent) and the pairs the working tree won. Rows or weights that differ from
the parent's exit with status 1, after the record is written;
``--parent HEAD`` checks the working tree against its last commit.

Examples:
    python3 scripts/batch_replay.py --repeats 7 --tag change --out BENCH_batch.json
    python3 scripts/batch_replay.py --repeats 15 --parent HEAD~1
"""

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from replay import emit, paired, parent_package, parse, parser, quartiles
import virtualmap
from virtualmap import densesim, estimation
from virtualmap.densesim import (
    DensityMatrix,
    OutcomeBatch,
    build_perturbed_state,
    exact_ground_energy,
    sample_outcomes,
)
from virtualmap.pauli import xx_hamiltonian


def optimize_n3_batch():
    ham = xx_hamiltonian(3, coupling=1.0, field=0.95, periodic=True)
    _, vec = exact_ground_energy(ham)
    rho = build_perturbed_state(DensityMatrix(3, np.outer(vec, vec.conj())), 0.05, 21)
    return sample_outcomes(rho, "sic", 20000, seed=1)


def random_batch():
    rows = np.random.default_rng(8).integers(0, 4, size=(10**6, 8))
    return OutcomeBatch(rows, ("sic",) * 8, 8)


def wide_batch():
    rng = np.random.default_rng(40)
    rows = rng.integers(0, 4, size=(5000, 40))
    return OutcomeBatch(rows[rng.integers(0, len(rows), size=20000)], ("sic",) * 40, 40)


CASES = {"optimize-n3": optimize_n3_batch, "random-1e6-8": random_batch, "wide-n40": wide_batch}


def same_rows(a, b) -> bool:
    """Whether two product-row sets hold the same rows, of one dtype, and
    the same weights, bit for bit."""
    return (
        a.rows.dtype == b.rows.dtype
        and np.array_equal(a.rows, b.rows)
        and a.weights.dtype == b.weights.dtype
        and a.weights.tobytes() == b.weights.tobytes()
    )


def matches_reference(path: Path, written: OutcomeBatch) -> bool:
    read = densesim.read_batch(path)
    loaded = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
    got = estimation.data_from_batch(read, "sic")
    uniq, counts = np.unique(loaded, axis=0, return_counts=True)
    want = estimation.ProductInputData(counts / len(loaded), got.tables, uniq)
    return (
        np.array_equal(read.outcomes, written.outcomes)
        and np.array_equal(read.outcomes, loaded)
        and same_rows(got, want)
    )


def timed_pass(package, path, read_s, count_s):
    """``package``'s ``read_batch`` and ``data_from_batch`` on ``path``, each
    timed; returns the rows."""
    start = time.perf_counter()
    batch = package.densesim.read_batch(path)
    read = time.perf_counter()
    data = package.estimation.data_from_batch(batch, "sic")
    read_s.append(read - start)
    count_s.append(time.perf_counter() - read)
    return data


def replay(name, repeats, parent=None):
    written = CASES[name]()
    sides = [("", virtualmap)] + ([] if parent is None else [("parent_", parent)])
    read_s, count_s = ({prefix: [] for prefix, _ in sides} for _ in range(2))
    data = {}  # each side's rows of its last pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "batch.csv"
        densesim.write_batch(written, path)
        ok = matches_reference(path, written)
        for repeat in range(repeats):
            for prefix, package in sides if repeat % 2 else sides[::-1]:
                data[prefix] = timed_pass(package, path, read_s[prefix], count_s[prefix])
    record = {
        "shots": written.num_shots,
        "qubits": written.num_qubits,
        "distinct_rows": len(data[""].rows),
        "ok": ok,
        **quartiles(read_s[""], "read_s"),
        **quartiles(count_s[""], "count_s"),
    }
    if parent is not None:
        record["bit_identical"] = same_rows(data[""], data["parent_"])
        record.update(paired(read_s["parent_"], read_s[""], "read_s"))
        record.update(paired(count_s["parent_"], count_s[""], "count_s"))
    return record


def main(argv=None) -> int:
    p = parser(__doc__, 7, "timed passes per case")
    p.add_argument(
        "--case", action="append", choices=sorted(CASES), help="case to run (repeatable; default all)"
    )
    args = parse(p, argv)
    names = args.case or list(CASES)
    parent = None if args.parent is None else parent_package(args.parent)
    record = {name: replay(name, args.repeats, parent) for name in names}
    if parent is not None:
        record["parent"] = args.parent
    record = emit(record, args)
    failed = [name for name in names if not record[name]["ok"]]
    for name in failed:
        print(f"error: {name}: outcomes or row counts differ from the reference", file=sys.stderr)
    differ = [name for name in names if not record[name].get("bit_identical", True)]
    if differ:
        print(f"error: the {', '.join(differ)} rows differ from {args.parent}'s", file=sys.stderr)
    return 1 if failed or differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
