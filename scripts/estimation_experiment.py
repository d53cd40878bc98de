#!/usr/bin/env python3
"""Coverage study for the dual-frame estimator on a perturbed state.

Prepares the ground state of a periodic XX chain, perturbs it with a layer of
mixing channels, then estimates three observables under three virtual circuits
(identity, the perturbation's inverse, a random unitary layer) over many
independent measurement batches, all nine pairs of a batch in one
``estimate_all`` pass. Reports, per (circuit, observable) pair, the
grand-mean bias in standard errors and the fraction of batches whose error is
within three reported sigmas, and per circuit the mean reported covariance of
the chain and mag estimates (``estimate_covariance`` on the pass's rows)
beside the sample covariance of their values across batches.

Example:
    python3 scripts/estimation_experiment.py --N 4 --batches 100 --S 2000 \
        --out coverage.csv
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from virtualmap.cone import MapCircuit, brickwork
from virtualmap.densesim import (
    DensityMatrix,
    build_perturbed_state,
    exact_ground_energy,
    perturbation_circuit,
    sample_outcomes,
)
from virtualmap.estimation import estimate_all, estimate_covariance, estimate_exact
from virtualmap.maps import random_unitary_map
from virtualmap.pauli import Observable, xx_hamiltonian


def build_scenario(n: int, p: float, seed: int):
    ham = xx_hamiltonian(n, coupling=1.0, field=0.95, periodic=True)
    _, vec = exact_ground_energy(ham)
    rho0 = DensityMatrix(n, np.outer(vec, vec.conj()))
    rho_pert = build_perturbed_state(rho0, p=p, seed=seed)
    inverse = perturbation_circuit(n, p, seed=seed).inverse()
    rng = np.random.default_rng(seed + 1)
    unitary_layer = brickwork(n, 1, lambda layer, qubits: random_unitary_map(2, rng))

    circuits = [
        ("identity", MapCircuit(n, ())),
        ("inverse", inverse),
        ("unitary-layer", unitary_layer),
    ]
    mid = n // 2
    corr_letters = ["I"] * n
    corr_letters[mid - 1], corr_letters[mid] = "Z", "Z"
    observables = [
        ("chain", ham),
        ("corr", Observable.from_terms(n, [(1.0, "".join(corr_letters))])),
        (
            "mag",
            Observable.from_terms(
                n, [(1.0 / n, "I" * q + "Z" + "I" * (n - q - 1)) for q in range(n)]
            ),
        ),
    ]
    return rho_pert, circuits, observables


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--N", type=int, default=4, help="number of qubits")
    parser.add_argument("--p", type=float, default=0.05, help="perturbation strength")
    parser.add_argument("--batches", type=int, default=100, help="independent batches")
    parser.add_argument("--S", type=int, default=2000, help="shots per batch")
    parser.add_argument("--seed", type=int, default=21, help="scenario seed")
    parser.add_argument("--out", type=Path, default=None, help="per-batch CSV path")
    args = parser.parse_args(argv)

    rho_pert, circuits, observables = build_scenario(args.N, args.p, args.seed)

    rows = []
    stats = {}
    for cname, circ in circuits:
        for oname, obs in observables:
            exact = estimate_exact(rho_pert, "sic", circ, obs)
            stats[(cname, oname)] = {"exact": exact, "values": [], "sigmas": []}
    # the reported cov(chain, mag) of every batch, per circuit
    covariances = {cname: [] for cname, _ in circuits}
    names = [oname for oname, _ in observables]
    chain, mag = names.index("chain"), names.index("mag")

    for b in range(args.batches):
        batch = sample_outcomes(rho_pert, "sic", args.S, seed=1000 + b)
        grid = estimate_all(batch, "sic", [c for _, c in circuits], [o for _, o in observables])
        for (cname, _), estimates in zip(circuits, grid):
            covariances[cname].append(estimate_covariance(estimates[chain], estimates[mag]))
            for (oname, _), est in zip(observables, estimates):
                entry = stats[(cname, oname)]
                entry["values"].append(est.value)
                entry["sigmas"].append(est.sigma)
                rows.append(
                    {
                        "circuit": cname,
                        "observable": oname,
                        "batch": b,
                        "value": est.value,
                        "sigma": est.sigma,
                        "exact": entry["exact"],
                        "error": est.value - entry["exact"],
                    }
                )

    if args.out is not None:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.out}")

    print(f"{'circuit':>14} {'cov(chain, mag)':>15} {'across batches':>14}")
    for cname, reported in covariances.items():
        values = [stats[(cname, oname)]["values"] for oname in ("chain", "mag")]
        across = np.cov(*values, ddof=1)[0, 1]
        print(f"{cname:>14} {np.mean(reported):>15.3e} {across:>14.3e}")
    print(f"{'circuit':>14} {'observable':>10} {'exact':>10} {'bias/SE':>8} {'3-sigma cover':>13}")
    worst_z, covered, total = 0.0, 0, 0
    for (cname, oname), entry in stats.items():
        v = np.array(entry["values"])
        s = np.array(entry["sigmas"])
        sem = v.std(ddof=1) / np.sqrt(len(v))
        z = abs(v.mean() - entry["exact"]) / sem
        cov = float(np.mean(np.abs(v - entry["exact"]) <= 3.0 * s))
        covered += int(np.sum(np.abs(v - entry["exact"]) <= 3.0 * s))
        total += len(v)
        worst_z = max(worst_z, z)
        print(f"{cname:>14} {oname:>10} {entry['exact']:>10.5f} {z:>8.2f} {cov:>13.3f}")
    print(
        f"worst grand-mean z-score {worst_z:.2f}; pooled 3-sigma coverage "
        f"{covered / total:.4f} over {total} runs"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
