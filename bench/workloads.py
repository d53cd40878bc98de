"""The benchmark's workloads: seeded inputs, the CLI call, and its gate.

Each workload writes its inputs in the repository's own file formats (batch
CSV, observable JSON, circuit JSON), names the ``virtualmap`` command line
that consumes them, and checks that command's outputs against the dense
reference in ``reference.py``. The check returns the workload's
``energy_excess``.

The noise model behind the measured states is fixed (``NOISE_SEED``); the
benchmark seed draws the measurement records, so each seed is a fresh batch
of the same experiment.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
from virtualmap.cone import brickwork, save_circuit, schedule, staircase
from virtualmap.densesim import (
    DensityMatrix,
    OutcomeBatch,
    build_perturbed_state,
    exact_ground_energy,
    outcome_distribution,
    perturbation_circuit,
    sample_outcomes,
    write_batch,
)
from virtualmap.pauli import write_observable, xx_hamiltonian
from virtualmap.povm import get_povm

FIELD = 0.95
NOISE_P = 0.05
NOISE_SEED = 21
POVM = "sic"


@dataclass
class Inputs:
    """What one workload's job needs: its argv, a description, the truth."""

    argv: list[str]
    description: dict
    truth: dict = field(default_factory=dict)


def _perturbed_ground_state(n: int):
    ham = xx_hamiltonian(n, coupling=1.0, field=FIELD, periodic=True)
    _, vec = exact_ground_energy(ham)
    rho0 = DensityMatrix(n, np.outer(vec, vec.conj()))
    return ham, build_perturbed_state(rho0, NOISE_P, NOISE_SEED)


def _systematic_batch(rho: DensityMatrix, shots: int, seed: int) -> OutcomeBatch:
    """Shots drawn by systematic sampling of the exact outcome distribution.

    Every outcome's count is within one of shots * p, so the data carry almost
    no sampling luck: the quality of the optimized circuit then reflects the
    optimizer, not the draw. The seed sets the sampling offset and shot order.
    """
    n = rho.num_qubits
    p = np.clip(outcome_distribution(rho, POVM).reshape(-1), 0.0, None)
    cdf = np.cumsum(p) / p.sum()
    rng = np.random.default_rng(seed)
    draws = np.searchsorted(cdf, (rng.random() + np.arange(shots)) / shots, side="right")
    draws = rng.permutation(np.minimum(draws, p.size - 1))
    outcomes = (draws[:, None] // 4 ** np.arange(n - 1, -1, -1)) % 4
    return OutcomeBatch(outcomes.astype(np.int8), (POVM,) * n, seed, "systematic")


def _describe(batch_rows: np.ndarray | None, ham, circuits) -> dict:
    if batch_rows is None:  # the all-zeros register: one exact row
        shots = unique = 1
    else:
        shots = len(batch_rows)
        unique = len(np.unique(batch_rows, axis=0))
    return {
        "shots": shots,
        "unique_rows": unique,
        "terms": len(ham.terms),
        "components": [len(c.components) for c in circuits],
        "peak_active": max(schedule(c).peak_active for c in circuits),
    }


def _read_report_energies(path: Path) -> list[float]:
    with path.open(newline="") as fh:
        return [float(row["energy"]) for row in csv.DictReader(fh)]


def _check_sweep(work: Path, stdout: str, obs, e0, rho, empirical) -> float:
    """Gate for optimize/ansatz; returns (E_true - E0) / |E0|.

    ``empirical(G)`` is the energy of the data the job optimized against,
    given the Heisenberg-picture observable G of the returned circuit.
    """
    summary = json.loads(stdout)
    n, comps = ref.read_circuit(work / "out_circuit.json")
    for i, (_, sup) in enumerate(comps):
        defect = ref.cptp_defect(sup)
        ref.require(defect <= 1e-7, f"component {i} is not CPTP (defect {defect:.2e})")
    energies = _read_report_energies(work / "sweep.csv")
    worst_rise = max((b - a for a, b in zip(energies, energies[1:])), default=0.0)
    ref.require(worst_rise <= 1e-6, f"sweep energy rose by {worst_rise:.2e}")
    g = ref.heisenberg(obs, comps, n)
    expected = empirical(g)
    final = float(summary["final_energy"])
    ref.require(
        abs(final - expected) <= 1e-8,
        f"final_energy: CLI {final!r} vs dense reference {expected!r}",
    )
    e_true = float(np.real(np.trace(rho @ g)))
    ref.require(e_true >= e0 - 1e-9, f"true energy {e_true!r} below ground energy {e0!r}")
    return (e_true - e0) / abs(e0)


def check_estimate_rows(rows, stats: dict, e0: float) -> float:
    """Gate for estimate; returns sigma(inverse) / sigma(identity).

    ``stats`` maps circuit label to the reference (mean, sigma).
    """
    ref.require(
        sorted(r["circuit"] for r in rows) == sorted(stats),
        f"report covers circuits {[r['circuit'] for r in rows]}, expected {sorted(stats)}",
    )
    sigma = {}
    for row in rows:
        mean, sig = stats[row["circuit"]]
        ref.require_close(row["value"], mean, 1e-10, f"{row['circuit']} value")
        ref.require_close(row["sigma"], sig, 1e-10, f"{row['circuit']} sigma")
        sigma[row["circuit"]] = row["sigma"]
        if row["circuit"] == "inverse":
            ref.require(
                abs(row["value"] - e0) <= 5.0 * row["sigma"],
                f"noise-inverted value {row['value']!r} is more than 5 sigma from E0 {e0!r}",
            )
    return sigma["inverse"] / sigma["identity"]


class EstimateN8:
    name = "estimate-n8"
    why = (
        "estimate with an identity and a noise-inverting circuit on N=8; "
        "nearly every row is unique, so forward cone contraction does all the work"
    )
    n = 8
    shots = 64

    def generate(self, seed: int, work: Path) -> Inputs:
        ham, rho = _perturbed_ground_state(self.n)
        batch = sample_outcomes(rho, POVM, self.shots, seed=seed, source="perturbed_xx")
        circuits = {
            "identity": brickwork(self.n, 2),
            "inverse": perturbation_circuit(self.n, NOISE_P, NOISE_SEED).inverse(),
        }
        write_batch(batch, work / "batch.csv")
        write_observable(ham, work / "ham.json")
        argv = ["estimate", "--batch", str(work / "batch.csv"), "--observable", str(work / "ham.json")]
        for label, circ in circuits.items():
            save_circuit(circ, work / f"{label}.json")
            argv += ["--circuit", str(work / f"{label}.json")]
        argv += ["--out", str(work / "report.json")]
        return Inputs(argv, _describe(batch.outcomes, ham, circuits.values()))

    def reference(self, inputs: Inputs, work: Path) -> dict:
        obs = ref.read_observable(work / "ham.json")
        duals = ref.dual_frame(get_povm(POVM).effects)
        outcomes = ref.read_outcomes(work / "batch.csv")
        stats = {}
        for label in ("identity", "inverse"):
            n, comps = ref.read_circuit(work / f"{label}.json")
            table = ref.weight_table(ref.heisenberg(obs, comps, n), duals, n)
            stats[label] = ref.mean_and_sigma(table[tuple(outcomes.T)])
        return {"stats": stats, "e0": ref.ground_energy(obs)}

    def check(self, reference: dict, work: Path, stdout: str) -> float:
        rows = json.loads((work / "report.json").read_text())
        return check_estimate_rows(rows, reference["stats"], reference["e0"])


class OptimizeN3:
    name = "optimize-n3"
    why = (
        "optimize --batch on N=3, 3 rounds: 20000 shots fall in at most 64 distinct rows "
        "(99.7% repeats); objective assembly dominates"
    )
    n = 3
    shots = 20000
    rounds = 3

    def generate(self, seed: int, work: Path) -> Inputs:
        ham, rho = _perturbed_ground_state(self.n)
        batch = _systematic_batch(rho, self.shots, seed)
        start = brickwork(self.n, 2)
        write_batch(batch, work / "batch.csv")
        write_observable(ham, work / "ham.json")
        save_circuit(start, work / "start.json")
        argv = [
            "optimize", "--observable", str(work / "ham.json"),
            "--circuit", str(work / "start.json"), "--batch", str(work / "batch.csv"),
            "--rounds", str(self.rounds), "--init", "random_unitary", "--seed", "0",
            "--out-circuit", str(work / "out_circuit.json"), "--report", str(work / "sweep.csv"),
        ]
        return Inputs(argv, _describe(batch.outcomes, ham, [start]), {"rho": rho.matrix})

    def reference(self, inputs: Inputs, work: Path) -> dict:
        obs = ref.read_observable(work / "ham.json")
        return {
            "obs": obs,
            "e0": ref.ground_energy(obs),
            "duals": ref.dual_frame(get_povm(POVM).effects),
            "outcomes": ref.read_outcomes(work / "batch.csv"),
            "rho": inputs.truth["rho"],
        }

    def check(self, r: dict, work: Path, stdout: str) -> float:
        def empirical(g):
            table = ref.weight_table(g, r["duals"], self.n)
            return float(np.mean(table[tuple(r["outcomes"].T)]))

        return _check_sweep(work, stdout, r["obs"], r["e0"], r["rho"], empirical)


class AnsatzN5:
    name = "ansatz-n5"
    why = (
        "ansatz on the N=5 XX chain from one classical row, CLI seed fixed at 0; "
        "the CPTP subproblem solver dominates and batching rows gains nothing"
    )
    n = 5

    def generate(self, seed: int, work: Path) -> Inputs:
        ham = xx_hamiltonian(self.n, coupling=1.0, field=FIELD, periodic=True)
        write_observable(ham, work / "ham.json")
        argv = [
            "ansatz", "--observable", str(work / "ham.json"), "--rounds", "24", "--seed", "0",
            "--out-circuit", str(work / "out_circuit.json"), "--report", str(work / "sweep.csv"),
        ]
        return Inputs(argv, _describe(None, ham, [staircase(self.n, 1)]))

    def reference(self, inputs: Inputs, work: Path) -> dict:
        obs = ref.read_observable(work / "ham.json")
        zero = np.zeros_like(obs)
        zero[0, 0] = 1.0
        return {"obs": obs, "e0": ref.ground_energy(obs), "rho": zero}

    def check(self, r: dict, work: Path, stdout: str) -> float:
        return _check_sweep(
            work, stdout, r["obs"], r["e0"], r["rho"], lambda g: float(np.real(g[0, 0]))
        )


WORKLOADS = {w.name: w for w in (EstimateN8(), OptimizeN3(), AnsatzN5())}
