"""End-to-end acceptance criteria.

Each test records one pass/fail line (printed in the terminal summary by
conftest) and asserts its stated tolerance and runtime budget. Expensive
optimization runs are shared between criteria through cached builders.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

from conftest import (
    ACCEPTANCE_RESULTS,
    brute_force_min,
    expectation_oracle,
    objective_value,
    random_mixed_circuit,
)
from virtualmap.cone import MapCircuit, brickwork, evaluate_trace, evaluate_trace_backward, staircase
from virtualmap.densesim import (
    DensityMatrix,
    apply_circuit_dense,
    build_perturbed_state,
    exact_ground_energy,
    noisy_chain_state,
    perturbation_circuit,
    sample_outcomes,
)
from virtualmap.estimation import (
    ProductInputData,
    classical_input,
    data_from_batch,
    estimate,
    estimate_exact,
    shot_weight,
)
from virtualmap.linalg import kron_all, trace_mul
from virtualmap.maps import (
    random_cptp_map,
    random_tp_hermitian_map,
    random_unitary_map,
    superop_to_choi,
)
from virtualmap.pauli import Observable, PauliString, xx_hamiltonian
from virtualmap.povm import TETRAHEDRON, compute_duals, make_sic_povm
from virtualmap.varopt import (
    SweepOptions,
    assemble_local_objective,
    circuit_energy,
    classical_ansatz,
    cptp_residuals,
    minimize_over_cptp,
    sweep,
    zreset_compose,
)

PAULI_1Q = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _record(num: int, title: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((num, title, bool(ok), detail))
    assert ok, f"criterion {num} ({title}): {detail}"


# ---------------------------------------------------------------------------
# shared scenario builders (cached; cost attributed to the first user)


@lru_cache(maxsize=1)
def _perturbed_scenario():
    """N=4 ground state, its perturbation, three maps, three observables."""
    n = 4
    ham = xx_hamiltonian(n, coupling=1.0, field=0.95, periodic=True)
    _, vec = exact_ground_energy(ham)
    rho0 = DensityMatrix(n, np.outer(vec, vec.conj()))
    rho_pert = build_perturbed_state(rho0, p=0.05, seed=21)
    inverse = perturbation_circuit(n, 0.05, seed=21).inverse()
    rng = np.random.default_rng(33)
    unitary_layer = brickwork(n, 1, lambda layer, qubits: random_unitary_map(2, rng))
    maps = (
        ("identity", MapCircuit(n, ())),
        ("inverse", inverse),
        ("unitary-layer", unitary_layer),
    )
    observables = (
        ("chain", ham),
        (
            "corr",
            Observable.from_terms(
                n, [(1.0, "ZZII"), (0.5, "IXXI"), (0.25, "IIYY")]
            ),
        ),
        (
            "mag",
            Observable.from_terms(
                n, [(0.5, "ZIII"), (0.5, "IZII"), (0.5, "IIZI"), (0.5, "IIIZ")]
            ),
        ),
    )
    return rho0, rho_pert, inverse, maps, observables


@lru_cache(maxsize=2)
def _ansatz_runs(field: float):
    """Single-layer sequential ansatz runs on the all-zeros input, 3 seeds."""
    obs = xx_hamiltonian(6, coupling=1.0, field=field, periodic=True)
    e0, _ = exact_ground_energy(obs)
    runs = []
    for seed in (0, 1, 2):
        circuit, report = classical_ansatz(
            obs,
            layers=1,
            options=SweepOptions(seed=seed, rounds=24),
            exact_energy=e0,
        )
        runs.append((seed, circuit, report))
    return obs, e0, runs


@lru_cache(maxsize=1)
def _noisy_input_runs():
    """Optimizations on the noisy-chain input state, 3 seeds."""
    obs = xx_hamiltonian(6, coupling=1.0, field=0.0, periodic=True)
    e0, _ = exact_ground_energy(obs)
    rho = noisy_chain_state(6, theta=0.05, p=1e-3)
    runs = []
    for seed in (0, 1, 2):
        circuit, report = sweep(
            staircase(6, 1),
            rho,
            obs,
            SweepOptions(seed=seed, rounds=24, init="random_unitary"),
            exact_energy=e0,
        )
        runs.append((seed, circuit, report))
    return e0, runs


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_dual_frame_exactness():
    t0 = time.perf_counter()
    povm = make_sic_povm()
    duals = np.asarray(compute_duals(povm).duals)
    effects = np.asarray(povm.effects)

    worst_closed = 0.0
    for m in range(4):
        bloch = TETRAHEDRON[m]
        ref = (
            np.eye(2)
            + 3.0 * sum(bloch[k] * PAULI_1Q[ax] for k, ax in enumerate("XYZ"))
        ) / 2.0
        worst_closed = max(worst_closed, float(np.max(np.abs(duals[m] - ref))))

    units = []
    for a in range(2):
        for b in range(2):
            u = np.zeros((2, 2), dtype=complex)
            u[a, b] = 1.0
            units.append(u)
    worst_dual = 0.0
    for u1 in units:
        for u2 in units:
            target = np.kron(u1, u2)
            recon = np.zeros((4, 4), dtype=complex)
            for m in range(4):
                for mp in range(4):
                    effect = np.kron(effects[m], effects[mp])
                    recon += np.trace(target @ effect) * np.kron(duals[m], duals[mp])
            worst_dual = max(worst_dual, float(np.max(np.abs(recon - target))))

    elapsed = time.perf_counter() - t0
    worst = max(worst_closed, worst_dual)
    ok = worst <= 1e-12 and elapsed < 1.0
    _record(
        1,
        "dual-frame exactness",
        ok,
        f"closed form {worst_closed:.2e}, reconstruction {worst_dual:.2e} "
        f"(tol 1e-12), {elapsed:.2f} s (budget 1 s)",
    )


def test_criterion_02_cone_oracle_equivalence():
    t0 = time.perf_counter()
    duals = np.asarray(compute_duals(make_sic_povm()).duals)
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    worst_fb = 0.0
    for n in (3, 4, 5):
        for _ in range(100):
            circ = random_mixed_circuit(n, rng)
            outcome = rng.integers(0, 4, size=n)
            letters = "".join("IXYZ"[k] for k in rng.integers(0, 4, size=n))
            pauli = PauliString(letters)
            row = ProductInputData(np.ones(1), [duals] * n, outcome[None])
            term = Observable.from_terms(n, [(1.0, pauli)])
            fwd = evaluate_trace(circ, row, term)[0]
            bwd = evaluate_trace_backward(circ, row, term)[0]
            dense = apply_circuit_dense(circ, kron_all([duals[m] for m in outcome]))
            want = trace_mul(dense, pauli.matrix())
            worst_rel = max(worst_rel, abs(fwd - want) / (1.0 + abs(want)))
            worst_fb = max(worst_fb, abs(fwd - bwd))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-10 and worst_fb <= 1e-12 and elapsed < 120.0
    _record(
        2,
        "cone-engine oracle equivalence",
        ok,
        f"300 instances, worst relative error {worst_rel:.2e} (tol 1e-10), "
        f"forward/backward gap {worst_fb:.2e} (tol 1e-12), {elapsed:.1f} s (budget 120 s)",
    )


def test_criterion_03_unbiasedness_and_coverage():
    t0 = time.perf_counter()
    _, rho_pert, _, maps, observables = _perturbed_scenario()
    n = 4
    num_batches, shots = 100, 2000

    # per-outcome weight tables make the 900-batch loop cheap; they are
    # verified below to reproduce the estimator exactly
    all_outcomes = (
        np.array(np.meshgrid(*[range(4)] * n, indexing="ij")).reshape(n, -1).T
    )
    powers = 4 ** np.arange(n - 1, -1, -1)
    tables = {
        (mname, oname): np.array(
            [shot_weight(oc, "sic", circuit, obs) for oc in all_outcomes]
        )
        for mname, circuit in maps
        for oname, obs in observables
    }

    def table_estimate(batch, key):
        w = tables[key][batch.outcomes @ powers]
        return w.mean(), np.sqrt(max(w.var(ddof=1), 0.0) / w.size)

    worst_harness = 0.0
    check_batch = sample_outcomes(rho_pert, "sic", shots, seed=0)
    for mname, circuit in maps:
        for oname, obs in observables:
            est = estimate(check_batch, "sic", circuit, obs)
            tv, ts = table_estimate(check_batch, (mname, oname))
            worst_harness = max(worst_harness, abs(est.value - tv), abs(est.sigma - ts))
    assert worst_harness <= 1e-12, "weight tables must reproduce the estimator"

    exact = {
        (mname, oname): estimate_exact(rho_pert, "sic", circuit, obs)
        for mname, circuit in maps
        for oname, obs in observables
    }

    values = {k: [] for k in tables}
    sigmas = {k: [] for k in tables}
    for bseed in range(num_batches):
        batch = sample_outcomes(rho_pert, "sic", shots, seed=1000 + bseed)
        for key in tables:
            v, s = table_estimate(batch, key)
            values[key].append(v)
            sigmas[key].append(s)

    worst_z = 0.0
    covered, total = 0, 0
    for key in tables:
        v = np.array(values[key])
        s = np.array(sigmas[key])
        err = np.abs(v - exact[key])
        sem = v.std(ddof=1) / np.sqrt(num_batches)
        worst_z = max(worst_z, abs(v.mean() - exact[key]) / sem)
        covered += int(np.sum(err <= 3.0 * s))
        total += num_batches
    coverage = covered / total

    elapsed = time.perf_counter() - t0
    ok = worst_z < 4.0 and coverage >= 0.95 and elapsed < 600.0
    _record(
        3,
        "unbiasedness and 3-sigma coverage",
        ok,
        f"9 map/observable pairs x {num_batches} batches: worst grand-mean "
        f"z-score {worst_z:.2f} (< 4), coverage {coverage:.4f} (>= 0.95), "
        f"{elapsed:.1f} s (budget 600 s)",
    )


def test_criterion_04_inverse_map_recovery():
    t0 = time.perf_counter()
    rho0, rho_pert, inverse, _, observables = _perturbed_scenario()

    min_eig = min(
        float(np.linalg.eigvalsh(superop_to_choi(c.map).matrix).min())
        for c in inverse.components
    )
    worst = 0.0
    for _, obs in observables:
        got = estimate_exact(rho_pert, "sic", inverse, obs)
        want = float(expectation_oracle(rho0.matrix, obs).real)
        worst = max(worst, abs(got - want))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and min_eig < -1e-6 and elapsed < 60.0
    _record(
        4,
        "inverse-map recovery",
        ok,
        f"worst recovery error {worst:.2e} (tol 1e-8), inverse component Choi "
        f"min eigenvalue {min_eig:.2e} (< 0), {elapsed:.2f} s (budget 60 s)",
    )


def test_criterion_05_local_objective_consistency():
    t0 = time.perf_counter()
    obs = xx_hamiltonian(5, coupling=1.0, field=0.3, periodic=True)
    batch = sample_outcomes(noisy_chain_state(5), "sic", 200, seed=77)
    data = data_from_batch(batch, "sic")
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(20):
        circ = random_mixed_circuit(5, rng)
        index = int(rng.integers(0, len(circ.components)))
        objective = assemble_local_objective(circ, index, data, obs)
        new_map = (
            random_cptp_map(2, rng)
            if rng.random() < 0.5
            else random_tp_hermitian_map(2, rng)
        )
        predicted = objective_value(objective, superop_to_choi(new_map))
        actual = estimate(
            batch, "sic", circ.with_component(index, new_map), obs
        ).value
        worst = max(worst, abs(predicted - actual))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 120.0
    _record(
        5,
        "local-objective consistency",
        ok,
        f"20 circuit/component pairs at N=5: worst objective-vs-estimator gap "
        f"{worst:.2e} (tol 1e-10), {elapsed:.1f} s (budget 120 s)",
    )


def test_criterion_06_sdp_subsolver():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    worst_gap = 0.0
    worst_feas = 0.0
    for fixture in range(5):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = (g + g.conj().T) / 2.0
        choi, info = minimize_over_cptp(m)
        reference = brute_force_min(m, seed=fixture)
        neg, tp_res = cptp_residuals(choi.matrix, 2)
        worst_gap = max(worst_gap, abs(info["value"] - reference))
        worst_feas = max(worst_feas, neg, tp_res)

    _, info = minimize_over_cptp(np.eye(4))
    identity_err = abs(info["value"] - 2.0)

    elapsed = time.perf_counter() - t0
    ok = (
        worst_gap <= 1e-4
        and worst_feas <= 1e-8
        and identity_err <= 1e-8
        and elapsed < 60.0
    )
    _record(
        6,
        "constrained subproblem solver",
        ok,
        f"5 brute-force fixtures: worst gap {worst_gap:.2e} (tol 1e-4), "
        f"feasibility {worst_feas:.2e} (tol 1e-8), identity objective error "
        f"{identity_err:.2e} (tol 1e-8), {elapsed:.1f} s (budget 60 s)",
    )


def test_criterion_07_near_critical_chain_convergence():
    t0 = time.perf_counter()
    _, e0, runs = _ansatz_runs(0.95)
    rels = [report.relative_error() for _, _, report in runs]
    best = min(rels)
    elapsed = time.perf_counter() - t0
    ok = best <= 1e-3 and elapsed < 900.0
    _record(
        7,
        "near-critical chain ansatz convergence",
        ok,
        f"3 seeds, best relative energy error {best:.2e} (tol 1e-3), "
        f"ground energy {e0:.6f}, {elapsed:.0f} s (budget 900 s)",
    )


def test_criterion_08_zero_field_chain_stalls():
    t0 = time.perf_counter()
    _, e0, runs = _ansatz_runs(0.0)
    min_drop_ratio = np.inf
    best_rel = np.inf
    for _, _, report in runs:
        gap = report.initial_energy - e0
        drop = report.initial_energy - report.final_energy
        min_drop_ratio = min(min_drop_ratio, drop / gap)
        best_rel = min(best_rel, report.relative_error())
    elapsed = time.perf_counter() - t0
    ok = min_drop_ratio >= 0.10 and best_rel > 1e-3 and elapsed < 900.0
    _record(
        8,
        "zero-field chain stalls above ground energy",
        ok,
        f"3 seeds: smallest energy drop {min_drop_ratio:.1%} of initial gap "
        f"(>= 10%), best final relative error {best_rel:.2e} (> 1e-3), "
        f"{elapsed:.0f} s (budget 900 s)",
    )


def test_criterion_09_reset_containment_and_noisy_input():
    t0 = time.perf_counter()
    obs, _, runs = _ansatz_runs(0.0)
    best_seed = min(runs, key=lambda r: r[2].final_energy)
    best_circuit, best_report = best_seed[1], best_seed[2]
    best_classical = best_report.final_energy

    # (a) composing resets makes the optimized recipe input-independent
    composed = zreset_compose(best_circuit)
    rng = np.random.default_rng(11)
    psi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    psi /= np.linalg.norm(psi)
    rho_rand = DensityMatrix(6, np.outer(psi, psi.conj()))
    e_random_input = circuit_energy(composed, rho_rand, obs)
    e_zero_input = circuit_energy(best_circuit, classical_input(6), obs)
    containment_gap = abs(e_random_input - e_zero_input)

    # (b) a noisy entangled input lets the optimizer beat the classical best
    _, noisy_runs = _noisy_input_runs()
    noisy_best = min(report.final_energy for _, _, report in noisy_runs)
    beats = noisy_best <= best_classical

    elapsed = time.perf_counter() - t0
    ok = containment_gap <= 1e-10 and beats and elapsed < 1200.0
    _record(
        9,
        "reset containment and noisy-input advantage",
        ok,
        f"reset-composed energy gap {containment_gap:.2e} (tol 1e-10); noisy-input "
        f"best {noisy_best:.7f} vs classical best {best_classical:.7f} "
        f"({'beats' if beats else 'fails to beat'}), {elapsed:.0f} s (budget 1200 s)",
    )


def test_criterion_10_sweep_monotonicity():
    reports = []
    for field in (0.95, 0.0):
        _, _, runs = _ansatz_runs(field)
        reports.extend(report for _, _, report in runs)
    _, noisy_runs = _noisy_input_runs()
    reports.extend(report for _, _, report in noisy_runs)

    worst_rise = -np.inf
    for report in reports:
        energies = [report.initial_energy] + [s.energy for s in report.steps]
        for prev, nxt in zip(energies, energies[1:]):
            worst_rise = max(worst_rise, nxt - prev)
    ok = worst_rise <= 1e-6
    _record(
        10,
        "sweep monotonicity",
        ok,
        f"{len(reports)} optimization runs: largest per-iteration energy "
        f"increase {worst_rise:.2e} (tol 1e-6)",
    )
