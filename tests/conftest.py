"""Shared fixtures and the acceptance-summary reporting hook."""

from __future__ import annotations

import numpy as np
import pytest

from virtualmap.cone import Component, MapCircuit, brickwork
from virtualmap.maps import (
    random_cptp_map,
    random_tp_hermitian_map,
    random_unitary_map,
)
from virtualmap.pauli import PAULI_MATRICES
from virtualmap.povm import SingleQubitPOVM, compute_duals, make_sic_povm

# Criterion results recorded by tests/test_acceptance.py: list of
# (criterion number, title, passed, detail) tuples, printed at session end.
ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, title, ok, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d} [{status}] {title}: {detail}")


@pytest.fixture(scope="session")
def sic_duals():
    return np.asarray(compute_duals(make_sic_povm()).duals)


def random_mixed_circuit(n: int, rng: np.random.Generator, max_layers: int = 2) -> MapCircuit:
    """Random brickwork of mixed CPTP / unitary / non-CP (but TP, HP) maps."""
    layers = int(rng.integers(1, max_layers + 1))

    def factory(layer, qubits):
        draw = rng.random()
        if draw < 0.4:
            return random_cptp_map(2, rng)
        if draw < 0.7:
            return random_unitary_map(2, rng)
        return random_tp_hermitian_map(2, rng)

    return brickwork(n, layers, factory)


def random_product_duals(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random trace-one Hermitian single-qubit factors (dual-frame stand-ins)."""
    out = []
    for _ in range(n):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (g + g.conj().T) / 2.0
        h = h - np.eye(2) * (np.trace(h) - 1.0) / 2.0
        out.append(h)
    return out


def random_pauli_letters(n: int, rng: np.random.Generator) -> str:
    return "".join("IXYZ"[k] for k in rng.integers(0, 4, size=n))


def replace_component(circuit: MapCircuit, index: int, new_map) -> MapCircuit:
    return circuit.with_component(index, new_map)


def assert_all_close(a, b, atol, msg=""):
    err = np.max(np.abs(np.asarray(a) - np.asarray(b)))
    assert err <= atol, f"{msg} max error {err:.3e} > {atol:.1e}"


def cube_povm() -> SingleQubitPOVM:
    """Six-outcome overcomplete POVM: the +-X, +-Y, +-Z projectors over 3."""
    effects = [
        (np.eye(2) + sign * PAULI_MATRICES[axis]) / 6.0 for axis in "XYZ" for sign in (1.0, -1.0)
    ]
    return SingleQubitPOVM(label="cube", effects=np.array(effects))


def stinespring_choi(x: np.ndarray, d: int = 2, r: int = 4) -> np.ndarray:
    """Choi matrix (input (x) output) of the channel whose Stinespring isometry
    is the Q factor of the (d*r, d) complex matrix packed in ``x``.

    With Kraus operators K_k, C[(i,a),(j,b)] = sum_k K_k[a,i] conj(K_k[b,j]).
    """
    z = (x[: d * r * d] + 1j * x[d * r * d :]).reshape(d * r, d)
    q, _ = np.linalg.qr(z)
    kraus = q.reshape(d, r, d).transpose(1, 0, 2)
    return np.einsum("kai,kbj->iajb", kraus, kraus.conj()).reshape(d * d, d * d)


def brute_force_min(m: np.ndarray, seed: int, starts: int = 8) -> float:
    """Global minimum of Tr[C M] over single-qubit CPTP Choi matrices.

    Full Stinespring parametrization (environment dimension 4 covers every
    channel); multi-start quasi-Newton refinement.
    """
    from scipy.optimize import minimize as scipy_minimize

    d, r = 2, 4
    rng = np.random.default_rng(seed)

    def cost(x):
        return float(np.real(np.trace(stinespring_choi(x, d, r) @ m)))

    best = np.inf
    for _ in range(starts):
        x0 = rng.standard_normal(2 * d * r * d)
        res = scipy_minimize(cost, x0, method="L-BFGS-B")
        best = min(best, float(res.fun))
    return best
