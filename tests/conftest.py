"""Shared fixtures and the acceptance-summary reporting hook."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from virtualmap.cone import Component, CutWalk, MapCircuit, brickwork, schedule, staircase
from virtualmap.errors import ValidationError
from virtualmap.estimation import ProductInputData
from virtualmap.linalg import apply_superop_local, trace_mul
from virtualmap.maps import (
    LocalMap,
    identity_map,
    random_cptp_map,
    random_tp_hermitian_map,
    random_unitary_map,
)
from virtualmap.pauli import PAULI_MATRICES, Observable, PauliString
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


def kernel_circuits(rng: np.random.Generator) -> dict[str, MapCircuit]:
    """Brickwork, staircase, general and non-trace-preserving circuits on N=4
    for the batched-kernel tests; "non-tp" holds a non-trace-preserving
    component far from most terms' support."""
    general = MapCircuit(
        4,
        (
            Component((0, 2), random_cptp_map(2, rng)),
            Component((3,), random_unitary_map(1, rng)),
            Component((1, 2), random_tp_hermitian_map(2, rng)),
        ),
    )
    leaky = brickwork(4, 1, lambda layer, qubits: random_cptp_map(2, rng))
    leaky = leaky.with_component(1, LocalMap(0.9 * identity_map(2).superop))
    return {
        "brickwork": random_mixed_circuit(4, rng),
        "staircase": staircase(4, 1, lambda layer, qubits: random_tp_hermitian_map(2, rng)),
        "general": general,
        "non-tp": leaky,
    }


def kernel_observable() -> Observable:
    """Four terms on N=4: one-qubit, adjacent, far-apart and the identity."""
    return Observable.from_terms(
        4, [(0.7, "ZIII"), (-0.4, "IXXI"), (0.25, "YIIZ"), (1.5, "IIII")]
    )


def random_product_duals(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random trace-one Hermitian single-qubit factors (dual-frame stand-ins)."""
    out = []
    for _ in range(n):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (g + g.conj().T) / 2.0
        h = h - np.eye(2) * (np.trace(h) - 1.0) / 2.0
        out.append(h)
    return out


def expectation_oracle(rho: np.ndarray, obs: Observable) -> complex:
    """Sum_k c_k Tr[rho P_k] by per-qubit tensor contraction.

    Independent of any map machinery and of :meth:`Observable.matrix`: the
    reference value the tests compare energies with. Returns a complex
    number; callers decide whether to keep the real part.
    """
    rho = np.asarray(rho)
    n = obs.num_qubits
    if rho.shape != (2**n, 2**n):
        raise ValidationError(f"state shape {rho.shape} does not match {n} qubits")
    total = 0.0 + 0.0j
    base = rho.reshape((2,) * (2 * n))
    for coeff, ps in obs.terms:
        t = base
        for q in reversed(range(n)):
            nq = t.ndim // 2
            # Tr picks up sum_{r,c} t[..r..,..c..] P[c,r] on each qubit
            t = np.tensordot(t, PAULI_MATRICES[ps.letters[q]], axes=([q, nq + q], [1, 0]))
        total += coeff * complex(t)
    return total


def tensor_extend(m: LocalMap, positions, arity: int) -> LocalMap:
    """Embed a map into a larger register, identity on the other qubits.

    ``positions`` places the map's qubits (in its own order) within the
    ``arity``-qubit register.
    """
    positions = list(positions)
    if len(positions) != m.arity:
        raise ValidationError("positions must match the map arity")
    if len(set(positions)) != len(positions) or not all(0 <= p < arity for p in positions):
        raise ValidationError(f"invalid embedding positions {positions}")
    d = 2**arity
    # column j of the superoperator is vec of the map applied to unvec(e_j),
    # here the trailing batch axis j
    units = np.eye(d * d).reshape(d, d, d * d).transpose(1, 0, 2)
    out = apply_superop_local(units, m.superop, positions, arity)
    return LocalMap(out.transpose(1, 0, 2).reshape(d * d, d * d))


def one_row(factors) -> ProductInputData:
    """The product of the single-qubit ``factors`` as one row of weight one."""
    tables = [np.asarray(f)[None] for f in factors]
    return ProductInputData(np.ones(1), tables, np.zeros((1, len(tables)), dtype=int))


def one_term(pauli) -> Observable:
    """The Pauli string ``pauli``, or its letters, with coefficient one."""
    pauli = PauliString(pauli) if isinstance(pauli, str) else pauli
    return Observable.from_terms(pauli.num_qubits, [(1.0, pauli)])


def random_pauli_letters(n: int, rng: np.random.Generator) -> str:
    return "".join("IXYZ"[k] for k in rng.integers(0, 4, size=n))


def replace_component(circuit: MapCircuit, index: int, new_map) -> MapCircuit:
    return circuit.with_component(index, new_map)


def group_cut_pair(res_f, res_b, active, support):
    """A residual pair on the qubits ``active`` (ascending), support first:
    two arrays of shape (ds, dm, ds, dm, R, T), batch shapes broadcast, ds
    spanning ``support`` (in component order), dm the other active qubits.
    With :func:`cut_objective`, the two-step reference for
    ``CutWalk.objective``."""
    active = list(active)
    a = len(active)
    order = [active.index(q) for q in support]
    order += [p for p, q in enumerate(active) if q not in support]
    ds = 2 ** len(support)
    dm = 2**a // ds
    shape = (ds, dm, ds, dm) + np.broadcast_shapes(res_f.shape[2:], res_b.shape[2:])

    def grouped(res):
        batch = res.shape[2:]
        t = res.reshape((2,) * (2 * a) + batch)
        t = t.transpose([*order, *[a + p for p in order], *range(2 * a, 2 * a + len(batch))])
        return np.broadcast_to(t.reshape((ds, dm, ds, dm) + batch), shape)

    return grouped(res_f), grouped(res_b)


def cut_objective(r: np.ndarray, rbar: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """sum_{i,k} weight_ik sum_a kron(R_a^T, Rbar_a) for (ds, dm, ds, dm, R, T)
    residual pairs and (R, T) weights, as a (ds^2, ds^2) matrix. The
    spectator-basis sum is folded into the contraction:
    sum_a R_a[x,y] Rbar_a[X,Y] = sum_{w,u} r[x,w,y,u] rbar[X,u,Y,w], so the
    energy sum_{x,y,X,Y} C[(x,Y),(y,X)] r[x,w,y,u] rbar[X,u,Y,w] is Tr[C M]
    with M[(y,X),(x,Y)]."""
    ds = r.shape[0]
    # one matmul over (i, k, w, u)
    lhs = np.multiply(r.transpose(0, 2, 4, 5, 1, 3), weight[:, :, None, None], order="C")
    rhs = rbar.transpose(4, 5, 3, 1, 0, 2).reshape(-1, ds * ds)
    m4 = (lhs.reshape(ds * ds, -1) @ rhs).reshape(ds, ds, ds, ds).transpose(1, 2, 0, 3)
    return m4.reshape(ds * ds, ds * ds)


def reference_objective(walk: CutWalk, circuit: MapCircuit, index: int) -> np.ndarray:
    """The walk's share of M at component ``index`` by the two-step
    reference: :func:`group_cut_pair`, then :func:`cut_objective`."""
    active, res_f, res_b = walk.residuals(circuit, index)
    pair = group_cut_pair(res_f, res_b, active, circuit.components[index].qubits)
    return cut_objective(*pair, walk.weights)


def cut_pair(circuit: MapCircuit, index: int, in_factors, out_factors):
    """The residual pair of a cold walk on the whole-register plan cut at
    component ``index``: the split of a standalone call, laid out by
    :func:`group_cut_pair`."""
    walk = CutWalk(schedule(circuit).steps, in_factors, out_factors, np.ones((1, 1)))
    active, res_f, res_b = walk.residuals(circuit, index)
    return group_cut_pair(res_f, res_b, active, circuit.components[index].qubits)


def split_pairs(circuit: MapCircuit, index: int, factors, pauli) -> list:
    """Residual pairs (R_a, Rbar_a) of one row and term such that, for any map
    L on component ``index``'s qubits, the circuit's value with that component
    replaced by L is sum_a Tr[L(R_a) Rbar_a].

    The index a runs over the normalized Pauli basis of the spectator qubits,
    built explicitly here as a reference for the folded sum in the library.
    """
    r, rbar = (
        res[..., 0, 0] for res in cut_pair(circuit, index, list(factors), pauli.matrices())
    )
    normalized = [PAULI_MATRICES[c] / np.sqrt(2.0) for c in "IXYZ"]
    basis = [np.ones((1, 1), dtype=complex)]
    while len(basis) < r.shape[1] ** 2:
        basis = [np.kron(b, p) for b in basis for p in normalized]
    return [(np.einsum("xwyu,uw->xy", r, b), np.einsum("xwyu,uw->xy", rbar, b)) for b in basis]


def split_value(pairs, local_map) -> complex:
    """sum_a Tr[L(R_a) Rbar_a] for pairs from :func:`split_pairs`."""
    return complex(sum(trace_mul(local_map.apply(r), rbar) for r, rbar in pairs))


def objective_value(objective: np.ndarray, choi) -> float:
    """Re Tr[C M] of the Choi matrix ``choi`` against the objective M."""
    return float(np.real(trace_mul(choi.matrix, objective)))


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


# Values that break naive parsing: null, booleans, negatives, fractions,
# integral floats, non-finite and overflowing numbers, text (numeric too) and
# empty containers.
_SPECIAL = st.sampled_from(
    [None, True, -1, 1.5, 2.0, float("inf"), float("nan"), 10**400, "x", "01", "", [], {}]
)
# Map presets, valid and broken, and Pauli strings.
_KNOWN_TEXT = st.sampled_from(
    [
        "identity",
        "cnot",
        "zreset",
        "depolarizing(0.1)",
        "depolarizing(p=2)",
        "random_cptp(seed=-1)",
        "random_unitary(seed=3)",
        "noisy_cnot(theta=nan)",
        "Z",
        "XZ",
    ]
)
_JSON_LEAVES = st.one_of(_SPECIAL, st.integers(), st.floats(), _KNOWN_TEXT, st.text(max_size=4))


def json_junk(keys) -> st.SearchStrategy:
    """Nested JSON-like values whose object keys are drawn mostly from
    ``keys``, for fuzzing the file parsers."""
    return st.recursive(
        _JSON_LEAVES,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.one_of(st.sampled_from(keys), st.text(max_size=3)), inner, max_size=4),
        ),
        max_leaves=16,
    )


def small_or_junk() -> st.SearchStrategy:
    """A small non-negative integer about half the time, a breaking value
    otherwise."""
    return st.one_of(st.integers(0, 4), _SPECIAL)


def map_specs() -> st.SearchStrategy:
    """Map entries of circuit and state-prep files: presets, valid or not, and
    junk payloads."""
    return st.one_of(_KNOWN_TEXT, json_junk(["convention", "superop"]))
