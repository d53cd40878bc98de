"""Dense reference values for the benchmark's correctness gate, in plain numpy.

Everything here reads the same files the CLI reads (batch CSV, observable
JSON, circuit JSON) with its own parsers and evaluates densely from the maps'
superoperators. It imports nothing from virtualmap, so a defect in the cone
engine or the linear-algebra helpers cannot also hide in the reference.

Conventions follow the file formats: a superoperator acts on column-stacked
operators (``vec(X)[j*d + i] = X[i, j]``) and qubit 0 is the most significant
tensor factor.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class GateFailure(AssertionError):
    """An output of the CLI disagrees with the dense reference."""


def read_observable(path) -> np.ndarray:
    """Dense matrix of an observable JSON file."""
    payload = json.loads(Path(path).read_text())
    n = int(payload["num_qubits"])
    out = np.zeros((2**n, 2**n), dtype=complex)
    for term in payload["terms"]:
        raw = term["coeff"]
        coeff = complex(raw, 0.0) if isinstance(raw, (int, float)) else complex(raw[0], raw[1])
        mat = np.ones((1, 1), dtype=complex)
        for letter in term["pauli"]:
            mat = np.kron(mat, PAULI[letter])
        out += coeff * mat
    return out


def read_circuit(path) -> tuple[int, list[tuple[tuple[int, ...], np.ndarray]]]:
    """(num_qubits, [(qubits, superoperator), ...]) of a circuit JSON file.

    Only explicit superoperator payloads are accepted; the benchmark writes
    and the CLI returns nothing else.
    """
    payload = json.loads(Path(path).read_text())
    comps = []
    for entry in payload["components"]:
        spec = entry["map"]
        if not isinstance(spec, dict) or spec.get("convention") != "col-vec":
            raise GateFailure(f"unexpected map payload in {path}")
        sup = np.array([[complex(z[0], z[1]) for z in row] for row in spec["superop"]])
        comps.append((tuple(int(q) for q in entry["qubits"]), sup))
    return int(payload["num_qubits"]), comps


def read_outcomes(path) -> np.ndarray:
    """(S, N) outcome indices of a batch CSV file."""
    return np.loadtxt(path, delimiter=",", comments="#", dtype=np.int64, ndmin=2)


def dual_frame(effects: np.ndarray) -> np.ndarray:
    """Duals D_m with sum_m Tr[A Pi_m] D_m = A, from a minimal IC POVM."""
    effects = np.asarray(effects, dtype=complex)
    flat = effects.reshape(len(effects), 4)
    overlap = np.real(flat.conj() @ flat.T)
    duals = np.linalg.solve(overlap, flat).reshape(effects.shape)
    probe = np.array([[0.3, 0.1 - 0.7j], [0.2 + 0.4j, -1.1]])
    rebuilt = sum(np.trace(probe @ e) * d for e, d in zip(effects, duals))
    if np.max(np.abs(rebuilt - probe)) > 1e-12:
        raise GateFailure("POVM is not minimal informationally complete")
    return duals


def apply_local(op: np.ndarray, superop: np.ndarray, qubits, n: int) -> np.ndarray:
    """Apply a k-qubit superoperator to the named qubits of an n-qubit operator."""
    k = len(qubits)
    s = superop.reshape((2,) * (4 * k))  # col_out, row_out, col_in, row_in
    rows = list(range(n))
    cols = list(range(n, 2 * n))
    fresh = iter(range(2 * n, 2 * n + 4 * k))
    c_out = [next(fresh) for _ in qubits]
    r_out = [next(fresh) for _ in qubits]
    in_rows, in_cols = list(rows), list(cols)
    out_rows, out_cols = list(rows), list(cols)
    r_in, c_in = [], []
    for j, q in enumerate(qubits):
        r_in.append(rows[q])
        c_in.append(cols[q])
        out_rows[q] = r_out[j]
        out_cols[q] = c_out[j]
    t = op.reshape((2,) * (2 * n))
    res = np.einsum(s, c_out + r_out + c_in + r_in, t, in_rows + in_cols, out_rows + out_cols)
    return res.reshape(2**n, 2**n)


def apply_circuit(op: np.ndarray, comps, n: int) -> np.ndarray:
    for qubits, sup in comps:
        op = apply_local(op, sup, qubits, n)
    return op


def heisenberg(obs: np.ndarray, comps, n: int) -> np.ndarray:
    """G = L^dag(O): the adjoint circuit (conjugate-transposed superoperators)
    applied in reverse order, so that Tr[L(A) O] = Tr[A G] for Hermitian A
    and Hermiticity-preserving maps."""
    for qubits, sup in reversed(comps):
        obs = apply_local(obs, sup.conj().T, qubits, n)
    return obs


def weight_table(g: np.ndarray, duals: np.ndarray, n: int) -> np.ndarray:
    """W[m_0, ..., m_{n-1}] = Re Tr[(D_{m_0} (x) ... (x) D_{m_{n-1}}) G]."""
    t = g.reshape((2,) * (2 * n))
    for q in range(n):
        # the leading row axis and its column partner belong to qubit q
        t = np.tensordot(t, duals, axes=([0, n - q], [2, 1]))
    return np.real(t)


def mean_and_sigma(weights: np.ndarray) -> tuple[float, float]:
    """Sample mean and its unbiased standard error."""
    s = len(weights)
    return float(np.mean(weights)), float(np.std(weights, ddof=1) / np.sqrt(s))


def ground_energy(obs: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(obs)[0])


def choi(superop: np.ndarray) -> np.ndarray:
    """C = sum_ab |a><b| (x) L(|a><b|), input (x) output ordering."""
    d = round(np.sqrt(superop.shape[0]))
    c = np.zeros((d, d, d, d), dtype=complex)  # a, out row, b, out col
    for a in range(d):
        for b in range(d):
            c[a, :, b, :] = superop[:, b * d + a].reshape(d, d, order="F")
    return c.reshape(d * d, d * d)


def cptp_defect(superop: np.ndarray) -> float:
    """Largest of: Hermiticity defect, negative Choi eigenvalue, TP defect."""
    d = round(np.sqrt(superop.shape[0]))
    c = choi(superop)
    herm_defect = float(np.max(np.abs(c - c.conj().T)))
    neg = float(max(0.0, -np.linalg.eigvalsh(0.5 * (c + c.conj().T))[0]))
    tr_out = np.einsum("aibi->ab", c.reshape(d, d, d, d))
    tp_defect = float(np.max(np.abs(tr_out - np.eye(d))))
    return max(herm_defect, neg, tp_defect)


def require(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


def require_close(actual: float, expected: float, rel: float, what: str) -> None:
    scale = max(abs(expected), np.finfo(float).tiny)
    require(
        abs(actual - expected) <= rel * scale,
        f"{what}: CLI {actual!r} vs reference {expected!r} (rel tol {rel:g})",
    )
