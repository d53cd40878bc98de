"""Dense reference simulation, measurement sampling, and state builders.

Everything here works with full 2^N density matrices (N <= 10) and exists to
feed and cross-check the causal-cone machinery. :func:`apply_circuit_dense`
is the one loop of a circuit's maps over a dense operator, one checked
:func:`apply_local_map` per component: ``oracle-check``'s dense reference and
the source of every prepared state, a state-prep file being a circuit on
|0...0> whose steps are circuit-file components (:func:`load_state_prep`).
:func:`sample_outcomes` is the one sampler: it draws from the enumerated
outcome distribution, 4^N real probabilities.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cone import Component, MapCircuit, brickwork, check_trace_kept, component_from_dict
from .errors import ValidationError, json_int, parse_json, read_bytes, read_text
from .linalg import apply_superop_local
from .maps import LocalMap, noisy_cnot, random_cptp_map
from .pauli import Observable
from .povm import SingleQubitPOVM, get_povm

__all__ = [
    "DensityMatrix",
    "OutcomeBatch",
    "apply_local_map",
    "apply_circuit_dense",
    "build_perturbed_state",
    "perturbation_circuit",
    "noisy_cnot",
    "noisy_chain_state",
    "sample_outcomes",
    "outcome_distribution",
    "exact_ground_energy",
    "computational_zero",
    "maximally_mixed",
    "from_statevector",
    "batch_to_text",
    "write_batch",
    "read_batch",
    "load_state_prep",
    "build_state",
]

_DENSE_LIMIT = 10
EXACT_DIAG_LIMIT = 12  # largest observable diagonalized densely


@dataclass
class DensityMatrix:
    """A dense N-qubit operator with state-like validation helpers."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = 2**self.num_qubits
        if m.shape != (d, d):
            raise ValidationError(
                f"matrix shape {m.shape} does not match {self.num_qubits} qubits"
            )
        # one sum instead of an elementwise test: NaN and inf propagate into it
        if not np.isfinite(m.sum()):
            raise ValidationError("operator has non-finite entries")
        self.matrix = m

    def validate(self) -> None:
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValidationError("state is not Hermitian")
        if abs(np.trace(m) - 1.0) > 1e-10:
            raise ValidationError(f"state trace {np.trace(m):.6g} != 1")
        if np.linalg.eigvalsh(m).min() < -1e-8:
            raise ValidationError("state has a significantly negative eigenvalue")


def _dense_dim(num_qubits: int) -> int:
    """2^N, once N is checked against the dense limit before any allocation."""
    if not 1 <= num_qubits <= _DENSE_LIMIT:
        raise ValidationError(f"dense states need 1 <= N <= {_DENSE_LIMIT}, got N={num_qubits}")
    return 2**num_qubits


def computational_zero(num_qubits: int) -> DensityMatrix:
    d = _dense_dim(num_qubits)
    m = np.zeros((d, d), dtype=complex)
    m[0, 0] = 1.0
    return DensityMatrix(num_qubits, m)


def maximally_mixed(num_qubits: int) -> DensityMatrix:
    d = _dense_dim(num_qubits)
    return DensityMatrix(num_qubits, np.eye(d, dtype=complex) / d)


def from_statevector(psi: np.ndarray) -> DensityMatrix:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    n = round(np.log2(len(psi)))
    if 2**n != len(psi):
        raise ValidationError(f"statevector length {len(psi)} is not 2**n")
    psi = psi / np.linalg.norm(psi)
    return DensityMatrix(n, np.outer(psi, psi.conj()))


def apply_local_map(rho: DensityMatrix, m: LocalMap, qubits) -> DensityMatrix:
    """Apply a k-local map to the named qubits of a dense state; the trace may
    move only as far as the map's TP residual allows (:func:`virtualmap.cone.check_trace_kept`)."""
    qubits = tuple(int(q) for q in qubits)
    if len(qubits) != m.arity:
        raise ValidationError(f"map arity {m.arity} does not match qubits {qubits}")
    if any(q < 0 or q >= rho.num_qubits for q in qubits):
        raise ValidationError(f"qubits {qubits} outside register")
    out = apply_superop_local(rho.matrix, m.superop, qubits, rho.num_qubits)
    check_trace_kept(rho.matrix, out, m)
    return DensityMatrix(rho.num_qubits, out)


def apply_circuit_dense(circuit: MapCircuit, op: np.ndarray) -> np.ndarray:
    """Apply every circuit component, in order, to a dense operator."""
    n = circuit.num_qubits
    _dense_dim(n)
    rho = DensityMatrix(n, op)
    for comp in circuit.components:
        rho = apply_local_map(rho, comp.map, comp.qubits)
    return rho.matrix


def perturbation_circuit(num_qubits: int, p: float = 0.05, seed: int = 0) -> MapCircuit:
    """One two-sublayer pass of mixing channels (1-p) Id + p E on neighbours:
    pairs (0,1),(2,3),... then (1,2),(3,4),..., each E an independent random
    CPTP map."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"perturbation strength {p} outside [0, 1]")
    rng = np.random.default_rng(seed)

    def factory(layer, qubits):
        e = random_cptp_map(2, rng)
        s = (1.0 - p) * np.eye(16, dtype=complex) + p * e.superop
        return LocalMap(s)

    return brickwork(num_qubits, 2, factory)


def build_perturbed_state(rho0: DensityMatrix, p: float = 0.05, seed: int = 0) -> DensityMatrix:
    circuit = perturbation_circuit(rho0.num_qubits, p, seed)
    return DensityMatrix(rho0.num_qubits, apply_circuit_dense(circuit, rho0.matrix))


# ---------------------------------------------------------------------------
# measurement sampling


@dataclass
class OutcomeBatch:
    """Recorded per-qubit measurement outcomes, shape (num_shots, num_qubits)."""

    outcomes: np.ndarray
    povm_labels: tuple[str, ...]
    seed: int
    source: str = ""

    def __post_init__(self):
        o = np.asarray(self.outcomes)
        if o.ndim != 2 or o.shape[0] < 1 or o.shape[1] < 1:
            raise ValidationError(f"outcomes must be (S, N), got {o.shape}")
        if not np.issubdtype(o.dtype, np.integer):
            raise ValidationError("outcomes must be integers")
        if o.min() < 0 or o.max() > 3:
            raise ValidationError("outcome indices must lie in 0..3")
        self.outcomes = o.astype(np.int8, copy=False)  # read_batch's int8 rows are kept as they are
        self.povm_labels = tuple(self.povm_labels)
        if len(self.povm_labels) != o.shape[1]:
            raise ValidationError("need one POVM label per qubit")

    @property
    def num_shots(self) -> int:
        return self.outcomes.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.outcomes.shape[1]


def _effects_per_qubit(povms, num_qubits: int) -> tuple[list[np.ndarray], tuple[str, ...]]:
    if isinstance(povms, (str, SingleQubitPOVM)):
        povms = [povms] * num_qubits
    povms = list(povms)
    if len(povms) != num_qubits:
        raise ValidationError(f"need {num_qubits} POVMs, got {len(povms)}")
    resolved = [get_povm(p) if isinstance(p, str) else p for p in povms]
    return [p.effects for p in resolved], tuple(p.label for p in resolved)


def outcome_distribution(rho: DensityMatrix, povms) -> np.ndarray:
    """Exact joint outcome probabilities, shape (M_0, ..., M_{N-1})."""
    n = rho.num_qubits
    effects, _ = _effects_per_qubit(povms, n)
    t = rho.matrix.reshape((2,) * (2 * n))
    for q in reversed(range(n)):
        # contract row axis q with effect axis r, col axis 2q+1 with axis c
        t = np.tensordot(t, effects[q], axes=([q, 2 * q + 1], [2, 1]))
    t = t.transpose(tuple(reversed(range(n))))
    p = np.real(t)
    if np.abs(np.imag(t)).max() > 1e-10:
        raise ValidationError("outcome probabilities came out complex")
    return p


def sample_outcomes(
    rho: DensityMatrix, povms, num_shots: int, seed: int = 0, source: str = ""
) -> OutcomeBatch:
    """Draw i.i.d. product-POVM outcomes from a state, deterministically given
    the seed: ``num_shots`` draws from the enumerated joint distribution of
    :func:`outcome_distribution`, outcome strings numbered with qubit 0 most
    significant."""
    if num_shots < 1:
        raise ValidationError("need at least one shot")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    rho.validate()
    _, labels = _effects_per_qubit(povms, rho.num_qubits)
    p = outcome_distribution(rho, povms)
    flat = np.clip(p.reshape(-1), 0.0, None)
    draws = np.random.default_rng(seed).choice(flat.size, size=num_shots, p=flat / flat.sum())
    return OutcomeBatch(np.stack(np.unravel_index(draws, p.shape), axis=1), labels, seed, source)


# ---------------------------------------------------------------------------
# batch files

_HEADER_RE = re.compile(
    r"^#\s*povm=(?P<povm>\S+)\s+seed=(?P<seed>-?\d+)\s+N=(?P<n>\d+)\s+S=(?P<s>\d+)"
    r"(?:\s+source=\"(?P<source>[^\"]*)\")?\s*$"
)


def batch_to_text(batch: OutcomeBatch) -> str:
    labels = set(batch.povm_labels)
    povm_field = batch.povm_labels[0] if len(labels) == 1 else "|".join(batch.povm_labels)
    header = (
        f"# povm={povm_field} seed={batch.seed} "
        f"N={batch.num_qubits} S={batch.num_shots}"
    )
    if batch.source:
        header += f' source="{batch.source}"'
    # Outcomes lie in 0..3, so each is one ASCII digit: a row of N outcomes
    # is exactly the 2N bytes "d,d,...,d\n".
    s, n = batch.outcomes.shape
    body = np.full((s, 2 * n), ord(","), dtype=np.uint8)
    body[:, 0::2] = batch.outcomes + ord("0")
    body[:, -1] = ord("\n")
    return header + "\n" + body.tobytes().decode("ascii")


def write_batch(batch: OutcomeBatch, path) -> None:
    Path(path).write_text(batch_to_text(batch))


# The bytes "d," of a row's outcome and "d\n" of its last one, read as one
# little-endian uint16 each, are these pairs plus d.
_PAIR_DIGIT, _PAIR_LAST = np.frombuffer(b"0,0\n", dtype="<u2")


def _row_digits(pairs: np.ndarray) -> np.ndarray:
    """The outcomes of the (R, N) rows ``pairs``, each row the N byte pairs
    ``d,`` ... ``d\\n`` as uint16; a pair that breaks that layout gives a
    value above 3 (uint16 wraps below zero)."""
    digits = pairs - _PAIR_DIGIT
    digits[:, -1] += _PAIR_DIGIT - _PAIR_LAST
    return digits


def _first_bad_row(body: np.ndarray, n: int) -> int:
    """Index of the first line of ``body`` (uint8, ending in a newline) that
    is not a row of ``n`` outcomes."""
    ends = np.flatnonzero(body == ord("\n")) + 1
    starts = np.concatenate(([0], ends[:-1]))
    ok = ends - starts == 2 * n
    fit = np.flatnonzero(ok)
    if fit.size:  # else 2N may exceed the file, and no row needs its bytes checked
        rows = body[starts[fit, None] + np.arange(2 * n)].view("<u2")
        ok[fit] = _row_digits(rows).max(axis=1) <= 3
    return int(np.argmin(ok))


def read_batch(path) -> OutcomeBatch:
    """The outcome batch in a file: a header line, then S rows of N outcomes,
    each written ``d,d,...,d`` with d a digit 0-3 and ended by a newline, which
    the last row may omit. Blank lines before the header and after the last
    row are skipped; ``read_bytes`` reads a ``\\r\\n`` line ending as ``\\n``.
    The file's bytes are read once; the header line is decoded alone, and the
    rows are checked and decoded as one array over the bytes."""
    data = read_bytes(path, "batch file")
    start = blank = 0  # the line's first byte, and the blank lines before it
    while True:
        end = data.find(b"\n", start)
        header = data[start : len(data) if end < 0 else end].decode().lstrip()
        if header:
            break
        if end < 0:
            raise ValidationError("empty batch file")
        start, blank = end + 1, blank + 1
    m = _HEADER_RE.match(header)
    if not m:
        raise ValidationError(f"malformed batch header: {header!r}")
    n = int(m.group("n"))
    s = int(m.group("s"))
    offset = len(data) if end < 0 else end + 1
    stop = len(data)
    while stop > offset and data[stop - 1] == ord("\n"):
        stop -= 1
    if stop == len(data):
        data += b"\n"
    body = np.frombuffer(data, np.uint8, count=stop + 1 - offset, offset=offset)
    # S rows of N outcomes take exactly 2SN bytes; the size is checked before
    # anything is allocated for the S rows
    if body.size == 2 * s * n:
        digits = _row_digits(body.view("<u2").reshape(s, n))
        if digits.max() <= 3:
            povm = m.group("povm")
            labels = tuple(povm.split("|")) if "|" in povm else (povm,) * n
            return OutcomeBatch(digits, labels, int(m.group("seed")), m.group("source") or "")
    num_rows = data.count(b"\n", offset, stop) + (stop > offset)
    if num_rows != s:
        raise ValidationError(f"header says S={s} but file has {num_rows} rows")
    if s == 0:
        raise ValidationError("batch file has no outcome rows")
    if n == 0:
        raise ValidationError("header says N=0, but a row needs at least one outcome")
    bad = _first_bad_row(body, n)
    # every row before the bad one is 2N bytes long
    row_start = offset + 2 * n * bad
    row = data[row_start : data.find(b"\n", row_start)].decode(errors="replace")
    if len(row) > 40:
        row = row[:40] + "..."
    line = blank + 2 + bad
    raise ValidationError(
        f"malformed outcome row on line {line}: {row!r} (want N={n} digits 0-3 as d,d,...,d)"
    )


# ---------------------------------------------------------------------------
# state-prep files


def load_state_prep(path_or_payload, num_qubits: int | None = None) -> MapCircuit:
    """The state-preparation circuit in a file or payload, one component per step.

    The payload is a JSON list of steps ``{"qubits": [...], "map": <preset or
    payload>}``, or an object with an optional ``"num_qubits"`` and a
    ``"steps"`` or ``"components"`` list of them. A step is a circuit file's
    component, so a circuit file loads as the same circuit. The register is
    the payload's ``num_qubits``, else ``num_qubits``, else the largest
    qubit + 1; a ``num_qubits`` that differs from the payload's raises.
    """
    if isinstance(path_or_payload, (str, Path)):
        payload = parse_json(read_text(path_or_payload, "state-prep file"), "state-prep file")
    else:
        payload = path_or_payload
    if isinstance(payload, dict):
        if "num_qubits" in payload:
            own = json_int(payload["num_qubits"], "state-prep num_qubits")
            if num_qubits is not None and num_qubits != own:
                raise ValidationError(
                    f"state-prep file says num_qubits={own}, but N={num_qubits} was given"
                )
            num_qubits = own
        payload = payload.get("steps", payload.get("components"))
    if not isinstance(payload, list):
        raise ValidationError("state-prep payload must be a JSON list of steps")
    steps = [component_from_dict(entry) for entry in payload]
    if num_qubits is None:
        num_qubits = max((q + 1 for c in steps for q in c.qubits), default=0)
    return MapCircuit(num_qubits, tuple(steps))


def _from_zero(circuit: MapCircuit) -> DensityMatrix:
    """|0...0><0...0| run through ``circuit``."""
    n = circuit.num_qubits
    return DensityMatrix(n, apply_circuit_dense(circuit, computational_zero(n).matrix))


def build_state(path_or_payload, num_qubits: int | None = None) -> DensityMatrix:
    """|0...0><0...0| run through the circuit of :func:`load_state_prep`."""
    return _from_zero(load_state_prep(path_or_payload, num_qubits))


def noisy_chain_state(num_qubits: int, theta: float = 0.05, p: float = 1e-3) -> DensityMatrix:
    """|0...0> run through a chain of noisy CNOTs (0,1),(1,2),...,(N-2,N-1)."""
    gate = noisy_cnot(theta, p)
    chain = (Component((i, i + 1), gate) for i in range(num_qubits - 1))
    return _from_zero(MapCircuit(num_qubits, tuple(chain)))


def _dense_hamiltonian(obs: Observable) -> np.ndarray:
    if obs.num_qubits > EXACT_DIAG_LIMIT:
        raise ValidationError(f"exact diagonalization limited to N <= {EXACT_DIAG_LIMIT}")
    if not obs.is_hermitian:
        raise ValidationError("observable is not Hermitian")
    return obs.matrix()


def exact_ground_energy(obs: Observable) -> tuple[float, np.ndarray]:
    """Ground energy and ground state of a Hermitian observable, densely."""
    vals, vecs = np.linalg.eigh(_dense_hamiltonian(obs))
    return float(vals[0]), vecs[:, 0]


def exact_ground_value(obs: Observable) -> float:
    """Ground energy alone of a Hermitian observable, densely (no eigenvectors)."""
    return float(np.linalg.eigvalsh(_dense_hamiltonian(obs))[0])
