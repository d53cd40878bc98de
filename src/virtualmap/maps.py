"""Representations and algebra of k-local linear maps on qubit registers.

A map is stored as its superoperator in the column-stacking convention
(``vec(X)[j*d + i] = X[i, j]``): for Kraus operators {K}, the superoperator is
``sum_K conj(K) (x) K`` and ``vec(L(X)) = S vec(X)``.

The Choi matrix uses the input (x) output ordering,
``C = sum_ab |a><b| (x) L(|a><b|)``, so that

* trace preservation  <=>  Tr_out C = I_in  (Tr C = 2^k),
* complete positivity <=>  C >= 0,
* Hermiticity preservation <=> C = C^dagger,
* Tr[L(A) B] = Tr[C (A^T (x) B)].

Conversion between the two representations is the same axis permutation in
both directions (an involution).

Adjoints are taken with respect to the Hilbert-Schmidt inner product: the
adjoint's superoperator is the conjugate transpose. ``Tr[L(A) B] = Tr[A
Ldag(B)]`` for all A, B exactly when the map is Hermiticity preserving, which
covers every map this package feeds into estimation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError, complex_json, json_complex
from .linalg import herm, unvec, vec

_FLAG_TOL = 1e-10
_COND_LIMIT = 1e10


class MapFlags(NamedTuple):
    cp: bool
    tp: bool
    hermiticity_preserving: bool


def _arity_of(dim2: int) -> int:
    # dim2 = 4**k for a k-qubit map
    k = round(np.log2(dim2) / 2)
    if 4**k != dim2:
        raise ValidationError(f"superoperator dimension {dim2} is not 4**k")
    return k


@dataclass(eq=False)
class LocalMap:
    """A linear map on k qubits, held as a (4^k, 4^k) superoperator.

    Treat instances as immutable; CP/TP/Hermiticity flags and the
    trace-preservation residual are cached on first query.
    """

    superop: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.superop, dtype=complex)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValidationError(f"superoperator must be square, got {s.shape}")
        _arity_of(s.shape[0])
        if not np.all(np.isfinite(s)):
            raise ValidationError("superoperator entries must be finite")
        self.superop = s

    @property
    def arity(self) -> int:
        return _arity_of(self.superop.shape[0])

    @property
    def dim(self) -> int:
        return 2**self.arity

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the map to a k-qubit operator."""
        return unvec(self.superop @ vec(x), self.dim)

    @cached_property
    def tp_residual(self) -> float:
        """max |vec(I)^T S - vec(I)^T| (= max |Tr_out C - I|), the one TP
        number; callers compare it with their own tolerance."""
        d = self.dim
        row = self.superop.reshape(d, d, d * d).trace(axis1=0, axis2=1)  # vec(I)^T S
        return float(np.max(np.abs(row - np.eye(d).reshape(-1))))

    @cached_property
    def _flags(self) -> MapFlags:
        c = superop_to_choi(self).matrix
        hp = bool(np.max(np.abs(c - c.conj().T)) <= _FLAG_TOL)
        cp = bool(np.linalg.eigvalsh(herm(c)).min() >= -_FLAG_TOL) and hp
        return MapFlags(cp, self.tp_residual <= _FLAG_TOL, hp)

    def flags(self) -> MapFlags:
        return self._flags


@dataclass(eq=False)
class ChoiMatrix:
    """Choi matrix of a k-qubit map, input (x) output index ordering."""

    matrix: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.matrix, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValidationError(f"Choi matrix must be square, got {c.shape}")
        _arity_of(c.shape[0])
        self.matrix = c

    @property
    def arity(self) -> int:
        return _arity_of(self.matrix.shape[0])

    @property
    def dim(self) -> int:
        return 2**self.arity


def _swap_inout(mat: np.ndarray) -> np.ndarray:
    d2 = mat.shape[0]
    d = round(d2**0.5)
    return mat.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d2, d2)


def superop_to_choi(m: LocalMap) -> ChoiMatrix:
    return ChoiMatrix(_swap_inout(m.superop))


def choi_to_superop(c: ChoiMatrix) -> LocalMap:
    return LocalMap(_swap_inout(c.matrix))


def choi_marginal(c: np.ndarray, d: int) -> np.ndarray:
    """Tr_out C of a (d^2, d^2) matrix in input (x) output order: the input
    marginal, which is I exactly when the map is trace preserving."""
    return c.reshape(d, d, d, d).trace(axis1=1, axis2=3)


def invert_map(m: LocalMap) -> LocalMap:
    cond = np.linalg.cond(m.superop)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise NumericalError(
            f"superoperator is too ill-conditioned to invert (cond ~ {cond:.3e})"
        )
    return LocalMap(np.linalg.inv(m.superop))


def compose(maps) -> LocalMap:
    """Compose maps on the same qubits; list order is application order."""
    maps = list(maps)
    if not maps:
        raise ValidationError("compose needs at least one map")
    arity = maps[0].arity
    if any(m.arity != arity for m in maps):
        raise ValidationError("compose requires equal arities")
    s = maps[0].superop
    for m in maps[1:]:
        s = m.superop @ s
    return LocalMap(s)


def tensor_maps(a: LocalMap, b: LocalMap) -> LocalMap:
    """Tensor product map a (x) b (a on the leading qubits)."""
    da, db = a.dim, b.dim
    sa = a.superop.reshape(da, da, da, da)
    sb = b.superop.reshape(db, db, db, db)
    # superop axes are (col_out, row_out, col_in, row_in); interleave registers
    s = np.einsum("CARB,cars->CcAaRrBs", sa, sb)
    d = da * db
    return LocalMap(s.reshape(d * d, d * d))


# ---------------------------------------------------------------------------
# constructors


def identity_map(arity: int = 1) -> LocalMap:
    return LocalMap(np.eye(4**arity, dtype=complex))


def kraus_map(kraus) -> LocalMap:
    s = None
    for k in kraus:
        k = np.asarray(k, dtype=complex)
        term = np.kron(k.conj(), k)
        s = term if s is None else s + term
    return LocalMap(s)


def unitary_map(u: np.ndarray) -> LocalMap:
    u = np.asarray(u, dtype=complex)
    if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) > 1e-10:
        raise ValidationError("matrix is not unitary")
    return kraus_map([u])


def cnot_unitary() -> np.ndarray:
    """CNOT with the first (leading) qubit as control."""
    return np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )


def cnot_map() -> LocalMap:
    return unitary_map(cnot_unitary())


def depolarizing_map(p: float, arity: int = 1) -> LocalMap:
    """X -> (1-p) X + p Tr[X] I / 2^k."""
    if not 0.0 <= p <= 1.0 + 1e-12:
        raise ValidationError(f"depolarizing strength {p} outside [0, 1]")
    d = 2**arity
    eye = np.eye(d)
    s = (1.0 - p) * np.eye(d * d, dtype=complex) + (p / d) * np.outer(vec(eye), vec(eye))
    return LocalMap(s)


def zreset_map() -> LocalMap:
    """Trace-preserving reset to |0><0|."""
    ket0 = np.array([[1.0], [0.0]], dtype=complex)
    return kraus_map([ket0 @ np.array([[1.0, 0.0]]), ket0 @ np.array([[0.0, 1.0]])])


def rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]])


def rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-1j * theta / 2.0), np.exp(1j * theta / 2.0)])


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_unitary_map(arity: int, rng: np.random.Generator) -> LocalMap:
    return unitary_map(haar_unitary(2**arity, rng))


def random_cptp_map(arity: int, rng: np.random.Generator) -> LocalMap:
    """Sample a CPTP map from the Ginibre-Choi ensemble.

    W = G G^dag for a complex Gaussian G, normalized on the input marginal so
    that Tr_out C = I.
    """
    d = 2**arity
    g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    w = g @ g.conj().T
    x = choi_marginal(w, d)
    vals, vecs = np.linalg.eigh(x)
    if vals.min() <= 1e-12:
        # rank-deficient draw; retry with fresh randomness
        return random_cptp_map(arity, rng)
    inv_sqrt = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    c = np.kron(inv_sqrt, np.eye(d)) @ w @ np.kron(inv_sqrt, np.eye(d))
    return choi_to_superop(ChoiMatrix(herm(c)))


def random_tp_hermitian_map(arity: int, rng: np.random.Generator) -> LocalMap:
    """A trace-preserving, Hermiticity-preserving, generically non-CP map."""
    d = 2**arity
    g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    c = herm(g) / np.sqrt(d)
    c = c + np.kron((np.eye(d) - choi_marginal(c, d)) / d, np.eye(d))
    return choi_to_superop(ChoiMatrix(c))


def noisy_cnot(theta: float = 0.05, p: float = 1e-3) -> LocalMap:
    """CNOT conjugation followed by two-qubit depolarizing noise and a small
    coherent Rx(theta) Rz(theta) over-rotation on each qubit."""
    rot = rx(theta) @ rz(theta)
    return compose([cnot_map(), depolarizing_map(p, arity=2), unitary_map(np.kron(rot, rot))])


# ---------------------------------------------------------------------------
# map payloads and presets (circuit-file interchange)

_PRESET_ARG_SPEC = {
    "identity": (),
    "cnot": (),
    "zreset": (),
    "depolarizing": ("p",),
    "noisy_cnot": ("theta", "p"),
    "random_unitary": ("seed",),
    "random_cptp": ("seed",),
}


def _parse_preset(text: str) -> tuple[str, dict]:
    text = text.strip()
    if "(" not in text:
        name, raw_args = text, ""
    else:
        if not text.endswith(")"):
            raise ValidationError(f"malformed map preset {text!r}")
        name, raw_args = text[: text.index("(")], text[text.index("(") + 1 : -1]
    name = name.strip()
    if name not in _PRESET_ARG_SPEC:
        raise ValidationError(
            f"unknown map preset {name!r}; available: {sorted(_PRESET_ARG_SPEC)}"
        )
    names = _PRESET_ARG_SPEC[name]
    kwargs: dict = {}
    pieces = [p.strip() for p in raw_args.split(",") if p.strip()]
    for i, piece in enumerate(pieces):
        if "=" in piece:
            key, val = (x.strip() for x in piece.split("=", 1))
        else:
            if i >= len(names):
                raise ValidationError(f"too many arguments in preset {text!r}")
            key, val = names[i], piece
        if key not in names:
            raise ValidationError(f"unknown argument {key!r} in preset {text!r}")
        try:
            kwargs[key] = int(val) if key == "seed" else float(val)
        except ValueError as exc:
            raise ValidationError(f"bad argument {piece!r} in preset {text!r}") from exc
        if key == "seed" and kwargs[key] < 0:
            raise ValidationError(f"seed must be non-negative in preset {text!r}")
    return name, kwargs


# A preset is one word of a file, but at arity k it holds a 4^k x 4^k
# complex superoperator: 17 MB at k = 5, 268 MB at k = 6. Wider presets are
# refused.
MAX_PRESET_ARITY = 5


def map_from_spec(spec, arity: int) -> LocalMap:
    """Resolve a circuit-file map entry: a preset string or a matrix payload."""
    if isinstance(spec, LocalMap):
        return spec
    if isinstance(spec, dict):
        return map_from_payload(spec, arity)
    name, kw = _parse_preset(str(spec))
    if arity > MAX_PRESET_ARITY:
        raise ValidationError(
            f"map presets act on at most {MAX_PRESET_ARITY} qubits, got {arity}"
        )
    if name == "identity":
        return identity_map(arity)
    if name == "cnot":
        if arity != 2:
            raise ValidationError("cnot preset needs exactly two qubits")
        return cnot_map()
    if name == "zreset":
        if arity != 1:
            raise ValidationError("zreset preset acts on one qubit")
        return zreset_map()
    if name == "depolarizing":
        return depolarizing_map(kw.get("p", 1e-3), arity)
    if name == "noisy_cnot":
        if arity != 2:
            raise ValidationError("noisy_cnot preset needs exactly two qubits")
        return noisy_cnot(kw.get("theta", 0.05), kw.get("p", 1e-3))
    rng = np.random.default_rng(kw.get("seed", 0))
    if name == "random_unitary":
        return random_unitary_map(arity, rng)
    return random_cptp_map(arity, rng)


def map_to_payload(m: LocalMap) -> dict:
    return {"convention": "col-vec", "superop": complex_json(m.superop)}


def map_from_payload(payload: dict, arity: int) -> LocalMap:
    if payload.get("convention") != "col-vec":
        raise ValidationError(
            f"map payload must declare convention 'col-vec', got {payload.get('convention')!r}"
        )
    s = json_complex(payload.get("superop"), 2, "superoperator payload")
    if s.shape != (4**arity, 4**arity):
        raise ValidationError(
            f"superoperator shape {s.shape} does not match {arity} qubit(s)"
        )
    return LocalMap(s)
