"""Observable averages under a virtual map circuit, from measured outcomes.

Each recorded outcome string m contributes a shot weight

    w_m = Re sum_k c_k Tr[L(D_{m_0} (x) ... (x) D_{m_{N-1}}) P_k].

Identical outcome strings (at most 4^N) are collapsed first by the one row
index, :func:`~virtualmap.linalg.unique_rows`, and the estimate is the
frequency-weighted sample mean with the unbiased sample variance; the mean is
:func:`circuit_energy`'s sum over the same rows, and the reduction order is
fixed by sorting, so results are deterministic for a given batch. A batch is
deduplicated once per command: :func:`estimate_all` checks every (circuit,
observable) pair, collapses the batch and builds its dual tables once, and
evaluates every pair on those rows, which gather their per-qubit traces once
for all pairs; :func:`estimate` is that pass for one pair. Every estimate of
a pass keeps its row values and the pass's row weights w_i, so the
covariance of any two of them is sum_i w_i a_i b_i less the product of their
means (:func:`estimate_covariance`), with no per-shot array.

The weights of all rows are computed together by one call of the batched
cone kernel (:func:`virtualmap.cone.evaluate_rows`), which takes the rows
and the observable and returns the coefficient-weighted sum per row. It
contracts one support group of Pauli terms at a time
(:func:`virtualmap.cone.term_groups`): each group is one backward
contraction of the light cone of its support from its terms, pruned exactly
as :mod:`virtualmap.cone` describes, traced out either against each row's
own dual operators or, when it makes fewer residual entries, against all of
them into an outcome table that the rows look up, so a large batch costs
little more than a small one.
The dual frame of each preset POVM label is built once per process and
shared read-only.

The kernel's input, :class:`ProductInputData`, is the one product-row format
of the package: per-qubit (M_q, 2, 2) factor tables, an (R, N) integer row
array choosing one factor per qubit, and a weight per row. It is built here
from a measured batch (:func:`data_from_batch`), from the exact outcome
distribution (:func:`data_from_distribution`), and for the classical
all-zeros register (:func:`classical_input`); the variational sweep consumes
the same rows, and rows reach the kernel only in it, range-checked,
:func:`shot_weight`'s one outcome too. :func:`circuit_energy` is the one
exact energy, of such rows or of a dense state (Re Tr[L(rho) H], H the
observable's matrix); :func:`estimate_exact` and the sweep both call it.

Energies and objectives are linear in the rows, so they need only the
empirical dual operator sum_i w_i (x)_q D_{m_iq}. :func:`collapse` builds it
as a :class:`~virtualmap.densesim.DensityMatrix` (N <= 10). A sweep
collapses a large batch once before its first visit, by the rule of
:mod:`virtualmap.varopt`, and :func:`estimate_exact` contracts the enumerated
outcome distribution, 4^N probabilities, with the dual tables in the same
way, without forming its rows. :func:`circuit_energy`
takes rows as they are given, and :func:`estimate` never collapses, because
its error bar needs the weight of every row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .cone import MapCircuit, evaluate_rows
from .densesim import (
    DensityMatrix,
    OutcomeBatch,
    _dense_dim,
    apply_circuit_dense,
    outcome_distribution,
)
from .errors import NumericalError, ValidationError
from .linalg import trace_mul, unique_rows
from .pauli import Observable
from .povm import DualFrame, SingleQubitPOVM, compute_duals, get_povm

_RESIDUE_TOL = 1e-8


@dataclass
class Estimate:
    """A mean/uncertainty pair, with the distinct rows of the pass it came from.

    ``row_values`` holds the real shot weight of each distinct row and
    ``row_weights`` the rows' frequencies, the one array that every estimate
    of an :func:`estimate_all` pass shares; :func:`estimate_covariance` takes
    two estimates only when they share it. Estimates compare and print by
    their numbers alone.
    """

    value: float
    sigma: float
    num_shots: int
    imag_residue: float
    row_values: np.ndarray | None = field(default=None, compare=False, repr=False)
    row_weights: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.value) and np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValidationError("estimate value/sigma out of range")
        if (self.row_values is None) != (self.row_weights is None):
            raise ValidationError("row values and row weights come together")
        if self.row_values is not None:
            if np.shape(self.row_values) != np.shape(self.row_weights):
                raise ValidationError("row values do not match the row weights")
            if not np.all(np.isfinite(self.row_values)):
                raise ValidationError("row values must be finite")


@lru_cache(maxsize=None)
def _preset_duals(label: str) -> np.ndarray:
    """The canonical dual frame of a preset POVM label, built once per
    process; read-only, since every caller shares it."""
    arr = np.array(compute_duals(get_povm(label)).duals, dtype=complex)
    arr.setflags(write=False)
    return arr


def dual_arrays(duals, num_qubits: int) -> list[np.ndarray]:
    """Normalize a duals argument to one (M, 2, 2) array per qubit.

    A preset label maps to its shared, read-only dual array; custom POVMs
    and dual frames are converted on every call."""
    if isinstance(duals, (str, SingleQubitPOVM, DualFrame)):
        duals = [duals] * num_qubits
    duals = list(duals)
    if len(duals) != num_qubits:
        raise ValidationError(f"need {num_qubits} dual frames, got {len(duals)}")
    out = []
    for d in duals:
        if isinstance(d, str):
            d = _preset_duals(d)
        elif isinstance(d, SingleQubitPOVM):
            d = compute_duals(d)
        arr = np.asarray(d.duals if isinstance(d, DualFrame) else d, dtype=complex)
        if arr.ndim != 3 or arr.shape[1:] != (2, 2):
            raise ValidationError(
                f"dual frame must have shape (M, 2, 2), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("dual frame entries must be finite")
        out.append(arr)
    return out


@dataclass
class ProductInputData:
    """Weighted product rows: row i is the tensor product over qubits q of
    ``tables[q][rows[i, q]]``, with weight ``weights[i]``. Rows are stored
    as ``np.intp`` once their range is checked."""

    weights: np.ndarray  # (R,)
    tables: list[np.ndarray]  # N arrays of shape (M_q, 2, 2)
    rows: np.ndarray  # (R, N) integers

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.rows = np.asarray(self.rows)
        self.tables = [np.asarray(t, dtype=complex) for t in self.tables]
        if self.weights.ndim != 1:
            raise ValidationError(f"weights must be (R,), got {self.weights.shape}")
        if (
            self.rows.dtype.kind not in "iu"
            or self.rows.ndim != 2
            or len(self.rows) != len(self.weights)
        ):
            raise ValidationError(
                f"rows must be integers of shape ({len(self.weights)}, N), "
                f"got {self.rows.dtype} {self.rows.shape}"
            )
        if len(self.tables) != self.num_qubits:
            raise ValidationError(
                f"need {self.num_qubits} factor tables, got {len(self.tables)}"
            )
        if not np.isfinite(self.weights.sum()):
            raise ValidationError("row weights must be finite")
        # checked before the cast, so a huge unsigned entry is refused, not wrapped
        low = self.rows.min(axis=0, initial=0).tolist()
        high = self.rows.max(axis=0).tolist() if len(self.rows) else [-1] * self.num_qubits
        for q, t in enumerate(self.tables):
            if t.ndim != 3 or t.shape[1:] != (2, 2):
                raise ValidationError(f"factor table {q} must be (M, 2, 2), got {t.shape}")
            if not np.isfinite(t.sum()):
                raise ValidationError(f"factor table {q} has non-finite entries")
            if low[q] < 0 or high[q] >= len(t):
                bad = low[q] if low[q] < 0 else high[q]
                raise ValidationError(f"outcome {bad} out of range for qubit {q}")
        self.rows = self.rows.astype(np.intp, copy=False)

    @property
    def num_qubits(self) -> int:
        return self.rows.shape[1]

    @cached_property
    def traces(self) -> np.ndarray:
        """Tr of every row's factor on every qubit, an (N, R) complex array
        (row q: qubit q), gathered once and shared by every contraction of
        these rows."""
        return np.array([np.trace(t, axis1=1, axis2=2)[self.rows[:, q]] for q, t in enumerate(self.tables)])


def data_from_batch(batch: OutcomeBatch, duals) -> ProductInputData:
    """Collapse a measurement batch to its distinct outcome rows, weighted by
    their frequencies, over the dual frames ``duals``."""
    uniq, _, counts = unique_rows(batch.outcomes, return_inverse=False)
    return ProductInputData(counts / batch.num_shots, dual_arrays(duals, batch.num_qubits), uniq)


def _distribution(rho: DensityMatrix, povms, duals):
    """The outcome probabilities of ``povms`` on ``rho`` (N <= 10, the dense
    limit), and the tables of ``duals`` (by default the canonical duals of
    ``povms``)."""
    _dense_dim(rho.num_qubits)
    p = outcome_distribution(rho, povms)
    tables = dual_arrays(povms if duals is None else duals, rho.num_qubits)
    if any(t.shape[0] != m for t, m in zip(tables, p.shape)):
        raise ValidationError("dual frames and POVMs differ in outcome counts")
    return p, tables


def data_from_distribution(rho: DensityMatrix, povms, duals=None) -> ProductInputData:
    """The exact outcome distribution of ``povms`` on ``rho`` (N <= 10) as
    product rows: every outcome string of nonzero probability, qubit 0 most
    significant, over ``duals`` (by default the canonical duals of ``povms``)."""
    p, tables = _distribution(rho, povms, duals)
    rows = np.argwhere(p != 0.0)
    return ProductInputData(p[tuple(rows.T)], tables, rows)


def classical_input(num_qubits: int) -> ProductInputData:
    """The all-zeros register |0...0><0...0| as a single product row."""
    zero = np.array([[[1.0, 0.0], [0.0, 0.0]]], dtype=complex)
    return ProductInputData(
        np.ones(1), [zero] * num_qubits, np.zeros((1, num_qubits), dtype=int)
    )


def collapse(data: ProductInputData) -> DensityMatrix:
    """The empirical dual operator sum_i w_i (x)_q tables[q][rows[i, q]] as a
    dense 2^N operator (N <= 10): :func:`_dual_operator` of the rows' weighted
    ``bincount``, a tensor of prod M_q entries (4^N for four outcomes)."""
    _dense_dim(data.num_qubits)
    dims = tuple(len(t) for t in data.tables)
    flat = np.ravel_multi_index(tuple(data.rows.T), dims)
    counts = np.bincount(flat, data.weights, minlength=int(np.prod(dims))).reshape(dims)
    return _dual_operator(counts, data.tables)


def _dual_operator(weights: np.ndarray, tables) -> DensityMatrix:
    """sum_m weights[m] (x)_q tables[q][m_q] for an (M_0, ..., M_{N-1})
    weight tensor: one ``tensordot`` per qubit with its table."""
    n = len(tables)
    t = weights
    for table in tables:  # axis 0 is always the next qubit's outcome
        t = np.tensordot(t, table, axes=(0, 0))
    # axes (row_0, col_0, ..., row_{N-1}, col_{N-1}), qubit 0 most significant
    t = t.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
    return DensityMatrix(n, t.reshape(2**n, 2**n))


def _real_weights(w: np.ndarray) -> tuple[np.ndarray, float]:
    """Real parts of complex shot weights, and their largest imaginary residue."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    residue = np.abs(w.imag)
    bad = residue > _RESIDUE_TOL * (1.0 + np.abs(w.real))
    if np.any(bad):
        raise NumericalError(
            f"shot weight has imaginary residue {residue[bad].max():.3e}; "
            "observable or circuit is not Hermiticity compatible"
        )
    return w.real.copy(), float(residue.max(initial=0.0))


def circuit_energy(circuit: MapCircuit, data, obs: Observable) -> float:
    """The exact energy Re sum_k c_k Tr[L(input) P_k]: sum_i w_i times it over
    the weighted rows of :class:`ProductInputData`, or Re Tr[L(rho) H] on a
    :class:`DensityMatrix` (N <= 10), H being the observable's matrix."""
    if data.num_qubits != circuit.num_qubits or obs.num_qubits != circuit.num_qubits:
        raise ValidationError("data, circuit, and observable qubit counts differ")
    if not obs.is_hermitian:
        raise ValidationError("circuit energies need a Hermitian observable")
    if isinstance(data, DensityMatrix):
        out = apply_circuit_dense(circuit, data.matrix)
        reals, _ = _real_weights(trace_mul(out, obs.matrix()))
        return float(reals[0])
    reals, _ = _real_weights(evaluate_rows(circuit, data, obs))
    return float(np.dot(data.weights, reals))


def shot_weight(outcome, duals, circuit: MapCircuit, obs: Observable) -> float:
    """Weight of a single outcome string, a row of :class:`ProductInputData`."""
    if not obs.is_hermitian:
        raise ValidationError("shot weights need a Hermitian observable")
    row = np.asarray(outcome).reshape(1, -1)
    if row.shape[1] != circuit.num_qubits:
        raise ValidationError(
            f"outcome covers {row.shape[1]} qubits, circuit has {circuit.num_qubits}"
        )
    data = ProductInputData(np.ones(1), dual_arrays(duals, circuit.num_qubits), row)
    reals, _ = _real_weights(evaluate_rows(circuit, data, obs))
    return float(reals[0])


def _check_pair(batch: OutcomeBatch, circuit: MapCircuit, obs: Observable) -> None:
    if not obs.is_hermitian:
        raise ValidationError("estimation needs a Hermitian observable")
    if batch.num_shots < 2:
        raise ValidationError("the variance estimator needs at least two shots")
    if batch.num_qubits != circuit.num_qubits or obs.num_qubits != circuit.num_qubits:
        raise ValidationError("batch, circuit, and observable qubit counts differ")


def estimate_all(batch: OutcomeBatch, duals, circuits, observables) -> list[list[Estimate]]:
    """The :func:`estimate` of every (circuit, observable) pair from one pass
    over the batch: ``result[i][j]`` is that of ``circuits[i]`` and
    ``observables[j]``.

    Every pair is checked before any work. The batch is then deduplicated
    once and its dual tables built once (the :func:`data_from_batch` rows),
    and every pair's shot weights are one :func:`~virtualmap.cone.evaluate_rows`
    on those rows, which share their per-qubit traces. Each estimate keeps
    its row values and the pass's one read-only array of row weights, so
    any two of the grid can be covaried (:func:`estimate_covariance`)."""
    circuits, observables = list(circuits), list(observables)
    for circuit in circuits:
        for obs in observables:
            _check_pair(batch, circuit, obs)
    s = batch.num_shots
    data = data_from_batch(batch, duals)
    data.weights.setflags(write=False)
    grid = []
    for circuit in circuits:
        row = []
        for obs in observables:
            reals, residue = _real_weights(evaluate_rows(circuit, data, obs))
            value = float(np.dot(data.weights, reals))
            second = float(np.dot(data.weights, reals**2))
            var_unbiased = max(second - value**2, 0.0) * s / (s - 1)
            reals.setflags(write=False)
            row.append(
                Estimate(value, float(np.sqrt(var_unbiased / s)), s, residue, reals, data.weights)
            )
        grid.append(row)
    return grid


def estimate(batch: OutcomeBatch, duals, circuit: MapCircuit, obs: Observable) -> Estimate:
    """Mean shot weight with its standard error, from a measurement batch:
    :func:`estimate_all` of the one pair."""
    return estimate_all(batch, duals, [circuit], [obs])[0][0]


def estimate_exact(
    rho: DensityMatrix,
    povms,
    circuit: MapCircuit,
    obs: Observable,
    duals=None,
) -> float:
    """Infinite-shot limit sum_m p_m w_m of the estimator.

    The weights are linear in the duals, so this is :func:`circuit_energy`
    on sum_m p_m (x)_q D_{m_q}: rho itself by the dual-frame identity, or,
    with explicit ``duals`` (a frame that need not be dual to ``povms``), the
    enumerated outcome distribution (N <= 10) contracted with the dual tables
    by :func:`_dual_operator`.
    """
    if rho.num_qubits != circuit.num_qubits or obs.num_qubits != circuit.num_qubits:
        raise ValidationError("state, circuit, and observable qubit counts differ")
    if not obs.is_hermitian:
        raise ValidationError("exact estimation needs a Hermitian observable")
    data = rho if duals is None else _dual_operator(*_distribution(rho, povms, duals))
    return circuit_energy(circuit, data, obs)


def estimate_covariance(a: Estimate, b: Estimate) -> float:
    """Covariance of two estimates of one :func:`estimate_all` pass, from the
    rows they share: the unbiased sample covariance of the shot weights,
    (sum_i w_i a_i b_i - a b) S/(S-1), over S, as ``sigma`` is the variance's.
    Estimates of two passes, even over one batch, are refused."""
    if a.row_weights is None or a.row_weights is not b.row_weights:
        raise ValidationError("estimates do not come from the same estimate_all pass")
    s = a.num_shots
    cross = float(np.dot(a.row_weights, a.row_values * b.row_values))
    return (cross - a.value * b.value) * s / (s - 1) / s
