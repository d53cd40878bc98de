"""Variational minimization of circuit energies over CPTP component maps.

The energy of a map circuit against a Hermitian observable is linear in each
component map separately. Freezing all components but one therefore reduces
the problem to

    minimize  Re Tr[C M]   over Choi matrices C >= 0 with Tr_out C = I,

where M is assembled from the frozen remainder of the circuit (via the
split-evaluation residuals of every row and Pauli term, contracted in one
batch) and the input data. The subproblem is solved by consensus ADMM between
the positive cone and the trace-preserving affine slice (``SdpOptions``
method "splitting"; projected subgradient descent is kept as a reference),
and a sweep visits components cyclically, installing a new map only when it
lowers the energy. Input data is either a weighted product ensemble (dual
effects of measured outcomes, or a classical all-zeros register) or a dense
state for exact-distribution optimization at small qubit counts.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np

from .cone import MapCircuit, row_chunks, split_plan, split_residuals
from .densesim import DensityMatrix, OutcomeBatch, apply_local_map, outcome_distribution
from .errors import NumericalError, ValidationError
from .estimation import _real_weights, dual_arrays, row_weights
from .linalg import apply_superop_local, herm, trace_mul
from .maps import (
    ChoiMatrix,
    adjoint_map,
    choi_to_superop,
    compose,
    identity_map,
    random_cptp_map,
    random_unitary_map,
    superop_to_choi,
    tensor_maps,
    zreset_map,
)
from .pauli import Observable, expectation_oracle


# ---------------------------------------------------------------------------
# Input data
# ---------------------------------------------------------------------------


@dataclass
class ProductInputData:
    """Weighted ensemble of per-qubit input factors (rows of dual effects)."""

    weights: np.ndarray  # (R,)
    factors: np.ndarray  # (R, N, 2, 2)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.factors = np.asarray(self.factors, dtype=complex)
        if self.weights.ndim != 1 or self.factors.ndim != 4:
            raise ValidationError("weights must be (R,) and factors (R, N, 2, 2)")
        if self.factors.shape[0] != self.weights.shape[0]:
            raise ValidationError("weights and factors disagree on row count")
        if self.factors.shape[2:] != (2, 2):
            raise ValidationError("factors must be 2x2 per qubit")

    @property
    def num_qubits(self) -> int:
        return self.factors.shape[1]


@dataclass
class DenseStateData:
    """Exact input state; optimizes the infinite-shot energy directly."""

    rho: DensityMatrix

    @property
    def num_qubits(self) -> int:
        return self.rho.num_qubits


def data_from_batch(batch: OutcomeBatch, duals) -> ProductInputData:
    """Collapse a measurement batch to weighted dual-effect product rows."""
    arrays = dual_arrays(duals, batch.num_qubits)
    uniq, counts = np.unique(batch.outcomes, axis=0, return_counts=True)
    factors = np.empty((len(uniq), batch.num_qubits, 2, 2), dtype=complex)
    for q in range(batch.num_qubits):
        factors[:, q] = arrays[q][uniq[:, q]]
    return ProductInputData(weights=counts / batch.num_shots, factors=factors)


def data_from_distribution(rho: DensityMatrix, povms) -> ProductInputData:
    """Exact outcome distribution as product rows (small N only)."""
    n = rho.num_qubits
    if n > 7:
        raise ValidationError("distribution enumeration limited to N <= 7")
    from .povm import SingleQubitPOVM, compute_duals, get_povm

    if isinstance(povms, (str, SingleQubitPOVM)):
        povms = [povms] * n
    frames = [
        compute_duals(p if isinstance(p, SingleQubitPOVM) else get_povm(p)) for p in povms
    ]
    arrays = [np.asarray(f.duals) for f in frames]
    p = outcome_distribution(rho, [f.povm for f in frames]).reshape(-1)
    sizes = [a.shape[0] for a in arrays]
    keep = np.flatnonzero(p > 0.0)
    factors = np.empty((keep.size, n, 2, 2), dtype=complex)
    for r, flat in enumerate(keep):
        rem = int(flat)
        digits = []
        for q in range(n - 1, -1, -1):
            digits.append(rem % sizes[q])
            rem //= sizes[q]
        for q, m in enumerate(reversed(digits)):
            factors[r, q] = arrays[q][m]
    return ProductInputData(weights=p[keep], factors=factors)


def classical_input(num_qubits: int) -> ProductInputData:
    """The all-zeros register |0...0><0...0| as a single product row."""
    zero = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    factors = np.broadcast_to(zero, (1, num_qubits, 2, 2)).copy()
    return ProductInputData(weights=np.ones(1), factors=factors)


# ---------------------------------------------------------------------------
# Energy and per-component objective assembly
# ---------------------------------------------------------------------------


def circuit_energy(circuit: MapCircuit, data, obs: Observable) -> float:
    """E = sum_i w_i sum_k c_k Tr[L(row_i) P_k] (or the dense equivalent)."""
    if data.num_qubits != circuit.num_qubits or obs.num_qubits != circuit.num_qubits:
        raise ValidationError("data, circuit, and observable qubit counts differ")
    if isinstance(data, DenseStateData):
        n = circuit.num_qubits
        mat = data.rho.matrix
        for comp in circuit.components:
            mat = apply_local_map(DensityMatrix(n, mat), comp.map, comp.qubits).matrix
        reals, _ = _real_weights(expectation_oracle(mat, obs))
        return float(reals[0])
    tables, rows = _factor_tables(data.factors)
    reals, _ = _real_weights(row_weights(circuit, tables, rows, obs))
    return float(np.dot(data.weights, reals))


def _factor_tables(factors: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Split (R, N, 2, 2) product rows into per-qubit tables of distinct
    factors and an (R, N) index array into them."""
    tables, cols = [], []
    for q in range(factors.shape[1]):
        flat = factors[:, q].reshape(len(factors), 4)
        table, inverse = np.unique(flat, axis=0, return_inverse=True)
        tables.append(table.reshape(-1, 2, 2))
        cols.append(inverse.reshape(-1))
    return tables, np.stack(cols, axis=1)


@dataclass
class LocalObjective:
    """Hermitian M with E(circuit with C at component) = Re Tr[C M] + offset.

    The construction absorbs everything into M, so offset is always zero; it
    is kept explicit so the affine form of the energy is part of the API.
    """

    component: int
    arity: int
    matrix: np.ndarray
    offset: float = 0.0

    def value(self, choi: ChoiMatrix | np.ndarray) -> float:
        mat = choi.matrix if isinstance(choi, ChoiMatrix) else choi
        return float(np.real(trace_mul(mat, self.matrix))) + self.offset


def _group_register(op: np.ndarray, n: int, support: tuple[int, ...]) -> np.ndarray:
    """Reorder a full-register operator so `support` qubits come first."""
    spect = [q for q in range(n) if q not in support]
    order = list(support) + spect
    t = op.reshape((2,) * (2 * n))
    perm = order + [n + q for q in order]
    ds, dm = 2 ** len(support), 2 ** len(spect)
    return t.transpose(perm).reshape(ds * dm, ds * dm), ds, dm


def _dense_objective(
    circuit: MapCircuit, index: int, data: DenseStateData, obs: Observable
) -> np.ndarray:
    n = circuit.num_qubits
    comp = circuit.components[index]
    support = comp.qubits
    fwd = data.rho.matrix
    for c in circuit.components[:index]:
        fwd = apply_local_map(DensityMatrix(n, fwd), c.map, c.qubits).matrix
    # Heisenberg-picture operand: the adjoint of a trace-preserving map is
    # unital, not trace-preserving, so its action legitimately changes the
    # trace of an observable and must bypass the state-application checks.
    bwd = obs.matrix()[None]
    for c in reversed(circuit.components[index + 1 :]):
        bwd = apply_superop_local(bwd, adjoint_map(c.map).superop, c.qubits, n)
    ds = 2 ** len(support)
    f4 = _group_register(fwd, n, support)[0]
    dm = f4.shape[0] // ds
    f4 = f4.reshape(ds, dm, ds, dm)
    g4 = _group_register(bwd[0], n, support)[0].reshape(ds, dm, ds, dm)
    # E = sum C[(x,Y),(y,X)] sum_uv F[x,u,y,v] G[X,v,Y,u]  =>  M[(y,X),(x,Y)]
    m4 = np.einsum("xuyv,XvYu->yXxY", f4, g4)
    return m4.reshape(ds * ds, ds * ds)


def _product_objective(
    circuit: MapCircuit, index: int, data: ProductInputData, obs: Observable
) -> np.ndarray:
    """sum_i w_i sum_k c_k sum_a kron(R_a^T, Rbar_a), over every (row, term)
    pair in batches. The spectator-basis sum is folded into the contraction:
    sum_a R_a[x,y] Rbar_a[X,Y] = sum_{w,u} r[x,w,y,u] rbar[X,u,Y,w]."""
    plan = split_plan(circuit, index)
    coeffs = np.array([c for c, _ in obs.terms])
    paulis = np.array([ps.matrices() for _, ps in obs.terms])  # (T, N, 2, 2)
    terms = len(coeffs)
    ds = 2**circuit.components[index].map.arity
    m4 = np.zeros((ds, ds, ds, ds), dtype=complex)
    for chunk in row_chunks(len(data.weights) * terms, plan.peak_active):
        pair = np.arange(chunk.start, chunk.stop)
        row, term = pair // terms, pair % terms
        ins = [data.factors[row, q] for q in range(circuit.num_qubits)]
        outs = [paulis[term, q] for q in range(circuit.num_qubits)]
        r, rbar = split_residuals(circuit, plan, ins, outs)
        weight = data.weights[row] * coeffs[term]
        m4 += np.einsum("b,bxwyu,bXuYw->yXxY", weight, r, rbar, optimize=True)
    return m4.reshape(ds * ds, ds * ds)


def assemble_local_objective(
    circuit: MapCircuit, index: int, data, obs: Observable
) -> LocalObjective:
    """Build the Hermitian matrix M of the single-component energy landscape."""
    if not obs.is_hermitian:
        raise ValidationError("objective assembly needs a Hermitian observable")
    comp = circuit.components[index]
    if isinstance(data, DenseStateData):
        m_raw = _dense_objective(circuit, index, data, obs)
    else:
        m_raw = _product_objective(circuit, index, data, obs)
    return LocalObjective(component=index, arity=comp.map.arity, matrix=herm(m_raw))


# ---------------------------------------------------------------------------
# CPTP-constrained subproblem
# ---------------------------------------------------------------------------


@dataclass
class SdpOptions:
    """First-order settings for the per-component CPTP subproblem.

    method "splitting" (default) runs consensus ADMM with residual-balanced
    penalty updates; each iteration costs one eigensolve plus one closed-form
    affine projection.  It reaches ~1e-10 objective gaps even on the nearly
    degenerate objectives that arise mid-sweep, where plain subgradient steps
    stall at ~1e-4 (which is enough to freeze a coordinate sweep on a shallow
    valley floor).  method "subgradient" keeps the projected-subgradient /
    Dykstra scheme with iterate averaging as a reference implementation.
    """

    method: str = "splitting"  # or "subgradient"
    max_iters: int = 20000
    tol: float = 1e-9  # splitting: residual stop scale; subgradient: stall tol
    feas_tol: float = 1e-9
    # --- subgradient-path knobs ---
    step0: float | None = None  # default 1/||M||_2
    step_schedule: str = "halving"  # step0 * 0.5^epoch (100-iter epochs), or "sqrt"
    patience: int = 300
    # In-loop projection tolerance tracks the step size (errors stay summable
    # under the geometric schedule); dykstra_tol is the loosest it gets.
    dykstra_tol: float = 1e-6
    dykstra_iters: int = 60


_EYE_CACHE: dict[int, np.ndarray] = {}


def _eye(dim: int) -> np.ndarray:
    if dim not in _EYE_CACHE:
        _EYE_CACHE[dim] = np.eye(dim)
    return _EYE_CACHE[dim]


def _tp_project(c: np.ndarray, dim: int) -> np.ndarray:
    c4 = c.reshape(dim, dim, dim, dim)
    marg = np.einsum("arbr->ab", c4)
    delta = (_eye(dim) - marg) / dim
    # c + kron(delta, I) without the kron call overhead
    out = c4 + delta[:, None, :, None] * _eye(dim)[None, :, None, :]
    return out.reshape(dim * dim, dim * dim)


def _psd_project(c: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(c)  # eigh reads one triangle: hermitizes for free
    np.clip(vals, 0.0, None, out=vals)
    return (vecs * vals) @ vecs.conj().T


def project_cptp(c: np.ndarray, dim: int, tol: float = 1e-9, max_iters: int = 200) -> np.ndarray:
    """Dykstra alternating projection onto {C >= 0, Tr_out C = I}.

    The last step re-applies both projections, so the result is exactly
    trace-preserving with a positive-part defect bounded by the convergence
    shift (~tol).
    """
    x = herm(c)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(max_iters):
        y = _psd_project(x + p)
        p = x + p - y
        x_new = _tp_project(y + q, dim)
        q = y + q - x_new
        shift = np.abs(x_new - x).max()
        x = x_new
        if shift < tol:
            break
    return _tp_project(_psd_project(x), dim)


def cptp_residuals(c: np.ndarray, dim: int) -> tuple[float, float]:
    """(most negative eigenvalue clipped to 0, trace-preservation defect)."""
    min_eig = float(np.linalg.eigvalsh(herm(c))[0])
    marg = np.einsum("arbr->ab", c.reshape(dim, dim, dim, dim))
    return max(0.0, -min_eig), float(np.abs(marg - np.eye(dim)).max())


def _solve_splitting(m, dim, norm, options, x0):
    """Consensus ADMM on min <M,C> over TP (affine) and PSD copies of C.

    The x-block prox is the closed-form affine projection of (z - u - M/rho);
    the z-block prox is the eigenvalue clipping.  The penalty rho is rebalanced
    whenever the primal/dual residuals drift apart, which is what keeps the
    nearly degenerate mid-sweep objectives converging.
    """
    z = x0.copy()
    u = np.zeros_like(z)
    rho = norm
    stop = max(1e-11, 1e-2 * options.tol) * (1.0 + norm)
    iters_done = 0
    converged = False
    for t in range(1, options.max_iters + 1):
        x = _tp_project(z - u - m / rho, dim)
        z_new = _psd_project(x + u)
        r_primal = float(np.linalg.norm(x - z_new))
        r_dual = rho * float(np.linalg.norm(z_new - z))
        z = z_new
        u += x - z
        iters_done = t
        if max(r_primal, r_dual) < stop:
            converged = True
            break
        if t % 50 == 0:
            if r_primal > 5.0 * r_dual:
                rho *= 2.0
                u /= 2.0
            elif r_dual > 5.0 * r_primal:
                rho /= 2.0
                u *= 2.0
    return z, iters_done, converged


def _solve_subgradient(m, dim, norm, options, x0):
    """Projected subgradient with Dykstra projections and tail averaging."""
    step0 = options.step0 if options.step0 is not None else 1.0 / norm
    x = x0.copy()

    def value_of(c):
        return float(np.real(trace_mul(c, m)))

    best_val = value_of(x)
    best = x.copy()
    last_gain = 0
    # Tail average: the accumulator restarts whenever t doubles, so at exit it
    # spans roughly the last half of the iterates (early transients excluded).
    avg = np.zeros_like(x)
    avg_count = 0
    avg_restart = 1
    iters_done = 0
    for t in range(1, options.max_iters + 1):
        if options.step_schedule == "sqrt":
            eta = step0 / np.sqrt(t)
        elif options.step_schedule == "halving":
            ratio = 0.5 ** ((t - 1) // 100)
            if ratio < 1e-8:
                break  # step is far below any resolvable improvement
            eta = step0 * ratio
        else:
            raise ValidationError(f"unknown step schedule {options.step_schedule!r}")
        inner_tol = min(options.dykstra_tol, max(1e-2 * eta * norm, 1e-11))
        x = project_cptp(x - eta * m, dim, inner_tol, options.dykstra_iters)
        if t == 2 * avg_restart:
            avg[:] = 0.0
            avg_count = 0
            avg_restart = t
        avg += x
        avg_count += 1
        v = value_of(x)
        if v < best_val:
            if v < best_val - options.tol * (1.0 + abs(best_val)):
                last_gain = t
            best_val, best = v, x.copy()
        iters_done = t
        if t - last_gain > options.patience:
            break
    if avg_count:
        averaged = project_cptp(avg / avg_count, dim, tol=1e-12, max_iters=400)
        if value_of(averaged) < best_val:
            best_val, best = value_of(averaged), averaged
    return best, iters_done, iters_done < options.max_iters


def minimize_over_cptp(
    objective: LocalObjective | np.ndarray,
    options: SdpOptions | None = None,
    warm_start: np.ndarray | None = None,
) -> tuple[ChoiMatrix, dict]:
    """min Re Tr[C M] over Choi matrices of channels (first-order methods).

    Returns the final feasible iterate (re-projected onto the constraint set)
    together with convergence diagnostics.
    """
    options = options or SdpOptions()
    m = objective.matrix if isinstance(objective, LocalObjective) else np.asarray(objective)
    m = herm(m)
    side = m.shape[0]
    dim = int(round(np.sqrt(side)))
    if dim * dim != side:
        raise ValidationError("objective matrix side must be a perfect square")

    norm = float(np.linalg.norm(m, 2))
    depolarizing = np.eye(side, dtype=complex) / dim  # Choi of the erasure-to-mixed map
    if norm == 0.0:
        return ChoiMatrix(depolarizing.copy()), {
            "iters": 0, "value": 0.0, "converged": True, "min_eig": 0.0, "tp_residual": 0.0,
        }

    if warm_start is not None:
        x0 = project_cptp(np.asarray(warm_start, dtype=complex), dim, tol=1e-12)
    else:
        x0 = depolarizing.copy()

    if options.method == "splitting":
        cand, iters_done, converged = _solve_splitting(m, dim, norm, options, x0)
    elif options.method == "subgradient":
        cand, iters_done, converged = _solve_subgradient(m, dim, norm, options, x0)
    else:
        raise ValidationError(f"unknown subproblem method {options.method!r}")

    best = project_cptp(cand, dim, tol=1e-13, max_iters=600)
    best_val = float(np.real(trace_mul(best, m)))
    neg, tp_res = cptp_residuals(best, dim)
    if neg > 1e-7 or tp_res > 1e-7:
        raise NumericalError(
            f"subproblem solution infeasible: min_eig=-{neg:.2e} tp={tp_res:.2e}"
        )
    info = {
        "iters": iters_done,
        "value": best_val,
        "converged": converged,
        "min_eig": -neg,
        "tp_residual": tp_res,
    }
    return ChoiMatrix(best), info


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepStep:
    round: int
    component: int
    value_before: float
    value_after: float
    installed: bool
    subproblem_value: float
    energy: float


@dataclass
class SweepReport:
    """Energy trace of a component-wise sweep; energies are non-increasing."""

    initial_energy: float
    steps: list[SweepStep] = field(default_factory=list)
    exact_energy: float | None = None

    @property
    def final_energy(self) -> float:
        return self.steps[-1].energy if self.steps else self.initial_energy

    @property
    def energies(self) -> list[float]:
        return [self.initial_energy] + [s.energy for s in self.steps]

    def relative_error(self, energy: float | None = None) -> float | None:
        if self.exact_energy is None:
            return None
        e = self.final_energy if energy is None else energy
        return abs(e - self.exact_energy) / max(abs(self.exact_energy), 1e-15)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["iteration", "component", "energy", "relative_error"])
        rel = self.relative_error(self.initial_energy)
        writer.writerow([0, "", f"{self.initial_energy:.12g}", "" if rel is None else f"{rel:.6g}"])
        for i, s in enumerate(self.steps, start=1):
            rel = self.relative_error(s.energy)
            writer.writerow(
                [i, s.component, f"{s.energy:.12g}", "" if rel is None else f"{rel:.6g}"]
            )
        return buf.getvalue()


@dataclass
class SweepOptions:
    rounds: int = 10
    accept_tol: float = 1e-8
    order: tuple[int, ...] | None = None
    init: str = "keep"  # keep | identity | random_unitary | random_cptp
    seed: int = 0
    sdp: SdpOptions = field(default_factory=SdpOptions)


def _initialize(circuit: MapCircuit, init: str, seed: int) -> MapCircuit:
    if init == "keep":
        return circuit
    rng = np.random.default_rng(seed)
    comps = []
    for comp in circuit.components:
        if init == "identity":
            new = identity_map(comp.map.arity)
        elif init == "random_unitary":
            new = random_unitary_map(comp.map.arity, rng)
        elif init == "random_cptp":
            new = random_cptp_map(comp.map.arity, rng)
        else:
            raise ValidationError(f"unknown init {init!r}")
        comps.append(replace(comp, map=new))
    return MapCircuit(circuit.num_qubits, tuple(comps), topology=circuit.topology)


def sweep(
    circuit: MapCircuit,
    data,
    obs: Observable,
    options: SweepOptions | None = None,
    exact_energy: float | None = None,
) -> tuple[MapCircuit, SweepReport]:
    """Cyclic component-wise energy minimization with monotone acceptance."""
    options = options or SweepOptions()
    current = _initialize(circuit, options.init, options.seed)
    order = options.order or tuple(range(len(current.components)))
    if any(i < 0 or i >= len(current.components) for i in order):
        raise ValidationError("sweep order refers to missing components")
    energy = circuit_energy(current, data, obs)
    report = SweepReport(initial_energy=energy, exact_energy=exact_energy)
    for rnd in range(1, options.rounds + 1):
        improved = False
        for index in order:
            objective = assemble_local_objective(current, index, data, obs)
            choi_cur = superop_to_choi(current.components[index].map)
            v_before = objective.value(choi_cur)
            choi_new, info = minimize_over_cptp(
                objective, options.sdp, warm_start=choi_cur.matrix
            )
            v_new = objective.value(choi_new)
            if v_new < v_before - options.accept_tol:
                current = current.with_component(index, choi_to_superop(choi_new))
                energy = energy - v_before + v_new
                installed = True
                improved = True
            else:
                installed = False
            report.steps.append(
                SweepStep(
                    round=rnd,
                    component=index,
                    value_before=v_before,
                    value_after=v_new if installed else v_before,
                    installed=installed,
                    subproblem_value=info["value"],
                    energy=energy,
                )
            )
        if not improved:
            break
    # Guard against drift in the incremental energy bookkeeping.
    recomputed = circuit_energy(current, data, obs)
    if abs(recomputed - energy) > 1e-6 * (1.0 + abs(recomputed)):
        raise NumericalError(
            f"energy bookkeeping drifted: incremental {energy} vs direct {recomputed}"
        )
    if report.steps:
        report.steps[-1].energy = recomputed
    else:
        report.initial_energy = recomputed
    return current, report


# ---------------------------------------------------------------------------
# Classical ansatz driver and reset composition
# ---------------------------------------------------------------------------


def zreset_compose(circuit: MapCircuit) -> MapCircuit:
    """Absorb a reset of every qubit into the first-layer maps.

    Walking the first layer in order, each component is precomposed with a
    reset-to-|0> on those of its qubits that no earlier first-layer component
    has already reset. The result ignores the input state entirely, so the
    circuit can be applied to hardware in any initial state. Raises if the
    first layer does not touch every qubit (later layers would then leak the
    input through untouched wires).
    """
    if not circuit.components:
        raise ValidationError("cannot compose resets into an empty circuit")
    first_layer = circuit.components[0].layer
    comps = list(circuit.components)
    done: set[int] = set()
    for i, comp in enumerate(comps):
        if comp.layer != first_layer:
            break
        fresh = [q for q in comp.qubits if q not in done]
        if fresh:
            factors = [
                zreset_map() if q in fresh else identity_map(1) for q in comp.qubits
            ]
            pre = factors[0]
            for f in factors[1:]:
                pre = tensor_maps(pre, f)
            comps[i] = replace(comp, map=compose([pre, comp.map]))
        done.update(comp.qubits)
    if done != set(range(circuit.num_qubits)):
        missing = sorted(set(range(circuit.num_qubits)) - done)
        raise ValidationError(
            f"reset composition needs the first layer to touch every qubit; missing {missing}"
        )
    return MapCircuit(circuit.num_qubits, tuple(comps), topology=circuit.topology)


def classical_ansatz(
    obs: Observable,
    layers: int = 1,
    options: SweepOptions | None = None,
    exact_energy: float | None = None,
) -> tuple[MapCircuit, SweepReport]:
    """Optimize a sequential two-qubit circuit on the all-zeros register.

    The input is purely classical (|0...0>), so the optimized circuit is a
    state-preparation recipe; combine with :func:`zreset_compose` to make it
    input-independent.
    """
    from .cone import staircase

    options = options or SweepOptions(init="random_unitary")
    if options.init == "keep":
        options = replace(options, init="random_unitary")
    circuit = staircase(obs.num_qubits, layers)
    data = classical_input(obs.num_qubits)
    return sweep(circuit, data, obs, options, exact_energy=exact_energy)
