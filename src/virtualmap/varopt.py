"""Variational minimization of circuit energies over CPTP component maps.

The energy of a map circuit against a Hermitian observable is linear in each
component map separately. Freezing all components but one therefore reduces
the problem to

    minimize  Re Tr[C M]   over Choi matrices C >= 0 with Tr_out C = I,

where M is assembled from the frozen remainder of the circuit and the input
data: the circuit cut at the component gives a forward residual (the input run
through the components before it) and a backward one (the observable run
through the adjoints of those after it), and the walk that holds them
contracts them into its share of M. The subproblem is a small semidefinite
program, solved by a primal-dual interior-point method (Mehrotra
predictor-corrector steps in the HKM direction, about ten Newton steps per
solve). Its matrices are d^2 x d^2 for a d-dimensional component, so a step
costs about as much as the numpy calls it makes: each step factors C and S
and inverts their factors with one batched Cholesky, of the bordered pair
[[Z, I], [I, c I]] whose factor holds L^-H beside L, builds the Schur matrix
from one block product, solves it twice, and takes the primal and dual step
lengths of its corrector with one batched eigvalsh. These kernels are the
LAPACK gufuncs behind numpy.linalg, called directly without the per-call
wrappers, and the step writes its intermediate matrices into buffers held
for the solve. The centering parameter is
fixed at 1 - _STEP_FRACTION = 0.05, which keeps the iterate near the central
path, so solves do not stall near degenerate optima (0 of 600 seeded random
subproblems end unconverged). The predictor's direction stays, for the
corrector's second-order term, but its step lengths are not taken. The dual
variable Y, with slack S = M - Y (x) I, proves the lower bound
Tr Y + dim / ||S^-1||_inf on the optimum, read off the S^-1 the step's
Cholesky gives, so every solve reports a certified optimality gap, and the
returned map is exactly trace-preserving. A step reads the bound only where
it can stop the solve: where Tr Y + dim / max |S^-1_ii|, which is never
below it, passes the stop test. A sweep visits components
cyclically, installing a new map only when it lowers the energy, and records
each solve's gap and convergence. M does not depend on the visited component's
own map, so a component visited since the last install is settled: a second
solve would repeat the last one, so the sweep skips it, and it stops once
every component is settled. Each energy it reports is Tr[C M] of an objective
it holds, at the current map or at the installed solution; one call of
:func:`virtualmap.estimation.circuit_energy`, which takes the same two kinds
of input, checks the last. Input data is either the weighted product rows of
:class:`virtualmap.estimation.ProductInputData` (dual effects of measured
outcomes or of the exact distribution, or the classical all-zeros register)
or a :class:`virtualmap.densesim.DensityMatrix`, which optimizes the
infinite-shot energy directly at small qubit counts. This module only tells
the two kinds apart: :class:`virtualmap.cone.CutWalk` builds their walks
(``CutWalk.dense``, ``CutWalk.rows``, which both take ``(circuit, data,
obs)``) and contracts each walk's share of M (``CutWalk.objective``). The
objective is their sum's Hermitian part, a plain (4^k, 4^k) array for a
k-qubit component, which :func:`minimize_over_cptp` takes as it is. A
sweep first decides, by one rule (:func:`_collapse_if_cheaper`),
whether to collapse its rows (:func:`virtualmap.estimation.collapse`), so a
large batch at N <= 10 is optimized as its empirical dual operator. Where the
cut is one walk (a dense state, or rows that fit one chunk of the residual
budget) the sweep keeps it, so an installed map invalidates residuals only
where it enters: a dense round in index order costs fewer than 3K map
applications, not K(K - 1), and a round of rows about two plan passes per
component whose apply step precedes the last one's. Rows of several chunks
get a cold walk per chunk at every visit. :func:`zreset_compose` makes an
optimized circuit input-independent by absorbing a reset to |0> into each
qubit's first component, so that the circuit prepares on any input what it
prepared on |0...0>.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import numbers
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np
from numpy.linalg import _umath_linalg

from .cone import CutWalk, MapCircuit, schedule, staircase
from .densesim import _DENSE_LIMIT, DensityMatrix
from .errors import NumericalError, ValidationError, json_int
from .estimation import circuit_energy, classical_input, collapse
from .linalg import herm, trace_mul
from .maps import (
    ChoiMatrix,
    choi_marginal,
    choi_to_superop,
    compose,
    identity_map,
    random_cptp_map,
    random_unitary_map,
    superop_to_choi,
    tensor_maps,
    zreset_map,
)
from .pauli import Observable


# ---------------------------------------------------------------------------
# Energy and per-component objective assembly
# ---------------------------------------------------------------------------


def _cut_walks(circuit: MapCircuit, data, obs: Observable):
    """The walks that cut ``data`` under ``obs``, yielded one at a time: a
    dense state's one walk, or the walks of product rows, one per chunk."""
    return (CutWalk.dense if isinstance(data, DensityMatrix) else CutWalk.rows)(circuit, data, obs)


def assemble_local_objective(
    circuit: MapCircuit, index: int, data, obs: Observable, *, walks: list | None = None
) -> np.ndarray:
    """The Hermitian (4^k, 4^k) matrix M of the energy landscape at component
    ``index``, of arity k: the circuit with Choi matrix C there has energy
    Re Tr[C M]. M is the sum of the walks' shares at the component
    (:meth:`virtualmap.cone.CutWalk.objective`), through the ``walks`` a
    sweep keeps, or cold walks, which check the registers."""
    if not obs.is_hermitian:
        raise ValidationError("objective assembly needs a Hermitian observable")
    if not 0 <= index < len(circuit.components):
        raise ValidationError(f"no component {index} in circuit")
    side = 4 ** circuit.components[index].map.arity
    shares = (walk.objective(circuit, index) for walk in walks or _cut_walks(circuit, data, obs))
    return herm(sum(shares, np.zeros((side, side), dtype=complex)))


# ---------------------------------------------------------------------------
# CPTP-constrained subproblem
# ---------------------------------------------------------------------------


@dataclass
class SdpOptions:
    """Settings of the interior-point solver for the per-component subproblem.

    ``max_iters``, an integer, caps the Newton (predictor-corrector) steps; a
    solve needs about ten, each factoring the primal and dual matrices with
    one batched Cholesky.  ``tol``, a real number, is the target relative
    certified gap: the solver stops once the returned channel's value exceeds
    a proven lower bound on the optimum by at most ``tol * (1 + |value|)``,
    and ``converged`` reports that test on the returned channel whatever ended
    the loop.  Near a degenerate optimal face the attainable gap levels off
    around 1e-11 (relative to the scale of M), so a solve may end with
    ``converged=False`` and a gap just above the target; the gap is always
    reported.  The solver fixes its centering parameter at 0.05, which keeps
    the iterates near the central path, so solves rarely stall there: on 600
    seeded random objectives (``scripts/solver_replay.py``) every solve
    converges within 14 Newton steps.  Each Newton step takes its step
    lengths with one batched eigvalsh, and calls that, its one Cholesky and
    its two solves as numpy.linalg's LAPACK gufuncs, without the public
    wrappers.  A Cholesky that fails near the cone boundary ends the
    solve.  The proven lower bound is Tr Y + d / ||S^-1||_inf, from the dual
    variable Y, its slack S = M - Y (x) I and the inverse of S that the
    step's Cholesky gives: it costs no eigenvalue computation, and a step
    reads it only where it can stop the solve.  A sweep
    skips a component whose subproblem no install has changed since its
    last solve, so each of its steps is one solve.
    """

    max_iters: int = 50
    tol: float = 1e-11

    def __post_init__(self):
        self.max_iters = json_int(self.max_iters, "max_iters")
        if self.max_iters < 0:
            raise ValidationError("max_iters must be non-negative")
        real = isinstance(self.tol, numbers.Real) and not isinstance(self.tol, bool)
        if not (real and math.isfinite(self.tol) and self.tol > 0.0):
            raise ValidationError("tol must be a positive finite number")


# A step length below this makes no progress: the Newton direction has lost
# its accuracy to round-off, which happens only once the gap is near its floor.
_MIN_STEP = 1e-6
# Fraction of the distance to the cone boundary taken by the corrector step.
# Bolder steps (0.98, 0.99) save a Newton step here and there but leave the
# iterate off-centre, and more solves then stall above tol = 1e-11.
_STEP_FRACTION = 0.95
# Centering parameter: the corrector aims at mu * _SIGMA. A step that stops
# short of the boundary by 1 - _STEP_FRACTION cannot cut mu by much more than
# that, and aiming lower pushes the iterate off the central path, where the
# primal steps collapse.
_SIGMA = 1.0 - _STEP_FRACTION


# The LAPACK gufuncs behind np.linalg's cholesky, solve (1-D right-hand
# side), eigvalsh and eigh. A solve calls them with the signatures those
# wrappers pass, "D->D", "DD->D", "D->d" and "D->dD" ("d->d" for the start
# eigenvalues of a real objective): the same routines on the same operands,
# without the wrappers' per-call checks, casts and error-state switches. A
# failed factorization raises no LinAlgError: the gufunc fills that matrix
# of the stack with NaN and sets the FP invalid flag, which a solve ignores
# under one np.errstate.
_cholesky = _umath_linalg.cholesky_lo
_solve1 = _umath_linalg.solve1
_eigvalsh = _umath_linalg.eigvalsh_lo
_eigh = _umath_linalg.eigh_lo


@functools.cache
def _eye(dim: int) -> np.ndarray:
    eye = np.eye(dim)
    eye.flags.writeable = False  # one array serves every caller
    return eye


# Corner of the bordered matrices [[Z, I], [I, _BORDER I]]: their Cholesky
# factor is [[L, 0], [L^-H, N]] whenever _BORDER lambda_min(Z) > 1, so one
# factorization gives the inverse of L as well.
_BORDER = 1e300


def _bordered(side: int) -> np.ndarray:
    """A stack of two (2 side, 2 side) bordered matrices [[Z, I], [I, _BORDER
    I]] with Z = 0, to be written into the top-left blocks. Cholesky reads
    the lower triangle only, so the top-right block stays 0.

    The lower-left block of the factor of a stack is the stack of L^-H =
    R^H, with L L^H = Z and R Z R^H = I. If some Z is not positive definite,
    neither is its bordered matrix, and that whole factor comes back NaN.
    """
    bordered = np.zeros((2, 2 * side, 2 * side), dtype=complex)
    bordered[:, side:, :side] = np.eye(side)
    bordered[:, side:, side:] = _BORDER * np.eye(side)
    return bordered


@functools.cache
def _lifter(dim: int):
    """Y -> Y (x) I_out without the kron call overhead: the returned function
    writes Y into the block diagonal of one zeroed buffer through a strided
    4-index view and returns the buffer, so each call overwrites the last.
    One lifter per dimension serves every solve: each caller uses the buffer
    at once and keeps no reference to it."""
    side = dim * dim
    buf = np.zeros((side, side), dtype=complex)
    st = buf.reshape(dim, dim, dim, dim).strides  # [a, r, b, s]
    diag = np.lib.stride_tricks.as_strided(
        buf, (dim, dim, dim), (st[1] + st[3], st[0], st[2])
    )  # diag[r, a, b] is buf[(a, r), (b, r)]

    def lift(y: np.ndarray) -> np.ndarray:
        diag[...] = y
        return buf

    return lift


def cptp_residuals(c: np.ndarray, dim: int) -> tuple[float, float]:
    """(most negative eigenvalue clipped to 0, trace-preservation defect);
    the first is NaN, not 0, where the eigensolver fails."""
    min_eig = float(_eigvalsh(herm(c), signature="D->d")[0])
    marg = choi_marginal(c, dim)
    return 0.0 if min_eig >= 0.0 else -min_eig, float(np.abs(marg - _eye(dim)).max())


def _tp_polish(c: np.ndarray, dim: int) -> np.ndarray:
    """(A^-1/2 (x) I) C (A^-1/2 (x) I) with A = Tr_out C: a congruence, so it
    keeps C >= 0, and it makes the map exactly trace-preserving."""
    vals, vecs = _eigh(choi_marginal(c, dim), signature="D->dD")
    root = _lifter(dim)((vecs / np.sqrt(vals)) @ vecs.conj().T)
    return herm(root @ c @ root)


def _schur_matrix(x: np.ndarray, s_inv: np.ndarray, dim: int, work: np.ndarray) -> np.ndarray:
    """Matrix of the HKM map dY -> Tr_out[sym(X (dY (x) I) S^-1)] on
    row-major vec(dY), from one block product.

    The block of dY -> Tr_out[X (dY (x) I) S^-1] is
    K[(a,c),(b,e)] = sum_{r,s} X[(a,r),(b,s)] S^-1[(e,s),(c,r)]. For
    Hermitian X and S^-1 the other half, dY -> Tr_out[S^-1 (dY (x) I) X], is
    the adjoint of the first on dY^H, so its block is conj(K[(c,a),(e,b)]).
    ``work``, a (4, d^2, d^2) complex buffer, holds the operands and the
    returned matrix, which is its last slice.
    """
    xx, ss, k, out = work
    quad = (dim, dim, dim, dim)
    np.copyto(xx.reshape(quad), x.reshape(quad).transpose(0, 2, 1, 3))
    np.copyto(ss.reshape(quad), s_inv.reshape(quad).transpose(3, 1, 2, 0))
    k = np.matmul(xx, ss, out=k).reshape(quad)  # k[a, b, c, e] = K[(a,c),(b,e)]
    other = np.conjugate(k.transpose(2, 0, 3, 1), out=xx.reshape(quad))
    np.add(k.transpose(0, 2, 1, 3), other, out=out.reshape(quad))
    return np.multiply(out, 0.5, out=out)


def _max_steps(roots: np.ndarray, roots_h: np.ndarray, dirs: np.ndarray, work: np.ndarray) -> list[float]:
    """Largest a_i with Z_i + a_i dZ_i >= 0 for a stack of cones, given roots
    with root_i Z_i root_i^H = I and their adjoints ``roots_h`` (inf where
    dZ_i >= 0): one batched eigvalsh. ``work``, two complex buffers shaped
    like ``dirs``, holds the products."""
    np.matmul(np.matmul(roots, dirs, out=work[0]), roots_h, out=work[1])
    lam = _eigvalsh(work[1], signature="D->d")[:, 0]
    return [np.inf if v >= 0.0 else -1.0 / v for v in lam.tolist()]


def _min_eig_floor(s_inv: np.ndarray) -> float:
    """1 / max row-sum |S^-1|, a lower bound on lambda_min(S) for S > 0: no
    eigenvalue of S^-1 exceeds its induced infinity-norm, so lambda_min(S) =
    1 / rho(S^-1) >= 1 / ||S^-1||_inf, with equality for diagonal S."""
    return 1.0 / float(np.abs(s_inv).sum(axis=1).max())


def _min_eig_ceiling(s_inv: np.ndarray) -> float:
    """1 / max |S^-1_ii|, an upper bound on lambda_min(S) = 1 /
    lambda_max(S^-1) for S > 0, and at most min_i S_ii, since S^-1_ii S_ii
    >= 1. It is never below :func:`_min_eig_floor` of the same S^-1 in
    floating point either: a sum of non-negative numbers is never below one
    of its terms, so each row sum of |S^-1| is at least its diagonal term."""
    return 1.0 / float(np.abs(s_inv.diagonal()).max())


def _herm_into(a: np.ndarray, out: np.ndarray, conj: np.ndarray) -> np.ndarray:
    """herm(a) written into ``out``, through the buffer ``conj``: the
    operations of :func:`virtualmap.linalg.herm` in its order."""
    np.add(a, np.conjugate(a, out=conj).T, out=out)
    return np.multiply(0.5, out, out=out)


def _interior_point(m: np.ndarray, dim: int, options: SdpOptions):
    """Primal-dual interior point: predictor-corrector steps in the HKM
    direction, centering fixed at _SIGMA.

    Primal: min Tr[C M] s.t. C >= 0, Tr_out C = I.  Dual: max Tr Y s.t.
    S = M - Y (x) I >= 0.  Since Tr C = dim on the primal set, every Y with
    S > 0 proves the lower bound Tr Y + dim * lambda_min(S) >= Tr Y +
    dim / ||S^-1||_inf on the optimum (:func:`_min_eig_floor`); the loop
    stops once the polished primal point is within ``options.tol`` of it.
    ``m`` is float64 or complex128. Returns (C, dual bound, Newton steps).

    Each step factors C and S with one batched Cholesky of their bordered
    pair (:func:`_bordered`), which gives the roots R with R Z R^H = I and
    S^-1 = R_S^H R_S.  It takes the bound from that S^-1 only where Tr Y +
    dim / max |S^-1_ii| (:func:`_min_eig_ceiling`), never below the bound,
    passes the stop test; elsewhere the bound cannot pass it either.  The
    corrector aims at _SIGMA * mu = 0.05 mu and keeps Mehrotra's
    second-order term dC_aff dS_aff S^-1 from the predictor's direction,
    whose step lengths are not taken: the step makes two 1-D solves of the
    Schur system and one batched eigvalsh, for the corrector's primal and
    dual step lengths.  Every kernel is a LAPACK gufunc called directly, and
    the step writes its Schur matrix, Hermitian parts, products and updates
    into buffers held for the solve.  A failed factorization fills its
    matrix with NaN, so the caller runs the solve under
    np.errstate(invalid="ignore").  Every exit returns the bound of the last
    S that factored, taken from its S^-1 and Y, or the start's exact bound
    dim * lambda_min(M) if none did.
    """
    side = dim * dim
    eye = _eye(dim)
    lift = _lifter(dim)
    lam = _eigvalsh(m, signature="D->d" if np.iscomplexobj(m) else "d->d")
    y = (lam[0] - 1.0 - max(-lam[0], lam[-1])) * eye
    factored_y = None  # the Y of the last S that factored, whose S^-1 is s_inv
    cones = np.empty((2, side, side), dtype=complex)  # C and S
    x, s = cones
    x[...] = np.eye(side, dtype=complex) / dim
    bordered = _bordered(side)
    factors = np.empty_like(bordered)
    roots_h = factors[:, side:, :side]  # R^H, the factor's lower-left block
    roots_c, dirs = np.empty_like(roots_h), np.empty_like(roots_h)  # dirs: dC, dS
    roots = roots_c.transpose(0, 2, 1)  # R once roots_c holds conj(R^H)
    s_inv, extra, prod, t, conj = (np.empty((side, side), dtype=complex) for _ in range(5))
    schur_work = np.empty((4, side, side), dtype=complex)
    step_work = np.empty((2,) + dirs.shape, dtype=complex)
    dy, dy_conj, rhs = (np.empty((dim, dim), dtype=complex) for _ in range(3))
    for steps in range(options.max_iters + 1):
        # X and Y stay exactly Hermitian, so S is too: Cholesky reads one triangle
        np.subtract(m, lift(y), out=s)
        # R Z R^H = I, from one Cholesky of the bordered pair
        bordered[:, :side, :side] = cones
        _cholesky(bordered, signature="D->D", out=factors)
        if math.isnan(roots_h[0, 0, 0].real + roots_h[1, 0, 0].real):
            break
        factored_y = y
        np.conjugate(roots_h, out=roots_c)
        np.matmul(roots_h[1], roots[1], out=s_inv)
        value = np.vdot(x, m).real
        limit = options.tol * (1.0 + abs(value))
        # the bound only where it can stop the solve
        if value - (y.trace().real + dim * _min_eig_ceiling(s_inv)) <= limit:
            bound = y.trace().real + dim * _min_eig_floor(s_inv)
            if value - bound <= limit:
                polished = _tp_polish(x, dim)
                value = np.vdot(polished, m).real
                if value - bound <= options.tol * (1.0 + abs(value)):
                    return polished, bound, steps
        if steps == options.max_iters:
            break
        mu = np.vdot(x, s).real / side
        schur = _schur_matrix(x, s_inv, dim, schur_work)
        # Each direction solves the Schur system for dY, then dC = extra - C +
        # sym(C (dY (x) I) S^-1) with Tr_out(C + dC) = I and dS = -dY (x) I;
        # the Schur map commutes with ^H, so only herm(extra) matters. The
        # predictor's (extra = 0) gives the corrector its second-order term.
        _herm_into(_solve1(schur, eye.reshape(-1), signature="DD->D").reshape(dim, dim), dy, dy_conj)
        lifted = lift(dy)
        np.matmul(np.matmul(x, lifted, out=prod), s_inv, out=t)
        np.subtract(_herm_into(t, prod, conj), x, out=dirs[0])
        np.negative(lifted, out=dirs[1])
        np.multiply(_SIGMA * mu, s_inv, out=extra)
        np.matmul(np.matmul(dirs[0], dirs[1], out=prod), s_inv, out=t)
        np.subtract(extra, t, out=extra)
        np.subtract(eye, choi_marginal(extra, dim), out=rhs)
        _herm_into(_solve1(schur, rhs.reshape(-1), signature="DD->D").reshape(dim, dim), dy, dy_conj)
        lifted = lift(dy)
        np.matmul(np.matmul(x, lifted, out=prod), s_inv, out=t)
        np.add(t, extra, out=t)
        np.subtract(_herm_into(t, prod, conj), x, out=dirs[0])
        np.negative(lifted, out=dirs[1])
        a_p, a_d = (min(1.0, _STEP_FRACTION * a) for a in _max_steps(roots, roots_h, dirs, step_work))
        if min(a_p, a_d) < _MIN_STEP:
            break
        x += np.multiply(a_p, dirs[0], out=t)
        y = y + a_d * dy
    if factored_y is None:  # Tr Y + dim * lambda_min(S) at the start
        return _tp_polish(x, dim), dim * lam[0], steps
    return _tp_polish(x, dim), factored_y.trace().real + dim * _min_eig_floor(s_inv), steps


def minimize_over_cptp(objective: np.ndarray, options: SdpOptions | None = None) -> tuple[ChoiMatrix, dict]:
    """min Re Tr[C M] over Choi matrices C of channels, with a certified gap,
    for the square matrix M ``objective`` (its Hermitian part is taken).

    Returns the final iterate, made exactly trace-preserving, and its
    diagnostics: ``iters`` (Newton steps), ``value``, ``dual_bound`` (a proven
    lower bound on the optimum), ``gap`` (value - dual_bound), ``converged``
    (gap <= tol * (1 + |value|)), and the feasibility residuals ``min_eig``
    and ``tp_residual``.
    """
    options = options or SdpOptions()
    m = np.asarray(objective)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValidationError(f"objective must be a non-empty square matrix, got shape {m.shape}")
    if not np.issubdtype(m.dtype, np.number):
        raise ValidationError(f"objective must be numeric, got dtype {m.dtype}")
    # float64 or complex128, the precision numpy.linalg computes in
    m = herm(m).astype(np.promote_types(m.dtype, float), copy=False)
    side = m.shape[0]
    dim = int(round(np.sqrt(side)))
    if dim * dim != side:
        raise ValidationError("objective matrix side must be a perfect square")
    if not np.all(np.isfinite(m)):
        raise ValidationError("objective matrix has non-finite entries")

    with np.errstate(invalid="ignore"):  # a failed factorization reads NaN
        best, bound, iters_done = _interior_point(m, dim, options)
    best_val = float(np.real(trace_mul(best, m)))
    gap = best_val - float(bound)
    neg, tp_res = cptp_residuals(best, dim)
    if not (neg <= 1e-7 and tp_res <= 1e-7):  # NaN fails too
        raise NumericalError(
            f"subproblem solution infeasible: min_eig=-{neg:.2e} tp={tp_res:.2e}"
        )
    info = {
        "iters": iters_done,
        "value": best_val,
        "converged": gap <= options.tol * (1.0 + abs(best_val)),
        "gap": gap,
        "dual_bound": float(bound),
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
    installed: bool
    subproblem_value: float
    energy: float
    gap: float  # certified optimality gap of the subproblem solve
    converged: bool  # gap within the SdpOptions tolerance
    newton_steps: int  # Newton steps of the solve


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


# The ways a sweep may start: its circuit as given, or every map replaced.
SWEEP_INITS = ("keep", "identity", "random_unitary", "random_cptp")


@dataclass
class SweepOptions:
    rounds: int = 10
    accept_tol: float = 1e-8
    order: tuple[int, ...] | None = None
    init: str = "keep"  # one of SWEEP_INITS
    seed: int = 0
    sdp: SdpOptions = field(default_factory=SdpOptions)

    def __post_init__(self):
        self.rounds = json_int(self.rounds, "rounds")
        if self.rounds < 0:
            raise ValidationError("rounds must be non-negative")
        tol = self.accept_tol
        real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
        if not (real and math.isfinite(tol) and tol >= 0.0):
            raise ValidationError("accept_tol must be a non-negative finite number")
        if self.order is not None:
            self.order = tuple(json_int(i, "a sweep order entry") for i in self.order)
            if not self.order:
                raise ValidationError("sweep order must list at least one component")
        if self.init not in SWEEP_INITS:
            raise ValidationError(f"unknown init {self.init!r}")
        self.seed = json_int(self.seed, "seed")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


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
    return MapCircuit(circuit.num_qubits, tuple(comps))


def _collapse_if_cheaper(circuit: MapCircuit, data, obs: Observable):
    """``data`` as the input of a sweep: the one rule that decides when
    product rows are collapsed (:func:`virtualmap.estimation.collapse`).

    Rows are collapsed when N <= 10 and R T 4^peak > 4^N, R being the rows,
    T the observable's terms and peak the widest residual of the circuit's
    plan: the (rows, terms) batch of light-cone residuals would then hold
    more entries than the dense operator. Timings of both paths on
    ``brickwork(N, 4)`` at N = 8-10 (``scripts/objective_replay.py``) put
    the crossover of one objective assembly, the step a sweep repeats,
    between 0.4 and 1.9 of that ratio at every N. Rows stay as they are when
    the collapse itself would hold a tensor larger than the dense operator,
    as frames of more than four outcomes can make it: its count tensor has
    prod M_q entries. A single row is never collapsed: there is nothing to
    merge, and the classical ansatz keeps its light-cone path at every N. A
    dense state is returned as it is.
    """
    if isinstance(data, DensityMatrix) or data.num_qubits > _DENSE_LIMIT or len(data.weights) < 2:
        return data
    n = data.num_qubits
    dims = [len(t) for t in data.tables]
    # the collapse's tensors: the counts with the first q outcome axes
    # traded for 2 x 2 blocks
    held = max(math.prod(dims[q:]) * 4**q for q in range(n + 1))
    work = len(data.weights) * len(obs.terms) * 4 ** schedule(circuit).peak_active
    return collapse(data) if work > 4**n and held <= 4**n else data


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
    data = _collapse_if_cheaper(current, data, obs)
    # a cut of one walk is kept across the sweep; several chunks are cut cold
    head = list(islice(_cut_walks(current, data, obs), 2))
    walks = head if len(head) == 1 else None
    # Components visited since the last install. M does not depend on a
    # component's own map, so a settled component's solve would repeat its
    # last one and install nothing: it is skipped, and the sweep ends once
    # every component is settled.
    settled: set[int] = set()
    steps: list[SweepStep] = []
    for rnd in range(1, options.rounds + 1):
        for index in order:
            if index in settled:
                continue
            objective = assemble_local_objective(current, index, data, obs, walks=walks)
            choi_new, info = minimize_over_cptp(objective, options.sdp)
            # E(circuit) = Tr[C M] at the current map, and at the solve's
            # map it is the solve's value
            choi_now = superop_to_choi(current.components[index].map)
            v_before = float(np.real(trace_mul(choi_now.matrix, objective)))
            installed = info["value"] < v_before - options.accept_tol
            if installed:
                current = current.with_component(index, choi_to_superop(choi_new))
                settled.clear()
            settled.add(index)
            steps.append(
                SweepStep(
                    round=rnd,
                    component=index,
                    value_before=v_before,
                    installed=installed,
                    subproblem_value=info["value"],
                    energy=info["value"] if installed else v_before,
                    gap=info["gap"],
                    converged=info["converged"],
                    newton_steps=info["iters"],
                )
            )
        if settled.issuperset(order):
            break
    # The one energy not read off an objective checks the last that was.
    energy = circuit_energy(current, data, obs)
    if steps:
        held = steps[-1].energy
        if abs(energy - held) > 1e-6 * (1.0 + abs(energy)):
            raise NumericalError(f"sweep energy drifted: objective {held} vs direct {energy}")
        steps[-1].energy = energy
    initial = steps[0].value_before if steps else energy
    return current, SweepReport(initial, steps, exact_energy)


# ---------------------------------------------------------------------------
# Classical ansatz driver and reset composition
# ---------------------------------------------------------------------------


def zreset_compose(circuit: MapCircuit) -> MapCircuit:
    """Absorb a reset of every qubit into the qubit's first component.

    Walking the components in order, each is precomposed with a reset-to-|0>
    on those of its qubits that no earlier component acts on. A qubit idle
    before its first component is reset there as at time 0, so the result
    ignores the input state entirely and the circuit can be applied to
    hardware in any initial state. Raises if some qubit is touched by no
    component (the input would leak through its untouched wire).
    """
    comps = list(circuit.components)
    done: set[int] = set()
    for i, comp in enumerate(comps):
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
        raise ValidationError(f"reset composition needs a component on every qubit; missing {missing}")
    return MapCircuit(circuit.num_qubits, tuple(comps))


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
    options = options or SweepOptions(init="random_unitary")
    if options.init == "keep":
        options = replace(options, init="random_unitary")
    circuit = staircase(obs.num_qubits, layers)
    data = classical_input(obs.num_qubits)
    return sweep(circuit, data, obs, options, exact_energy=exact_energy)
