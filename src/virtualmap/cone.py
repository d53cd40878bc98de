"""Causal-cone evaluation of local-map circuits.

A circuit is its register size and an ordered list of k-local components,
each its qubits and its map; list order is application order and nothing
else is stored. ``brickwork`` and ``staircase`` number layers only while they
build the list. A circuit file holds the same: ``{"num_qubits", "components":
[{"qubits", "map"}, ...]}``, the step format state-prep files share; keys it
does not read, such as an older file's ``"layer"`` and ``"topology"``, are
ignored. The quantity of interest is the full-register trace

    Tr[ L(F_0 (x) ... (x) F_{N-1}) . (G_0 (x) ... (x) G_{N-1}) ]

for per-qubit input factors F (dual operators, or direct product-state
factors) and output factors G (Pauli letters). Instead of forming 2^N
operators, evaluation keeps a small residual operator over the currently
active qubits and interleaves three step kinds:

* absorb   -- tensor a pending input factor into the residual;
* apply    -- apply one component's superoperator to the residual;
* trace    -- multiply the output factor on a finished qubit and trace it out.

A qubit is finished once every component acting on it has been applied; the
scheduler picks the next qubit to finish greedily, minimizing the number of
active qubits, which reproduces the narrow sweep on layered nearest-neighbour
circuits. ``_cone`` is the one light-cone walk: the scheduler takes each
qubit's cone from it once, costs a pick by its cone's qubits not yet
absorbed, and applies only its cone's components not yet applied.

Every whole-trace contraction runs a ``ConePlan``: the schedule of one output
support's backward light cone (``cone_plan``). A plan depends only on the
component supports and, for a partial support, on which components are trace
preserving, so plans are memoized on that structure and shared by every
circuit a sweep derives with ``with_component``. ``schedule`` is the plan of
every qubit.

Every contraction takes ``(circuit, data, obs)``: the product rows of a
``ProductInputData`` (or, for ``CutWalk.dense``, a ``DensityMatrix``) and an
``Observable``, checked to cover the circuit's register. The residual
carries two trailing batch axes behind its two operator axes, so every
kernel's innermost loop runs over the batch; run forwards, input factors are
(2, 2, R, 1), one per row, and output factors (2, 2, 1, T), one per Pauli
term, or (2, 2) where every term has the same letter, and broadcasting forms
the (R, T) batch only at the first step whose factor needs it. The two
whole-register references, ``evaluate_trace`` and
``evaluate_trace_backward``, run ``schedule(circuit)`` over the same (rows,
terms) chunks as ``CutWalk.rows`` and return sum_k c_k Tr[L(F_row) P_k] per
row; the backward one runs the steps in reverse order on the adjoint maps,
with the roles of the two factor sets exchanged (the same backward pass the
objectives use), and for Hermiticity-preserving circuits both directions
agree. ``evaluate_rows``, the weight kernel, returns the same values and
contracts each support group of the terms over only the backward light cone
of the union of their supports. The pruning is exact:

* a component outside the cone is dropped only if it is trace preserving to
  round-off (vec(I)^T S = vec(I)^T within ``_TP_TOL``); otherwise it joins the
  cone together with every earlier component it reaches;
* a qubit outside the cone contributes the factor Tr F_q, which need not be
  one (custom dual frames).

``term_groups`` forms the support groups, which ``evaluate_rows`` adds up
in order: a term joins the widest term support that contains its own and
lies inside its own light cone, so the N bond groups of a nearest-neighbour
chain absorb its one-site terms, while a term spanning the register stays on
its own. Grouping reads only the cones'
qubit sets (``_cone``, the walk a plan then schedules), so it schedules
nothing; it is memoized on the structure like the plans.

A group's cone is contracted by one backward run (``_backward``), in the
Heisenberg picture: the steps run in reverse on the adjoint maps from the
terms' factors over a (terms, outcomes) batch; right after the last letter
that differs between terms enters, the term axis is contracted with the
coefficients, and conj Tr[L^dagger(P) F^dagger] = Tr[P L(F)] for Hermitian P
holds whatever the maps and tables. Only the trace-out differs. The outcome
table traces each cone qubit out against its whole stack of F^dagger, so it
holds the weighted sum for every outcome of the cone's qubits, which the rows
look up, at a cost that does not grow with the rows. Per row, each qubit is
traced out against each row's own F^dagger: rows that agree on the cone's
qubits are contracted once, in chunks of rows, and of terms where one row of
all of them is too many, so that live residuals stay below
``_BATCH_ENTRIES`` entries. ``evaluate_rows`` takes the table when its
residual entries, summed over the steps, are fewer than one row's times the
rows and its largest residual over all the terms fits ``_BATCH_ENTRIES``
(``ConePlan.table_cost``, cached on the plan); a single row never takes it.
No plan may be wider than ``MAX_ACTIVE_QUBITS``: ``cone_plan`` refuses it
before any residual is allocated.

To single out one component, a ``CutWalk`` cuts a step list at its apply
step: the steps before it give the forward residual, the steps after it, run
backwards on the adjoint maps, the backward one, and the walk keeps both
across cuts. Product rows are walked on the whole-register plan, one walk
per chunk of their (rows, terms) batch, from the empty register; there the
residuals live on the qubits active at the cut, the component's support and
the spectators. A dense state is one walk over one apply step per component
on the whole register, from the state and the observable's matrix. For one
pair, with r and rbar of shape (ds, dm, ds, dm) (support, spectators), the
circuit's value with the component replaced by any map L is linear in L:

    value(L) = sum_{w,u} Tr[L(r[:, w, :, u]) rbar[:, u, :, w]].

Each walk carries the (R, T) weights of its batch items and contracts its
own pairs into its share of the variational objective M
(``CutWalk.objective``); no other module reads the residuals' layout.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from pathlib import Path

import numpy as np

from .errors import ValidationError, json_int, parse_json, read_text
from .linalg import (
    apply_superop_local, insert_factor, multiply_trace_out, trace_out_each, unique_rows,
)
from .maps import LocalMap, invert_map, map_from_spec, map_to_payload
from .pauli import PAULI_MATRICES, Observable, PauliString


# A component counts as trace preserving, and may be left out of a term's
# cone, only if vec(I)^T S matches vec(I)^T to this absolute tolerance.
_TP_TOL = 1e-12
# Trace drift allowed beyond what a map's TP residual explains, times the
# operator's Frobenius norm if above 1: round-off grows with the entries.
_TRACE_TOL = 1e-10


@dataclass(frozen=True)
class Component:
    qubits: tuple[int, ...]
    map: LocalMap

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if not self.qubits:
            raise ValidationError("component needs at least one qubit")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValidationError(f"component qubits {self.qubits} must be distinct")
        if self.map.arity != len(self.qubits):
            raise ValidationError(
                f"map arity {self.map.arity} does not match qubits {self.qubits}"
            )


@dataclass(eq=False)
class MapCircuit:
    """An ordered sequence of local-map components on ``num_qubits`` qubits.

    List order is application order. Treat instances as immutable; use
    :meth:`with_component` for functional updates.
    """

    num_qubits: int
    components: tuple[Component, ...]

    def __post_init__(self):
        self.components = tuple(self.components)
        if self.num_qubits < 1:
            raise ValidationError("circuit needs at least one qubit")
        for comp in self.components:
            if any(q < 0 or q >= self.num_qubits for q in comp.qubits):
                raise ValidationError(
                    f"component qubits {comp.qubits} outside register of {self.num_qubits}"
                )

    @property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        """Every component's qubits, in order: all a plan depends on."""
        return tuple(c.qubits for c in self.components)

    @cached_property
    def trace_preserving(self) -> tuple[bool, ...]:
        """Per component, whether its map's cached ``tp_residual`` is within
        ``_TP_TOL``; a ``with_component`` circuit computes only its new map's."""
        return tuple(c.map.tp_residual <= _TP_TOL for c in self.components)

    def with_component(self, index: int, new_map: LocalMap) -> "MapCircuit":
        comps = list(self.components)
        comps[index] = Component(comps[index].qubits, new_map)
        return MapCircuit(self.num_qubits, tuple(comps))

    def inverse(self) -> "MapCircuit":
        """Reverse the order and invert every component map."""
        comps = [Component(c.qubits, invert_map(c.map)) for c in reversed(self.components)]
        return MapCircuit(self.num_qubits, tuple(comps))


def brickwork(num_qubits: int, layers: int, map_factory=None) -> MapCircuit:
    """Alternating-pairing layered circuit: odd layers couple (0,1),(2,3),...,
    even layers couple (1,2),(3,4),.... Odd registers leave the last qubit
    idle in alternating layers."""
    return MapCircuit(num_qubits, _layered(num_qubits, layers, map_factory, staircase_layers=False))


def staircase(num_qubits: int, layers: int, map_factory=None) -> MapCircuit:
    """Sequential layered circuit: every layer couples (0,1),(1,2),...,
    (N-2,N-1) in ascending order. One layer already connects the whole chain,
    which is what the single-layer variational runs use."""
    return MapCircuit(num_qubits, _layered(num_qubits, layers, map_factory, staircase_layers=True))


def _layered(num_qubits, layers, map_factory, staircase_layers):
    if num_qubits < 2:
        raise ValidationError("layered circuits need at least two qubits")
    if layers < 1:
        raise ValidationError("need at least one layer")
    if map_factory is None:
        from .maps import identity_map

        map_factory = lambda layer, qubits: identity_map(len(qubits))
    comps = []
    for layer in range(1, layers + 1):
        if staircase_layers:
            starts = range(num_qubits - 1)
        else:
            starts = range(0 if layer % 2 == 1 else 1, num_qubits - 1, 2)
        for i in starts:
            qubits = (i, i + 1)
            comps.append(Component(qubits, map_factory(layer, qubits)))
    return tuple(comps)


# ---------------------------------------------------------------------------
# scheduling


@dataclass(frozen=True)
class ScheduleStep:
    kind: str  # "absorb" | "apply" | "trace"
    qubit: int | None = None
    component: int | None = None


def _greedy_schedule(supports, component_pool, traceable) -> tuple[list[ScheduleStep], int]:
    """Greedy sweep: repeatedly finish the traceable qubit whose causal cone
    keeps the active set smallest (the first such qubit on ties). Returns
    (steps, peak).

    Each qubit's cone is taken once, by :func:`_cone` over the pool's
    supports. A finished qubit's cone is all absorbed and applied, so a pick
    costs its cone's qubits not yet absorbed (on top of the active set all
    picks share) and applies its cone's components not yet applied."""
    pool = set(component_pool)
    pooled = tuple(s if ci in pool else () for ci, s in enumerate(supports))
    # the uncached body: per-qubit cones would evict the shared memo's entries
    cones = {q: _cone.__wrapped__(pooled, None, (q,)) for q in traceable}
    reach = {q: set(qubits) for q, (_, qubits) in cones.items()}
    applied, absorbed = set(), set()
    steps: list[ScheduleStep] = []
    active = peak = 0

    def absorb(q):
        nonlocal active
        if q not in absorbed:
            steps.append(ScheduleStep("absorb", qubit=q))
            absorbed.add(q)
            active += 1

    pending = sorted(traceable)
    while pending:
        q = min(pending, key=lambda p: len(reach[p] - absorbed))  # the first of equal costs
        for ci in reversed(cones[q][0]):
            if ci not in applied:
                applied.add(ci)
                for qq in sorted(supports[ci]):
                    absorb(qq)
                steps.append(ScheduleStep("apply", component=ci))
                peak = max(peak, active)
        absorb(q)
        peak = max(peak, active)
        steps.append(ScheduleStep("trace", qubit=q))
        active -= 1
        pending.remove(q)
    return steps, peak


@dataclass(frozen=True)
class ConePlan:
    """Schedule of one output support's backward light cone.

    ``qubits`` (ascending) are the support plus every qubit a cone component
    touches; ``steps`` absorb, apply and trace exactly those.
    """

    qubits: tuple[int, ...]
    steps: tuple[ScheduleStep, ...]
    peak_active: int
    # outcome-table costs per tuple of outcome counts, filled by ``table_cost``
    _table_costs: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @cached_property
    def outcome_axes(self) -> tuple[int, ...]:
        """The qubits in the order the steps, run backwards, trace them out:
        the axes of an outcome table (:func:`_outcome_table`)."""
        return tuple(s.qubit for s in reversed(self.steps) if s.kind == "absorb")

    def table_cost(self, sizes: tuple[int, ...]) -> tuple[int, int]:
        """Residual entries the steps make for one term, run backwards with
        qubit ``outcome_axes[j]`` traced out against all its ``sizes[j]``
        outcomes, summed and at the largest: the outcome table's cost and
        peak, and with one outcome per qubit, one row's."""
        cost = self._table_costs.get(sizes)
        if cost is None:
            pending = iter(sizes)  # in the order the backward steps trace out
            total = peak = 0
            active, outcomes = 0, 1
            for s in reversed(self.steps):
                if s.kind == "trace":
                    active += 1
                elif s.kind == "absorb":
                    active -= 1
                    outcomes *= next(pending)
                entries = 4**active * outcomes
                total, peak = total + entries, max(peak, entries)
            cost = self._table_costs[sizes] = (total, peak)
        return cost


# Cones, plans and term groups depend on structure only, so circuits that
# share their component supports (every circuit a sweep makes with
# ``with_component``) share them.
_PLAN_CACHE_SIZE = 1024


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _cone(supports, tp, support) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Backward light cone of ``support``: (member components, descending;
    qubits, ascending). ``tp`` holds the components' trace preservation flags,
    or is None when every component is in the cone."""
    qubits = set(support)
    members = []
    for ci in range(len(supports) - 1, -1, -1):
        if (tp is not None and not tp[ci]) or qubits.intersection(supports[ci]):
            members.append(ci)
            qubits.update(supports[ci])
    return tuple(members), tuple(sorted(qubits))


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(supports, tp, support) -> ConePlan:
    """Schedule of the light cone of ``support`` (see :func:`_cone`)."""
    members, qubits = _cone(supports, tp, support)
    steps, peak = _greedy_schedule(supports, members, qubits)
    return ConePlan(qubits, tuple(steps), peak)


# Widest residual a plan may need: one item of 4^12 complex entries is 268 MB.
MAX_ACTIVE_QUBITS = 12


def cone_plan(circuit: MapCircuit, support) -> ConePlan:
    """Backward light cone of an output support.

    Walking the components backwards, one joins the cone if it touches a cone
    qubit or is not trace preserving; its qubits then join too. Everything
    left out is trace preserving and acts only on qubits whose output factor
    is the identity, so dropping it leaves the trace unchanged. A support
    that covers the register takes in every component whatever its map.
    A plan wider than ``MAX_ACTIVE_QUBITS`` raises ``ValidationError``
    before any residual is allocated.
    """
    support = tuple(support)
    whole = set(support) == set(range(circuit.num_qubits))
    plan = _plan(circuit.supports, None if whole else circuit.trace_preserving, support)
    if plan.peak_active > MAX_ACTIVE_QUBITS:
        raise ValidationError(
            f"the light cone of support {support} needs {plan.peak_active} active qubits, "
            f"more than the limit of {MAX_ACTIVE_QUBITS}"
        )
    return plan


def schedule(circuit: MapCircuit) -> ConePlan:
    """Evaluation order for the full trace: the light cone of every qubit."""
    return cone_plan(circuit, range(circuit.num_qubits))


def term_groups(circuit: MapCircuit, terms) -> tuple[tuple[int, ...], ...]:
    """Indices of the Pauli strings ``terms``, grouped so that each group is
    one light-cone contraction (:func:`evaluate_rows`).

    A term joins the group of the widest term support S that contains its
    own support and lies inside its own light cone (ties go to the
    lexicographically first S); its own support always qualifies. The cone
    bound keeps a wide term from pulling local terms into its wide cone.
    Grouping reads the cones' qubit sets and schedules nothing.
    """
    term_supports = tuple(ps.support for ps in terms)
    return _term_groups(circuit.supports, circuit.trace_preserving, term_supports)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _term_groups(supports, tp, term_supports) -> tuple[tuple[int, ...], ...]:
    # unlike cone_plan, every term passes the TP flags: a register-wide
    # support's cone is the register either way
    by_width = sorted(set(term_supports), key=lambda s: (-len(s), s))
    homes: dict[tuple[int, ...], list[int]] = {}
    for k, own in enumerate(term_supports):
        cone = set(_cone(supports, tp, own)[1])
        home = next(s for s in by_width if set(own).issubset(s) and cone.issuperset(s))
        homes.setdefault(home, []).append(k)
    return tuple(tuple(g) for g in homes.values())


# ---------------------------------------------------------------------------
# evaluation


_EMPTY_REGISTER = ((), np.ones((1, 1, 1, 1), dtype=complex))  # no active qubit, residual one


def _run_steps(
    circuit, steps, in_factors, out_factors, backward=False, start=_EMPTY_REGISTER,
    trace_out=None,
):
    """Execute schedule steps on a batch of residuals with two batch axes.

    The residuals are (rows, terms) batches, or (terms, outcomes) ones in
    :func:`_backward`. Each per-qubit factor is (2, 2), shared by the batch,
    or carries its own batch shape, such as (2, 2, R, 1) for one factor per
    row and (2, 2, 1, T) for one per term. Broadcasting forms a batch axis
    only at the first step whose factor has it, so the steps before it run
    once per item of the other. ``start`` is the (active qubits, residual)
    pair the steps begin from. Returns the active qubit list and the
    residuals, shape (2^a, 2^a, R', T') for a active qubits, where R' and T'
    are 1 if no factor so far had that axis. With ``backward`` the steps are
    given in reverse order and run backwards in time: a trace step absorbs,
    an absorb step traces out, and a component applies its adjoint map.
    ``trace_out`` is the kernel that traces a qubit out against its factor,
    by default ``multiply_trace_out``.
    """
    trace_out = trace_out or multiply_trace_out
    active, res = list(start[0]), start[1]
    comps = circuit.components
    grow = "trace" if backward else "absorb"
    for step in steps:
        if step.kind == grow:
            slot = bisect_left(active, step.qubit)
            res = insert_factor(res, in_factors[step.qubit], slot, len(active))
            active.insert(slot, step.qubit)
        elif step.kind == "apply":
            comp = comps[step.component]
            superop = comp.map.superop.conj().T if backward else comp.map.superop
            positions = [active.index(q) for q in comp.qubits]
            res = apply_superop_local(res, superop, positions, len(active))
        else:
            pos = active.index(step.qubit)
            res = trace_out(res, out_factors[step.qubit], pos, len(active))
            active.pop(pos)
    return active, res


def check_trace_kept(before: np.ndarray, after: np.ndarray, local_map: LocalMap) -> None:
    """Refuse an application of ``local_map`` that moved the trace of an item X
    of a (2^a, 2^a, *batch) batch by over (``_TRACE_TOL`` + r 2^a) max(1, ||X||_F),
    for the map's TP residual r: exact arithmetic moves it by r 2^a ||X||_F at most."""
    drift = np.abs(np.trace(after) - np.trace(before))
    tol = _TRACE_TOL + local_map.tp_residual * before.shape[0]
    # norms are taken only when a drift is above the absolute floor
    if np.any(drift > tol):
        norms = np.maximum(np.linalg.norm(before, axis=(0, 1)), 1.0)
        if np.any(drift > tol * norms):
            raise ValidationError("trace not preserved by a trace-preserving map")


# ---------------------------------------------------------------------------
# batched evaluation of a group of Pauli terms over their joint light cone

# Upper bound on the entries of one batch of residuals (16 bytes each); the
# rows of a batch, and if need be its terms, are chunked to stay below it.
_BATCH_ENTRIES = 1 << 18


def _term_factors(terms, qubits) -> dict:
    """Output factors of a list of Pauli terms on ``qubits``: the shared
    (2, 2) letter where every term has the same one, else (2, 2, 1, T)."""
    out = {}
    for q in qubits:
        letters = [ps.letters[q] for ps in terms]
        if len(set(letters)) == 1:
            out[q] = PAULI_MATRICES[letters[0]]
        else:
            stacked = np.array([PAULI_MATRICES[c] for c in letters]).reshape(-1, 2, 2)
            out[q] = stacked.transpose(1, 2, 0)[:, :, None]
    return out


def _chunks(rows: int, terms: int, peak_active: int):
    """The (rows, terms) slices of a batch whose residuals on ``peak_active``
    qubits hold at most ``_BATCH_ENTRIES`` entries (a single (row, term) pair
    may exceed it), terms outermost; the term axis is split only where one
    row of all the terms would exceed the budget."""
    item = 4**peak_active
    term_size = max(1, min(terms, _BATCH_ENTRIES // item))
    row_size = max(1, _BATCH_ENTRIES // (term_size * item))
    for t in range(0, max(terms, 1), term_size):
        for r in range(0, rows, row_size):
            yield slice(r, r + row_size), slice(t, t + term_size)


def _backward(circuit, plan: ConePlan, coeffs, paulis, duals, trace_out) -> np.ndarray:
    """sum_t c_t Tr[L(F) P_t] of a group's cone for every outcome F of a
    batch: the one contraction of the weight kernel.

    The steps run backwards from the terms' factors over a (terms, outcomes)
    batch, and ``trace_out`` traces each qubit out against its ``duals``, the
    F^dagger of the batch, which opens or meets the outcome axis. Right after
    the last letter that differs between the terms (distinct, as an
    observable's are) enters, the term axis is contracted with conj c, so
    every later step runs on a term axis of one,
    and conj Tr[L^dagger(P) F^dagger] = Tr[P L(F)] for Hermitian P, whatever
    the maps and tables. Returns the outcome axis."""
    steps = plan.steps[::-1]
    ins = {q: f.reshape(2, 2, -1, 1) for q, f in _term_factors(paulis, plan.qubits).items()}
    per_term = [p + 1 for p, s in enumerate(steps) if s.kind == "trace" and ins[s.qubit].shape[2] > 1]
    fold = max(per_term, default=0)
    run = partial(
        _run_steps, circuit, in_factors=ins, out_factors=duals, backward=True, trace_out=trace_out
    )
    active, res = run(steps[:fold])
    _, res = run(steps[fold:], start=(active, coeffs.conj()[None] @ res))  # (1, T) @ (T, O) per entry
    return res[0, 0, 0].conj()


def _outcome_table(circuit, plan: ConePlan, tables, coeffs, paulis) -> np.ndarray:
    """The group's weighted sum for every outcome of its cone's qubits, an
    (M_q for q in ``plan.outcome_axes``) table: each qubit is traced out
    against its whole stack of F^dagger
    (:func:`~virtualmap.linalg.trace_out_each`), which opens its outcome
    axis."""
    daggers = {q: tables[q].conj().transpose(0, 2, 1) for q in plan.qubits}
    table = _backward(circuit, plan, coeffs, paulis, daggers, trace_out_each)
    return table.reshape(tuple(len(tables[q]) for q in plan.outcome_axes))


def _row_values(circuit, plan: ConePlan, tables, rows, coeffs, paulis) -> np.ndarray:
    """The group's weighted sum per row: each qubit is traced out against
    each row's own F^dagger, a (2, 2, 1, R) factor, once per distinct row of
    the cone's columns, in chunks (:func:`_chunks`) whose terms fold their
    own coefficients and add up, and scattered back."""
    uniq, inverse, _ = unique_rows(rows[:, plan.qubits])
    values = np.zeros(len(uniq), dtype=complex)
    for rs, ts in _chunks(len(uniq), len(paulis), plan.peak_active):
        daggers = {
            q: tables[q][uniq[rs, j]].conj().transpose(2, 1, 0)[:, :, None] for j, q in enumerate(plan.qubits)
        }
        values[rs] += _backward(circuit, plan, coeffs[ts], paulis[ts], daggers, multiply_trace_out)
    return values[inverse]


def _terms(circuit: MapCircuit, data, obs: Observable) -> tuple[np.ndarray, list[PauliString]]:
    """The coefficients and Pauli strings of ``obs``, once ``data`` and
    ``obs`` are checked to cover the circuit's register."""
    if data.num_qubits != circuit.num_qubits or obs.num_qubits != circuit.num_qubits:
        raise ValidationError("data, circuit, and observable qubit counts differ")
    return np.array([c for c, _ in obs.terms]), [ps for _, ps in obs.terms]


def evaluate_rows(circuit: MapCircuit, data, obs: Observable) -> np.ndarray:
    """sum_k c_k Tr[L(F_row) P_k] over the terms of ``obs`` for every row of
    ``data``, its weights aside: an (R,) array, zeros for no terms.

    ``data`` is a :class:`~virtualmap.estimation.ProductInputData`, whose
    rows are range-checked: ``tables[q]`` is an (M_q, 2, 2) array of input
    factors for qubit q and ``rows`` an (R, N) array picking one per qubit.
    Each support group (:func:`term_groups`) is one backward run over the
    light cone of the union of its supports, into an outcome table
    (:func:`_outcome_table`) or per distinct row (:func:`_row_values`) by the
    module's table rule (``ConePlan.table_cost``); qubits outside a group's
    cone contribute Tr F_q, and the groups are added in order.
    """
    coeffs, paulis = _terms(circuit, data, obs)
    tables, rows = data.tables, data.rows
    total = np.zeros(len(rows), dtype=complex)
    for group in term_groups(circuit, paulis):
        cs, ps = coeffs[list(group)], [paulis[k] for k in group]
        plan = cone_plan(circuit, sorted({q for p in ps for q in p.support}))
        values = _outside_traces(data, plan.qubits)
        if not plan.qubits:
            total += np.repeat(values[:, None], len(ps), axis=1) @ cs
            continue
        sizes = tuple(len(tables[q]) for q in plan.outcome_axes)
        cost, peak = plan.table_cost(sizes)
        if cost < plan.table_cost((1,) * len(sizes))[0] * len(rows) and peak * len(ps) <= _BATCH_ENTRIES:
            table = _outcome_table(circuit, plan, tables, cs, ps)
            total += values * table[tuple(rows[:, plan.outcome_axes].T)]
        else:
            total += values * _row_values(circuit, plan, tables, rows, cs, ps)
    return total


def _outside_traces(data, qubits) -> np.ndarray:
    """prod_q Tr F_q per row of ``data`` over the qubits q not in
    ``qubits``, an (R,) array: a column of ones times the rows' shared
    traces (``data.traces``) of each such qubit in turn, in place. One
    ``multiply.reduce`` over the gathered rows gives the same bits, but it
    copies them first and is the slower of the two on large batches."""
    values = np.ones(len(data.rows), dtype=complex)
    for q in range(data.num_qubits):
        if q not in qubits:
            values *= data.traces[q]
    return values


def _whole_register_chunks(circuit: MapCircuit, data, obs: Observable):
    """The (rows, terms) chunks (:func:`_chunks`) of ``data`` under ``obs``
    on the whole-register plan ``schedule(circuit)``: per chunk, the plan,
    the row slice, the rows' (2, 2, R, 1) factors, the terms' factors
    (:func:`_term_factors`) and their coefficients."""
    plan = schedule(circuit)
    coeffs, paulis = _terms(circuit, data, obs)
    tables, rows = data.tables, data.rows
    qubits = range(circuit.num_qubits)
    for row_chunk, term_chunk in _chunks(len(rows), len(paulis), plan.peak_active):
        ins = {q: tables[q][rows[row_chunk, q]].transpose(1, 2, 0)[..., None] for q in qubits}
        yield plan, row_chunk, ins, _term_factors(paulis[term_chunk], qubits), coeffs[term_chunk]


def evaluate_trace(circuit: MapCircuit, data, obs: Observable) -> np.ndarray:
    """sum_k c_k Tr[L(F_row) P_k] for every row of ``data``, taken and
    returned as by :func:`evaluate_rows`, with nothing pruned: the steps of
    ``schedule(circuit)`` run forwards over every qubit, one (rows, terms)
    chunk at a time. The reference the weight kernel is checked against."""
    values = np.zeros(len(data.rows), dtype=complex)
    for plan, rows, ins, outs, coeffs in _whole_register_chunks(circuit, data, obs):
        values[rows] += _run_steps(circuit, plan.steps, ins, outs)[1][0, 0] @ coeffs
    return values


def evaluate_trace_backward(circuit: MapCircuit, data, obs: Observable) -> np.ndarray:
    """sum_k c_k Tr[F_row L^dagger(P_k)] per row, as :func:`evaluate_trace`
    takes them: the steps of ``schedule(circuit)`` run in reverse order on
    the adjoint maps, the backward pass of a ``CutWalk``. Equals the forward
    value for Hermiticity-preserving circuits with Hermitian factors."""
    values = np.zeros(len(data.rows), dtype=complex)
    for plan, rows, ins, outs, coeffs in _whole_register_chunks(circuit, data, obs):
        values[rows] += _run_steps(circuit, plan.steps[::-1], outs, ins, backward=True)[1][0, 0] @ coeffs
    return values


# ---------------------------------------------------------------------------
# a step list cut at one component


class CutWalk:
    """The cuts of a step list at each of its components, and each cut's
    share of the objective M.

    Built from the steps (run as by :func:`_run_steps`), the in- and
    out-factors, the (R, T) weights of the batch items and each direction's
    start (active qubits, residual), by default the empty register;
    :meth:`dense` and :meth:`rows` build the walks of the two kinds of
    input. The cut at apply step c pairs the forward start run through
    ``steps[:c]`` with the backward start run backwards through
    ``steps[c + 1:]``. The forward residual is kept at one step and
    advanced, and a cut behind it starts again. Backward residual t (the last
    t steps) is kept for every s-th t, s = ceil(sqrt(L)) for L steps, and for
    the block of the last cut; others are recomputed from the kept one below.
    Components that are not the very objects of the previous call count as
    installed: an install drops the forward residual past its apply step and
    the backward ones through it. Every value is bit for bit that of the
    steps run from scratch, so a fresh walk is a cold cut. ``peak_bytes`` is
    the most the kept backward residuals held together. Forward applies are
    checked by :func:`check_trace_kept`; backward ones are not, since the
    adjoint of a trace-preserving map is unital and may change the trace.
    """

    def __init__(
        self, steps, in_factors, out_factors, weights,
        forward_start=_EMPTY_REGISTER, backward_start=_EMPTY_REGISTER,
    ):
        self._steps = tuple(steps)
        self._ins, self._outs = in_factors, out_factors
        self.weights = weights
        self._start = forward_start
        self._cuts = {s.component: p for p, s in enumerate(self._steps) if s.kind == "apply"}
        self._components: tuple = ()
        self._forward = (0, *forward_start)
        self._backward = {0: backward_start}
        self.peak_bytes = backward_start[1].nbytes

    @classmethod
    def dense(cls, circuit: MapCircuit, state, obs: Observable):
        """The walk of a dense state, a
        :class:`~virtualmap.densesim.DensityMatrix`, under ``obs``: one apply
        step per component on the whole register, from the state's matrix
        forward and the observable's backward, weight one. Yielded as
        :meth:`rows` yields its walks."""
        _terms(circuit, state, obs)
        whole = tuple(range(circuit.num_qubits))
        steps = [ScheduleStep("apply", component=j) for j in range(len(circuit.components))]
        forward, backward = (whole, state.matrix[..., None, None]), (whole, obs.matrix()[..., None, None])
        yield cls(steps, (), (), np.ones((1, 1)), forward, backward)

    @classmethod
    def rows(cls, circuit: MapCircuit, data, obs: Observable):
        """The walks of the product rows of ``data`` (as
        :func:`evaluate_rows` takes them) under ``obs``: per chunk of the
        (rows, terms) batch, a walk of the whole-register plan weighted by
        the rows' ``data.weights`` times the terms' coefficients. Yielded one
        at a time, so a cold walk is dropped once its chunk is summed."""
        for plan, rows, ins, outs, coeffs in _whole_register_chunks(circuit, data, obs):
            yield cls(plan.steps, ins, outs, data.weights[rows, None] * coeffs)

    def _backward_at(self, circuit: MapCircuit, t: int):
        steps, stored = self._steps, self._backward
        s = math.isqrt(len(steps) - 1) + 1
        base = max(u for u in stored if u <= t)
        state = stored[base]
        for u in [u for u in stored if u % s and u // s != t // s]:
            del stored[u]
        for u in range(base + 1, t + 1):
            step = steps[len(steps) - u]
            state = _run_steps(circuit, (step,), self._outs, self._ins, backward=True, start=state)
            if u % s == 0 or u // s == t // s:
                stored[u] = state
        self.peak_bytes = max(self.peak_bytes, sum(res.nbytes for _, res in stored.values()))
        return state

    def residuals(self, circuit: MapCircuit, index: int):
        """The cut at component ``index`` of ``circuit``: the qubits active
        there (ascending) and the forward and backward residuals on them."""
        if index not in self._cuts:
            raise ValidationError(f"no component {index} in circuit")
        comps, cut = circuit.components, self._cuts[index]
        installed = [self._cuts[j] for j, (a, b) in enumerate(zip(comps, self._components)) if a is not b]
        if installed:
            if self._forward[0] > min(installed):
                self._forward = (0, *self._start)
            through = len(self._steps) - max(installed)
            for t in [t for t in self._backward if t >= through]:
                del self._backward[t]
        self._components = comps
        p, *state = self._forward
        if p > cut:
            p, state = 0, self._start
        for step in self._steps[p:cut]:
            before = state[1]
            state = _run_steps(circuit, (step,), self._ins, self._outs, start=state)
            if step.kind == "apply":
                check_trace_kept(before, state[1], comps[step.component].map)
        self._forward = (cut, *state)
        _, res_b = self._backward_at(circuit, len(self._steps) - 1 - cut)
        return state[0], state[1], res_b

    def objective(self, circuit: MapCircuit, index: int) -> np.ndarray:
        """This walk's share of M at component ``index``, the (ds^2, ds^2)
        matrix with Tr[C M] the energy of Choi matrix C there: M[(y,X),(x,Y)]
        = sum_{i,k} weight_ik sum_{w,u} r[x,w,y,u] rbar[X,u,Y,w] for the
        residuals r, rbar of item (i, k), rows (x, w) and columns (y, u)
        split into support (in component order) and spectators. Each
        residual is transposed once from its (2,) * 2a + batch tensor into
        the operands of one matmul over (i, k, w, u)."""
        active, res_f, res_b = self.residuals(circuit, index)
        support = circuit.components[index].qubits
        a, ds = len(active), 2 ** len(support)
        x = [active.index(q) for q in support]  # the support's row axes
        w = [p for p, q in enumerate(active) if q not in support]  # the spectators'
        y, u, b = [a + p for p in x], [a + p for p in w], [2 * a, 2 * a + 1]
        batch = np.broadcast_shapes(res_f.shape[2:], res_b.shape[2:])
        weights = self.weights.reshape(self.weights.shape + (1,) * (2 * len(w)))
        fwd = res_f.reshape((2,) * (2 * a) + res_f.shape[2:]).transpose(x + y + b + w + u)
        lhs = np.multiply(fwd, weights, order="C").reshape(ds * ds, -1)
        # the forward residual's spectator rows meet the backward one's columns
        bwd = res_b.reshape((2,) * (2 * a) + res_b.shape[2:]).transpose(b + u + w + x + y)
        rhs = np.broadcast_to(bwd, batch + bwd.shape[2:]).reshape(-1, ds * ds)
        m = (lhs @ rhs).reshape(ds, ds, ds, ds).transpose(1, 2, 0, 3)
        return m.reshape(ds * ds, ds * ds)


# ---------------------------------------------------------------------------
# circuit files


def circuit_to_dict(circuit: MapCircuit) -> dict:
    return {
        "num_qubits": circuit.num_qubits,
        "components": [
            {"qubits": list(c.qubits), "map": map_to_payload(c.map)} for c in circuit.components
        ],
    }


def component_from_dict(entry) -> Component:
    """The component of a circuit or state-prep step ``{"qubits": [...],
    "map": ...}``; other keys, such as an older file's ``"layer"``, are
    ignored."""
    try:
        qubits = tuple(json_int(q, "qubit") for q in entry["qubits"])
        spec = entry["map"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed step {entry!r}: {exc}") from exc
    return Component(qubits, map_from_spec(spec, len(qubits)))


def circuit_from_dict(payload: dict) -> MapCircuit:
    if not isinstance(payload, dict):
        raise ValidationError("circuit payload must be a JSON object")
    try:
        n = json_int(payload["num_qubits"], "num_qubits")
        raw = payload["components"]
    except KeyError as exc:
        raise ValidationError(f"circuit payload missing field {exc}") from exc
    if not isinstance(raw, list):
        raise ValidationError("circuit components must be a JSON list")
    return MapCircuit(n, tuple(map(component_from_dict, raw)))


def save_circuit(circuit: MapCircuit, path) -> None:
    Path(path).write_text(json.dumps(circuit_to_dict(circuit)) + "\n")


def load_circuit(path) -> MapCircuit:
    return circuit_from_dict(parse_json(read_text(path, "circuit file"), "circuit file"))
