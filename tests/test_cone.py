"""Circuit containers, light-cone plans, trace evaluation, split form."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_all_close,
    cut_pair,
    json_junk,
    kernel_circuits,
    kernel_observable,
    map_specs,
    one_row,
    one_term,
    random_mixed_circuit,
    random_product_duals,
    reference_objective,
    small_or_junk,
    split_pairs,
    split_value,
)
from virtualmap import cone
from virtualmap.cone import (
    Component,
    CutWalk,
    MapCircuit,
    _cone,
    _plan,
    brickwork,
    circuit_from_dict,
    circuit_to_dict,
    cone_plan,
    evaluate_rows,
    evaluate_trace,
    evaluate_trace_backward,
    load_circuit,
    save_circuit,
    schedule,
    staircase,
    term_groups,
)
from virtualmap.densesim import noisy_chain_state
from virtualmap.errors import ValidationError
from virtualmap.estimation import ProductInputData, classical_input, dual_arrays
from virtualmap.linalg import (
    apply_superop_local,
    insert_factor,
    kron_all,
    multiply_trace_out,
    trace_mul,
    trace_out_each,
    unique_rows,
)
from virtualmap.maps import (
    LocalMap,
    cnot_map,
    depolarizing_map,
    identity_map,
    random_cptp_map,
    random_tp_hermitian_map,
    random_unitary_map,
)
from virtualmap.pauli import Observable, PauliString, xx_hamiltonian
from virtualmap.povm import compute_duals, make_sic_povm


def _qubit_permutation(n, front):
    """Unitary that moves the listed qubits to the leading positions."""
    order = list(front) + [q for q in range(n) if q not in front]
    dim = 2**n
    w = np.zeros((dim, dim))
    for x in range(dim):
        bits = [(x >> (n - 1 - p)) & 1 for p in range(n)]
        y = 0
        for p in range(n):
            y |= bits[order[p]] << (n - 1 - p)
        w[y, x] = 1.0
    return w


def _apply_front(matrix, superop, n, arity):
    """Apply a superoperator to the leading qubits by direct index contraction."""
    d_loc = 2**arity
    rest = 2 ** (n - arity)
    s4 = np.reshape(superop, (d_loc, d_loc, d_loc, d_loc), order="F")
    x4 = np.reshape(matrix, (d_loc, rest, d_loc, rest))
    out = np.einsum("ijkl,kalb->iajb", s4, x4)
    return np.reshape(out, (d_loc * rest, d_loc * rest))


def _dense_circuit_value(circuit, factors, letters):
    """Independent oracle: Tr[Lambda(kron factors) P] via global matrices only."""
    n = circuit.num_qubits
    op = kron_all(list(factors))
    for comp in circuit.components:
        w = _qubit_permutation(n, comp.qubits)
        moved = w @ op @ w.T
        moved = _apply_front(moved, comp.map.superop, n, len(comp.qubits))
        op = w.T @ moved @ w
    pmat = PauliString(letters).matrix()
    return trace_mul(op, pmat)


class TestContainers:
    def test_component_validation(self):
        with pytest.raises(ValidationError):
            Component((0, 0), cnot_map())
        with pytest.raises(ValidationError):
            Component((0,), cnot_map())
        # an empty component would sit in no qubit's cone and never be applied
        with pytest.raises(ValidationError, match="at least one qubit"):
            Component((), LocalMap(np.array([[2.0]])))

    def test_register_range_is_the_only_circuit_check(self):
        # any order of overlapping supports is a circuit; list order is
        # application order
        comps = (Component((1, 2), cnot_map()), Component((0, 1), cnot_map()))
        assert MapCircuit(3, comps).supports == ((1, 2), (0, 1))
        with pytest.raises(ValidationError, match="outside register"):
            MapCircuit(2, comps)

    def test_builder_component_counts(self):
        assert len(brickwork(6, 1).components) == 3
        assert len(brickwork(7, 1).components) == 3
        assert len(brickwork(4, 2).components) == 3
        assert len(brickwork(6, 2).components) == 5
        assert len(staircase(6, 1).components) == 5
        assert len(staircase(4, 2).components) == 6

    def test_brickwork_layer_structure(self):
        assert brickwork(6, 2).supports == ((0, 1), (2, 3), (4, 5), (1, 2), (3, 4))
        # an odd register leaves its last qubit idle in the odd layers
        assert brickwork(5, 2).supports == ((0, 1), (2, 3), (1, 2), (3, 4))

    def test_staircase_is_sequential(self):
        assert staircase(4, 1).supports == ((0, 1), (1, 2), (2, 3))
        assert staircase(4, 2).supports == ((0, 1), (1, 2), (2, 3)) * 2

    def test_builders_pass_the_layer_to_the_factory(self):
        seen = []
        brickwork(4, 3, lambda layer, qubits: seen.append((layer, qubits)) or cnot_map())
        assert seen == [(1, (0, 1)), (1, (2, 3)), (2, (1, 2)), (3, (0, 1)), (3, (2, 3))]

    def test_with_component_replaces_map(self):
        circ = brickwork(4, 1)
        new = circ.with_component(1, depolarizing_map(1.0, arity=2))
        assert new.components[1].map is not circ.components[1].map
        assert new.components[0].map is circ.components[0].map
        assert new.components[1].qubits == circ.components[1].qubits

    def test_inverse_reverses_and_inverts(self):
        rng = np.random.default_rng(0)
        circ = brickwork(4, 2, lambda layer, qubits: random_unitary_map(2, rng))
        inv = circ.inverse()
        assert [c.qubits for c in inv.components] == [
            c.qubits for c in reversed(circ.components)
        ]
        # composed action is identity on a test operand
        duals = random_product_duals(4, np.random.default_rng(1))
        combined = MapCircuit(4, circ.components + inv.components)
        for letters in ("ZIII", "XYZX"):
            got = evaluate_trace(combined, one_row(duals), one_term(letters))[0]
            want = trace_mul(kron_all(list(duals)), PauliString(letters).matrix())
            assert abs(got - want) < 1e-10


def _check_plan(circuit, plan, support):
    """Structural invariants of a whole-trace plan for an output ``support``.

    Exactly the plan's qubits (a superset of the support) are absorbed once
    and traced once, after absorption. Every applied component acts on active
    qubits only, once, after every earlier component overlapping it. Every
    component left out is trace preserving and touches no support qubit, so
    dropping it leaves the trace unchanged. The recorded peak is the actual
    one.
    """
    absorbed, traced, applied = set(), set(), set()
    active = peak = 0
    for step in plan.steps:
        if step.kind == "absorb":
            assert step.qubit not in absorbed, f"qubit {step.qubit} absorbed twice"
            absorbed.add(step.qubit)
            active += 1
            peak = max(peak, active)
        elif step.kind == "apply":
            ci = step.component
            assert ci not in applied, f"component {ci} applied twice"
            comp = circuit.components[ci]
            for pred in range(ci):
                overlaps = set(circuit.components[pred].qubits) & set(comp.qubits)
                assert pred in applied or not overlaps, f"{ci} applied before {pred}"
            assert all(q in absorbed and q not in traced for q in comp.qubits), ci
            applied.add(ci)
        else:
            assert step.kind == "trace", step.kind
            assert step.qubit in absorbed and step.qubit not in traced, step.qubit
            traced.add(step.qubit)
            active -= 1
    assert absorbed == traced == set(plan.qubits) >= set(support)
    for ci, comp in enumerate(circuit.components):
        if ci not in applied:
            vec_eye = np.eye(comp.map.dim).reshape(-1)
            assert np.max(np.abs(vec_eye @ comp.map.superop - vec_eye)) <= 1e-12, ci
            assert not set(comp.qubits) & set(support), ci
    assert peak == plan.peak_active


class TestSchedule:
    def test_peak_active_bound_brickwork(self):
        for n, layers in [(4, 1), (6, 1), (6, 2), (8, 3)]:
            circ = brickwork(n, layers)
            sched = schedule(circ)
            assert sched.peak_active <= layers + 1
            _check_plan(circ, sched, range(n))

    def test_staircase_peak(self):
        circ = staircase(6, 1)
        sched = schedule(circ)
        assert sched.peak_active <= 2
        _check_plan(circ, sched, range(6))

    def test_infeasible_cap_raises(self):
        # complete graph on 4 qubits: every pair coupled in sequence, so no
        # order of the sweep stays within 3 active qubits
        pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        circ = MapCircuit(4, tuple(Component(p, cnot_map()) for p in pairs))
        sched = schedule(circ)
        assert sched.peak_active == 4
        _check_plan(circ, sched, range(4))

    def test_validate_rejects_foreign_schedule(self):
        a = schedule(brickwork(4, 1))
        with pytest.raises(AssertionError):
            _check_plan(brickwork(6, 1), a, range(6))

    def test_schedule_steps_cover_register(self):
        circ = brickwork(6, 2)
        sched = schedule(circ)
        absorbed = sorted(s.qubit for s in sched.steps if s.kind == "absorb")
        traced = sorted(s.qubit for s in sched.steps if s.kind == "trace")
        assert absorbed == list(range(6))
        assert traced == list(range(6))
        applied = [s.component for s in sched.steps if s.kind == "apply"]
        assert sorted(applied) == list(range(len(circ.components)))

    def test_with_component_computes_only_the_new_maps_tp_residual(self):
        rng = np.random.default_rng(16)
        circ = brickwork(6, 2, lambda layer, qubits: random_cptp_map(2, rng))
        assert all(circ.trace_preserving)
        # plant a non-TP residual in every cached one: only a recomputation
        # could flag these maps trace preserving again
        for comp in circ.components:
            vars(comp.map)["tp_residual"] = 1.0
        again = circ.with_component(3, identity_map(2))
        assert again.trace_preserving == tuple(k == 3 for k in range(len(circ.components)))

    def test_schedule_is_the_cone_of_every_qubit(self):
        rng = np.random.default_rng(15)
        for n in (2, 3, 5, 7):
            circ = random_mixed_circuit(n, rng, max_layers=3)
            assert schedule(circ) is cone_plan(circ, tuple(range(n)))
            # the backward pass runs the same plan in reverse, with no plan of its own
            misses = _plan.cache_info().misses
            evaluate_trace_backward(circ, one_row([np.eye(2)] * n), one_term("Z" * n))
            assert _plan.cache_info().misses == misses

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_plan_matches_the_per_pick_closure_greedy(self, data):
        """Every plan is step for step the one of the reference greedy, which
        recomputes each pending qubit's closure at every pick."""
        n = data.draw(st.integers(1, 9), label="n")
        component = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
        supports = tuple(map(tuple, data.draw(st.lists(component, max_size=14), label="supports")))
        tp = data.draw(st.none() | st.tuples(*[st.booleans()] * len(supports)), label="tp")
        output = st.just(range(n)) | st.sets(st.integers(0, n - 1))
        support = tuple(sorted(data.draw(output, label="support")))
        cone_misses = _cone.cache_info().misses
        plan = _plan(supports, tp, support)
        # the per-qubit cones of a schedule bypass the shared memo
        assert _cone.cache_info().misses - cone_misses <= 1
        members, qubits = _cone(supports, tp, support)
        want, peak = _reference_schedule(supports, members, qubits)
        assert plan.qubits == qubits
        assert [(s.kind, s.qubit, s.component) for s in plan.steps] == want
        assert plan.peak_active == peak


def _reference_schedule(supports, pool, traceable):
    """The greedy sweep as a per-pick closure: at every pick, each pending
    qubit's cone is the downward closure, under earlier overlapping
    components, of the unapplied pool components touching it. The first
    pending qubit of least active-set size wins. Returns ((kind, qubit,
    component) steps, peak)."""
    remaining = set(pool)
    active, absorbed, steps, peak = set(), set(), [], 0

    def closure(q):
        chosen = {ci for ci in remaining if q in supports[ci]}
        work = list(chosen)
        while work:
            ci = work.pop()
            for p in remaining - chosen:
                if p < ci and set(supports[p]) & set(supports[ci]):
                    chosen.add(p)
                    work.append(p)
        return sorted(chosen)

    def absorb(q):
        if q not in absorbed:
            steps.append(("absorb", q, None))
            absorbed.add(q)
            active.add(q)

    pending = sorted(traceable)
    while pending:
        best = None
        for q in pending:
            cone = closure(q)
            cost = len(active | {q} | {qq for ci in cone for qq in supports[ci]})
            if best is None or cost < best[0]:
                best = (cost, q, cone)
        _, q, cone = best
        for ci in cone:
            for qq in sorted(supports[ci]):
                absorb(qq)
            steps.append(("apply", None, ci))
            remaining.discard(ci)
            peak = max(peak, len(active))
        absorb(q)
        peak = max(peak, len(active))
        steps.append(("trace", q, None))
        active.discard(q)
        pending.remove(q)
    return steps, peak


class TestEvaluateTrace:
    def test_empty_circuit_factorizes(self):
        rng = np.random.default_rng(7)
        duals = random_product_duals(3, rng)
        circ = MapCircuit(3, ())
        for letters in ("III", "XYZ", "ZZI"):
            got = evaluate_trace(circ, one_row(duals), one_term(letters))[0]
            want = 1.0
            for d, ch in zip(duals, letters):
                want *= trace_mul(d, PauliString(ch).matrix())
            assert abs(got - want) < 1e-12

    def test_tp_circuit_identity_observable(self):
        rng = np.random.default_rng(3)
        circ = brickwork(5, 2, lambda layer, qubits: random_cptp_map(2, rng))
        duals = random_product_duals(5, rng)
        # trace of each dual is 1, so Tr[Lambda(D)] must be 1 for TP maps
        got = evaluate_trace(circ, one_row(duals), one_term("IIIII"))[0]
        assert abs(got - 1.0) < 1e-10

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(6):
            n = int(rng.integers(2, 5))
            circ = random_mixed_circuit(n, rng)
            duals = random_product_duals(n, rng)
            letters = "".join(rng.choice(list("IXYZ"), size=n))
            got = evaluate_trace(circ, one_row(duals), one_term(letters))[0]
            want = _dense_circuit_value(circ, duals, letters)
            assert abs(got - want) < 1e-10 * (1 + abs(want))

    def test_forward_equals_backward(self):
        rng = np.random.default_rng(13)
        for trial in range(5):
            n = int(rng.integers(2, 6))
            circ = random_mixed_circuit(n, rng)
            duals = random_product_duals(n, rng)
            letters = "".join(rng.choice(list("IXYZ"), size=n))
            f = evaluate_trace(circ, one_row(duals), one_term(letters))[0]
            b = evaluate_trace_backward(circ, one_row(duals), one_term(letters))[0]
            assert abs(f - b) < 1e-12 * (1 + abs(f))

    def test_linearity_in_component(self):
        rng = np.random.default_rng(19)
        circ = brickwork(4, 2, lambda layer, qubits: random_cptp_map(2, rng))
        duals = random_product_duals(4, rng)
        p = PauliString("ZXYI")
        m_a = random_cptp_map(2, rng)
        m_b = random_cptp_map(2, rng)
        from virtualmap.maps import LocalMap

        mix = LocalMap(0.3 * m_a.superop + 0.7 * m_b.superop)
        vals = [
            evaluate_trace(circ.with_component(1, m), one_row(duals), one_term(p))[0]
            for m in (m_a, m_b, mix)
        ]
        assert abs(0.3 * vals[0] + 0.7 * vals[1] - vals[2]) < 1e-12

    def test_backward_runs_adjoint_maps_on_the_observable(self):
        # Random complex superoperators do not preserve Hermiticity, so the
        # forward value cannot stand in for the backward one here: only the
        # adjoint maps applied to each P_k in reverse order, then traced
        # against each row's F, reproduce sum_k c_k Tr[(x)F . Ldag((x)P_k)].
        rng = np.random.default_rng(29)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        for n in (3, 4, 5):
            circ = brickwork(n, 3, lambda layer, qubits: LocalMap(cplx(16, 16) / 4.0))
            tables = list(cplx(n, 3, 2, 2))
            rows = rng.integers(0, 3, size=(4, n))
            obs = Observable.from_terms(
                n, [(complex(c), "".join(rng.choice(list("IXYZ"), size=n))) for c in cplx(3)]
            )
            want = np.zeros(len(rows), dtype=complex)
            for coeff, pauli in obs.terms:
                op = pauli.matrix()
                for comp in reversed(circ.components):
                    w = _qubit_permutation(n, comp.qubits)
                    moved = _apply_front(w @ op @ w.T, comp.map.superop.conj().T, n, 2)
                    op = w.T @ moved @ w
                for r, row in enumerate(rows):
                    want[r] += coeff * np.trace(kron_all([t[m] for t, m in zip(tables, row)]) @ op)
            got = evaluate_trace_backward(circ, _data(tables, rows), obs)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), n


class TestWholeRegisterReferences:
    """``evaluate_trace`` and ``evaluate_trace_backward`` take
    ``(circuit, data, obs)`` as the weight kernel does and return one value
    per row."""

    @staticmethod
    def _case(rng, n=4, count=9):
        circ = random_mixed_circuit(n, rng)
        letters = ("ZIXY"[:n], "IXXI"[:n], "YZIZ"[:n], "I" * n)
        obs = Observable.from_terms(n, list(zip(_random_coeffs(len(letters), rng), letters)))
        return circ, _random_tables(n, rng, outcomes=3), rng.integers(0, 3, size=(count, n)), obs

    def test_non_finite_tables_reach_no_reference(self):
        # a NaN factor once reached the references and gave a NaN trace
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="non-finite"):
                one_row([np.full((2, 2), bad)] * 3)

    @pytest.mark.parametrize("entry", ["forward", "backward"])
    def test_rows_and_terms_match_the_dense_oracle(self, entry):
        rng = np.random.default_rng(101)
        run = evaluate_trace if entry == "forward" else evaluate_trace_backward
        for n in (2, 3, 4):
            circ, tables, rows, obs = self._case(rng, n)
            got = run(circ, _data(tables, rows), obs)
            assert got.shape == (len(rows),)
            for r, row in enumerate(rows):
                factors = [t[m] for t, m in zip(tables, row)]
                want = sum(c * _dense_circuit_value(circ, factors, ps.letters) for c, ps in obs.terms)
                assert abs(got[r] - want) <= 1e-10 * (1 + abs(want)), (n, r)

    @pytest.mark.parametrize("per_chunk", ["rows", "terms"])
    def test_chunked_batches_match_the_unsplit_run(self, monkeypatch, per_chunk):
        import virtualmap.cone as cone_module

        rng = np.random.default_rng(102)
        circ, tables, rows, obs = self._case(rng, count=11)
        data = _data(tables, rows)
        whole = [run(circ, data, obs) for run in (evaluate_trace, evaluate_trace_backward)]
        item = 4 ** schedule(circ).peak_active
        # three rows of all the terms, or two terms of one row, per chunk
        budget = 3 * len(obs.terms) * item if per_chunk == "rows" else 2 * item
        monkeypatch.setattr(cone_module, "_BATCH_ENTRIES", budget)
        chunks = list(cone_module._chunks(len(rows), len(obs.terms), schedule(circ).peak_active))
        assert len({rs.start for rs, _ in chunks}) > 1
        assert (len({ts.start for _, ts in chunks}) > 1) == (per_chunk == "terms")
        for run, want in zip((evaluate_trace, evaluate_trace_backward), whole):
            got = run(circ, data, obs)
            assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-12

    def test_no_terms_give_zeros(self):
        rng = np.random.default_rng(103)
        circ, tables, rows, _ = self._case(rng)
        for run in (evaluate_trace, evaluate_trace_backward):
            got = run(circ, _data(tables, rows), Observable.from_terms(4, []))
            assert got.dtype == complex and got.shape == (len(rows),)
            assert not np.any(got)

    @pytest.mark.parametrize("other", ["data", "observable"])
    @pytest.mark.parametrize(
        "entry",
        ["evaluate_rows", "evaluate_trace", "evaluate_trace_backward", "CutWalk.rows", "CutWalk.dense"],
    )
    def test_another_register_is_refused_by_every_entry_point(self, entry, other):
        circ = brickwork(4, 1)
        sizes = {"data": 3, "observable": 4} if other == "data" else {"data": 4, "observable": 3}
        obs = one_term("Z" * sizes["observable"])
        if entry == "CutWalk.dense":
            data = noisy_chain_state(sizes["data"])
        else:
            data = _data(dual_arrays("sic", sizes["data"]), np.zeros((2, sizes["data"]), dtype=int))
        runs = {
            "evaluate_rows": evaluate_rows,
            "evaluate_trace": evaluate_trace,
            "evaluate_trace_backward": evaluate_trace_backward,
            "CutWalk.rows": lambda *args: list(CutWalk.rows(*args)),
            "CutWalk.dense": lambda *args: list(CutWalk.dense(*args)),
        }
        with pytest.raises(ValidationError, match="qubit counts differ"):
            runs[entry](circ, data, obs)


def _general_circuit(rng):
    """Non-layered circuit mixing one- and two-qubit maps on N=5."""
    comps = (
        Component((0, 2), random_cptp_map(2, rng)),
        Component((3,), random_unitary_map(1, rng)),
        Component((4, 1), random_tp_hermitian_map(2, rng)),
        Component((2, 3), random_cptp_map(2, rng)),
        Component((0,), random_tp_hermitian_map(1, rng)),
    )
    return MapCircuit(5, comps)


def _random_tables(n, rng, outcomes=5):
    """Per-qubit factor tables of Hermitian 2x2 matrices with Tr != 1."""
    tables = []
    for _ in range(n):
        g = rng.standard_normal((outcomes, 2, 2)) + 1j * rng.standard_normal((outcomes, 2, 2))
        tables.append(g + g.conj().transpose(0, 2, 1))
    return tables


def _per_row(circuit, tables, rows, pauli):
    """The whole-register reference of one term with coefficient one."""
    return evaluate_trace(circuit, _data(tables, rows), one_term(pauli))


def _scaled_identity(arity, scale):
    return LocalMap(scale * identity_map(arity).superop)


def _data(tables, rows):
    """Rows of weight one over ``tables``, as the kernel takes them."""
    return ProductInputData(np.ones(len(rows)), tables, rows)


def _rows(circuit, tables, rows, terms):
    """evaluate_rows of the observable of the (coefficient, Pauli string)
    ``terms``: their weighted sum per row."""
    return evaluate_rows(circuit, _data(tables, rows), Observable.from_terms(circuit.num_qubits, terms))


def _one(circuit, tables, rows, pauli):
    """evaluate_rows of one term with coefficient one: its per-row values."""
    return _rows(circuit, tables, rows, [(1.0, pauli)])


def _random_coeffs(count, rng):
    return rng.standard_normal(count) + 1j * rng.standard_normal(count)


def _one_row_entries(plan):
    """Residual entries of one row's backward run: the table of one outcome."""
    return plan.table_cost((1,) * len(plan.qubits))[0]


def _assert_table_is_per_row(circ, plan, tables, coeffs, paulis, table):
    """The outcome table equals the per-row run on every outcome of the
    plan's qubits."""
    import virtualmap.cone as cone_module

    sizes = [len(tables[q]) for q in plan.outcome_axes]
    outcomes = np.array(np.meshgrid(*map(range, sizes), indexing="ij")).reshape(len(sizes), -1).T
    rows = np.zeros((len(outcomes), circ.num_qubits), dtype=int)
    rows[:, plan.outcome_axes] = outcomes
    per_row = cone_module._row_values(circ, plan, tables, rows, coeffs, paulis)
    assert table.shape == tuple(sizes)
    assert np.max(np.abs(table[tuple(outcomes.T)] - per_row) / (1.0 + np.abs(per_row))) <= 1e-12


def _assert_weighted_sum(got, coeffs, per_term):
    """got equals sum_t coeffs[t] per_term[t] within 1e-12 of the sum of the
    terms' magnitudes, plus one."""
    want = sum(c * v for c, v in zip(coeffs, per_term))
    scale = 1.0 + sum(abs(c) * np.abs(v) for c, v in zip(coeffs, per_term))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want) / scale) <= 1e-12


class TestBatchedKernel:
    def test_helpers_match_item_by_item(self):
        rng = np.random.default_rng(41)
        for n in (1, 2, 3):
            d = 2**n
            # the batch axis trails the operator axes
            ops = np.moveaxis(
                rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d)), 0, -1
            )
            factors = np.moveaxis(
                rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2)), 0, -1
            )
            for slot in range(n + 1):
                got = insert_factor(ops, factors, slot, n)
                shared = insert_factor(ops, factors[..., 0], slot, n)
                for b in range(4):
                    one = ops[..., b : b + 1]
                    want = insert_factor(one, factors[..., b], slot, n)[..., 0]
                    assert_all_close(got[..., b], want, 1e-14)
                    want = insert_factor(one, factors[..., 0], slot, n)[..., 0]
                    assert_all_close(shared[..., b], want, 1e-14)
            for pos in range(n):
                got = multiply_trace_out(ops, factors, pos, n)
                for b in range(4):
                    want = multiply_trace_out(ops[..., b : b + 1], factors[..., b], pos, n)[..., 0]
                    assert_all_close(got[..., b], want, 1e-14)
            superop = random_cptp_map(1, rng).superop
            for pos in range(n):
                got = apply_superop_local(ops, superop, [pos], n)
                for b in range(4):
                    want = apply_superop_local(ops[..., b : b + 1], superop, [pos], n)[..., 0]
                    assert_all_close(got[..., b], want, 1e-14)

    def test_two_batch_axes_match_tiled_single_axis(self):
        rng = np.random.default_rng(50)
        rows, terms = 3, 4

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        def batch_last(x):
            return np.moveaxis(x, (0, 1), (-2, -1))

        def tiled(f):
            f = f.reshape(f.shape + (1,) * (4 - f.ndim))
            return np.broadcast_to(f, (2, 2, rows, terms)).reshape(2, 2, -1)

        factors = {
            "per-row": batch_last(cplx(rows, 1, 2, 2)),
            "per-term": batch_last(cplx(1, terms, 2, 2)),
            "shared": cplx(2, 2),
        }
        for n in (1, 2, 3):
            d = 2**n
            ops = batch_last(cplx(rows, terms, d, d))
            flat = ops.reshape(d, d, -1)
            for label, f in factors.items():
                for slot in range(n + 1):
                    got = insert_factor(ops, f, slot, n)
                    want = insert_factor(flat, tiled(f), slot, n)
                    assert_all_close(got.reshape(want.shape), want, 1e-14, label)
                for pos in range(n):
                    got = multiply_trace_out(ops, f, pos, n)
                    want = multiply_trace_out(flat, tiled(f), pos, n)
                    assert_all_close(got.reshape(want.shape), want, 1e-14, label)
            # a per-row residual meets a per-term factor: the (rows, terms)
            # batch forms by broadcasting
            per_row = ops[..., :1]
            got = multiply_trace_out(per_row, factors["per-term"], 0, n)
            assert got.shape == (d // 2, d // 2, rows, terms)
            want = multiply_trace_out(
                np.repeat(per_row, terms, axis=-1).reshape(d, d, -1), tiled(factors["per-term"]), 0, n
            )
            assert_all_close(got.reshape(want.shape), want, 1e-14)
            superop = random_cptp_map(1, rng).superop
            for pos in range(n):
                got = apply_superop_local(ops, superop, [pos], n)
                want = apply_superop_local(flat, superop, [pos], n)
                assert_all_close(got.reshape(want.shape), want, 1e-14)

    def test_trace_out_each_traces_against_every_factor(self):
        rng = np.random.default_rng(56)
        factors = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
        for n in (1, 2, 3):
            d = 2**n
            op = rng.standard_normal((d, d, 2, 5)) + 1j * rng.standard_normal((d, d, 2, 5))
            for pos in range(n):
                got = trace_out_each(op, factors, pos, n)
                assert got.shape == (d // 2, d // 2, 2, 5 * 6)
                for m, f in enumerate(factors):
                    assert_all_close(got[..., m::6], multiply_trace_out(op, f, pos, n), 1e-14)

    def test_insert_then_trace_out_recovers_operator(self):
        rng = np.random.default_rng(42)
        ops = np.moveaxis(rng.standard_normal((3, 4, 4)) + 0j, 0, -1)
        rho = np.array([[1.0, 0.0], [0.0, 0.0]])
        for slot in range(3):
            grown = insert_factor(ops, rho, slot, 2)
            assert_all_close(multiply_trace_out(grown, np.eye(2), slot, 3), ops, 1e-14)

    @pytest.mark.parametrize("kind", ["brickwork", "staircase", "general"])
    def test_evaluate_rows_matches_per_row_traces(self, kind):
        rng = np.random.default_rng({"brickwork": 43, "staircase": 44, "general": 45}[kind])
        if kind == "brickwork":
            circ = random_mixed_circuit(5, rng)
        elif kind == "staircase":
            circ = staircase(5, 1, lambda layer, qubits: random_tp_hermitian_map(2, rng))
        else:
            circ = _general_circuit(rng)
        tables = _random_tables(5, rng)
        rows = rng.integers(0, 5, size=(30, 5))
        rows[10:15] = rows[:5]  # repeated rows share one contraction
        paulis = [PauliString(p) for p in ("ZIIII", "IIIXY", "XIZIY", "IIIII", "YXZXI")]
        coeffs = _random_coeffs(len(paulis), rng)
        total = _rows(circ, tables, rows, list(zip(coeffs, paulis)))
        assert total.shape == (30,)
        wants = []
        for pauli in paulis:
            got = _one(circ, tables, rows, pauli)
            want = _per_row(circ, tables, rows, pauli)
            assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-12, pauli
            wants.append(want)
        _assert_weighted_sum(total, coeffs, wants)

    def test_trace_preserving_components_outside_cone_are_pruned(self):
        rng = np.random.default_rng(46)
        circ = brickwork(8, 2, lambda layer, qubits: random_cptp_map(2, rng))
        plan = cone_plan(circ, PauliString("ZIIIIIII").support)
        assert plan.qubits == (0, 1)
        assert [s.component for s in plan.steps if s.kind == "apply"] == [0]
        assert cone_plan(circ, (0,)) is plan  # cached per support
        wide = cone_plan(circ, PauliString("IIIZZIII").support)
        assert wide.qubits == (2, 3, 4, 5)

    def test_non_tp_component_outside_cone_is_kept(self):
        rng = np.random.default_rng(47)
        leaky = _scaled_identity(2, 0.9)
        circ = brickwork(6, 1, lambda layer, qubits: random_cptp_map(2, rng))
        circ = circ.with_component(2, leaky)  # acts on (4, 5), far from qubit 0
        pauli = PauliString("ZIIIII")
        plan = cone_plan(circ, pauli.support)
        assert set(plan.qubits) == {0, 1, 4, 5}
        tables = _random_tables(6, rng, outcomes=3)
        rows = rng.integers(0, 3, size=(12, 6))
        got = _one(circ, tables, rows, pauli)
        assert np.max(np.abs(got - _per_row(circ, tables, rows, pauli))) <= 1e-12
        tp_only = circ.with_component(2, identity_map(2))
        assert np.max(np.abs(got - 0.9 * _one(tp_only, tables, rows, pauli))) <= 1e-12

    def test_identity_term_cone(self):
        rng = np.random.default_rng(48)
        tables = _random_tables(4, rng, outcomes=3)
        rows = rng.integers(0, 3, size=(10, 4))
        pauli = PauliString("IIII")
        circ = brickwork(4, 2, lambda layer, qubits: random_cptp_map(2, rng))
        assert cone_plan(circ, pauli.support).qubits == ()
        traces = np.prod(
            [np.trace(tables[q][rows[:, q]], axis1=1, axis2=2) for q in range(4)], axis=0
        )
        assert np.max(np.abs(_one(circ, tables, rows, pauli) - traces)) <= 1e-12
        leaky = circ.with_component(1, _scaled_identity(2, 0.9))
        assert cone_plan(leaky, pauli.support).qubits != ()
        got = _one(leaky, tables, rows, pauli)
        assert np.max(np.abs(got - _per_row(leaky, tables, rows, pauli))) <= 1e-12

    def test_cut_pair_batch_matches_single_rows(self):
        rng = np.random.default_rng(49)
        circ = random_mixed_circuit(5, rng)
        duals = [random_product_duals(5, rng) for _ in range(4)]
        letters = ["XZIYX", "IIZZI", "YIIIX", "IIIII"]
        for index in range(len(circ.components)):
            # rows on the first batch axis, terms on the second, both behind
            # the operator axes
            ins = [np.stack([d[q] for d in duals], axis=-1)[..., None] for q in range(5)]
            outs = [
                np.stack([PauliString(p).matrices()[q] for p in letters], axis=-1)[:, :, None]
                for q in range(5)
            ]
            r, rbar = cut_pair(circ, index, ins, outs)
            assert r.shape[-2:] == rbar.shape[-2:] == (4, 4)
            for b in range(4):
                for t in range(4):
                    pauli = PauliString(letters[t])
                    one_r, one_rbar = cut_pair(circ, index, duals[b], pauli.matrices())
                    assert_all_close(r[..., b, t], one_r[..., 0, 0], 1e-12)
                    assert_all_close(rbar[..., b, t], one_rbar[..., 0, 0], 1e-12)
                pauli = PauliString(letters[b])
                pairs = split_pairs(circ, index, duals[b], pauli)
                got = split_value(pairs, circ.components[index].map)
                want = evaluate_trace(circ, one_row(duals[b]), one_term(pauli))[0]
                assert abs(got - want) < 1e-10 * (1 + abs(want))

    @pytest.mark.parametrize("kind", ["brickwork", "staircase", "general", "non-tp"])
    def test_group_matches_singleton_groups(self, kind):
        rng = np.random.default_rng(51)
        circ = kernel_circuits(rng)[kind]
        tables = _random_tables(4, rng)
        assert np.max(np.abs(np.trace(tables[0], axis1=1, axis2=2) - 1.0)) > 1e-3
        rows = rng.integers(0, 5, size=(40, 4))
        # nested supports (0) < (0, 3) < all, (1) < (1, 2), and the identity
        letters = ("ZIII", "YIIZ", "IIII", "IXXI", "IXII", "XIIY", "ZZZZ")
        terms = [PauliString(p) for p in letters]
        coeffs = _random_coeffs(len(terms), rng)
        got = _rows(circ, tables, rows, list(zip(coeffs, terms)))
        assert got.shape == (40,)
        _assert_weighted_sum(got, coeffs, [_one(circ, tables, rows, pauli) for pauli in terms])

    @pytest.mark.parametrize("kind", ["xx-chain", "non-tp", "wide-group"])
    def test_residuals_stay_within_plan_and_budget(self, monkeypatch, kind):
        import virtualmap.cone as cone_module
        from virtualmap.pauli import xx_hamiltonian

        shapes = []

        def recording(fn):
            def wrapped(op, factor, where, n):
                out = fn(op, factor, where, n)
                shapes.append((op.shape, out.shape))
                return out

            return wrapped

        for name in ("insert_factor", "apply_superop_local", "multiply_trace_out", "trace_out_each"):
            monkeypatch.setattr(cone_module, name, recording(getattr(cone_module, name)))
        budget = 1 << 10
        monkeypatch.setattr(cone_module, "_BATCH_ENTRIES", budget)
        rng = np.random.default_rng(52)
        if kind == "xx-chain":
            circ = brickwork(8, 2, lambda layer, qubits: random_cptp_map(2, rng))
            obs = xx_hamiltonian(8, field=0.7)
        elif kind == "non-tp":
            circ, obs = kernel_circuits(rng)["non-tp"], kernel_observable()
        else:
            # eleven terms in one group: one row of all of them is over budget
            circ = brickwork(6, 3, lambda layer, qubits: random_cptp_map(2, rng))
            letters = ["II" + a + b + "II" for a in "XYZ" for b in "XYZ"] + ["IIZIII", "IIIZII"]
            obs = Observable.from_terms(6, [(0.1 * (k + 1), p) for k, p in enumerate(letters)])
        n = circ.num_qubits
        tables = _random_tables(n, rng, outcomes=4)
        rows = rng.integers(0, 4, size=(200, n))
        split = tabled = False
        for group in term_groups(circ, [ps for _, ps in obs.terms]):
            terms = [obs.terms[k] for k in group]
            # the group's own terms form one group again
            assert term_groups(circ, [ps for _, ps in terms]) == (tuple(range(len(terms))),)
            plan = cone_plan(circ, sorted({q for _, ps in terms for q in ps.support}))
            per_call = min(len(terms), budget // 4**plan.peak_active)
            split |= per_call < len(terms)
            # rows up to the rule's threshold run per row, or all of them
            # where the table would not fit the budget
            total, peak = plan.table_cost((4,) * len(plan.qubits))
            fits = plan.qubits and peak * len(terms) <= budget
            per_row = rows[: total // _one_row_entries(plan)] if fits else rows
            cases = [per_row] if len(per_row) == len(rows) else [per_row, rows]
            for batch in cases:
                shapes.clear()
                got = _rows(circ, tables, batch, terms)
                for shape in (s for pair in shapes for s in pair):
                    assert shape[0] <= 2**plan.peak_active
                    assert np.prod(shape) <= budget
                if batch is per_row:
                    assert len(shapes) >= len(plan.steps)  # one call per step and chunk
                    if len(terms) > 1:
                        # residuals are (terms, rows) batches; the first steps
                        # run once per term, before the row axis forms
                        assert shapes[0][1][-1] == 1
                        assert max(s[-2] for pair in shapes for s in pair) == per_call
                else:
                    assert len(shapes) == len(plan.steps)  # one table, no chunks
                    tabled = True
                _assert_weighted_sum(
                    got, [c for c, _ in terms], [_one(circ, tables, batch, ps) for _, ps in terms]
                )
        assert split == (kind == "wide-group")
        assert tabled == (kind != "wide-group")

    def test_term_slices_fold_their_own_coefficients(self, monkeypatch):
        # the wide group of eleven terms, run per row: one row of all the
        # terms is over budget, so each slice of terms folds its own
        # coefficients and the slices add up
        import virtualmap.cone as cone_module

        rng = np.random.default_rng(60)
        circ = brickwork(6, 3, lambda layer, qubits: random_cptp_map(2, rng))
        letters = ["II" + a + b + "II" for a in "XYZ" for b in "XYZ"] + ["IIZIII", "IIIZII"]
        paulis = [PauliString(p) for p in letters]
        coeffs = _random_coeffs(len(paulis), rng)
        tables = _random_tables(6, rng, outcomes=4)
        rows = rng.integers(0, 4, size=(200, 6))
        plan = cone_plan(circ, (2, 3))
        whole = cone_module._row_values(circ, plan, tables, rows, coeffs, paulis)
        shapes, folds = [], []
        for name in ("insert_factor", "apply_superop_local", "multiply_trace_out"):
            real = getattr(cone_module, name)

            def recording(op, factor, where, n, _real=real):
                out = _real(op, factor, where, n)
                shapes.extend((op.shape, out.shape))
                return out

            monkeypatch.setattr(cone_module, name, recording)
        real_backward = cone_module._backward

        def backward(circuit, plan, coeffs, paulis, duals, trace_out):
            folds.append(tuple(coeffs))
            return real_backward(circuit, plan, coeffs, paulis, duals, trace_out)

        monkeypatch.setattr(cone_module, "_backward", backward)
        budget = 1 << 10
        monkeypatch.setattr(cone_module, "_BATCH_ENTRIES", budget)
        per_call = budget // 4**plan.peak_active
        assert 1 < per_call < len(paulis)
        got = cone_module._row_values(circ, plan, tables, rows, coeffs, paulis)
        assert max(np.prod(s) for s in shapes) <= budget
        assert max(s[-2] for s in shapes) == per_call
        # each slice of terms folds its own coefficients, once per chunk of rows
        slices = list(dict.fromkeys(folds))
        assert np.array_equal(np.concatenate(slices), coeffs)
        assert max(map(len, slices)) == per_call and len(folds) % len(slices) == 0
        assert np.max(np.abs(got - whole) / (1.0 + np.abs(whole))) <= 1e-13
        _assert_weighted_sum(got, coeffs, [_one(circ, tables, rows, ps) for ps in paulis])

    @pytest.mark.parametrize("kind", ["xx-chain", "staircase", "non-tp", "general"])
    def test_one_row_makes_the_entries_of_a_one_outcome_table(self, monkeypatch, kind):
        # the rule's per-row cost, table_cost((1,) * k)[0], is what one row's
        # backward run makes, step by step
        import virtualmap.cone as cone_module

        entries = []
        for name in ("insert_factor", "apply_superop_local", "multiply_trace_out", "trace_out_each"):
            real = getattr(cone_module, name)

            def recording(op, factor, where, n, _real=real):
                out = _real(op, factor, where, n)
                entries.append(out.size)
                return out

            monkeypatch.setattr(cone_module, name, recording)
        rng = np.random.default_rng(61)
        if kind == "xx-chain":
            circ, obs = brickwork(8, 2, lambda layer, qubits: random_cptp_map(2, rng)), xx_hamiltonian(8, 0.7)
        elif kind == "staircase":
            circ, obs = staircase(5, 1, lambda layer, qubits: random_cptp_map(2, rng)), xx_hamiltonian(5, 0.7)
        else:
            circ, obs = kernel_circuits(rng)[kind], kernel_observable()
        n = circ.num_qubits
        tables = _random_tables(n, rng, outcomes=4)
        row = rng.integers(0, 4, size=(1, n))
        for _, pauli in obs.terms:
            plan = cone_plan(circ, pauli.support)
            if not plan.qubits:
                continue
            entries.clear()
            _one(circ, tables, row, pauli)
            assert len(entries) == len(plan.steps)
            assert sum(entries) == _one_row_entries(plan), pauli

    @pytest.mark.parametrize("kind", ["brickwork", "staircase", "general", "non-tp"])
    def test_kernel_term_cone_plans_are_well_formed(self, kind):
        circ = kernel_circuits(np.random.default_rng(94))[kind]
        for _, pauli in kernel_observable().terms:
            _check_plan(circ, cone_plan(circ, pauli.support), pauli.support)

    @pytest.mark.parametrize("kind", ["staircase-24", "non-tp", "wide-term"])
    def test_groups_follow_the_per_term_plan_rule(self, kind):
        # the rule as stated on scheduled plans: a term's home is the widest
        # term support (then the first) inside its plan's qubits containing it
        from virtualmap.pauli import xx_hamiltonian

        if kind == "staircase-24":
            circ, obs = staircase(24, 3), xx_hamiltonian(24, field=0.95, periodic=True)
        elif kind == "non-tp":
            circ, obs = kernel_circuits(np.random.default_rng(95))[kind], kernel_observable()
        else:
            circ = brickwork(8, 2)
            chain = xx_hamiltonian(8, field=0.5, periodic=True)
            obs = Observable.from_terms(8, [*chain.terms, (0.3, "Z" * 8)])
        terms = [ps for _, ps in obs.terms]
        supports = sorted({ps.support for ps in terms}, key=lambda s: (-len(s), s))
        homes = {}
        for k, ps in enumerate(terms):
            cone = set(cone_plan(circ, ps.support).qubits)
            home = next(s for s in supports if set(ps.support) <= set(s) <= cone)
            homes.setdefault(home, []).append(k)
        assert term_groups(circ, terms) == tuple(tuple(g) for g in homes.values())


def _general_map(arity, rng):
    """A random complex superoperator: neither trace nor Hermiticity
    preserving."""
    d = 4**arity
    return LocalMap((rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / d)


def _any_linear_case(rng):
    """An N=5 circuit of maps that preserve neither trace nor Hermiticity,
    with a trace-scaling component, and non-Hermitian tables of six outcomes."""
    circ = MapCircuit(
        5,
        (
            Component((0, 1), _general_map(2, rng)),
            Component((2, 3), random_cptp_map(2, rng)),
            Component((1, 2), _general_map(2, rng)),
            Component((3, 4), _scaled_identity(2, 0.9)),
            Component((0,), _general_map(1, rng)),
        ),
    )
    tables = [rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2)) for _ in range(5)]
    return circ, tables


class TestOutcomeTables:
    """``evaluate_rows`` contracts a group per row or into one outcome table
    its rows look up; both agree with per-row traces."""

    @staticmethod
    def _spy(monkeypatch):
        import virtualmap.cone as cone_module

        calls = []
        real = cone_module._outcome_table

        def spying(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cone_module, "_outcome_table", spying)
        return calls

    @staticmethod
    def _assert_per_row(circ, tables, rows, terms, got):
        """got is the coefficient-weighted sum of the (coefficient, Pauli
        string) ``terms``' per-row traces."""
        _assert_weighted_sum(
            got, [c for c, _ in terms], [_per_row(circ, tables, rows, ps) for _, ps in terms]
        )

    def test_both_sides_of_the_rule_match_per_row_traces(self, monkeypatch):
        rng = np.random.default_rng(53)
        circ = brickwork(6, 2, lambda layer, qubits: random_tp_hermitian_map(2, rng))
        tables = _random_tables(6, rng, outcomes=4)
        paulis = [PauliString(p) for p in ("IIXXII", "IIYYII", "IIZIII")]
        terms = list(zip(_random_coeffs(len(paulis), rng), paulis))
        plan = cone_plan(circ, (2, 3))
        total, _ = plan.table_cost((4,) * len(plan.qubits))
        threshold = total // _one_row_entries(plan)  # the most rows run per row
        assert threshold > 1
        calls = self._spy(monkeypatch)
        for count in (1, threshold, threshold + 1):
            rows = rng.integers(0, 4, size=(count, 6))
            calls.clear()
            got = _rows(circ, tables, rows, terms)
            assert got.shape == (count,)
            assert len(calls) == (count > threshold)
            self._assert_per_row(circ, tables, rows, terms, got)

    def test_any_linear_maps_and_tables(self, monkeypatch):
        # maps that preserve neither trace nor Hermiticity, a trace-scaling
        # component outside every local cone, and non-Hermitian tables of six
        # outcomes: conj Tr[Ldag(P) Fdag] = Tr[P L(F)] needs only P Hermitian
        rng = np.random.default_rng(54)
        circ, tables = _any_linear_case(rng)
        flags = [c.map.flags() for c in circ.components]
        assert not flags[0].tp and not flags[0].hermiticity_preserving and not flags[3].tp
        rows = rng.integers(0, 6, size=(300, 5))
        calls = self._spy(monkeypatch)
        for letters in (["ZIIII"], ["IXYII", "IZIII", "IIXII"], ["IIIIY"], ["YIIZX"]):
            terms = list(zip(_random_coeffs(len(letters), rng), map(PauliString, letters)))
            calls.clear()
            got = _rows(circ, tables, rows, terms)
            assert len(calls) == 1, letters
            self._assert_per_row(circ, tables, rows, terms, got)

    @pytest.mark.parametrize("kind", ["non-tp", "any-linear"])
    def test_per_row_agrees_with_the_table_on_every_outcome(self, kind):
        import virtualmap.cone as cone_module

        rng = np.random.default_rng(62)
        if kind == "non-tp":
            circ = kernel_circuits(rng)[kind]
            tables = _random_tables(4, rng, outcomes=3)
            groups = (["ZIII"], ["IXXI", "IXII", "IIZI"], ["YIIZ", "ZIII"], ["ZZZZ"])
        else:
            circ, tables = _any_linear_case(rng)
            groups = (["ZIIII"], ["IXYII", "IZIII", "IIXII"], ["IIIIY"], ["YIIZX"])
        for letters in groups:
            paulis = [PauliString(p) for p in letters]
            coeffs = _random_coeffs(len(paulis), rng)
            plan = cone_plan(circ, sorted({q for ps in paulis for q in ps.support}))
            table = cone_module._outcome_table(circ, plan, tables, coeffs, paulis)
            _assert_table_is_per_row(circ, plan, tables, coeffs, paulis, table)

    def test_a_table_over_the_budget_runs_per_row(self, monkeypatch):
        import virtualmap.cone as cone_module

        rng = np.random.default_rng(55)
        circ = brickwork(6, 2, lambda layer, qubits: random_cptp_map(2, rng))
        tables = _random_tables(6, rng, outcomes=4)
        rows = rng.integers(0, 4, size=(300, 6))
        paulis = [PauliString(p) for p in ("IIXXII", "IIYYII", "IIZIII")]
        terms = list(zip(_random_coeffs(len(paulis), rng), paulis))
        plan = cone_plan(circ, (2, 3))
        total, peak = plan.table_cost((4,) * len(plan.qubits))
        assert total < _one_row_entries(plan) * len(rows)  # cheaper, but too large
        monkeypatch.setattr(cone_module, "_BATCH_ENTRIES", peak * len(terms) - 1)
        calls = self._spy(monkeypatch)
        got = _rows(circ, tables, rows, terms)
        assert not calls
        self._assert_per_row(circ, tables, rows, terms, got)


def _fold_case(kind, rng):
    """(circuit, tables, rows, Pauli strings, whether the group takes the
    outcome table) for one side of the fold."""
    tp_circ = brickwork(6, 2, lambda layer, qubits: random_tp_hermitian_map(2, rng))
    tp_tables = _random_tables(6, rng, outcomes=4)
    bond = ["IIXXII", "IIYYII", "IIZIII"]
    plan = cone_plan(tp_circ, (2, 3))
    threshold = plan.table_cost((4,) * len(plan.qubits))[0] // _one_row_entries(plan)
    if kind in ("per-row", "table"):
        count = threshold + (kind == "table")
        return tp_circ, tp_tables, rng.integers(0, 4, size=(count, 6)), bond, kind == "table"
    if kind == "non-tp":
        circ = brickwork(6, 1, lambda layer, qubits: random_cptp_map(2, rng))
        circ = circ.with_component(2, _scaled_identity(2, 0.9))
        return circ, tp_tables, rng.integers(0, 4, size=(300, 6)), ["ZIIIII", "XZIIII", "IYIIII"], True
    if kind == "any-linear":
        circ, tables = _any_linear_case(rng)
        return circ, tables, rng.integers(0, 6, size=(300, 5)), ["IXYII", "IZIII", "IIXII"], True
    rows = rng.integers(0, 4, size=(300, 6))
    if kind == "one-term":
        return tp_circ, tp_tables, rows, ["IIXYII"], True
    if kind == "repeated-term":  # the observable merges the two into one term
        return tp_circ, tp_tables, rows, ["IIXYII", "IIXYII"], True
    # an all-identity term beside local ones, then on its own (an empty cone)
    if kind == "identity-term":
        return tp_circ, tp_tables, rows, ["IIIIII", "IIZZII", "IIIXII"], True
    return tp_circ, tp_tables, rows, ["IIIIII"], False


class TestCoefficientFold:
    """``evaluate_rows`` returns sum_t c_t Tr[L(F_row) P_t]; its backward run
    folds the coefficients in once the last term-dependent letter is in."""

    @pytest.mark.parametrize(
        "kind",
        ["per-row", "table", "non-tp", "any-linear", "one-term", "repeated-term", "identity-term", "identity-only"],
    )
    def test_weighted_sum_of_single_terms(self, monkeypatch, kind):
        rng = np.random.default_rng(57)
        circ, tables, rows, letters, tabled = _fold_case(kind, rng)
        paulis = [PauliString(p) for p in letters]
        calls = TestOutcomeTables._spy(monkeypatch)
        for _ in range(3):
            coeffs = _random_coeffs(len(paulis), rng)
            calls.clear()
            got = _rows(circ, tables, rows, list(zip(coeffs, paulis)))
            assert len(calls) == tabled
            _assert_weighted_sum(got, coeffs, [_one(circ, tables, rows, ps) for ps in paulis])

    def test_term_axis_is_one_after_the_fold(self, monkeypatch):
        import virtualmap.cone as cone_module

        calls = []
        for name in ("insert_factor", "apply_superop_local", "trace_out_each"):
            real = getattr(cone_module, name)

            def recording(op, factor, where, n, _real=real, _name=name):
                out = _real(op, factor, where, n)
                calls.append((_name, np.shape(factor), out.shape))
                return out

            monkeypatch.setattr(cone_module, name, recording)
        rng = np.random.default_rng(58)
        circ = brickwork(8, 2, lambda layer, qubits: random_cptp_map(2, rng))
        tables = _random_tables(8, rng, outcomes=4)
        paulis = [PauliString(p) for p in ("IIIIZIII", "IIIXXIII", "IIIYYIII")]
        coeffs = _random_coeffs(len(paulis), rng)
        plan = cone_plan(circ, (3, 4))
        table = cone_module._outcome_table(circ, plan, tables, coeffs, paulis)
        assert table.shape == (4,) * len(plan.qubits)
        assert len(calls) == len(plan.steps)
        per_term = [i for i, (name, factor, _) in enumerate(calls) if name == "insert_factor" and factor[2] > 1]
        last = per_term[-1]
        assert last < len(calls) - 1  # steps are left to run after the fold
        assert all(out[2] == len(paulis) for _, _, out in calls[per_term[0] : last + 1])
        assert all(out[2] == 1 for _, _, out in calls[last + 1 :])
        # the table agrees with the per-row run on every outcome
        _assert_table_is_per_row(circ, plan, tables, coeffs, paulis, table)


class TestKernelInput:
    """``evaluate_rows`` and ``CutWalk.rows`` take the rows of a
    ``ProductInputData`` and an ``Observable`` of the circuit's register, so
    ``Observable.from_terms`` is the one checker of the terms they run."""

    @staticmethod
    def _case():
        rng = np.random.default_rng(59)
        circ = brickwork(4, 1, lambda layer, qubits: random_cptp_map(2, rng))
        return circ, _random_tables(4, rng, outcomes=4), rng.integers(0, 4, size=(7, 4))

    def test_bare_pauli_string_names_the_pair_form(self):
        circ, tables, rows = self._case()
        with pytest.raises(ValidationError, match=r"\(coefficient, PauliString\) pairs, got bare Pauli string ZZII"):
            _rows(circ, tables, rows, [(1.0, PauliString("XIII")), PauliString("ZZII")])

    @pytest.mark.parametrize(
        "term",
        [
            (PauliString("ZZII"), 1.0),
            (1.0, PauliString("ZZII"), 2.0),
            "ZZII",
            ("1.0", PauliString("ZZII")),
            (None, PauliString("ZZII")),
            [1.0],
            (True, PauliString("ZZII")),
            (np.True_, PauliString("ZZII")),
        ],
        ids=[
            "swapped", "triple", "text", "text-coefficient", "none-coefficient", "one-entry",
            "bool-coefficient", "numpy-bool-coefficient",
        ],
    )
    def test_rejects_terms_that_are_not_pairs(self, term):
        circ, tables, rows = self._case()
        with pytest.raises(ValidationError, match=r"\(coefficient, PauliString\) pairs"):
            _rows(circ, tables, rows, [term])

    @pytest.mark.parametrize(
        "coeff", [np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 1.0), np.float64(np.nan)]
    )
    def test_rejects_non_finite_coefficients(self, coeff):
        circ, tables, rows = self._case()
        with pytest.raises(ValidationError, match="non-finite coefficient"):
            _rows(circ, tables, rows, [(1.0, PauliString("XIII")), (coeff, PauliString("ZZII"))])

    def test_rejects_a_string_of_another_register(self):
        circ, tables, rows = self._case()
        with pytest.raises(ValidationError, match="covers 3 qubits"):
            _rows(circ, tables, rows, [(1.0, PauliString("ZZI"))])
        # an observable of another register is refused by both entry points
        obs = Observable.from_terms(3, [(1.0, "ZZI")])
        with pytest.raises(ValidationError, match="qubit counts differ"):
            evaluate_rows(circ, _data(tables, rows), obs)
        with pytest.raises(ValidationError, match="qubit counts differ"):
            list(CutWalk.rows(circ, _data(tables, rows), obs))

    @pytest.mark.parametrize(
        "row", [[0, 0, -1], [0, 0, 4], [0.0, 0.0, 3.0]], ids=["negative", "past-the-table", "float"]
    )
    @pytest.mark.parametrize("entry", ["evaluate_rows", "CutWalk.rows"])
    def test_rows_outside_their_tables_are_refused(self, row, entry):
        # unchecked, a negative row would read its table from the end
        circ, obs = brickwork(3, 1), Observable.from_terms(3, [(1.0, "ZZZ")])
        run = evaluate_rows if entry == "evaluate_rows" else lambda *args: list(CutWalk.rows(*args))
        with pytest.raises(ValidationError, match="outcome|rows must be integers"):
            run(circ, ProductInputData(np.ones(1), dual_arrays("sic", 3), np.array([row])), obs)

    def test_no_terms_give_zeros(self):
        circ, tables, rows = self._case()
        leaky = circ.with_component(0, _scaled_identity(2, 0.9))
        for c in (circ, leaky):
            got = _rows(c, tables, rows, [])
            assert got.dtype == complex and got.shape == (len(rows),)
            assert not np.any(got)

    def test_numbers_of_any_kind_are_coefficients(self):
        circ, tables, rows = self._case()
        ps = PauliString("ZZII")
        want = _one(circ, tables, rows, ps)
        for coeff in (2, 2.0, 2 + 0j, np.int64(2), np.float32(2.0), np.complex128(2.0)):
            got = _rows(circ, tables, rows, [(coeff, ps)])
            assert np.max(np.abs(got - 2.0 * want)) <= 1e-12, type(coeff)


def _assert_as_np_unique(rows):
    """unique_rows against np.unique(axis=0), bit for bit and dtypes
    included; without the inverse, the same rows and counts and None."""
    u, i, c = np.unique(rows, axis=0, return_inverse=True, return_counts=True)
    uniq, inverse, counts = unique_rows(rows)
    for got, ref in zip((uniq, inverse, counts), (u, i.reshape(-1), c)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    np.testing.assert_array_equal(uniq[inverse], rows)
    uniq, inverse, counts = unique_rows(rows, return_inverse=False)
    assert inverse is None
    assert uniq.dtype == u.dtype and uniq.tobytes() == u.tobytes()
    assert counts.dtype == c.dtype and counts.tobytes() == c.tobytes()


# diagonal entries whose traces include -0.0 and complex values, so that a
# product that skips the leading factor 1 (or reorders the qubits) differs
_DIAGONALS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.5 - 0.0j, -0.0 - 1.5j, 0.25 + 3j, 1e-300, 7.0 - 0.125j])


def _per_qubit_loop(tables, rows, qubits):
    """The factor of the qubits outside ``qubits`` as ``evaluate_rows``
    multiplied it before the rows shared their traces: a ones column times
    each outside qubit's gathered traces in turn."""
    traces = [np.trace(t, axis1=1, axis2=2)[rows[:, q], None] for q, t in enumerate(tables)]
    values = np.ones((len(rows), 1), dtype=complex)
    for q in range(len(tables)):
        if q not in qubits:
            values *= traces[q]
    return values[:, 0]


class TestOutsideTraces:
    """The factor prod_q Tr F_q of the qubits outside a group's cone comes
    from the rows' shared (N, R) traces, bit for bit as from traces gathered
    afresh for each call."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 9),
        num_rows=st.integers(1, 70),
        diagonals=st.lists(_DIAGONALS, min_size=2, max_size=2 * 9 * 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_per_qubit_loop_bit_for_bit(self, n, num_rows, diagonals, seed):
        # custom factor tables, Tr D != 1, with 1 to 3 outcomes per qubit
        rng = np.random.default_rng(seed)
        tables = []
        for q in range(n):
            t = rng.standard_normal((int(rng.integers(1, 4)), 2, 2)).astype(complex)
            for m in range(len(t)):
                t[m, 0, 0], t[m, 1, 1] = (diagonals[(2 * (q * 3 + m) + k) % len(diagonals)] for k in (0, 1))
            tables.append(t)
        rows = np.stack([rng.integers(0, len(t), size=num_rows) for t in tables], axis=1)
        data = ProductInputData(np.ones(num_rows), tables, rows)
        some = tuple(sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist()))
        for qubits in [(), tuple(range(n)), some]:
            want = _per_qubit_loop(tables, rows, qubits)
            assert cone._outside_traces(data, qubits).tobytes() == want.tobytes(), qubits

    def test_one_gather_per_data(self, monkeypatch):
        # every group and every observable reads the same traces
        rng = np.random.default_rng(5)
        circ = brickwork(6, 1, lambda layer, qubits: random_cptp_map(2, rng))
        data = ProductInputData(np.ones(30), _random_tables(6, rng, outcomes=4), rng.integers(0, 4, (30, 6)))
        calls = []
        real_trace = np.trace
        monkeypatch.setattr(np, "trace", lambda *a, **k: calls.append(1) or real_trace(*a, **k))
        for obs in (xx_hamiltonian(6), Observable.from_terms(6, [(0.5, "ZIIIIZ")])):
            evaluate_rows(circ, data, obs)
        assert len(calls) == 6


class TestUniqueRows:
    @pytest.mark.parametrize("dtype", [np.int8, np.intp, np.uint8])
    @pytest.mark.parametrize(
        "shape, low, high",
        [((1, 5), 0, 4), ((40, 1), 0, 4), ((25, 3), 2, 3), ((500, 6), 0, 4), ((300, 4), -3, 3)],
        ids=["one-row", "one-column", "all-equal", "random", "signed"],
    )
    def test_equals_np_unique(self, dtype, shape, low, high):
        rows = np.random.default_rng(77).integers(low, high, size=shape).astype(dtype)
        _assert_as_np_unique(rows)

    @settings(max_examples=150, deadline=None)
    @given(
        dtype=st.sampled_from([np.int8, np.int16, np.intp, np.uint8]),
        shape=st.tuples(st.integers(1, 80), st.integers(1, 40)),
        bits=st.integers(0, 5),
        signed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_np_unique(self, dtype, shape, bits, signed, seed):
        # bits = 0 makes every row equal; a repeated tail makes counts above one
        rng = np.random.default_rng(seed)
        low = -(2**bits // 2) if signed and np.dtype(dtype).kind == "i" else 0
        rows = rng.integers(low, low + 2**bits, size=shape).astype(dtype)
        _assert_as_np_unique(np.concatenate([rows, rows[: rng.integers(0, shape[0] + 1)]]))

    @pytest.mark.parametrize(
        "columns, low, high",
        [
            (31, 0, 4),
            (32, 0, 4),
            (21, 0, 8),
            (22, 0, 8),
            (21, -4, 4),
            (22, -4, 4),
            (7, -256, 256),
            (8, -256, 256),
            (1, -(2**62), 2**62),
            (1, -(2**62), 2**62 + 1),
            (3, -(2**20), 0),
        ],
        ids=[
            "2-bit-key",
            "2-bit-lexsort",
            "3-bit-key",
            "3-bit-lexsort",
            "signed-key",
            "signed-lexsort",
            "9-bit-signed-key",
            "9-bit-signed-lexsort",
            "63-bit-signed-key",
            "64-bit-signed-lexsort",
            "all-negative-key",
        ],
    )
    def test_both_sides_of_the_key_width(self, columns, low, high):
        # bits * K = 62 or 63 fits one int64 key, 64 or 66 does not; the
        # largest and smallest rows set the key's top and bottom
        rng = np.random.default_rng(columns)
        rows = rng.integers(low, high, size=(80, columns))
        rows[:, 0] = high - 1
        rows[::9], rows[1::9] = high - 1, low
        _assert_as_np_unique(np.concatenate([rows, rows[::3]]))


class TestSplitEvaluate:
    def test_split_reproduces_full_value(self):
        rng = np.random.default_rng(29)
        for trial in range(4):
            n = int(rng.integers(2, 6))
            circ = random_mixed_circuit(n, rng)
            duals = random_product_duals(n, rng)
            letters = "".join(rng.choice(list("IXYZ"), size=n))
            p = PauliString(letters)
            want = evaluate_trace(circ, one_row(duals), one_term(p))[0]
            for index in range(len(circ.components)):
                pairs = split_pairs(circ, index, duals, p)
                got = split_value(pairs, circ.components[index].map)
                assert abs(got - want) < 1e-10 * (1 + abs(want)), (trial, index)

    def test_split_is_linear_probe_of_component(self):
        rng = np.random.default_rng(31)
        circ = brickwork(4, 2, lambda layer, qubits: random_cptp_map(2, rng))
        duals = random_product_duals(4, rng)
        p = PauliString("YZXZ")
        pairs = split_pairs(circ, 2, duals, p)
        m_new = random_cptp_map(2, rng)
        got = split_value(pairs, m_new)
        want = evaluate_trace(circ.with_component(2, m_new), one_row(duals), one_term(p))[0]
        assert abs(got - want) < 1e-10 * (1 + abs(want))

    def test_index_out_of_range(self):
        eye = [np.eye(2)] * 4
        for index in (7, -1):
            with pytest.raises(ValidationError):
                cut_pair(brickwork(4, 1), index, eye, eye)


class TestCutPlan:
    @pytest.mark.parametrize(
        "circ, cap",
        [(staircase(10, 2), 3), (brickwork(8, 2), 3)],
        ids=["staircase-10-2", "brickwork-8-2"],
    )
    def test_cut_width_within_peak(self, circ, cap):
        # The time cut these replace grew to 10 qubits on staircase(10, 2).
        eye = [np.eye(2)] * circ.num_qubits
        peak = schedule(circ).peak_active
        assert peak <= cap
        for index in range(len(circ.components)):
            r, rbar = cut_pair(circ, index, eye, eye)
            assert r.shape == rbar.shape
            width = int(np.log2(r.shape[1] * r.shape[2]))
            assert len(circ.components[index].qubits) <= width <= peak, index



def _one_qubit_circuit(rng):
    """N=4 with two one-qubit components between two-qubit ones."""
    return MapCircuit(
        4,
        (
            Component((0, 2), random_cptp_map(2, rng)),
            Component((3,), random_unitary_map(1, rng)),
            Component((1,), random_cptp_map(1, rng)),
            Component((2, 1), random_cptp_map(2, rng)),
            Component((3, 0), random_tp_hermitian_map(2, rng)),
        ),
    )


def _cut_walk_case(kind, rng):
    """A circuit and the walks of one kind of input under the XX chain."""
    if kind == "one-qubit":
        circ, obs = _one_qubit_circuit(rng), xx_hamiltonian(4, field=0.6, periodic=True)
    elif kind == "no-spectators":
        circ = brickwork(2, 3, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(2, field=0.5)
    else:
        circ = staircase(6, 2, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(6, field=0.7, periodic=True)
    n = circ.num_qubits
    if kind == "classical":
        return circ, list(CutWalk.rows(circ, classical_input(n), obs))
    duals = np.asarray(compute_duals(make_sic_povm()).duals)
    rows, _, counts = unique_rows(rng.integers(0, 4, size=(60, n)))
    walks = list(CutWalk.rows(circ, ProductInputData(counts / 60, [duals] * n, rows), obs))
    state = noisy_chain_state(n, theta=0.3, p=0.02)
    return circ, [*CutWalk.dense(circ, state, obs), *walks]


class TestCutObjective:
    """``CutWalk.objective`` against the two-step reference contraction."""

    @pytest.mark.parametrize("kind", ["classical", "dense-and-rows", "one-qubit", "no-spectators"])
    def test_bit_identical_to_the_reference(self, kind):
        rng = np.random.default_rng(96)
        circ, walks = _cut_walk_case(kind, rng)
        k = len(circ.components)
        # visits in index order, then reversed, installing a map at most
        for visit, index in enumerate([*range(k), *reversed(range(k))]):
            for walk in walks:
                want = reference_objective(walk, circ, index)
                assert np.array_equal(walk.objective(circ, index), want), (visit, index)
                if kind == "no-spectators":
                    active, _, _ = walk.residuals(circ, index)
                    assert sorted(active) == sorted(circ.components[index].qubits)
            if visit % 3 != 2:
                arity = circ.components[index].map.arity
                circ = circ.with_component(index, random_unitary_map(arity, rng))

    @pytest.mark.parametrize("per_chunk", ["rows", "terms"])
    def test_chunks_are_bit_identical_to_the_reference(self, monkeypatch, per_chunk):
        import virtualmap.cone as cone_module

        rng = np.random.default_rng(97)
        circ = brickwork(6, 2, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(6, field=0.7, periodic=True)
        duals = np.asarray(compute_duals(make_sic_povm()).duals)
        rows, _, counts = unique_rows(rng.integers(0, 4, size=(40, 6)))
        item = 4 ** schedule(circ).peak_active
        # five rows of all the terms, or two terms of one row, per chunk
        budget = 5 * len(obs.terms) * item if per_chunk == "rows" else 2 * item
        monkeypatch.setattr(cone_module, "_BATCH_ENTRIES", budget)
        walks = list(CutWalk.rows(circ, ProductInputData(counts / 40, [duals] * 6, rows), obs))
        if per_chunk == "rows":
            assert len(walks) == -(-len(rows) // 5)
        else:
            assert len(walks) == len(rows) * -(-len(obs.terms) // 2)
        for index in range(len(circ.components)):
            for walk in walks:
                assert np.array_equal(walk.objective(circ, index), reference_objective(walk, circ, index))

class TestCircuitFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(37)
        circ = random_mixed_circuit(4, rng)
        path = tmp_path / "circ.json"
        save_circuit(circ, path)
        back = load_circuit(path)
        assert back.num_qubits == circ.num_qubits
        assert back.supports == circ.supports
        for a, b in zip(circ.components, back.components):
            assert_all_close(a.map.superop, b.map.superop, atol=1e-15)

    def test_dict_round_trip(self):
        circ = brickwork(3, 1, lambda layer, qubits: cnot_map())
        again = circuit_from_dict(circuit_to_dict(circ))
        assert again.num_qubits == 3
        assert [c.qubits for c in again.components] == [(0, 1)]

    def test_corrupt_payload(self):
        with pytest.raises(ValidationError):
            circuit_from_dict({"num_qubits": 2})
        good = circuit_to_dict(brickwork(2, 1))
        bad = dict(good)
        bad["components"] = [dict(good["components"][0], qubits=[0, 5])]
        with pytest.raises(ValidationError):
            circuit_from_dict(bad)


    @settings(max_examples=200, deadline=None)
    @given(
        payload=st.one_of(
            json_junk(["num_qubits", "topology", "components", "layer", "qubits", "map"]),
            st.fixed_dictionaries(
                {
                    "num_qubits": small_or_junk(),
                    "components": st.one_of(
                        st.lists(
                            st.fixed_dictionaries(
                                {
                                    "layer": small_or_junk(),
                                    "qubits": st.lists(small_or_junk(), max_size=3),
                                    "map": map_specs(),
                                }
                            ),
                            max_size=3,
                        ),
                        small_or_junk(),
                    ),
                },
                optional={"topology": st.sampled_from(["brickwork", "staircase", "general"])},
            ),
        )
    )
    def test_junk_payloads_raise_only_validation_errors(self, payload):
        try:
            circ = circuit_from_dict(payload)
        except ValidationError:
            return
        assert all(c.qubits for c in circ.components)
        # only JSON integers load: no text, fractions or booleans; an older
        # file's "layer" and "topology" keys are not read
        assert type(payload["num_qubits"]) is int
        for entry in payload["components"]:
            assert all(type(q) is int for q in entry["qubits"])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_qubits", True),
            ("num_qubits", 2.0),
            ("num_qubits", "2"),
            ("qubits", [0, 1.5]),
            ("qubits", "01"),
            ("qubits", [0, True]),
        ],
    )
    def test_only_json_integers_load(self, field, value):
        payload = circuit_to_dict(brickwork(2, 1))
        if field == "num_qubits":
            payload[field] = value
        else:
            payload["components"][0][field] = value
        with pytest.raises(ValidationError, match="integer"):
            circuit_from_dict(payload)


    def test_older_files_with_layers_and_topology_load(self):
        # the format that numbered every component's layer and tagged the
        # builder; the keys are ignored like any other unread key
        rng = np.random.default_rng(5)
        layers = []

        def factory(layer, qubits):
            layers.append(layer)
            return random_cptp_map(2, rng)

        circ = brickwork(5, 3, factory)
        payload = circuit_to_dict(circ)
        payload["topology"] = "brickwork"
        for entry, layer in zip(payload["components"], layers):
            entry["layer"] = layer
        back = circuit_from_dict(json.loads(json.dumps(payload)))
        assert back.supports == circ.supports
        for a, b in zip(circ.components, back.components):
            assert np.array_equal(a.map.superop, b.map.superop)
        # even a value the older format refused is not read
        payload["components"][0]["layer"] = 1.7
        payload["topology"] = ["junk"]
        assert circuit_from_dict(payload).supports == circ.supports

    def test_writes_qubits_and_map_per_component(self):
        payload = circuit_to_dict(brickwork(3, 1))
        assert set(payload) == {"num_qubits", "components"}
        assert [set(entry) for entry in payload["components"]] == [{"qubits", "map"}]


class TestSicDualsIntegration:
    def test_sic_dual_factors_reproduce_state_average(self, sic_duals):
        # average of evaluate_trace over the outcome distribution equals the
        # dense expectation for a product state
        from virtualmap.densesim import computational_zero, outcome_distribution

        rho = computational_zero(2)
        p = outcome_distribution(rho, "sic")
        duals = np.asarray(compute_duals(make_sic_povm()).duals)
        circ = brickwork(2, 1, lambda layer, qubits: cnot_map())
        rows = np.array(list(np.ndindex(p.shape)))
        data = ProductInputData(p[tuple(rows.T)], [duals] * 2, rows)
        acc = data.weights @ evaluate_trace(circ, data, one_term("ZZ"))
        # CNOT fixes |00>, so <ZZ> = 1
        assert abs(acc - 1.0) < 1e-12
