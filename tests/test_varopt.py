"""Variational loop: local objectives, CPTP minimization, sweeps."""

from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from conftest import (
    brute_force_min,
    cube_povm,
    cut_objective,
    group_cut_pair,
    objective_value,
    random_mixed_circuit,
    stinespring_choi,
)
from virtualmap import cone, densesim, varopt
from virtualmap.cone import Component, MapCircuit, brickwork, schedule, staircase
from virtualmap.densesim import (
    DensityMatrix,
    apply_circuit_dense,
    computational_zero,
    maximally_mixed,
    noisy_chain_state,
    outcome_distribution,
    sample_outcomes,
)
from virtualmap.errors import NumericalError, ValidationError
from virtualmap.estimation import (
    ProductInputData,
    classical_input,
    collapse,
    data_from_batch,
    data_from_distribution,
    dual_arrays,
    estimate,
    estimate_exact,
)
from virtualmap.linalg import apply_superop_local, unique_rows
from virtualmap.maps import (
    ChoiMatrix,
    LocalMap,
    choi_to_superop,
    compose,
    identity_map,
    random_cptp_map,
    random_tp_hermitian_map,
    random_unitary_map,
    superop_to_choi,
    tensor_maps,
    zreset_map,
)
from virtualmap.pauli import Observable, xx_hamiltonian
from virtualmap.povm import compute_duals, make_sic_povm
from virtualmap.varopt import (
    SWEEP_INITS,
    SdpOptions,
    SweepOptions,
    assemble_local_objective,
    circuit_energy,
    classical_ansatz,
    cptp_residuals,
    minimize_over_cptp,
    sweep,
    zreset_compose,
)
from virtualmap.varopt import (
    SweepStep,
    _bordered,
    _cut_walks,
    _max_steps,
    _min_eig_ceiling,
    _min_eig_floor,
    _schur_matrix,
)


def _random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def _replay_random_objectives():
    """The seeded random set of scripts/solver_replay.py: alternating 4x4
    and 16x16 Hermitian matrices from default_rng(0), each scaled by
    10^U(-2, 2)."""
    rng = np.random.default_rng(0)
    for i in range(600):
        side = 4 if i % 2 == 0 else 16
        g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        yield (g + g.conj().T) / 2.0 * 10.0 ** rng.uniform(-2, 2)


class TestInputData:
    def test_batch_weights_sum_to_one(self):
        batch = sample_outcomes(noisy_chain_state(3), "sic", 500, seed=0)
        data = data_from_batch(batch, "sic")
        assert abs(data.weights.sum() - 1.0) < 1e-12
        assert [t.shape for t in data.tables] == [(4, 2, 2)] * 3
        assert data.rows.shape == (data.weights.shape[0], 3)
        # deduplication never expands beyond the shot count
        assert data.rows.shape[0] <= 500

    def test_distribution_weights_are_probabilities(self):
        data = data_from_distribution(noisy_chain_state(2), "sic")
        assert data.weights.shape == (16,)
        assert abs(data.weights.sum() - 1.0) < 1e-12
        assert data.weights.min() >= -1e-12

    @pytest.mark.parametrize("make_povm", [make_sic_povm, cube_povm])
    def test_distribution_rows_match_digit_loop(self, make_povm):
        rho = noisy_chain_state(3, theta=0.3, p=0.02)
        povm = make_povm()
        data = data_from_distribution(rho, povm)
        duals = np.asarray(compute_duals(povm).duals)
        p = outcome_distribution(rho, [povm] * 3).reshape(-1)
        keep = np.flatnonzero(p != 0.0)
        # reference: the former per-row digit loop (qubit 0 most significant)
        factors = np.empty((keep.size, 3, 2, 2), dtype=complex)
        for r, flat in enumerate(keep):
            rem = int(flat)
            for q in range(2, -1, -1):
                factors[r, q] = duals[rem % len(duals)]
                rem //= len(duals)
        gathered = np.stack([data.tables[q][data.rows[:, q]] for q in range(3)], axis=1)
        np.testing.assert_array_equal(gathered, factors)
        np.testing.assert_array_equal(data.weights, p[keep])

    def test_distribution_above_seven_qubits(self):
        rng = np.random.default_rng(15)
        rho = noisy_chain_state(8, theta=0.3, p=0.02)
        circ = brickwork(8, 1, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(8, field=0.4)
        data = data_from_distribution(rho, "sic")
        assert data.rows.shape == (4**8, 8)
        energy = circuit_energy(circ, data, obs)
        # the row sum against its collapse: equal up to round-off
        summed = estimate_exact(rho, "sic", circ, obs, duals="sic")
        assert abs(energy - summed) <= 1e-12 * abs(energy)
        dense = estimate_exact(rho, "sic", circ, obs)
        assert abs(energy - dense) < 1e-9 * (1 + abs(dense))

    def test_classical_input_is_zero_state(self):
        data = classical_input(3)
        assert data.weights.shape == (1,)
        assert data.weights[0] == 1.0
        for q in range(3):
            np.testing.assert_allclose(
                data.tables[q][data.rows[0, q]], np.diag([1.0, 0.0]), atol=0
            )

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            ProductInputData(np.array([0.5, 0.5]), [np.zeros((1, 2, 2))] * 2, np.zeros((1, 2), int))

    @pytest.mark.parametrize(
        "weights, tables, rows, message",
        [
            (np.ones((1, 1)), [np.eye(2)[None]] * 2, np.zeros((1, 2), int), "weights"),
            (np.ones(1), [np.eye(2)[None]] * 2, np.zeros((1, 2)), "integers"),
            (np.ones(1), [np.eye(2)[None]] * 2, np.zeros(2, int), "integers"),
            (np.ones(1), [np.eye(2)[None]] * 3, np.zeros((1, 2), int), "2 factor tables"),
            (np.ones(1), [np.eye(2)[None], np.eye(2)], np.zeros((1, 2), int), "table 1"),
            (np.ones(1), [np.eye(2)[None], np.eye(3)[None]], np.zeros((1, 2), int), "table 1"),
            (np.ones(1), [np.eye(2)[None]] * 2, np.array([[0, 1]]), "outcome 1"),
            (np.ones(1), [np.eye(2)[None]] * 2, np.array([[-1, 0]]), "outcome -1"),
            (np.array([np.nan]), [np.eye(2)[None]] * 2, np.zeros((1, 2), int), "weights"),
            (np.array([np.inf]), [np.eye(2)[None]] * 2, np.zeros((1, 2), int), "weights"),
            (np.ones(1), [np.eye(2)[None], np.full((1, 2, 2), np.inf)], np.zeros((1, 2), int), "table 1"),
            (np.ones(1), [np.full((1, 2, 2), np.nan), np.eye(2)[None]], np.zeros((1, 2), int), "table 0"),
            (np.ones(1), [np.eye(2)[None]] * 2, np.array([[0, 2**63]], np.uint64), f"outcome {2**63} "),
        ],
    )
    def test_rejects_malformed_rows(self, weights, tables, rows, message):
        with pytest.raises(ValidationError, match=message):
            ProductInputData(weights, tables, rows)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64])
    def test_unsigned_rows_match_signed_rows(self, dtype):
        batch = sample_outcomes(noisy_chain_state(3), "sic", 300, seed=4)
        data = data_from_batch(batch, "sic")
        signed = ProductInputData(data.weights, data.tables, data.rows.astype(np.int64))
        unsigned = ProductInputData(data.weights, data.tables, data.rows.astype(dtype))
        assert unsigned.rows.dtype == np.intp
        rng = np.random.default_rng(6)
        circ = brickwork(3, 2, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(3, field=0.4)
        assert circuit_energy(circ, unsigned, obs) == circuit_energy(circ, signed, obs)
        assert np.array_equal(collapse(unsigned).matrix, collapse(signed).matrix)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_dense_state(self, bad):
        m = maximally_mixed(3).matrix.copy()
        m[2, 5] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            DensityMatrix(3, m)

    def test_classical_input_with_infinite_tables_gives_no_energy(self):
        data = classical_input(3)
        with pytest.raises(ValidationError, match="non-finite"):
            ProductInputData(data.weights, [np.full_like(t, np.inf) for t in data.tables], data.rows)


class TestCircuitEnergy:
    def test_batch_energy_equals_estimator_mean(self):
        batch = sample_outcomes(noisy_chain_state(3), "sic", 300, seed=1)
        rng = np.random.default_rng(2)
        circ = brickwork(3, 1, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(3, field=0.4)
        data = data_from_batch(batch, "sic")
        e_data = circuit_energy(circ, data, obs)
        e_est = estimate(batch, "sic", circ, obs).value
        assert abs(e_data - e_est) < 1e-9 * (1 + abs(e_est))

    def test_distribution_energy_equals_exact(self):
        rho = noisy_chain_state(3, theta=0.3, p=0.01)
        rng = np.random.default_rng(3)
        circ = brickwork(3, 2, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(3, field=0.2)
        data = data_from_distribution(rho, "sic")
        e_data = circuit_energy(circ, data, obs)
        e_exact = estimate_exact(rho, "sic", circ, obs)
        assert abs(e_data - e_exact) < 1e-9 * (1 + abs(e_exact))

    def test_dense_data_matches_product_data(self):
        rho = noisy_chain_state(3, theta=0.2, p=0.02)
        rng = np.random.default_rng(4)
        circ = brickwork(3, 1, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(3)
        e_dense = circuit_energy(circ, rho, obs)
        e_prod = circuit_energy(circ, data_from_distribution(rho, "sic"), obs)
        assert abs(e_dense - e_prod) < 1e-9 * (1 + abs(e_dense))


    @pytest.mark.parametrize("dense", [False, True], ids=["rows", "dense"])
    def test_non_hermitian_observable_rejected(self, dense):
        # an imaginary part far below the shot weights' residue tolerance
        obs = Observable.from_terms(2, [(1 + 1e-10j, "ZZ")])
        data = computational_zero(2) if dense else classical_input(2)
        with pytest.raises(ValidationError, match="Hermitian"):
            circuit_energy(brickwork(2, 1), data, obs)

    def test_dense_state_above_the_dense_limit_rejected(self):
        obs = Observable.from_terms(11, [(1.0, "Z" + "I" * 10)])
        # a zero-stride stand-in: maximally_mixed(11) is refused on its own
        state = DensityMatrix(11, np.broadcast_to(np.complex128(0.0), (2048, 2048)))
        with pytest.raises(ValidationError, match="N <= 10"):
            circuit_energy(MapCircuit(11, ()), state, obs)


class TestLocalObjective:
    def test_reproduces_energy_at_current_choi(self):
        rho = noisy_chain_state(4, theta=0.25, p=0.01)
        rng = np.random.default_rng(5)
        circ = brickwork(4, 2, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(4, field=0.6)
        for data in (rho, data_from_distribution(rho, "sic")):
            energy = circuit_energy(circ, data, obs)
            for index in range(len(circ.components)):
                objective = assemble_local_objective(circ, index, data, obs)
                choi = superop_to_choi(circ.components[index].map)
                assert abs(objective_value(objective, choi) - energy) < 1e-9 * (1 + abs(energy))

    def test_predicts_energy_of_replacement(self):
        rho = noisy_chain_state(3, theta=0.3, p=0.02)
        rng = np.random.default_rng(6)
        circ = brickwork(3, 2, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(3)
        data = rho
        for index in range(len(circ.components)):
            objective = assemble_local_objective(circ, index, data, obs)
            # a channel, and a Hermiticity-preserving map that is not CP
            for new_map in (random_cptp_map(2, rng), random_tp_hermitian_map(2, rng)):
                predicted = objective_value(objective, superop_to_choi(new_map))
                actual = circuit_energy(circ.with_component(index, new_map), data, obs)
                assert abs(predicted - actual) < 1e-9 * (1 + abs(actual)), index

    def test_batch_data_agrees_with_dense_assembly(self):
        rho = noisy_chain_state(3, theta=0.2, p=0.01)
        rng = np.random.default_rng(7)
        circ = brickwork(3, 1, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(3, field=0.3)
        prod = data_from_distribution(rho, "sic")
        dense = rho
        for index in range(len(circ.components)):
            m_prod = assemble_local_objective(circ, index, prod, obs)
            m_dense = assemble_local_objective(circ, index, dense, obs)
            np.testing.assert_allclose(m_prod, m_dense, atol=1e-9)

    def test_identity_observable_costs_trace(self):
        # for TP Choi matrices Tr[C M] with the identity observable is 1
        rho = noisy_chain_state(2)
        circ = brickwork(2, 1)
        obs = Observable.from_terms(2, [(1.0, "II")])
        objective = assemble_local_objective(circ, 0, rho, obs)
        rng = np.random.default_rng(8)
        for _ in range(3):
            choi = superop_to_choi(random_cptp_map(2, rng))
            assert abs(objective_value(objective, choi) - 1.0) < 1e-9

    def test_requires_hermitian_observable(self):
        obs = Observable.from_terms(2, [(1.0j, "ZZ")])
        circ = brickwork(2, 1)
        with pytest.raises(ValidationError):
            assemble_local_objective(
                circ, 0, noisy_chain_state(2), obs
            )


def _certified(info, tol):
    """The returned value is within tol of the proven lower bound."""
    return info["gap"] <= tol * (1.0 + abs(info["value"]))


def _raw_objective(circ, index, data, obs, walks=None):
    """M as assemble_local_objective sums it, before the Hermitian part is
    taken: cold walks, one per chunk, unless ``walks`` are given."""
    return sum(walk.objective(circ, index) for walk in walks or _cut_walks(circ, data, obs))


def _assert_objectives_match_dense(circ, rho, data, obs):
    for index in range(len(circ.components)):
        want = _raw_objective(circ, index, rho, obs)
        got = _raw_objective(circ, index, data, obs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), index


def _from_scratch(circ, index, rho, obs):
    """The dense cut objective rebuilt from nothing: rho run forward through
    the components before the cut, the observable backward through the
    adjoints of those after it."""
    n = circ.num_qubits
    fwd = apply_circuit_dense(MapCircuit(n, circ.components[:index]), rho.matrix)
    bwd = obs.matrix()
    for c in reversed(circ.components[index + 1 :]):
        bwd = apply_superop_local(bwd, c.map.superop.conj().T, c.qubits, n)
    support = circ.components[index].qubits
    r, rbar = group_cut_pair(fwd[..., None, None], bwd[..., None, None], range(n), support)
    return cut_objective(r, rbar, np.ones((1, 1)))


def _count_dense_applications(monkeypatch):
    calls = []
    real = densesim.apply_superop_local

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(densesim, "apply_superop_local", counting)
    monkeypatch.setattr(cone, "apply_superop_local", counting)
    return calls


def _leak_trace(monkeypatch):
    """Make every dense and light-cone map application lose a thousandth of
    the trace, as a faulty kernel would."""
    real = densesim.apply_superop_local

    def leaking(*args, **kwargs):
        return 0.999 * real(*args, **kwargs)

    monkeypatch.setattr(densesim, "apply_superop_local", leaking)
    monkeypatch.setattr(cone, "apply_superop_local", leaking)


class TestDenseEnvironments:
    @pytest.mark.parametrize(
        "order", [(0, 1, 2, 3, 4, 5, 6, 7), (7, 6, 5, 4, 3, 2, 1, 0), (3, 0, 6, 3, 1, 7, 5, 2, 4)]
    )
    def test_objectives_are_bit_identical_with_installs(self, order):
        rng = np.random.default_rng(80)
        rho = noisy_chain_state(5, theta=0.3, p=0.02)
        circ = brickwork(5, 4, lambda layer, qubits: random_cptp_map(2, rng))
        assert len(circ.components) == 8
        obs = xx_hamiltonian(5, field=0.6, periodic=True)
        walks = list(_cut_walks(circ, rho, obs))
        assert len(walks) == 1
        for visit, index in enumerate(order * 2):
            got = _raw_objective(circ, index, rho, obs, walks)
            cold = _raw_objective(circ, index, rho, obs)
            assert np.array_equal(got, cold), (visit, index)
            assert np.array_equal(got, _from_scratch(circ, index, rho, obs)), (visit, index)
            if visit % 3 != 2:  # install at most visits, not all
                circ = circ.with_component(index, random_unitary_map(2, rng))
            if visit % 4 == 1:  # and now and then at a second component too
                other = int(rng.integers(len(circ.components)))
                circ = circ.with_component(other, random_unitary_map(2, rng))
        # a walk's steps fix the supports: another circuit gets its own walk
        shorter = brickwork(5, 2, lambda layer, qubits: random_cptp_map(2, rng))
        for index in (3, 0):
            got = _raw_objective(shorter, index, rho, obs)
            assert np.array_equal(got, _from_scratch(shorter, index, rho, obs))

    def test_index_order_round_costs_fewer_than_three_applications_per_component(
        self, monkeypatch
    ):
        rng = np.random.default_rng(81)
        rho = noisy_chain_state(4, theta=0.3, p=0.02)
        circ = staircase(4, 3, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(4, field=0.6)
        k = len(circ.components)
        assert k == 9
        (walk,) = _cut_walks(circ, rho, obs)
        calls = _count_dense_applications(monkeypatch)
        for _ in range(3):
            before = len(calls)
            for index in range(k):
                walk.residuals(circ, index)
                circ = circ.with_component(index, random_cptp_map(2, rng))
            # the forward state advances K - 1 times, the backward operators
            # are rebuilt once from the end, keeping 0, 3, 6 and the block
            # 7-8, and then 1-2 and 4-5 are recomputed from 0 and 3
            assert len(calls) - before == 2 * (k - 1) + 4
        # without installs nothing is invalidated, and blocks passed are dropped
        for index in range(k):
            walk.residuals(circ, index)
        # 0, 3, 6 and a block of two, not all nine
        assert walk.peak_bytes == 5 * obs.matrix().nbytes

    def test_sweep_cuts_through_one_environment(self, monkeypatch):
        rho = noisy_chain_state(4, theta=0.3, p=0.01)
        obs = xx_hamiltonian(4, field=0.4)
        options = SweepOptions(rounds=2, init="random_unitary", seed=2)
        k = len(brickwork(4, 2).components)
        calls = _count_dense_applications(monkeypatch)
        _, report = sweep(brickwork(4, 2), rho, obs, options)
        assert all(s.installed for s in report.steps)
        # one energy of K applications, and per round 2 (K - 1) and the
        # backward operator 1, recomputed from 0 between the kept 0 and 2
        assert k == 3 and len(calls) == k + 2 * (2 * (k - 1) + 1)

    def test_leaking_kernel_is_refused(self, monkeypatch):
        # the trace check of every dense forward application holds on the walk
        rho = noisy_chain_state(4, theta=0.3, p=0.01)
        obs = xx_hamiltonian(4, field=0.4)
        circ = brickwork(4, 2)
        _leak_trace(monkeypatch)
        with pytest.raises(ValidationError, match="trace not preserved"):
            sweep(circ, rho, obs, SweepOptions(rounds=1))
        with pytest.raises(ValidationError, match="trace not preserved"):
            assemble_local_objective(circ, 2, rho, obs)


class TestRowWalk:
    @pytest.mark.parametrize("order", [tuple(range(9)), tuple(range(8, -1, -1)), (4, 0, 7, 4, 2, 8, 1)])
    @pytest.mark.parametrize("kind", ["classical", "batch"])
    def test_objectives_are_bit_identical_with_installs(self, kind, order):
        rng = np.random.default_rng(82)
        circ = staircase(4, 3, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(4, field=0.6, periodic=True)
        if kind == "classical":
            data = classical_input(4)
        else:
            data = data_from_batch(sample_outcomes(noisy_chain_state(4), "sic", 50, seed=6), "sic")
            assert len(data.weights) > 1
        walks = list(_cut_walks(circ, data, obs))
        assert len(walks) == 1
        for visit, index in enumerate(order * 2):
            got = _raw_objective(circ, index, data, obs, walks)
            assert np.array_equal(got, _raw_objective(circ, index, data, obs)), (visit, index)
            if visit % 3 != 2:
                circ = circ.with_component(index, random_unitary_map(2, rng))
            if visit % 4 == 1:
                other = int(rng.integers(len(circ.components)))
                circ = circ.with_component(other, random_unitary_map(2, rng))

    def test_index_order_round_runs_the_plan_a_few_times(self, monkeypatch):
        # staircase(6, 2): component i+1's apply step comes before component
        # i's once, so a round in index order runs the plan's steps about
        # four times, not once per component
        rng = np.random.default_rng(83)
        circ = staircase(6, 2, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(6, field=0.6, periodic=True)
        data = classical_input(6)
        k = len(circ.components)
        (walk,) = _cut_walks(circ, data, obs)
        calls = _count_dense_applications(monkeypatch)
        for index in range(k):
            walk.residuals(circ, index)
            circ = circ.with_component(index, random_cptp_map(2, rng))
        kept = len(calls)
        calls.clear()
        for index in range(k):
            _raw_objective(circ, index, data, obs)
        assert kept < 4 * k < len(calls)

    def test_leaking_kernel_is_refused_per_row(self, monkeypatch):
        # the leak shows only in rows whose residual has a trace: a row of
        # traceless factors passes, and a batch holding one row with a trace
        # does not
        obs = xx_hamiltonian(4, field=0.4)
        circ = brickwork(4, 2)
        _leak_trace(monkeypatch)
        steps = schedule(circ).steps
        last = max(range(len(circ.components)), key=lambda j: steps.index(cone.ScheduleStep("apply", component=j)))
        tables = [np.array([np.diag([1.0, -1.0]), np.diag([1.0, 0.0])], dtype=complex)] * 4
        traceless = ProductInputData(np.ones(1), tables, np.zeros((1, 4), dtype=int))
        assemble_local_objective(circ, last, traceless, obs)
        both = ProductInputData(np.ones(2), tables, np.array([[0, 0, 0, 0], [1, 1, 1, 1]]))
        with pytest.raises(ValidationError, match="trace not preserved"):
            assemble_local_objective(circ, last, both, obs)


class TestCollapseRule:
    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("layers", [1, 3])
    def test_classical_row_stays_on_the_row_path(self, n, layers):
        data = classical_input(n)
        # even with many terms per row
        obs = Observable.from_terms(n, [(1.0, "Z" * k + "X" * (n - k)) for k in range(n + 1)])
        assert varopt._collapse_if_cheaper(staircase(n, layers), data, obs) is data

    def test_measured_batch_collapses(self):
        batch = sample_outcomes(noisy_chain_state(3), "sic", 2000, seed=4)
        data = data_from_batch(batch, "sic")
        got = varopt._collapse_if_cheaper(brickwork(3, 2), data, xx_hamiltonian(3))
        assert isinstance(got, DensityMatrix)
        np.testing.assert_array_equal(got.matrix, collapse(data).matrix)

    def test_few_rows_stay_beyond_the_crossover(self):
        # brickwork(10, 4) peaks at 5 active qubits; 20 rows x 30 terms x 4^5
        # residual entries are fewer than the 4^10 of the dense operator
        rng = np.random.default_rng(41)
        data = ProductInputData(np.full(20, 0.05), dual_arrays("sic", 10), rng.integers(0, 4, (20, 10)))
        assert varopt._collapse_if_cheaper(brickwork(10, 4), data, xx_hamiltonian(10, periodic=True)) is data

    def test_rows_above_the_dense_limit_stay(self):
        rng = np.random.default_rng(42)
        data = ProductInputData(np.full(500, 0.002), dual_arrays("sic", 11), rng.integers(0, 4, (500, 11)))
        assert varopt._collapse_if_cheaper(brickwork(11, 1), data, xx_hamiltonian(11)) is data

    def test_rows_stay_when_the_collapse_would_outgrow_the_operator(self, monkeypatch):
        # six outcomes per qubit: 6^10 counts against the 4^10 entries of the
        # dense operator, although 500 rows x 30 terms x 4^5 are far more
        monkeypatch.setattr(varopt, "collapse", lambda d: pytest.fail("collapsed"))
        rng = np.random.default_rng(43)
        data = ProductInputData(
            np.full(500, 0.002), dual_arrays(compute_duals(cube_povm()), 10), rng.integers(0, 6, (500, 10))
        )
        assert varopt._collapse_if_cheaper(brickwork(10, 4), data, xx_hamiltonian(10, periodic=True)) is data

    def test_small_frames_still_collapse(self):
        # two outcomes on qubit 0 and four elsewhere: every tensor of the
        # collapse is at most 4^N
        batch = sample_outcomes(noisy_chain_state(3), "sic", 2000, seed=4)
        data = data_from_batch(batch, "sic")
        zbasis = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
        data = ProductInputData(data.weights, [zbasis, *data.tables[1:]], data.rows % [2, 4, 4])
        got = varopt._collapse_if_cheaper(brickwork(3, 2), data, xx_hamiltonian(3))
        np.testing.assert_array_equal(got.matrix, collapse(data).matrix)


class TestSweepCollapse:
    def test_batch_is_collapsed_once_before_the_first_visit(self, monkeypatch):
        batch = sample_outcomes(noisy_chain_state(3), "sic", 2000, seed=7)
        data = data_from_batch(batch, "sic")
        obs = xx_hamiltonian(3, field=0.4)
        options = SweepOptions(rounds=2, init="random_unitary", seed=1)
        want_circuit, want = sweep(brickwork(3, 2), collapse(data), obs, options)
        collapsed, kinds = [], []
        real_assemble = varopt.assemble_local_objective

        def assemble(circuit, index, d, o, **kwargs):
            kinds.append(type(d))
            return real_assemble(circuit, index, d, o, **kwargs)

        monkeypatch.setattr(varopt, "collapse", lambda d: collapsed.append(d) or collapse(d))
        monkeypatch.setattr(varopt, "assemble_local_objective", assemble)
        got_circuit, got = sweep(brickwork(3, 2), data, obs, options)
        assert collapsed == [data]
        assert kinds and set(kinds) == {DensityMatrix}
        assert got.steps == want.steps and got.initial_energy == want.initial_energy
        for a, b in zip(got_circuit.components, want_circuit.components):
            assert np.array_equal(a.map.superop, b.map.superop)

    def test_classical_input_sweeps_on_rows(self, monkeypatch):
        monkeypatch.setattr(varopt, "collapse", lambda d: pytest.fail("collapsed one row"))
        obs = xx_hamiltonian(3, field=0.4)
        sweep(staircase(3, 1), classical_input(3), obs, SweepOptions(rounds=1, init="random_unitary"))


class TestDeepCircuitObjectives:
    @pytest.mark.parametrize("build", [staircase, brickwork])
    def test_zero_input_matches_dense(self, build):
        rng = np.random.default_rng(71)
        circ = build(8, 2, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(8, coupling=1.0, field=0.7, periodic=True)
        _assert_objectives_match_dense(circ, computational_zero(8), classical_input(8), obs)

    @pytest.mark.parametrize("build", [staircase, brickwork])
    def test_distribution_rows_match_dense(self, build):
        rng = np.random.default_rng(72)
        circ = build(5, 2, lambda layer, qubits: random_unitary_map(2, rng))
        g = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        rho = DensityMatrix(5, g @ g.conj().T / np.trace(g @ g.conj().T).real)
        obs = Observable.from_terms(
            5, [(0.8, "ZIIIZ"), (-0.5, "IXXII"), (0.3, "YIIYI"), (1.1, "IIIZI")]
        )
        data = data_from_distribution(rho, "sic")  # 4^5 rows
        _assert_objectives_match_dense(circ, rho, data, obs)

    def test_term_chunks_match_one_chunk(self, monkeypatch):
        import virtualmap.cone as cone_module

        rng = np.random.default_rng(73)
        circ = brickwork(5, 2, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(5, field=0.7)
        data = data_from_batch(sample_outcomes(noisy_chain_state(5), "sic", 20, seed=3), "sic")
        want = [_raw_objective(circ, k, data, obs) for k in range(len(circ.components))]
        # three terms of one row per chunk
        monkeypatch.setattr(cone_module, "_BATCH_ENTRIES", 3 * 4 ** schedule(circ).peak_active)
        for k, m in enumerate(want):
            got = _raw_objective(circ, k, data, obs)
            assert np.max(np.abs(got - m)) <= 1e-12 * np.max(np.abs(m)), k


    def test_row_chunks_match_one_chunk_and_the_collapse(self, monkeypatch):
        rng = np.random.default_rng(74)
        circ = brickwork(5, 2, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(5, field=0.7)
        data = data_from_batch(sample_outcomes(noisy_chain_state(5), "sic", 400, seed=8), "sic")
        assert len(list(_cut_walks(circ, data, obs))) == 1
        k = len(circ.components)
        want = [_raw_objective(circ, j, data, obs) for j in range(k)]
        dense = [_raw_objective(circ, j, collapse(data), obs) for j in range(k)]
        # seven rows of all the terms per chunk
        entries = 7 * len(obs.terms) * 4 ** schedule(circ).peak_active
        monkeypatch.setattr(cone, "_BATCH_ENTRIES", entries)
        assert len(list(_cut_walks(circ, data, obs))) == -(-len(data.weights) // 7)
        for j in range(k):
            got = _raw_objective(circ, j, data, obs)
            scale = np.max(np.abs(want[j]))
            assert np.max(np.abs(got - want[j])) <= 1e-13 * scale, j
            for m in (got, want[j]):
                assert np.max(np.abs(m - dense[j])) <= 1e-12 * np.max(np.abs(dense[j])), j


class TestMinimizeOverCptp:
    def test_identity_cost_is_trace_of_choi(self):
        # every TP Choi on one qubit has trace 2
        choi, info = minimize_over_cptp(np.eye(4))
        assert abs(info["value"] - 2.0) < 1e-6
        neg, tp = cptp_residuals(choi.matrix, 2)
        assert neg <= 1e-7 and tp <= 1e-7

    def test_achievable_zero_cost(self):
        # penalize the |0><0| -> |1><1| transition only; identity map scores 0
        m = np.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        choi, info = minimize_over_cptp(m)
        assert info["value"] <= 1e-7
        neg, tp = cptp_residuals(choi.matrix, 2)
        assert neg <= 1e-7 and tp <= 1e-7

    def test_ground_projector_objective(self):
        # M = H^T (x) I picks out sum_j <j|Lambda... smallest achievable value
        # for M = kron(rho0^T, H) is the ground energy of H when rho0 is pure.
        h = np.diag([3.0, -1.0])
        rho0 = np.diag([1.0, 0.0])
        m = np.kron(rho0.T, h)
        choi, info = minimize_over_cptp(m)
        assert abs(info["value"] - (-1.0)) < 1e-6

    def test_zero_objective_returns_depolarizing(self):
        choi, info = minimize_over_cptp(np.zeros((4, 4)))
        np.testing.assert_allclose(choi.matrix, np.eye(4) / 2.0, atol=1e-9)

    def test_two_qubit_case_reaches_certified_value(self):
        # the dual bound certifies the value on random 1- and 2-qubit objectives,
        # and no channel scores below it
        rng = np.random.default_rng(12)
        for arity in (1, 2):
            for _ in range(10):
                objective = _random_hermitian(4**arity, rng)
                choi, info = minimize_over_cptp(objective)
                assert info["converged"]
                assert _certified(info, 1e-9)
                assert info["gap"] == pytest.approx(info["value"] - info["dual_bound"])
                neg, tp = cptp_residuals(choi.matrix, 2**arity)
                assert neg <= 1e-7 and tp <= 1e-7
                for _ in range(5):
                    other = superop_to_choi(random_cptp_map(arity, rng))
                    assert objective_value(objective, other) >= info["dual_bound"] - 1e-12

    def test_dual_bound_below_brute_force_minimum(self):
        # criterion 6's fixtures: an explicit channel found by a multi-start
        # search never scores below the certified lower bound
        rng = np.random.default_rng(606)
        for fixture in range(5):
            m = _random_hermitian(4, rng)
            _, info = minimize_over_cptp(m)
            assert info["dual_bound"] <= brute_force_min(m, seed=fixture, starts=2) + 1e-12

    def test_brute_force_choi_matches_kraus_superoperator(self):
        # the reference search's einsum Choi against kron-summed Kraus superoperators
        d, r = 2, 4
        rng = np.random.default_rng(607)
        for _ in range(20):
            x = rng.standard_normal(2 * d * r * d)
            z = (x[: d * r * d] + 1j * x[d * r * d :]).reshape(d * r, d)
            kraus = np.linalg.qr(z)[0].reshape(d, r, d).transpose(1, 0, 2)
            superop = sum(np.kron(k.conj(), k) for k in kraus)
            want = superop_to_choi(LocalMap(superop)).matrix
            assert np.max(np.abs(stinespring_choi(x, d, r) - want)) <= 1e-12

    @pytest.mark.parametrize("c", [-2.5, 0.0, 3.0])
    def test_multiple_of_identity_is_solved_at_the_start(self, c):
        # Tr[C (c I)] = c * dim for every channel; the start I/dim is optimal
        choi, info = minimize_over_cptp(c * np.eye(16))
        assert info["iters"] == 0 and info["converged"]
        assert info["value"] == pytest.approx(4.0 * c, abs=1e-12)
        np.testing.assert_array_equal(choi.matrix, np.eye(16) / 4.0)

    @pytest.mark.parametrize(
        "case", ["input_only", "output_only", "rank_one", "neg_rank_one", "half_degenerate"]
    )
    def test_degenerate_and_low_rank_objectives(self, case):
        rng = np.random.default_rng(21)
        h = _random_hermitian(4, rng)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        m, want = {
            # Tr[C (H (x) I)] = Tr H on the whole feasible set
            "input_only": (np.kron(h, np.eye(4)), np.trace(h).real),
            # Tr[C (I (x) H)] = Tr[Tr_in(C) H] >= 4 lambda_min(H), attained
            "output_only": (np.kron(np.eye(4), h), 4.0 * np.linalg.eigvalsh(h)[0]),
            "rank_one": (np.outer(v, v.conj()), None),
            "neg_rank_one": (-np.outer(v, v.conj()), None),
            "half_degenerate": ((q * np.repeat([0.0, 1.0], 8)) @ q.conj().T, None),
        }[case]
        choi, info = minimize_over_cptp(m)
        assert _certified(info, 1e-9)
        assert not info["converged"] or _certified(info, SdpOptions().tol)
        if want is not None:
            assert abs(info["value"] - want) <= 1e-9 * (1.0 + abs(want))
        neg, tp = cptp_residuals(choi.matrix, 4)
        assert neg <= 1e-7 and tp <= 1e-7

    def test_iteration_cap_reports_unconverged(self):
        rng = np.random.default_rng(14)
        objective = _random_hermitian(16, rng)
        choi, info = minimize_over_cptp(objective, SdpOptions(max_iters=1))
        assert info["iters"] == 1
        assert not info["converged"]
        assert info["gap"] > SdpOptions().tol * (1.0 + abs(info["value"]))
        assert info["dual_bound"] <= minimize_over_cptp(objective)[1]["value"]
        neg, tp = cptp_residuals(choi.matrix, 4)
        assert neg <= 1e-7 and tp <= 1e-7

    def test_converged_describes_the_returned_point(self):
        # converged is the certified-gap test on the returned value, whatever
        # ended the Newton loop
        rng = np.random.default_rng(5)
        tol = SdpOptions().tol
        for _ in range(200):
            arity = int(rng.integers(1, 3))
            m = _random_hermitian(4**arity, rng) * 10.0 ** rng.uniform(-2, 2)
            _, info = minimize_over_cptp(m)
            assert isinstance(info["converged"], bool)
            assert info["converged"] == (info["gap"] <= tol * (1.0 + abs(info["value"])))

    def test_rejects_non_finite_objective(self):
        m = np.eye(4)
        m[1, 2] = np.nan
        with pytest.raises(ValidationError):
            minimize_over_cptp(m)

    @pytest.mark.parametrize("shape", [(16, 4), (2, 16, 16), (16,), (0, 0)])
    def test_rejects_malformed_objective(self, shape):
        with pytest.raises(ValidationError, match="non-empty square"):
            minimize_over_cptp(np.ones(shape))
        with pytest.raises(ValidationError, match="non-empty square"):
            minimize_over_cptp(np.ones(shape))

    @pytest.mark.parametrize("entries", [[["a"]], [[1.0, None], [None, 1.0]], [[True, False]] * 2])
    def test_rejects_non_numeric_objective(self, entries):
        with pytest.raises(ValidationError, match="numeric"):
            minimize_over_cptp(np.array(entries))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": -1},
            {"tol": 0.0},
            {"tol": -1e-9},
            {"tol": float("nan")},
            {"max_iters": 2.5},
            {"max_iters": "3"},
            {"max_iters": True},
            {"tol": "1e-9"},
            {"tol": True},
            {"max_iters": np.float64(3.0)},
            {"max_iters": np.bool_(True)},
        ],
    )
    def test_bad_options_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            SdpOptions(**kwargs)

    def test_numpy_integer_options_are_stored_as_ints(self):
        options = SdpOptions(max_iters=np.int64(3))
        assert options.max_iters == 3 and type(options.max_iters) is int

    @pytest.mark.parametrize("index", [54, 278])
    def test_objectives_that_stalled_at_the_gap_floor_converge(self, index):
        # with Mehrotra's sigma unfloored these two ended converged=False:
        # the iterate left the central path and the primal steps collapsed
        m = next(islice(_replay_random_objectives(), index, None))
        _, info = minimize_over_cptp(m)
        assert info["converged"]
        assert info["iters"] <= 14

    def test_a_converged_solve_makes_one_eigvalsh_per_newton_step(self, monkeypatch):
        # the start's eigvalsh(M), one step-length eigvalsh per Newton step
        # and the feasibility check's, all through the solver's LAPACK
        # kernel: the dual bound costs none
        rng = np.random.default_rng(43)
        real_eigvalsh = varopt._eigvalsh
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real_eigvalsh(*args, **kwargs)

        monkeypatch.setattr(varopt, "_eigvalsh", counting)
        for i in range(50):
            m = _random_hermitian(4 ** (1 + i % 2), rng) * 10.0 ** rng.uniform(-2, 2)
            calls.clear()
            _, info = minimize_over_cptp(m)
            assert info["converged"], i
            assert len(calls) == info["iters"] + 2, i

    def test_every_exit_reports_a_proven_bound(self):
        # max_iters 0..12 ends the loop at every stage of the solve: the bound
        # returned by a capped solve still holds against random channels and
        # the converged solve's channel, and converged is the gap test
        rng = np.random.default_rng(41)
        tol = SdpOptions().tol
        exits = set()
        for arity in (1, 2, 1, 2):
            objective = _random_hermitian(4**arity, rng)
            best, _ = minimize_over_cptp(objective)
            channels = [best] + [superop_to_choi(random_cptp_map(arity, rng)) for _ in range(20)]
            lowest = min(objective_value(objective, c) for c in channels)
            for max_iters in range(13):
                _, info = minimize_over_cptp(objective, SdpOptions(max_iters=max_iters))
                assert info["dual_bound"] <= lowest + 1e-12 * (1.0 + abs(lowest))
                assert info["converged"] == (info["gap"] <= tol * (1.0 + abs(info["value"])))
                exits.add(info["converged"])
        assert exits == {False, True}

    def test_diagonal_objectives_at_every_exit(self):
        # a diagonal M keeps every iterate diagonal, where the skip test of
        # the bound and the bound itself agree: the optimum sum_in min_out M
        # lies between the bound and the value at every step cap, and
        # converged is the gap test
        rng = np.random.default_rng(45)
        tol = SdpOptions().tol
        exits = set()
        for arity in (1, 2, 1, 2):
            d = 2**arity
            diag = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-2, 2)  # [in, out]
            optimum = diag.min(axis=1).sum()
            for max_iters in range(13):
                _, info = minimize_over_cptp(np.diag(diag.reshape(-1)), SdpOptions(max_iters=max_iters))
                slack = 1e-12 * (1.0 + abs(optimum))
                assert info["dual_bound"] <= optimum + slack <= info["value"] + 2.0 * slack
                assert info["converged"] == (info["gap"] <= tol * (1.0 + abs(info["value"])))
                exits.add(info["converged"])
        assert exits == {False, True}

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_skipping_the_bound_changes_no_solve(self, monkeypatch, diagonal):
        # with the skip test always passing, the bound is read at every step,
        # as before the skip: every answer, bound and step count stay the
        # same bit for bit, at every step cap
        rng = np.random.default_rng(46)
        mats = []
        for i in range(20):
            side = 4 ** (1 + i % 2)
            m = _random_hermitian(side, rng) * 10.0 ** rng.uniform(-2, 2)
            mats.append(np.diag(m.diagonal()) if diagonal else m)
        caps = [SdpOptions(max_iters=k) for k in (0, 3, 8)] + [SdpOptions()]

        def answers():
            out = []
            for m in mats:
                for options in caps:
                    choi, info = minimize_over_cptp(m, options)
                    out.append((choi.matrix.tobytes(), info["dual_bound"], info["iters"]))
            return out

        skipping = answers()
        monkeypatch.setattr(varopt, "_min_eig_ceiling", lambda s_inv: np.inf)
        assert answers() == skipping

    def test_a_nan_solution_is_refused(self, monkeypatch):
        # an eigensolver that fails returns NaN, which must fail the
        # feasibility test rather than read as a zero residual
        monkeypatch.setattr(varopt, "_tp_polish", lambda c, dim: np.full_like(c, np.nan))
        with np.errstate(invalid="ignore"):
            assert all(np.isnan(cptp_residuals(np.full((4, 4), np.nan, dtype=complex), 2)))
            with pytest.raises(NumericalError, match="infeasible"):
                minimize_over_cptp(np.eye(4))

    @pytest.mark.filterwarnings("error")
    def test_a_failed_factorization_ends_the_solve_with_a_proven_bound(self, monkeypatch):
        # tol = 1e-30 is out of reach, so the loop runs until the Cholesky of
        # C or S fails near the boundary, or a step falls below _MIN_STEP, or
        # max_iters. Only the failed factorization ends an unconverged solve
        # before max_iters with as many step-length calls as Newton steps
        # (the _MIN_STEP exit comes after its step's call). It must end
        # quietly with the bound of the last S that factored, and a finite
        # CPTP channel.
        rng = np.random.default_rng(44)
        options = SdpOptions(tol=1e-30, max_iters=200)
        real_steps = varopt._max_steps
        calls = []

        def counting(*args):
            calls.append(1)
            return real_steps(*args)

        monkeypatch.setattr(varopt, "_max_steps", counting)
        failed = 0
        for i in range(60):
            arity = 1 + i % 2
            m = _random_hermitian(4**arity, rng) * 10.0 ** rng.uniform(-2, 2)
            calls.clear()
            choi, info = minimize_over_cptp(m, options)
            failed += not info["converged"] and len(calls) == info["iters"] < options.max_iters
            assert np.all(np.isfinite(choi.matrix)), i
            neg, tp = cptp_residuals(choi.matrix, 2**arity)
            assert neg <= 1e-9 and tp <= 1e-12, i
            channels = [superop_to_choi(random_cptp_map(arity, rng)) for _ in range(10)]
            lowest = min(objective_value(m, c) for c in channels + [choi])
            assert info["dual_bound"] <= lowest + 1e-12 * (1.0 + abs(lowest)), i
        assert failed >= 40


def _positive_definite(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T + 0.1 * np.eye(dim)


def _bordered_factor(pair):
    """The solver's Cholesky of the bordered stack of ``pair``, and its
    lower-left blocks R^H."""
    side = pair.shape[-1]
    bordered = _bordered(side)
    bordered[:, :side, :side] = pair
    factors = varopt._cholesky(bordered, signature="D->D")
    return factors, factors[:, side:, :side]


class TestInteriorPointKernels:
    def test_stacked_cholesky_roots_invert_both_matrices(self):
        # one Cholesky of the stacked bordered (C, S) gives L^-H = R^H in its
        # lower-left blocks: R Z R^H = I for both, and S^-1 = R_S^H R_S
        rng = np.random.default_rng(33)
        for side in (4, 16):
            pair = np.stack([_positive_definite(side, rng), _positive_definite(side, rng)])
            _, roots_h = _bordered_factor(pair)
            want = np.linalg.inv(np.linalg.cholesky(pair)).conj().transpose(0, 2, 1)
            assert np.abs(roots_h - want).max() <= 1e-13 * np.abs(want).max()
            roots = roots_h.conj().transpose(0, 2, 1)
            assert np.abs(roots @ pair @ roots_h - np.eye(side)).max() <= 1e-12
            inverse = np.linalg.inv(pair[1])
            assert np.abs(roots_h[1] @ roots[1] - inverse).max() <= 1e-12 * np.abs(inverse).max()

    def test_bordered_roots_of_ill_conditioned_matrices(self):
        # condition numbers 1e6 to 1e14: R Z R^H = I as closely as with the
        # inverse of the plain factor
        rng = np.random.default_rng(39)
        for cond in (1e6, 1e10, 1e14):
            q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
            z = (q * np.geomspace(1.0, 1.0 / cond, 16)) @ q.conj().T
            z = np.stack([(z + z.conj().T) / 2.0] * 2)
            _, roots_h = _bordered_factor(z)
            roots = roots_h.conj().transpose(0, 2, 1)
            lu = np.linalg.inv(np.linalg.cholesky(z))
            err = np.abs(roots @ z @ roots_h - np.eye(16)).max()
            assert err <= 10.0 * np.abs(lu @ z @ lu.conj().transpose(0, 2, 1) - np.eye(16)).max() + 1e-12

    def test_lapack_kernels_equal_the_public_linalg_calls(self):
        # the solver calls numpy.linalg's LAPACK gufuncs with the signatures
        # its public wrappers pass; on stacked batches, into a buffer or not,
        # each must equal the wrapper's result bit for bit
        rng = np.random.default_rng(36)
        for side in (4, 16):
            pair = np.stack([_positive_definite(side, rng), _positive_definite(side, rng)])
            hermitian = np.stack([_random_hermitian(side, rng), _random_hermitian(side, rng)])
            rhs = rng.standard_normal(side) + 1j * rng.standard_normal(side)
            buf = np.empty_like(pair)
            vals, vecs = varopt._eigh(hermitian, signature="D->dD")
            want_vals, want_vecs = np.linalg.eigh(hermitian)
            cases = [
                (varopt._cholesky(pair, signature="D->D", out=buf), np.linalg.cholesky(pair)),
                (varopt._eigvalsh(hermitian.real, signature="d->d"), np.linalg.eigvalsh(hermitian.real)),
                (varopt._solve1(pair[0], rhs, signature="DD->D"), np.linalg.solve(pair[0], rhs)),
                (varopt._eigvalsh(hermitian, signature="D->d"), np.linalg.eigvalsh(hermitian)),
                (vals, want_vals),
                (vecs, want_vecs),
            ]
            for got, want in cases:
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["int", "float", "complex"])
    def test_the_start_eigenvalues_are_numpy_linalgs(self, monkeypatch, kind):
        # a real objective takes the real routine, as np.linalg.eigvalsh
        # does, so its solve keeps that routine's last bits
        rng = np.random.default_rng(38)
        m = rng.standard_normal((16, 16))
        m = {"int": np.round(4.0 * m).astype(int), "float": m, "complex": m + 1j * m.T}[kind]
        real_eigvalsh = varopt._eigvalsh
        calls = []

        def recording(*args, **kwargs):
            calls.append(real_eigvalsh(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(varopt, "_eigvalsh", recording)
        minimize_over_cptp(m)
        assert calls[0].tobytes() == np.linalg.eigvalsh(0.5 * (m + m.conj().T)).tobytes()

    def test_a_failed_factorization_comes_back_as_nan(self):
        # the kernel raises no LinAlgError: a matrix of the stack that is not
        # positive definite comes back as NaN and sets the FP invalid flag;
        # the other matrix is factored as usual
        rng = np.random.default_rng(37)
        good = _positive_definite(16, rng)
        bad = _random_hermitian(16, rng) - 10.0 * np.eye(16)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(bad)
        with np.errstate(invalid="ignore"):
            factors = varopt._cholesky(np.stack([good, bad]), signature="D->D")
        assert factors[0].tobytes() == np.linalg.cholesky(good).tobytes()
        assert np.isnan(factors[1].real).all() and np.isnan(factors[1].imag).all()
        with np.errstate(invalid="warn"), pytest.warns(RuntimeWarning):
            varopt._cholesky(bad, signature="D->D")

    @pytest.mark.parametrize("side", [4, 16])
    def test_a_bordered_pair_with_a_failed_member(self, side):
        # a Z that is not positive definite leaves its bordered matrix
        # indefinite: that whole factor, roots included, comes back NaN, and
        # the other member's factor is the usual one
        rng = np.random.default_rng(40)
        good = _positive_definite(side, rng)
        bad = _random_hermitian(side, rng) - 10.0 * np.eye(side)
        with np.errstate(invalid="ignore"):
            factors, roots_h = _bordered_factor(np.stack([good, bad]))
            alone, _ = _bordered_factor(np.stack([good, good]))
        assert np.isnan(factors[1].real).all() and np.isnan(factors[1].imag).all()
        assert factors[0].tobytes() == alone[0].tobytes()
        plain = np.linalg.cholesky(good)
        assert np.abs(factors[0, :side, :side] - plain).max() <= 1e-13 * np.abs(plain).max()
        want = np.linalg.inv(plain).conj().T
        assert np.abs(roots_h[0] - want).max() <= 1e-13 * np.abs(want).max()

    def test_batched_step_lengths_match_per_matrix_eigvalsh(self):
        rng = np.random.default_rng(31)
        for side in (4, 16):
            x = _positive_definite(side, rng)
            vals, vecs = np.linalg.eigh(_positive_definite(side, rng))
            roots = np.stack(
                [np.linalg.inv(np.linalg.cholesky(x)), vecs.conj().T / np.sqrt(vals)[:, None]]
            )
            roots_h = roots.conj().transpose(0, 2, 1)
            # the second pair's direction is positive definite: no step limit
            for dirs in (
                np.stack([_random_hermitian(side, rng), _random_hermitian(side, rng)]),
                np.stack([_random_hermitian(side, rng), _positive_definite(side, rng)]),
            ):
                want = []
                for root, d in zip(roots, dirs):
                    lam = np.linalg.eigvalsh(root @ d @ root.conj().T)[0]
                    want.append(np.inf if lam >= 0.0 else -1.0 / lam)
                work = np.empty((2,) + dirs.shape, dtype=complex)
                np.testing.assert_allclose(_max_steps(roots, roots_h, dirs, work), want, rtol=1e-12)
            assert want[1] == np.inf

    def test_one_step_length_eigvalsh_per_newton_step(self, monkeypatch):
        # the centering parameter is fixed, so only the corrector's step
        # lengths are taken: a converged solve makes one batched eigvalsh
        # through _max_steps per Newton step
        rng = np.random.default_rng(35)
        real_steps = varopt._max_steps
        calls = []

        def counting(*args):
            calls.append(1)
            return real_steps(*args)

        monkeypatch.setattr(varopt, "_max_steps", counting)
        iters = 0
        for i in range(50):
            m = _random_hermitian(4 ** (1 + i % 2), rng) * 10.0 ** rng.uniform(-2, 2)
            _, info = minimize_over_cptp(m)
            assert info["converged"], i
            iters += info["iters"]
        assert len(calls) == iters > 0

    def test_inverse_norm_bounds_the_smallest_eigenvalue_from_below(self):
        # lambda_min(S) = 1 / rho(S^-1) >= 1 / ||S^-1||_inf for S > 0, and
        # the two agree for diagonal S
        rng = np.random.default_rng(34)
        for side in (4, 16) * 50:
            scale = 10.0 ** rng.uniform(-3, 3)
            s = _positive_definite(side, rng) * scale
            assert _min_eig_floor(np.linalg.inv(s)) <= np.linalg.eigvalsh(s)[0]
            diagonal = np.diag(rng.uniform(0.1, 10.0, side)) * scale
            assert _min_eig_floor(np.linalg.inv(diagonal)) == pytest.approx(
                diagonal.diagonal().min(), rel=1e-15
            )

    def test_the_skip_test_never_falls_below_the_bound(self):
        # in floating point too: 1 / max |S^-1_ii| >= 1 / ||S^-1||_inf, equal
        # for diagonal S, and 1 / max |S^-1_ii| <= min diag S up to round-off
        rng = np.random.default_rng(42)
        for side in (4, 16) * 50:
            scale = 10.0 ** rng.uniform(-3, 3)
            for s in (_positive_definite(side, rng) * scale, np.diag(rng.uniform(0.1, 10.0, side)) * scale):
                s_inv = np.linalg.inv(s)
                assert _min_eig_floor(s_inv) <= _min_eig_ceiling(s_inv)
                assert _min_eig_ceiling(s_inv) <= s.diagonal().real.min() * (1.0 + 1e-12)
            assert _min_eig_floor(s_inv) == _min_eig_ceiling(s_inv)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_one_block_schur_matches_two_block_average(self, dim):
        # the two halves of dY -> Tr_out[sym(X (dY (x) I) S^-1)], each from
        # K[(a,c),(b,e)] = sum_{r,s} P[(a,r),(b,s)] Q[(e,s),(c,r)]
        rng = np.random.default_rng(32)
        side = dim * dim
        x = _positive_definite(side, rng)
        vals, vecs = np.linalg.eigh(_positive_definite(side, rng))
        s_inv = (vecs / vals) @ vecs.conj().T  # Hermitian to round-off only

        def block(p, q):
            k = np.einsum(
                "arbs,escr->acbe",
                p.reshape(dim, dim, dim, dim),
                q.reshape(dim, dim, dim, dim),
            )
            return k.reshape(side, side)

        want = (block(x, s_inv) + block(s_inv, x)) / 2.0
        got = _schur_matrix(x, s_inv, dim, np.empty((4, side, side), dtype=complex))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _resolve_every_visit(circuit, data, obs, options):
    """The visits of a sweep that assembles and solves afresh at every visit,
    settled components too, and runs rounds until one installs nothing: its
    circuit, and each visit's step with whether the component was settled
    (visited since the last install)."""
    current, _ = sweep(circuit, data, obs, replace(options, rounds=0))
    visits, settled = [], set()
    for rnd in range(1, options.rounds + 1):
        improved = False
        for index in options.order or range(len(current.components)):
            objective = assemble_local_objective(current, index, data, obs)
            choi_new, info = minimize_over_cptp(objective, options.sdp)
            v_before = objective_value(objective, superop_to_choi(current.components[index].map))
            v_new = objective_value(objective, choi_new)
            installed = v_new < v_before - options.accept_tol
            step = SweepStep(
                round=rnd,
                component=index,
                value_before=v_before,
                installed=installed,
                subproblem_value=info["value"],
                energy=v_new if installed else v_before,
                gap=info["gap"],
                converged=info["converged"],
                newton_steps=info["iters"],
            )
            visits.append((step, index in settled))
            if installed:
                current = current.with_component(index, choi_to_superop(choi_new))
                settled.clear()
                improved = True
            settled.add(index)
        if not improved:
            break
    return current, visits


def _settled_visits_dropped(circuit, data, obs, options):
    """What sweep() must return, from _resolve_every_visit: its circuit, its
    steps without the visits to settled components, which install nothing,
    and the last step's energy taken from the circuit; and the visits."""
    current, visits = _resolve_every_visit(circuit, data, obs, options)
    assert not any(step.installed for step, settled in visits if settled)
    steps = [step for step, settled in visits if not settled]
    steps[-1].energy = circuit_energy(current, data, obs)
    return current, steps, visits


def _assert_same_maps(got, want):
    assert len(got.components) == len(want.components)
    for a, b in zip(got.components, want.components):
        assert np.array_equal(a.map.superop, b.map.superop)


def _count_solves(monkeypatch):
    from virtualmap import varopt

    calls = {"assemble": 0, "solve": 0}
    real_assemble, real_solve = varopt.assemble_local_objective, varopt.minimize_over_cptp

    def assemble(*args, **kwargs):
        calls["assemble"] += 1
        return real_assemble(*args, **kwargs)

    def solve(*args, **kwargs):
        calls["solve"] += 1
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(varopt, "assemble_local_objective", assemble)
    monkeypatch.setattr(varopt, "minimize_over_cptp", solve)
    return calls


def _count_energies(monkeypatch):
    calls = []
    real = varopt.circuit_energy

    def counting(*args, **kwargs):
        calls.append((args[0], real(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(varopt, "circuit_energy", counting)
    return calls


def _six_outcome_rows(n, shots, seed):
    """Rows of six-outcome frames on ``n`` qubits: their collapse would
    outgrow the dense operator, so a sweep keeps them as rows."""
    rng = np.random.default_rng(seed)
    rows, _, counts = unique_rows(rng.integers(0, 6, size=(shots, n)))
    return ProductInputData(counts / shots, dual_arrays(compute_duals(cube_povm()), n), rows)


class TestSweepReuse:
    """A sweep skips settled components: each of its steps is one solve, and
    its steps are those of a sweep that solves every visit, without the
    visits to settled components."""

    def test_ansatz_skips_unchanged_subproblems(self, monkeypatch):
        obs = xx_hamiltonian(5, coupling=1.0, field=0.95, periodic=True)
        options = SweepOptions(rounds=24, seed=0, init="random_unitary")
        circ, want, visits = _settled_visits_dropped(staircase(5, 1), classical_input(5), obs, options)
        calls = _count_solves(monkeypatch)
        best, report = classical_ansatz(obs, layers=1, options=options)
        assert len(visits) == 36 and len(report.steps) == 34
        assert calls == {"assemble": 34, "solve": 34}
        assert report.steps == want
        _assert_same_maps(best, circ)

    def test_dense_state_skips_unchanged_subproblems(self, monkeypatch):
        rho = noisy_chain_state(4, theta=0.3, p=0.01)
        obs = xx_hamiltonian(4, field=0.4)
        options = SweepOptions(rounds=10, init="random_unitary", seed=0, accept_tol=1e-4)
        circ, want, visits = _settled_visits_dropped(staircase(4, 1), rho, obs, options)
        calls = _count_solves(monkeypatch)
        best, report = sweep(staircase(4, 1), rho, obs, options)
        assert calls["assemble"] == calls["solve"] == len(report.steps) < len(visits)
        assert report.steps == want
        _assert_same_maps(best, circ)

    def test_order_with_repeats_skips_settled_visits(self, monkeypatch):
        # the second visit of 0 in a row, and a 2 with no install since the
        # last, repeat a solve
        rho = noisy_chain_state(4, theta=0.3, p=0.01)
        obs = xx_hamiltonian(4, field=0.4)
        options = SweepOptions(rounds=4, order=(0, 0, 2, 1, 2), init="random_unitary", seed=3)
        circ, want, visits = _settled_visits_dropped(brickwork(4, 2), rho, obs, options)
        assert len(visits) > len(want)
        calls = _count_solves(monkeypatch)
        best, report = sweep(brickwork(4, 2), rho, obs, options)
        assert calls["solve"] == len(report.steps)
        assert report.steps == want
        _assert_same_maps(best, circ)
        # the second 0 of a round repeats the first
        assert not any(
            a.round == b.round and a.component == b.component == 0
            for a, b in zip(report.steps, report.steps[1:])
        )

    def test_dense_sweep_builds_the_observable_matrix_once(self, monkeypatch):
        # once per observable, shared by the walk and the sweep's one
        # energy, however many components are visited
        rho = noisy_chain_state(4, theta=0.3, p=0.01)
        real_matrix, real_assemble = Observable.matrix, varopt.assemble_local_objective
        returned, seen = [], []

        def matrix(self):
            returned.append(real_matrix(self))  # kept alive, so ids stay distinct
            return returned[-1]

        def assemble(circuit, index, data, o, **kwargs):
            objective = real_assemble(circuit, index, data, o, **kwargs)
            seen.append((circuit, index, objective))
            return objective

        monkeypatch.setattr(Observable, "matrix", matrix)
        monkeypatch.setattr(varopt, "assemble_local_objective", assemble)
        builds, visits = [], []
        for rounds in (1, 3):
            obs = xx_hamiltonian(4, field=0.4)
            options = SweepOptions(rounds=rounds, init="random_unitary", seed=2)
            start = len(returned)
            _, report = sweep(brickwork(4, 2), rho, obs, options)
            # the walk and the energy each ask, and get the one build
            assert len(returned) - start == 2
            builds.append(len({id(m) for m in returned[start:]}))
            visits.append(len(report.steps))
            assert not returned[-1].flags.writeable
        assert builds == [1, 1] and 1 < visits[0] < visits[1]
        monkeypatch.undo()
        for circuit, index, m in seen:
            assert np.array_equal(m, assemble_local_objective(circuit, index, rho, obs))

    def test_multi_row_sweep_matches_cold_visits(self, monkeypatch):
        # six-outcome frames: the collapse would outgrow the dense operator,
        # so the rows stay rows, and fit one chunk, so the sweep keeps one walk
        data = _six_outcome_rows(4, 60, 84)
        obs = xx_hamiltonian(4, field=0.4)
        circ = brickwork(4, 3)
        assert len(data.weights) > 1
        assert varopt._collapse_if_cheaper(circ, data, obs) is data
        options = SweepOptions(rounds=2, init="random_unitary", seed=5)
        want_circ, want, _ = _settled_visits_dropped(circ, data, obs, options)
        kept = []
        real = varopt.assemble_local_objective

        def assemble(circuit, index, d, o, **kwargs):
            kept.append(kwargs["walks"])
            return real(circuit, index, d, o, **kwargs)

        monkeypatch.setattr(varopt, "assemble_local_objective", assemble)
        best, report = sweep(circ, data, obs, options)
        assert any(s.installed for s in report.steps)
        assert report.steps == want
        _assert_same_maps(best, want_circ)
        assert len(kept[0]) == 1 and all(w is kept[0] for w in kept)

    def test_installing_a_map_forces_a_fresh_solve(self, monkeypatch):
        # every visit of this chain installs, so none is skipped
        rho = noisy_chain_state(3, theta=0.3, p=0.01)
        obs = xx_hamiltonian(3, field=0.4)
        options = SweepOptions(rounds=3, init="random_unitary", seed=2)
        circ, want, visits = _settled_visits_dropped(brickwork(3, 2), rho, obs, options)
        assert all(s.installed for s in want) and len(visits) == len(want)
        calls = _count_solves(monkeypatch)
        best, report = sweep(brickwork(3, 2), rho, obs, options)
        assert calls["solve"] == len(report.steps)
        assert report.steps == want
        _assert_same_maps(best, circ)


class TestSweepEnergies:
    """A sweep's energies come from the objectives it holds: one call of
    circuit_energy checks the last of them."""

    def _data(self, kind, monkeypatch):
        if kind == "single-row":
            return staircase(5, 1), classical_input(5), 10
        if kind == "multi-chunk-rows":
            data = _six_outcome_rows(4, 60, 85)
            circ = brickwork(4, 2)
            obs = xx_hamiltonian(4, field=0.4)
            # five rows of all the terms per chunk
            entries = 5 * len(obs.terms) * 4 ** schedule(circ).peak_active
            monkeypatch.setattr(cone, "_BATCH_ENTRIES", entries)
            assert len(list(islice(_cut_walks(circ, data, obs), 2))) == 2
            return circ, data, 2
        if kind == "collapsed-rows":
            batch = sample_outcomes(noisy_chain_state(4), "sic", 2000, seed=9)
            return brickwork(4, 2), data_from_batch(batch, "sic"), 3
        return brickwork(4, 2), noisy_chain_state(4, theta=0.3, p=0.01), 3

    @pytest.mark.parametrize(
        "kind", ["single-row", "multi-chunk-rows", "collapsed-rows", "dense-state"]
    )
    @pytest.mark.parametrize("rounds", [None, 0])
    def test_one_circuit_energy_per_sweep(self, kind, rounds, monkeypatch):
        circ, data, default_rounds = self._data(kind, monkeypatch)
        obs = xx_hamiltonian(data.num_qubits, field=0.4)
        rounds = default_rounds if rounds is None else rounds
        options = SweepOptions(rounds=rounds, init="random_unitary", seed=4)
        start, _ = sweep(circ, data, obs, replace(options, rounds=0))
        want = circuit_energy(start, data, obs)
        calls = _count_energies(monkeypatch)
        best, report = sweep(circ, data, obs, options)
        ((circuit, energy),) = calls
        assert circuit is best and report.final_energy == energy
        assert abs(report.initial_energy - want) <= 1e-12 * abs(want)
        if rounds:
            assert report.initial_energy == report.steps[0].value_before
            assert any(s.installed for s in report.steps)
        else:
            assert not report.steps and report.initial_energy == energy

    def test_drifted_energy_is_refused(self, monkeypatch):
        # the last step's energy, read off its objective, is checked against
        # the circuit's energy
        rho = noisy_chain_state(3, theta=0.3, p=0.01)
        obs = xx_hamiltonian(3, field=0.4)
        real = varopt.circuit_energy
        monkeypatch.setattr(varopt, "circuit_energy", lambda *a: real(*a) + 1e-3)
        with pytest.raises(NumericalError, match="drifted"):
            sweep(brickwork(3, 2), rho, obs, SweepOptions(rounds=1, init="random_unitary"))


class TestSweep:
    def test_energies_never_increase(self):
        rho = noisy_chain_state(3, theta=0.3, p=0.01)
        obs = xx_hamiltonian(3, field=0.4)
        circ = brickwork(3, 2)
        data = data_from_distribution(rho, "sic")
        options = SweepOptions(rounds=3, init="random_unitary", seed=2)
        best, report = sweep(circ, data, obs, options)
        energies = report.energies
        assert len(energies) >= 2
        for prev, nxt in zip(energies, energies[1:]):
            assert nxt <= prev + 1e-8
        assert abs(report.final_energy - circuit_energy(best, data, obs)) < 1e-8

    def test_fixed_point_accepts_nothing(self):
        # identity observable: every TP circuit already scores 1
        obs = Observable.from_terms(2, [(1.0, "II")])
        circ = brickwork(2, 1)
        data = classical_input(2)
        options = SweepOptions(rounds=2, init="keep")
        best, report = sweep(circ, data, obs, options)
        assert all(not s.installed for s in report.steps)
        assert report.final_energy == report.initial_energy == 1.0

    def test_report_csv_shape(self):
        obs = Observable.from_terms(2, [(1.0, "ZI")])
        data = classical_input(2)
        circ = staircase(2, 1)
        best, report = sweep(
            circ, data, obs, SweepOptions(rounds=2, init="random_unitary", seed=0),
            exact_energy=-1.0,
        )
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "iteration,component,energy,relative_error"
        assert len(lines) == len(report.steps) + 2  # header + initial row
        assert report.relative_error() is not None

    def test_bad_order_rejected(self):
        obs = Observable.from_terms(2, [(1.0, "ZI")])
        with pytest.raises(ValidationError):
            sweep(
                staircase(2, 1),
                classical_input(2),
                obs,
                SweepOptions(order=(3,), rounds=1),
            )

    def test_empty_order_rejected(self):
        # an empty order would otherwise fall back to visiting every component
        with pytest.raises(ValidationError, match="at least one component"):
            SweepOptions(order=(), rounds=1)

    def test_bad_init_rejected(self):
        obs = Observable.from_terms(2, [(1.0, "ZI")])
        with pytest.raises(ValidationError):
            sweep(
                staircase(2, 1),
                classical_input(2),
                obs,
                SweepOptions(init="whatever", rounds=1),
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rounds": -2},
            {"accept_tol": -1.0},
            {"accept_tol": float("nan")},
            {"accept_tol": float("inf")},
            {"seed": -1},
            # validated like SdpOptions: a ValidationError at construction,
            # never a TypeError mid-sweep or a boolean read as a number
            {"rounds": 2.5},
            {"rounds": "2"},
            {"rounds": True},
            {"seed": 1.5},
            {"seed": True},
            {"order": (0, 1.0)},
            {"order": (0, True)},
            {"accept_tol": "1e-8"},
            {"accept_tol": True},
            {"init": "whatever"},
            {"rounds": np.float64(2.0)},
            {"seed": np.bool_(True)},
            {"order": np.array([0.0, 1.0])},
            {"order": ("0", "1")},
        ],
    )
    def test_bad_options_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            SweepOptions(**kwargs)

    def test_numpy_integer_options_are_stored_as_ints(self):
        opts = SweepOptions(
            rounds=np.int64(2), seed=np.int64(1), order=np.array([1, 0]), init="random_unitary"
        )
        assert (opts.rounds, opts.seed, opts.order) == (2, 1, (1, 0))
        assert {type(v) for v in (opts.rounds, opts.seed, *opts.order)} == {int}
        # an order kept as an array would make sweep's `options.order or ...` raise
        _, report = sweep(staircase(3, 1), classical_input(3), xx_hamiltonian(3), opts)
        assert [s.component for s in report.steps[:2]] == [1, 0]
        plain = SweepOptions(rounds=2, seed=1, order=(1, 0), init="random_unitary")
        _, want = sweep(staircase(3, 1), classical_input(3), xx_hamiltonian(3), plain)
        assert report.energies == want.energies

    def test_every_init_is_accepted(self):
        for init in SWEEP_INITS:
            assert SweepOptions(init=init, order=(1, 0)).init == init

    def test_steps_record_certificate(self):
        obs = xx_hamiltonian(3, field=0.4)
        opts = SweepOptions(rounds=2, init="random_unitary", seed=3)
        _, report = sweep(staircase(3, 1), classical_input(3), obs, opts)
        for s in report.steps:
            assert s.converged
            assert s.gap <= opts.sdp.tol * (1.0 + abs(s.subproblem_value))
        capped = replace(opts, sdp=SdpOptions(max_iters=1))
        _, report = sweep(staircase(3, 1), classical_input(3), obs, capped)
        assert not any(s.converged for s in report.steps)

    def test_seed_reproducibility(self):
        obs = xx_hamiltonian(2)
        opts = SweepOptions(rounds=2, init="random_unitary", seed=7)
        _, r1 = sweep(staircase(2, 1), classical_input(2), obs, opts)
        _, r2 = sweep(staircase(2, 1), classical_input(2), obs, opts)
        assert r1.energies == r2.energies


    def test_plans_are_built_once_per_topology(self, monkeypatch):
        from virtualmap import cone

        calls = []
        real = cone._greedy_schedule

        def counting(supports, pool, traceable):
            calls.append(tuple(traceable))
            return real(supports, pool, traceable)

        monkeypatch.setattr(cone, "_greedy_schedule", counting)
        cone._plan.cache_clear()
        # no term's light cone covers the whole register of this open chain
        circ = brickwork(8, 2)
        obs = xx_hamiltonian(8, coupling=1.0, field=0.5, periodic=False)
        options = SweepOptions(rounds=2, init="random_cptp", seed=4)
        _, report = sweep(circ, classical_input(8), obs, options)
        assert len(report.steps) == 2 * len(circ.components)
        # one whole-register plan, and at most one cone plan per term
        assert calls.count(tuple(range(8))) == 1
        assert len(calls) <= 1 + len(obs.terms)


class TestZresetCompose:
    def test_identity_circuit_prepares_zero_state(self):
        circ = staircase(3, 1)  # identity maps
        composed = zreset_compose(circ)
        rho = maximally_mixed(3)
        from virtualmap.densesim import apply_circuit_dense

        out = apply_circuit_dense(composed, rho.matrix)
        np.testing.assert_allclose(
            out, computational_zero(3).matrix, atol=1e-12
        )

    def test_untouched_qubit_rejected(self):
        # no component of brickwork(3, 1) acts on qubit 2
        with pytest.raises(ValidationError, match=r"missing \[2\]"):
            zreset_compose(brickwork(3, 1))
        with pytest.raises(ValidationError, match=r"missing \[0, 1\]"):
            zreset_compose(MapCircuit(2, ()))

    def test_reset_goes_before_each_qubits_first_component(self):
        rng = np.random.default_rng(8)
        circ = brickwork(5, 2, lambda layer, qubits: random_cptp_map(2, rng))
        composed = zreset_compose(circ).components
        reset, keep = zreset_map(), identity_map(1)
        # qubit 4 is idle in the first layer and reset at its first map
        expected = [
            compose([tensor_maps(reset, reset), circ.components[0].map]),
            compose([tensor_maps(reset, reset), circ.components[1].map]),
            circ.components[2].map,
            compose([tensor_maps(keep, reset), circ.components[3].map]),
        ]
        for got, want in zip(composed, expected):
            assert np.array_equal(got.map.superop, want.superop)
        assert [c.qubits for c in composed] == list(circ.supports)

    @pytest.mark.parametrize("n, layers", [(5, 2), (7, 3)])
    def test_odd_brickwork_ignores_its_input(self, n, layers):
        rng = np.random.default_rng(n)
        circ = brickwork(n, layers, lambda layer, qubits: random_cptp_map(2, rng))
        composed = zreset_compose(circ)
        want = apply_circuit_dense(composed, computational_zero(n).matrix)
        for _ in range(3):
            g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            rho = g @ g.conj().T
            got = apply_circuit_dense(composed, rho / np.trace(rho))
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_energy_matches_zero_input_run(self):
        rng = np.random.default_rng(13)
        circ = staircase(3, 1, lambda layer, qubits: random_cptp_map(2, rng))
        composed = zreset_compose(circ)
        obs = xx_hamiltonian(3, field=0.2)
        e_zero_input = circuit_energy(circ, classical_input(3), obs)
        # composed circuit gives the same energy from any input state
        for seed in range(3):
            rho = noisy_chain_state(3, theta=0.4 + 0.1 * seed, p=0.05)
            e = circuit_energy(composed, rho, obs)
            assert abs(e - e_zero_input) < 1e-9


class TestClassicalAnsatz:
    def test_single_qubit_z_reaches_ground(self):
        obs = Observable.from_terms(2, [(1.0, "ZI")])
        options = SweepOptions(rounds=3, seed=1, sdp=SdpOptions(max_iters=4000))
        best, report = classical_ansatz(obs, layers=1, options=options)
        assert report.final_energy <= -1.0 + 1e-5

    def test_keep_init_is_coerced(self):
        obs = Observable.from_terms(2, [(1.0, "ZI")])
        options = SweepOptions(rounds=1, init="keep", seed=0)
        best, report = classical_ansatz(obs, layers=1, options=options)
        # identity start would already sit at -1; random start must differ
        assert report.initial_energy != pytest.approx(-1.0)
