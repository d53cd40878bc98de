"""Shot-weight estimator: values, error bars, covariance, exact limits."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    cube_povm,
    expectation_oracle,
    kernel_circuits,
    kernel_observable,
    random_mixed_circuit,
    split_pairs,
)
from virtualmap import estimation, varopt
from virtualmap.cone import Component, MapCircuit, brickwork, evaluate_rows, evaluate_trace, term_groups
from virtualmap.densesim import (
    DensityMatrix,
    OutcomeBatch,
    apply_circuit_dense,
    noisy_chain_state,
    outcome_distribution,
    sample_outcomes,
)
from virtualmap.errors import NumericalError, ValidationError
from virtualmap.estimation import (
    Estimate,
    ProductInputData,
    classical_input,
    collapse,
    data_from_batch,
    data_from_distribution,
    dual_arrays,
    estimate,
    estimate_all,
    estimate_covariance,
    estimate_exact,
    shot_weight,
)
from virtualmap.linalg import kron_all
from virtualmap.maps import LocalMap, cnot_map, random_cptp_map, random_tp_hermitian_map
from virtualmap.pauli import Observable, xx_hamiltonian
from virtualmap.povm import compute_duals, make_sic_povm
from virtualmap.varopt import assemble_local_objective, circuit_energy


def _sic_dual_matrices():
    return np.asarray(compute_duals(make_sic_povm()).duals)


class TestShotWeight:
    def test_identity_observable_gives_one(self):
        # duals have unit trace and the circuit is trace preserving
        rng = np.random.default_rng(0)
        circ = brickwork(3, 1, lambda layer, qubits: random_cptp_map(2, rng))
        obs = Observable.from_terms(3, [(1.0, "III")])
        for outcome in ([0, 0, 0], [1, 2, 3], [3, 3, 0]):
            w = shot_weight(np.array(outcome), "sic", circ, obs)
            assert abs(w - 1.0) < 1e-10

    def test_z_weight_of_first_outcome(self):
        # D_0 = (I + 3Z)/2, so Tr[D_0 Z] = 3
        obs = Observable.from_terms(1, [(1.0, "Z")])
        w = shot_weight(np.array([0]), "sic", MapCircuit(1, ()), obs)
        assert abs(w - 3.0) < 1e-12

    def test_matches_dense_trace(self):
        rng = np.random.default_rng(1)
        duals = _sic_dual_matrices()
        circ = random_mixed_circuit(3, rng)
        obs = xx_hamiltonian(3, coupling=0.7, field=0.4)
        for trial in range(5):
            outcome = rng.integers(0, 4, size=3)
            w = shot_weight(outcome, "sic", circ, obs)
            dense_in = np.eye(1)
            for m in outcome:
                dense_in = np.kron(dense_in, duals[m])
            dense_out = apply_circuit_dense(circ, dense_in)
            want = np.trace(obs.matrix() @ dense_out).real
            assert abs(w - want) < 1e-10 * (1 + abs(want))

    def test_rejects_non_hermitian_observable(self):
        obs = Observable.from_terms(1, [(1.0j, "Z")])
        with pytest.raises(ValidationError):
            shot_weight(np.array([0]), "sic", MapCircuit(1, ()), obs)

    @pytest.mark.parametrize(
        "outcome",
        [[0, 1, -1], [0, 1, 4], [0, 1, 7], [0.5, 1, 2], [True, False, True], [0, 1], [0, 1, 2, 3]],
        ids=["negative", "four", "seven", "fractional", "boolean", "short", "long"],
    )
    def test_rejects_malformed_outcomes(self, outcome):
        # each is a row ProductInputData refuses, never a weight of another row
        with pytest.raises(ValidationError):
            shot_weight(outcome, "sic", brickwork(3, 1), xx_hamiltonian(3, 1.0, 0.5))

    def test_integer_outcomes_of_any_dtype_give_one_weight(self):
        rng = np.random.default_rng(3)
        circ = brickwork(3, 1, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(3, 1.0, 0.5)
        for outcome in ([0, 1, 3], [3, 3, 3], [2, 0, 1]):
            weights = {
                shot_weight(np.array(outcome, dtype=dtype), "sic", circ, obs)
                for dtype in (np.int8, np.uint8, np.intp)
            }
            assert weights == {shot_weight(outcome, "sic", circ, obs)}


class TestEstimate:
    def test_two_shot_hand_computation(self):
        # O = (I + Z)/2. Outcome 0 weight Tr[D_0 O] = 2, outcome 1 weight 0.
        # Mean 1, sample variance [ (4 + 0)/2 - 1 ] * 2/1 = 2, sigma = 1.
        batch = OutcomeBatch(np.array([[0], [1]], dtype=np.int8), ("sic",), 0)
        obs = Observable.from_terms(1, [(0.5, "I"), (0.5, "Z")])
        est = estimate(batch, "sic", MapCircuit(1, ()), obs)
        assert abs(est.value - 1.0) < 1e-12
        assert abs(est.sigma - 1.0) < 1e-12
        assert est.num_shots == 2
        assert est.imag_residue <= 1e-12

    def test_per_shot_mean_reproduces_value(self):
        # each shot takes its row's value through np.unique's inverse
        rho = noisy_chain_state(3)
        batch = sample_outcomes(rho, "sic", 64, seed=5)
        obs = xx_hamiltonian(3)
        circ = brickwork(3, 1, lambda layer, qubits: cnot_map())
        est = estimate(batch, "sic", circ, obs)
        _, inverse = np.unique(batch.outcomes, axis=0, return_inverse=True)
        per_shot = est.row_values[inverse.reshape(-1)]
        assert abs(np.mean(per_shot) - est.value) < 1e-10
        s = est.num_shots
        var = np.sum((per_shot - est.value) ** 2) / (s - 1)
        assert abs(est.sigma - np.sqrt(var / s)) < 1e-10

    def test_value_is_the_energy_of_the_batch_rows(self, monkeypatch):
        # the rows and the sum of circuit_energy on data_from_batch, bit for
        # bit, and no shot's row is ever looked up
        rng = np.random.default_rng(12)
        batch = sample_outcomes(noisy_chain_state(5), "sic", 3000, seed=9)
        circ = brickwork(5, 2, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(5, field=0.6)
        data = data_from_batch(batch, "sic")
        want = circuit_energy(circ, data, obs)
        real_unique = estimation.unique_rows

        def without_inverse(rows, return_inverse=True):
            assert not return_inverse, "inverse taken"
            return real_unique(rows, return_inverse=False)

        monkeypatch.setattr(estimation, "unique_rows", without_inverse)
        est = estimate(batch, "sic", circ, obs)
        assert est.value == want
        assert est.row_values.tobytes() == evaluate_rows(circ, data, obs).real.tobytes()
        assert est.row_weights.tobytes() == data.weights.tobytes()

    def test_row_permutation_invariance(self):
        rho = noisy_chain_state(3)
        batch = sample_outcomes(rho, "sic", 128, seed=6)
        obs = xx_hamiltonian(3)
        circ = MapCircuit(3, ())
        est_a = estimate(batch, "sic", circ, obs)
        rng = np.random.default_rng(0)
        perm = rng.permutation(128)
        shuffled = OutcomeBatch(
            batch.outcomes[perm], batch.povm_labels, batch.seed, batch.source
        )
        est_b = estimate(shuffled, "sic", circ, obs)
        assert abs(est_a.value - est_b.value) < 1e-12
        assert abs(est_a.sigma - est_b.sigma) < 1e-12

    def test_linearity_in_observable(self):
        rho = noisy_chain_state(2)
        batch = sample_outcomes(rho, "sic", 32, seed=7)
        circ = MapCircuit(2, ())
        obs_a = Observable.from_terms(2, [(1.0, "ZI")])
        obs_b = Observable.from_terms(2, [(1.0, "XX")])
        obs_ab = Observable.from_terms(2, [(0.25, "ZI"), (-1.5, "XX")])
        va = estimate(batch, "sic", circ, obs_a).value
        vb = estimate(batch, "sic", circ, obs_b).value
        vab = estimate(batch, "sic", circ, obs_ab).value
        assert abs(0.25 * va - 1.5 * vb - vab) < 1e-10

    def test_rejects_single_shot(self):
        batch = OutcomeBatch(np.array([[0]], dtype=np.int8), ("sic",), 0)
        obs = Observable.from_terms(1, [(1.0, "Z")])
        with pytest.raises(ValidationError):
            estimate(batch, "sic", MapCircuit(1, ()), obs)

    def test_rejects_register_mismatch(self):
        batch = OutcomeBatch(np.array([[0, 1], [2, 3]], dtype=np.int8), ("sic",) * 2, 0)
        obs = Observable.from_terms(2, [(1.0, "ZZ")])
        with pytest.raises(ValidationError):
            estimate(batch, "sic", MapCircuit(3, ()), obs)

    def test_rejects_outcome_outside_dual_frame(self):
        # outcome 3 has no dual in a three-element frame
        batch = OutcomeBatch(np.array([[0, 1], [2, 3]], dtype=np.int8), ("sic",) * 2, 0)
        obs = Observable.from_terms(2, [(1.0, "ZZ")])
        duals = [_sic_dual_matrices()[:3]] * 2
        with pytest.raises(ValidationError, match="outcome 3 out of range for qubit 1"):
            estimate(batch, duals, MapCircuit(2, ()), obs)

    def test_non_hermiticity_preserving_circuit_raises(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        circ = MapCircuit(2, (Component((0, 1), LocalMap(g)),))
        batch = sample_outcomes(noisy_chain_state(2), "sic", 10, seed=1)
        obs = Observable.from_terms(2, [(1.0, "ZI")])
        with pytest.raises(NumericalError, match="imaginary"):
            estimate(batch, "sic", circ, obs)


def _bits(est: Estimate) -> tuple:
    return (est.value.hex(), est.sigma.hex(), est.imag_residue.hex(), est.num_shots)


class TestOnePass:
    """``estimate_all`` checks every pair, deduplicates the batch once and
    evaluates each pair on those rows."""

    @staticmethod
    def _case():
        rng = np.random.default_rng(44)
        kernels = kernel_circuits(rng)
        circuits = [kernels["brickwork"], kernels["non-tp"]]
        observables = [kernel_observable(), xx_hamiltonian(4, field=0.6)]
        return sample_outcomes(noisy_chain_state(4), "sic", 300, seed=4), circuits, observables

    @staticmethod
    def _count_unique_rows(monkeypatch) -> list:
        calls = []
        real_unique = estimation.unique_rows

        def counted(rows, return_inverse=True):
            calls.append(rows.shape)
            return real_unique(rows, return_inverse)

        monkeypatch.setattr(estimation, "unique_rows", counted)
        return calls

    @pytest.mark.parametrize("as_iterators", [False, True])
    def test_every_pair_equals_its_own_estimate(self, monkeypatch, as_iterators):
        # for lists or one-shot iterators of pairs, and the whole grid
        # shares one read-only array of row weights
        batch, circuits, observables = self._case()
        want = [[estimate(batch, "sic", c, o) for o in observables] for c in circuits]
        calls = self._count_unique_rows(monkeypatch)
        if as_iterators:
            circuits, observables = iter(circuits), iter(observables)
        grid = estimate_all(batch, "sic", circuits, observables)
        assert calls == [(300, 4)]
        assert [len(row) for row in grid] == [2, 2]
        weights = grid[0][0].row_weights
        assert not weights.flags.writeable
        for got_row, want_row in zip(grid, want):
            for got, ref in zip(got_row, want_row):
                assert _bits(got) == _bits(ref)
                assert got.row_values.tobytes() == ref.row_values.tobytes()
                assert got.row_weights is weights and weights.tobytes() == ref.row_weights.tobytes()
                assert not got.row_values.flags.writeable

    def test_every_pair_is_checked_before_the_batch_is_read(self, monkeypatch):
        batch, circuits, observables = self._case()
        calls = self._count_unique_rows(monkeypatch)
        odd = Observable.from_terms(4, [(1j, "ZIII")])
        with pytest.raises(ValidationError, match="Hermitian"):
            estimate_all(batch, "sic", circuits, [*observables, odd])
        with pytest.raises(ValidationError, match="qubit counts differ"):
            estimate_all(batch, "sic", [*circuits, brickwork(3, 1)], observables)
        assert calls == []


class TestEstimateExact:
    def test_enumerate_matches_state_expectation(self):
        # with the frame dual to the POVM the infinite-shot limit is exact
        rho = noisy_chain_state(3, theta=0.2, p=0.01)
        obs = xx_hamiltonian(3, field=0.3)
        circ = MapCircuit(3, ())
        got = estimate_exact(rho, "sic", circ, obs, duals="sic")
        want = expectation_oracle(rho.matrix, obs)
        assert abs(got - want) < 1e-10

    def test_dense_matches_enumerate_through_circuit(self):
        rng = np.random.default_rng(2)
        rho = noisy_chain_state(3, theta=0.3, p=0.02)
        circ = brickwork(3, 2, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(3, field=0.5)
        a = estimate_exact(rho, "sic", circ, obs, duals="sic")
        b = estimate_exact(rho, "sic", circ, obs)
        assert abs(a - b) < 1e-9 * (1 + abs(a))

    def test_sample_mean_converges_to_exact(self):
        rho = noisy_chain_state(2, theta=0.4, p=0.02)
        obs = xx_hamiltonian(2)
        circ = MapCircuit(2, ())
        exact = estimate_exact(rho, "sic", circ, obs)
        batch = sample_outcomes(rho, "sic", 40000, seed=11)
        est = estimate(batch, "sic", circ, obs)
        assert abs(est.value - exact) <= 5.0 * est.sigma

    def test_custom_duals_require_enumeration(self):
        rho = noisy_chain_state(2)
        obs = xx_hamiltonian(2)
        duals = [_sic_dual_matrices()] * 2
        val = estimate_exact(rho, "sic", MapCircuit(2, ()), obs, duals=duals)
        assert abs(val - expectation_oracle(rho.matrix, obs)) < 1e-10

    def test_enumeration_reaches_the_dense_limit(self):
        rng = np.random.default_rng(3)
        rho = noisy_chain_state(10, theta=0.3, p=0.02)
        circ = brickwork(10, 2, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(10, field=0.5)
        a = estimate_exact(rho, "sic", circ, obs, duals="sic")
        b = estimate_exact(rho, "sic", circ, obs)
        assert abs(a - b) <= 1e-12

    def test_enumeration_limit(self):
        rho = DensityMatrix(11, np.eye(2048) / 2048)
        with pytest.raises(ValidationError, match="N <= 10"):
            estimate_exact(rho, "sic", MapCircuit(11, ()), xx_hamiltonian(11), duals="sic")

    def test_duals_must_match_the_outcome_counts(self):
        rho = noisy_chain_state(2)
        six = np.tile(_sic_dual_matrices()[:1], (6, 1, 1))
        with pytest.raises(ValidationError, match="differ in outcome counts"):
            estimate_exact(rho, "sic", MapCircuit(2, ()), xx_hamiltonian(2), duals=[six] * 2)


class TestDenseEnergy:
    @pytest.mark.parametrize("kind", ["cptp", "non-cp", "non-tp"])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_the_per_term_oracle(self, kind, n):
        """Tr[L(rho) H] with H the observable's matrix, against the per-term
        tensor contraction of the same dense output."""
        rng = np.random.default_rng(17 * n + len(kind))
        draw = {
            "cptp": lambda: random_cptp_map(2, rng),
            "non-cp": lambda: random_tp_hermitian_map(2, rng),
            "non-tp": lambda: LocalMap(0.9 * random_cptp_map(2, rng).superop),
        }[kind]
        circ = brickwork(n, 2, lambda layer, qubits: draw())
        rho = noisy_chain_state(n, theta=0.3, p=0.02)
        for obs in (xx_hamiltonian(n, field=0.7), _random_observable(n, rng)):
            want = expectation_oracle(apply_circuit_dense(circ, rho.matrix), obs).real
            got = circuit_energy(circ, rho, obs)
            assert abs(got - want) <= 1e-12 * (1 + abs(want))


class TestCovariance:
    def test_self_covariance_is_variance(self):
        batch = sample_outcomes(noisy_chain_state(2), "sic", 100, seed=3)
        obs = xx_hamiltonian(2)
        circ = MapCircuit(2, ())
        est = estimate(batch, "sic", circ, obs)
        cov = estimate_covariance(est, est)
        assert abs(cov - est.sigma**2) < 1e-12

    def test_negated_observable_flips_sign(self):
        batch = sample_outcomes(noisy_chain_state(2), "sic", 100, seed=4)
        circ = MapCircuit(2, ())
        obs = xx_hamiltonian(2)
        neg = Observable.from_terms(2, [(-c, p.letters) for c, p in obs.terms])
        a, b = estimate_all(batch, "sic", [circ], [obs, neg])[0]
        assert abs(estimate_covariance(a, b) + a.sigma**2) < 1e-12

    def test_requires_per_shot_and_same_batch(self):
        # an estimate without rows has no covariance, not even with itself
        batch = sample_outcomes(noisy_chain_state(2), "sic", 50, seed=5)
        est = estimate(batch, "sic", MapCircuit(2, ()), xx_hamiltonian(2))
        bare = Estimate(est.value, est.sigma, est.num_shots, est.imag_residue)
        for a, b in ((bare, est), (est, bare), (bare, bare)):
            with pytest.raises(ValidationError, match="same estimate_all pass"):
                estimate_covariance(a, b)

    def test_estimates_of_two_passes_are_refused(self):
        # two passes over one batch, or over two batches, share no row weights
        batch = sample_outcomes(noisy_chain_state(2), "sic", 50, seed=5)
        other = sample_outcomes(noisy_chain_state(2), "sic", 50, seed=6)
        obs = xx_hamiltonian(2)
        circ = MapCircuit(2, ())
        first = estimate(batch, "sic", circ, obs)
        again = estimate(batch, "sic", circ, obs)
        elsewhere = estimate(other, "sic", circ, obs)
        assert again.row_weights.tobytes() == first.row_weights.tobytes()
        for a, b in ((first, again), (first, elsewhere)):
            with pytest.raises(ValidationError, match="same estimate_all pass"):
                estimate_covariance(a, b)

    @staticmethod
    def _grid_case(n):
        """A sampled batch, its dual frames, two circuits and three
        observables: on N=4 custom duals with Tr D != 1, on N=40 (too wide for
        one int64 key per row) SIC duals and repeated rows."""
        rng = np.random.default_rng(60 + n)
        if n == 4:
            batch = sample_outcomes(noisy_chain_state(4), "sic", 500, seed=8)
            duals = _custom_duals(rng)
            assert np.max(np.abs(np.trace(duals, axis1=1, axis2=2) - 1.0)) > 1e-3
            circuits = [kernel_circuits(rng)[kind] for kind in ("brickwork", "non-tp")]
            return batch, [duals] * 4, circuits, [kernel_observable(), *_grid_observables(4)]
        rows = rng.integers(0, 4, size=(120, n))
        outcomes = np.concatenate([rows, rows[::4], rows[:7]])[rng.permutation(157)]
        circuits = [brickwork(n, 2, lambda layer, qubits: random_cptp_map(2, rng)) for _ in range(2)]
        obs = [xx_hamiltonian(n, field=0.6), *_grid_observables(n)]
        return OutcomeBatch(outcomes, ("sic",) * n, 0), "sic", circuits, obs

    @pytest.mark.parametrize("n", [4, 40])
    def test_every_pair_of_a_grid_matches_the_per_shot_formula(self, n):
        """Every covariance of a 2 x 3 grid against the per-shot sample
        covariance, each shot's weight gathered through np.unique's inverse
        from the rows' own kernel weights."""
        batch, duals, circuits, observables = self._grid_case(n)
        grid = estimate_all(batch, duals, circuits, observables)
        uniq, inverse, counts = np.unique(
            batch.outcomes, axis=0, return_inverse=True, return_counts=True
        )
        data = ProductInputData(counts / batch.num_shots, dual_arrays(duals, n), uniq)
        per_shot = [
            evaluate_rows(c, data, o).real[inverse.reshape(-1)] for c in circuits for o in observables
        ]
        flat = [est for row in grid for est in row]
        s = batch.num_shots
        for i, a in enumerate(flat):
            assert abs(estimate_covariance(a, a) - a.sigma**2) <= 1e-15 * a.sigma**2
            for j, b in enumerate(flat):
                pa, pb = per_shot[i], per_shot[j]
                want = (np.mean(pa * pb) - np.mean(pa) * np.mean(pb)) * s / (s - 1) / s
                got = estimate_covariance(a, b)
                assert abs(got - want) <= 1e-14 * (abs(want) + a.sigma * b.sigma)


class TestDualArrays:
    def test_string_broadcast(self):
        arrays = dual_arrays("sic", 3)
        assert len(arrays) == 3
        np.testing.assert_allclose(arrays[0], _sic_dual_matrices(), atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            dual_arrays(["sic", "sic"], 3)

    def test_each_preset_built_once_per_call(self, monkeypatch):
        from virtualmap import estimation
        from virtualmap.povm import get_povm

        calls = []

        def counting(label):
            calls.append(label)
            return get_povm(label)

        estimation._preset_duals.cache_clear()
        monkeypatch.setattr(estimation, "get_povm", counting)
        cube = compute_duals(cube_povm())
        duals = ["sic", cube, "sic", "sic", cube, "sic"]
        arrays = dual_arrays(duals, len(duals))
        assert calls == ["sic"]
        sic = compute_duals(get_povm("sic"))
        for d, arr in zip(duals, arrays):
            np.testing.assert_array_equal(arr, (sic if isinstance(d, str) else d).duals)
        assert arrays[1].flags.writeable  # custom frames are not shared
        again = dual_arrays("sic", 8) + dual_arrays("sic", 3)
        assert calls == ["sic"]
        for arr in again:
            np.testing.assert_array_equal(arr, sic.duals)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 0.0


class TestSupportGroups:
    @staticmethod
    def _run(monkeypatch, circ, obs, rows):
        """The weights with the term lists of the group contractions they
        ran, and the sum of single-term observables as reference."""
        from virtualmap import cone

        n = circ.num_qubits
        data = ProductInputData(np.ones(len(rows)), dual_arrays("sic", n), rows)
        want = sum(c * evaluate_rows(circ, data, Observable.from_terms(n, [(1.0, ps)])) for c, ps in obs.terms)
        calls = []
        for name in ("_outcome_table", "_row_values"):
            real = getattr(cone, name)

            def recording(*args, _real=real):
                calls.append([ps.letters for ps in args[-1]])
                return _real(*args)

            monkeypatch.setattr(cone, name, recording)
        got = evaluate_rows(circ, data, obs)
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-12
        return calls

    def test_xx_chain_runs_one_cone_per_bond(self, monkeypatch):
        rng = np.random.default_rng(96)
        circ = brickwork(8, 2, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(8, field=0.7)
        calls = self._run(monkeypatch, circ, obs, rng.integers(0, 4, size=(50, 8)))
        # one call contracts each group of term_groups once, in its order
        groups = term_groups(circ, [ps for _, ps in obs.terms])
        assert calls == [[obs.terms[k][1].letters for k in group] for group in groups]
        assert len(calls) == 8
        assert sorted(p for group in calls for p in group) == sorted(ps.letters for _, ps in obs.terms)
        for group in calls:
            support = {q for p in group for q, c in enumerate(p) if c != "I"}
            assert len(support) == 2, group

    def test_wide_term_does_not_absorb_local_terms(self, monkeypatch):
        rng = np.random.default_rng(97)
        circ = brickwork(12, 2, lambda layer, qubits: random_cptp_map(2, rng))
        chain = xx_hamiltonian(12, field=0.95)
        obs = Observable.from_terms(12, [*chain.terms, (0.3, "Z" * 12)])
        calls = self._run(monkeypatch, circ, obs, rng.integers(0, 4, size=(40, 12)))
        assert ["Z" * 12] in calls
        assert len(calls) == 13

    def test_groups_are_planned_once_per_structure(self, monkeypatch):
        from virtualmap import cone, estimation

        rng = np.random.default_rng(98)
        circ = brickwork(6, 2, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(6, field=0.5)
        data = ProductInputData(np.ones(20), dual_arrays("sic", 6), rng.integers(0, 4, size=(20, 6)))
        scheduled = []
        real = cone._greedy_schedule

        def counting(supports, pool, traceable):
            scheduled.append(tuple(traceable))
            return real(supports, pool, traceable)

        monkeypatch.setattr(cone, "_greedy_schedule", counting)
        for cached in (cone._cone, cone._plan, cone._term_groups):
            cached.cache_clear()
        # grouping reads the cones' qubit sets and schedules nothing
        groups = cone.term_groups(circ, [ps for _, ps in obs.terms])
        assert scheduled == []
        first = evaluate_rows(circ, data, obs)
        assert len(scheduled) == len(groups) == 6
        scheduled.clear()
        # a new circuit of the same structure, as a sweep's with_component makes
        again = circ.with_component(0, circ.components[0].map)
        assert np.array_equal(evaluate_rows(again, data, obs), first)
        assert scheduled == []


class TestEstimateContainer:
    def test_per_shot_consistency_enforced(self):
        # row values and row weights come together and in one shape
        values, weights = np.array([4.0, 6.0]), np.array([0.5, 0.5])
        for rows in (
            {"row_values": values},
            {"row_weights": weights},
            {"row_values": values, "row_weights": weights[:1]},
        ):
            with pytest.raises(ValidationError, match="row"):
                Estimate(value=5.0, sigma=0.1, num_shots=2, imag_residue=0.0, **rows)

    def test_sane_container_accepted(self):
        values, weights = np.array([4.0, 6.0]), np.array([0.5, 0.5])
        e = Estimate(
            value=5.0,
            sigma=0.1,
            num_shots=2,
            imag_residue=0.0,
            row_values=values,
            row_weights=weights,
        )
        assert e.value == 5.0 and e.row_values is values and e.row_weights is weights

    def test_estimates_compare_by_their_numbers(self):
        # two passes over one batch give equal estimates, whose row arrays
        # neither decide equality nor fill the repr
        batch = sample_outcomes(noisy_chain_state(2), "sic", 50, seed=5)
        a, b = (estimate(batch, "sic", MapCircuit(2, ()), xx_hamiltonian(2)) for _ in range(2))
        assert a == b and a.row_weights is not b.row_weights
        assert a != Estimate(a.value, a.sigma + 1.0, a.num_shots, a.imag_residue)
        assert "row" not in repr(a)


# ---------------------------------------------------------------------------
# the batched, cone-pruned kernel against per-row references


def _reference_weights(circuit, tables, rows, obs):
    """sum_k c_k Tr[L(F_row) P_k] for each of ``rows`` over ``tables``, by the
    whole-register reference."""
    return evaluate_trace(circuit, ProductInputData(np.ones(len(rows)), tables, rows), obs)


def _weighted_factor_rows(data):
    """(weight, per-qubit factor list) of every row of product input data."""
    for w, idx in zip(data.weights, data.rows):
        yield w, [table[m] for table, m in zip(data.tables, idx)]


def _reference_objective(circuit, index, data, obs):
    """The per-row, per-term assembly: sum w c sum_a kron(R_a^T, Rbar_a)."""
    ds = 2 ** len(circuit.components[index].qubits)
    m = np.zeros((ds * ds, ds * ds), dtype=complex)
    for w, row in _weighted_factor_rows(data):
        for coeff, ps in obs.terms:
            for r, rbar in split_pairs(circuit, index, row, ps):
                m += (w * coeff) * np.kron(r.T, rbar)
    return (m + m.conj().T) / 2.0


def _custom_duals(rng):
    """SIC duals with a traceless Hermitian shift plus a trace change."""
    duals = _sic_dual_matrices().copy()
    g = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    return duals + 0.1 * (g + g.conj().transpose(0, 2, 1))


class TestBatchedKernel:
    @pytest.mark.parametrize("kind", ["brickwork", "staircase", "general", "non-tp"])
    def test_estimate_matches_per_row_traces(self, kind):
        rng = np.random.default_rng(90)
        circ = kernel_circuits(rng)[kind]
        obs = kernel_observable()
        batch = sample_outcomes(noisy_chain_state(4), "sic", 150, seed=9)
        duals = _sic_dual_matrices()
        est = estimate(batch, "sic", circ, obs)
        weights = _reference_weights(circ, [duals] * circ.num_qubits, batch.outcomes, obs).real
        s = batch.num_shots
        value = weights.mean()
        sigma = np.sqrt(max((weights**2).mean() - value**2, 0.0) * s / (s - 1) / s)
        _, inverse = np.unique(batch.outcomes, axis=0, return_inverse=True)
        per_shot = est.row_values[inverse.reshape(-1)]
        assert np.max(np.abs(per_shot - weights)) <= 1e-12 * (1 + np.abs(weights).max())
        assert abs(est.value - value) <= 1e-12 * (1 + abs(value))
        assert abs(est.sigma - sigma) <= 1e-12 * (1 + sigma)

    def test_covariance_from_per_row_weights(self):
        rng = np.random.default_rng(91)
        circ = kernel_circuits(rng)["non-tp"]
        batch = sample_outcomes(noisy_chain_state(4), "sic", 120, seed=10)
        duals = _sic_dual_matrices()
        obs_a = kernel_observable()
        obs_b = xx_hamiltonian(4, field=0.5)
        a, b = estimate_all(batch, "sic", [circ], [obs_a, obs_b])[0]
        wa, wb = (
            _reference_weights(circ, [duals] * circ.num_qubits, batch.outcomes, o).real
            for o in (obs_a, obs_b)
        )
        want = np.cov(wa, wb, ddof=1)[0, 1] / batch.num_shots
        assert abs(estimate_covariance(a, b) - want) <= 1e-12

    @pytest.mark.parametrize("kind", ["brickwork", "staircase", "general", "non-tp"])
    def test_enumerate_with_custom_duals(self, kind):
        rng = np.random.default_rng(92)
        circ = kernel_circuits(rng)[kind]
        obs = kernel_observable()
        rho = noisy_chain_state(4, theta=0.2, p=0.02)
        duals = _custom_duals(rng)
        assert np.max(np.abs(np.trace(duals, axis1=1, axis2=2) - 1.0)) > 1e-3
        got = estimate_exact(rho, "sic", circ, obs, duals=[duals] * 4)
        p = outcome_distribution(rho, "sic")
        outcomes = np.array(list(np.ndindex(p.shape)))
        want = p[tuple(outcomes.T)] @ _reference_weights(circ, [duals] * 4, outcomes, obs).real
        assert abs(got - want) <= 1e-12 * (1 + abs(want))
        # the collapsed limit against the light-cone sum of its rows
        rows = circuit_energy(circ, data_from_distribution(rho, "sic", [duals] * 4), obs)
        assert abs(got - rows) <= 1e-12 * abs(rows)

    def test_enumerate_with_overcomplete_povm(self):
        rng = np.random.default_rng(93)
        circ = kernel_circuits(rng)["brickwork"]
        obs = kernel_observable()
        rho = noisy_chain_state(4, theta=0.3, p=0.01)
        cube = cube_povm()
        got = estimate_exact(rho, cube, circ, obs, duals=cube)
        duals = np.asarray(compute_duals(cube).duals)
        p = outcome_distribution(rho, cube)
        outcomes = np.array(list(np.ndindex(p.shape)))
        want = p[tuple(outcomes.T)] @ _reference_weights(circ, [duals] * 4, outcomes, obs).real
        assert abs(got - want) <= 1e-12 * (1 + abs(want))
        rows = circuit_energy(circ, data_from_distribution(rho, cube, cube), obs)
        assert abs(got - rows) <= 1e-12 * abs(rows)
        dense = estimate_exact(rho, cube, circ, obs)
        assert abs(got - dense) <= 1e-10

    @pytest.mark.parametrize("kind", ["brickwork", "staircase", "general", "non-tp"])
    def test_energy_and_objective_match_per_row_sums(self, kind):
        rng = np.random.default_rng(94)
        circ = kernel_circuits(rng)[kind]
        obs = kernel_observable()
        batch = sample_outcomes(noisy_chain_state(4), "sic", 60, seed=11)
        data = data_from_batch(batch, "sic")
        want = data.weights @ _reference_weights(circ, data.tables, data.rows, obs).real
        assert abs(circuit_energy(circ, data, obs) - want) <= 1e-12 * (1 + abs(want))
        for index in range(len(circ.components)):
            got = assemble_local_objective(circ, index, data, obs)
            ref = _reference_objective(circ, index, data, obs)
            assert np.max(np.abs(got - ref)) <= 1e-12 * (1 + np.abs(ref).max())

    def test_objective_matches_dense_state_assembly(self):
        rng = np.random.default_rng(95)
        circ = kernel_circuits(rng)["non-tp"]
        obs = kernel_observable()
        rho = noisy_chain_state(4, theta=0.2, p=0.01)
        product = data_from_distribution(rho, "sic")
        for index in range(len(circ.components)):
            m_prod = assemble_local_objective(circ, index, product, obs)
            m_dense = assemble_local_objective(circ, index, rho, obs)
            assert np.max(np.abs(m_prod - m_dense)) <= 1e-12 * (1 + np.abs(m_dense).max())


class TestNonFiniteInput:
    def test_estimate_rejects_nan_sigma(self):
        with pytest.raises(ValidationError):
            Estimate(value=1.0, sigma=float("nan"), num_shots=2, imag_residue=0.0)
        with pytest.raises(ValidationError):
            Estimate(value=1.0, sigma=float("inf"), num_shots=2, imag_residue=0.0)

    def test_estimate_rejects_nan_per_shot(self):
        with pytest.raises(ValidationError, match="finite"):
            Estimate(
                value=1.0,
                sigma=0.1,
                num_shots=2,
                imag_residue=0.0,
                row_values=np.array([1.0, np.nan]),
                row_weights=np.array([0.5, 0.5]),
            )

    def test_dual_arrays_rejects_nan(self):
        duals = _sic_dual_matrices().copy()
        duals[2, 0, 1] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            dual_arrays([duals] * 2, 2)


def _random_rows(n: int, rng: np.random.Generator) -> ProductInputData:
    """Random Hermitian factor tables, a different number of outcomes per
    qubit and no dual-frame relation among them, with random rows and signed
    weights."""
    tables = []
    for _ in range(n):
        g = rng.standard_normal((int(rng.integers(1, 7)), 2, 2))
        g = g + 1j * rng.standard_normal(g.shape)
        tables.append(g + g.conj().transpose(0, 2, 1))
    count = int(rng.integers(1, 40))
    rows = np.stack([rng.integers(0, len(t), size=count) for t in tables], axis=1)
    return ProductInputData(rng.standard_normal(count), tables, rows)


def _grid_observables(n: int) -> list[Observable]:
    """Two more observables of the covariance grid: a nearest-neighbour ZZ
    correlator and the mean magnetization."""
    corr = Observable.from_terms(n, [(1.0, "I" + "ZZ" + "I" * (n - 3))])
    mag = Observable.from_terms(n, [(1.0 / n, "I" * q + "Z" + "I" * (n - q - 1)) for q in range(n)])
    return [corr, mag]


def _random_observable(n: int, rng: np.random.Generator) -> Observable:
    letters = ["".join("IXYZ"[k] for k in rng.integers(0, 4, size=n)) for _ in range(4)]
    return Observable.from_terms(n, [(float(rng.standard_normal()), ps) for ps in letters])


def _operand_scale(circ: MapCircuit, data: ProductInputData, obs: Observable) -> float:
    """The energy of the same contraction with every operand replaced by its
    absolute value: the weights, the table and superoperator entries, the
    coefficients, and each Pauli matrix (|Y| = X, |Z| = I). It bounds the
    sum of |product| over the terms that any order of the contraction adds,
    rows or dense, so each side's round-off is a few eps times it."""
    comps = [Component(c.qubits, LocalMap(np.abs(c.map.superop))) for c in circ.components]
    tables = [np.abs(t) for t in data.tables]
    terms = [(abs(c), p.letters.replace("Y", "X").replace("Z", "I")) for c, p in obs.terms]
    abs_circ = MapCircuit(circ.num_qubits, comps)
    abs_data = ProductInputData(np.ones(len(data.weights)), tables, data.rows)
    per_row = evaluate_rows(abs_circ, abs_data, Observable.from_terms(obs.num_qubits, terms))
    return float(np.abs(data.weights) @ per_row.real)


class TestCollapse:
    def test_matches_the_weighted_kronecker_sum(self):
        rng = np.random.default_rng(40)
        data = _random_rows(3, rng)
        want = sum(
            w * kron_all([data.tables[q][row[q]] for q in range(3)])
            for w, row in zip(data.weights, data.rows)
        )
        np.testing.assert_allclose(collapse(data).matrix, want, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31), n=st.integers(min_value=2, max_value=5))
    @example(seed=2076734, n=4)  # round-off above 1e-12 of the rows' own sum
    def test_energy_and_objectives_agree_with_rows(self, seed, n):
        """CPTP, non-CP and non-trace-preserving components over custom
        frames: the collapse gives every energy and every M of the rows. The
        energies differ by round-off, bounded by the operand scale of both
        contractions (``_operand_scale``)."""
        rng = np.random.default_rng(seed)
        circ = random_mixed_circuit(n, rng)
        if rng.random() < 0.5:  # a leaky component
            leak = random_tp_hermitian_map(2, rng).superop * 0.8
            circ = circ.with_component(int(rng.integers(len(circ.components))), LocalMap(leak))
        data = _random_rows(n, rng)
        obs = _random_observable(n, rng)
        rho = collapse(data)
        e_rows = float(np.dot(data.weights, evaluate_rows(circ, data, obs).real))
        assert abs(circuit_energy(circ, rho, obs) - e_rows) <= 1e-14 * _operand_scale(circ, data, obs)
        for index in range(len(circ.components)):
            m_rows = assemble_local_objective(circ, index, data, obs)
            m_dense = assemble_local_objective(circ, index, rho, obs)
            assert np.abs(m_dense - m_rows).max() <= 1e-12 * (np.abs(m_rows).max() + 1e-300)


def _refuse_collapse(monkeypatch):
    """Fail on any collapse, whichever module's name for it is called."""

    def refuse(data):
        pytest.fail("rows were collapsed")

    monkeypatch.setattr(estimation, "collapse", refuse)
    monkeypatch.setattr(varopt, "collapse", refuse)


class TestRowsStayRows:
    def test_energy_never_collapses(self, monkeypatch):
        _refuse_collapse(monkeypatch)
        batch = sample_outcomes(noisy_chain_state(3), "sic", 2000, seed=5)
        data = data_from_batch(batch, "sic")
        circ, obs = brickwork(3, 2), xx_hamiltonian(3)
        per_row = evaluate_rows(circ, data, obs).real
        assert circuit_energy(circ, data, obs) == pytest.approx(np.dot(data.weights, per_row), rel=1e-13)

    def test_estimate_never_collapses(self, monkeypatch):
        _refuse_collapse(monkeypatch)
        batch = sample_outcomes(noisy_chain_state(3), "sic", 2000, seed=6)
        est = estimate(batch, "sic", brickwork(3, 2), xx_hamiltonian(3))
        rows = len(data_from_batch(batch, "sic").rows)
        assert 1 < rows < 2000 and est.row_values.shape == est.row_weights.shape == (rows,)


class TestRowCounts:
    """``data_from_batch`` and ``estimate`` count a batch's rows with
    ``unique_rows``: the rows, their dtype and their weights, and the row
    values and weights that ``estimate`` keeps, are those of
    ``np.unique(axis=0)``, bit for bit."""

    @staticmethod
    def _assert_as_np_unique(outcomes):
        batch = OutcomeBatch(outcomes, ("sic",) * outcomes.shape[1], 0)
        got = data_from_batch(batch, "sic")
        uniq, counts = np.unique(batch.outcomes, axis=0, return_counts=True)
        want = ProductInputData(counts / batch.num_shots, got.tables, uniq)
        assert got.rows.dtype == want.rows.dtype and got.weights.dtype == want.weights.dtype
        np.testing.assert_array_equal(got.rows, want.rows)
        assert got.weights.tobytes() == want.weights.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 9),
        shots=st.integers(1, 300),
        alphabet=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_small_registers(self, n, shots, alphabet, seed):
        # a smaller alphabet repeats rows more often
        rng = np.random.default_rng(seed)
        self._assert_as_np_unique(rng.integers(0, alphabet, size=(shots, n)))

    @pytest.mark.parametrize("n", [5, 40])
    def test_per_shot_weights_take_each_shot_s_row(self, n):
        # an int64 key per row (N = 5) and the lexsort (N = 40) both give
        # each shot, through np.unique's inverse, the weight of its row, bit
        # for bit
        rng = np.random.default_rng(n)
        rows = rng.integers(0, 4, size=(120, n))
        outcomes = np.concatenate([rows, rows[::4], rows[:7]])[rng.permutation(157)]
        batch = OutcomeBatch(outcomes, ("sic",) * n, 0)
        circ = brickwork(n, 2, lambda layer, qubits: random_cptp_map(2, rng))
        obs = xx_hamiltonian(n, field=0.6)
        est = estimate(batch, "sic", circ, obs)
        uniq, inverse, counts = np.unique(
            batch.outcomes, axis=0, return_inverse=True, return_counts=True
        )
        data = ProductInputData(counts / len(outcomes), dual_arrays("sic", n), uniq)
        reals = evaluate_rows(circ, data, obs).real
        inverse = inverse.reshape(-1)
        assert est.row_values[inverse].tobytes() == reals[inverse].tobytes()
        assert est.row_weights.tobytes() == data.weights.tobytes()

    @pytest.mark.parametrize("n", [31, 40])
    def test_widest_key_and_wide_rows(self, n):
        # N = 31 fills the int64 key up to bit 61; N = 40 takes the lexsort
        rng = np.random.default_rng(n)
        rows = rng.integers(0, 4, size=(50, n))
        rows[:, 0] = 3  # the most significant digit of every key at its largest
        self._assert_as_np_unique(np.concatenate([rows, rows[::3], np.full((4, n), 3)]))
