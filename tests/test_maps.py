"""Local-map algebra: representations, conversions, adjoints, inverses, flags."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tensor_extend
from virtualmap.errors import NumericalError, ValidationError
from virtualmap.maps import (
    ChoiMatrix,
    LocalMap,
    choi_to_superop,
    cnot_map,
    cnot_unitary,
    compose,
    depolarizing_map,
    identity_map,
    invert_map,
    kraus_map,
    map_from_payload,
    map_from_spec,
    map_to_payload,
    noisy_cnot,
    random_cptp_map,
    random_tp_hermitian_map,
    random_unitary_map,
    superop_to_choi,
    tensor_maps,
    unitary_map,
    zreset_map,
)


def _rand_op(d: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _adjoint(m):
    """The Hilbert-Schmidt adjoint: the conjugate-transposed superoperator."""
    return LocalMap(m.superop.conj().T)


class TestRepresentations:
    def test_identity_choi_is_sum_of_matrix_unit_pairs(self):
        c = superop_to_choi(identity_map(1)).matrix
        expected = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[a, b] = 1.0
                expected += np.kron(e, e)
        np.testing.assert_allclose(c, expected, atol=1e-15)
        assert abs(np.trace(c) - 2.0) < 1e-14

    def test_fully_depolarizing_choi(self):
        c = superop_to_choi(depolarizing_map(1.0, arity=1)).matrix
        np.testing.assert_allclose(c, np.eye(4) / 2.0, atol=1e-15)

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for arity in (1, 2):
            d2 = 4**arity
            m = LocalMap(_rand_op(d2, rng))
            back = choi_to_superop(superop_to_choi(m))
            assert np.max(np.abs(back.superop - m.superop)) <= 1e-13

    def test_apply_matches_unitary_conjugation(self):
        rng = np.random.default_rng(1)
        u = random_unitary_map(1, rng)
        # recover the underlying unitary action on a random operator
        x = _rand_op(2, rng)
        y = u.apply(x)
        # the map is x -> U x U^dag for some U; verify via the Choi application
        c = superop_to_choi(u)
        d = 2
        t = (np.kron(x.T, np.eye(d)) @ c.matrix).reshape(d, d, d, d)
        y_choi = np.einsum("aiaj->ij", t)
        np.testing.assert_allclose(y, y_choi, atol=1e-12)

    def test_explicit_cnot_action(self):
        u = cnot_unitary()
        m = cnot_map()
        rng = np.random.default_rng(2)
        x = _rand_op(4, rng)
        np.testing.assert_allclose(m.apply(x), u @ x @ u.conj().T, atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            LocalMap(np.zeros((4, 3)))

    def test_rejects_non_finite_entries(self):
        s = np.eye(4, dtype=complex)
        s[1, 2] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            LocalMap(s)
        s[1, 2] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            LocalMap(s)

    def test_rejects_non_power_dimension(self):
        with pytest.raises(ValidationError):
            LocalMap(np.zeros((6, 6)))
        with pytest.raises(ValidationError):
            ChoiMatrix(np.zeros((6, 6)))

    def test_choi_tp_marginal(self):
        rng = np.random.default_rng(3)
        m = random_cptp_map(2, rng)
        c = superop_to_choi(m).matrix
        marg = np.einsum("arbr->ab", c.reshape(4, 4, 4, 4))
        np.testing.assert_allclose(marg, np.eye(4), atol=1e-10)
        assert abs(np.trace(c) - 4.0) < 1e-10


class TestAdjoint:
    def test_unitary_adjoint_is_inverse_conjugation(self):
        rng = np.random.default_rng(4)
        u_mat = np.linalg.qr(_rand_op(2, rng))[0]
        m = unitary_map(u_mat)
        adj = _adjoint(m)
        x = _rand_op(2, rng)
        np.testing.assert_allclose(
            adj.apply(x), u_mat.conj().T @ x @ u_mat, atol=1e-12
        )

    def test_depolarizing_is_self_adjoint(self):
        m = depolarizing_map(0.3)
        assert np.max(np.abs(m.superop - m.superop.conj().T)) < 1e-14

    def test_trace_pairing_for_hermiticity_preserving_maps(self):
        # Tr[L(A) B] = Tr[A Ldag(B)] for every A, B when L preserves
        # Hermiticity (the class used throughout estimation).
        rng = np.random.default_rng(5)
        for arity in (1, 2):
            for m in (random_cptp_map(arity, rng), random_tp_hermitian_map(arity, rng)):
                adj = _adjoint(m)
                a = _rand_op(2**arity, rng)
                b = _rand_op(2**arity, rng)
                lhs = np.trace(m.apply(a) @ b)
                rhs = np.trace(a @ adj.apply(b))
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_hilbert_schmidt_pairing_for_arbitrary_maps(self):
        # <B, L(A)> = <Ldag(B), A> under <X, Y> = Tr[Xdag Y], with no
        # Hermiticity assumption on the map.
        rng = np.random.default_rng(5)
        m = LocalMap(_rand_op(16, rng))
        adj = _adjoint(m)
        a = _rand_op(4, rng)
        b = _rand_op(4, rng)
        lhs = np.trace(b.conj().T @ m.apply(a))
        rhs = np.trace(adj.apply(b).conj().T @ a)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_involution_exact(self):
        rng = np.random.default_rng(6)
        m = LocalMap(_rand_op(16, rng))
        back = _adjoint(_adjoint(m))
        assert np.array_equal(back.superop, m.superop)

    def test_adjoint_of_tp_map_is_unital_not_tp(self):
        rng = np.random.default_rng(7)
        m = random_cptp_map(1, rng)  # generically non-unital
        adj = _adjoint(m)
        np.testing.assert_allclose(adj.apply(np.eye(2)), np.eye(2), atol=1e-10)
        assert not adj.flags().tp


class TestInverse:
    def test_identity_inverts_to_identity(self):
        inv = invert_map(identity_map(2))
        np.testing.assert_allclose(inv.superop, np.eye(16), atol=1e-14)

    def test_mixing_channel_inverse_is_not_cp(self):
        rng = np.random.default_rng(8)
        e = random_cptp_map(2, rng)
        s = 0.95 * np.eye(16, dtype=complex) + 0.05 * e.superop
        mix = LocalMap(s)
        inv = invert_map(mix)
        comp = compose([mix, inv])
        rel = np.max(np.abs(comp.superop - np.eye(16))) / np.max(np.abs(np.eye(16)))
        assert rel <= 1e-8
        choi_eigs = np.linalg.eigvalsh(superop_to_choi(inv).matrix)
        assert choi_eigs.min() < -1e-10  # non-physical inverse
        assert inv.flags().tp and inv.flags().hermiticity_preserving

    def test_fully_depolarizing_is_singular(self):
        with pytest.raises(NumericalError):
            invert_map(depolarizing_map(1.0))


class TestComposeAndTensor:
    def test_unitary_then_adjoint_is_identity(self):
        rng = np.random.default_rng(9)
        u_mat = np.linalg.qr(_rand_op(4, rng))[0]
        comp = compose([unitary_map(u_mat), unitary_map(u_mat.conj().T)])
        np.testing.assert_allclose(comp.superop, np.eye(16), atol=1e-12)

    def test_depolarizing_composition_closed_form(self):
        p1, p2 = 0.2, 0.35
        comp = compose([depolarizing_map(p1), depolarizing_map(p2)])
        expected = depolarizing_map(1.0 - (1.0 - p1) * (1.0 - p2))
        np.testing.assert_allclose(comp.superop, expected.superop, atol=1e-14)

    def test_compose_rejects_mixed_arity(self):
        with pytest.raises(ValidationError):
            compose([identity_map(1), identity_map(2)])

    def test_tensor_of_identities_is_identity(self):
        t = tensor_maps(identity_map(1), identity_map(1))
        np.testing.assert_allclose(t.superop, np.eye(16), atol=1e-15)

    def test_tensor_matches_kron_of_unitaries(self):
        rng = np.random.default_rng(10)
        ua = np.linalg.qr(_rand_op(2, rng))[0]
        ub = np.linalg.qr(_rand_op(2, rng))[0]
        t = tensor_maps(unitary_map(ua), unitary_map(ub))
        direct = unitary_map(np.kron(ua, ub))
        np.testing.assert_allclose(t.superop, direct.superop, atol=1e-12)

    def test_tensor_extend_identity(self):
        ext = tensor_extend(identity_map(1), [0], 2)
        np.testing.assert_allclose(ext.superop, np.eye(16), atol=1e-14)

    def test_tensor_extend_places_map_on_position(self):
        rng = np.random.default_rng(11)
        u = np.linalg.qr(_rand_op(2, rng))[0]
        ext = tensor_extend(unitary_map(u), [1], 2)
        direct = unitary_map(np.kron(np.eye(2), u))
        np.testing.assert_allclose(ext.superop, direct.superop, atol=1e-12)

    def test_tensor_extend_validates_positions(self):
        with pytest.raises(ValidationError):
            tensor_extend(identity_map(1), [0, 1], 2)
        with pytest.raises(ValidationError):
            tensor_extend(identity_map(1), [3], 2)


class TestFlags:
    def test_cnot_flags(self):
        flags = cnot_map().flags()
        assert flags.cp and flags.tp and flags.hermiticity_preserving

    def test_zreset_flags_and_action(self):
        m = zreset_map()
        flags = m.flags()
        assert flags.cp and flags.tp and flags.hermiticity_preserving
        rng = np.random.default_rng(12)
        x = _rand_op(2, rng)
        expected = np.trace(x) * np.diag([1.0, 0.0])
        np.testing.assert_allclose(m.apply(x), expected, atol=1e-13)

    def test_noisy_inverse_flags(self):
        rng = np.random.default_rng(13)
        e = random_cptp_map(1, rng)
        mix = LocalMap(0.9 * np.eye(4, dtype=complex) + 0.1 * e.superop)
        inv = invert_map(mix)
        flags = inv.flags()
        assert (not flags.cp) and flags.tp and flags.hermiticity_preserving

    def test_tp_map_preserves_trace(self):
        rng = np.random.default_rng(14)
        for arity in (1, 2):
            m = random_cptp_map(arity, rng)
            a = _rand_op(2**arity, rng)
            a = a / np.trace(a)
            assert abs(np.trace(m.apply(a)) - 1.0) <= 1e-12

    def test_tp_iff_adjoint_fixes_identity(self):
        rng = np.random.default_rng(15)
        m = random_cptp_map(2, rng)
        np.testing.assert_allclose(
            _adjoint(m).apply(np.eye(4)), np.eye(4), atol=1e-10
        )

    def test_random_tp_hermitian_map_flags(self):
        rng = np.random.default_rng(16)
        hits_non_cp = 0
        for _ in range(5):
            m = random_tp_hermitian_map(2, rng)
            flags = m.flags()
            assert flags.tp and flags.hermiticity_preserving
            hits_non_cp += int(not flags.cp)
        assert hits_non_cp >= 4  # generically non-CP


class TestNoisyCnot:
    def test_noiseless_limit_is_exact_cnot(self):
        m = noisy_cnot(theta=0.0, p=0.0)
        np.testing.assert_allclose(m.superop, cnot_map().superop, atol=1e-14)

    def test_default_noise_is_cptp_and_differs_from_ideal(self):
        m = noisy_cnot(theta=0.05, p=1e-3)
        flags = m.flags()
        assert flags.cp and flags.tp and flags.hermiticity_preserving
        dist = np.max(
            np.abs(superop_to_choi(m).matrix - superop_to_choi(cnot_map()).matrix)
        )
        assert dist > 1e-4

    def test_full_depolarizing_limit(self):
        m = noisy_cnot(theta=0.3, p=1.0)
        c = superop_to_choi(m).matrix
        np.testing.assert_allclose(c, np.eye(16) / 4.0, atol=1e-13)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValidationError):
            noisy_cnot(p=1.5)


class TestRandomEnsembles:
    def test_haar_unitary_maps_are_cptp(self):
        rng = np.random.default_rng(17)
        for arity in (1, 2):
            flags = random_unitary_map(arity, rng).flags()
            assert flags.cp and flags.tp and flags.hermiticity_preserving

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31), arity=st.sampled_from([1, 2]))
    def test_ginibre_cptp_property(self, seed, arity):
        rng = np.random.default_rng(seed)
        m = random_cptp_map(arity, rng)
        flags = m.flags()
        assert flags.cp and flags.tp and flags.hermiticity_preserving

    def test_kraus_construction_matches_superop(self):
        rng = np.random.default_rng(18)
        ks = [_rand_op(2, rng) for _ in range(3)]
        m = kraus_map(ks)
        x = _rand_op(2, rng)
        expected = sum(k @ x @ k.conj().T for k in ks)
        np.testing.assert_allclose(m.apply(x), expected, atol=1e-12)


class TestPayloadsAndPresets:
    def test_payload_round_trip(self):
        rng = np.random.default_rng(19)
        m = random_cptp_map(2, rng)
        back = map_from_payload(map_to_payload(m), 2)
        np.testing.assert_allclose(back.superop, m.superop, atol=1e-15)

    def test_payload_requires_convention(self):
        payload = map_to_payload(identity_map(1))
        payload["convention"] = "row-vec"
        with pytest.raises(ValidationError):
            map_from_payload(payload, 1)

    def test_payload_shape_check(self):
        payload = map_to_payload(identity_map(1))
        with pytest.raises(ValidationError):
            map_from_payload(payload, 2)

    @pytest.mark.parametrize(
        "entry", [[1.0, 0.0, 0.0], [True, 0.0], [0.0, False], [1.0], "10", None, [10**400, 0]]
    )
    def test_payload_refuses_entries_that_are_not_number_pairs(self, entry):
        payload = map_to_payload(identity_map(1))
        payload["superop"][1][2] = entry
        with pytest.raises(ValidationError):
            map_from_payload(payload, 1)

    def test_payload_refuses_ragged_rows(self):
        payload = map_to_payload(identity_map(1))
        del payload["superop"][2][3]
        with pytest.raises(ValidationError):
            map_from_payload(payload, 1)

    def test_payload_round_trip_is_bit_exact_with_negative_zeros(self):
        s = random_cptp_map(1, np.random.default_rng(20)).superop.copy()
        s[0, 1] = complex(-0.0, -0.0)
        s[1, 0] = complex(0.0, -0.0)
        s[2, 3] = complex(-0.0, 0.5)
        m = LocalMap(s)
        back = map_from_payload(map_to_payload(m), 1)
        assert back.superop.tobytes() == m.superop.tobytes()

    def test_preset_strings(self):
        assert np.allclose(map_from_spec("identity", 2).superop, np.eye(16))
        assert np.allclose(map_from_spec("cnot", 2).superop, cnot_map().superop)
        dep = map_from_spec("depolarizing(0.25)", 1)
        np.testing.assert_allclose(dep.superop, depolarizing_map(0.25).superop)
        nc = map_from_spec("noisy_cnot(0.05, 1e-3)", 2)
        np.testing.assert_allclose(nc.superop, noisy_cnot(0.05, 1e-3).superop)

    def test_random_presets_are_seed_deterministic(self):
        a = map_from_spec("random_unitary(seed=5)", 2)
        b = map_from_spec("random_unitary(seed=5)", 2)
        c = map_from_spec("random_unitary(seed=6)", 2)
        assert np.array_equal(a.superop, b.superop)
        assert not np.array_equal(a.superop, c.superop)

    def test_preset_errors(self):
        with pytest.raises(ValidationError):
            map_from_spec("warp(3)", 2)
        with pytest.raises(ValidationError):
            map_from_spec("cnot", 1)
        with pytest.raises(ValidationError):
            map_from_spec("zreset", 2)
        with pytest.raises(ValidationError):
            map_from_spec("depolarizing(q=1)", 1)
        with pytest.raises(ValidationError):
            map_from_spec("depolarizing(0.1", 1)
