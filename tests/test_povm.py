"""Tetrahedral SIC POVM closed forms and dual-frame duality checks."""

import numpy as np
import pytest

from virtualmap.errors import ValidationError
from virtualmap.povm import (
    TETRAHEDRON,
    SingleQubitPOVM,
    compute_duals,
    get_povm,
    make_sic_povm,
)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SIGMA = np.stack([_X, _Y, _Z])


def _matrix_units():
    units = []
    for a in range(2):
        for b in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[a, b] = 1.0
            units.append(e)
    return units


class TestSicClosedForms:
    def test_effect_traces(self):
        povm = make_sic_povm()
        for e in povm.effects:
            assert abs(np.trace(e) - 0.5) < 1e-14

    def test_effects_sum_to_identity(self):
        povm = make_sic_povm()
        np.testing.assert_allclose(povm.effects.sum(axis=0), np.eye(2), atol=1e-14)

    def test_pairwise_overlaps(self):
        povm = make_sic_povm()
        for m in range(4):
            for n in range(4):
                overlap = np.trace(povm.effects[m] @ povm.effects[n]).real
                expected = 0.25 if m == n else 1.0 / 12.0
                assert abs(overlap - expected) < 1e-14

    def test_tetrahedron_geometry(self):
        dots = TETRAHEDRON @ TETRAHEDRON.T
        np.testing.assert_allclose(np.diag(dots), 1.0, atol=1e-14)
        off = dots[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / 3.0, atol=1e-14)


class TestDualFrame:
    def test_duals_match_closed_form(self):
        frame = compute_duals(make_sic_povm())
        for m, s in enumerate(TETRAHEDRON):
            expected = (np.eye(2) + 3.0 * np.einsum("k,kij->ij", s, _SIGMA)) / 2.0
            assert np.max(np.abs(frame.duals[m] - expected)) <= 1e-12

    def test_duality_on_matrix_units(self):
        povm = make_sic_povm()
        frame = compute_duals(povm)
        for e in _matrix_units():
            recon = sum(
                np.trace(e @ povm.effects[m]) * frame.duals[m] for m in range(4)
            )
            assert np.max(np.abs(recon - e)) <= 1e-12

    def test_duality_reconstructs_pauli_x(self):
        povm = make_sic_povm()
        frame = compute_duals(povm)
        recon = sum(np.trace(_X @ povm.effects[m]) * frame.duals[m] for m in range(4))
        assert np.max(np.abs(recon - _X)) <= 1e-12

    def test_duality_reconstructs_identity(self):
        povm = make_sic_povm()
        frame = compute_duals(povm)
        recon = sum(np.trace(povm.effects[m]) * frame.duals[m] for m in range(4))
        assert np.max(np.abs(recon - np.eye(2))) <= 1e-12

    def test_duals_hermitian_unit_trace(self):
        frame = compute_duals(make_sic_povm())
        for d in frame.duals:
            assert np.max(np.abs(d - d.conj().T)) < 1e-12
            assert abs(np.trace(d) - 1.0) < 1e-12

    def test_duals_are_not_positive(self):
        frame = compute_duals(make_sic_povm())
        for d in frame.duals:
            vals = np.linalg.eigvalsh(d)
            assert abs(vals.min() - (-1.0)) < 1e-12
            assert abs(vals.max() - 2.0) < 1e-12

    def test_product_dual_trace_is_one(self):
        duals = compute_duals(make_sic_povm()).duals
        for m0 in range(4):
            for m1 in range(4):
                for m2 in range(4):
                    tr = np.trace(duals[m0]) * np.trace(duals[m1]) * np.trace(duals[m2])
                    assert abs(tr - 1.0) < 1e-12

    def test_overcomplete_povm_uses_pseudoinverse(self):
        # Six-outcome cube POVM: (I +/- sigma_k)/6 along each axis.
        effects = []
        for k in range(3):
            for sign in (+1.0, -1.0):
                effects.append((np.eye(2) + sign * _SIGMA[k]) / 6.0)
        povm = SingleQubitPOVM(label="cube", effects=np.array(effects))
        frame = compute_duals(povm)
        assert frame.num_outcomes == 6
        for e in _matrix_units():
            recon = sum(
                np.trace(e @ povm.effects[m]) * frame.duals[m]
                for m in range(povm.num_outcomes)
            )
            assert np.max(np.abs(recon - e)) <= 1e-12


class TestValidation:
    def test_rejects_non_hermitian_effects(self):
        eff = np.asarray(make_sic_povm().effects).copy()
        eff[0, 0, 1] += 1e-6
        with pytest.raises(ValidationError):
            SingleQubitPOVM(label="bad", effects=eff)

    def test_rejects_negative_effects(self):
        eff = np.asarray(make_sic_povm().effects).copy()
        eff[0] = np.diag([1.5, -0.5])
        eff[1] = np.diag([-0.5, 0.5]) + eff[1]
        with pytest.raises(ValidationError):
            SingleQubitPOVM(label="bad", effects=eff)

    def test_rejects_wrong_sum(self):
        eff = np.asarray(make_sic_povm().effects).copy() * 0.9
        with pytest.raises(ValidationError):
            SingleQubitPOVM(label="bad", effects=eff)

    def test_rejects_informationally_incomplete(self):
        eff = np.stack([np.eye(2, dtype=complex) / 4.0] * 4)
        with pytest.raises(ValidationError):
            SingleQubitPOVM(label="flat", effects=eff)

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            get_povm("nope")

    def test_sic_preset(self):
        assert get_povm("sic").label == "sic"


class TestSerialization:
    @pytest.mark.parametrize("where", [(0, 0, 0), (1, 0, 1)])
    def test_rejects_non_finite_effect(self, where):
        # without the check these reach matrix_rank, whose SVD fails on NaN
        effects = np.array(make_sic_povm().effects)
        effects[where] = complex(float("nan"), 0.0)
        with pytest.raises(ValidationError, match="POVM effects must be finite"):
            SingleQubitPOVM(label="sic", effects=effects)
