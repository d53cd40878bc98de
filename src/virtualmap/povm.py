"""Single-qubit informationally complete POVMs and their dual frames.

The default measurement is the symmetric IC POVM with four effects
``(I + s_m . sigma)/4`` built on the regular tetrahedron, whose duals have the
closed form ``(I + 3 s_m . sigma)/2``. Duals are computed here by inverting
the frame overlap matrix, so any minimal IC four-effect POVM works; an
overcomplete input falls back to the pseudoinverse (canonical duals).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .pauli import PAULI_MATRICES

_EFFECT_TOL = 1e-12

TETRAHEDRON = np.array(
    [
        [0.0, 0.0, 1.0],
        [2.0 * np.sqrt(2.0) / 3.0, 0.0, -1.0 / 3.0],
        [-np.sqrt(2.0) / 3.0, np.sqrt(2.0 / 3.0), -1.0 / 3.0],
        [-np.sqrt(2.0) / 3.0, -np.sqrt(2.0 / 3.0), -1.0 / 3.0],
    ]
)


@dataclass(frozen=True)
class SingleQubitPOVM:
    """A qubit POVM: effects of shape (M, 2, 2), Hermitian PSD, summing to I."""

    label: str
    effects: np.ndarray

    def __post_init__(self):
        eff = np.asarray(self.effects, dtype=complex)
        object.__setattr__(self, "effects", eff)
        if eff.ndim != 3 or eff.shape[1:] != (2, 2) or eff.shape[0] < 4:
            raise ValidationError(f"effects must be (M>=4, 2, 2), got {eff.shape}")
        if not np.all(np.isfinite(eff)):
            raise ValidationError("POVM effects must be finite")
        if np.max(np.abs(eff - eff.conj().transpose(0, 2, 1))) > _EFFECT_TOL:
            raise ValidationError("POVM effects must be Hermitian")
        for m, e in enumerate(eff):
            if np.linalg.eigvalsh(e).min() < -_EFFECT_TOL:
                raise ValidationError(f"effect {m} is not positive semidefinite")
        if np.max(np.abs(eff.sum(axis=0) - np.eye(2))) > 1e-10:
            raise ValidationError("POVM effects must sum to the identity")
        flat = eff.reshape(eff.shape[0], 4)
        if np.linalg.matrix_rank(flat, tol=1e-10) < 4:
            raise ValidationError("POVM is not informationally complete (frame rank < 4)")

    @property
    def num_outcomes(self) -> int:
        return self.effects.shape[0]


@dataclass(frozen=True)
class DualFrame:
    """Dual operators D_m with sum_m Tr[A Pi_m] D_m = A for every 2x2 A."""

    povm: SingleQubitPOVM
    duals: np.ndarray

    @property
    def num_outcomes(self) -> int:
        return self.duals.shape[0]


def make_sic_povm() -> SingleQubitPOVM:
    sigma = np.stack([PAULI_MATRICES[c] for c in "XYZ"])
    effects = np.array(
        [(np.eye(2) + np.einsum("k,kij->ij", s, sigma)) / 4.0 for s in TETRAHEDRON]
    )
    return SingleQubitPOVM(label="sic", effects=effects)


def frame_matrix(povm: SingleQubitPOVM) -> np.ndarray:
    """Real symmetric overlap matrix F[m, n] = Tr[Pi_m Pi_n]."""
    flat = povm.effects.reshape(povm.num_outcomes, 4)
    return np.real(np.einsum("mk,nk->mn", flat.conj(), flat))


def compute_duals(povm: SingleQubitPOVM) -> DualFrame:
    f = frame_matrix(povm)
    flat = povm.effects.reshape(povm.num_outcomes, 4)
    if povm.num_outcomes == 4:
        coeffs = np.linalg.solve(f, flat)
    else:
        coeffs = np.linalg.pinv(f, rcond=1e-12) @ flat
    duals = coeffs.reshape(povm.num_outcomes, 2, 2)
    return DualFrame(povm=povm, duals=duals)


POVM_PRESETS = {"sic": make_sic_povm}


def get_povm(label: str) -> SingleQubitPOVM:
    try:
        return POVM_PRESETS[label]()
    except KeyError:
        raise ValidationError(
            f"unknown POVM preset {label!r}; available: {sorted(POVM_PRESETS)}"
        ) from None
