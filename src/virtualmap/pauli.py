"""Pauli strings and Hermitian observables.

Observables are sums of weighted Pauli strings over a fixed qubit count.
Strings are written with qubit 0 as the leftmost letter ("XIZ" acts with X on
qubit 0, Z on qubit 2). Duplicate strings are merged at construction and terms
are kept sorted lexicographically so serialization is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ValidationError, complex_json, json_complex, json_int, parse_json, read_text
from .linalg import kron_all

PAULI_MATRICES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

PAULI_LETTERS = "IXYZ"

# Bits of the column shift x (X, Y) and diagonal signs (-1)^z (Y, Z) of a letter.
_FLIP_BITS = str.maketrans("IXYZ", "0110")
_SIGN_BITS = str.maketrans("IXYZ", "0011")

_HERMITIAN_TOL = 1e-12
_MERGE_DROP_TOL = 1e-15


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Pauli letters."""

    letters: str

    def __post_init__(self):
        if not isinstance(self.letters, str):
            raise ValidationError(f"Pauli string must be text, got {self.letters!r}")
        if not self.letters:
            raise ValidationError("Pauli string must cover at least one qubit")
        bad = set(self.letters) - set(PAULI_LETTERS)
        if bad:
            raise ValidationError(f"invalid Pauli letters {sorted(bad)} in {self.letters!r}")

    @property
    def num_qubits(self) -> int:
        return len(self.letters)

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(q for q, c in enumerate(self.letters) if c != "I")

    @property
    def weight(self) -> int:
        return len(self.support)

    def matrices(self) -> list[np.ndarray]:
        return [PAULI_MATRICES[c] for c in self.letters]

    def matrix(self) -> np.ndarray:
        return kron_all(self.matrices())

    def __str__(self) -> str:
        return self.letters


@dataclass(frozen=True)
class Observable:
    """A weighted sum of Pauli strings. Construct via :meth:`from_terms`."""

    num_qubits: int
    terms: tuple[tuple[complex, PauliString], ...]

    @classmethod
    def from_terms(cls, num_qubits: int, terms) -> "Observable":
        """The sum of (coefficient, Pauli string or its letters) ``terms``.
        Every term is checked here, the one place terms enter: a coefficient
        is a finite int, float, complex or numpy number, but not a bool."""
        if num_qubits < 1:
            raise ValidationError("observable needs at least one qubit")
        merged: dict[str, complex] = {}
        for term in terms:
            pair = isinstance(term, (tuple, list)) and len(term) == 2
            # a boolean is no coefficient, as in json_complex and SdpOptions
            number = pair and isinstance(term[0], (int, float, complex, np.number))
            if not number or isinstance(term[0], bool):
                got = f"bare Pauli string {term}" if isinstance(term, PauliString) else repr(term)
                raise ValidationError(f"terms are (coefficient, PauliString) pairs, got {got}")
            coeff, ps = term
            ps = ps if isinstance(ps, PauliString) else PauliString(ps)
            if ps.num_qubits != num_qubits:
                raise ValidationError(
                    f"term {ps} covers {ps.num_qubits} qubits, expected {num_qubits}"
                )
            coeff = complex(coeff)
            if not np.isfinite(coeff.real) or not np.isfinite(coeff.imag):
                raise ValidationError(f"non-finite coefficient on term {ps}")
            # a string's first coefficient is kept as given, signed zeros too
            merged[ps.letters] = merged[ps.letters] + coeff if ps.letters in merged else coeff
        kept = sorted(
            (letters, c) for letters, c in merged.items() if abs(c) > _MERGE_DROP_TOL
        )
        return cls(num_qubits, tuple((c, PauliString(s)) for s, c in kept))

    @property
    def is_hermitian(self) -> bool:
        return all(abs(c.imag) <= _HERMITIAN_TOL for c, _ in self.terms)

    def matrix(self) -> np.ndarray:
        """Dense matrix, built once per instance and read-only, since every
        caller shares it."""
        return self._matrix

    @cached_property
    def _matrix(self) -> np.ndarray:
        """Each term is a signed permutation, P[r, r ^ x] =
        (-i)^{#Y} (-1)^{popcount(r & z)}, where x has a bit for every X or Y
        letter and z for every Y or Z letter (qubit 0 most significant); the
        popcount parities come from one table, built by doubling."""
        d = 2**self.num_qubits
        out = np.zeros((d, d), dtype=complex)
        rows = np.arange(d)
        parity = np.zeros(1, dtype=int)
        for _ in range(self.num_qubits):
            parity = np.concatenate([parity, 1 - parity])
        for coeff, ps in self.terms:
            flip = int(ps.letters.translate(_FLIP_BITS), 2)
            signs = 1 - 2 * parity[rows & int(ps.letters.translate(_SIGN_BITS), 2)]
            out[rows, rows ^ flip] += coeff * (-1j) ** ps.letters.count("Y") * signs
        out.setflags(write=False)
        return out

    def __len__(self) -> int:
        return len(self.terms)


def parse_observable(source) -> Observable:
    """Load an observable from a JSON file path, JSON text, or a dict."""
    if isinstance(source, (str, Path)):
        text = str(source)
        # any path but a directory is read, so a pipe such as <(cat obs.json) is too
        try:
            is_file = Path(source).exists() and not Path(source).is_dir()
        except OSError:  # inline JSON text can be too long for a file name
            is_file = False
        if is_file:
            text = read_text(source, "observable file")
        elif not text.lstrip().startswith("{"):
            raise ValidationError(f"no observable file {text!r}")
        payload = parse_json(text, "observable")
    else:
        payload = source
    if not isinstance(payload, dict):
        raise ValidationError("observable payload must be a JSON object")
    try:
        n = json_int(payload["num_qubits"], "observable num_qubits")
        raw_terms = payload["terms"]
    except KeyError as exc:
        raise ValidationError(f"observable payload missing field {exc}") from exc
    if not isinstance(raw_terms, list):
        raise ValidationError("observable terms must be a JSON list")
    terms = []
    for entry in raw_terms:
        try:
            raw = entry["coeff"]
            letters = entry["pauli"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed observable term {entry!r}") from exc
        if type(raw) in (int, float):  # a real coefficient
            raw = [raw, 0.0]
        coeff = complex(json_complex(raw, 0, f"coeff of observable term {entry!r}"))
        terms.append((coeff, PauliString(letters)))
    return Observable.from_terms(n, terms)


def observable_to_dict(obs: Observable) -> dict:
    coeffs = complex_json([c for c, _ in obs.terms])
    return {
        "num_qubits": obs.num_qubits,
        "terms": [{"coeff": c, "pauli": ps.letters} for c, (_, ps) in zip(coeffs, obs.terms)],
    }


def write_observable(obs: Observable, path) -> None:
    Path(path).write_text(json.dumps(observable_to_dict(obs), indent=1) + "\n")


def xx_hamiltonian(
    num_qubits: int, coupling: float = 1.0, field: float = 0.0, periodic: bool = True
) -> Observable:
    """Spin-chain Hamiltonian -J[sum_i (X_i X_{i+1} + Y_i Y_{i+1})/2 + B sum_i Z_i]."""
    if num_qubits < 2:
        raise ValidationError("chain needs at least two qubits")
    n = num_qubits
    bonds = [(i, i + 1) for i in range(n - 1)]
    if periodic and n > 1:
        bonds.append((n - 1, 0))
    terms = []
    for a, b in bonds:
        for letter in "XY":
            s = ["I"] * n
            s[a] = letter
            s[b] = letter
            terms.append((-coupling / 2.0, PauliString("".join(s))))
    for q in range(n):
        s = ["I"] * n
        s[q] = "Z"
        terms.append((-coupling * field, PauliString("".join(s))))
    return Observable.from_terms(n, terms)
