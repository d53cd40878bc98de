"""Pauli strings, observables, Hamiltonian constructors, and the dense oracle."""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expectation_oracle, json_junk, small_or_junk
from virtualmap.errors import ValidationError
from virtualmap.pauli import (
    PAULI_MATRICES,
    Observable,
    PauliString,
    parse_observable,
    write_observable,
    xx_hamiltonian,
)

# Independent single-qubit matrices for oracle cross-checks.
_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_MATS = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


def _dense_string(letters: str) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for c in letters:
        out = np.kron(out, _MATS[c])
    return out


def _random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    d = 2**n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m)


class TestPauliString:
    def test_rejects_bad_letters(self):
        with pytest.raises(ValidationError):
            PauliString("XQZ")

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            PauliString("")

    def test_support_and_weight(self):
        p = PauliString("XIZIY")
        assert p.num_qubits == 5
        assert p.support == (0, 2, 4)
        assert p.weight == 3

    def test_support_is_computed_once_and_leaves_equality_alone(self):
        p, q = PauliString("XIZIY"), PauliString("XIZIY")
        assert p.support is p.support
        assert p == q and hash(p) == hash(q)  # q's support never read
        again = pickle.loads(pickle.dumps(p))
        assert again == p and hash(again) == hash(p) and again.support == (0, 2, 4)
        with pytest.raises(AttributeError):
            p.letters = "ZZZZZ"

    def test_matrix_is_kron_in_qubit_order(self):
        p = PauliString("XIZ")
        expected = np.kron(np.kron(_X, _I), _Z)
        np.testing.assert_allclose(p.matrix(), expected, atol=0)

    def test_string_orthogonality(self):
        # Tr[P Q] = 2^N delta_{PQ} on all 2-qubit strings.
        letters = ["".join((a, b)) for a in "IXYZ" for b in "IXYZ"]
        for sa in letters:
            for sb in letters:
                tr = np.trace(_dense_string(sa) @ _dense_string(sb))
                expected = 4.0 if sa == sb else 0.0
                assert abs(tr - expected) < 1e-14


class TestObservable:
    def test_merges_duplicates(self):
        obs = Observable.from_terms(2, [(0.5, "XI"), (0.5, "XI")])
        assert len(obs) == 1
        coeff, ps = obs.terms[0]
        assert coeff == 1.0
        assert ps.letters == "XI"

    def test_merged_to_zero_terms_are_dropped(self):
        obs = Observable.from_terms(2, [(0.5, "XI"), (-0.5, "XI")])
        assert len(obs) == 0

    def test_rejects_mismatched_length(self):
        with pytest.raises(ValidationError):
            Observable.from_terms(2, [(1.0, "XIZ")])

    def test_rejects_non_finite_coefficient(self):
        with pytest.raises(ValidationError):
            Observable.from_terms(1, [(float("nan"), "Z")])

    @pytest.mark.parametrize(
        "coeff",
        [True, np.True_, "1.5", "1+2j", None],
        ids=["bool", "numpy-bool", "text", "complex-text", "none"],
    )
    def test_rejects_coefficients_that_are_not_numbers(self, coeff):
        # a boolean is no coefficient, and text is not parsed as one
        with pytest.raises(ValidationError, match=r"\(coefficient, PauliString\) pairs, got \("):
            Observable.from_terms(1, [(coeff, "Z")])

    def test_hermitian_flag(self):
        assert Observable.from_terms(1, [(1.0, "Z")]).is_hermitian
        assert not Observable.from_terms(1, [(1.0j, "Z")]).is_hermitian

    def test_matrix_matches_sum(self):
        obs = Observable.from_terms(2, [(0.5, "XX"), (-2.0, "ZI")])
        expected = 0.5 * _dense_string("XX") - 2.0 * _dense_string("ZI")
        np.testing.assert_allclose(obs.matrix(), expected, atol=0)

    def test_matrix_is_built_once_and_read_only(self):
        obs = Observable.from_terms(3, [(0.5, "XXI"), (-2.0, "ZIY")])
        m = obs.matrix()
        assert obs.matrix() is m and not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
        # equal observables stay equal, and the cache is not a field
        assert obs == Observable.from_terms(3, [(0.5, "XXI"), (-2.0, "ZIY")])

    def test_matrix_equals_kron_sum_exactly(self):
        # the signed-permutation build against the Kronecker chain of each term
        rng = np.random.default_rng(3)
        for n in range(1, 7):
            for _ in range(20):
                terms = [
                    (complex(rng.normal(), rng.normal() * (rng.random() < 0.3)),
                     "".join(rng.choice(list("IXYZ"), n)))
                    for _ in range(rng.integers(1, 6))
                ]
                obs = Observable.from_terms(n, terms)
                want = np.zeros((2**n, 2**n), dtype=complex)
                for coeff, ps in obs.terms:
                    want += coeff * ps.matrix()
                assert np.array_equal(obs.matrix(), want), terms

    @pytest.mark.parametrize("n", range(1, 11))
    def test_parity_signs_exact_for_y_heavy_strings(self, n):
        # the signs (-1)^popcount(r & z) read from the doubled parity table;
        # Y letters carry both a sign bit and a phase
        rng = np.random.default_rng(40 + n)
        terms = [(float(rng.normal()), "Y" * n)] + [
            (float(rng.normal()), "".join(rng.choice(list("IXYYYZ"), n))) for _ in range(3)
        ]
        obs = Observable.from_terms(n, terms)
        want = np.zeros((2**n, 2**n), dtype=complex)
        for coeff, ps in obs.terms:
            want += coeff * ps.matrix()
        assert np.array_equal(obs.matrix(), want), terms


class TestParseAndWrite:
    def test_single_term_parse(self):
        obs = parse_observable(
            {"num_qubits": 2, "terms": [{"coeff": [1.0, 0.0], "pauli": "ZZ"}]}
        )
        assert obs.num_qubits == 2 and len(obs) == 1

    def test_scalar_coefficient_parses_as_real(self):
        obs = parse_observable(
            {"num_qubits": 2, "terms": [{"coeff": -0.5, "pauli": "XX"}]}
        )
        assert obs.terms[0][0] == -0.5

    def test_duplicate_terms_merge_on_parse(self):
        obs = parse_observable(
            {
                "num_qubits": 2,
                "terms": [
                    {"coeff": [0.5, 0.0], "pauli": "XI"},
                    {"coeff": [0.5, 0.0], "pauli": "XI"},
                ],
            }
        )
        assert len(obs) == 1 and obs.terms[0][0] == 1.0

    def test_round_trip_through_file(self, tmp_path):
        rng = np.random.default_rng(3)
        terms = []
        seen = set()
        while len(terms) < 15:
            s = "".join("IXYZ"[k] for k in rng.integers(0, 4, size=8))
            if s not in seen:
                seen.add(s)
                terms.append((float(rng.standard_normal()), s))
        obs = Observable.from_terms(8, terms)
        path = tmp_path / "obs.json"
        write_observable(obs, path)
        back = parse_observable(path)
        assert back == obs
        assert back.is_hermitian

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            parse_observable(path)

    def test_rejects_bad_term_entry(self):
        with pytest.raises(ValidationError):
            parse_observable({"num_qubits": 1, "terms": [{"coeff": [1.0], "pauli": "Z"}]})

    @pytest.mark.parametrize(
        "coeff",
        ["10", "12", [1, 2, 3], True, [True, False], [True, 2.0], ["1", "2"], [10**400, 0]],
    )
    def test_rejects_coefficients_that_are_not_number_pairs(self, coeff):
        with pytest.raises(ValidationError):
            parse_observable({"num_qubits": 1, "terms": [{"coeff": coeff, "pauli": "Z"}]})

    @pytest.mark.parametrize("coeff, parts", [(-0.5, [-0.5, 0.0]), ([0.5, -0.0], [0.5, -0.0])])
    def test_coefficients_keep_the_sign_of_zero(self, coeff, parts):
        ((c, _),) = parse_observable(
            {"num_qubits": 1, "terms": [{"coeff": coeff, "pauli": "Z"}]}
        ).terms
        assert [c.real, c.imag] == parts
        assert np.signbit([c.real, c.imag]).tolist() == np.signbit(parts).tolist()

    def test_rejects_bad_letter(self):
        with pytest.raises(ValidationError):
            parse_observable(
                {"num_qubits": 1, "terms": [{"coeff": [1.0, 0.0], "pauli": "A"}]}
            )

    def test_parses_json_text(self):
        text = json.dumps({"num_qubits": 1, "terms": [{"coeff": [2.0, 0.0], "pauli": "X"}]})
        obs = parse_observable(text)
        assert obs.terms[0][0] == 2.0

    def test_parses_json_text_after_whitespace(self):
        text = json.dumps({"num_qubits": 1, "terms": [{"coeff": 2.0, "pauli": "X"}]})
        assert parse_observable(" \n" + text).terms[0][0] == 2.0

    def test_parses_json_text_longer_than_a_file_name(self):
        terms = [{"coeff": [0.5, 0.0], "pauli": "Z" * k + "I" * (40 - k)} for k in range(1, 9)]
        text = json.dumps({"num_qubits": 40, "terms": terms})
        assert len(text) > 300
        assert len(parse_observable(text)) == 8

    @settings(max_examples=200, deadline=None)
    @given(
        payload=st.one_of(
            json_junk(["num_qubits", "terms", "coeff", "pauli"]),
            st.fixed_dictionaries(
                {
                    "num_qubits": small_or_junk(),
                    "terms": st.one_of(
                        st.lists(
                            st.fixed_dictionaries(
                                {"coeff": json_junk(["coeff"]), "pauli": json_junk(["pauli"])}
                            ),
                            max_size=3,
                        ),
                        small_or_junk(),
                    ),
                }
            ),
        ),
        as_text=st.booleans(),
    )
    def test_junk_payloads_raise_only_validation_errors(self, payload, as_text):
        source = json.dumps(payload) if as_text and isinstance(payload, dict) else payload
        try:
            obs = parse_observable(source)
        except ValidationError:
            return
        assert all(ps.num_qubits == obs.num_qubits for _, ps in obs.terms)
        assert type(payload["num_qubits"]) is int  # no text, fractions or booleans


class TestXXHamiltonian:
    def test_term_count_zero_field(self):
        obs = xx_hamiltonian(3, coupling=1.0, field=0.0, periodic=True)
        assert len(obs) == 6
        assert all(c == -0.5 for c, _ in obs.terms)

    def test_term_count_with_field(self):
        obs = xx_hamiltonian(3, coupling=1.0, field=1.0, periodic=True)
        assert len(obs) == 9
        z_coeffs = [c for c, ps in obs.terms if ps.weight == 1]
        assert len(z_coeffs) == 3 and all(c == -1.0 for c in z_coeffs)

    def test_two_qubit_periodic_merges_double_bond(self):
        obs = xx_hamiltonian(2, coupling=1.0, field=0.0, periodic=True)
        coeffs = {ps.letters: c for c, ps in obs.terms}
        assert coeffs == {"XX": -1.0, "YY": -1.0}

    def test_open_chain_has_fewer_bonds(self):
        obs = xx_hamiltonian(4, coupling=1.0, field=0.0, periodic=False)
        assert len(obs) == 6  # 3 bonds x 2 letters

    def test_rejects_single_qubit(self):
        with pytest.raises(ValidationError):
            xx_hamiltonian(1)

    def test_expectation_real_on_random_state(self):
        rng = np.random.default_rng(11)
        obs = xx_hamiltonian(4, coupling=1.3, field=0.7, periodic=True)
        for _ in range(5):
            rho = _random_density(4, rng)
            val = expectation_oracle(rho, obs)
            assert abs(val.imag) < 1e-10


class TestExpectationOracle:
    def test_maximally_mixed_traceless_is_zero(self):
        obs = Observable.from_terms(3, [(1.0, "XIZ"), (0.5, "YYI")])
        rho = np.eye(8) / 8.0
        assert abs(expectation_oracle(rho, obs)) < 1e-14

    def test_zero_state_z_eigenvalue(self):
        obs = Observable.from_terms(1, [(1.0, "Z")])
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert abs(expectation_oracle(rho, obs) - 1.0) < 1e-14

    def test_matches_dense_matrix_construction(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho = _random_density(3, rng)
            terms = [
                (float(rng.standard_normal()), "".join("IXYZ"[k] for k in rng.integers(0, 4, 3)))
                for _ in range(4)
            ]
            obs = Observable.from_terms(3, terms)
            dense = sum(c * _dense_string(ps.letters) for c, ps in obs.terms)
            ref = np.trace(rho @ dense)
            assert abs(expectation_oracle(rho, obs) - ref) < 1e-12

    def test_rejects_shape_mismatch(self):
        obs = Observable.from_terms(2, [(1.0, "ZZ")])
        with pytest.raises(ValidationError):
            expectation_oracle(np.eye(2) / 2, obs)


@settings(max_examples=30, deadline=None)
@given(
    letters=st.text(alphabet="IXYZ", min_size=1, max_size=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_oracle_matches_dense_for_any_string(letters, seed):
    rng = np.random.default_rng(seed)
    n = len(letters)
    rho = _random_density(n, rng)
    obs = Observable.from_terms(n, [(1.0, letters)])
    ref = np.trace(rho @ _dense_string(letters))
    assert abs(expectation_oracle(rho, obs) - ref) < 1e-12


def test_pauli_matrices_table_is_consistent():
    for c, mat in _MATS.items():
        np.testing.assert_allclose(PAULI_MATRICES[c], mat, atol=0)
