"""Dense simulation: state builders, map application, sampling, batch files."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import json_junk, map_specs, small_or_junk
from virtualmap import densesim
from virtualmap.cone import MapCircuit, brickwork, save_circuit
from virtualmap.densesim import (
    DensityMatrix,
    OutcomeBatch,
    apply_circuit_dense,
    apply_local_map,
    batch_to_text,
    build_perturbed_state,
    build_state,
    computational_zero,
    exact_ground_energy,
    exact_ground_value,
    from_statevector,
    load_state_prep,
    maximally_mixed,
    noisy_chain_state,
    outcome_distribution,
    perturbation_circuit,
    read_batch,
    sample_outcomes,
    write_batch,
)
from virtualmap.errors import ValidationError
from virtualmap.maps import (
    LocalMap,
    cnot_map,
    depolarizing_map,
    identity_map,
    random_cptp_map,
)
from virtualmap.pauli import Observable, xx_hamiltonian
from virtualmap.povm import compute_duals, make_sic_povm


class TestDensityMatrix:
    def test_shape_check(self):
        with pytest.raises(ValidationError):
            DensityMatrix(2, np.eye(2))

    def test_validate_catches_bad_states(self):
        good = maximally_mixed(1)
        good.validate()
        with pytest.raises(ValidationError):
            DensityMatrix(1, np.array([[0.5, 0.3], [0.1, 0.5]])).validate()
        with pytest.raises(ValidationError):
            DensityMatrix(1, np.eye(2)).validate()  # trace 2
        with pytest.raises(ValidationError):
            DensityMatrix(1, np.diag([1.5, -0.5])).validate()

    def test_from_statevector_normalizes(self):
        rho = from_statevector(np.array([2.0, 0.0]))
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_from_statevector_rejects_bad_length(self):
        with pytest.raises(ValidationError):
            from_statevector(np.ones(3))


class TestApplyLocalMap:
    def test_identity_map_is_noop(self):
        rho = maximally_mixed(3)
        out = apply_local_map(rho, identity_map(2), (0, 2))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_cnot_on_basis_state(self):
        # |10> -> |11> with qubit 0 as control
        psi = np.zeros(4)
        psi[2] = 1.0
        rho = from_statevector(psi)
        out = apply_local_map(rho, cnot_map(), (0, 1))
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0
        np.testing.assert_allclose(out.matrix, expected, atol=1e-14)

    def test_depolarizing_on_one_qubit(self):
        rho = computational_zero(2)
        out = apply_local_map(rho, depolarizing_map(1.0, arity=1), (0,))
        expected = np.kron(np.eye(2) / 2.0, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(out.matrix, expected, atol=1e-14)

    def test_arity_mismatch(self):
        with pytest.raises(ValidationError):
            apply_local_map(maximally_mixed(2), identity_map(2), (0,))

    def test_qubit_out_of_range(self):
        with pytest.raises(ValidationError):
            apply_local_map(maximally_mixed(2), identity_map(2), (0, 2))

    def test_map_ordering_matches_positions(self):
        # CNOT with control listed second: |01> -> |11>
        psi = np.zeros(4)
        psi[1] = 1.0  # |01>: qubit 1 is set
        rho = from_statevector(psi)
        out = apply_local_map(rho, cnot_map(), (1, 0))
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0
        np.testing.assert_allclose(out.matrix, expected, atol=1e-14)

    def test_trace_check_scales_with_the_operator(self, monkeypatch):
        # round-off in the trace of a large operator is above 1e-10 absolute
        rng = np.random.default_rng(53)
        circ = brickwork(6, 3, lambda layer, qubits: random_cptp_map(2, rng))
        op = 1e5 * (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        out = apply_circuit_dense(circ, op)
        assert abs(np.trace(out) - np.trace(op)) <= 1e-10 * np.linalg.norm(op)
        # a kernel that loses a thousandth of the trace still fails, on either scale
        real = densesim.apply_superop_local
        monkeypatch.setattr(densesim, "apply_superop_local", lambda *a: 0.999 * real(*a))
        for big in (op, maximally_mixed(6).matrix):
            with pytest.raises(ValidationError, match="trace not preserved"):
                apply_local_map(DensityMatrix(6, big), identity_map(2), (2, 3))

    def test_trace_check_allows_the_maps_tp_residual(self):
        # 9e-11 on every entry of vec(I)^T S passes as trace preserving, and
        # moves the trace of |++><++| by 16 x 9e-11 / 4, over 1e-10
        superop = np.eye(16, dtype=complex)
        superop[0] += 9e-11
        near = LocalMap(superop)
        assert near.tp_residual <= 1e-10 and near.flags().tp
        out = apply_local_map(from_statevector(np.full(4, 0.5)), near, (0, 1))
        assert abs(np.trace(out.matrix) - 1) > 1e-10


class TestPerturbedState:
    def test_zero_strength_is_identity(self):
        rho0 = noisy_chain_state(4)
        out = build_perturbed_state(rho0, p=0.0, seed=3)
        np.testing.assert_allclose(out.matrix, rho0.matrix, atol=1e-14)

    def test_valid_over_strength_grid(self):
        rho0 = noisy_chain_state(4)
        for p in (0.0, 0.05, 0.5, 1.0):
            build_perturbed_state(rho0, p=p, seed=1).validate()

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            build_perturbed_state(maximally_mixed(2), p=1.1)

    def test_circuit_has_two_sublayers(self):
        circ = perturbation_circuit(4, p=0.05, seed=0)
        assert [c.qubits for c in circ.components] == [(0, 1), (2, 3), (1, 2)]

    def test_all_depolarizing_brickwork_gives_maximally_mixed(self):
        circ = brickwork(4, 2, lambda layer, qubits: depolarizing_map(1.0, arity=2))
        rho = noisy_chain_state(4)
        out = apply_circuit_dense(circ, rho.matrix)
        np.testing.assert_allclose(out, np.eye(16) / 16.0, atol=1e-12)

    def test_tp_circuit_preserves_trace(self):
        rng = np.random.default_rng(5)
        circ = brickwork(4, 2, lambda layer, qubits: random_cptp_map(2, rng))
        out = apply_circuit_dense(circ, maximally_mixed(4).matrix)
        assert abs(np.trace(out) - 1.0) <= 1e-10

    def test_dense_size_guard(self):
        # refused from the circuit's size, before the operator is read
        with pytest.raises(ValidationError, match="N <= 10"):
            apply_circuit_dense(brickwork(11, 1), np.eye(2))


class TestOutcomeDistribution:
    def test_zero_state_sic_marginals(self):
        p = outcome_distribution(computational_zero(1), "sic")
        np.testing.assert_allclose(p, [0.5, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0], atol=1e-12)

    def test_mixed_state_is_uniform(self):
        p = outcome_distribution(maximally_mixed(2), "sic")
        np.testing.assert_allclose(p, np.full((4, 4), 1.0 / 16.0), atol=1e-12)

    def test_distribution_sums_to_one(self):
        rho = noisy_chain_state(3)
        p = outcome_distribution(rho, "sic")
        assert p.shape == (4, 4, 4)
        assert abs(p.sum() - 1.0) < 1e-12
        assert p.min() >= -1e-12

    def test_dual_reconstruction_identity(self):
        # rho = sum_m p_m D_m for the full product distribution, N = 4.
        rho = noisy_chain_state(4, theta=0.3, p=0.01)
        p = outcome_distribution(rho, "sic")
        duals = np.asarray(compute_duals(make_sic_povm()).duals)
        recon = np.zeros_like(rho.matrix)
        for idx in np.ndindex(p.shape):
            d = np.array([[1.0 + 0j]])
            for q in range(4):
                d = np.kron(d, duals[idx[q]])
            recon += p[idx] * d
        assert np.max(np.abs(recon - rho.matrix)) <= 1e-10


class TestSampling:
    def test_deterministic_given_seed(self):
        rho = noisy_chain_state(3)
        a = sample_outcomes(rho, "sic", 200, seed=9)
        b = sample_outcomes(rho, "sic", 200, seed=9)
        assert np.array_equal(a.outcomes, b.outcomes)
        c = sample_outcomes(rho, "sic", 200, seed=10)
        assert not np.array_equal(a.outcomes, c.outcomes)

    def test_marginals_converge(self):
        s = 20000
        for n in (3, 10):  # 10: the dense limit
            rho = noisy_chain_state(n)
            batch = sample_outcomes(rho, "sic", s, seed=0)
            p = outcome_distribution(rho, "sic")
            for q in range(n):
                marg = p.sum(axis=tuple(a for a in range(n) if a != q))
                for m in range(4):
                    freq = np.mean(batch.outcomes[:, q] == m)
                    bound = 5.0 * np.sqrt(marg[m] * (1 - marg[m]) / s)
                    assert abs(freq - marg[m]) <= bound, (n, q, m)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValidationError):
            sample_outcomes(maximally_mixed(1), "sic", 0)

    def test_batch_validation(self):
        with pytest.raises(ValidationError):
            OutcomeBatch(np.array([[0, 4]]), ("sic", "sic"), 0)
        with pytest.raises(ValidationError):
            OutcomeBatch(np.array([[0.5, 1.0]]), ("sic", "sic"), 0)
        with pytest.raises(ValidationError):
            OutcomeBatch(np.array([[0, 1]]), ("sic",), 0)


class TestBatchFiles:
    def test_round_trip(self, tmp_path):
        rho = noisy_chain_state(3)
        batch = sample_outcomes(rho, "sic", 50, seed=2, source="chain")
        path = tmp_path / "batch.csv"
        write_batch(batch, path)
        back = read_batch(path)
        assert np.array_equal(back.outcomes, batch.outcomes)
        assert back.povm_labels == batch.povm_labels
        assert back.seed == batch.seed
        assert back.source == batch.source
        # byte-stable second write
        assert batch_to_text(back) == batch_to_text(batch)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not a header\n0,1\n")
        with pytest.raises(ValidationError):
            read_batch(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# povm=sic seed=0 N=2 S=3\n0,1\n1,2\n")
        with pytest.raises(ValidationError):
            read_batch(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# povm=sic seed=0 N=2 S=1\n0,x\n")
        with pytest.raises(ValidationError):
            read_batch(path)

    def test_exact_text(self):
        batch = OutcomeBatch(np.array([[0, 3, 1], [2, 2, 0]]), ("sic", "cube", "sic"), -4, "a b")
        assert batch_to_text(batch) == (
            '# povm=sic|cube|sic seed=-4 N=3 S=2 source="a b"\n0,3,1\n2,2,0\n'
        )
        single = OutcomeBatch(np.array([[1]]), ("sic",), 7)
        assert batch_to_text(single) == "# povm=sic seed=7 N=1 S=1\n1\n"

    @pytest.mark.parametrize(
        "body",
        [
            "",
            "0,1,300\n",
            "0,1,4\n",
            "0,-1,2\n",
            "0,1\n",
            "0,1.0,2\n",
            "0,1,2 # c\n",
            "0,+1,2\n",
            "0, 1,2\n",
            "0,01,2\n",
            "0,1,2 \n",
            "0\t1\t2\n",
            "0,1,2,\n",
        ],
        ids=[
            "no-rows",
            "above-int8",
            "out-of-range",
            "negative",
            "short",
            "float",
            "comment",
            "plus-sign",
            "leading-space",
            "leading-zero",
            "trailing-space",
            "tabs",
            "trailing-comma",
        ],
    )
    def test_bad_single_row_body(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        s = 1 if body else 0
        path.write_text(f"# povm=sic seed=0 N=3 S={s}\n{body}")
        with pytest.raises(ValidationError, match="on line 2:" if body else "no outcome rows"):
            read_batch(path)

    def test_bad_row_message_names_its_line(self, tmp_path):
        # blank lines before the header count as lines too
        path = tmp_path / "bad.csv"
        path.write_text("\n\n# povm=sic seed=0 N=2 S=4\n0,1\n1,2\n3,+1\n2,2\n")
        with pytest.raises(ValidationError, match=r"on line 6: '3,\+1'"):
            read_batch(path)

    @pytest.mark.parametrize(
        "ending",
        [
            lambda t: t.replace("\n", "\r\n"),
            lambda t: t[:-1],
            lambda t: t + "\n\n",
            lambda t: "\n" + t,
        ],
        ids=["crlf", "no-final-newline", "trailing-blank-lines", "leading-blank-line"],
    )
    def test_line_endings_read_as_newline(self, tmp_path, ending):
        batch = OutcomeBatch(np.array([[0, 3, 1], [2, 2, 0], [1, 1, 3]]), ("sic",) * 3, 5, "x")
        path = tmp_path / "batch.csv"
        path.write_bytes(ending(batch_to_text(batch)).encode())
        back = read_batch(path)
        np.testing.assert_array_equal(back.outcomes, batch.outcomes)
        assert back.outcomes.dtype == np.int8
        assert (back.povm_labels, back.seed, back.source) == (("sic",) * 3, 5, "x")

    @pytest.mark.parametrize(
        "lead",
        ["\x0c\n", " \t\r\n\r", "\x1c\x1d\n\u2028 ", "\xa0\n\n\x85", "\ufeff"],
        ids=["form-feed", "carriage-returns", "separators", "unicode-spaces", "byte-order-mark"],
    )
    def test_whitespace_of_any_kind_before_the_header(self, tmp_path, lead):
        # the header is the first character that is not whitespace, as
        # str.lstrip reads it, and a bad row's line counts the lines before
        path = tmp_path / "batch.csv"
        batch = OutcomeBatch(np.array([[0, 3, 1], [2, 2, 0]]), ("sic",) * 3, 5, "x")
        path.write_bytes((lead + batch_to_text(batch)).encode())
        if not lead.strip():
            np.testing.assert_array_equal(read_batch(path).outcomes, batch.outcomes)
        header = batch_to_text(batch).splitlines()[0]
        path.write_bytes(f"{lead}{header}\n0,1,2\n3,+1,0\n".encode())
        lines = lead.replace("\r\n", "\n").replace("\r", "\n").count("\n")
        message = f"on line {lines + 3}: '3,\\+1,0'" if not lead.strip() else "malformed batch header"
        with pytest.raises(ValidationError, match=message):
            read_batch(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("N=1 S=1000000000000", "S=1000000000000 but file has 1 rows"),
            ("N=1000000000000 S=1", "on line 2:"),
        ],
        ids=["huge-S", "huge-N"],
    )
    def test_huge_header_counts_exit_before_allocating(self, tmp_path, header, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"# povm=sic seed=0 {header}\n0\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=message):
                read_batch(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_blank_line_inside_body(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# povm=sic seed=0 N=2 S=3\n0,1\n\n1,2\n")
        with pytest.raises(ValidationError):
            read_batch(path)

    @settings(max_examples=60, deadline=None)
    @given(
        outcomes=st.integers(1, 40).flatmap(
            lambda s: st.integers(1, 9).flatmap(
                lambda n: st.lists(
                    st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=s, max_size=s
                )
            )
        ),
        label_pool=st.lists(st.sampled_from(["sic", "cube"]), min_size=1, max_size=2),
        seed=st.integers(-(2**31), 2**31),
        source=st.text(
            st.one_of(
                st.characters(blacklist_characters='"', blacklist_categories=("Cs", "Cc", "Z")),
                st.just(" "),
            ),
            max_size=8,
        ),
    )
    def test_round_trip_fuzz(self, tmp_path_factory, outcomes, label_pool, seed, source):
        arr = np.array(outcomes)
        n = arr.shape[1]
        labels = tuple(label_pool[q % len(label_pool)] for q in range(n))
        batch = OutcomeBatch(arr, labels, seed, source)
        path = tmp_path_factory.mktemp("fuzz") / "batch.csv"
        write_batch(batch, path)
        back = read_batch(path)
        np.testing.assert_array_equal(back.outcomes, arr)
        np.testing.assert_array_equal(back.outcomes, np.loadtxt(path, delimiter=",", ndmin=2))
        assert back.outcomes.dtype == np.int8
        assert back.povm_labels == labels
        assert back.seed == seed and back.source == source

    @settings(max_examples=200, deadline=None)
    @given(
        header_s=st.integers(0, 6),
        header_n=st.integers(0, 4),
        rows=st.lists(
            st.lists(
                st.one_of(
                    st.integers(-5, 5).map(str),
                    st.integers(-(10**30), 10**30).map(str),
                    st.sampled_from(["", " ", "+1", "1.5", "2.0", "1e3", "x", "#", "0x1", "nan"]),
                    st.floats(allow_nan=True).map(repr),
                ),
                max_size=5,
            ).map(",".join),
            max_size=7,
        ),
    )
    def test_junk_bodies_raise_only_validation_errors(
        self, tmp_path_factory, header_s, header_n, rows
    ):
        path = tmp_path_factory.mktemp("junk") / "batch.csv"
        path.write_text(f"# povm=sic seed=0 N={header_n} S={header_s}\n" + "\n".join(rows))
        try:
            batch = read_batch(path)
        except ValidationError:
            return
        assert batch.outcomes.shape == (header_s, header_n)
        assert batch.outcomes.min() >= 0 and batch.outcomes.max() <= 3


class TestStatePrepFiles:
    def test_build_state_from_steps(self, tmp_path):
        import json

        path = tmp_path / "prep.json"
        path.write_text(
            json.dumps(
                [
                    {"qubits": [0, 1], "map": "cnot"},
                    {"qubits": [1, 2], "map": "cnot"},
                ]
            )
        )
        rho = build_state(path)
        np.testing.assert_allclose(rho.matrix, computational_zero(3).matrix, atol=1e-14)

    def test_infers_register_size(self):
        circuit = load_state_prep([{"qubits": [2, 3], "map": "identity"}])
        assert circuit.num_qubits == 4 and len(circuit.components) == 1

    def test_one_component_per_step(self):
        steps = [{"qubits": [0, 1], "map": "cnot"}, {"qubits": [1], "map": "identity"}]
        assert load_state_prep({"steps": steps}).supports == ((0, 1), (1,))

    def test_register_size_precedence(self):
        steps = [{"qubits": [0, 1], "map": "cnot"}]
        assert load_state_prep(steps, num_qubits=3).num_qubits == 3
        assert load_state_prep({"num_qubits": 4, "steps": steps}).num_qubits == 4
        assert load_state_prep({"num_qubits": 4, "steps": steps}, num_qubits=4).num_qubits == 4

    def test_explicit_size_must_match_the_file(self):
        payload = {"num_qubits": 3, "steps": [{"qubits": [0, 1], "map": "cnot"}]}
        with pytest.raises(ValidationError, match="num_qubits=3.*N=5"):
            load_state_prep(payload, num_qubits=5)

    def test_list_object_and_circuit_forms_give_identical_states(self, tmp_path):
        import json

        steps = [
            {"qubits": [q, q + 1], "map": "noisy_cnot(0.05, 1e-3)"} for q in range(3)
        ] + [{"qubits": [2], "map": "random_cptp(seed=4)"}]
        (tmp_path / "list.json").write_text(json.dumps(steps))
        (tmp_path / "object.json").write_text(json.dumps({"num_qubits": 4, "steps": steps}))
        save_circuit(load_state_prep(tmp_path / "object.json"), tmp_path / "circuit.json")
        states = [build_state(tmp_path / f"{name}.json") for name in ("list", "object", "circuit")]
        assert all(rho.num_qubits == 4 for rho in states)
        assert np.array_equal(states[0].matrix, states[1].matrix)
        assert np.array_equal(states[0].matrix, states[2].matrix)

    def test_rejects_small_register(self):
        with pytest.raises(ValidationError):
            load_state_prep([{"qubits": [0, 3], "map": "identity"}], num_qubits=2)

    def test_rejects_malformed_step(self):
        with pytest.raises(ValidationError):
            load_state_prep([{"map": "identity"}])

    def test_rejects_register_beyond_dense_limit(self):
        with pytest.raises(ValidationError, match="N <= 10"):
            build_state([{"qubits": [30], "map": "identity"}])

    @settings(max_examples=200, deadline=None)
    @given(
        payload=st.one_of(
            json_junk(["num_qubits", "steps", "components", "qubits", "map"]),
            st.lists(
                st.fixed_dictionaries(
                    {
                        "qubits": st.lists(small_or_junk(), max_size=3),
                        "map": map_specs(),
                    }
                ),
                max_size=3,
            ),
        ),
        wrap=st.sampled_from([None, "steps", "components"]),
        num_qubits=small_or_junk(),
    )
    def test_junk_payloads_raise_only_validation_errors(self, payload, wrap, num_qubits):
        assume(not isinstance(payload, str))  # a string names a file
        if wrap is not None:
            payload = {"num_qubits": num_qubits, wrap: payload}
        try:
            circuit = load_state_prep(payload)
        except ValidationError:
            return
        assert circuit.num_qubits >= 1
        assert all(0 <= q < circuit.num_qubits for c in circuit.components for q in c.qubits)
        # only JSON integers load: no text, fractions or booleans
        if isinstance(payload, dict):
            assert type(payload.get("num_qubits", 1)) is int
            payload = payload.get("steps", payload.get("components"))
        assert all(type(q) is int for entry in payload for q in entry["qubits"])

    @pytest.mark.parametrize(
        "payload",
        [
            [{"qubits": "01", "map": "identity"}],
            [{"qubits": [0, 1.0], "map": "identity"}],
            [{"qubits": [True], "map": "identity"}],
            {"num_qubits": "2", "steps": [{"qubits": [0], "map": "identity"}]},
            {"num_qubits": 2.5, "steps": [{"qubits": [0], "map": "identity"}]},
        ],
        ids=[
            "text-qubits",
            "float-qubit",
            "boolean-qubit",
            "text-num-qubits",
            "fractional-num-qubits",
        ],
    )
    def test_only_json_integers_load(self, payload):
        with pytest.raises(ValidationError, match="integer"):
            load_state_prep(payload)


class TestNoisyChainState:
    def test_noiseless_chain_fixes_zero_state(self):
        rho = noisy_chain_state(4, theta=0.0, p=0.0)
        np.testing.assert_allclose(rho.matrix, computational_zero(4).matrix, atol=1e-12)

    def test_noisy_chain_is_valid_state(self):
        rho = noisy_chain_state(6, theta=0.05, p=1e-3)
        rho.validate()
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-10


class TestExactGroundEnergy:
    def test_single_qubit_z(self):
        obs = Observable.from_terms(1, [(1.0, "Z")])
        e0, vec = exact_ground_energy(obs)
        assert abs(e0 - (-1.0)) < 1e-12
        np.testing.assert_allclose(np.abs(vec), [0.0, 1.0], atol=1e-12)

    def test_frozen_chain_fixtures(self):
        # Values frozen from an independent dense construction of the
        # Hamiltonian (explicit Kronecker products, eigvalsh).
        cases = [
            ((2, 0.95), -2.0),
            ((2, 0.0), -2.0),
            ((4, 0.95), -3.9),
            ((6, 0.95), -5.8),
            ((6, 0.0), -4.0),
        ]
        for (n, field), expected in cases:
            obs = xx_hamiltonian(n, coupling=1.0, field=field, periodic=True)
            e0, vec = exact_ground_energy(obs)
            assert abs(e0 - expected) < 1e-10, (n, field)
            # eigenvector consistency: H v = E0 v
            h = obs.matrix()
            assert np.linalg.norm(h @ vec - e0 * vec) < 1e-8

    def test_rejects_non_hermitian(self):
        obs = Observable.from_terms(1, [(1.0j, "Z")])
        with pytest.raises(ValidationError):
            exact_ground_energy(obs)
        with pytest.raises(ValidationError, match="not Hermitian"):
            exact_ground_value(obs)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_value_alone_matches_eigh(self, n):
        obs = xx_hamiltonian(n, coupling=1.0, field=0.95, periodic=True)
        assert abs(exact_ground_value(obs) - exact_ground_energy(obs)[0]) <= 1e-12

    def test_value_alone_size_limit(self):
        with pytest.raises(ValidationError, match="N <= 12"):
            exact_ground_value(xx_hamiltonian(13))


def test_identity_circuit_roundtrip_through_dense_apply():
    circ = MapCircuit(3, ())
    rho = noisy_chain_state(3)
    out = apply_circuit_dense(circ, rho.matrix)
    np.testing.assert_allclose(out, rho.matrix, atol=0)
