"""Command-line interface: workflows, file outputs, exit codes."""

import json
import os
import threading

import numpy as np
import pytest

from virtualmap.cli import main
from virtualmap.cone import brickwork, load_circuit, save_circuit
from virtualmap.densesim import read_batch
from virtualmap.pauli import write_observable, xx_hamiltonian, Observable


@pytest.fixture
def chain_prep(tmp_path):
    """State-prep file for a small noisy chain."""
    steps = [
        {"qubits": [0, 1], "map": "noisy_cnot(0.05, 1e-3)"},
        {"qubits": [1, 2], "map": "noisy_cnot(0.05, 1e-3)"},
    ]
    path = tmp_path / "prep.json"
    path.write_text(json.dumps(steps))
    return path


@pytest.fixture
def obs_file(tmp_path):
    path = tmp_path / "obs.json"
    write_observable(xx_hamiltonian(3, field=0.4), path)
    return path


@pytest.fixture
def identity_circuit_file(tmp_path):
    from virtualmap.cone import MapCircuit

    path = tmp_path / "identity.json"
    save_circuit(MapCircuit(3, ()), path)
    return path


class TestSample:
    def test_writes_batch_with_requested_shape(self, tmp_path, chain_prep):
        out = tmp_path / "batch.csv"
        rc = main(
            [
                "sample",
                "--state",
                str(chain_prep),
                "--S",
                "250",
                "--seed",
                "4",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        batch = read_batch(out)
        assert batch.num_shots == 250
        assert batch.num_qubits == 3
        assert batch.seed == 4

    def test_seed_determinism_is_byte_stable(self, tmp_path, chain_prep):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            rc = main(
                ["sample", "--state", str(chain_prep), "--S", "100", "--seed", "9", "--out", str(out)]
            )
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mixed_requires_register_size(self, tmp_path):
        rc = main(["sample", "--mixed", "--S", "10", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("n", ["-1", "0", "11"])
    def test_mixed_register_outside_dense_range_exits_2(self, tmp_path, capsys, n):
        out = tmp_path / "x.csv"
        rc = main(["sample", "--mixed", "--N", n, "--S", "10", "--out", str(out)])
        assert rc == 2
        assert "1 <= N <= 10" in capsys.readouterr().err
        assert not out.exists()

    def test_state_and_mixed_are_exclusive(self, tmp_path, chain_prep):
        rc = main(
            [
                "sample",
                "--state",
                str(chain_prep),
                "--mixed",
                "--N",
                "3",
                "--S",
                "10",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2

    def test_mixed_sampling_is_uniform_ish(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["sample", "--mixed", "--N", "2", "--S", "4000", "--seed", "0", "--out", str(out)])
        assert rc == 0
        batch = read_batch(out)
        freqs = np.bincount(batch.outcomes.ravel(), minlength=4) / batch.outcomes.size
        assert np.all(np.abs(freqs - 0.25) < 0.05)

    def test_missing_state_file(self, tmp_path):
        rc = main(["sample", "--state", str(tmp_path / "nope.json"), "--S", "10"])
        assert rc == 2


class TestEstimate:
    def _sample(self, tmp_path, chain_prep, shots=400):
        out = tmp_path / "batch.csv"
        assert (
            main(
                ["sample", "--state", str(chain_prep), "--S", str(shots), "--seed", "1", "--out", str(out)]
            )
            == 0
        )
        return out

    def test_report_rows_and_exact_column(
        self, tmp_path, chain_prep, obs_file, identity_circuit_file
    ):
        batch = self._sample(tmp_path, chain_prep)
        report = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        rc = main(
            [
                "estimate",
                "--batch",
                str(batch),
                "--observable",
                str(obs_file),
                "--circuit",
                str(identity_circuit_file),
                "--exact-state",
                str(chain_prep),
                "--out",
                str(report),
                "--csv",
                str(csv_path),
            ]
        )
        assert rc == 0
        rows = json.loads(report.read_text())
        assert len(rows) == 1
        row = rows[0]
        for key in ("observable", "circuit", "batch", "value", "sigma", "S", "exact"):
            assert key in row
        assert row["S"] == 400
        # the sample mean should sit within 5 sigma of the exact value
        assert abs(row["value"] - row["exact"]) <= 5.0 * row["sigma"]
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "observable,map,value,sigma,exact"
        assert len(lines) == 2

    def test_identity_observable_costs_one_with_zero_spread(
        self, tmp_path, chain_prep, identity_circuit_file
    ):
        batch = self._sample(tmp_path, chain_prep, shots=50)
        obs_path = tmp_path / "id_obs.json"
        write_observable(Observable.from_terms(3, [(1.0, "III")]), obs_path)
        report = tmp_path / "r.json"
        rc = main(
            [
                "estimate",
                "--batch",
                str(batch),
                "--observable",
                str(obs_path),
                "--circuit",
                str(identity_circuit_file),
                "--out",
                str(report),
            ]
        )
        assert rc == 0
        row = json.loads(report.read_text())[0]
        assert abs(row["value"] - 1.0) < 1e-9
        assert row["sigma"] < 1e-7

    def test_labels_name_files_by_stem_and_inline_text_as_given(
        self, tmp_path, chain_prep, obs_file, identity_circuit_file
    ):
        batch = self._sample(tmp_path, chain_prep, shots=20)
        inline = '{"num_qubits": 3, "terms": [{"coeff": 1.0, "pauli": "ZZI"}]}'
        report = tmp_path / "r.json"
        argv = ["estimate", "--batch", str(batch), "--circuit", str(identity_circuit_file)]
        rc = main(argv + ["--observable", str(obs_file), "--observable", inline, "--out", str(report)])
        assert rc == 0
        rows = json.loads(report.read_text())
        assert [r["observable"] for r in rows] == ["obs", inline]
        assert {(r["circuit"], r["batch"]) for r in rows} == {("identity", "batch")}

    def test_non_finite_circuit_exits_2(self, tmp_path, chain_prep, obs_file, capsys):
        batch = self._sample(tmp_path, chain_prep, shots=20)
        circuit = tmp_path / "nan.json"
        save_circuit(brickwork(3, 1), circuit)
        payload = json.loads(circuit.read_text())
        payload["components"][0]["map"]["superop"][0][0] = [float("nan"), 0.0]
        circuit.write_text(json.dumps(payload))  # json writes the bare token NaN
        assert "NaN" in circuit.read_text()
        capsys.readouterr()
        argv = ["estimate", "--batch", str(batch), "--observable", str(obs_file)]
        rc = main(argv + ["--circuit", str(circuit)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        ["# povm=sic seed=0 N=3 S=0\n", "# povm=sic seed=0 N=3 S=2\n0,1,2\n0,1,300\n"],
        ids=["header-only", "outcome-300"],
    )
    def test_bad_batch_exits_2(self, tmp_path, obs_file, identity_circuit_file, capsys, text):
        batch = tmp_path / "bad.csv"
        batch.write_text(text)
        capsys.readouterr()
        argv = ["estimate", "--batch", str(batch), "--observable", str(obs_file)]
        rc = main(argv + ["--circuit", str(identity_circuit_file)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_register_mismatch_exits_2(self, tmp_path, chain_prep, obs_file):
        batch = self._sample(tmp_path, chain_prep, shots=20)
        wrong = tmp_path / "wrong.json"
        save_circuit(brickwork(4, 1), wrong)
        rc = main(
            ["estimate", "--batch", str(batch), "--observable", str(obs_file), "--circuit", str(wrong)]
        )
        assert rc == 2


    @staticmethod
    def _all_pairs_circuit(n):
        """Every pair of qubits coupled once, in sequence: the light cone of
        the last qubit is the whole register and its plan's peak equals n."""
        from virtualmap.cone import circuit_from_dict

        comps = [
            {"qubits": [i, j], "map": "identity"}
            for i in range(n)
            for j in range(i + 1, n)
        ]
        return circuit_from_dict({"num_qubits": n, "components": comps})

    def test_plan_wider_than_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        import time

        import virtualmap.cone as cone

        def unexpected(*args):
            raise AssertionError("allocated a residual for an oversized plan")

        monkeypatch.setattr(cone, "insert_factor", unexpected)
        n = cone.MAX_ACTIVE_QUBITS + 2
        circuit = tmp_path / "pairs.json"
        save_circuit(self._all_pairs_circuit(n), circuit)
        batch = tmp_path / "batch.csv"
        batch.write_text(f"# povm=sic seed=0 N={n} S=2\n" + ("0," * (n - 1) + "1\n") * 2)
        obs = tmp_path / "obs.json"
        write_observable(Observable.from_terms(n, [(1.0, "I" * (n - 1) + "Z")]), obs)
        capsys.readouterr()
        start = time.perf_counter()
        rc = main(
            ["estimate", "--batch", str(batch), "--observable", str(obs), "--circuit", str(circuit)]
        )
        assert time.perf_counter() - start < 10.0
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"needs {n} active qubits" in err and f"limit of {cone.MAX_ACTIVE_QUBITS}" in err

    def test_plan_at_limit_is_built(self):
        from virtualmap.cone import MAX_ACTIVE_QUBITS, cone_plan

        circuit = self._all_pairs_circuit(MAX_ACTIVE_QUBITS)
        plan = cone_plan(circuit, (MAX_ACTIVE_QUBITS - 1,))
        assert plan.peak_active == MAX_ACTIVE_QUBITS


class TestOptimize:
    def test_exact_state_run_writes_artifacts(self, tmp_path, obs_file, chain_prep):
        circ_path = tmp_path / "start.json"
        save_circuit(brickwork(3, 1), circ_path)
        out_circ = tmp_path / "best.json"
        report = tmp_path / "sweep.csv"
        rc = main(
            [
                "optimize",
                "--observable",
                str(obs_file),
                "--circuit",
                str(circ_path),
                "--exact-state",
                str(chain_prep),
                "--rounds",
                "2",
                "--init",
                "random_unitary",
                "--seed",
                "3",
                "--sdp-max-iters",
                "3000",
                "--out-circuit",
                str(out_circ),
                "--report",
                str(report),
            ]
        )
        assert rc == 0
        best = load_circuit(out_circ)
        assert best.num_qubits == 3
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "iteration,component,energy,relative_error"
        assert len(lines) >= 2
        # energies recorded in the csv never increase
        energies = [float(line.split(",")[2]) for line in lines[1:]]
        for prev, nxt in zip(energies, energies[1:]):
            assert nxt <= prev + 1e-8

    @pytest.mark.parametrize("shots, below_floor", [(20, True), (200, False)])
    def test_summary_flags_a_fit_to_the_shots(
        self, tmp_path, capsys, obs_file, shots, below_floor
    ):
        from virtualmap.densesim import noisy_chain_state, sample_outcomes, write_batch

        write_batch(sample_outcomes(noisy_chain_state(3), "sic", shots, seed=0), tmp_path / "b.csv")
        save_circuit(brickwork(3, 2), tmp_path / "start.json")
        argv = ["optimize", "--observable", str(obs_file), "--circuit", str(tmp_path / "start.json")]
        argv += ["--batch", str(tmp_path / "b.csv"), "--rounds", "3", "--init", "random_unitary"]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["energy_floor"] == pytest.approx(-4.2, abs=1e-12)
        assert summary["below_floor"] is below_floor
        assert (summary["final_energy"] < -4.2) is below_floor
        assert summary["final_energy"] < summary["exact_energy"]
        assert "--holdout" in summary["hint"]

    def test_hint_points_to_the_holdout_estimate(self, tmp_path, capsys, obs_file):
        from virtualmap.densesim import noisy_chain_state, sample_outcomes, write_batch

        for name, seed in (("b.csv", 0), ("h.csv", 1)):
            write_batch(sample_outcomes(noisy_chain_state(3), "sic", 20, seed=seed), tmp_path / name)
        save_circuit(brickwork(3, 2), tmp_path / "start.json")
        argv = ["optimize", "--observable", str(obs_file), "--circuit", str(tmp_path / "start.json")]
        argv += ["--batch", str(tmp_path / "b.csv"), "--holdout", str(tmp_path / "h.csv")]
        argv += ["--rounds", "3", "--init", "random_unitary"]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["below_floor"] is True and "holdout" in summary
        assert "under holdout" in summary["hint"] and "--holdout" not in summary["hint"]

    @pytest.mark.parametrize(
        "final, exact, keys",
        [
            (-1.0 - 1e-13, None, {"below_floor": False}),
            (-1.0 - 1e-6, None, {"below_floor": True, "hint": "-sum |c_k|"}),
            (-0.9 - 1e-13, -0.9, {"below_floor": False}),
            (-0.9 - 1e-6, -0.9, {"below_floor": False, "hint": "exact ground energy"}),
            (-1.5, -0.9, {"below_floor": True, "hint": "-sum |c_k|"}),
        ],
    )
    @pytest.mark.parametrize("holdout", [None, {"batch": "h.csv", "value": -0.8, "sigma": 0.1}])
    def test_overfit_keys_ignore_round_off(self, final, exact, keys, holdout):
        from virtualmap.cli import _overfit_keys
        from virtualmap.varopt import SweepReport

        obs = Observable.from_terms(2, [(0.5, "ZI"), (-0.5, "XX")])
        got = _overfit_keys(obs, SweepReport(initial_energy=final, exact_energy=exact), holdout)
        assert got["energy_floor"] == -1.0
        assert got["below_floor"] is keys["below_floor"]
        assert ("hint" in got) is ("hint" in keys)
        if "hint" in keys:
            assert keys["hint"] in got["hint"]
            # a run with held-out shots is pointed to their estimate, not told to take some
            assert ("--holdout" in got["hint"]) is (holdout is None)
            assert ("under holdout" in got["hint"]) is (holdout is not None)

    def test_overfit_keys_of_an_empty_observable(self, tmp_path, capsys):
        write_observable(Observable.from_terms(4, []), tmp_path / "empty.json")
        save_circuit(brickwork(4, 1), tmp_path / "start.json")
        argv = ["optimize", "--observable", str(tmp_path / "empty.json")]
        argv += ["--circuit", str(tmp_path / "start.json"), "--classical", "--rounds", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert '"energy_floor": 0.0,' in out
        summary = json.loads(out)
        assert summary["below_floor"] is False and "hint" not in summary

    @pytest.mark.parametrize("fault", ["missing", "unknown-povm", "other-register"])
    def test_bad_holdout_exits_2_before_any_solve(self, tmp_path, monkeypatch, capsys, obs_file, fault):
        import virtualmap.cli as cli
        from virtualmap.densesim import noisy_chain_state, sample_outcomes, write_batch

        def unexpected(*args, **kwargs):
            raise AssertionError("swept before reading the holdout batch")

        monkeypatch.setattr(cli, "sweep", unexpected)
        write_batch(sample_outcomes(noisy_chain_state(3), "sic", 20, seed=0), tmp_path / "b.csv")
        holdout = tmp_path / "h.csv"
        if fault == "unknown-povm":
            holdout.write_text("# povm=foo seed=0 N=3 S=2\n0,1,2\n3,2,1\n")
        elif fault == "other-register":
            write_batch(sample_outcomes(noisy_chain_state(2), "sic", 20, seed=1), holdout)
        save_circuit(brickwork(3, 2), tmp_path / "start.json")
        out = tmp_path / "best.json"
        argv = ["optimize", "--observable", str(obs_file), "--circuit", str(tmp_path / "start.json")]
        argv += ["--batch", str(tmp_path / "b.csv"), "--holdout", str(holdout), "--out-circuit", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_empty_order_exits_2(self, tmp_path, capsys, obs_file):
        # an empty list once ran as the default order, visiting every component
        save_circuit(brickwork(3, 1), tmp_path / "start.json")
        argv = ["optimize", "--observable", str(obs_file), "--circuit", str(tmp_path / "start.json")]
        assert main(argv + ["--classical", "--order", ""]) == 2
        assert "--order must list component indices" in capsys.readouterr().err

    def test_zreset_composes_odd_brickwork(self, tmp_path, capsys):
        # qubit 4 is idle in brickwork(5, 2)'s first layer: it is reset at its
        # first map, so the result scores its classical energy on any input
        from virtualmap.densesim import maximally_mixed
        from virtualmap.varopt import circuit_energy

        obs = xx_hamiltonian(5, field=0.4)
        write_observable(obs, tmp_path / "obs.json")
        save_circuit(brickwork(5, 2), tmp_path / "start.json")
        out = tmp_path / "best.json"
        argv = ["optimize", "--observable", str(tmp_path / "obs.json"), "--classical"]
        argv += ["--circuit", str(tmp_path / "start.json"), "--init", "random_unitary"]
        assert main(argv + ["--rounds", "1", "--zreset", "--out-circuit", str(out)]) == 0
        final = json.loads(capsys.readouterr().out)["final_energy"]
        e_mixed = circuit_energy(load_circuit(out), maximally_mixed(5), obs)
        assert abs(e_mixed - final) <= 1e-9 * (1.0 + abs(final))

    def test_non_hermitian_observable_exits_2(self, tmp_path, capsys):
        # above N=12 no exact diagonalization refuses it first; the imaginary
        # part lies below the shot weights' residue tolerance
        obs = tmp_path / "obs.json"
        write_observable(Observable.from_terms(13, [(1 + 1e-10j, "Z" * 13)]), obs)
        save_circuit(brickwork(13, 1), tmp_path / "start.json")
        argv = ["optimize", "--observable", str(obs), "--circuit", str(tmp_path / "start.json")]
        assert main(argv + ["--classical", "--rounds", "0"]) == 2
        assert "Hermitian observable" in capsys.readouterr().err

    def test_requires_exactly_one_data_source(self, tmp_path, obs_file):
        circ_path = tmp_path / "start.json"
        save_circuit(brickwork(3, 1), circ_path)
        rc = main(
            ["optimize", "--observable", str(obs_file), "--circuit", str(circ_path)]
        )
        assert rc == 2


class TestAnsatz:
    def test_reaches_single_qubit_ground(self, tmp_path):
        obs_path = tmp_path / "obs.json"
        write_observable(Observable.from_terms(2, [(1.0, "ZI")]), obs_path)
        out_circ = tmp_path / "best.json"
        report = tmp_path / "sweep.csv"
        rc = main(
            [
                "ansatz",
                "--observable",
                str(obs_path),
                "--layers",
                "1",
                "--rounds",
                "3",
                "--seed",
                "1",
                "--sdp-max-iters",
                "4000",
                "--out-circuit",
                str(out_circ),
                "--report",
                str(report),
            ]
        )
        assert rc == 0
        lines = report.read_text().strip().splitlines()
        final = float(lines[-1].split(",")[2])
        assert final <= -1.0 + 1e-5

    def test_summary_reports_certificate(self, tmp_path, capsys):
        obs_path = tmp_path / "obs.json"
        write_observable(Observable.from_terms(2, [(1.0, "ZI")]), obs_path)
        base = ["ansatz", "--observable", str(obs_path), "--rounds", "2", "--seed", "1"]
        assert main(base) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["unconverged_steps"] == 0
        assert summary["max_gap"] <= 1e-9
        # the ground energy -1 is the floor itself, reached to round-off
        assert summary["energy_floor"] == -1.0
        assert summary["below_floor"] is False and "hint" not in summary
        assert main(base + ["--sdp-max-iters", "1"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["unconverged_steps"] == summary["iterations"] > 0
        assert summary["max_gap"] > 1e-9

    def test_summary_counts_solves_not_visits(self, tmp_path, capsys, monkeypatch):
        # no solve is counted twice: every solve stops short at 6 Newton
        # steps, and each is one iteration and one unconverged step
        from virtualmap import varopt

        solves = []
        real = varopt.minimize_over_cptp
        monkeypatch.setattr(varopt, "minimize_over_cptp", lambda *a: solves.append(a) or real(*a))
        obs_path = tmp_path / "obs.json"
        write_observable(xx_hamiltonian(5, coupling=1.0, field=0.95, periodic=True), obs_path)
        argv = ["ansatz", "--observable", str(obs_path), "--rounds", "24", "--seed", "0"]
        assert main(argv + ["--sdp-max-iters", "6"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["unconverged_steps"] == summary["iterations"] == len(solves) == 34

    def test_default_init_is_random_unitary(self, tmp_path):
        obs_path = tmp_path / "obs.json"
        write_observable(xx_hamiltonian(3, field=0.4), obs_path)
        base = ["ansatz", "--observable", str(obs_path), "--rounds", "1", "--seed", "5"]
        assert main(base + ["--out-circuit", str(tmp_path / "a.json")]) == 0
        assert main(base + ["--init", "random_unitary", "--out-circuit", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_init_keep_starts_from_random_unitaries(self, tmp_path, capsys):
        # ansatz has no circuit to keep: keep and random_unitary are one run
        obs_path = tmp_path / "obs.json"
        write_observable(xx_hamiltonian(3, field=0.4), obs_path)
        base = ["ansatz", "--observable", str(obs_path), "--rounds", "2", "--seed", "3"]
        outputs = []
        for init in ("keep", "random_unitary"):
            report = tmp_path / f"{init}.csv"
            assert main(base + ["--init", init, "--report", str(report)]) == 0
            outputs.append((capsys.readouterr().out, report.read_text()))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["iterations"] > 0
        with pytest.raises(SystemExit):
            main(["ansatz", "--help"])
        assert "keep starts from random unitaries" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("flag", [["--sdp-tol", "0"], ["--sdp-max-iters", "-1"]])
    def test_bad_solver_settings_exit_2(self, tmp_path, flag):
        obs_path = tmp_path / "obs.json"
        write_observable(Observable.from_terms(2, [(1.0, "ZI")]), obs_path)
        assert main(["ansatz", "--observable", str(obs_path), "--rounds", "1"] + flag) == 2

    def test_no_exact_energy_above_the_diagonalization_limit(self, tmp_path, capsys):
        obs_path = tmp_path / "obs.json"
        write_observable(xx_hamiltonian(13, field=0.95), obs_path)
        assert main(["ansatz", "--observable", str(obs_path), "--rounds", "0"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "exact_energy" not in summary

    def test_zreset_output_is_input_independent(self, tmp_path):
        obs_path = tmp_path / "obs.json"
        write_observable(Observable.from_terms(2, [(1.0, "ZI")]), obs_path)
        out_circ = tmp_path / "best.json"
        rc = main(
            [
                "ansatz",
                "--observable",
                str(obs_path),
                "--rounds",
                "2",
                "--seed",
                "2",
                "--zreset",
                "--out-circuit",
                str(out_circ),
            ]
        )
        assert rc == 0
        best = load_circuit(out_circ)
        from virtualmap.densesim import maximally_mixed
        from virtualmap.pauli import Observable as Obs
        from virtualmap.varopt import circuit_energy

        obs = Obs.from_terms(2, [(1.0, "ZI")])
        e_mixed = circuit_energy(best, maximally_mixed(2), obs)
        assert e_mixed <= -1.0 + 1e-5


class TestOracleCheck:
    def test_random_instances_pass(self, capsys):
        rc = main(["oracle-check", "--N", "4", "--instances", "3", "--seed", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pass"
        assert payload["instances"] == 3
        assert payload["max_relative_error"] <= payload["tolerance"]

    def test_runs_up_to_the_dense_limit(self, capsys):
        assert main(["oracle-check", "--N", "10", "--instances", "1", "--seed", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "pass"

    def test_register_too_large_for_oracle(self):
        rc = main(["oracle-check", "--N", "11", "--instances", "1"])
        assert rc == 2

    @pytest.mark.parametrize("source", ["N", "circuit"])
    def test_large_register_rejected_before_any_work(self, tmp_path, monkeypatch, capsys, source):
        import virtualmap.cli as cli

        def unexpected(*args):
            raise AssertionError("built a circuit for an oversized register")

        monkeypatch.setattr(cli, "_random_check_circuit", unexpected)
        monkeypatch.setattr(cli, "apply_circuit_dense", unexpected)
        if source == "N":
            args = ["--N", "11"]
        else:
            save_circuit(brickwork(11, 1), tmp_path / "c.json")
            args = ["--circuit", str(tmp_path / "c.json")]
        assert main(["oracle-check", *args]) == 2
        assert "dense states need 1 <= N <= 10, got N=11" in capsys.readouterr().err

    def test_a_perturbed_weight_kernel_fails_with_3(self, monkeypatch, capsys):
        # the kernel estimates run is checked on the same row as the traces
        import virtualmap.cli as cli

        real = cli.evaluate_rows
        monkeypatch.setattr(cli, "evaluate_rows", lambda *args: real(*args) + 1e-6)
        rc = main(["oracle-check", "--N", "4", "--instances", "3", "--seed", "0"])
        assert rc == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "fail"
        assert payload["max_relative_error"] > payload["tolerance"]
        assert payload["max_forward_backward_gap"] <= payload["tolerance"]

    def test_impossible_tolerance_fails_with_3(self):
        rc = main(["oracle-check", "--N", "3", "--instances", "1", "--tol", "0"])
        assert rc == 3

    def test_specific_circuit_file(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        save_circuit(brickwork(3, 2), path)
        rc = main(["oracle-check", "--circuit", str(path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pass"


class TestStatePrepSize:
    """An explicit register size must agree with the state-prep file's own."""

    @pytest.mark.parametrize("command", ["sample", "estimate", "optimize"])
    def test_size_that_disagrees_with_the_file_exits_2(self, tmp_path, capsys, command):
        prep = tmp_path / "prep.json"
        prep.write_text(json.dumps({"num_qubits": 3, "steps": [{"qubits": [0, 1], "map": "cnot"}]}))
        write_observable(xx_hamiltonian(5), tmp_path / "obs.json")
        save_circuit(brickwork(5, 1), tmp_path / "c.json")
        files = ["--observable", str(tmp_path / "obs.json"), "--circuit", str(tmp_path / "c.json")]
        if command == "sample":
            argv = ["sample", "--state", str(prep), "--N", "5", "--S", "10"]
        elif command == "estimate":
            assert main(["sample", "--mixed", "--N", "5", "--S", "10", "--out", str(tmp_path / "b.csv")]) == 0
            argv = ["estimate", "--batch", str(tmp_path / "b.csv"), *files, "--exact-state", str(prep)]
        else:
            argv = ["optimize", *files, "--exact-state", str(prep), "--rounds", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "num_qubits=3" in captured.err and "N=5" in captured.err


# valid inputs, for the malformed run settings below
_PREP = '[{"qubits": [0, 1], "map": "cnot"}]'
_OBS = '{"num_qubits": 2, "terms": [{"coeff": 1.0, "pauli": "ZZ"}]}'
_CIRCUIT = '{"num_qubits": 2, "components": [{"qubits": [0, 1], "map": "cnot"}]}'


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "command, text",
        [
            ("oracle-check --circuit", '{"num_qubits": 2, "components": null}'),
            (
                "oracle-check --circuit",
                '{"num_qubits": 2, "components": [{"qubits": [0, 1e400], "map": "cnot"}]}',
            ),
            ("ansatz --observable", '{"num_qubits": 2, "terms": 3}'),
            ("sample --S 5 --state", '[{"qubits": [], "map": "identity"}]'),
            ("sample --S 5 --state", '{"num_qubits": "x"}'),
            ("sample --S 5 --state", '[{"qubits": [30], "map": "identity"}]'),
            ("sample --S 5 --state", '[{"qubits": [0], "map": "random_cptp(seed=-1)"}]'),
            ("oracle-check --circuit", None),  # a directory, not a file
            (
                "oracle-check --circuit",
                '{"num_qubits": 2, "components": [{"qubits": [0, 1.7], "map": "cnot"}]}',
            ),
            ("oracle-check --circuit", '{"num_qubits": true, "components": []}'),
            ("sample --S 5 --state", '[{"qubits": "01", "map": "identity"}]'),
            (
                "ansatz --observable",
                '{"num_qubits": "2", "terms": [{"coeff": 1.0, "pauli": "ZZ"}]}',
            ),
            ("sample --S 5 --state", json.dumps([{"qubits": list(range(20)), "map": "identity"}])),
            ("sample --seed -1 --S 5 --state", _PREP),
            ("ansatz --seed -1 --observable", _OBS),
            ("oracle-check --seed -1 --circuit", _CIRCUIT),
            ("ansatz --accept-tol -1 --observable", _OBS),
            ("ansatz --accept-tol nan --observable", _OBS),
            ("ansatz --rounds -2 --observable", _OBS),
            ("oracle-check --instances -1 --circuit", _CIRCUIT),
            ("oracle-check --instances 0 --circuit", _CIRCUIT),
            ("oracle-check --tol nan --circuit", _CIRCUIT),
            ("oracle-check --tol -1 --circuit", _CIRCUIT),
            ("oracle-check --circuit", "[" * 100_000),
        ],
        ids=[
            "null-components",
            "overflowing-qubit",
            "scalar-terms",
            "empty-step-qubits",
            "text-num-qubits",
            "qubit-30",
            "negative-seed",
            "directory",
            "fractional-qubit",
            "boolean-num-qubits",
            "text-qubits",
            "text-observable-num-qubits",
            "identity-on-20-qubits",
            "sample-negative-seed",
            "ansatz-negative-seed",
            "oracle-check-negative-seed",
            "negative-accept-tol",
            "nan-accept-tol",
            "negative-rounds",
            "negative-instances",
            "zero-instances",
            "nan-tol",
            "negative-tol",
            "deeply-nested-json",
        ],
    )
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, command, text):
        path = tmp_path / "input.json"
        if text is None:
            path.mkdir()
        else:
            path.write_text(text)
        capsys.readouterr()
        assert main(command.split() + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag", ["--circuit", "--observable", "--batch", "--state", "--exact-state"]
    )
    def test_file_that_is_not_text_exits_2(
        self, tmp_path, capsys, obs_file, identity_circuit_file, flag
    ):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00bad")
        valid = ["--observable", str(obs_file), "--circuit", str(identity_circuit_file)]
        argv = {
            "--circuit": ["oracle-check", "--circuit", str(bad)],
            "--observable": ["ansatz", "--observable", str(bad)],
            "--batch": ["estimate", "--batch", str(bad), *valid],
            "--state": ["sample", "--S", "5", "--state", str(bad)],
            "--exact-state": ["optimize", *valid, "--exact-state", str(bad)],
        }[flag]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "is not text" in err and err.count("\n") == 1

    def test_missing_observable_file_is_named(self, tmp_path, capsys):
        missing = tmp_path / "xx11.jsn"
        capsys.readouterr()
        assert main(["ansatz", "--observable", str(missing)]) == 2
        assert capsys.readouterr().err == f"error: no observable file '{missing}'\n"
        # a directory is not read as a file, and is no JSON text either
        assert main(["ansatz", "--observable", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: no observable file '{tmp_path}'\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_observable_is_read_from_a_pipe(self, tmp_path, obs_file, identity_circuit_file):
        # as the shell's <(cat obs.json) hands it over: a path that is no regular file
        batch = tmp_path / "batch.csv"
        assert main(["sample", "--mixed", "--N", "3", "--S", "50", "--out", str(batch)]) == 0
        pipe = tmp_path / "obs.pipe"
        os.mkfifo(pipe)

        def feed():
            with open(pipe, "w") as f:
                f.write(obs_file.read_text())

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        reports = [tmp_path / "piped.json", tmp_path / "plain.json"]
        for observable, report in zip((pipe, obs_file), reports):
            argv = ["estimate", "--batch", str(batch), "--observable", str(observable)]
            argv += ["--circuit", str(identity_circuit_file), "--out", str(report)]
            rc = main(argv)
            if writer.is_alive():  # the pipe was never opened: release its writer
                os.close(os.open(pipe, os.O_RDONLY | os.O_NONBLOCK))
            assert rc == 0
        writer.join(5)
        piped, plain = (json.loads(r.read_text())[0] for r in reports)
        assert piped["value"] == plain["value"]

    def test_empty_order_exits_2(self, tmp_path, capsys):
        obs = tmp_path / "obs.json"
        write_observable(xx_hamiltonian(2, field=0.5), obs)
        capsys.readouterr()
        assert main(["ansatz", "--observable", str(obs), "--order", ""]) == 2
        assert "--order must list component indices" in capsys.readouterr().err

    def test_non_integer_order_exits_2(self, tmp_path, capsys):
        obs = tmp_path / "obs.json"
        write_observable(xx_hamiltonian(2, field=0.5), obs)
        capsys.readouterr()
        assert main(["ansatz", "--observable", str(obs), "--order", "0,a"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("columns", [60, 100])
@pytest.mark.parametrize("command", ["sample", "estimate", "oracle-check"])
def test_help_wraps_at_the_columns_variable(monkeypatch, capsys, command, columns):
    # the parser reads the terminal width once; COLUMNS still sets it (these
    # commands have no unbreakable choice lists, so every line fits)
    monkeypatch.setenv("COLUMNS", str(columns))
    with pytest.raises(SystemExit):
        main([command, "--help"])
    widest = max(len(line) for line in capsys.readouterr().out.splitlines())
    assert columns - 2 - 20 < widest <= columns - 2
