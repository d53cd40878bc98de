"""The replay scripts' shared harness (``scripts/replay.py``), the
self-gating of the solver, weights, plan and batch replays, the solver,
weights and batch replays against a parent package, the CLI's Newton step total counted
by the harness, and the two paper-experiment scripts at their smallest size,
loaded from ``scripts/`` by path."""

import importlib.util
import json
import re
import subprocess
import types
from pathlib import Path

import numpy as np
import pytest

import virtualmap
from virtualmap import cone, densesim, estimation, varopt
from virtualmap.cli import main
from virtualmap.pauli import write_observable, xx_hamiltonian

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def load(monkeypatch):
    """Import ``scripts/<name>.py``; its ``from replay import`` finds the
    harness beside it."""
    monkeypatch.syspath_prepend(str(SCRIPTS))

    def load(name):
        spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load


def _modules():
    def f(x, scale=1):
        return x * scale

    def g():
        return "g"

    a, b = types.ModuleType("a"), types.ModuleType("b")
    a.f, a.g, b.f = f, g, f
    return a, b


class TestCalls:
    def test_counts_per_name_and_keeps_arguments(self, load):
        replay = load("replay")
        a, b = _modules()
        with replay.Calls([a, b], ["f", "g"], keep=True) as calls:
            assert a.f(2) == 2 and b.f(3, scale=2) == 6 and a.g() == "g"
        assert calls.counts == {"f": 2, "g": 1}
        assert calls.args["f"] == [((2,), {}), ((3,), {"scale": 2})]
        assert calls.args["g"] == [((), {})]

    def test_restores_every_name_when_the_body_raises(self, load):
        replay = load("replay")
        a, b = _modules()
        originals = (a.f, a.g, b.f)
        with pytest.raises(RuntimeError):
            with replay.Calls([a, b], ["f", "g"]):
                a.f(1)
                raise RuntimeError
        assert (a.f, a.g, b.f) == originals

    def test_a_name_no_module_binds_is_refused(self, load):
        replay = load("replay")
        with pytest.raises(AttributeError, match="h"):
            replay.Calls(list(_modules()), ["f", "h"])


def test_records_keep_the_files_other_keys(load, tmp_path, capsys):
    replay = load("replay")
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"parent": {"x": 1}}))
    p = replay.parser("A replay.\n", 3, "passes")
    with pytest.raises(SystemExit):
        replay.parse(p, ["--repeats", "0"])
    assert "--repeats must be at least 1" in capsys.readouterr().err
    args = replay.parse(p, ["--out", str(out), "--tag", "change"])
    replay.emit({"y": 2}, args)
    printed = json.loads(capsys.readouterr().out)
    assert printed["y"] == 2 and printed["repeats"] == 3 and "machine" in printed
    assert json.loads(out.read_text()) == {"parent": {"x": 1}, "change": printed}


def test_paired_timings(load):
    replay = load("replay")
    got = replay.paired([3.0, 5.0, 4.0], [2.0, 6.0, 1.0], "t")
    assert got == {"t_parent_min": 3.0, "t_min": 1.0, "t_paired_diff_median": -1.0, "t_wins": 2, "t_pairs": 3}


def test_the_parent_package_is_imported_beside_the_working_trees(load):
    root = Path(__file__).resolve().parent.parent
    if subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True).returncode:
        pytest.skip("not a git checkout")
    parent = load("replay").parent_package("HEAD")
    assert parent.__name__ == "virtualmap_parent" and parent is not virtualmap
    assert parent.varopt is not varopt and parent.varopt.__name__ == "virtualmap_parent.varopt"
    _, info = parent.varopt.minimize_over_cptp(np.eye(4))
    assert info["converged"]


class TestSolverReplay:
    def test_replays_the_sweeps_own_subproblems(self, load, capsys):
        assert load("solver_replay").main(["--repeats", "1"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["unconverged"] == 0
        assert record["subproblems"] == record["sweep_solves"] == record["sweep_steps"] == 34
        assert record["newton_steps"] == 378
        # the exact-state N=3 sweep took 93 Newton steps, at most 18 in one
        # solve, before Mehrotra's sigma was floored
        assert record["exact_unconverged"] == 0
        assert record["exact_subproblems"] > 0
        assert record["exact_newton_steps"] <= 80 and record["exact_most_steps"] <= 14
        assert record["random_objectives"] == 600
        assert record["random_unconverged"] == 0 and record["random_newton_steps"] > 600
        assert record["random_worst_gap_over_tol"] > 0.0
        assert 0.0 < record["s_per_step_min"] <= record["s_per_step_q1"]

    def test_an_unconverged_solve_fails_the_replay(self, load, capsys, monkeypatch):
        real = varopt.minimize_over_cptp

        def unconverged(*args, **kwargs):
            choi, info = real(*args, **kwargs)
            return choi, {**info, "converged": False}

        monkeypatch.setattr(varopt, "minimize_over_cptp", unconverged)
        replay = load("solver_replay")
        replay.RANDOM_OBJECTIVES = 2
        assert replay.main(["--repeats", "1"]) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert record["unconverged"] > 0 and record["exact_unconverged"] > 0
        assert record["random_unconverged"] == 2
        assert captured.err.startswith("error:") and "exact-state" in captured.err

    def test_a_step_without_its_own_solve_fails_the_replay(self, load, capsys, monkeypatch):
        real = varopt.sweep

        def repeating(*args, **kwargs):
            circuit, report = real(*args, **kwargs)
            report.steps.append(report.steps[-1])
            return circuit, report

        monkeypatch.setattr(varopt, "sweep", repeating)
        replay = load("solver_replay")
        replay.RANDOM_OBJECTIVES = 2
        assert replay.main(["--repeats", "1"]) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert record["sweep_steps"] == record["sweep_solves"] + 1
        assert captured.err == "error: the ansatz sweep reports 35 steps for 34 solves\n"

    def test_an_unconverged_random_solve_fails_the_replay(self, load, capsys, monkeypatch):
        replay = load("solver_replay")
        replay.RANDOM_OBJECTIVES = 2
        forced = list(replay.random_objectives())
        monkeypatch.setattr(replay, "random_objectives", lambda: iter(forced))
        real = varopt.minimize_over_cptp

        def unconverged_on_the_first(m, *args, **kwargs):
            choi, info = real(m, *args, **kwargs)
            return choi, {**info, "converged": info["converged"] and m is not forced[0]}

        monkeypatch.setattr(varopt, "minimize_over_cptp", unconverged_on_the_first)
        assert replay.main(["--repeats", "1"]) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert record["unconverged"] == record["exact_unconverged"] == 0
        assert record["random_unconverged"] == 1
        assert captured.err.startswith("error:") and "1 of 2 random" in captured.err

    def test_the_parent_comparison_passes_on_equal_answers(self, load, capsys, monkeypatch):
        # the working tree's own package as the parent: every digest is equal
        replay = load("solver_replay")
        replay.RANDOM_OBJECTIVES = 2
        monkeypatch.setattr(replay, "parent_package", lambda ref: virtualmap)
        assert replay.main(["--repeats", "2", "--parent", "REF"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["parent"] == "REF"
        for prefix in ("", "exact_", "random_"):
            assert record[f"{prefix}digest_equal"] is True
            assert record[f"{prefix}parent_newton_steps"] == record[f"{prefix}newton_steps"]
            assert record[f"{prefix}s_per_step_pairs"] == 2
            assert 0 <= record[f"{prefix}s_per_step_wins"] <= 2
            assert record[f"{prefix}s_per_step_parent_min"] > 0.0

    def test_a_parent_with_other_answers_fails_the_replay(self, load, capsys, monkeypatch):
        # a parent whose bounds differ in the last bit: all three digests differ
        parent = types.SimpleNamespace(varopt=types.SimpleNamespace(SdpOptions=varopt.SdpOptions))

        def shifted(*args, **kwargs):
            choi, info = varopt.minimize_over_cptp(*args, **kwargs)
            return choi, {**info, "dual_bound": np.nextafter(info["dual_bound"], -np.inf)}

        parent.varopt.minimize_over_cptp = shifted
        replay = load("solver_replay")
        replay.RANDOM_OBJECTIVES = 2
        monkeypatch.setattr(replay, "parent_package", lambda ref: parent)
        assert replay.main(["--repeats", "1", "--parent", "REF"]) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert not any(record[f"{prefix}digest_equal"] for prefix in ("", "exact_", "random_"))
        assert captured.err == "error: the ansatz, exact-state, random digests differ from REF's\n"


class TestWeightsReplay:
    @staticmethod
    def _load(load):
        replay = load("weights_replay")
        replay.CASES = {"estimate-n8": replay.CASES["estimate-n8"]}
        return replay

    def test_the_parent_comparison_passes_on_equal_answers(self, load, capsys, monkeypatch):
        # the working tree's own package as the parent: the weights are equal
        replay = self._load(load)
        monkeypatch.setattr(replay, "parent_package", lambda ref: virtualmap)
        assert replay.main(["--repeats", "2", "--parent", "REF"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["parent"] == "REF"
        case = record["estimate-n8"]
        assert case["ok"] is True and case["bit_identical"] is True
        assert case["s_pairs"] == 2 and 0 <= case["s_wins"] <= 2 and case["s_parent_min"] > 0.0

    def test_a_parent_with_other_weights_fails_the_replay(self, load, capsys, monkeypatch):
        # a parent whose weights differ in the last bit of one row
        def shifted(circuit, data, obs):
            values = cone.evaluate_rows(circuit, data, obs)
            values[0] = np.nextafter(values[0].real, np.inf) + 1j * values[0].imag
            return values

        parent = types.SimpleNamespace(
            cone=types.SimpleNamespace(
                evaluate_rows=shifted, MapCircuit=cone.MapCircuit, Component=cone.Component
            ),
            maps=virtualmap.maps,
            pauli=virtualmap.pauli,
            estimation=estimation,
        )
        replay = self._load(load)
        monkeypatch.setattr(replay, "parent_package", lambda ref: parent)
        assert replay.main(["--repeats", "1", "--parent", "REF"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["estimate-n8"]["bit_identical"] is False
        assert captured.err == "error: the estimate-n8 weights differ from REF's\n"

    def test_without_a_parent_the_record_is_the_working_trees(self, load, capsys):
        assert self._load(load).main(["--repeats", "1"]) == 0
        case = json.loads(capsys.readouterr().out)["estimate-n8"]
        assert case["ok"] is True and "bit_identical" not in case and case["s_median"] > 0.0


def test_summary_newton_steps_total_the_runs_solves(load, tmp_path, capsys):
    # every step is one solve, and a settled component is not visited
    replay = load("replay")

    class Iters(replay.Calls):
        total = 0

        def call(self, real, args, kwargs):
            choi, info = real(*args, **kwargs)
            self.total += info["iters"]
            return choi, info

    obs = tmp_path / "obs.json"
    write_observable(xx_hamiltonian(5, coupling=1.0, field=0.95, periodic=True), obs)
    with Iters([varopt], ["minimize_over_cptp"]) as solves:
        assert main(["ansatz", "--observable", str(obs), "--rounds", "24", "--seed", "0"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["newton_steps"] == solves.total > 0
    assert solves.counts["minimize_over_cptp"] == summary["iterations"] == 34


def test_plan_replay_checks_its_groups(load, capsys):
    plan = load("plan_replay")
    assert plan.main(["--repeats", "1", "--case", "staircase-24-3"]) == 0
    assert json.loads(capsys.readouterr().out)["staircase-24-3"]["ok"] is True


class TestBatchReplay:
    def test_checks_the_optimize_n3_batch(self, load, capsys):
        assert load("batch_replay").main(["--repeats", "1", "--case", "optimize-n3"]) == 0
        record = json.loads(capsys.readouterr().out)["optimize-n3"]
        assert record["ok"] is True and record["shots"] == 20000
        assert 1 < record["distinct_rows"] <= 64 and record["read_s_median"] > 0.0
        assert "bit_identical" not in record

    def test_the_parent_comparison_passes_on_equal_answers(self, load, capsys, monkeypatch):
        # the working tree's own package as the parent: the rows are equal
        replay = load("batch_replay")
        monkeypatch.setattr(replay, "parent_package", lambda ref: virtualmap)
        argv = ["--repeats", "2", "--case", "optimize-n3", "--parent", "REF"]
        assert replay.main(argv) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["parent"] == "REF"
        case = record["optimize-n3"]
        assert case["ok"] is True and case["bit_identical"] is True
        for key in ("read_s", "count_s"):
            assert case[f"{key}_pairs"] == 2 and 0 <= case[f"{key}_wins"] <= 2
            assert case[f"{key}_parent_min"] > 0.0

    def test_a_parent_with_other_weights_fails_the_replay(self, load, capsys, monkeypatch):
        # a parent whose weight of one row differs in the last bit
        def shifted(batch, duals):
            data = estimation.data_from_batch(batch, duals)
            weights = data.weights.copy()
            weights[0] = np.nextafter(weights[0], np.inf)
            return estimation.ProductInputData(weights, data.tables, data.rows)

        parent = types.SimpleNamespace(
            densesim=densesim, estimation=types.SimpleNamespace(data_from_batch=shifted)
        )
        replay = load("batch_replay")
        monkeypatch.setattr(replay, "parent_package", lambda ref: parent)
        assert replay.main(["--repeats", "1", "--case", "optimize-n3", "--parent", "REF"]) == 1
        captured = capsys.readouterr()
        case = json.loads(captured.out)["optimize-n3"]
        assert case["ok"] is True and case["bit_identical"] is False
        assert captured.err == "error: the optimize-n3 rows differ from REF's\n"

    @pytest.mark.parametrize("fault", ["read", "count"])
    def test_a_mismatch_fails_the_replay(self, load, capsys, monkeypatch, fault):
        if fault == "read":
            real_read = densesim.read_batch

            def read_one_flipped(path):
                batch = real_read(path)
                batch.outcomes[0, 0] ^= 1
                return batch

            monkeypatch.setattr(densesim, "read_batch", read_one_flipped)
        else:
            real_unique = estimation.unique_rows

            def counts_reversed(rows, return_inverse=True):
                uniq, inverse, counts = real_unique(rows, return_inverse)
                return uniq, inverse, np.ascontiguousarray(counts[::-1])

            monkeypatch.setattr(estimation, "unique_rows", counts_reversed)
        assert load("batch_replay").main(["--repeats", "1", "--case", "optimize-n3"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["optimize-n3"]["ok"] is False
        assert captured.err.startswith("error: optimize-n3")


@pytest.mark.parametrize(
    "name, argv, summary",
    [
        (
            "estimation_experiment",
            ["--N", "3", "--batches", "3", "--S", "200"],
            r"worst grand-mean z-score \d+\.\d\d; pooled 3-sigma coverage [01]\.\d{4} over 27 runs",
        ),
        (
            "ansatz_experiment",
            ["--N", "4", "--fields", "0.95", "--seeds", "1", "--rounds", "2"],
            r"  field 0\.95: exact E0 = -3\.9000000000, best relative error \d\.\d{3}e[-+]\d\d",
        ),
    ],
    ids=["estimation_experiment", "ansatz_experiment"],
)
def test_experiment_runs_at_its_smallest_size(load, capsys, name, argv, summary):
    assert load(name).main(argv) == 0
    assert re.fullmatch(summary, capsys.readouterr().out.splitlines()[-1])
