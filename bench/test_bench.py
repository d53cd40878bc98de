"""Self-tests of the benchmark: the gate, the dense reference and the tracer.

    python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import env

env.prepare()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import metrics  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from virtualmap import cone  # noqa: E402
from virtualmap.cli import main  # noqa: E402
from virtualmap.densesim import apply_circuit_dense  # noqa: E402
from virtualmap.maps import random_cptp_map, random_tp_hermitian_map, superop_to_choi  # noqa: E402


def _cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _small(workload, **sizes):
    for key, value in sizes.items():
        setattr(workload, key, value)
    return workload


def test_estimate_gate_flags_a_perturbed_estimate(tmp_path):
    w = _small(workloads.EstimateN8(), n=3, shots=40)
    inputs = w.generate(seed=5, work=tmp_path)
    reference = w.reference(inputs, tmp_path)
    stdout = _cli(inputs.argv)
    w.check(reference, tmp_path, stdout)  # the unmodified output passes

    report = tmp_path / "report.json"
    rows = json.loads(report.read_text())
    for key in ("value", "sigma"):
        bad = [dict(r) for r in rows]
        bad[1][key] *= 1.0 + 1e-6
        report.write_text(json.dumps(bad))
        with pytest.raises(ref.GateFailure, match=key):
            w.check(reference, tmp_path, stdout)


def test_sweep_gate_flags_a_perturbed_final_energy(tmp_path):
    w = _small(workloads.AnsatzN5(), n=3)
    inputs = w.generate(seed=0, work=tmp_path)
    inputs.argv[inputs.argv.index("--rounds") + 1] = "2"
    reference = w.reference(inputs, tmp_path)
    stdout = _cli(inputs.argv)
    assert w.check(reference, tmp_path, stdout) >= 0.0

    summary = json.loads(stdout)
    summary["final_energy"] += 1e-6
    with pytest.raises(ref.GateFailure, match="final_energy"):
        w.check(reference, tmp_path, json.dumps(summary))


def test_reference_agrees_with_the_library_dense_simulator():
    rng = np.random.default_rng(3)
    circ = cone.brickwork(3, 2, lambda layer, qubits: random_tp_hermitian_map(2, rng))
    comps = [(c.qubits, c.map.superop) for c in circ.components]
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a = g + g.conj().T
    o = np.diag(rng.standard_normal(8)).astype(complex)
    assert np.allclose(ref.apply_circuit(a, comps, 3), apply_circuit_dense(circ, a), atol=1e-12)
    forward = np.trace(ref.apply_circuit(a, comps, 3) @ o)
    backward = np.trace(a @ ref.heisenberg(o, comps, 3))
    assert abs(forward - backward) < 1e-10


def test_reference_choi_and_cptp_defect():
    rng = np.random.default_rng(4)
    channel = random_cptp_map(2, rng)
    assert np.allclose(ref.choi(channel.superop), superop_to_choi(channel).matrix)
    assert ref.cptp_defect(channel.superop) < 1e-10
    assert ref.cptp_defect(random_tp_hermitian_map(2, rng).superop) > 1e-3


def test_self_time_subtracts_the_union_of_children():
    #            0: root [0, 10]
    #   1: [1, 4]          2: [5, 9]
    #   3: [2, 3]    4: [5, 7]  5: [6, 8]  (4 and 5 overlap)
    start = np.array([0.0, 1.0, 5.0, 2.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 3.0, 7.0, 8.0])
    parent = np.array([-1, 0, 0, 1, 2, 2])
    own = tracing.self_times(start, end, parent)
    assert own.tolist() == [3.0, 2.0, 1.0, 1.0, 2.0, 2.0]


def test_tracer_counts_calls_and_self_time(monkeypatch):
    clock = iter(float(t) for t in range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(clock))
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x)

    def outer_fn(x):
        return inner(x) + inner(x)

    outer = tracer.wrap("outer", outer_fn)
    with tracer.job_span(0):
        assert outer(2) == 4
    rows = tracing.summarize(tracer)[0]
    # ticks: job 0, outer 1, inner 2-3, inner 4-5, outer ends 6, job ends 7
    assert rows["outer"] == {"calls": 1, "self_s": 3.0, "total_s": 5.0}
    assert rows["inner"] == {"calls": 2, "self_s": 2.0, "total_s": 2.0}
    assert rows["job"]["self_s"] == 2.0


def test_instrument_reports_absent_targets_and_restores_bindings():
    tracer = tracing.Tracer()
    original = cone.evaluate_trace
    targets = [("cone", "evaluate_trace", None), ("cone", "no_such_kernel", None)]
    with tracing.instrument(tracer, targets):
        assert cone.evaluate_trace is not original
        assert cone.evaluate_trace.__wrapped__ is original
    assert cone.evaluate_trace is original
    assert tracer.absent == {"cone.no_such_kernel"}


def test_benchmark_json_matches_the_metric_catalogue():
    spec = json.loads((Path(env.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.per_layer_units()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
