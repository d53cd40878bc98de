"""Names and units of every metric the benchmark prints, and the traced targets.

End-to-end metrics come from the untraced run (``--trace 0``); per-layer
metrics from the traced run (``--trace 1``). README.md says which end-to-end
metric each layer metric should move, and on which workload.
"""

from __future__ import annotations

import statistics

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MB",
    "energy_excess": "ratio",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _madds(count, operand):
    """Hook adding a multiply-add count computed from the operand shapes."""

    def hook(tracer, args, kwargs, result):
        op = _arg(args, kwargs, 0, "op")
        tracer.add("linalg.madds", count(op, _arg(args, kwargs, 1, operand)))

    return hook


def _apply(op, superop):
    # (4^k x 4^k) superoperator times a (4^k x 4^(n-k)) reshaped operator
    return superop.shape[0] * op.size


def _insert(op, factor):
    # np.kron(op, factor): one product per output entry
    return op.size * factor.size


def _trace_out(op, factor):
    # four products summed into each of op.size / 4 output entries
    return op.size


def _peak_active(tracer, args, kwargs, result):
    tracer.peak("cone.peak_active", result.peak_active)


def _sdp(tracer, args, kwargs, result):
    info = result[1]
    tracer.add("varopt.sdp_iters", info["iters"])
    tracer.add("varopt.sdp_unconverged", 0 if info["converged"] else 1)


def _sweep(tracer, args, kwargs, result):
    steps = result[1].steps
    tracer.add("varopt.sweep_steps", len(steps))
    tracer.add("varopt.sweep_accepted", sum(1 for s in steps if s.installed))


# (module, public function, hook reading counts off the call)
TARGETS = (
    ("cone", "evaluate_trace", None),
    ("cone", "split_evaluate", None),
    ("cone", "split_plan", _peak_active),
    ("cone", "schedule", _peak_active),
    ("maps", "adjoint_map", None),
    ("linalg", "apply_superop_local", _madds(_apply, "superop")),
    ("linalg", "insert_factor", _madds(_insert, "factor")),
    ("linalg", "multiply_trace_out", _madds(_trace_out, "factor")),
    ("estimation", "estimate", None),
    ("varopt", "assemble_local_objective", None),
    ("varopt", "minimize_over_cptp", _sdp),
    ("varopt", "circuit_energy", None),
    ("varopt", "sweep", _sweep),
    ("densesim", "read_batch", None),
)

SPAN_FIELDS = {"calls": "count", "self_s": "s", "total_s": "s"}

COUNTERS = {
    "cone.peak_active": "qubits",
    "linalg.madds": "madd_computed",
    "varopt.sdp_iters": "iters",
    "varopt.sdp_unconverged": "count",
    "varopt.sweep_accepted": "steps",
    "varopt.sweep_steps": "steps",
}

INPUT_COUNTS = {"estimation.unique_rows": "rows", "estimation.shots": "shots"}

TRACE_TIMES = {"trace.job_s": "s", "trace.overhead_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, func, _ in TARGETS:
        for suffix, unit in SPAN_FIELDS.items():
            units[f"{module}.{func}.{suffix}"] = unit
    units.update(COUNTERS)
    units.update(INPUT_COUNTS)
    units.update(TRACE_TIMES)
    return units


def per_layer_values(per_job, counters, description, plain_times, traced_times) -> dict[str, float]:
    """Per-layer values from the traced jobs of one run.

    Counts come from the first traced job (every traced job runs the same
    inputs); seconds are medians over the traced jobs. A target that was
    never called, or no longer exists, reads 0.
    """
    jobs = sorted(per_job)
    first = per_job[jobs[0]]
    values = {}
    for module, func, _ in TARGETS:
        name = f"{module}.{func}"
        values[f"{name}.calls"] = first.get(name, {}).get("calls", 0)
        for field in ("self_s", "total_s"):
            values[f"{name}.{field}"] = statistics.median(
                per_job[j].get(name, {}).get(field, 0.0) for j in jobs
            )
    for key in COUNTERS:
        values[key] = counters.get(jobs[0], {}).get(key, 0)
    values["estimation.unique_rows"] = description["unique_rows"]
    values["estimation.shots"] = description["shots"]
    values["trace.job_s"] = statistics.median(traced_times)
    values["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain_times)
    return values
