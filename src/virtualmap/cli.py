"""Command-line entry points: sample, estimate, optimize, ansatz, oracle-check.

Every command is deterministic given its seeds, reads/writes only the JSON and
CSV formats owned by the library modules, and exits with 0 on success, 2 on
validation errors (bad inputs, malformed files, out-of-range sizes), and 3 on
numerical failures (a failed oracle self-check, an ill-conditioned map to
invert, a shot weight with an imaginary residue, an infeasible subproblem
solution, a sweep whose last objective's energy differs from the circuit's
own). A subproblem solve that misses its gap target is not a failure:
``optimize`` and ``ansatz`` count it in ``unconverged_steps`` and exit 0.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from .cone import MapCircuit, brickwork, evaluate_rows, evaluate_trace, evaluate_trace_backward
from .cone import load_circuit, save_circuit
from .densesim import (
    EXACT_DIAG_LIMIT,
    _dense_dim,
    apply_circuit_dense,
    batch_to_text,
    build_state,
    exact_ground_value,
    maximally_mixed,
    read_batch,
    sample_outcomes,
)
from .errors import NumericalError, ValidationError
from .estimation import ProductInputData, classical_input, data_from_batch, dual_arrays
from .estimation import estimate, estimate_all, estimate_exact
from .linalg import kron_all, trace_mul
from .maps import identity_map, random_cptp_map, random_tp_hermitian_map, random_unitary_map
from .pauli import Observable, PauliString, parse_observable
from .povm import compute_duals, get_povm
from .varopt import SWEEP_INITS, SdpOptions, SweepOptions, classical_ansatz, sweep, zreset_compose


def _label(path_or_text: str) -> str:
    """A file's stem; anything else, such as inline JSON text, as given."""
    return Path(path_or_text).stem if os.path.isfile(path_or_text) else path_or_text


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# sample


def _cmd_sample(args) -> int:
    if bool(args.state) == bool(args.mixed):
        raise ValidationError("choose exactly one of --state or --mixed")
    if args.mixed:
        if args.N is None:
            raise ValidationError("--mixed needs --N")
        rho = maximally_mixed(args.N)
        source = "mixed"
    else:
        rho = build_state(args.state, args.N)
        source = _label(args.state)
    batch = sample_outcomes(rho, "sic", args.S, seed=args.seed, source=source)
    _emit(batch_to_text(batch), args.out)
    return 0


# ---------------------------------------------------------------------------
# estimate


def _cmd_estimate(args) -> int:
    batch = read_batch(args.batch)
    batch_id = _label(args.batch)
    observables = [(parse_observable(p), _label(p)) for p in args.observable]
    circuits = [(load_circuit(p), _label(p)) for p in args.circuit]
    exact_rho = build_state(args.exact_state, batch.num_qubits) if args.exact_state else None
    # one pass over the batch for every (circuit, observable) pair
    grid = estimate_all(
        batch, list(batch.povm_labels), [c for c, _ in circuits], [o for o, _ in observables]
    )
    rows = []
    for (circ, circ_id), estimates in zip(circuits, grid):
        for (obs, obs_id), est in zip(observables, estimates):
            row = {
                "observable": obs_id,
                "circuit": circ_id,
                "batch": batch_id,
                "value": est.value,
                "sigma": est.sigma,
                "S": est.num_shots,
            }
            if exact_rho is not None:
                row["exact"] = estimate_exact(exact_rho, list(batch.povm_labels), circ, obs)
            rows.append(row)
    _emit(json.dumps(rows, indent=2) + "\n", args.out)
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["observable", "map", "value", "sigma", "exact"])
        for row in rows:
            writer.writerow(
                [
                    row["observable"],
                    row["circuit"],
                    f"{row['value']:.12g}",
                    f"{row['sigma']:.12g}",
                    "" if "exact" not in row else f"{row['exact']:.12g}",
                ]
            )
        Path(args.csv).write_text(buf.getvalue())
    return 0


# ---------------------------------------------------------------------------
# optimize / ansatz


def _sweep_options(args, init: str) -> SweepOptions:
    sdp = SdpOptions(max_iters=args.sdp_max_iters, tol=args.sdp_tol)
    return SweepOptions(rounds=args.rounds, init=init, seed=args.seed, sdp=sdp)


def _exact_energy_if_small(obs) -> float | None:
    if obs.num_qubits > EXACT_DIAG_LIMIT:
        return None
    return exact_ground_value(obs)


# An energy below a bound by less than this, relative to the bound, is
# round-off, not a fit to the shots.
_BELOW_TOL = 1e-9


def _overfit_keys(obs, report, holdout=None) -> dict:
    """``energy_floor`` (-sum |c_k|, below every physical energy), whether the
    final energy lies below it, and a ``hint`` where the final energy lies
    below the floor or the exact ground energy: only minimising over the very
    shots that give the estimate gets there. The hint points to the
    ``holdout`` estimate when the run has one, and to ``--holdout`` when not."""
    final = report.final_energy
    floor = float(-sum(abs(c) for c, _ in obs.terms))
    below_floor = final < floor - _BELOW_TOL * (1.0 + abs(floor))
    keys = {"energy_floor": floor, "below_floor": below_floor}
    exact = report.exact_energy
    if below_floor or (exact is not None and final < exact - _BELOW_TOL * (1.0 + abs(exact))):
        bound = "-sum |c_k|" if below_floor else "the exact ground energy"
        check = (
            "its estimate on held-out shots is under holdout"
            if holdout
            else "evaluate it on held-out shots with optimize --holdout"
        )
        keys["hint"] = (
            f"the final energy is below {bound}: the circuit fits the shots it was "
            f"optimized on; {check}"
        )
    return keys


def _finish_sweep(args, obs, circuit, report, holdout_summary=None) -> int:
    if args.zreset:
        circuit = zreset_compose(circuit)
    if args.out_circuit:
        save_circuit(circuit, args.out_circuit)
    if args.report:
        Path(args.report).write_text(report.to_csv())
    summary = {
        "initial_energy": report.initial_energy,
        "final_energy": report.final_energy,
        "iterations": len(report.steps),
        "max_gap": max((s.gap for s in report.steps), default=0.0),
        "unconverged_steps": sum(not s.converged for s in report.steps),
        "newton_steps": sum(s.newton_steps for s in report.steps),
    }
    if report.exact_energy is not None:
        summary["exact_energy"] = report.exact_energy
        summary["relative_error"] = report.relative_error()
    summary.update(_overfit_keys(obs, report, holdout_summary))
    if holdout_summary:
        summary["holdout"] = holdout_summary
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return 0


def _cmd_optimize(args) -> int:
    obs = parse_observable(args.observable)
    circuit = load_circuit(args.circuit)
    chosen = [bool(args.batch), bool(args.exact_state), args.classical]
    if sum(chosen) != 1:
        raise ValidationError("choose exactly one of --batch, --exact-state, --classical")
    if args.batch:
        batch = read_batch(args.batch)
        data = data_from_batch(batch, list(batch.povm_labels))
    elif args.exact_state:
        data = build_state(args.exact_state, circuit.num_qubits)
    else:
        data = classical_input(circuit.num_qubits)
    if args.holdout:
        # read and checked before the sweep, so a bad holdout costs no solve
        hbatch = read_batch(args.holdout)
        if hbatch.num_qubits != circuit.num_qubits:
            raise ValidationError(f"holdout N={hbatch.num_qubits}, circuit N={circuit.num_qubits}")
        hduals = dual_arrays(list(hbatch.povm_labels), hbatch.num_qubits)
    options = _sweep_options(args, args.init)
    final, report = sweep(circuit, data, obs, options, exact_energy=_exact_energy_if_small(obs))
    holdout = None
    if args.holdout:
        est = estimate(hbatch, hduals, final, obs)
        holdout = {"batch": _label(args.holdout), "value": est.value, "sigma": est.sigma}
    return _finish_sweep(args, obs, final, report, holdout)


def _cmd_ansatz(args) -> int:
    obs = parse_observable(args.observable)
    options = _sweep_options(args, "random_unitary")
    circuit, report = classical_ansatz(
        obs, layers=args.layers, options=options, exact_energy=_exact_energy_if_small(obs)
    )
    return _finish_sweep(args, obs, circuit, report)


# ---------------------------------------------------------------------------
# oracle-check


def _random_check_circuit(n: int, rng: np.random.Generator) -> MapCircuit:
    """Brickwork of one or two layers whose components are exact identities
    (which join no light cone of a partial support, so the weight kernel
    prunes them), random CPTP, unitary and TP Hermiticity-preserving maps."""
    layers = int(rng.integers(1, 3))

    def factory(layer, qubits):
        draw = rng.random()
        if draw < 0.25:
            return identity_map(2)
        if draw < 0.55:
            return random_cptp_map(2, rng)
        if draw < 0.775:
            return random_unitary_map(2, rng)
        return random_tp_hermitian_map(2, rng)

    return brickwork(n, layers, factory)


def _cmd_oracle_check(args) -> int:
    if args.seed < 0:
        raise ValidationError("--seed must be non-negative")
    if args.instances < 1:
        raise ValidationError("--instances must be at least 1")
    if not (np.isfinite(args.tol) and args.tol >= 0.0):
        raise ValidationError("--tol must be a non-negative finite number")
    circuits = [load_circuit(args.circuit)] if args.circuit else None
    # checked before the loop, so a large --N never builds a random circuit
    _dense_dim(circuits[0].num_qubits if circuits else args.N)
    rng = np.random.default_rng(args.seed)
    duals = np.asarray(compute_duals(get_povm("sic")).duals)
    worst_rel = 0.0
    worst_fb = 0.0
    for i in range(args.instances):
        circ = circuits[0] if circuits else _random_check_circuit(args.N, rng)
        n = circ.num_qubits
        outcome = rng.integers(0, duals.shape[0], size=n)
        letters = "".join("IXYZ"[k] for k in rng.integers(0, 4, size=n))
        pauli = PauliString(letters)
        # one row and one term through the two references and the weight kernel
        row = ProductInputData(np.ones(1), [duals] * n, outcome[None])
        term = Observable.from_terms(n, [(1.0, pauli)])
        runs = (evaluate_trace, evaluate_trace_backward, evaluate_rows)
        cone_val, back_val, rows_val = (complex(run(circ, row, term)[0]) for run in runs)
        dense_out = apply_circuit_dense(circ, kron_all([duals[m] for m in outcome]))
        dense_val = complex(trace_mul(dense_out, pauli.matrix()))
        for val in (cone_val, rows_val):
            worst_rel = max(worst_rel, abs(val - dense_val) / max(1.0, abs(dense_val)))
        worst_fb = max(worst_fb, abs(cone_val - back_val))
    ok = worst_rel <= args.tol and worst_fb <= max(args.tol, 1e-12)
    report = {
        "instances": args.instances,
        "max_relative_error": worst_rel,
        "max_forward_backward_gap": worst_fb,
        "tolerance": args.tol,
        "status": "pass" if ok else "fail",
    }
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    if not ok:
        raise NumericalError(
            f"oracle check failed: rel={worst_rel:.3e} fwd/bwd={worst_fb:.3e}"
        )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    # the width argparse computes itself, looked up once, not by every formatter
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="virtualmap",
        description="Estimate and optimize observable averages under virtual local-map circuits.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        return sub.add_parser(name, help=summary, formatter_class=formatter)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0, help="random seed")

    p = command("sample", "draw SIC measurement outcomes from a state")
    add_seed(p)
    p.add_argument("--state", help="state-preparation JSON file")
    p.add_argument("--mixed", action="store_true", help="use the maximally mixed state")
    p.add_argument("--N", type=int, help="number of qubits (required with --mixed)")
    p.add_argument("--S", type=int, required=True, help="number of shots")
    p.add_argument("--out", help="output batch CSV (stdout if omitted)")
    p.set_defaults(func=_cmd_sample)

    p = command("estimate", "estimate observables from a batch")
    p.add_argument("--batch", required=True, help="outcome batch CSV")
    p.add_argument("--observable", action="append", required=True, help="observable JSON (repeatable)")
    p.add_argument("--circuit", action="append", required=True, help="circuit JSON (repeatable)")
    p.add_argument("--exact-state", help="state-prep JSON for exact reference values")
    p.add_argument("--out", help="report JSON path (stdout if omitted)")
    p.add_argument("--csv", help="also write a CSV of (observable, map, value, sigma, exact)")
    p.set_defaults(func=_cmd_estimate)

    def add_optimizer_flags(p):
        add_seed(p)
        p.add_argument("--rounds", type=int, default=10)
        p.add_argument(
            "--sdp-max-iters",
            type=int,
            default=SdpOptions.max_iters,
            help="Newton-step cap of each CPTP subproblem solve",
        )
        p.add_argument(
            "--sdp-tol",
            type=float,
            default=SdpOptions.tol,
            help="target relative certified gap of each subproblem solve",
        )
        p.add_argument(
            "--zreset",
            action="store_true",
            help="compose a reset before each qubit's first map into the result",
        )
        p.add_argument("--out-circuit", help="write the optimized circuit JSON here")
        p.add_argument("--report", help="write the sweep report CSV here")

    p = command("optimize", "optimize a circuit's maps under CPTP")
    p.add_argument("--observable", required=True)
    p.add_argument("--circuit", required=True)
    p.add_argument("--batch", help="optimize against a measured batch")
    p.add_argument("--exact-state", help="optimize against an exact state (state-prep JSON)")
    p.add_argument("--classical", action="store_true", help="optimize on the all-zeros input")
    p.add_argument("--holdout", help="held-out batch CSV to evaluate the final circuit on")
    p.add_argument(
        "--init",
        default="keep",
        choices=SWEEP_INITS,
        help="maps the sweep starts from: the circuit's own (keep) or random unitaries drawn from --seed",
    )
    add_optimizer_flags(p)
    p.set_defaults(func=_cmd_optimize)

    p = command("ansatz", "classical-input variational ground-state run from random unitaries")
    p.add_argument("--observable", required=True)
    p.add_argument("--layers", type=int, default=1)
    add_optimizer_flags(p)
    p.set_defaults(func=_cmd_ansatz)

    p = command("oracle-check", "cone-vs-dense self check on SIC rows (N <= 10)")
    add_seed(p)
    p.add_argument("--N", type=int, default=4)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--circuit", help="check a specific circuit file instead of random ones")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # missing file, directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
