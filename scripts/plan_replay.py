#!/usr/bin/env python3
"""Replay cold light-cone planning for ``estimate`` on large registers.

Each case is the periodic XX chain (coupling 1, field 0.95) under a staircase
of CNOT maps: ``staircase(24, 3)``, ``staircase(40, 3)`` and
``staircase(64, 2)``. The maps are trace preserving and not the identity, so
the light cones are those of any such circuit (an identity map would join no
cone). With every structure cache emptied and a freshly built
circuit, each timed pass measures

* ``group_s``: grouping the chain's terms into support groups, as
  ``evaluate_rows`` does first;
* ``plans_s``: then one light-cone plan per group, as ``evaluate_rows``
  builds them before contracting;
* ``total_s``: the two together.

The groups are checked against the rule stated on per-term plans: a term's
home is the widest term support (then the lexicographically first) that
contains its own support and lies inside the qubits of its own
``cone_plan``. A mismatch exits with status 1. The script prints one JSON
record: per case the component and term counts, the number of groups, the
widest group plan, and the median and quartiles of the three timings over
``--repeats`` passes. ``--out`` also stores the record in a JSON file under
the key ``--tag``, keeping the file's other keys.

Example:
    python3 scripts/plan_replay.py --repeats 3 --tag change --out BENCH_plan.json
"""

import sys
import time

from replay import emit, parse, parser, quartiles
from virtualmap import cone
from virtualmap.cone import cone_plan, staircase, term_groups
from virtualmap.maps import cnot_map
from virtualmap.pauli import xx_hamiltonian

CASES = {"staircase-24-3": (24, 3), "staircase-40-3": (40, 3), "staircase-64-2": (64, 2)}


def clear_structure_caches():
    """Forget every memoized cone, plan and term group."""
    for fn in vars(cone).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def per_term_rule(circuit, obs):
    """The grouping rule evaluated on one scheduled plan per term."""
    supports = [ps.support for _, ps in obs.terms]
    by_width = sorted(set(supports), key=lambda s: (-len(s), s))
    homes = {}
    for k, own in enumerate(supports):
        cone_qubits = set(cone_plan(circuit, own).qubits)
        home = next(s for s in by_width if set(own) <= set(s) <= cone_qubits)
        homes.setdefault(home, []).append(k)
    return tuple(tuple(g) for g in homes.values())


def cold_pass(n, layers, obs):
    clear_structure_caches()
    circuit = staircase(n, layers, lambda layer, qubits: cnot_map())
    start = time.perf_counter()
    groups = term_groups(circuit, [ps for _, ps in obs.terms])
    grouped = time.perf_counter()
    plans = [
        cone_plan(circuit, sorted({q for k in g for q in obs.terms[k][1].support}))
        for g in groups
    ]
    planned = time.perf_counter()
    return circuit, groups, plans, grouped - start, planned - grouped


def replay(name, repeats):
    n, layers = CASES[name]
    obs = xx_hamiltonian(n, coupling=1.0, field=0.95, periodic=True)
    group_s, plans_s, total_s = [], [], []
    for _ in range(repeats):
        circuit, groups, plans, g_s, p_s = cold_pass(n, layers, obs)
        group_s.append(g_s)
        plans_s.append(p_s)
        total_s.append(g_s + p_s)
    ok = tuple(tuple(g) for g in groups) == per_term_rule(circuit, obs)
    return {
        "components": len(circuit.components),
        "terms": len(obs.terms),
        "groups": len(groups),
        "max_peak_active": max(p.peak_active for p in plans),
        "ok": ok,
        **quartiles(group_s, "group_s"),
        **quartiles(plans_s, "plans_s"),
        **quartiles(total_s, "total_s"),
    }


def main(argv=None) -> int:
    p = parser(__doc__, 3, "cold passes per case")
    p.add_argument(
        "--case", action="append", choices=sorted(CASES), help="case to run (repeatable; default all)"
    )
    args = parse(p, argv)
    names = args.case or list(CASES)
    record = emit({name: replay(name, args.repeats) for name in names}, args)
    failed = [name for name in names if not record[name]["ok"]]
    for name in failed:
        print(f"error: {name} groups differ from the per-term plan rule", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
