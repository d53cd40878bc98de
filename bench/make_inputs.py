"""Write one workload's seeded input files into a directory.

    python3 bench/make_inputs.py --workload estimate-n8 --seed 1 --out DIR

``run.py`` starts this script several times per run and reports the median
time, rescaled to a reference host speed, as ``setup_s``: process start,
importing virtualmap, generating the inputs and writing them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        env.prepare()
    except env.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    WORKLOADS[args.workload].generate(args.seed, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
