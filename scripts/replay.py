"""What the ``*_replay.py`` scripts share: their command line, the tail of
their records and a call counter.

A replay builds its command line with :func:`parser` (``--repeats``,
``--out``, ``--tag``), adds its own options, reads it with :func:`parse`,
and hands its record to :func:`emit`. :class:`Calls` counts the calls of
library functions while a ``with`` block runs.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def parser(doc: str, repeats: int, what: str) -> argparse.ArgumentParser:
    """The options every replay takes; ``doc``'s first line describes the
    script, ``repeats`` is the default of ``--repeats`` and ``what`` says
    what one repeat is."""
    p = argparse.ArgumentParser(description=doc.splitlines()[0])
    p.add_argument("--repeats", type=int, default=repeats, help=f"{what} (>= 1)")
    p.add_argument("--out", type=Path, default=None, help="JSON file to store the record in")
    p.add_argument("--tag", default="current", help="key of the record in --out")
    return p


def parse(p: argparse.ArgumentParser, argv) -> argparse.Namespace:
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    return args


def emit(record: dict, args: argparse.Namespace) -> dict:
    """Add ``repeats`` and the machine to ``record``, print it as one JSON
    line and, with ``--out``, store it in that file under ``--tag``, keeping
    the file's other keys."""
    record.update(
        repeats=args.repeats,
        python=platform.python_version(),
        numpy=np.__version__,
        machine=f"{platform.machine()}, {os.cpu_count()} CPUs",
    )
    print(json.dumps(record))
    if args.out is not None:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored[args.tag] = record
        args.out.write_text(json.dumps(stored, indent=2) + "\n")
    return record


def quartiles(values, key: str) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {f"{key}_median": float(median), f"{key}_q1": float(q1), f"{key}_q3": float(q3)}


class Calls:
    """Counts the calls of the functions ``names`` made through any module
    in ``modules`` that binds them.

    Inside the ``with`` block each binding is swapped for a counting wrapper;
    on exit, also when the block raises, every original comes back.
    ``counts[name]`` is the number of calls and, with ``keep``,
    ``args[name]`` holds the ``(args, kwargs)`` of each. A subclass changes
    how the wrapped function runs by overriding :meth:`call`.
    """

    def __init__(self, modules, names, keep: bool = False):
        self.bindings = [(m, name) for name in names for m in modules if hasattr(m, name)]
        unbound = set(names) - {name for _, name in self.bindings}
        if unbound:
            raise AttributeError(f"no module binds {sorted(unbound)}")
        self.counts = dict.fromkeys(names, 0)
        self.args = {name: [] for name in names}
        self.keep = keep

    def call(self, real, args, kwargs):
        return real(*args, **kwargs)

    def _counting(self, name, real):
        def counting(*args, **kwargs):
            self.counts[name] += 1
            if self.keep:
                self.args[name].append((args, kwargs))
            return self.call(real, args, kwargs)

        return counting

    def __enter__(self):
        self.originals = [getattr(m, name) for m, name in self.bindings]
        for (m, name), real in zip(self.bindings, self.originals):
            setattr(m, name, self._counting(name, real))
        return self

    def __exit__(self, *exc):
        for (m, name), real in zip(self.bindings, self.originals):
            setattr(m, name, real)
