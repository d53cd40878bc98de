"""What the ``*_replay.py`` scripts share: their command line, the tail of
their records and a call counter.

A replay builds its command line with :func:`parser` (``--repeats``,
``--out``, ``--tag``, and ``--parent`` for the replays that pair), adds its
own options, reads it with :func:`parse`, and hands its record to
:func:`emit`. :class:`Calls` counts the calls of library functions while a
``with`` block runs. :func:`parent_package` imports the package of another
git revision beside the working tree's, so that a replay can time the two
alternately in one process, and :func:`paired` sums up such alternating
timings.
"""

import argparse
import atexit
import importlib.util
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def parser(doc: str, repeats: int, what: str, pairs: bool = False) -> argparse.ArgumentParser:
    """The options every replay takes; ``doc``'s first line describes the
    script, ``repeats`` is the default of ``--repeats`` and ``what`` says
    what one repeat is. A replay that ``pairs`` also takes ``--parent``."""
    p = argparse.ArgumentParser(description=doc.splitlines()[0])
    p.add_argument("--repeats", type=int, default=repeats, help=f"{what} (>= 1)")
    p.add_argument("--out", type=Path, default=None, help="JSON file to store the record in")
    p.add_argument("--tag", default="current", help="key of the record in --out")
    if pairs:
        p.add_argument(
            "--parent",
            metavar="REF",
            default=None,
            help="git revision whose package is replayed alternately with the working tree's",
        )
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


def paired(parent, change, key: str) -> dict:
    """Alternating timings of the parent and the change, pair by pair, under
    keys that start with ``key``: both minima, the median of change - parent
    and the pairs the change won."""
    diffs = [c - p for p, c in zip(parent, change)]
    return {
        f"{key}_parent_min": min(parent),
        f"{key}_min": min(change),
        f"{key}_paired_diff_median": float(np.median(diffs)),
        f"{key}_wins": sum(d < 0.0 for d in diffs),
        f"{key}_pairs": len(diffs),
    }


def parent_package(ref: str):
    """The ``virtualmap`` package of git revision ``ref``, imported as
    ``virtualmap_parent``: ``git archive`` writes its ``src/virtualmap`` into
    a temporary directory, removed at exit, and the package's relative
    imports resolve inside it."""
    tree = subprocess.run(
        ["git", "-C", str(ROOT), "archive", ref, "src/virtualmap"], capture_output=True, check=True
    ).stdout
    tmp = tempfile.mkdtemp(prefix="virtualmap-parent-")
    atexit.register(shutil.rmtree, tmp, True)
    with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
        tar.extractall(tmp, filter="data")
    package = Path(tmp) / "src" / "virtualmap"
    spec = importlib.util.spec_from_file_location(
        "virtualmap_parent", package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


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
