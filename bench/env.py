"""Process set-up shared by the benchmark's entry points.

``prepare`` must run before numpy is imported: it pins the BLAS and OpenMP
pools to one thread, so timings do not depend on how many cores a shared
machine happens to have free, and it puts this checkout's ``src`` first on
``sys.path``, so the benchmark always measures the code next to it rather
than an installed copy.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSource(RuntimeError):
    """The checkout does not hold the virtualmap sources."""


def prepare() -> Path:
    """Pin native thread pools, import virtualmap from this checkout, return the root."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "virtualmap" / "__init__.py").is_file():
        raise MissingSource(f"no virtualmap sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import virtualmap

    where = Path(virtualmap.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise MissingSource(f"virtualmap was imported from {where}, not from {SRC}")
    return ROOT


def environment_record(seed: int) -> dict:
    """Machine and library versions that every result carries."""
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
    }
