"""Exception types mapped to CLI exit codes, and the file parsers' shared
reads and checks: text, JSON, integers and complex ``[re, im]`` pairs."""

import json
import numbers
from pathlib import Path

import numpy as np


class ValidationError(ValueError):
    """Malformed input: bad files, wrong shapes, infeasible requests. Exit code 2."""


class NumericalError(RuntimeError):
    """Numerical failure: conditioning, non-convergence, residue blow-up. Exit code 3."""


def read_text(path, what: str) -> str:
    """The text of the file at ``path``, decoded as ``Path.read_text`` decodes
    it; bytes that do not decode raise."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} is not text: {exc}") from exc


def parse_json(text: str, what: str):
    """``text`` parsed as JSON; malformed or too deeply nested text raises."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc


def json_int(value, what: str) -> int:
    """``value`` as an ``int`` if it is an integer, numpy's included; text,
    fractions and booleans raise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def json_complex(value, ndim: int, what: str) -> np.ndarray:
    """The complex array of ``ndim`` axes that ``value`` holds as ``[re, im]``
    number pairs. Booleans, text, ragged nesting, pairs of another length and
    integers beyond float range raise; shape and finiteness are the caller's
    to check. Each pair is read as ``complex(re, im)`` reads it, the sign of a
    zero included."""
    # The element types are read from an object array: a numeric array would
    # turn a boolean among numbers into a number.
    pairs = np.asarray(value, dtype=object)
    if (
        pairs.ndim != ndim + 1
        or pairs.shape[-1] != 2
        or not set(map(type, pairs.flat)) <= {int, float}
    ):
        want = f"a {ndim}-axis array of [re, im] pairs" if ndim else "an [re, im] pair"
        raise ValidationError(f"{what} must be {want} of JSON numbers")
    try:
        return pairs.astype(float).view(complex)[..., 0]
    except OverflowError as exc:
        raise ValidationError(f"{what} has a number beyond float range: {exc}") from exc


def complex_json(arr) -> list:
    """``arr`` as nested ``[re, im]`` pairs of Python floats, for ``json.dumps``."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], -1).tolist()
