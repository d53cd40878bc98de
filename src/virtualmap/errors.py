"""Exception types mapped to CLI exit codes, and the file parsers' shared
reads and checks: text, bytes, JSON, integers and complex ``[re, im]`` pairs."""

import io
import json
import numbers
from itertools import chain
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


def read_bytes(path, what: str) -> bytes:
    """The file at ``path`` as UTF-8 bytes of the text ``read_text`` reads:
    ``\\r\\n`` and a lone ``\\r`` read as ``\\n``, and bytes that do not
    decode raise. The file is read once; only a file that is not ASCII is
    decoded, as ``read_text`` decodes it."""
    data = Path(path).read_bytes()
    if not data.isascii():
        try:
            data = io.TextIOWrapper(io.BytesIO(data)).read().encode()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{what} is not text: {exc}") from exc
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


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


_LIST = {list}
_NUMBERS = {int, float}


def _number_pairs(value, ndim: int):
    """The numbers of ``value`` as one flat list, and the shape of its pairs,
    if it is ``ndim`` levels of lists, each level's lists of one length
    (above zero), around ``[re, im]`` pairs of ints and floats; else None.
    The types are exact: a bool is no number here."""
    if type(value) is not list:
        return None
    items, shape = value, [len(value)]
    for _ in range(ndim):
        lengths = set(map(len, items)) if set(map(type, items)) == _LIST else ()
        if len(lengths) != 1:
            return None
        shape += lengths
        items = list(chain.from_iterable(items))
    if shape.pop() != 2 or not set(map(type, items)) <= _NUMBERS:
        return None
    return items, shape


def json_complex(value, ndim: int, what: str) -> np.ndarray:
    """The complex array of ``ndim`` axes that ``value`` holds as ``[re, im]``
    number pairs. Booleans, text, ragged nesting, pairs of another length and
    integers beyond float range raise; shape and finiteness are the caller's
    to check. Each pair is read as ``complex(re, im)`` reads it, the sign of a
    zero included: the numbers are converted to floats once, as one flat
    list."""
    pairs = _number_pairs(value, ndim)
    if pairs is None:
        want = f"a {ndim}-axis array of [re, im] pairs" if ndim else "an [re, im] pair"
        raise ValidationError(f"{what} must be {want} of JSON numbers")
    numbers, shape = pairs
    try:
        flat = np.array(numbers, dtype=float)
    except OverflowError as exc:
        raise ValidationError(f"{what} has a number beyond float range: {exc}") from exc
    return np.ndarray(shape, complex, flat)


def complex_json(arr) -> list:
    """``arr`` as nested ``[re, im]`` pairs of Python floats, for ``json.dumps``."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], -1).tolist()
