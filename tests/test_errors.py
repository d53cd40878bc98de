"""The file parsers' shared reads: the bytes reader and the [re, im] decoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virtualmap.errors import ValidationError, json_complex, read_bytes


def _object_array_decoder(value, ndim: int, what: str) -> np.ndarray:
    """``json_complex`` as it read its element types off an object array,
    before the flat decoder: the reference it must agree with."""
    try:
        pairs = np.asarray(value, dtype=object)
    except ValueError as exc:  # a nest that an older numpy cannot hold
        raise ValidationError(f"{what} must be [re, im] pairs") from exc
    if (
        pairs.ndim != ndim + 1
        or pairs.shape[-1] != 2
        or not set(map(type, pairs.flat)) <= {int, float}
    ):
        raise ValidationError(f"{what} must be [re, im] pairs")
    try:
        return pairs.astype(float).view(complex)[..., 0]
    except OverflowError as exc:
        raise ValidationError(f"{what} has a number beyond float range") from exc


def _decoded(decode, value, ndim):
    """The shape, dtype and bytes ``decode`` returns, or None if it refuses
    ``value`` with a ``ValidationError``."""
    try:
        out = decode(value, ndim, "value")
    except ValidationError:
        return None
    return out.shape, out.dtype, out.tobytes()


_NUMBERS = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2**80), 2**80),
    st.sampled_from([10**400, -(10**400), 2**53 + 1, -(2**63) - 1, 2**1023 * 3 // 2]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0]),
)
_LEAVES = st.one_of(_NUMBERS, _NUMBERS, _NUMBERS, st.booleans(), st.text(max_size=2), st.none())


def _nest(shape):
    """Nested lists of ``shape`` around leaves."""
    if not shape:
        return _LEAVES
    return st.lists(_nest(shape[1:]), min_size=shape[0], max_size=shape[0])


# rectangular nests, pairs mostly, and any nesting at all
_RECTANGULAR = st.lists(st.integers(0, 3), max_size=2).flatmap(
    lambda dims: st.sampled_from([2, 2, 2, 1, 3]).flatmap(lambda last: _nest((*dims, last)))
)
_ANY = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=12)


class TestJsonComplex:
    @settings(max_examples=400, deadline=None)
    @given(value=st.one_of(_RECTANGULAR, _RECTANGULAR, _ANY), ndim=st.integers(0, 2))
    def test_agrees_with_the_object_array_decoder(self, value, ndim):
        # the same bytes, -0.0 and the rounding of huge integers included,
        # or both refuse
        assert _decoded(json_complex, value, ndim) == _decoded(_object_array_decoder, value, ndim)

    @pytest.mark.parametrize(
        "value, ndim",
        [
            ([[1.0, 2.0], [3.0, 4.0]], 1),
            ([[[1, -0.0]], [[2**64 + 1, 5]]], 2),
            ([0, -0.0], 0),
        ],
    )
    def test_valid_pairs(self, value, ndim):
        assert _decoded(json_complex, value, ndim) == _decoded(_object_array_decoder, value, ndim)
        assert _decoded(json_complex, value, ndim) is not None

    @pytest.mark.parametrize(
        "value, ndim",
        [
            ([True, 0.0], 0),
            (["1", 0.0], 0),
            ("12", 0),
            ([1.0, 2.0, 3.0], 0),
            ([[1.0, 2.0], [3.0]], 1),
            ([[1.0, 2.0], 3.0], 1),
            ([], 0),
            ([[]], 1),
            ([10**400, 0], 0),
            ([[1.0, 2.0]], 0),
            ((1.0, 2.0), 0),
        ],
        ids=[
            "bool",
            "text-number",
            "text",
            "three",
            "ragged",
            "bare-number",
            "empty",
            "empty-row",
            "overflow",
            "too-deep",
            "tuple",
        ],
    )
    def test_refused(self, value, ndim):
        with pytest.raises(ValidationError):
            json_complex(value, ndim, "value")


class TestReadBytes:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.one_of(
            st.lists(st.sampled_from(["a", "0", ",", "\n", "\r", "\r\n", " ", "\t", "é", " ", "\x85"]))
            .map("".join)
            .map(str.encode),
            st.binary(max_size=12),
        )
    )
    def test_reads_what_read_text_reads(self, tmp_path_factory, data):
        # UTF-8 bytes of the text Path.read_text reads, or "not text" where
        # it fails to decode
        path = tmp_path_factory.mktemp("bytes") / "file"
        path.write_bytes(data)
        try:
            want = path.read_text().encode()
        except UnicodeDecodeError:
            with pytest.raises(ValidationError, match="file is not text"):
                read_bytes(path, "file")
            return
        assert read_bytes(path, "file") == want
