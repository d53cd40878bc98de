"""Dense linear-algebra helpers shared across the package.

Conventions fixed here and relied on everywhere else:

* ``vec`` is column-stacking: ``vec(X)[j*d + i] = X[i, j]``, equivalently
  ``X.reshape(-1, order="F")``, so that ``vec(A @ X @ B) = kron(B.T, A) @ vec(X)``.
* Multi-qubit operators live on the Kronecker product with qubit 0 as the
  leftmost (most significant) factor; qubit indices are 0-based.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(mat).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec` for a square matrix."""
    v = np.asarray(v).reshape(-1)
    if dim is None:
        dim = round(len(v) ** 0.5)
    if dim * dim != len(v):
        raise ValueError(f"vector of length {len(v)} is not a square matrix")
    return v.reshape(dim, dim, order="F")


def kron_all(mats) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def herm(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)


def trace_mul(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr[a @ b] without forming the product."""
    return complex(np.einsum("ij,ji->", a, b))


def _pad_batch(arr: np.ndarray, rank: int) -> tuple[int, ...]:
    """The trailing batch shape of ``arr`` (after its two operator axes),
    padded on the left with ones to at least ``rank`` axes, so that two batch
    shapes broadcast as numpy aligns them."""
    batch = arr.shape[2:]
    return (1,) * (rank - len(batch)) + batch


@lru_cache(maxsize=256)
def _superop_perms(positions: tuple[int, ...], n: int, nb: int):
    """Axis permutation of an n-qubit operator tensor with ``nb`` trailing
    batch axes that brings the column then row axes of ``positions`` to the
    front, and its inverse."""
    front = [n + p for p in positions] + list(positions)
    perm = front + [a for a in range(2 * n + nb) if a not in front]
    return tuple(perm), tuple(np.argsort(perm).tolist())


def apply_superop_local(op: np.ndarray, superop: np.ndarray, positions, n: int) -> np.ndarray:
    """Apply a k-local superoperator to a batch of n-qubit operators.

    ``op`` has shape (2^n, 2^n, *batch) for any number of trailing batch axes;
    ``positions`` lists the qubit slots (0-based, within the n-qubit space)
    the map acts on, in the map's own qubit order. The batch is folded into
    one matrix product.
    """
    k = len(positions)
    batch = op.shape[2:]
    perm, inverse = _superop_perms(tuple(positions), n, len(batch))
    t = op.reshape((2,) * (2 * n) + batch).transpose(perm)
    t = (superop @ t.reshape(4**k, -1)).reshape(t.shape)
    d = 2**n
    return t.transpose(inverse).reshape((d, d) + batch)


def multiply_trace_out(op: np.ndarray, factor: np.ndarray, position: int, n: int) -> np.ndarray:
    """Tr_q[op @ (factor on qubit q)] for a batch, removing qubit ``position``.

    ``op`` is (2^n, 2^n, *batch) and ``factor`` (2, 2, *fbatch); the two batch
    shapes broadcast, so a factor shared by the batch is (2, 2).
    """
    hi, lo = 2**position, 2 ** (n - 1 - position)
    f = np.asarray(factor)
    t = op.reshape((hi, 2, lo, hi, 2, lo) + _pad_batch(op, f.ndim - 2))
    res = t[:, 0, :, :, 0] * f[0, 0]
    res += t[:, 0, :, :, 1] * f[1, 0]
    res += t[:, 1, :, :, 0] * f[0, 1]
    res += t[:, 1, :, :, 1] * f[1, 1]
    d = 2 ** (n - 1)
    return res.reshape((d, d) + res.shape[4:])


def trace_out_each(op: np.ndarray, factors: np.ndarray, position: int, n: int) -> np.ndarray:
    """Tr_q[op @ (factors[m] on qubit q)] for every factor of a stack,
    removing qubit ``position`` and opening one axis of factors.

    ``op`` is (2^n, 2^n, T, O) and ``factors`` (M, 2, 2); returns
    (2^(n-1), 2^(n-1), T, O * M), item (t, o * M + m) being that of
    ``op[..., t, o]`` and ``factors[m]``. The qubit's four entries are moved
    last and contracted by one matmul with the (4, M) factor matrix.
    """
    hi, lo = 2**position, 2 ** (n - 1 - position)
    t, o = op.shape[2:]
    x = op.reshape(hi, 2, lo, hi, 2, lo, t * o).transpose(0, 2, 3, 5, 6, 1, 4)
    weights = np.asarray(factors).transpose(2, 1, 0).reshape(4, -1)  # [(a, b), m] = factors[m, b, a]
    d = 2 ** (n - 1)
    return (x.reshape(-1, 4) @ weights).reshape(d, d, t, -1)


def insert_factor(op: np.ndarray, factor: np.ndarray, slot: int, n: int) -> np.ndarray:
    """Tensor a single-qubit factor into a batch of n-qubit operators at ``slot``.

    ``op`` is (2^n, 2^n, *batch) and ``factor`` (2, 2, *fbatch); the two batch
    shapes broadcast, so an item of size one on either side is shared.
    """
    hi, lo = 2**slot, 2 ** (n - slot)
    f = np.asarray(factor)
    t = op.reshape((hi, 1, lo, hi, 1, lo) + _pad_batch(op, f.ndim - 2))
    m = t * f.reshape((1, 2, 1, 1, 2, 1) + _pad_batch(f, op.ndim - 2))
    d = 2 ** (n + 1)
    return m.reshape((d, d) + m.shape[6:])


def unique_rows(rows: np.ndarray, return_inverse: bool = True) -> tuple:
    """Distinct rows of an (R, K) integer array, K >= 1, with inverse and counts.

    Returns exactly ``np.unique(rows, axis=0, return_inverse=True,
    return_counts=True)``, dtypes included: rows in lexicographic order,
    column 0 most significant, a 1-D inverse and the counts. With
    ``return_inverse`` false the inverse is ``None`` and the rows are sorted,
    not argsorted. If the values span ``bits`` bits and bits * K <= 63, each
    row is one int64 key, the product of the row, offset by its smallest
    entry when that is negative, with the column weights 2^(bits (K-1-k));
    wider rows are ordered by one ``np.lexsort``. Sorted neighbours that
    differ mark the distinct rows, gathered from ``rows`` by one index, or,
    sorted without one, read back off their keys.
    """
    rows = np.asarray(rows)
    k = rows.shape[1]
    bits = 64
    if rows.size and np.can_cast(rows.dtype, np.int64):
        low = min(int(rows.min()), 0)
        bits = (int(rows.max()) - low).bit_length()
    keyed = bits * k <= 63
    starts = np.ones(len(rows), dtype=bool)
    order = None
    if keyed:
        shifts = bits * np.arange(k - 1, -1, -1, dtype=np.int64)
        offset = rows.astype(np.int64) - low if low else rows
        ranked = np.einsum("rk,k->r", offset, np.left_shift(1, shifts))
        if return_inverse:
            order = ranked.argsort()
            ranked = ranked[order]
        else:
            ranked.sort()
        np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    else:
        order = np.lexsort(rows.T[::-1])
        ranked = rows[order]
        np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
    inverse = None
    if return_inverse:
        inverse = np.empty(len(rows), dtype=np.intp)
        inverse[order] = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    if order is not None:
        uniq = rows[order[first]]
    else:
        digits = (ranked[first] >> shifts[:, None]) & ((1 << bits) - 1)
        uniq = (digits + low if low else digits).T.astype(rows.dtype, order="C")
    return uniq, inverse, np.diff(first, append=len(rows))
