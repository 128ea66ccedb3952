"""Exact dense linear algebra over a field tag.

All routines take the field as first argument and work on numpy arrays
produced by the field's constructors: int64 arrays with entries in 0..p-1
over F_p, object arrays of `Fraction` over Q.

`rref`, `rank`, `nullspace`, `det` and `inv` derive from one Gauss-Jordan
elimination, `_eliminate`, on lists of Python ints, which cannot wrap. Over
F_p it works mod p, scaling each pivot row to a leading 1. Over Q it first
scales each row by the lcm of its denominators and then runs fraction-free
Gauss-Jordan (Bareiss 1968): each step divides exactly by the previous pivot,
so every entry stays an integer minor of the scaled matrix, and the rref is
the result divided by the last pivot. Elimination uses the first nonzero pivot
in each column, so every result is deterministic. `matmul` over F_p uses
numpy's int64 product while no sum of products can reach 2^63 and Python ints
beyond, so every result is exact for every prime below 2^31.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .fields import Field, PrimeField


def product_mod(p: int, length: int):
    """(a, b) -> a @ b mod p for int64 matrices with entries in 0..p-1 and inner
    dimension at most `length`: numpy's int64 product while length * (p-1)^2 is
    below 2^63, Python ints (object dtype) beyond."""
    if length * (p - 1) ** 2 < 2**63:
        return lambda a, b: np.dot(a, b) % p
    return lambda a, b: (np.dot(a.astype(object), b.astype(object)) % p).astype(np.int64)


def matmul(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
        return field.zeros(a.shape[0], b.shape[1])
    if isinstance(field, PrimeField):
        return product_mod(field.p, a.shape[1])(a, b)
    return np.dot(a, b)


def kron(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.kron(a, b)
    return field.normalize(out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]))


def block_diag(field: Field, blocks) -> np.ndarray:
    blocks = list(blocks)
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = field.zeros(rows, cols)
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def _eliminate(field: Field, a: np.ndarray):
    """Gauss-Jordan elimination of `a` on Python ints.

    Returns (rows, d, pivots, det): the rref of `a` is rows / d (d = 1 over
    F_p), pivots are its pivot columns, and det is the determinant of `a` when
    it is square (None otherwise).
    """
    m, n = a.shape
    modular = isinstance(field, PrimeField)
    if modular:
        p = field.p
        rows = (a % p).tolist()
        scale = 1
    else:
        rows, scale = [], 1
        for row in a.tolist():
            s = lcm(*(x.denominator for x in row))
            rows.append([x.numerator * (s // x.denominator) for x in row])
            scale *= s
    sign = prev = 1   # prev: over F_p the product of the pivots, over Q the last pivot
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        for pr in range(r, m):
            if rows[pr][c]:
                break
        else:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        top = rows[r]
        piv = top[c]
        if modular:
            prev = prev * piv % p
            if piv != 1:
                inv_piv = pow(piv, -1, p)
                top = rows[r] = [x * inv_piv % p for x in top]
            for i, row in enumerate(rows):
                f = row[c]
                if f and i != r:
                    rows[i] = [(x - f * y) % p for x, y in zip(row, top)]
        else:
            for i, row in enumerate(rows):
                if i != r:
                    f = row[c]
                    rows[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
            prev = piv
        pivots.append(c)
    if m != n:
        det = None
    elif len(pivots) < n:
        det = field.zero
    elif modular:
        det = sign * prev % p
    else:
        det = Fraction(sign * prev, scale)
    return rows, 1 if modular else prev, pivots, det


def _to_array(field: Field, rows: list[list[int]], d: int, shape) -> np.ndarray:
    """The matrix rows / d as an array of the field."""
    if isinstance(field, PrimeField):
        return np.array(rows, dtype=np.int64).reshape(shape)
    out = np.empty(shape, dtype=object)
    zero = Fraction(0)
    for i, row in enumerate(rows):
        out[i] = [Fraction(x, d) if x else zero for x in row]
    return out


def rref(field: Field, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column list."""
    rows, d, pivots, _ = _eliminate(field, a)
    return _to_array(field, rows, d, a.shape), pivots


def rank(field: Field, a: np.ndarray) -> int:
    return len(_eliminate(field, a)[2])


def nullspace(field: Field, a: np.ndarray) -> list[np.ndarray]:
    """Basis vectors (1-d arrays) of the right kernel of `a`."""
    n = a.shape[1]
    r_mat, pivots = rref(field, a)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = field.zeros(1, n)[0]
        v[f] = field.one
        for i, c in enumerate(pivots):
            v[c] = field.scalar_neg(r_mat[i, f])
        basis.append(v)
    return basis


def det(field: Field, a: np.ndarray):
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"determinant of non-square {a.shape} matrix")
    return _eliminate(field, a)[3]


def inv(field: Field, a: np.ndarray) -> np.ndarray:
    m, n = a.shape
    if m != n:
        raise ValueError("inverse of non-square matrix")
    aug = field.zeros(n, 2 * n)
    aug[:, :n] = a
    aug[:, n:] = field.identity(n)
    rows, d, pivots, _ = _eliminate(field, aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return _to_array(field, [row[n:] for row in rows], d, (n, n))


def is_zero(field: Field, a: np.ndarray) -> bool:
    return all(field.scalar_is_zero(x) for x in a.flat)


def equal(field: Field, a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and is_zero(field, field.normalize(a - b))
